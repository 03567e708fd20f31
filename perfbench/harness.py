"""Process, statistics and reporting helpers shared by every workload.

Every timed operation runs in a child process started here, so each
sample sees a cold interpreter.  Children are spawned in their own
session, reaped with ``wait4`` (which also yields their peak resident
memory), and killed as a process group if they overrun a deadline.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root: the benchmark is always run from it.
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space of one run (removed when the run ends).
WORK_ROOT = ROOT / ".perfbench_work"
#: Span dumps of traced runs (kept for inspection, overwritten).
TRACE_OUT = ROOT / ".perfbench_out"


def checkout_ok() -> bool:
    """True when the working directory holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources, no
    ``SYNCPERF_*`` overrides, so each child runs the shipped defaults."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SYNCPERF_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def use_checkout_sources() -> None:
    """Let this process import ``repro`` from the checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_context(started: float) -> dict:
    """Host facts recorded with every run (answers "code or host?")."""
    return {
        "start_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                   time.gmtime(started)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- children

@dataclass
class ChildResult:
    """One finished child process."""

    returncode: int
    spawn_t: float          # time.monotonic() just before spawning
    exit_t: float           # time.monotonic() just after reaping
    maxrss_mb: float        # peak RSS of the child (and reaped children)
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.exit_t - self.spawn_t


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


#: Children not yet reaped, so an interrupted run can stop them.
LIVE: set["Child"] = set()


def kill_all() -> None:
    """Stop every child still running (an interrupted run)."""
    for child in list(LIVE):
        child.kill()


class Child:
    """A running child process in its own session.

    Stdout and stderr go to files under ``workdir`` (no pipes to
    drain), and :meth:`wait` reaps with ``os.wait4`` for the rusage.
    """

    def __init__(self, argv: list[str], workdir: Path, tag: str) -> None:
        self.out_path = workdir / f"{tag}.out"
        self.err_path = workdir / f"{tag}.err"
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.spawn_t = time.monotonic()
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True)
        LIVE.add(self)

    def read_stdout(self) -> str:
        return self.out_path.read_text(errors="replace")

    def interrupt(self) -> None:
        try:
            self.proc.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass

    def wait(self, timeout_s: float) -> ChildResult:
        """Reap the child, killing its group if it overruns."""
        pid = self.proc.pid
        timer = threading.Timer(timeout_s, _kill_group, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        LIVE.discard(self)
        exit_t = time.monotonic()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(pid)   # whatever the child left in its group
        return ChildResult(
            returncode=self.proc.returncode, spawn_t=self.spawn_t,
            exit_t=exit_t, maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=self.read_stdout(),
            stderr=self.err_path.read_text(errors="replace"))

    def kill(self) -> None:
        """Best-effort teardown of a child still running."""
        LIVE.discard(self)
        if self.proc.returncode is None:
            _kill_group(self.proc.pid)
            try:
                os.waitpid(self.proc.pid, 0)
            except ChildProcessError:
                pass
            self.proc.returncode = -9


def python_child(script: str, args: list[str], workdir: Path,
                 tag: str) -> Child:
    """Start ``python3 perfbench/<script> args...`` from the checkout."""
    argv = [sys.executable, str(BENCH_DIR / script), *args]
    return Child(argv, workdir, tag)


def precompile() -> None:
    """Byte-compile the sources once, so no child pays for it."""
    import compileall
    compileall.compile_dir(str(SRC), quiet=2, workers=1)


# --------------------------------------------------------------- statistics

def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: list[float], q: float) -> float | None:
    """The ``q`` percentile (0-100), or None unless at least ten
    samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < 10:
        return None
    ordered = sorted(values)
    rank = q / 100.0 * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ---------------------------------------------------------------- reporting

@dataclass
class Report:
    """What one run measured: metrics plus the correctness tally."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, n: int) -> None:
        """Record ``name`` measured over ``n`` samples."""
        self.metrics[name] = (float(value), int(n))

    def named(self, name: str, value: float, unit: str, n: int) -> None:
        """Print a workload-specific figure under its own name."""
        self.notes.append(f"{name} = {value:.6g} {unit} (n={n})")

    def tally(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and what:
            self.notes.append(f"FAILED {failed}/{attempted}: {what}")

    def fail(self, what: str) -> None:
        self.tally(1, 1, what)


def emit(report: Report, names: list[str], units: dict[str, str],
         header: dict) -> int:
    """Print the human-readable lines, then the one-line JSON result.

    Returns the process exit code (0 when every listed metric was
    measured).
    """
    print(f"perfbench {json.dumps(header, sort_keys=True)}")
    for note in report.notes:
        print(f"  {note}")
    missing = [n for n in names if n not in report.metrics]
    attempted = max(report.attempted, 1)
    print(f"  failed_frac = {report.failed / attempted:.6g} "
          f"({report.failed} of {report.attempted} operations failed)")
    for name in names:
        if name in report.metrics:
            value, n = report.metrics[name]
            print(f"  {name} = {value:.6g} {units[name]} (n={n})")
    if missing:
        print(f"perfbench: metrics not measured: {missing}",
              file=sys.stderr)
        return 3
    result = {
        "correct": report.failed == 0,
        "attempted": attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name][0],
                           "unit": units[name]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0
