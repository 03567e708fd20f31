"""The ``kernels`` workload: Listing 1 and the gallery, cold processes.

Kernel processes (``child.py kernels``) repeat until the run's time is
up; process ``i`` runs :func:`gallery.plan` ``(seed, i)``.  Each one
reports its set-up time, the cold first Listing 1, and the rest of its
launch list, and every launch is checked against ``pins.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import gallery
import harness
import layers

CHILD_TIMEOUT_S = 120.0


class KernelProcess:
    """One kernel child: spawn, reap, check."""

    def __init__(self, workdir: Path, seed: int, index: int,
                 trace: bool = False) -> None:
        tag = f"k{index}-{int(trace)}"
        record_path = workdir / f"{tag}.json"
        argv = ["kernels", str(record_path), str(seed), str(index)]
        if trace:
            argv += ["--trace", "--spans",
                     str(harness.TRACE_OUT / f"kernels-{index}.jsonl")]
        child = harness.python_child("child.py", argv, workdir, tag)
        self.result = child.wait(CHILD_TIMEOUT_S)
        self.record = json.loads(record_path.read_text()) \
            if record_path.exists() else None
        self.expected = len(gallery.plan(seed, index))

    def check(self, report: harness.Report, pins: dict) -> bool:
        """Tally every launch; False when the process itself failed."""
        if self.record is None or self.result.returncode != 0:
            report.tally(self.expected, self.expected,
                         f"kernel process exited "
                         f"{self.result.returncode}: "
                         f"{self.result.stderr.strip()[-400:]}")
            return False
        failures = gallery.check(self.record["launches"], pins)
        report.tally(len(self.record["launches"]), len(failures),
                     "; ".join(failures[:5]))
        return True

    @property
    def setup_s(self) -> float:
        return self.record["ready"] - self.result.spawn_t

    @property
    def busy_s(self) -> float:
        return self.record["listing1_cold_s"] + \
            self.record["kernels_warm_s"]


def run(seed: int, seconds: float, workdir: Path, trace: bool,
        pins: dict) -> harness.Report:
    pins = pins["kernels"]
    report = harness.Report()
    deadline = time.monotonic() + seconds
    if trace:
        # Pairs run the same launch list traced and untraced,
        # alternating which goes first.
        traced, plain = [], []
        i = 0
        while i == 0 or time.monotonic() < deadline:
            for on in ((True, False) if i % 2 == 0 else (False, True)):
                proc = KernelProcess(workdir, seed, i, trace=on)
                if proc.check(report, pins):
                    (traced if on else plain).append(proc)
            i += 1
        metrics = layers.median_of(
            [layers.common(p.record) for p in traced])
        metrics["obs.trace_overhead_pct"] = layers.overhead_pct(
            [p.busy_s for p in traced], [p.busy_s for p in plain])
        layers.fill(report, metrics, len(traced))
        return report

    done = []
    i = 0
    while i == 0 or time.monotonic() < deadline:
        proc = KernelProcess(workdir, seed, i)
        if proc.check(report, pins):
            done.append(proc)
        i += 1
    if done:
        n = len(done)
        report.metric("setup_s",
                      harness.median([p.setup_s for p in done]), n)
        cold = harness.median([p.record["listing1_cold_s"] for p in done])
        warm = harness.median([p.record["kernels_warm_s"] for p in done])
        report.named("listing1_cold_s", cold, "s", n)
        report.named("kernels_warm_s", warm, "s", n)
        report.metric("main_ms", cold * 1e3, n)
        report.metric("second_ms", warm * 1e3, n)
        launches = sum(len(p.record["launches"]) for p in done)
        report.metric("ops_per_s",
                      launches / sum(p.busy_s for p in done), launches)
        report.metric("peak_rss_mb", harness.median(
            [p.result.maxrss_mb for p in done]), n)
    return report
