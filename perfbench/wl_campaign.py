"""The ``campaign`` workload: cold ``syncperf all``, serial and --jobs 2.

Each campaign runs in a fresh process (``child.py campaign``, which
imports the CLI, marks itself ready, and calls its ``main``).  Pairs of
one serial and one ``--jobs 2`` campaign repeat until the run's time
is up, alternating which mode goes first.  The seed picks the protocol
seed passed through ``--config`` (one of :data:`PROTOCOL_SEEDS`, each
with pinned sweep-CSV digests) and which mode opens the run.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path

import harness
import layers

#: Protocol seeds with pinned CSV digests.
PROTOCOL_SEEDS = 8

#: Experiments reported on their own in the traced breakdown.
NAMED_EXPERIMENTS = ("listing1", "fig6", "ext-sanitizer", "ext-reduce",
                     "mg-sync")

CHILD_TIMEOUT_S = 150.0


def plan(seed: int) -> dict:
    """The inputs a seed gives: protocol seed and opening mode."""
    return {"protocol_seed": seed % PROTOCOL_SEEDS,
            "serial_first": (seed // PROTOCOL_SEEDS) % 2 == 0}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def csv_digests(directory: Path) -> dict[str, str]:
    return {p.name: digest(p) for p in sorted(directory.glob("*.csv"))}


def experiment_failures(stdout: str, rc: int) -> tuple[int, list[str]]:
    """(experiments attempted, failures) from one campaign's output.

    An experiment fails when its section is missing, or shows a claim
    not reproduced (``[FAIL]``) or a sweep point lost (``[LOST]``).
    """
    match = re.search(r"^running \d+ experiment\(s\): (.*)$", stdout,
                      re.MULTILINE)
    if match is None:
        return 1, [f"campaign exited {rc} before listing experiments"]
    ids = [s.strip() for s in match.group(1).split(",")]
    sections = re.split(r"^=== ", stdout, flags=re.MULTILINE)[1:]
    seen = {}
    for section in sections:
        seen[section.split(" ", 1)[0]] = section
    failures = []
    for exp_id in ids:
        body = seen.get(exp_id)
        if body is None:
            failures.append(f"{exp_id}: no result")
        elif "[FAIL]" in body or "[LOST]" in body:
            failures.append(f"{exp_id}: claim not reproduced")
    if rc != 0 and not failures:
        failures.append(f"campaign exited {rc}")
    return len(ids), failures


def csv_failures(directory: Path, pinned: dict[str, str],
                 other: Path | None = None) -> list[str]:
    """Failures among the sweep CSVs of one campaign: a digest that
    differs from the pin, a missing or unexpected file, or (given
    ``other``) bytes that differ from the other mode's file."""
    found = csv_digests(directory)
    failures = [f"unexpected csv {name}"
                for name in sorted(set(found) - set(pinned))]
    for name, want in sorted(pinned.items()):
        got = found.get(name)
        if got is None:
            failures.append(f"{name}: missing")
        elif got != want:
            failures.append(f"{name}: digest {got} != pinned {want}")
        elif other is not None and \
                (directory / name).read_bytes() != \
                (other / name).read_bytes():
            failures.append(f"{name}: serial and --jobs 2 differ")
    return failures


class Campaign:
    """One campaign child: spawn, reap, check."""

    def __init__(self, workdir: Path, tag: str, protocol_seed: int,
                 jobs: int, trace: bool = False) -> None:
        self.csv_dir = workdir / f"{tag}-csv"
        self.record_path = workdir / f"{tag}.json"
        config = workdir / f"config-{protocol_seed}.json"
        config.write_text(json.dumps({"seed": protocol_seed}))
        argv = [str(self.record_path)]
        if trace:
            argv += ["--trace", "--spans",
                     str(harness.TRACE_OUT / f"campaign-{tag}.jsonl")]
        argv += ["--", "all", "--csv", str(self.csv_dir),
                 "--config", str(config)]
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        self.child = harness.python_child(
            "child.py", ["campaign", *argv], workdir, tag)
        self.result = self.child.wait(CHILD_TIMEOUT_S)
        self.record = json.loads(self.record_path.read_text()) \
            if self.record_path.exists() else {}

    @property
    def setup_s(self) -> float | None:
        ready = self.record.get("ready")
        return None if ready is None else ready - self.result.spawn_t

    def check(self, report: harness.Report, pinned: dict[str, str],
              other: "Campaign | None" = None) -> int:
        """Tally this campaign's experiments and CSVs; returns the
        number of experiments that completed."""
        n, failures = experiment_failures(self.result.stdout,
                                          self.result.returncode)
        report.tally(n, len(failures), "; ".join(failures[:5]))
        csv = csv_failures(self.csv_dir, pinned,
                           other.csv_dir if other else None)
        report.tally(len(pinned), len(csv), "; ".join(csv[:5]))
        if self.result.returncode != 0:
            report.notes.append(self.result.stderr.strip()[-400:])
        return n - len(failures)


def run(seed: int, seconds: float, workdir: Path, trace: bool,
        pins: dict) -> harness.Report:
    p = plan(seed)
    pinned = pins["campaign"][str(p["protocol_seed"])]
    return (_traced if trace else _untraced)(
        p, seconds, workdir, pinned)


def _untraced(p: dict, seconds: float, workdir: Path,
              pinned: dict) -> harness.Report:
    report = harness.Report()
    serial, jobs2, setups, rss = [], [], [], []
    experiments = 0
    deadline = time.monotonic() + seconds
    pair = 0
    while pair == 0 or time.monotonic() < deadline:
        serial_first = p["serial_first"] == (pair % 2 == 0)
        modes = (1, 2) if serial_first else (2, 1)
        runs = {jobs: Campaign(workdir, f"p{pair}-j{jobs}",
                               p["protocol_seed"], jobs)
                for jobs in modes}
        experiments += runs[1].check(report, pinned)
        experiments += runs[2].check(report, pinned, other=runs[1])
        serial.append(runs[1].result.wall_s)
        jobs2.append(runs[2].result.wall_s)
        setups += [c.setup_s for c in runs.values()
                   if c.setup_s is not None]
        rss.append(max(c.result.maxrss_mb for c in runs.values()))
        pair += 1
    campaign_s, jobs2_s = harness.median(serial), harness.median(jobs2)
    report.named("campaign_s", campaign_s, "s", len(serial))
    report.named("campaign_jobs2_s", jobs2_s, "s", len(jobs2))
    report.metric("main_ms", campaign_s * 1e3, len(serial))
    report.metric("second_ms", jobs2_s * 1e3, len(jobs2))
    report.metric("ops_per_s", experiments / sum(serial + jobs2),
                  experiments)
    if setups:
        report.metric("setup_s", harness.median(setups), len(setups))
    report.metric("peak_rss_mb", harness.median(rss), len(rss))
    return report


def _traced(p: dict, seconds: float, workdir: Path,
            pinned: dict) -> harness.Report:
    """Traced serial campaigns against untraced ones, then one traced
    ``--jobs 2`` campaign for the fan-out's busy fraction."""
    report = harness.Report()
    traced, plain = [], []
    deadline = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < deadline:
        order = (True, False) if i % 2 == 0 else (False, True)
        for on in order:
            c = Campaign(workdir, f"t{i}-{int(on)}", p["protocol_seed"],
                         1, trace=on)
            c.check(report, pinned)
            (traced if on else plain).append(c)
        i += 1
    fan = Campaign(workdir, "t-jobs2", p["protocol_seed"], 2, trace=True)
    fan.check(report, pinned)

    samples = [campaign_layers(c.record) for c in traced if c.record]
    metrics = layers.median_of(samples)
    metrics["experiments.jobs2_busy_frac"] = busy_fraction(fan.record,
                                                           jobs=2)
    metrics["obs.trace_overhead_pct"] = layers.overhead_pct(
        [c.record.get("run_s") for c in traced],
        [c.record.get("run_s") for c in plain])
    layers.fill(report, metrics, len(samples))
    return report


def campaign_layers(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced serial campaign."""
    metrics = layers.common(record)
    metrics["experiments.import_s"] = record.get("import_s", 0.0)
    exp = record.get("layers", {}).get("experiments.exp", {})
    walls = {tag: entry["total_ns"] / 1e9
             for tag, entry in exp.get("by_tag", {}).items()}
    for name in NAMED_EXPERIMENTS:
        metrics[f"experiments.exp_s.{name}"] = walls.pop(name, 0.0)
    metrics["experiments.exp_s.rest"] = sum(walls.values())
    return metrics


def busy_fraction(record: dict, jobs: int) -> float:
    """Experiment wall time summed over workers, per worker-second of
    the whole campaign."""
    spans = record.get("layers", {})
    busy = spans.get("experiments.exp", {}).get("total_ns", 0)
    wall = spans.get("experiments.run_campaign", {}).get("total_ns", 0)
    return busy / (jobs * wall) if wall else 0.0
