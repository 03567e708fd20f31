"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload campaign|service|kernels \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics of ``BENCHMARK.json`` with tracing off; ``--trace
1`` measures its per-layer metrics in separately traced children.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time

import harness

WORKLOADS = ("campaign", "service", "kernels")


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads((harness.BENCH_DIR / "pins.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.time()
    spec = load_spec()
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    units = {row["name"]: row["unit"] for row in rows}
    names = [row["name"] for row in rows]
    host = harness.host_context(started)

    import wl_campaign
    import wl_kernels
    import wl_service
    module = {"campaign": wl_campaign, "service": wl_service,
              "kernels": wl_kernels}[workload]

    harness.precompile()
    harness.WORK_ROOT.mkdir(exist_ok=True)
    harness.TRACE_OUT.mkdir(exist_ok=True)
    workdir = harness.WORK_ROOT / f"{workload}-{seed}-{int(started)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = module.run(seed, seconds, workdir, trace, load_pins())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(harness.WORK_ROOT.iterdir()):
            harness.WORK_ROOT.rmdir()

    if not trace:
        attempted = max(report.attempted, 1)
        report.metric("ok_frac", 1.0 - report.failed / attempted,
                      report.attempted)
    header = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": host,
              "wall_s": round(time.time() - started, 3)}
    return harness.emit(report, names, units, header)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.checkout_ok():
        print(f"perfbench: no program sources under {harness.SRC}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args.workload, args.seed, args.seconds,
                   bool(args.trace))
    finally:
        harness.kill_all()


if __name__ == "__main__":
    sys.exit(main())
