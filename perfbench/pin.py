"""Regenerate ``pins.json``: the correctness data the benchmark checks.

    python3 perfbench/pin.py        # from the root of a checkout

Pins the sweep-CSV digests of a serial ``syncperf all`` for every
protocol seed the ``campaign`` workload uses, and the simulated cycles
of every (program, variant) of the ``kernels`` workload.  Rerun only
when a change is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import gallery
import harness
import wl_campaign


def main() -> int:
    if not harness.checkout_ok():
        print("pin.py: run from the root of a checkout", file=sys.stderr)
        return 2
    harness.use_checkout_sources()
    workdir = harness.WORK_ROOT / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins: dict = {"campaign": {}, "kernels": {}}
    try:
        for seed in range(wl_campaign.PROTOCOL_SEEDS):
            run = wl_campaign.Campaign(workdir, f"pin-{seed}", seed, 1)
            n, failures = wl_campaign.experiment_failures(
                run.result.stdout, run.result.returncode)
            if failures:
                print(f"pin.py: seed {seed}: {failures}", file=sys.stderr)
                return 1
            pins["campaign"][str(seed)] = wl_campaign.csv_digests(
                run.csv_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    g = gallery.Gallery()
    for program in ("listing1", *gallery.PROGRAMS):
        variants = 1 if program in gallery.FIXED else gallery.VARIANTS
        for variant in range(variants):
            values, correct = g.run(program, variant)
            if not correct:
                print(f"pin.py: {program}[{variant}] is wrong",
                      file=sys.stderr)
                return 1
            pins["kernels"].setdefault(program, {})[str(variant)] = values
    (harness.BENCH_DIR / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
