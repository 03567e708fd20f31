"""Child-process entry points (one fresh interpreter per sample).

    python3 perfbench/child.py campaign RECORD [--trace] -- SYNCPERF_ARGS
    python3 perfbench/child.py kernels RECORD SEED INDEX [--trace]
    python3 perfbench/child.py serve [--trace RECORD] SERVE_ARGS

Each writes a JSON record to RECORD.  ``ready`` is the
``time.monotonic()`` at which the process finished its set-up; the
parent spawned it at a time on the same clock, so the difference is
the set-up time.  With ``--trace`` the layer wrappers of
:mod:`tracing` are installed after set-up, and the record carries the span summary and the counter deltas; ``--spans
FILE`` also dumps the raw spans there.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _counters() -> dict[str, int]:
    from repro.obs import counters_snapshot
    return counters_snapshot()


def _delta(before: dict[str, int]) -> dict[str, int]:
    after = _counters()
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def _write_trace(record: dict, spans_path: str | None) -> None:
    """Summarize the spans into ``record``; dump them to a JSONL file."""
    import tracing
    record["layers"] = tracing.layer_summary(tracing.TRACER.spans)
    if spans_path:
        with open(spans_path, "w") as out:
            for sid, parent, name, t0, t1, rid, tag in \
                    tracing.TRACER.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": t0, "end_ns": t1, "request": rid,
                    "tag": tag}) + "\n")


def campaign(record_path: str, trace: bool, argv: list[str],
             spans_path: str | None) -> int:
    t0 = time.monotonic()
    import repro.experiments.launch as launch
    ready = time.monotonic()
    record = {"ready": ready, "import_s": ready - t0}
    if trace:
        import tracing
        tracing.install_engine()
        tracing.install_campaign()
        before = _counters()
    start = time.monotonic()
    rc = launch.main(argv)
    record["run_s"] = time.monotonic() - start
    record["rc"] = rc
    if trace:
        record["counters"] = _delta(before)
        _write_trace(record, spans_path)
    sys.stdout.flush()
    Path(record_path).write_text(json.dumps(record))
    return rc


def kernels(record_path: str, seed: int, index: int, trace: bool,
            spans_path: str | None) -> int:
    import gallery
    launches = gallery.plan(seed, index)
    g = gallery.Gallery()
    g.prepare(launches)
    ready = time.monotonic()
    if trace:
        import tracing
        tracing.install_engine()
        before = _counters()
    records = []
    marks = []
    for program, variant in launches:
        values, correct = g.run(program, variant)
        marks.append(time.monotonic())
        records.append({"program": program, "variant": variant,
                        "values": values, "correct": correct})
    record = {"ready": ready, "launches": records,
              "listing1_cold_s": marks[0] - ready,
              "kernels_warm_s": marks[-1] - marks[0]}
    if trace:
        record["counters"] = _delta(before)
        _write_trace(record, spans_path)
    Path(record_path).write_text(json.dumps(record))
    return 0


def serve(argv: list[str], record_path: str | None,
          spans_path: str | None) -> int:
    """``python -m repro.service serve ARGV``, stoppable by SIGINT.

    A shell that starts the benchmark in the background sets SIGINT to
    ignored, and children inherit that; restore Python's handler so the
    daemon shuts down its workers on SIGINT as it would interactively.
    With a ``RECORD`` the service layers are traced: the wrappers are
    installed before the daemon forks its workers, so they inherit
    them, and the record is written once the daemon has shut down.
    """
    import signal
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.service.__main__ import main as service_main
    if record_path is None:
        return service_main(["serve", *argv])
    import tracing
    tracing.install_engine()
    tracing.install_service()
    before = _counters()
    rc = service_main(["serve", *argv])
    record = {"counters": _delta(before)}
    _write_trace(record, spans_path)
    Path(record_path).write_text(json.dumps(record))
    return rc


def _pop_option(argv: list[str], flag: str) -> str | None:
    """Remove ``flag VALUE`` from ``argv``; return VALUE (or None)."""
    if flag not in argv:
        return None
    i = argv.index(flag)
    value = argv[i + 1]
    del argv[i:i + 2]
    return value


def main(argv: list[str]) -> int:
    spans_path = _pop_option(argv, "--spans")
    if argv[0] == "serve":
        record_path = _pop_option(argv, "--trace")
        return serve(argv[1:], record_path, spans_path)
    mode, record_path, *rest = argv
    if mode == "campaign":
        split = rest.index("--")
        return campaign(record_path, "--trace" in rest[:split],
                        rest[split + 1:], spans_path)
    if mode == "kernels":
        return kernels(record_path, int(rest[0]), int(rest[1]),
                       "--trace" in rest[2:], spans_path)
    raise SystemExit(f"unknown child mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
