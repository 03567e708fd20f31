"""Per-layer metrics from a traced child's spans and counter deltas.

Every traced run reports every per-layer metric; a layer the workload
never enters reads 0 (no calls, no time).  Times are self times: a
span's duration minus what its direct child spans cover.
"""

from __future__ import annotations

import statistics

import harness

#: Every per-layer metric, in report order (``BENCHMARK.json`` lists
#: the same names).
NAMES = (
    "experiments.import_s",
    "experiments.exp_s.listing1",
    "experiments.exp_s.fig6",
    "experiments.exp_s.ext-sanitizer",
    "experiments.exp_s.ext-reduce",
    "experiments.exp_s.mg-sync",
    "experiments.exp_s.rest",
    "experiments.jobs2_busy_frac",
    "core.engine.measure_calls",
    "core.engine.measure_us",
    "core.engine.fast_share",
    "core.engine.retries",
    "common.rng.pool_hit_ratio",
    "cuda.launch_calls",
    "cuda.launch_ms",
    "cuda.uniform_pass_share",
    "cuda.blocks_fast",
    "cuda.multigpu.launch_ms",
    "cuda.multigpu.replay_hit_ratio",
    "openmp.parallel_ms",
    "openmp.fast_share",
    "compiler.dispatch.engaged_share",
    "compiler.dispatch.fallback",
    "compiler.dispatch.compile",
    "service.catalog.validate_us",
    "service.cache.key_us",
    "service.cache.get_us",
    "service.cache.put_us",
    "service.workers.execute_ms",
    "service.catalog.execute_us",
    "service.daemon.http_ms.hit",
    "service.daemon.http_ms.miss",
    "service.cache_hit_ratio",
    "service.coalesced",
    "service.worker_restarts",
    "obs.trace_overhead_pct",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _calls(spans: dict, name: str) -> int:
    return spans.get(name, {}).get("calls", 0)


def _self_total(spans: dict, name: str, scale: float) -> float:
    """Summed self time of ``name`` spans, in units of ``scale`` ns."""
    return spans.get(name, {}).get("self_ns", 0) / scale


def _self_mean(spans: dict, name: str, scale: float) -> float:
    """Mean self time per ``name`` span, in units of ``scale`` ns."""
    entry = spans.get(name, {})
    return _share(entry.get("self_ns", 0), entry.get("calls", 0)) / scale


def common(record: dict) -> dict[str, float]:
    """Engine, interpreter, compiler and service layers of one traced
    child (everything but the workload-specific experiment rows)."""
    spans = record.get("layers", {})
    c = record.get("counters", {})
    launches = _calls(spans, "cuda.launch") + \
        _calls(spans, "openmp.parallel")
    return {
        "core.engine.measure_calls": _calls(spans, "core.engine.measure"),
        "core.engine.measure_us": _self_mean(spans, "core.engine.measure",
                                             1e3),
        "core.engine.fast_share": _share(
            c.get("engine.path.fast", 0),
            c.get("engine.path.fast", 0)
            + c.get("engine.path.reference", 0)),
        "core.engine.retries": c.get("engine.retries", 0),
        "common.rng.pool_hit_ratio": _share(
            c.get("rng.pool.hits", 0),
            c.get("rng.pool.hits", 0) + c.get("rng.pool.misses", 0)),
        "cuda.launch_calls": _calls(spans, "cuda.launch"),
        "cuda.launch_ms": _self_total(spans, "cuda.launch", 1e6),
        "cuda.uniform_pass_share": _share(
            c.get("interp.cuda.uniform_passes", 0),
            c.get("interp.cuda.passes", 0)),
        "cuda.blocks_fast": c.get("interp.cuda.blocks_fast", 0),
        "cuda.multigpu.launch_ms": _self_total(
            spans, "cuda.multigpu.launch", 1e6),
        "cuda.multigpu.replay_hit_ratio": _share(
            c.get("multigpu.replay_hit", 0),
            c.get("multigpu.replay_hit", 0)
            + c.get("multigpu.replay_miss", 0)),
        "openmp.parallel_ms": _self_total(spans, "openmp.parallel", 1e6),
        "openmp.fast_share": _share(
            c.get("interp.omp.regions_fast", 0),
            c.get("interp.omp.regions_fast", 0)
            + c.get("interp.omp.regions_reference", 0)),
        "compiler.dispatch.engaged_share": _share(
            c.get("dispatch.hit", 0) + c.get("dispatch.shape_hit", 0)
            + c.get("dispatch.disk_hit", 0), launches),
        "compiler.dispatch.fallback": c.get("dispatch.fallback", 0),
        "compiler.dispatch.compile": c.get("dispatch.compile", 0),
        "service.catalog.validate_us": _self_mean(
            spans, "service.catalog.validate", 1e3),
        "service.cache.key_us": _self_mean(spans, "service.cache.key", 1e3),
        "service.cache.get_us": _self_mean(spans, "service.cache.get", 1e3),
        "service.cache.put_us": _self_mean(spans, "service.cache.put", 1e3),
        "service.workers.execute_ms": _self_mean(
            spans, "service.workers.execute", 1e6),
        "service.catalog.execute_us": _self_mean(
            spans, "service.catalog.execute", 1e3),
        "service.cache_hit_ratio": _share(
            c.get("service.cache_hit", 0), c.get("service.requests", 0)),
        "service.coalesced": c.get("service.coalesced", 0),
        "service.worker_restarts": c.get("service.worker_restarts", 0),
    }


def median_of(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced children."""
    names = {name for sample in samples for name in sample}
    return {name: statistics.median(s.get(name, 0.0) for s in samples)
            for name in names}


def overhead_pct(traced: list, plain: list) -> float:
    """Median traced time over median untraced time, as % extra."""
    traced = [t for t in traced if t]
    plain = [t for t in plain if t]
    if not traced or not plain:
        return 0.0
    return (statistics.median(traced) / statistics.median(plain) - 1) \
        * 100.0


def fill(report: harness.Report, metrics: dict[str, float],
         n: int) -> None:
    """Record every per-layer metric; layers not entered read 0."""
    for name in NAMES:
        report.metric(name, metrics.get(name, 0.0), n)
