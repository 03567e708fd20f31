"""Benchmark-side spans around the public entry point of each layer.

The program is not edited: the ``install_*`` functions replace each
entry point with a wrapper that records a span (name, start, end, parent span,
request id) in memory.  Spans are dumped when the traced child ends,
and :func:`layer_summary` turns them into per-layer call counts and
self times (a span's duration minus the part its direct children
cover).

Worker processes of the measurement service are forked after
:func:`install`, so they inherit the wrappers; the wrapped
``serve_job`` ships the worker's spans back inside its reply frame and
the wrapped ``WorkerPool.execute`` re-parents them under itself.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

#: Reply key the worker-side wrapper ships its spans under.
SHIPPED = "perfbench_spans"


class Tracer:
    """In-memory span recorder (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [sid, parent, name, t0, t1, rid, tag]
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, int | None]:
        """(span id, request id) of the innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Record one span; yields a dict whose ``tag`` is stored."""
        parent, rid = self.current()
        sid = self.next_id()
        rid = request if request is not None else rid
        stack = self._stack()
        stack.append((sid, rid))
        note = {"tag": None, "sid": sid}
        t0 = time.perf_counter_ns()
        try:
            yield note
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append([sid, parent, name, t0, t1, rid,
                               note["tag"]])

    def add(self, name: str, t0: int, t1: int, tag: object = None
            ) -> None:
        """Record an already-finished span with no parent.

        Used for intervals reported after the fact, whose children were
        recorded under another span; detaching them keeps every other
        span's self time exact.
        """
        self.spans.append([self.next_id(), None, name, t0, t1, None,
                           tag])

    def adopt(self, shipped: list[list], parent: int) -> None:
        """Re-id spans shipped from another process under ``parent``."""
        _, rid = self.current()
        remap: dict[int, int] = {}
        for sid, _, *_rest in shipped:
            remap[sid] = self.next_id()
        for sid, old_parent, name, t0, t1, _, tag in shipped:
            self.spans.append([remap[sid], remap.get(old_parent, parent),
                               name, t0, t1, rid, tag])


TRACER = Tracer()


def _wrap(owner: object, attr: str, name: str) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else None
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with TRACER.span(name):
            return original(*args, **kwargs)

    if isinstance(raw, classmethod):
        def cls_wrapper(cls, *args, **kwargs):
            with TRACER.span(name):
                return original(*args, **kwargs)
        setattr(owner, attr, classmethod(cls_wrapper))
    else:
        setattr(owner, attr, wrapper)


def install_engine() -> None:
    """Spans for the engine and the two kernel interpreters."""
    from repro.core.engine import MeasurementEngine
    from repro.cuda.interpreter import Cuda
    from repro.cuda.multigpu import MultiCuda
    from repro.openmp.interpreter import OpenMP
    # ``measure_robust`` (what experiments call) does not go through
    # ``measure``; each is one engine measurement.
    _wrap(MeasurementEngine, "measure", "core.engine.measure")
    _wrap(MeasurementEngine, "measure_robust", "core.engine.measure")
    _wrap(Cuda, "launch", "cuda.launch")
    _wrap(MultiCuda, "launch", "cuda.multigpu.launch")
    _wrap(OpenMP, "parallel", "openmp.parallel")


def install_campaign() -> None:
    """Spans for the campaign runner and each experiment it reports.

    ``run_campaign`` is wrapped where the CLI looks it up; its
    ``on_result`` callback turns each experiment's reported wall time
    into an ``experiments.exp`` span tagged with the experiment id.
    """
    import repro.experiments.launch as launch
    original = launch.run_campaign

    def run_campaign(ids, **kwargs):
        hook = kwargs.get("on_result")

        def on_result(exp_id, definition, sweeps, checks, wall):
            end = time.perf_counter_ns()
            TRACER.add("experiments.exp", end - int(wall * 1e9), end,
                       tag=exp_id)
            if hook is not None:
                hook(exp_id, definition, sweeps, checks, wall)

        kwargs["on_result"] = on_result
        with TRACER.span("experiments.run_campaign") as note:
            note["tag"] = kwargs.get("jobs", 1)
            return original(ids, **kwargs)

    launch.run_campaign = run_campaign


def install_service() -> None:
    """Spans for every stage of a ``/measure`` request."""
    import repro.service.core as core
    import repro.service.workers as workers
    from repro.service.cache import ResultCache
    from repro.service.catalog import MeasureRequest

    _wrap(MeasureRequest, "from_json", "service.catalog.validate")
    _wrap(core, "cache_key", "service.cache.key")
    _wrap(ResultCache, "get", "service.cache.get")
    _wrap(ResultCache, "put", "service.cache.put")
    _wrap(workers, "execute_request", "service.catalog.execute")

    submit = core.MeasurementService.submit

    def traced_submit(self, payload):
        with TRACER.span("service.submit",
                         request=TRACER.next_id()) as note:
            response = submit(self, payload)
            note["tag"] = "coalesced" if response.get("coalesced") \
                else response.get("cache", response.get("status"))
            return response

    core.MeasurementService.submit = traced_submit

    execute = workers.WorkerPool.execute

    def traced_execute(self, request, deadline_s, seq=None, trace=None):
        with TRACER.span("service.workers.execute") as note:
            verdict = execute(self, request, deadline_s, seq=seq,
                              trace=trace)
            shipped = verdict.pop(SHIPPED, None)
            if shipped:
                TRACER.adopt(shipped, note["sid"])
            return verdict

    workers.WorkerPool.execute = traced_execute

    serve_job = workers.serve_job

    def traced_serve_job(job):
        # Runs in the forked worker: keep only this job's spans.
        mark = len(TRACER.spans)
        reply = serve_job(job)
        reply[SHIPPED] = TRACER.spans[mark:]
        del TRACER.spans[mark:]
        return reply

    workers.serve_job = traced_serve_job


# --------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> dict[int, int]:
    """Self time (ns) of every span: duration minus direct children."""
    child_ns: dict[int, int] = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    return {sid: max(0, (t1 - t0) - child_ns.get(sid, 0))
            for sid, _, _, t0, t1, _, _ in spans}


def layer_summary(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self nanoseconds, and the same
    split by tag (``hit``/``miss`` for submits, the experiment id for
    ``experiments.exp``)."""
    selfs = self_times(spans)
    summary: dict[str, dict] = {}
    for sid, _, name, t0, t1, _, tag in spans:
        entry = summary.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "by_tag": {}})
        entry["calls"] += 1
        entry["total_ns"] += t1 - t0
        entry["self_ns"] += selfs[sid]
        if tag is not None:
            by_tag = entry["by_tag"].setdefault(
                str(tag), {"calls": 0, "total_ns": 0, "durations": []})
            by_tag["calls"] += 1
            by_tag["total_ns"] += t1 - t0
            by_tag["durations"].append(t1 - t0)
    return summary
