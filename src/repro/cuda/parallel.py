"""Parallel execution of independent blocks over a persistent pool.

CUDA blocks of one launch cannot synchronize with each other, so a
kernel whose blocks touch global memory only through disjoint index
ranges is embarrassingly parallel.  :func:`try_parallel_blocks` exploits
that: it partitions the grid into contiguous chunks and fans them out
over a process-wide pool of **persistent** workers — forked once on
first use and reused across launches, so the fan-out engages even at
small job counts where the old fork-per-launch approach lost to fork
overhead.  Each worker runs its chunk against a shipped snapshot of
pre-launch memory while recording its global footprint; the parent —
only if the footprints are pairwise disjoint
(:func:`repro.cuda.race.footprints_disjoint`) — merges the written
ranges, stats, trace events, and step counts back in block order.

Because workers outlive any single launch, launch state is shipped
explicitly instead of being inherited: generator kernels are closures
and do not pickle, so they travel as marshalled code objects plus their
closure cells, defaults, and the referenced globals (recursively for
function-valued cells).  The worker rebuilds the function against
exactly those values — never against its own (potentially stale) module
state — so results cannot drift from the parent's.

Any overlap, unshippable state, worker failure, or step-budget hazard
returns ``None`` instead, and the caller re-executes serially on the
untouched parent memory — the resulting :class:`LaunchResult` is
byte-identical to a serial launch either way, which is the contract the
equivalence tests pin down.
"""

from __future__ import annotations

import atexit
import builtins
import dataclasses
import hashlib
import importlib
import marshal
import os
import pickle
import struct
import threading
import types
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from repro.common.budget import StepBudget
from repro.cuda.race import BlockFootprint, footprints_disjoint
from repro.cuda.trace import Trace
from repro.obs import event as obs_event
from repro.obs.context import TraceContext, current_context, traced_execution
from repro.obs.metrics import counter as _counter
from repro.obs.recorder import get_recorder

# Observability counters (docs/observability.md): attempted fan-outs,
# merged (successful) fan-outs, serial fallbacks, workers ever forked,
# and jobs dispatched to the pool.  Counter bumps inside workers die
# with the worker; everything here runs in the parent.
_C_FORK_ATTEMPTS = _counter("interp.cuda.fork.attempts")
_C_FORK_FORKED = _counter("interp.cuda.fork.forked")
_C_FORK_FALLBACKS = _counter("interp.cuda.fork.fallbacks")
_C_POOL_SPAWNED = _counter("interp.cuda.pool.spawned")
_C_POOL_JOBS = _counter("interp.cuda.pool.jobs")
_C_POOL_PLAN_JOBS = _counter("interp.cuda.pool.plan_jobs")

#: Hard ceiling on resident pool workers.
_MAX_WORKERS = 32


def _fork_fallback(reason: str) -> None:
    """Record one serial re-execution decision (counter + event)."""
    _C_FORK_FALLBACKS.add(1)
    obs_event("cuda.fork.fallback", reason=reason)


def _chunk_blocks(grid_blocks: int, jobs: int) -> list[list[int]]:
    """Split ``range(grid_blocks)`` into ``jobs`` contiguous chunks."""
    jobs = max(1, min(jobs, grid_blocks))
    base, extra = divmod(grid_blocks, jobs)
    chunks, start = [], 0
    for j in range(jobs):
        size = base + (1 if j < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


# --------------------------------------------------------------------- #
# Function shipping (closures do not pickle)
# --------------------------------------------------------------------- #

class _Unshippable(Exception):
    pass


def _global_refs(code, out: set) -> None:
    for name in code.co_names:
        out.add(name)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _global_refs(const, out)


def _ship_value(v, depth: int):
    if isinstance(v, types.FunctionType):
        return ("fn", _ship_function(v, depth + 1))
    if isinstance(v, types.ModuleType):
        return ("mod", v.__name__)
    return ("v", v)


def _ship_function(fn, depth: int = 0) -> dict:
    """Portable spec of a (possibly closure) function: marshalled code
    plus its cells, defaults, and referenced global values."""
    if depth > 4:
        raise _Unshippable("function nesting too deep")
    names: set = set()
    _global_refs(fn.__code__, names)
    refs = [(n, _ship_value(fn.__globals__[n], depth))
            for n in sorted(names) if n in fn.__globals__]
    return {
        "code": marshal.dumps(fn.__code__),
        "name": fn.__name__,
        "globals": refs,
        "cells": [_ship_value(c.cell_contents, depth)
                  for c in (fn.__closure__ or ())],
        "defaults": [_ship_value(v, depth)
                     for v in (fn.__defaults__ or ())],
        "kwdefaults": None if fn.__kwdefaults__ is None else
                      [(k, _ship_value(v, depth))
                       for k, v in fn.__kwdefaults__.items()],
    }


def _build_value(tag):
    kind = tag[0]
    if kind == "v":
        return tag[1]
    if kind == "mod":
        return importlib.import_module(tag[1])
    return _build_function(tag[1])


def _build_function(spec: dict):
    code = marshal.loads(spec["code"])
    g = {"__builtins__": builtins}
    for name, tag in spec["globals"]:
        g[name] = _build_value(tag)
    defaults = tuple(_build_value(t) for t in spec["defaults"]) or None
    cells = tuple(types.CellType(_build_value(t))
                  for t in spec["cells"]) or None
    fn = types.FunctionType(code, g, spec["name"], defaults, cells)
    if spec["kwdefaults"] is not None:
        fn.__kwdefaults__ = {k: _build_value(t)
                             for k, t in spec["kwdefaults"]}
    return fn


# --------------------------------------------------------------------- #
# Frame protocol (length-prefixed pickles over pipes)
# --------------------------------------------------------------------- #

def _write_frame(fd: int, data: bytes) -> None:
    buf = struct.pack(">Q", len(data)) + data
    view = memoryview(buf)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _read_exact(fd: int, n: int) -> bytes | None:
    parts = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        parts.append(chunk)
        n -= len(chunk)
    return b"".join(parts)


def _read_frame(fd: int) -> bytes | None:
    header = _read_exact(fd, 8)
    if header is None:
        return None
    (length,) = struct.unpack(">Q", header)
    return _read_exact(fd, length)


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #

#: Worker-side interpreter cache: rebuilding a device discards its
#: memoized cost tables and contexts, so keep one per parameter set.
_worker_cudas: dict = {}


def _worker_cuda(device_key, fast: bool):
    from repro.cuda.interpreter import Cuda
    try:
        key = (device_key, fast)
        cuda = _worker_cudas.get(key)
    except TypeError:  # unhashable parameter set: rebuild every job
        key = cuda = None
    if cuda is None:
        cls, spec, params, atomics = device_key
        cuda = Cuda(cls(spec, params, atomics), detect_races=False,
                    fast=fast)
        if key is not None:
            _worker_cudas[key] = cuda
    return cuda


def _run_job(job: dict) -> dict:
    """Worker-side: rebuild the launch state and run one block chunk.

    A job may carry a wire-format trace context; the chunk then runs
    inside a ``pool``-role span whose records ship back in the result
    so the parent can stitch them into its own trace.  Untraced jobs
    take the identical code path with zero span machinery.
    """
    from repro.cuda.interpreter import LaunchStats
    tctx = TraceContext.from_wire(job.get("trace"))
    cuda = _worker_cuda(job["device"], job["fast"])
    device = cuda.device
    kernel = _build_function(job["kernel"])
    launch = job["launch"]
    ctx = device.context(launch)
    memory = job["memory"]
    shared_decls = job["shared_decls"]
    stats = LaunchStats()
    budget = StepBudget(job["budget_limit"], hint="runaway kernel?")
    trace = Trace() if job["do_trace"] else None
    footprint = BlockFootprint()
    cycles, spans = traced_execution(
        tctx, "pool", "cuda.pool.chunk",
        lambda: [cuda._run_block(kernel, launch, ctx, block_idx, memory,
                                 shared_decls, stats, budget, trace,
                                 None, footprint)
                 for block_idx in job["chunk"]],
        blocks=len(job["chunk"]))
    writes = {}
    for var, idxs in footprint.writes.items():
        flat = memory[var].reshape(-1)
        idx_arr = np.array(sorted(idxs), dtype=np.intp)
        writes[var] = (idx_arr, flat[idx_arr].copy())
    result = {
        "cycles": cycles,
        "stats": dataclasses.asdict(stats),
        "footprint": footprint,
        "writes": writes,
        "trace": trace,
        "steps": budget.used,
    }
    if spans:
        result["spans"] = spans
    return result


#: Worker-side plan cache: lifted plan lists shipped once per content
#: key and replayed across launches; bounded LRU so a long-lived worker
#: sweeping many kernels cannot grow without limit.
_worker_plans: OrderedDict = OrderedDict()
_WORKER_PLAN_CAP = 64


def _run_plan_job(job: dict) -> dict:
    """Worker-side: replay cached lifted plans over one block chunk.

    Everything but the memory bytes is static per plan (cycles, stats,
    steps), so only the written elements travel back; the parent applies
    plan stats/cycles/budget itself.
    """
    from repro.cuda.interpreter import LaunchStats
    key = job["ship_key"]
    plans = _worker_plans.get(key)
    if plans is None:
        blob = job["plans"]
        if blob is None:
            # The parent believed this worker already held the plans
            # (e.g. state lost across an unnoticed respawn): surfacing
            # an error discards the pool and the launch re-runs serially.
            raise RuntimeError("plan cache miss for shipped key")
        plans = pickle.loads(blob)
        _worker_plans[key] = plans
        while len(_worker_plans) > _WORKER_PLAN_CAP:
            _worker_plans.popitem(last=False)
    else:
        _worker_plans.move_to_end(key)
    memory = job["memory"]
    shared_decls = job["shared_decls"]
    stats = LaunchStats()  # throwaway: parent applies plan.stats
    written: dict[str, set] = {}

    def replay() -> None:
        for block_idx, vi in job["chunk"]:
            plan = plans[vi]
            plan.execute(memory, shared_decls, stats, block_idx)
            for var, idxs in plan.footprint(block_idx).writes.items():
                written.setdefault(var, set()).update(idxs)

    _, spans = traced_execution(
        TraceContext.from_wire(job.get("trace")), "pool",
        "cuda.pool.plan_chunk", replay, blocks=len(job["chunk"]))
    writes = {}
    for var, idxs in written.items():
        flat = memory[var].reshape(-1)
        idx_arr = np.array(sorted(idxs), dtype=np.intp)
        writes[var] = (idx_arr, flat[idx_arr].copy())
    result = {"writes": writes}
    if spans:
        result["spans"] = spans
    return result


def _worker_main(read_fd: int, write_fd: int) -> None:
    """Worker loop: frames in, frames out, until EOF/quit."""
    while True:
        frame = _read_frame(read_fd)
        if frame is None:
            os._exit(0)
        try:
            request = pickle.loads(frame)
            if request[0] == "quit":
                os._exit(0)
            if request[0] == "plan_job":
                payload = ("ok", _run_plan_job(request[1]))
            else:
                payload = ("ok", _run_job(request[1]))
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            try:
                data = pickle.dumps(("err", repr(exc)),
                                    protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                data = pickle.dumps(("err", "unreportable worker error"),
                                    protocol=pickle.HIGHEST_PROTOCOL)
        try:
            _write_frame(write_fd, data)
        except OSError:
            os._exit(0)


# --------------------------------------------------------------------- #
# Parent side: the persistent pool
# --------------------------------------------------------------------- #

class _PoolError(Exception):
    pass


class _Worker:
    __slots__ = ("pid", "to_child", "from_child", "alive", "plan_digests")

    def __init__(self, pid: int, to_child: int, from_child: int) -> None:
        self.pid = pid
        self.to_child = to_child
        self.from_child = from_child
        self.alive = True
        #: Plan content keys this worker has been shipped (so repeat
        #: launches send only the chunk + memory, not the plans).
        self.plan_digests: set[bytes] = set()


class _WorkerPool:
    """Process-wide pool of forked block-execution workers.

    Workers are forked lazily on first use and reused across launches.
    A generation guard on :func:`os.getpid` resets the pool in forked
    children (e.g. the measurement service's workers), which inherit
    the parent's pipe fds but must never share its workers.
    """

    def __init__(self) -> None:
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def _spawn(self) -> _Worker:
        job_r, job_w = os.pipe()
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(job_w)
            os.close(res_r)
            try:
                _worker_main(job_r, res_w)
            finally:
                os._exit(0)
        os.close(job_r)
        os.close(res_w)
        _C_POOL_SPAWNED.add(1)
        return _Worker(pid, job_w, res_r)

    def _reap(self, worker: _Worker) -> None:
        worker.alive = False
        for fd in (worker.to_child, worker.from_child):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.waitpid(worker.pid, os.WNOHANG)
        except ChildProcessError:
            pass

    def _ensure(self, n: int) -> list[_Worker]:
        if os.getpid() != self._pid:
            # Forked child: the inherited workers belong to the parent.
            self._workers = []
            self._pid = os.getpid()
        self._workers = [w for w in self._workers if w.alive]
        while len(self._workers) < min(n, _MAX_WORKERS):
            self._workers.append(self._spawn())
        return self._workers

    def run_jobs(self, frames: list[bytes]) -> list[dict]:
        """Dispatch one pre-pickled job per worker (in waves when jobs
        outnumber the worker ceiling); raises :class:`_PoolError` on any
        worker failure.

        Any failure discards the whole pool: a dead sibling usually
        means the machine state that killed one worker (OOM, signal)
        hit its peers too, and probing them one launch at a time would
        cost a serial fallback per corpse."""
        with self._lock:
            try:
                return self._run_jobs_locked(frames)
            except _PoolError:
                for worker in self._workers:
                    self._reap(worker)
                self._workers = []
                raise

    def _run_jobs_locked(self, frames: list[bytes]) -> list[dict]:
        workers = self._ensure(len(frames))
        if not workers:
            raise _PoolError("no workers")
        results: list[dict] = []
        for start in range(0, len(frames), len(workers)):
            wave = frames[start:start + len(workers)]
            active = workers[:len(wave)]
            for worker, frame in zip(active, wave):
                try:
                    _write_frame(worker.to_child, frame)
                except OSError as exc:
                    raise _PoolError(f"worker write: {exc}") from exc
            for worker in active:
                data = _read_frame(worker.from_child)
                if data is None:
                    raise _PoolError("worker died")
                status, payload = pickle.loads(data)
                if status != "ok":
                    raise _PoolError(f"worker error: {payload}")
                results.append(payload)
            _C_POOL_JOBS.add(len(wave))
        return results

    def run_plan_jobs(self, ship_key: bytes, blob: bytes,
                      jobs: list[dict]) -> list[dict]:
        """Dispatch one lifted-plan chunk per worker.

        The pickled plan list (``blob``, content-keyed by ``ship_key``)
        is included only for workers that have not seen it yet; they
        cache it, so steady-state launches ship just the chunk indices
        and memory.  Failure semantics match :meth:`run_jobs`: any
        worker error discards the whole pool and raises
        :class:`_PoolError`.
        """
        with self._lock:
            try:
                return self._run_plan_jobs_locked(ship_key, blob, jobs)
            except _PoolError:
                for worker in self._workers:
                    self._reap(worker)
                self._workers = []
                raise

    def _run_plan_jobs_locked(self, ship_key: bytes, blob: bytes,
                              jobs: list[dict]) -> list[dict]:
        workers = self._ensure(len(jobs))
        if not workers:
            raise _PoolError("no workers")
        results: list[dict] = []
        for start in range(0, len(jobs), len(workers)):
            wave = jobs[start:start + len(workers)]
            active = workers[:len(wave)]
            for worker, job in zip(active, wave):
                send = dict(job, ship_key=ship_key)
                if ship_key in worker.plan_digests:
                    send["plans"] = None
                else:
                    send["plans"] = blob
                    worker.plan_digests.add(ship_key)
                frame = pickle.dumps(("plan_job", send),
                                     protocol=pickle.HIGHEST_PROTOCOL)
                try:
                    _write_frame(worker.to_child, frame)
                except OSError as exc:
                    raise _PoolError(f"worker write: {exc}") from exc
            for worker in active:
                data = _read_frame(worker.from_child)
                if data is None:
                    raise _PoolError("worker died")
                status, payload = pickle.loads(data)
                if status != "ok":
                    raise _PoolError(f"worker error: {payload}")
                results.append(payload)
            _C_POOL_PLAN_JOBS.add(len(wave))
        return results

    def shutdown(self) -> None:
        """Close every worker (atexit; also usable from tests)."""
        with self._lock:
            if os.getpid() != self._pid:
                self._workers = []
                return
            for worker in self._workers:
                if not worker.alive:
                    continue
                try:
                    _write_frame(worker.to_child,
                                 pickle.dumps(("quit", None)))
                except OSError:
                    pass
                self._reap(worker)
                try:
                    os.waitpid(worker.pid, 0)
                except ChildProcessError:
                    pass
            self._workers = []


#: The process-wide pool every launch shares.
POOL = _WorkerPool()
atexit.register(POOL.shutdown)

_FORK_PER_LAUNCH: list[bool] = []


@contextmanager
def fork_per_launch():
    """Context: spawn a throwaway worker pool for every fan-out instead
    of reusing :data:`POOL` — the pre-pool fork-per-launch regime, kept
    as the benchmark baseline for the ``parallel_blocks`` row."""
    _FORK_PER_LAUNCH.append(True)
    try:
        yield
    finally:
        _FORK_PER_LAUNCH.pop()


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def _merge_remote_spans(results: list[dict]) -> None:
    """Stitch pool-worker span buffers into the installed recorder."""
    recorder = get_recorder()
    if recorder is None:
        return
    for result in results:
        spans = result.get("spans")
        if spans:
            recorder.add_remote_spans(spans)


def try_parallel_blocks(cuda, kernel, launch, ctx,
                        memory: dict[str, np.ndarray],
                        shared_decls, stats, budget: StepBudget,
                        trace: Trace | None, block_jobs: int
                        ) -> list[float] | None:
    """Fan the launch's blocks out over the persistent worker pool.

    Returns:
        Per-block cycle list (with ``memory``/``stats``/``trace``/
        ``budget`` merged in block order), or ``None`` when the parallel
        attempt cannot guarantee a byte-identical result — the caller
        then runs the ordinary serial loop on the untouched parent
        state.
    """
    _C_FORK_ATTEMPTS.add(1)
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only feature
        _fork_fallback("platform without os.fork")
        return None

    chunks = _chunk_blocks(launch.grid_blocks, block_jobs)
    if len(chunks) < 2:
        _fork_fallback("fewer than 2 chunks")
        return None

    device = cuda.device
    # Ship a child trace context per chunk only when there is both a
    # context to propagate and a recorder to stitch the returned spans
    # into — the untraced frame stays byte-identical to before.
    tctx = current_context()
    ship_trace = tctx is not None and get_recorder() is not None
    try:
        base = {
            "device": (type(device), device.spec, device.params,
                       device.atomics),
            "fast": cuda.fast,
            "kernel": _ship_function(kernel),
            "launch": launch,
            "memory": memory,
            "shared_decls": shared_decls,
            "do_trace": trace is not None,
            "budget_limit": budget.remaining,
        }
        jobs = [dict(base, chunk=chunk) for chunk in chunks]
        if ship_trace:
            for job in jobs:
                job["trace"] = tctx.child().to_wire()
        frames = [pickle.dumps(("job", job),
                               protocol=pickle.HIGHEST_PROTOCOL)
                  for job in jobs]
    except Exception as exc:  # unpicklable/unshippable launch state
        _fork_fallback(f"unshippable launch state: {type(exc).__name__}")
        return None

    try:
        if _FORK_PER_LAUNCH:
            pool = _WorkerPool()
            try:
                results = pool.run_jobs(frames)
            finally:
                pool.shutdown()
        else:
            results = POOL.run_jobs(frames)
    except _PoolError as exc:
        # A worker error (kernel bug, budget blowout, ...) must surface
        # with the exact serial message and partial state — re-run
        # serially on the parent's untouched memory.
        _fork_fallback(f"worker failure: {exc}")
        return None

    if not footprints_disjoint([r["footprint"] for r in results]):
        _fork_fallback("overlapping block footprints")
        return None
    total_steps = sum(r["steps"] for r in results)
    if total_steps > budget.remaining:
        # The combined launch would exhaust the budget; only the serial
        # schedule knows the exact step count at which it trips.
        _fork_fallback("step budget hazard")
        return None

    _merge_remote_spans(results)
    # Safe: merge in block order so every artifact matches serial runs.
    block_cycles: list[float] = []
    for result in results:
        block_cycles.extend(result["cycles"])
        for var, (idx_arr, values) in result["writes"].items():
            memory[var].reshape(-1)[idx_arr] = values
        for field in dataclasses.fields(stats):
            setattr(stats, field.name,
                    getattr(stats, field.name)
                    + result["stats"][field.name])
        if trace is not None and result["trace"] is not None:
            trace.extend(result["trace"])
    budget.charge(total_steps)
    _C_FORK_FORKED.add(1)
    return block_cycles


def try_parallel_plans(pset, memory: dict[str, np.ndarray],
                       shared_decls, stats, budget: StepBudget,
                       block_jobs: int) -> list[float] | None:
    """Fan lifted block plans out over the persistent worker pool.

    Everything but the written bytes is known before dispatch — the
    plans' cycles, stats deltas, and step counts are static, and their
    footprints are derivable without execution — so disjointness and
    the step budget are verified *up front*, and each job ships only
    its chunk's arrays.  Returns per-block cycles with ``memory``/
    ``stats``/``budget`` merged, or ``None`` when the attempt cannot
    guarantee a byte-identical result (the caller replays the plans
    serially on the untouched parent memory).
    """
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only feature
        return None
    variants, assign = pset.plans, pset.assign
    chunks = _chunk_blocks(len(assign), block_jobs)
    if len(chunks) < 2:
        return None
    total_steps = sum(variants[vi].steps for vi in assign)
    if total_steps > budget.remaining:
        # Only the serial schedule knows the exact step at which the
        # budget trips.
        obs_event("cuda.plan.fallback", reason="step budget hazard")
        return None
    chunk_fps = []
    for chunk in chunks:
        fp = BlockFootprint()
        for block_idx in chunk:
            bf = variants[assign[block_idx]].footprint(block_idx)
            for var, idxs in bf.reads.items():
                fp.reads.setdefault(var, set()).update(idxs)
            for var, idxs in bf.writes.items():
                fp.writes.setdefault(var, set()).update(idxs)
        chunk_fps.append(fp)
    if not footprints_disjoint(chunk_fps):
        obs_event("cuda.plan.fallback", reason="overlapping footprints")
        return None
    if pset.blob is None:
        try:
            pset.blob = pickle.dumps(variants,
                                     protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            obs_event("cuda.plan.fallback", reason="unpicklable plans")
            return None
        pset.ship_key = hashlib.sha256(pset.blob).digest()
    tctx = current_context()
    ship_trace = tctx is not None and get_recorder() is not None
    jobs = []
    for chunk, fp in zip(chunks, chunk_fps):
        needed = set(fp.reads) | set(fp.writes)
        job = {
            "chunk": [(block_idx, assign[block_idx]) for block_idx in chunk],
            "memory": {var: memory[var] for var in needed},
            "shared_decls": shared_decls,
        }
        if ship_trace:
            job["trace"] = tctx.child().to_wire()
        jobs.append(job)
    try:
        if _FORK_PER_LAUNCH:
            pool = _WorkerPool()
            try:
                results = pool.run_plan_jobs(pset.ship_key, pset.blob,
                                             jobs)
            finally:
                pool.shutdown()
        else:
            results = POOL.run_plan_jobs(pset.ship_key, pset.blob, jobs)
    except _PoolError as exc:
        obs_event("cuda.plan.fallback", reason=f"worker failure: {exc}")
        return None

    _merge_remote_spans(results)
    # Disjointness was proven pre-dispatch, so merge order is free; use
    # chunk order anyway for determinism.
    for result in results:
        for var, (idx_arr, values) in result["writes"].items():
            memory[var].reshape(-1)[idx_arr] = values
    cycles: list[float] = []
    for vi in assign:
        plan = variants[vi]
        cycles.append(plan.cycles)
        for name, delta in plan.stats:
            setattr(stats, name, getattr(stats, name) + delta)
    budget.charge(total_steps)
    return cycles
