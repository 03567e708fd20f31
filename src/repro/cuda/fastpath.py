"""Batched fast dispatch for the CUDA interpreter.

The scalar reference loop in :mod:`repro.cuda.interpreter` advances one
lane at a time: one ``isinstance`` chain, one cost lookup, and one
detector/trace check per lane per pass.  In every shipped kernel the
lanes of a warp almost always yield the *same* request type in a pass
(that is what SIMT means), so this module executes such **uniform
passes** as one batched operation over the whole warp:

* per-pass cost folding happens on arrays/sets instead of per-lane
  ``max`` reductions,
* memory traffic goes through one numpy gather/scatter instead of 32
  scalar loads/stores, and atomics through the request table's group
  applier (:func:`repro.cuda.requests.apply_atomics`),
* prices are memoized per block (:class:`repro.cuda.interpreter.Prices`),
  and
* the ``trace``/``detector`` observability hooks are hoisted out of the
  inner loop entirely — disabled observability costs nothing.

Divergent (mixed-type) passes, out-of-bounds or undeclared accesses,
and mixed-variable atomic groups fall back to the reference pass
semantics (:meth:`Cuda._process_gathered`), so every error message,
stat, cost, and trace label is byte-identical to the scalar loop.  Race
detection needs to observe every access in program order, so a launch
with a detector delegates to the reference block runner outright.

The ``interp.cuda.uniform_passes`` counter (:mod:`repro.obs`) lets
callers (the bench suite, CI smoke checks) assert that the batched
dispatcher actually ran — and that it did *not* run while timing the
reference path.
"""

from __future__ import annotations

import numpy as np

from repro.common.budget import StepBudget
from repro.compiler.ops import Scope
from repro.gpu.device import GpuRunContext
from repro.gpu.spec import LaunchConfig
from repro.cuda import requests as rq
from repro.cuda.interpreter import (
    _BlockEnv,
    _LaneState,
    LaunchStats,
    Prices,
    active_mask,
    start_block,
)
from repro.cuda.race import GpuRaceDetector
from repro.cuda.trace import Trace
from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

# Observability counters (docs/observability.md).  Dispatch passes are
# accumulated locally per block and flushed once at block end; the
# invariant ``uniform_passes + fallback_passes == passes`` holds by
# construction.
_C_UNIFORM = _counter("interp.cuda.uniform_passes")
_C_FALLBACK = _counter("interp.cuda.fallback_passes")
_C_PASSES = _counter("interp.cuda.passes")
_C_BLOCKS_FAST = _counter("interp.cuda.blocks_fast")


def run_block_fast(cuda, kernel, launch: LaunchConfig, ctx: GpuRunContext,
                   block_idx: int, memory: dict[str, np.ndarray],
                   shared_decls: dict[str, tuple[int, np.dtype]],
                   stats: LaunchStats, budget: StepBudget,
                   trace: Trace | None = None,
                   detector: GpuRaceDetector | None = None) -> float:
    """Execute one block with batched uniform-pass dispatch.

    Mirrors :meth:`Cuda._run_block_reference` exactly — same
    ``LaunchResult`` fields, same errors — while dispatching uniform
    warp passes as single vectorized operations.
    """
    if detector is not None:
        # A race detector must observe every access in program order;
        # the reference loop *is* that order.  Fast dispatch brings
        # nothing once per-access recording dominates anyway.
        return cuda._run_block_reference(
            kernel, launch, ctx, block_idx, memory, shared_decls, stats,
            budget, trace, detector)

    params = cuda.device.params
    alu_cycles = params.alu_cycles
    global_load_cycles = params.global_load_cycles
    uncoalesced = params.uncoalesced_penalty_cycles

    shared = {name: np.zeros(size, dtype=dt)
              for name, (size, dt) in shared_decls.items()}
    warps = start_block(kernel, launch, block_idx)
    prices = Prices(cuda.device, ctx, launch)
    warp_clocks = [0.0] * len(warps)
    env = _BlockEnv(block_idx=block_idx, detector=None)
    issuing_warps: dict[tuple, set[int]] = {}

    RUNNING = _LaneState.RUNNING
    DONE = _LaneState.DONE
    BARRIER = _LaneState.BARRIER
    COLLECTIVE = _LaneState.COLLECTIVE

    total_lanes = sum(len(lanes) for lanes in warps)
    done_lanes = 0

    # Flat views of each variable, cached per run: ``reshape(-1)``
    # allocates a fresh view object per call, which the reference loop
    # pays once per lane.  The dicts are never re-keyed mid-launch, so
    # one view per variable is safe.
    global_flats: dict[str, np.ndarray] = {}
    shared_flats: dict[str, np.ndarray] = {}

    def indices(in_shared, reqs):
        """The pass's flat view and per-lane indices, or None when the
        variable is undeclared, the lanes name different variables, or
        an index is out of bounds."""
        var = reqs[0].var
        space_flats = shared_flats if in_shared else global_flats
        flat = space_flats.get(var)
        if flat is None:
            arr = (shared if in_shared else memory).get(var)
            if arr is None:
                return None
            flat = space_flats[var] = arr.reshape(-1)
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        return flat, idx

    def access_cost(in_shared, flat, idx) -> float:
        if in_shared:
            stats.shared_accesses += len(idx)
            return alu_cycles
        stats.global_accesses += len(idx)
        itemsize = flat.itemsize
        sectors = {i * itemsize // 32 for i in idx}
        if len(sectors) > 1:
            return global_load_cycles + uncoalesced * (len(sectors) - 1)
        return global_load_cycles

    # ------------------------- uniform handlers ------------------------ #
    # Each takes the pass's live lanes and their requests — all of one
    # request class — as parallel lists, and returns (cost, label), or
    # None to fall back to the reference pass semantics (divergence in
    # var/scope, or an error case whose exact exception the reference
    # path must raise).

    def u_alu(glanes, reqs):
        return alu_cycles * max([r.n for r in reqs]), "Alu"

    def make_read(in_shared: bool, label: str):
        def u_read(glanes, reqs):
            got = indices(in_shared, reqs)
            if got is None:
                return None
            flat, idx = got
            cost = access_cost(in_shared, flat, idx)
            for lane, value in zip(glanes, flat.take(idx).tolist()):
                lane.pending = value
            return cost, label
        return u_read

    def make_write(in_shared: bool, label: str):
        def u_write(glanes, reqs):
            got = indices(in_shared, reqs)
            if got is None:
                return None
            flat, idx = got
            cost = access_cost(in_shared, flat, idx)
            if len(set(idx)) == len(idx):
                np.put(flat, idx, [r.value for r in reqs])
            else:
                # Duplicate targets: lane order decides the survivor.
                for r in reqs:
                    flat[r.idx] = r.value
            return cost, label
        return u_write

    def u_syncwarp(glanes, reqs):
        stats.syncwarps += len(reqs)
        return prices.op(rq.Syncwarp.kind), "Syncwarp"

    def u_threadfence(glanes, reqs):
        stats.fences += len(reqs)
        return max([prices.op(r.kind) for r in reqs]), "Threadfence"

    def u_activemask(glanes, reqs):
        mask = active_mask(current_lanes[0])
        for lane in glanes:
            lane.pending = mask
        return alu_cycles, "Activemask"

    def u_barrier(glanes, reqs):
        for lane, r in zip(glanes, reqs):
            lane.state = BARRIER
            lane.barrier_request = r
        return 0.0, ""

    def u_collective(glanes, reqs):
        for lane, r in zip(glanes, reqs):
            lane.state = COLLECTIVE
            lane.collective = r
        return 0.0, ""

    def u_atomic(glanes, reqs):
        first = reqs[0]
        cls = first.__class__
        scope = first.scope
        for r in reqs:
            if r.scope is not scope:
                return None
        in_shared = first.var in shared
        got = indices(in_shared, reqs)
        if got is None:
            return None
        flat, idx = got
        n_lanes = len(idx)
        effective_scope = Scope.BLOCK if in_shared else scope
        if effective_scope is Scope.BLOCK:
            stats.block_atomics += n_lanes
        else:
            stats.global_atomics += n_lanes
        n_addresses = len(set(idx))
        olds = rq.apply_atomics(
            cls, flat, idx, [r.value for r in reqs],
            [r.compare for r in reqs] if cls is rq.AtomicCas else None,
            rq.atomic_mode(cls, flat.dtype, n_lanes, n_addresses))
        for lane, old in zip(glanes, olds):
            lane.pending = old
        seen = issuing_warps.setdefault((cls.kind, first.var), set())
        seen.add(warp_id_box[0])
        return prices.atomic(cls.kind, flat.dtype, effective_scope,
                             n_addresses, n_lanes, len(seen)), cls.__name__

    # The atomic/activemask handlers need the current warp id / lane
    # list; one-slot boxes avoid re-binding closures per warp.
    warp_id_box = [0]
    current_lanes = [None]

    handlers = {
        rq.Alu: u_alu,
        rq.GlobalRead: make_read(False, "GlobalRead"),
        rq.GlobalWrite: make_write(False, "GlobalWrite"),
        rq.SharedRead: make_read(True, "SharedRead"),
        rq.SharedWrite: make_write(True, "SharedWrite"),
        rq.Syncwarp: u_syncwarp,
        rq.Threadfence: u_threadfence,
        rq.Activemask: u_activemask,
    }
    handlers.update(dict.fromkeys(rq.BARRIERS, u_barrier))
    handlers.update(dict.fromkeys(rq.COLLECTIVES, u_collective))
    handlers.update(dict.fromkeys(rq.ATOMICS, u_atomic))
    # Classes whose uniform pass can complete or conflict with a pending
    # warp collective (the reference loop re-checks after every pass;
    # for plain uniform passes the check is a no-op because the gathered
    # lanes are back to RUNNING).
    needs_collective_check = set(rq.BARRIERS) | set(rq.COLLECTIVES)
    handlers_get = handlers.get

    def step_warp(warp_id, lanes):
        nonlocal done_lanes, barrier_waiting, n_uniform, n_fallback
        glanes = []
        reqs = []
        lane_append = glanes.append
        req_append = reqs.append
        n_steps = 0
        for lane in lanes:
            if lane.state is not RUNNING:
                continue
            n_steps += 1
            try:
                request = lane.gen.send(lane.pending)
            except StopIteration:
                lane.state = DONE
                done_lanes += 1
                continue
            lane.pending = None
            lane_append(lane)
            req_append(request)
        stepped = n_steps > 0
        if stepped:
            # One budget charge per pass: totals match the reference
            # exactly (it charges per lane for every send attempt,
            # including lanes that then finish).
            budget.charge(n_steps)

        if not reqs:
            collective = cuda._maybe_run_collective(lanes, prices, stats)
            if collective is not None:
                return True, collective[0], collective[1]
            return stepped, 0.0, ""

        cls = reqs[0].__class__
        uniform = True
        for r in reqs:
            if r.__class__ is not cls:
                uniform = False
                break
        if uniform:
            handler = handlers_get(cls)
            if handler is not None:
                warp_id_box[0] = warp_id
                current_lanes[0] = lanes
                result = handler(glanes, reqs)
                if result is not None:
                    n_uniform += 1
                    cost, label = result
                    if cls in needs_collective_check:
                        if cls in rq.BARRIERS:
                            barrier_waiting = True
                        collective = cuda._maybe_run_collective(
                            lanes, prices, stats)
                        if collective is not None:
                            cost += collective[0]
                            label = label + "+" + collective[1] \
                                if label else collective[1]
                    return True, cost, label

        # Divergent pass (or an error/odd case): the reference
        # semantics are authoritative.
        n_fallback += 1
        cost, labels = cuda._process_gathered(
            warp_id, lanes, list(zip(glanes, reqs)), prices, memory, shared,
            issuing_warps, stats, env)
        for lane in glanes:
            if lane.state is BARRIER:
                barrier_waiting = True
                break
        collective = cuda._maybe_run_collective(lanes, prices, stats)
        if collective is not None:
            cost += collective[0]
            labels.append(collective[1])
        return True, cost, "+".join(labels)

    # ----------------------------- pass loop --------------------------- #

    barrier_waiting = False
    n_uniform = 0
    n_fallback = 0

    while done_lanes < total_lanes:
        progressed = False
        for warp_id, lanes in enumerate(warps):
            stepped, cost, label = step_warp(warp_id, lanes)
            if cost > 0:
                if trace is not None:
                    trace.add(block_idx, warp_id, label,
                              warp_clocks[warp_id],
                              warp_clocks[warp_id] + cost)
                warp_clocks[warp_id] += cost
            progressed |= stepped
        if barrier_waiting:
            # Hoisted: the reference loop scans every lane for barrier
            # arrivals after every pass; here the scan only runs while
            # some lane actually waits at one.
            released = cuda._maybe_release_barrier(
                warps, warp_clocks, prices, stats, trace, block_idx, env)
            if released:
                barrier_waiting = False
                progressed = True
        if not progressed:
            cuda._raise_deadlock(warps)
    if _metric_subscriber[0] is None:
        # No recorder: direct increments keep the per-block flush
        # within the bench regression gate's noise floor.
        _C_BLOCKS_FAST.value += 1
        _C_UNIFORM.value += n_uniform
        _C_FALLBACK.value += n_fallback
        _C_PASSES.value += n_uniform + n_fallback
    else:
        _C_BLOCKS_FAST.add(1)
        if n_uniform:
            _C_UNIFORM.add(n_uniform)
        if n_fallback:
            _C_FALLBACK.add(n_fallback)
        if n_uniform or n_fallback:
            _C_PASSES.add(n_uniform + n_fallback)
    return max(warp_clocks) if warp_clocks else 0.0
