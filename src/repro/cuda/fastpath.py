"""Batched fast dispatch for the CUDA interpreter.

The scalar reference loop in :mod:`repro.cuda.interpreter` advances one
lane at a time: one ``isinstance`` chain, one cost lookup, and one
detector/trace check per lane per pass.  In every shipped kernel the
lanes of a warp almost always yield the *same* request type in a pass
(that is what SIMT means), so the fast tier executes such **uniform
passes** as one batched operation over the whole warp.  The pass loop
and the uniform rules are :class:`repro.cuda.warppass.WarpPasses`,
shared with plan capture; this module is their concrete backend:

* memory traffic goes through one numpy gather/scatter over cached
  flat views instead of 32 scalar loads/stores, and atomics through
  the request table's group applier
  (:func:`repro.cuda.requests.apply_atomics`),
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
from repro.gpu.device import GpuRunContext
from repro.gpu.spec import LaunchConfig
from repro.cuda import requests as rq
from repro.cuda.interpreter import _BlockEnv, LaunchStats, start_block
from repro.cuda.race import GpuRaceDetector
from repro.cuda.trace import Trace
from repro.cuda.warppass import WarpPasses
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


class _FastBlock(WarpPasses):
    """The fast tier's memory backend: concrete flat numpy views.

    A handle is ``(flat, idx)``: the variable's flat view and the
    lanes' indices.  Passes it cannot resolve, mixed passes, warp
    collectives and barrier release run the reference's code.
    """

    def __init__(self, cuda, kernel, launch, ctx, block_idx, memory,
                 shared_decls, stats, budget, trace) -> None:
        shared = {name: np.zeros(size, dtype=dt)
                  for name, (size, dt) in shared_decls.items()}
        super().__init__(cuda.device, ctx, launch,
                         start_block(kernel, launch, block_idx), shared,
                         stats, trace, block_idx)
        self.cuda = cuda
        self.memory = memory
        self.charge = budget.charge  # the step hook is the budget's own
        self.env = _BlockEnv(block_idx=block_idx, detector=None)
        # Flat views of each variable (global, shared), cached per
        # block: ``reshape(-1)`` allocates a fresh view per call, which
        # the reference loop pays once per lane.
        self.flats: tuple[dict, dict] = ({}, {})

    def resolve(self, in_shared, reqs):
        """None when the variable is undeclared, the lanes name
        different variables, or an index is out of bounds: the
        reference pass raises the exact error."""
        var = reqs[0].var
        flats = self.flats[in_shared]
        flat = flats.get(var)
        if flat is None:
            arr = (self.shared if in_shared else self.memory).get(var)
            if arr is None:
                return None
            flat = flats[var] = arr.reshape(-1)
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        return flat, idx

    def n_sectors(self, handle) -> int:
        flat, idx = handle
        itemsize = flat.itemsize
        return len({i * itemsize // 32 for i in idx})

    def n_addresses(self, handle) -> int:
        return len(set(handle[1]))

    def dtype(self, handle):
        return handle[0].dtype

    def load(self, handle, glanes) -> None:
        flat, idx = handle
        for lane, value in zip(glanes, flat.take(idx).tolist()):
            lane.pending = value

    def store(self, handle, reqs, distinct: bool) -> None:
        flat, idx = handle
        if distinct:
            np.put(flat, idx, [r.value for r in reqs])
        else:
            for r in reqs:
                flat[r.idx] = r.value

    def atomics(self, cls, handle, glanes, reqs, mode: str) -> None:
        flat, idx = handle
        olds = rq.apply_atomics(
            cls, flat, idx, [r.value for r in reqs],
            [r.compare for r in reqs] if cls is rq.AtomicCas else None,
            mode)
        for lane, old in zip(glanes, olds):
            lane.pending = old

    def mixed(self, warp_id, lanes, glanes, reqs):
        return self.cuda._process_gathered(
            warp_id, lanes, list(zip(glanes, reqs)), self.prices,
            self.memory, self.shared, self.issuing_warps, self.stats,
            self.env)

    def collective(self, lanes):
        return self.cuda._maybe_run_collective(lanes, self.prices,
                                               self.stats)

    def release(self) -> bool:
        return self.cuda._maybe_release_barrier(
            self.warps, self.warp_clocks, self.prices, self.stats,
            self.trace, self.block_idx, self.env)

    def deadlock(self) -> None:
        self.cuda._raise_deadlock(self.warps)


def run_block_fast(cuda, kernel, launch: LaunchConfig, ctx: GpuRunContext,
                   block_idx: int, memory: dict[str, np.ndarray],
                   shared_decls: dict[str, tuple[int, np.dtype]],
                   stats: LaunchStats, budget: StepBudget,
                   trace: Trace | None = None,
                   detector: GpuRaceDetector | None = None) -> float:
    """Execute one block with batched uniform-pass dispatch.

    Matches :meth:`Cuda._run_block_reference` exactly — same
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
    block = _FastBlock(cuda, kernel, launch, ctx, block_idx, memory,
                       shared_decls, stats, budget, trace)
    cycles = block.run()
    n_uniform, n_fallback = block.n_uniform, block.n_fallback
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
    return cycles
