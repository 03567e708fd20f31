"""One statement of a CUDA warp pass: the pass loop and its uniform rules.

The paper prices a warp's step by what its lanes issue together.  The
batched fast tier (:mod:`repro.cuda.fastpath`) and block-plan capture
(:mod:`repro.compiler.lift`) both run a block as a loop of warp passes:
each pass sends one request to every running lane of a warp, and when
every lane yielded the same request class the pass is priced and
applied as one group.  :class:`WarpPasses` holds that loop and those
rules; each caller subclasses it with its own memory backend:

* the fast tier resolves indices to concrete flat numpy views and
  applies effects with ``take``/``put``/``apply_atomics``;
* capture resolves ``BlockAffine`` indices under a ``BlockGuard`` and
  records the effects a ``BlockPlan`` replays.

Mixed-class passes, warp collectives, barrier release and deadlock are
backend hooks too: the fast tier hands them to the scalar reference
(:class:`repro.cuda.interpreter.Cuda`), capture to its symbolic
versions.  The scalar reference stays separate, as the oracle both are
fuzzed against.
"""

from __future__ import annotations

from repro.compiler.ops import Scope
from repro.cuda import requests as rq
from repro.cuda.interpreter import Prices, _LaneState, active_mask

_RUNNING = _LaneState.RUNNING
_DONE = _LaneState.DONE
_BARRIER = _LaneState.BARRIER
_COLLECTIVE = _LaneState.COLLECTIVE

#: Classes whose uniform pass can complete or conflict with a pending
#: warp collective.  After any other uniform pass the gathered lanes are
#: back to RUNNING, so the reference's collective check is a no-op.
_ARRIVALS = frozenset(rq.BARRIERS + rq.COLLECTIVES)


class WarpPasses:
    """One block's warp-pass loop and uniform-pass rules.

    A subclass is one memory backend.  It implements:

    * ``charge(n_steps)``: account one pass's generator sends;
    * ``resolve(in_shared, reqs)``: a handle on the lanes' indices into
      one variable, or None to run the pass as a mixed pass;
    * ``n_sectors(handle)``, ``n_addresses(handle)``, ``dtype(handle)``:
      the distinct 32-byte sectors and distinct elements the lanes
      touch, and the variable's element type;
    * ``load(handle, glanes)``, ``store(handle, reqs, distinct)`` and
      ``atomics(cls, handle, glanes, reqs, mode)``: the effects;
    * ``mixed(warp_id, lanes, glanes, reqs)`` -> ``(cost, labels)``,
      ``collective(lanes)`` -> ``(cost, label)`` or None,
      ``release()`` -> whether a barrier released, and ``deadlock()``.

    Attributes:
        shared: The block-shared variables by name.
        stats: The ``LaunchStats`` the rules count into.
        warp_clocks: Each warp's modeled cycles so far.
        n_uniform, n_fallback: Passes run by a uniform rule and passes
            run as mixed passes, once :meth:`run` returns.
    """

    def __init__(self, device, ctx, launch, warps, shared, stats,
                 trace=None, block_idx=0) -> None:
        params = self.params = device.params
        self.alu_cycles = params.alu_cycles
        self.prices = Prices(device, ctx, launch)
        self.warps = warps
        self.warp_clocks = [0.0] * len(warps)
        self.shared = shared
        self.stats = stats
        self.trace = trace
        self.block_idx = block_idx
        # Warps of the block seen issuing each (atomic kind, var): drives
        # the dynamic contention estimate.
        self.issuing_warps: dict[tuple, set[int]] = {}
        self.n_uniform = self.n_fallback = 0

    def run(self) -> float:
        """Run the block to completion; its modeled cycles."""
        warps = self.warps
        clocks = self.warp_clocks
        trace = self.trace
        rules_get = _RULES.get
        charge = self.charge
        collective = self.collective
        total_lanes = sum(len(lanes) for lanes in warps)
        done_lanes = 0
        n_uniform = n_fallback = 0
        barrier_waiting = False
        while done_lanes < total_lanes:
            progressed = False
            for warp_id, lanes in enumerate(warps):
                glanes = []
                reqs = []
                n_steps = 0
                for lane in lanes:
                    if lane.state is not _RUNNING:
                        continue
                    n_steps += 1
                    try:
                        request = lane.gen.send(lane.pending)
                    except StopIteration:
                        lane.state = _DONE
                        done_lanes += 1
                        continue
                    lane.pending = None
                    glanes.append(lane)
                    reqs.append(request)
                if n_steps:
                    # One charge per pass: totals match the reference,
                    # which charges every send, including final ones.
                    charge(n_steps)
                    progressed = True
                if not reqs:
                    ran = collective(lanes)
                    if ran is None:
                        continue
                    progressed = True
                    cost, label = ran
                else:
                    cls = reqs[0].__class__
                    result = None
                    for r in reqs:
                        if r.__class__ is not cls:
                            break
                    else:
                        rule = rules_get(cls)
                        if rule is not None:
                            result = rule(self, warp_id, lanes, glanes, reqs)
                    if result is not None:
                        n_uniform += 1
                        cost, label = result
                        if cls in _ARRIVALS:
                            if cls in rq.BARRIERS:
                                barrier_waiting = True
                            ran = collective(lanes)
                            if ran is not None:
                                cost += ran[0]
                                label = label + "+" + ran[1] if label \
                                    else ran[1]
                    else:
                        # Divergent pass (or an error or odd case): the
                        # backend runs the reference pass semantics.
                        n_fallback += 1
                        cost, labels = self.mixed(warp_id, lanes, glanes,
                                                  reqs)
                        for lane in glanes:
                            if lane.state is _BARRIER:
                                barrier_waiting = True
                                break
                        ran = collective(lanes)
                        if ran is not None:
                            cost += ran[0]
                            labels.append(ran[1])
                        label = "+".join(labels)
                if cost > 0:
                    if trace is not None:
                        trace.add(self.block_idx, warp_id, label,
                                  clocks[warp_id], clocks[warp_id] + cost)
                    clocks[warp_id] += cost
            # The barrier scan runs only while some lane waits at one.
            if barrier_waiting and self.release():
                barrier_waiting = False
                progressed = True
            if not progressed:
                self.deadlock()
        self.n_uniform = n_uniform
        self.n_fallback = n_fallback
        return max(clocks) if clocks else 0.0

    # --------------------------- cost rules --------------------------- #

    def global_cost(self, n_sectors: int) -> float:
        """A warp's global access touching ``n_sectors`` 32-byte sectors:
        each sector beyond the first is one more memory transaction."""
        params = self.params
        if n_sectors > 1:
            return params.global_load_cycles \
                + params.uncoalesced_penalty_cycles * (n_sectors - 1)
        return params.global_load_cycles

    def atomic_group(self, warp_id: int, glanes, reqs,
                     serial: bool = False) -> float | None:
        """Apply one warp's atomics to one variable, in lane order, and
        price them from the issue pattern: lanes issuing, distinct
        addresses, and warps of the block seen issuing (kind, var).
        ``serial`` applies them one lane at a time, as the reference
        does in a mixed pass; otherwise in :func:`rq.atomic_mode`'s mode.
        None when the backend cannot resolve the indices.
        """
        first = reqs[0]
        cls = first.__class__
        in_shared = first.var in self.shared
        handle = self.resolve(in_shared, reqs)
        if handle is None:
            return None
        n_lanes = len(reqs)
        scope = Scope.BLOCK if in_shared else first.scope
        if scope is Scope.BLOCK:
            self.stats.block_atomics += n_lanes
        else:
            self.stats.global_atomics += n_lanes
        n_addresses = self.n_addresses(handle)
        dtype = self.dtype(handle)
        self.atomics(cls, handle, glanes, reqs, "s" if serial else
                     rq.atomic_mode(cls, dtype, n_lanes, n_addresses))
        seen = self.issuing_warps.setdefault((cls.kind, first.var), set())
        seen.add(warp_id)
        return self.prices.atomic(cls.kind, dtype, scope, n_addresses,
                                  n_lanes, len(seen))

    # -------------------------- uniform rules ------------------------- #
    # Each takes the pass's live lanes and their requests, all of one
    # class, and returns (cost, label), or None to run a mixed pass.

    def _alu(self, warp_id, lanes, glanes, reqs):
        return self.alu_cycles * max([r.n for r in reqs]), "Alu"

    def _access(self, in_shared: bool, handle, n_lanes: int) -> float:
        if in_shared:
            self.stats.shared_accesses += n_lanes
            return self.alu_cycles
        self.stats.global_accesses += n_lanes
        return self.global_cost(self.n_sectors(handle))

    def _read(self, warp_id, lanes, glanes, reqs):
        cls = reqs[0].__class__
        in_shared = cls is rq.SharedRead
        handle = self.resolve(in_shared, reqs)
        if handle is None:
            return None
        cost = self._access(in_shared, handle, len(reqs))
        self.load(handle, glanes)
        return cost, cls.__name__

    def _write(self, warp_id, lanes, glanes, reqs):
        cls = reqs[0].__class__
        in_shared = cls is rq.SharedWrite
        handle = self.resolve(in_shared, reqs)
        if handle is None:
            return None
        cost = self._access(in_shared, handle, len(reqs))
        # Duplicate targets store in lane order: the last lane survives.
        self.store(handle, reqs, self.n_addresses(handle) == len(reqs))
        return cost, cls.__name__

    def _syncwarp(self, warp_id, lanes, glanes, reqs):
        self.stats.syncwarps += len(reqs)
        return self.prices.op(rq.Syncwarp.kind), "Syncwarp"

    def _threadfence(self, warp_id, lanes, glanes, reqs):
        self.stats.fences += len(reqs)
        op = self.prices.op
        return max([op(r.kind) for r in reqs]), "Threadfence"

    def _activemask(self, warp_id, lanes, glanes, reqs):
        mask = active_mask(lanes)
        for lane in glanes:
            lane.pending = mask
        return self.alu_cycles, "Activemask"

    def _barrier(self, warp_id, lanes, glanes, reqs):
        for lane, r in zip(glanes, reqs):
            lane.state = _BARRIER
            lane.barrier_request = r
        return 0.0, ""

    def _collective(self, warp_id, lanes, glanes, reqs):
        for lane, r in zip(glanes, reqs):
            lane.state = _COLLECTIVE
            lane.collective = r
        return 0.0, ""

    def _atomic(self, warp_id, lanes, glanes, reqs):
        scope = reqs[0].scope
        for r in reqs:
            if r.scope is not scope:
                return None
        cost = self.atomic_group(warp_id, glanes, reqs)
        return None if cost is None else (cost, reqs[0].__class__.__name__)


#: The uniform rule of each request class; a class without one (the
#: multi-device requests) always runs as a mixed pass.
_RULES = {
    rq.Alu: WarpPasses._alu,
    rq.GlobalRead: WarpPasses._read,
    rq.SharedRead: WarpPasses._read,
    rq.GlobalWrite: WarpPasses._write,
    rq.SharedWrite: WarpPasses._write,
    rq.Syncwarp: WarpPasses._syncwarp,
    rq.Threadfence: WarpPasses._threadfence,
    rq.Activemask: WarpPasses._activemask,
    **dict.fromkeys(rq.BARRIERS, WarpPasses._barrier),
    **dict.fromkeys(rq.COLLECTIVES, WarpPasses._collective),
    **dict.fromkeys(rq.ATOMICS, WarpPasses._atomic),
}
