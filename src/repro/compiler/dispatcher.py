"""Process-wide JIT-style dispatch cache for CUDA kernel launches.

The paper's characterization sweeps re-launch the same interpreted
kernels thousands of times per (primitive, contention, machine) point,
so per-launch interpretation cost dominates.  This module memoizes work
per **signature** — (kernel identity, machine fingerprint, launch
config, memory contents) — the way a JIT dispatcher memoizes a
specialized callable per type signature:

* **Replay tier**: the first successful launch of a signature records
  its outcome (changed memory bytes, per-block cycles, stats, step
  charges); identical re-launches apply the recorded effects without
  stepping a single generator.  Sound because eligibility requires the
  kernel to pass :func:`repro.compiler.lift.kernel_purity` with deeply
  immutable closure cells, and the key covers every remaining input.
* **Lifted tier**: for *steady* pure kernels (control flow independent
  of data — proven dynamically by symbolic capture), a set of
  :class:`~repro.compiler.lift.BlockPlan` *variants* compiled at first
  miss executes fresh data with precompiled effects, no generators.
  Capture is block-generic: one capture with ``blockIdx`` bound to
  a symbol yields a variant guarded by predicates on the block index,
  and a launch captures new variants only for blocks no existing
  variant covers — typically one capture per launch shape, not one per
  block.  Plans are keyed by a **shape digest** — kernel code +
  closure, the frozen module globals the kernel reads, launch config,
  machine fingerprint, array dtypes/shapes, but *not* element content —
  so a sweep re-launching the same structure over fresh RNG inputs hits
  this tier on every launch after the first (``dispatch.shape_hit``).
  Plans live in memory only, in a bounded LRU.
* **Fast/reference tiers**: everything else falls through to the
  existing batched fast path and scalar reference untouched.

OpenMP regions never consult the dispatcher: they run on the batched
fast scheduler (:mod:`repro.openmp.fastpath`), or on the reference with
``fast=False``.  Race detection is on by default and a replay cannot
reproduce a race verdict, so no workload region could use a region tier.

All tiers are byte-identical to the reference interpreter; the
differential-fuzz harness pins this with the dispatcher forced on.

Keys include a **machine fingerprint**: a digest of the machine's
parameter dataclasses, revalidated against the live objects on every
launch, so mutating or swapping machine parameters invalidates cached
entries immediately (stale entries age out of the LRU).

Counters (docs/observability.md): ``dispatch.hit`` / ``dispatch.miss``
(keyed launches served / not served from the replay cache),
``dispatch.shape_hit`` (launches served from cached plans without
recapture), ``dispatch.compile`` (plan variants captured),
``dispatch.fallback`` (launches the dispatcher examined but left to the
fast/scalar tiers — the exact sum of the per-reason
``dispatch.fallback.unfingerprintable`` / ``.impure`` / ``.unsignable``
/ ``.memory`` / ``.capture`` counters), ``dispatch.lifted_blocks``, and
``dispatch.evictions``.  When a recorder is installed the tiers also
emit spans — ``dispatch.capture`` (with the ``kernel_purity`` verdict
and, on abort, the ``CaptureEscape`` message), ``dispatch.replay``, and
``dispatch.lifted`` (with the plan ``source``) — which traced service
requests carry across process boundaries (docs/observability.md,
"Cross-process trace context").

The ``SYNCPERF_DISPATCH`` environment variable (``on`` default,
``off``, ``force``) and the :func:`dispatch_disabled` /
:func:`dispatch_forced` context managers control engagement; ``force``
skips the static purity proof (the dynamic capture guards stay on) and
is meant for the fuzz harness.
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
import types
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import fields as _dc_fields
from dataclasses import is_dataclass

import numpy as np

from repro.compiler import lift
from repro.obs import span as obs_span
from repro.obs.metrics import counter as _counter

_C_HIT = _counter("dispatch.hit")
_C_MISS = _counter("dispatch.miss")
_C_SHAPE_HIT = _counter("dispatch.shape_hit")
_C_COMPILE = _counter("dispatch.compile")
_C_FALLBACK = _counter("dispatch.fallback")
_C_FALLBACK_BY = {reason: _counter(f"dispatch.fallback.{reason}")
                  for reason in ("unfingerprintable", "impure",
                                 "unsignable", "memory", "capture")}
_C_LIFTED = _counter("dispatch.lifted_blocks")
_C_EVICT = _counter("dispatch.evictions")

#: Sentinel marking a signature proven unliftable (capture escaped).
_UNLIFTABLE = object()

#: Capture attempts per kernel code object before giving up for good.
_MAX_CAPTURE_ABORTS = 2


def _fallback(reason: str) -> None:
    """Count one launch left to the fast/scalar tiers, by reason."""
    _C_FALLBACK_BY[reason].add(1)
    _C_FALLBACK.add(1)


# --------------------------------------------------------------------- #
# Engagement mode
# --------------------------------------------------------------------- #

_MODE_STACK: list[str] = []


def dispatch_mode() -> str:
    """Current engagement mode: ``"on"``, ``"off"``, or ``"force"``."""
    if _MODE_STACK:
        return _MODE_STACK[-1]
    mode = os.environ.get("SYNCPERF_DISPATCH", "on").lower()
    return mode if mode in ("on", "off", "force") else "on"


@contextmanager
def dispatch_disabled():
    """Context: route every launch straight to the fast/scalar tiers."""
    _MODE_STACK.append("off")
    try:
        yield
    finally:
        _MODE_STACK.pop()


@contextmanager
def dispatch_forced():
    """Context: key launches without the static purity proof (dynamic
    capture guards remain).  For the fuzz/equivalence harnesses."""
    _MODE_STACK.append("force")
    try:
        yield
    finally:
        _MODE_STACK.pop()


# --------------------------------------------------------------------- #
# Fingerprints and signatures
# --------------------------------------------------------------------- #

class _Unfingerprintable(Exception):
    pass


def _freeze_state(x, depth: int = 0):
    """Recursively convert parameter objects into a stable value tree."""
    if depth > 8:
        raise _Unfingerprintable("nesting too deep")
    if x is None or isinstance(x, (bool, int, float, str, bytes)):
        return x
    if isinstance(x, enum.Enum):
        return ("enum", type(x).__qualname__, x.name)
    if isinstance(x, np.dtype):
        return ("dtype", x.str)
    if isinstance(x, (np.integer, np.floating, np.bool_)):
        return ("np", x.dtype.str, x.item())
    if isinstance(x, (tuple, list)):
        return ("seq", tuple(_freeze_state(v, depth + 1) for v in x))
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(
            (_freeze_state(v, depth + 1) for v in x), key=repr)))
    if isinstance(x, dict):
        return ("map", tuple(sorted(
            ((k, _freeze_state(v, depth + 1)) for k, v in x.items()),
            key=repr)))
    if is_dataclass(x) and not isinstance(x, type):
        return ("dc", type(x).__qualname__,
                tuple((f.name, _freeze_state(getattr(x, f.name), depth + 1))
                      for f in _dc_fields(x)))
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.shape,
                hashlib.blake2b(x.tobytes(), digest_size=16).digest())
    raise _Unfingerprintable(type(x).__name__)


_fp_cache: dict[int, tuple] = {}


def machine_fingerprint(machine) -> bytes | None:
    """Digest of a machine's full parameter state, or None when the
    machine is not fingerprintable (dispatch then disengages).

    The parameter tree is re-frozen and compared against the cached
    state on every call, so in-place parameter mutation invalidates the
    fingerprint immediately.
    """
    try:
        if hasattr(machine, "spec") and hasattr(machine, "atomics"):
            state = ("gpu", type(machine).__qualname__,
                     _freeze_state(machine.spec),
                     _freeze_state(machine.params),
                     _freeze_state(machine.atomics))
        elif hasattr(machine, "topology") and hasattr(machine, "jitter"):
            state = ("cpu", type(machine).__qualname__,
                     _freeze_state(machine.topology),
                     _freeze_state(machine.params),
                     _freeze_state(machine.jitter))
        else:
            return None
    except _Unfingerprintable:
        return None
    cached = _fp_cache.get(id(machine))
    if cached is not None and cached[0] == state:
        return cached[1]
    digest = hashlib.blake2b(repr(state).encode(), digest_size=16).digest()
    _fp_cache[id(machine)] = (state, digest)
    return digest


class _Unsignable(Exception):
    pass


def _freeze_cell(v, permissive: bool, depth: int = 0, seen=None):
    if depth > 6:
        raise _Unsignable("cell nesting too deep")
    if lift.immutable_value(v):
        return _freeze_state(v)
    if not permissive:
        raise _Unsignable(f"mutable closure cell {type(v).__name__}")
    if isinstance(v, (list, tuple)):
        return ("seq", tuple(_freeze_cell(x, True, depth + 1, seen)
                             for x in v))
    if isinstance(v, dict):
        return ("map", tuple(sorted(
            ((k, _freeze_cell(x, True, depth + 1, seen))
             for k, x in v.items()), key=repr)))
    if isinstance(v, (set, frozenset)):
        return ("set", tuple(sorted(
            (_freeze_cell(x, True, depth + 1, seen) for x in v),
            key=repr)))
    if isinstance(v, np.ndarray):
        return ("nd", v.dtype.str, v.shape,
                hashlib.blake2b(v.tobytes(), digest_size=16).digest())
    if isinstance(v, types.FunctionType):
        return ("fn", function_signature(v, True, depth + 1, seen))
    raise _Unsignable(f"unsignable closure cell {type(v).__name__}")


def function_signature(fn, permissive: bool, depth: int = 0,
                       seen=None) -> tuple:
    """Identity of a kernel/body: code digest + closure/default values.

    Recursive closures (a function whose cell holds itself, directly or
    through another function) are frozen as a cycle marker carrying the
    revisited function's code digest — sound because the cycle shape is
    itself part of the structure being digested.

    Raises:
        _Unsignable: when a closure cell or default cannot be frozen
            (mutable in strict mode, or an exotic type).
    """
    if seen is None:
        seen = set()
    if id(fn) in seen:
        return ("fn-cycle", lift.code_digest(fn.__code__))
    seen.add(id(fn))
    try:
        cells = tuple(_freeze_cell(cell.cell_contents, permissive,
                                   depth, seen)
                      for cell in (fn.__closure__ or ()))
        defaults = tuple(_freeze_cell(v, permissive, depth, seen)
                         for v in (fn.__defaults__ or ()))
    finally:
        seen.discard(id(fn))
    return (lift.code_digest(fn.__code__), cells, defaults)


def _shape_digest(sig: tuple) -> bytes:
    """Collapse a structural plan signature into 16 stable bytes.

    The signature holds only primitives, bytes digests, enums, and
    (frozen) dataclasses, all with deterministic ``repr``.
    """
    return hashlib.blake2b(repr(sig).encode(), digest_size=16).digest()


class _PlanSet:
    """Cached lifted plans for one shape digest.

    ``plans`` is a list of ``BlockPlan`` variants; ``assign`` maps each
    block of the launch shape to the index of the first variant whose
    guard admits it (built on first use; the grid is part of the shape
    digest).
    """

    __slots__ = ("plans", "assign")

    def __init__(self, plans) -> None:
        self.plans = plans
        self.assign = None


# --------------------------------------------------------------------- #
# Cache entries
# --------------------------------------------------------------------- #

class _CudaEntry:
    __slots__ = ("writes", "block_cycles", "stats", "steps", "nbytes")

    def __init__(self, writes, block_cycles, stats, steps):
        self.writes = writes
        self.block_cycles = block_cycles
        self.stats = stats
        self.steps = steps
        self.nbytes = sum(len(b) for b in writes.values()) + 256


def _apply_writes(writes: dict[str, bytes],
                  memory: dict[str, np.ndarray]) -> None:
    for var, buf in writes.items():
        arr = memory[var]
        arr.reshape(-1)[:] = np.frombuffer(buf, dtype=arr.dtype)


def _diff_writes(pre: dict[str, bytes],
                 memory: dict[str, np.ndarray]) -> dict[str, bytes]:
    writes = {}
    for var, before in pre.items():
        after = memory[var].tobytes()
        if after != before:
            writes[var] = after
    return writes


# --------------------------------------------------------------------- #
# The dispatcher
# --------------------------------------------------------------------- #

class Dispatcher:
    """Process-wide launch memo table with LRU bounds.

    Args:
        max_entries: Replay-entry count ceiling.
        max_bytes: Total recorded-write bytes ceiling.
        max_plans: Compiled block-plan signature ceiling.
        memory_cap: Per-launch total memory bytes above which replay
            is not attempted (hashing would eat the win).
    """

    def __init__(self, max_entries: int = 1024,
                 max_bytes: int = 64 << 20,
                 max_plans: int = 256,
                 memory_cap: int = 8 << 20) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_plans = max_plans
        self.memory_cap = memory_cap
        self._lock = threading.RLock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._plans: OrderedDict = OrderedDict()
        self._capture_aborts: dict = {}

    # ------------------------------ shared ---------------------------- #

    def clear(self) -> None:
        """Drop every cached entry and compiled plan (tests, bench)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._plans.clear()
            self._capture_aborts.clear()

    def stats(self) -> dict:
        """Cache occupancy snapshot."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "plans": len(self._plans),
            }

    def _get_entry(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def _put_entry(self, key, entry) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._entries and (
                    len(self._entries) > self.max_entries
                    or self._bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                _C_EVICT.add(1)

    def _get_plans(self, plan_key):
        with self._lock:
            plans = self._plans.get(plan_key)
            if plans is not None:
                self._plans.move_to_end(plan_key)
            return plans

    def _put_plans(self, plan_key, plans) -> None:
        with self._lock:
            self._plans[plan_key] = plans
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                _C_EVICT.add(1)

    def _capture(self, digest: bytes, fn, capture, **attrs):
        """Run one symbolic capture; None when it escapes.

        An escape marks the shape digest unliftable, and a kernel whose
        captures keep escaping is not re-attempted at all.  The
        ``dispatch.capture`` span carries the kernel's purity verdict
        and, on an escape, its message.
        """
        code = fn.__code__
        if self._capture_aborts.get(code, 0) >= _MAX_CAPTURE_ABORTS:
            self._put_plans(digest, _UNLIFTABLE)
            return None
        with obs_span("dispatch.capture", kernel=fn.__name__,
                      **attrs) as rec:
            if rec is not None:
                ok, reason = lift.kernel_purity(fn)
                rec.annotate(purity="pure" if ok else reason)
            try:
                plan = capture()
            except Exception as exc:
                if rec is not None:
                    rec.annotate(escape=f"{type(exc).__name__}: {exc}")
                self._capture_aborts[code] = \
                    self._capture_aborts.get(code, 0) + 1
                self._put_plans(digest, _UNLIFTABLE)
                return None
        _C_COMPILE.add(1)
        return plan

    def _digest_memory(self, memory) -> tuple | None:
        """(static signature, content digest, pre-bytes snapshot), or
        None when memory is ineligible (non-arrays, too large)."""
        static = []
        pre = {}
        total = 0
        h = hashlib.blake2b(digest_size=16)
        for name in sorted(memory):
            arr = memory[name]
            if not isinstance(arr, np.ndarray):
                return None
            buf = arr.tobytes()
            total += len(buf)
            if total > self.memory_cap:
                return None
            static.append((name, arr.dtype.str, arr.shape))
            pre[name] = buf
            h.update(name.encode())
            h.update(arr.dtype.str.encode())
            h.update(repr(arr.shape).encode())
            h.update(buf)
        return tuple(static), h.digest(), pre

    def _signatures(self, machine, fn, forced: bool):
        """(machine fingerprint, function signature, frozen globals) for
        one launch, or None after counting the fallback reason."""
        fp = machine_fingerprint(machine)
        if fp is None:
            _fallback("unfingerprintable")
            return None
        if not forced and not lift.kernel_purity(fn)[0]:
            _fallback("impure")
            return None
        try:
            return (fp, function_signature(fn, forced),
                    lift.freeze_function_globals(fn))
        except (_Unsignable, lift.CaptureEscape):
            _fallback("unsignable")
            return None

    # ------------------------------- CUDA ----------------------------- #

    def begin_cuda(self, cuda, kernel, launch, memory, shared_decls):
        """Key one CUDA launch; returns a ticket or None (disengaged).

        Eligibility: dispatch mode on/force, fingerprintable device,
        statically pure kernel with immutable cells and globals
        (skipped under ``force``), freezable module globals, all-ndarray
        memory under the size cap.
        """
        mode = dispatch_mode()
        if mode == "off":
            return None
        sigs = self._signatures(cuda.device, kernel, mode == "force")
        if sigs is None:
            return None
        fp, ksig, gsig = sigs
        digested = self._digest_memory(memory)
        if digested is None:
            _fallback("memory")
            return None
        static, content, pre = digested
        shared_sig = tuple(sorted(
            (name, size, np.dtype(dt).str)
            for name, (size, dt) in shared_decls.items()))
        plan_key = _shape_digest(
            ("cuda-plan", ksig, gsig, launch, shared_sig, fp, static))
        key = ("cuda", ksig, gsig, launch, shared_sig, fp, static, content)
        return _CudaTicket(self, cuda, kernel, launch, memory,
                           shared_decls, key, plan_key, pre)

    def _cuda_plans(self, ticket, ctx):
        """The launch shape's plan variants with every block assigned.

        Reuses the first cached variant whose guard admits each block
        and captures a new variant only for blocks none covers.
        Returns ``(plan_set, source)``; ``source`` is ``"mem"`` or
        ``"fresh"`` (some variant was captured now), and ``plan_set`` is
        None when any capture escaped — the whole launch is then
        unliftable.
        """
        digest = ticket.plan_key
        pset = self._get_plans(digest)
        if pset is _UNLIFTABLE:
            return None, None
        if pset is not None and pset.assign is not None:
            return pset, "mem"
        # Scan (and capture) on a private copy outside the lock, then
        # publish the finished set whole: concurrent launches of one
        # shape each publish valid variants, and the last writer wins.
        variants = list(pset.plans) if pset is not None else []
        # Block-specific variants are indexed by their block, so a
        # kernel pinned in every block stays linear in the grid.
        pinned = {plan.lo: i for i, plan in enumerate(variants)
                  if plan.lo == plan.hi}
        ranged = [i for i, plan in enumerate(variants)
                  if plan.lo != plan.hi]
        mem_info = {name: (arr.size, arr.dtype)
                    for name, arr in ticket.memory.items()}
        assign: list[int] = []
        vi = 0
        for b in range(ticket.launch.grid_blocks):
            if not (vi < len(variants) and variants[vi].covers(b)):
                vi = pinned.get(b)
                if vi is None:
                    vi = next((i for i in ranged if variants[i].covers(b)),
                              None)
                if vi is None:
                    plan = self._capture(
                        digest, ticket.kernel,
                        lambda b=b: lift.capture_block_variant(
                            ticket.cuda, ticket.kernel, ticket.launch,
                            ctx, b, mem_info, ticket.shared_decls,
                            ticket.cuda.max_steps),
                        block=b)
                    if plan is None:
                        return None, None
                    vi = len(variants)
                    variants.append(plan)
                    if plan.lo == plan.hi:
                        pinned[b] = vi
                    else:
                        ranged.append(vi)
            assign.append(vi)
        if pset is not None and len(variants) == len(pset.plans):
            pset.assign = assign  # nothing captured: same variants
            return pset, "mem"
        pset = _PlanSet(variants)
        pset.assign = assign
        self._put_plans(digest, pset)
        return pset, "fresh"


class _CudaTicket:
    """One keyed CUDA launch: replay -> lifted -> record."""

    __slots__ = ("disp", "cuda", "kernel", "launch", "memory",
                 "shared_decls", "key", "plan_key", "pre", "hit")

    def __init__(self, disp, cuda, kernel, launch, memory, shared_decls,
                 key, plan_key, pre):
        self.disp = disp
        self.cuda = cuda
        self.kernel = kernel
        self.launch = launch
        self.memory = memory
        self.shared_decls = shared_decls
        self.key = key
        self.plan_key = plan_key
        self.pre = pre
        self.hit = False

    def replay(self, stats, budget) -> list[float] | None:
        """Apply a recorded launch, or None on miss."""
        entry = self.disp._get_entry(self.key)
        if entry is None or entry.steps > budget.remaining:
            _C_MISS.add(1)
            return None
        with obs_span("dispatch.replay", kind="cuda",
                      blocks=self.launch.grid_blocks):
            _apply_writes(entry.writes, self.memory)
            for name, delta in entry.stats:
                setattr(stats, name, getattr(stats, name) + delta)
            budget.charge(entry.steps)
        self.hit = True
        _C_HIT.add(1)
        return list(entry.block_cycles)

    def run_lifted(self, ctx, stats, budget) -> list[float] | None:
        """Execute via compiled block-plan variants; None when unliftable."""
        pset, source = self.disp._cuda_plans(self, ctx)
        if pset is None:
            _fallback("capture")
            return None
        if source == "mem":
            _C_SHAPE_HIT.add(1)
        variants, assign = pset.plans, pset.assign
        with obs_span("dispatch.lifted", kind="cuda", blocks=len(assign),
                      variants=len(variants), source=source):
            from repro.cuda.fastpath import run_block_fast
            cycles: list[float] = []
            n_lifted = 0
            for block_idx, vi in enumerate(assign):
                plan = variants[vi]
                if plan.steps <= budget.remaining:
                    cycles.append(plan.execute(self.memory,
                                               self.shared_decls,
                                               stats, block_idx))
                    budget.charge(plan.steps)
                    n_lifted += 1
                else:
                    # Budget would trip mid-block: the fast tier raises
                    # at the exact step with the exact partial state.
                    cycles.append(run_block_fast(
                        self.cuda, self.kernel, self.launch, ctx,
                        block_idx, self.memory, self.shared_decls,
                        stats, budget))
            if n_lifted:
                _C_LIFTED.add(n_lifted)
            return cycles

    def record(self, block_cycles, stats, budget) -> None:
        """Store the completed launch for future replay (miss only)."""
        if self.hit:
            return
        writes = _diff_writes(self.pre, self.memory)
        entry = _CudaEntry(
            writes=writes,
            block_cycles=tuple(block_cycles),
            stats=tuple((f.name, getattr(stats, f.name))
                        for f in _dc_fields(stats)
                        if getattr(stats, f.name)),
            steps=budget.used,
        )
        if entry.nbytes <= self.disp.memory_cap:
            self.disp._put_entry(self.key, entry)


#: The process-wide dispatcher every interpreter shares.
DISPATCHER = Dispatcher()
