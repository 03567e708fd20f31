"""Request objects yielded by CUDA kernel threads, and their semantics.

Each request corresponds to one CUDA primitive or memory access.  Warp
collectives (shuffles, votes, ``__reduce_max_sync``) are executed for all
participating lanes of the warp at once; everything else executes per
lane, in lane order, under SIMT lockstep.

This module is the one statement of what a request means, shared by
every CUDA tier (the scalar reference scheduler, the batched fast path,
captured block plans, and the multi-device runtime):

* each request class carries the :class:`PrimitiveKind` it is priced as
  (``kind``; a fence looks its kind up by scope);
* each atomic class carries its read-modify-write twice, side by side:
  ``scalar`` on Python scalars and ``vector`` on numpy arrays.  Operands
  are converted to the element type first; integer results wrap modulo
  the element width, exactly, as CUDA atomics do.  Float max/min keep
  the old value unless the operand compares strictly greater/less, so a
  NaN operand leaves memory alone;
* :func:`apply_atomics` applies one warp-pass atomic group in the mode
  :func:`atomic_mode` picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import ClassVar

import numpy as np

from repro.compiler.ops import PrimitiveKind, Scope


@dataclass(frozen=True)
class Request:
    """Base class for everything a kernel thread may yield.

    ``kind`` is the primitive a scheduler prices the request as; it is
    None for ALU work, plain memory traffic and ``__activemask()``,
    which are priced from the device's cycle parameters.
    """

    kind: ClassVar[PrimitiveKind | None] = None


@dataclass(frozen=True)
class Syncthreads(Request):
    """``__syncthreads()`` — block-wide barrier."""

    kind = PrimitiveKind.SYNCTHREADS


@dataclass(frozen=True)
class SyncthreadsCount(Syncthreads):
    """``__syncthreads_count()`` — barrier producing the block-wide count
    of true predicates to every thread."""

    pred: bool = False
    kind = PrimitiveKind.SYNCTHREADS_COUNT


@dataclass(frozen=True)
class SyncthreadsAnd(Syncthreads):
    """``__syncthreads_and()`` — barrier producing the AND of all
    predicates."""

    pred: bool = False
    kind = PrimitiveKind.SYNCTHREADS_AND


@dataclass(frozen=True)
class SyncthreadsOr(Syncthreads):
    """``__syncthreads_or()`` — barrier producing the OR of all
    predicates."""

    pred: bool = False
    kind = PrimitiveKind.SYNCTHREADS_OR


@dataclass(frozen=True)
class GridSync(Request):
    """``grid.sync()`` — cooperative barrier across every block of one
    device's grid (multi-device runtime only)."""

    kind = PrimitiveKind.GRID_SYNC


@dataclass(frozen=True)
class MultiGridSync(Request):
    """``multi_grid.sync()`` — cooperative barrier across every block on
    every participating device; publishes pending system-memory writes."""

    kind = PrimitiveKind.MULTI_GRID_SYNC


@dataclass(frozen=True)
class Syncwarp(Request):
    """``__syncwarp()`` — warp-wide barrier."""

    kind = PrimitiveKind.SYNCWARP


#: The fence variant each scope selects.
FENCE_KINDS = {
    Scope.DEVICE: PrimitiveKind.THREADFENCE,
    Scope.BLOCK: PrimitiveKind.THREADFENCE_BLOCK,
    Scope.SYSTEM: PrimitiveKind.THREADFENCE_SYSTEM,
}


@dataclass(frozen=True)
class Threadfence(Request):
    """``__threadfence*()`` family; scope picks the variant."""

    scope: Scope = Scope.DEVICE

    @property
    def kind(self) -> PrimitiveKind:
        """The fence variant this scope selects."""
        return FENCE_KINDS[self.scope]


@dataclass(frozen=True)
class Alu(Request):
    """``n`` simple arithmetic instructions (used to model loop work)."""

    n: int = 1


@dataclass(frozen=True)
class MemoryRequest(Request):
    """A request that touches ``var[idx]`` (global or block-shared)."""

    var: str
    idx: int


@dataclass(frozen=True)
class GlobalRead(MemoryRequest):
    """Global-memory load; produces the value."""


@dataclass(frozen=True)
class GlobalWrite(MemoryRequest):
    """Global-memory store."""

    value: object = 0


@dataclass(frozen=True)
class SystemRead(MemoryRequest):
    """System-memory (host/peer-visible) load; produces the value.

    Reads the canonical system array plus the *issuing device's own*
    unpublished writes; peers' plain writes become visible only after
    they publish (system-scope fence, multi-grid barrier, or kernel
    completion).
    """


@dataclass(frozen=True)
class SystemWrite(MemoryRequest):
    """System-memory store, buffered device-side until published."""

    value: object = 0


@dataclass(frozen=True)
class SharedRead(MemoryRequest):
    """Block-shared-memory load; produces the value."""


@dataclass(frozen=True)
class SharedWrite(MemoryRequest):
    """Block-shared-memory store."""

    value: object = 0


@dataclass(frozen=True)
class AtomicRmw(MemoryRequest):
    """Base of the atomic read-modify-write family.

    ``var`` may name a global array or a block-shared one; atomics on
    shared memory are block-scoped by construction.  ``scope`` marks the
    ``_block``-suffixed variants on global memory.

    Each concrete class states its update ``new = f(old, value,
    compare)`` twice: ``scalar`` on one element's Python value and
    ``vector`` on numpy arrays, with operands already converted to the
    element type (see :func:`coercers`).  ``compare`` is None for every
    class but :class:`AtomicCas`.
    """

    scope: Scope = Scope.DEVICE

    #: Bitwise atomics exist for integer element types only.
    integer_only: ClassVar[bool] = False


@dataclass(frozen=True)
class AtomicAdd(AtomicRmw):
    """``atomicAdd()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_ADD
    scalar = staticmethod(lambda old, v, c: old + v)
    vector = staticmethod(lambda old, v, c: old + v)


@dataclass(frozen=True)
class AtomicSub(AtomicRmw):
    """``atomicSub()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_SUB
    scalar = staticmethod(lambda old, v, c: old - v)
    vector = staticmethod(lambda old, v, c: old - v)


@dataclass(frozen=True)
class AtomicAnd(AtomicRmw):
    """``atomicAnd()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_AND
    integer_only = True
    scalar = staticmethod(lambda old, v, c: old & v)
    vector = staticmethod(lambda old, v, c: old & v)


@dataclass(frozen=True)
class AtomicOr(AtomicRmw):
    """``atomicOr()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_OR
    integer_only = True
    scalar = staticmethod(lambda old, v, c: old | v)
    vector = staticmethod(lambda old, v, c: old | v)


@dataclass(frozen=True)
class AtomicXor(AtomicRmw):
    """``atomicXor()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_XOR
    integer_only = True
    scalar = staticmethod(lambda old, v, c: old ^ v)
    vector = staticmethod(lambda old, v, c: old ^ v)


@dataclass(frozen=True)
class AtomicMax(AtomicRmw):
    """``atomicMax()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_MAX
    scalar = staticmethod(lambda old, v, c: v if v > old else old)
    vector = staticmethod(lambda old, v, c: np.where(v > old, v, old))


@dataclass(frozen=True)
class AtomicMin(AtomicRmw):
    """``atomicMin()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_MIN
    scalar = staticmethod(lambda old, v, c: v if v < old else old)
    vector = staticmethod(lambda old, v, c: np.where(v < old, v, old))


@dataclass(frozen=True)
class AtomicInc(AtomicRmw):
    """``atomicInc()``: ``x = (x >= value) ? 0 : x + 1``; produces the
    old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_INC
    scalar = staticmethod(lambda old, v, c: 0 if old >= v else old + 1)
    vector = staticmethod(lambda old, v, c: np.where(old >= v, 0, old + 1))


@dataclass(frozen=True)
class AtomicDec(AtomicRmw):
    """``atomicDec()``: ``x = (x == 0 || x > value) ? value : x - 1``;
    produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_DEC
    scalar = staticmethod(
        lambda old, v, c: v if old == 0 or old > v else old - 1)
    vector = staticmethod(
        lambda old, v, c: np.where((old == 0) | (old > v), v, old - 1))


@dataclass(frozen=True)
class AtomicCas(AtomicRmw):
    """``atomicCAS()``; swaps in ``value`` if the current value equals
    ``compare``; produces the old value."""

    compare: object = 0
    value: object = 0
    kind = PrimitiveKind.ATOMIC_CAS
    scalar = staticmethod(lambda old, v, c: v if old == c else old)
    vector = staticmethod(lambda old, v, c: np.where(old == c, v, old))


@dataclass(frozen=True)
class AtomicExch(AtomicRmw):
    """``atomicExch()``; produces the old value."""

    value: object = 0
    kind = PrimitiveKind.ATOMIC_EXCH
    scalar = staticmethod(lambda old, v, c: v)
    vector = staticmethod(lambda old, v, c: v)


@dataclass(frozen=True)
class WarpCollective(Request):
    """Base of the warp-collective family: all live lanes of the warp must
    yield a collective of the same type in the same step."""


@dataclass(frozen=True)
class ShflSync(WarpCollective):
    """``__shfl_sync()`` — produce ``src_lane``'s value to every lane."""

    value: object = 0
    src_lane: int = 0
    kind = PrimitiveKind.SHFL_SYNC


@dataclass(frozen=True)
class ShflUpSync(WarpCollective):
    """``__shfl_up_sync()`` — lane ``l`` receives lane ``l - delta``."""

    value: object = 0
    delta: int = 1
    kind = PrimitiveKind.SHFL_UP_SYNC


@dataclass(frozen=True)
class ShflDownSync(WarpCollective):
    """``__shfl_down_sync()`` — lane ``l`` receives lane ``l + delta``."""

    value: object = 0
    delta: int = 1
    kind = PrimitiveKind.SHFL_DOWN_SYNC


@dataclass(frozen=True)
class ShflXorSync(WarpCollective):
    """``__shfl_xor_sync()`` — lane ``l`` receives lane ``l ^ lane_mask``."""

    value: object = 0
    lane_mask: int = 1
    kind = PrimitiveKind.SHFL_XOR_SYNC


@dataclass(frozen=True)
class VoteAll(WarpCollective):
    """``__all_sync()`` — produces True when every lane's pred is true."""

    pred: bool = False
    kind = PrimitiveKind.VOTE_ALL


@dataclass(frozen=True)
class VoteAny(WarpCollective):
    """``__any_sync()`` — produces True when any lane's pred is true."""

    pred: bool = False
    kind = PrimitiveKind.VOTE_ANY


@dataclass(frozen=True)
class Ballot(WarpCollective):
    """``__ballot_sync()`` — produces the 32-bit mask of true preds."""

    pred: bool = False
    kind = PrimitiveKind.VOTE_BALLOT


@dataclass(frozen=True)
class MatchAnySync(WarpCollective):
    """``__match_any_sync()`` (CC >= 7.0) — produces the mask of lanes
    whose value equals this lane's value."""

    value: object = 0
    kind = PrimitiveKind.MATCH_ANY_SYNC


@dataclass(frozen=True)
class MatchAllSync(WarpCollective):
    """``__match_all_sync()`` (CC >= 7.0) — produces the full mask when
    every lane's value matches, else 0."""

    value: object = 0
    kind = PrimitiveKind.MATCH_ALL_SYNC


@dataclass(frozen=True)
class Activemask(Request):
    """``__activemask()`` — the mask of currently active warp lanes.

    A query, not a synchronization: it executes immediately for the
    issuing lane.
    """


@dataclass(frozen=True)
class ReduceMaxSync(WarpCollective):
    """``__reduce_max_sync()`` — produces the warp maximum (CC >= 8.0)."""

    value: object = 0
    kind = PrimitiveKind.REDUCE_MAX_SYNC


#: Every concrete class of each family, for the schedulers' dispatch maps.
ATOMICS: tuple[type[AtomicRmw], ...] = tuple(AtomicRmw.__subclasses__())
BARRIERS: tuple[type[Syncthreads], ...] = (
    Syncthreads, *Syncthreads.__subclasses__())
COLLECTIVES: tuple[type[WarpCollective], ...] = tuple(
    WarpCollective.__subclasses__())

#: Atomics whose colliding integer groups keep one running value per
#: address (:func:`atomic_mode` ``"i"``).
_RUNNING = (AtomicAdd, AtomicSub)

_COERCERS: dict[np.dtype, tuple] = {}


def coercers(dtype: np.dtype) -> tuple:
    """``(operand, result)`` converters for atomics on ``dtype`` elements.

    ``operand`` converts one operand to the element type: integers are
    truncated to ``int`` and wrapped modulo the element width, floats
    become Python floats (float32 arithmetic rounds once, at the store).
    ``result`` wraps a computed integer result into range; it is the
    identity for every other element type.
    """
    pair = _COERCERS.get(dtype)
    if pair is None:
        if dtype.kind in "iu":
            bits = 8 * dtype.itemsize
            mask = (1 << bits) - 1
            if dtype.kind == "u":
                def result(x):
                    return x & mask
            else:
                half = 1 << (bits - 1)

                def result(x):
                    return ((x + half) & mask) - half

            def operand(x):
                return result(int(x))
        else:
            def result(x):
                return x
            operand = float if dtype.kind == "f" else result
        pair = _COERCERS[dtype] = (operand, result)
    return pair


def vector_operands(values, dtype: np.dtype) -> np.ndarray:
    """:func:`coercers`' ``operand`` over a list, as one array."""
    if dtype.kind in "iu":
        arr = np.asarray(values)
        if arr.dtype.kind in "iub":
            return arr.astype(dtype)  # C casts wrap modulo the width
        operand = coercers(dtype)[0]
        return np.array([operand(v) for v in values], dtype=dtype)
    return np.asarray(values, dtype=np.float64 if dtype.kind == "f"
                      else None)


def atomic_mode(cls: type[AtomicRmw], dtype: np.dtype, n_lanes: int,
                n_addresses: int) -> str:
    """How :func:`apply_atomics` runs one warp pass's atomic group:
    ``"d"`` when two or more lanes each target their own address (one
    gather, one vector update, one scatter), ``"i"`` for colliding
    integer add/sub (one load and one store per address), else ``"s"``:
    serial in lane order, one load and one store per lane."""
    if n_addresses == n_lanes > 1:
        return "d"
    if cls in _RUNNING and dtype.kind in "iu":
        return "i"
    return "s"


def apply_atomics(cls: type[AtomicRmw], flat: np.ndarray, idx, values,
                  compares, mode: str) -> list:
    """Apply one atomic group to the flat array ``flat`` in lane order.

    Args:
        cls: The atomic class (all lanes issue the same one).
        idx: Per-lane element indices (a list or an integer array).
        values, compares: Per-lane operands; ``compares`` is None
            except for :class:`AtomicCas`.
        mode: :func:`atomic_mode`'s choice; every mode stores the same
            bytes and returns the same old values.

    Returns:
        Each lane's old value, as a Python scalar.
    """
    dtype = flat.dtype
    if mode == "d":
        idx = np.asarray(idx, dtype=np.intp)
        old = flat[idx]
        flat[idx] = cls.vector(
            old, vector_operands(values, dtype),
            None if compares is None else vector_operands(compares, dtype))
        return old.tolist()
    result = coercers(dtype)[1]
    scalar = cls.scalar
    if type(idx) is np.ndarray:
        idx = idx.tolist()
    values = vector_operands(values, dtype).tolist()
    compares = repeat(None) if compares is None \
        else vector_operands(compares, dtype).tolist()
    olds = []
    if mode == "i":
        running: dict[int, object] = {}
        get = running.get
        for i, v, c in zip(idx, values, compares):
            old = get(i)
            if old is None:
                old = flat.item(i)
            olds.append(old)
            running[i] = result(scalar(old, v, c))
        for i, new in running.items():
            flat[i] = new
        return olds
    for i, v, c in zip(idx, values, compares):
        old = flat.item(i)
        olds.append(old)
        new = scalar(old, v, c)
        try:
            flat[i] = new
        except OverflowError:  # an integer result out of range: wrap it
            flat[i] = result(new)
    return olds
