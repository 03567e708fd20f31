"""Request objects yielded by OpenMP thread bodies, and their semantics.

Each request corresponds to one OpenMP construct (or a plain memory
access).  The interpreter executes the request, charges its cost, feeds it
to the race detector, and sends any produced value back into the
generator.

This module is the one statement of what a memory request means, shared
by both OpenMP schedulers (the scalar reference in
:mod:`repro.openmp.interpreter` and the batched rounds of
:mod:`repro.openmp.fastpath`): each concrete :class:`MemoryRequest`
class carries its table entries — the primitive it is priced as, the
access kinds the race detector records, whether it is a flush point,
and its memory effect.  Barriers, singles, locks, flushes and critical
sections are scheduling constructs, handled by the schedulers
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from repro.common.datatypes import DataType
from repro.compiler.ops import PrimitiveKind
from repro.openmp.race import AccessKind

#: Detector kinds of a plain access: (unlocked, under a held lock).
_PLAIN_READ = (AccessKind.PLAIN_READ, AccessKind.LOCKED_READ)
_PLAIN_WRITE = (AccessKind.PLAIN_WRITE, AccessKind.LOCKED_WRITE)
#: An atomic is atomic whether or not the thread holds a lock.
_ATOMIC_READ = (AccessKind.ATOMIC_READ, AccessKind.ATOMIC_READ)
_ATOMIC_WRITE = (AccessKind.ATOMIC_WRITE, AccessKind.ATOMIC_WRITE)


@dataclass(frozen=True)
class Request:
    """Base class for everything a thread body may yield."""


@dataclass(frozen=True)
class Barrier(Request):
    """``#pragma omp barrier`` — blocks until all threads arrive.

    Implies a flush, so it also closes the race detector's epoch.
    """


@dataclass(frozen=True)
class Flush(Request):
    """``#pragma omp flush`` — memory fence ordering this thread's accesses."""


@dataclass(frozen=True)
class MemoryRequest(Request):
    """A request that touches ``var[idx]``.

    Each concrete class states its semantics as class-level table
    entries:

    * ``kind``: the :class:`PrimitiveKind` it is priced as (None only on
      this abstract base, which a scheduler rejects as unknown);
    * ``access``: the :class:`AccessKind` pair the race detector records,
      ``(unlocked, while the thread holds a lock)``;
    * ``flushes``: whether it is a flush point under relaxed
      consistency — the scheduler publishes the thread's buffered plain
      stores before it runs;
    * ``effect(flat, idx, buf)``: the load, store or read-modify-write on
      the flat array (``idx`` is ``self.idx``, already bounds-checked);
      ``buf`` is the thread's store buffer under relaxed consistency,
      else None.  Returns the value produced to the thread.

    ``dtype`` prices the access; None prices it as the array's element
    type.
    """

    var: str
    idx: int

    kind: ClassVar[Optional[PrimitiveKind]] = None
    access: ClassVar[tuple[AccessKind, AccessKind]]
    flushes: ClassVar[bool]
    # Not annotated, so not a field here: the atomics declare ``dtype``
    # as their own trailing field, after their positional ones.
    dtype = None

    def effect(self, flat: np.ndarray, idx: int,
               buf: Optional[dict]) -> object:
        """Apply the request to ``flat[idx]``; returns the produced value."""
        raise NotImplementedError


@dataclass(frozen=True)
class Read(MemoryRequest):
    """Plain (non-atomic) load; produces the value, forwarded from the
    thread's own buffered store when there is one."""

    kind = PrimitiveKind.PLAIN_READ
    access = _PLAIN_READ
    flushes = False

    def effect(self, flat, idx, buf):
        """Load, seeing the thread's own buffered store first."""
        if buf and (self.var, idx) in buf:
            return buf[(self.var, idx)]
        return flat[idx].item()


@dataclass(frozen=True)
class Write(MemoryRequest):
    """Plain (non-atomic) store of ``value``; buffered until the thread's
    next flush point under relaxed consistency."""

    value: object = 0
    kind = PrimitiveKind.PLAIN_UPDATE
    access = _PLAIN_WRITE
    flushes = False

    def effect(self, flat, idx, buf):
        """Store into the thread's buffer, or to memory without one."""
        if buf is None:
            flat[idx] = self.value
        else:
            buf[(self.var, idx)] = self.value
        return None


@dataclass(frozen=True)
class AtomicRead(MemoryRequest):
    """``#pragma omp atomic read`` — produces the value."""

    dtype: Optional[DataType] = None
    kind = PrimitiveKind.OMP_ATOMIC_READ
    access = _ATOMIC_READ
    flushes = True

    def effect(self, flat, idx, buf):
        """Load from memory."""
        return flat[idx].item()


@dataclass(frozen=True)
class AtomicWrite(MemoryRequest):
    """``#pragma omp atomic write`` of ``value``."""

    value: object = 0
    dtype: Optional[DataType] = None
    kind = PrimitiveKind.OMP_ATOMIC_WRITE
    access = _ATOMIC_WRITE
    flushes = True

    def effect(self, flat, idx, buf):
        """Store to memory."""
        flat[idx] = self.value
        return None


@dataclass(frozen=True)
class AtomicUpdate(MemoryRequest):
    """``#pragma omp atomic update`` — applies ``func`` to the value."""

    func: Callable[[object], object] = field(default=lambda v: v)
    dtype: Optional[DataType] = None
    kind = PrimitiveKind.OMP_ATOMIC_UPDATE
    access = _ATOMIC_WRITE
    flushes = True

    def effect(self, flat, idx, buf):
        """Read-modify-write in memory."""
        flat[idx] = self.func(flat[idx].item())
        return None


@dataclass(frozen=True)
class AtomicCapture(AtomicUpdate):
    """``#pragma omp atomic capture`` — like update, but produces a value.

    Attributes:
        capture_old: Produce the pre-update value (``v = x++`` style) when
            True; the post-update value otherwise.
    """

    capture_old: bool = True
    kind = PrimitiveKind.OMP_ATOMIC_CAPTURE
    access = _ATOMIC_WRITE
    flushes = True

    def effect(self, flat, idx, buf):
        """Read-modify-write in memory; produces the old or new value."""
        old = flat[idx].item()
        new = self.func(old)
        flat[idx] = new
        return old if self.capture_old else new


@dataclass(frozen=True)
class Single(Request):
    """``#pragma omp single`` — one thread executes ``func(memory)``, the
    rest skip it; an implicit barrier follows (the default, no ``nowait``).

    Attributes:
        name: Identifies the construct; every thread of the team must
            reach the same single (matching names) before anyone proceeds.
        func: Executed exactly once, by the lowest-numbered arriving
            thread; its return value is produced to that thread (others
            receive None — ``copyprivate`` is not modeled).
        touches: Access declarations for the race detector, as in
            :class:`Critical`.
    """

    name: str = "single"
    func: Callable[[dict], object] = field(default=lambda mem: None)
    touches: tuple[tuple[str, int, bool], ...] = ()


@dataclass(frozen=True)
class LockAcquire(Request):
    """``omp_set_lock()`` — blocks until the named lock is free.

    Accesses performed while holding any lock are recorded as locked for
    the race detector (lockset-lite: lock identity is not distinguished).
    """

    name: str = "lock"


@dataclass(frozen=True)
class LockRelease(Request):
    """``omp_unset_lock()`` — releases the named lock.

    Releasing a lock the thread does not hold is a simulation error.
    """

    name: str = "lock"


@dataclass(frozen=True)
class Critical(Request):
    """``#pragma omp critical`` — runs ``func(memory)`` holding the lock.

    ``func`` receives the shared-memory mapping (name -> numpy array) and
    may read and write freely; the whole callable executes atomically.
    Its return value, if any, is produced to the yielding thread.

    Attributes:
        touches: Optional declarations of the locations ``func`` accesses,
            as ``(var, idx, is_write)`` triples, so the race detector can
            check them against accesses outside the critical section.
    """

    func: Callable[[dict], object] = field(default=lambda mem: None)
    dtype: Optional[DataType] = None
    touches: tuple[tuple[str, int, bool], ...] = ()
