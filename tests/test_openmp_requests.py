"""The OpenMP request table (``repro.openmp.requests``).

Both OpenMP schedulers run a memory request from its class's table
entries, so the differential fuzz, which compares the schedulers with
each other, cannot see a wrong entry: both would be wrong the same way.
These tests pin the entries to OpenMP semantics directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.compiler.ops import PrimitiveKind
from repro.obs.metrics import counter_value
from repro.openmp import requests as rq
from repro.openmp.interpreter import OpenMP
from repro.openmp.race import AccessKind

_ENTRIES = ("kind", "access", "flushes", "effect")


def _memory_requests():
    return [obj for obj in vars(rq).values()
            if isinstance(obj, type) and issubclass(obj, rq.MemoryRequest)
            and obj is not rq.MemoryRequest]


def _owner(cls, name):
    """The class in ``cls``'s MRO that defines ``name``."""
    return next(c for c in cls.__mro__ if name in vars(c))


def test_every_memory_request_has_its_table_entries():
    classes = _memory_requests()
    assert len(classes) == 6
    for cls in classes:
        for name in _ENTRIES:
            owner = _owner(cls, name)
            assert owner is not rq.MemoryRequest and \
                issubclass(owner, rq.MemoryRequest), (cls.__name__, name)
        assert isinstance(cls.kind, PrimitiveKind), cls.__name__
        unlocked, locked = cls.access
        assert isinstance(unlocked, AccessKind) and \
            isinstance(locked, AccessKind), cls.__name__
        assert not unlocked.is_locked, cls.__name__
        assert unlocked.is_write == locked.is_write, cls.__name__
        assert isinstance(cls.flushes, bool), cls.__name__
        # Table entries are class-level, never dataclass fields.
        assert not set(_ENTRIES) & {f.name for f in fields(cls)}, \
            cls.__name__
    kinds = [cls.kind for cls in classes]
    assert len(set(kinds)) == len(kinds)


def test_bare_memory_request_is_rejected_on_both_schedulers(quiet_cpu):
    def body(tc):
        yield rq.MemoryRequest("x", 0)

    for fast in (True, False):
        omp = OpenMP(quiet_cpu, n_threads=2, fast=fast)
        with pytest.raises(SimulationError, match="unknown request"):
            omp.parallel(body, shared={"x": np.zeros(1, np.int64)})


#: One probe per request class, on the yielding thread's own ``y`` slot.
_PROBES = {
    rq.Read: lambda tid: rq.Read("y", tid),
    rq.Write: lambda tid: rq.Write("y", tid, 1),
    rq.AtomicRead: lambda tid: rq.AtomicRead("y", tid),
    rq.AtomicWrite: lambda tid: rq.AtomicWrite("y", tid, 1),
    rq.AtomicUpdate: lambda tid: rq.AtomicUpdate("y", tid, lambda v: v + 1),
    rq.AtomicCapture: lambda tid: rq.AtomicCapture("y", tid,
                                                   lambda v: v + 1),
}


def test_probes_cover_every_memory_request():
    assert set(_PROBES) == set(_memory_requests())


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
@pytest.mark.parametrize("cls", list(_PROBES), ids=lambda c: c.__name__)
def test_atomics_and_only_atomics_are_flush_points(quiet_cpu, cls, fast):
    """Thread 0 buffers a plain store to ``x``; both threads then yield
    the probe in one round (a batched round on the fast scheduler), and
    thread 1 reads ``x`` after it, before any barrier.  The store is
    visible exactly when the probe is a flush point: an atomic."""
    def body(tc):
        yield tc.write("x" if tc.tid == 0 else "z", 0, 7)
        yield _PROBES[cls](tc.tid)
        if tc.tid == 1:
            seen = yield tc.atomic_read("x", 0)
            yield tc.atomic_write("seen", 0, seen)

    shared = {"x": np.zeros(1, np.int64), "y": np.zeros(2, np.int64),
              "z": np.zeros(1, np.int64), "seen": np.zeros(1, np.int64)}
    OpenMP(quiet_cpu, n_threads=2, detect_races=False,
           fast=fast).parallel(body, shared=shared)
    atomic = cls.__name__.startswith("Atomic")
    assert shared["seen"][0] == (7 if atomic else 0)


@dataclass(frozen=True)
class _AtomicSwap(rq.MemoryRequest):
    """A construct defined outside the package: an atomic exchange."""

    value: object = 0
    kind = PrimitiveKind.OMP_ATOMIC_CAPTURE
    access = (AccessKind.ATOMIC_WRITE, AccessKind.ATOMIC_WRITE)
    flushes = True

    def effect(self, flat, idx, buf):
        """Store ``value``; produces the old value."""
        old = flat[idx].item()
        flat[idx] = self.value
        return old


def test_new_construct_costs_one_table_entry(quiet_cpu):
    """A request class that only states its table entries runs on both
    schedulers, batched on the fast one, with identical results."""
    def body(tc):
        old = yield _AtomicSwap("slot", 0, tc.tid + 1)
        yield tc.atomic_write("olds", tc.tid, old)

    outcomes = []
    for fast in (True, False):
        shared = {"slot": np.zeros(1, np.int64),
                  "olds": np.zeros(4, np.int64)}
        rounds = counter_value("interp.omp.uniform_rounds")
        result = OpenMP(quiet_cpu, n_threads=4, fast=fast).parallel(
            body, shared=shared)
        if fast:
            assert counter_value("interp.omp.uniform_rounds") > rounds
        outcomes.append((shared["slot"].tolist(), shared["olds"].tolist(),
                         result.thread_times_ns, result.elapsed_ns))
    assert outcomes[0] == outcomes[1]
    slot, olds = outcomes[0][:2]
    assert slot == [4] and olds == [0, 1, 2, 3]
