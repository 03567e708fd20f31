"""CUDA atomic semantics: every tier computes an atomic the same way.

The paper measures atomics over int, unsigned long long, float and
double, so each execution tier of the simulator must apply one rule:

* integer results wrap modulo the element width, exactly (as CUDA
  atomics do), including 64-bit unsigned values above 2**53;
* float ``atomicMax``/``atomicMin`` keep the old value unless the
  operand compares strictly greater/less, so a NaN operand leaves
  memory alone.

Each case runs one 1x32 launch on the scalar reference scheduler, the
batched fast tier, the dispatch-forced cold (captured plan) and warm
(replayed) launches, and a one-device ``MultiCuda``, and requires the
memory and every lane's returned old value to equal the rule's answer
byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.dispatcher import dispatch_disabled, dispatch_forced
from repro.compiler.ops import PrimitiveKind, Scope
from repro.cuda import requests as rq
from repro.cuda.interpreter import Cuda
from repro.cuda.multigpu import MgThread, MultiCuda
from repro.gpu.multi import MultiGpu
from repro.gpu.spec import LaunchConfig

N = 32
INT_MAX = np.iinfo(np.int32).max
INT_MIN = np.iinfo(np.int32).min
BIG = 2**60 + 1


def _case(op, dtype, start, value, colliding, want_mem, want_old):
    return (op, np.dtype(dtype), start, value, colliding,
            np.asarray(want_mem, dtype=dtype),
            np.asarray(want_old, dtype=dtype))


#: name -> (atomic, dtype, initial memory, operand, all lanes on slot 0,
#: memory after, old value each lane gets back).
CASES = {
    "float64-max-nan": _case(
        "atomic_max", np.float64, [1.0] * N, float("nan"), False,
        [1.0] * N, [1.0] * N),
    "float64-min-nan": _case(
        "atomic_min", np.float64, [1.0] * N, float("nan"), False,
        [1.0] * N, [1.0] * N),
    "int32-add-overflow-distinct": _case(
        "atomic_add", np.int32, [INT_MAX] * N, 1, False,
        [INT_MIN] * N, [INT_MAX] * N),
    "int32-add-overflow-colliding": _case(
        "atomic_add", np.int32, [INT_MAX - 15] + [0] * (N - 1), 1, True,
        [INT_MIN + 16] + [0] * (N - 1),
        [(INT_MAX - 15 + k + 2**31) % 2**32 - 2**31 for k in range(N)]),
    "uint64-add-precision": _case(
        "atomic_add", np.uint64, [BIG] * N, 1, False,
        [BIG + 1] * N, [BIG] * N),
}


def _kernel(op, value, colliding):
    def kernel(t):
        idx = 0 if colliding else t.global_id
        old = yield getattr(t, op)("mem", idx, value)
        store = t.system_write if isinstance(t, MgThread) \
            else t.global_write
        yield store("old", t.global_id, old)
    return kernel


def _arrays(dtype, start):
    return {"mem": np.asarray(start, dtype=dtype),
            "old": np.zeros(N, dtype=dtype)}


def _run_cuda(device, kernel, dtype, start, fast):
    memory = _arrays(dtype, start)
    Cuda(device, fast=fast).launch(kernel, LaunchConfig(1, N),
                                   globals_=memory)
    return memory


def _tiers(device, case):
    op, dtype, start, value, colliding = case[:5]
    kernel = _kernel(op, value, colliding)
    out = {"reference": _run_cuda(device, kernel, dtype, start, False)}
    with dispatch_disabled():
        out["fast"] = _run_cuda(device, kernel, dtype, start, True)
    with dispatch_forced():
        out["cold"] = _run_cuda(device, kernel, dtype, start, True)
        out["warm"] = _run_cuda(device, kernel, dtype, start, True)
    system = _arrays(dtype, start)
    MultiCuda(MultiGpu(device), n_devices=1).launch(
        kernel, LaunchConfig(1, N), system=system)
    out["multi"] = system
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_tier_applies_the_table_rule(mini_gpu, name):
    case = CASES[name]
    want_mem, want_old = case[5], case[6]
    for tier, memory in _tiers(mini_gpu, case).items():
        assert memory["mem"].tobytes() == want_mem.tobytes(), \
            f"{tier}: memory {memory['mem'][:4]} != {want_mem[:4]}"
        assert memory["old"].tobytes() == want_old.tobytes(), \
            f"{tier}: old values {memory['old'][:4]} != {want_old[:4]}"


# ------------------------- table completeness ------------------------ #

#: Requests priced from the device's cycle parameters, not as a
#: primitive: ALU work, plain memory traffic, and ``__activemask()``.
_UNPRICED = {rq.Alu, rq.GlobalRead, rq.GlobalWrite, rq.SharedRead,
             rq.SharedWrite, rq.SystemRead, rq.SystemWrite, rq.Activemask}
_FAMILY_BASES = {rq.Request, rq.MemoryRequest, rq.AtomicRmw,
                 rq.WarpCollective}


def _concrete_requests():
    return [obj for obj in vars(rq).values()
            if isinstance(obj, type) and issubclass(obj, rq.Request)
            and obj not in _FAMILY_BASES]


def test_every_request_class_has_its_table_entry():
    classes = _concrete_requests()
    for cls in classes:
        if cls in _UNPRICED:
            assert cls.kind is None, cls.__name__
        elif cls is rq.Threadfence:
            kinds = {rq.Threadfence(scope).kind for scope in Scope}
            assert kinds == set(rq.FENCE_KINDS.values())
        else:
            assert isinstance(cls.kind, PrimitiveKind), cls.__name__
    kinds = [cls.kind for cls in classes if cls.kind is not None
             and cls is not rq.Threadfence]
    assert len(kinds) == len(set(kinds)), "two classes share a kind"
    assert set(rq.ATOMICS) == {c for c in classes
                               if issubclass(c, rq.AtomicRmw)}
    assert set(rq.BARRIERS) == {c for c in classes
                                if issubclass(c, rq.Syncthreads)}
    assert set(rq.COLLECTIVES) == {c for c in classes
                                   if issubclass(c, rq.WarpCollective)}
    for cls in rq.ATOMICS:
        assert "scalar" in vars(cls) and "vector" in vars(cls), \
            cls.__name__


_EDGE_DTYPES = (np.int32, np.uint64, np.float32, np.float64)


def _edges(dtype):
    """0, -1 and the type's max; NaN and +-inf too for floats."""
    if dtype.kind == "f":
        return [0.0, -1.0, float(np.finfo(dtype).max), float("nan"),
                float("inf"), float("-inf")]
    return [0, -1, int(np.iinfo(dtype).max)]


def _forms_agree(cls, dtype, olds, values, compares, idx, mode):
    """Apply one group in ``mode`` and serially; compare every byte."""
    operand = rq.coercers(dtype)[0]
    got, want = (np.array([operand(o) for o in olds], dtype=dtype)
                 for _ in range(2))
    vector = rq.apply_atomics(cls, got, idx, values, compares, mode)
    scalar = rq.apply_atomics(cls, want, idx, values, compares, "s")
    assert got.tobytes() == want.tobytes(), f"{cls.__name__} {dtype}"
    assert np.array(vector, dtype).tobytes() == \
        np.array(scalar, dtype).tobytes(), f"{cls.__name__} {dtype}"


@pytest.mark.parametrize("dtype", [np.dtype(d) for d in _EDGE_DTYPES],
                         ids=lambda d: d.name)
@pytest.mark.parametrize("cls", rq.ATOMICS, ids=lambda c: c.__name__)
def test_scalar_and_vector_forms_agree_on_edge_operands(cls, dtype):
    if cls.integer_only and dtype.kind == "f":
        pytest.skip("bitwise atomics apply to integer types only")
    edges = _edges(dtype)
    # Every (old, operand[, compare]) triple on its own address.
    triples = [(o, v, c) for o in edges for v in edges
               for c in (edges if cls is rq.AtomicCas else [None])]
    olds = [o for o, _, _ in triples]
    values = [v for _, v, _ in triples]
    compares = [c for _, _, c in triples] if cls is rq.AtomicCas \
        else None
    with np.errstate(all="ignore"):
        _forms_agree(cls, dtype, olds, values, compares,
                     list(range(len(triples))), "d")
        # Every operand in turn on one address, in the colliding mode
        # the applier picks for this class and type.
        mode = rq.atomic_mode(cls, dtype, len(edges), 1)
        for start in edges:
            _forms_agree(cls, dtype, [start], edges,
                         edges if cls is rq.AtomicCas else None,
                         [0] * len(edges), mode)
