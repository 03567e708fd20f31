"""Block-generic lifting: one captured plan variant per launch shape.

Every launch here runs three ways and must agree byte for byte — the
scalar reference scheduler (what ``SYNCPERF_ENGINE=reference`` runs),
and the fast tier with the dispatcher in its default ``on`` mode and
under ``force`` — on memory, modeled cycles (per block and total), and
stats.  The directed cases pin the guard semantics of block-generic
capture (a partial tail block, a ``blockIdx`` branch, non-affine block
indexing, a stride whose coalescing count changes from block to block,
per-lane coefficients that make address collisions block-dependent);
the fuzz drives generated liftable programs, which draw every request
class the warp-pass rules price, over multi-block grids through the
changes that really happen between launches: a rebound
module global, a rebound closure cell, a lowered step budget, and a
mutated cost parameter.
"""

from __future__ import annotations

import operator
import random
import sys

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.compiler.dispatcher import (
    DISPATCHER, dispatch_disabled, dispatch_forced,
)
from repro.compiler.lift import kernel_purity
from repro.cuda.interpreter import Cuda
from repro.cuda.requests import FENCE_KINDS
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value

_COUNTERS = ("dispatch.compile", "dispatch.lifted_blocks",
             "dispatch.shape_hit", "dispatch.hit", "dispatch.fallback")


def _counters() -> dict[str, int]:
    return {name: counter_value(name) for name in _COUNTERS}


def _deltas(before: dict[str, int]) -> dict[str, int]:
    return {name: counter_value(name) - value
            for name, value in before.items()}


def _launch(device, kernel, launch, memory, mode, **cuda_kw):
    """One launch in ``mode``: "reference", "fast" (batched tier, no
    dispatcher), "on", or "force"."""
    if mode == "reference":
        return Cuda(device, fast=False, **cuda_kw).launch(
            kernel, launch, memory, shared_decls=_SHARED(launch))
    if mode == "fast":
        with dispatch_disabled():
            return Cuda(device, fast=True, **cuda_kw).launch(
                kernel, launch, memory, shared_decls=_SHARED(launch))
    if mode == "force":
        with dispatch_forced():
            return Cuda(device, fast=True, **cuda_kw).launch(
                kernel, launch, memory, shared_decls=_SHARED(launch))
    return Cuda(device, fast=True, **cuda_kw).launch(
        kernel, launch, memory, shared_decls=_SHARED(launch))


def _SHARED(launch):
    return {"buf": (launch.block_threads, np.dtype(np.int64))}


def _assert_same(result, ref, label: str) -> None:
    assert result.elapsed_cycles == ref.elapsed_cycles, label
    assert result.block_cycles == ref.block_cycles, label
    assert result.stats == ref.stats, label
    assert set(result.memory) == set(ref.memory), label
    for name in ref.memory:
        assert result.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"{label}: {name}"


@pytest.fixture(autouse=True)
def _dispatch_on(monkeypatch):
    monkeypatch.setenv("SYNCPERF_DISPATCH", "on")
    DISPATCHER.clear()
    yield
    DISPATCHER.clear()


# --------------------------------------------------------------------- #
# Directed cases
# --------------------------------------------------------------------- #

TAIL_N = 200  # four 64-thread blocks; the last one is only 8 threads full


def _make_tail_kernel(n):
    def kernel(t):
        i = t.global_id
        if i < n:
            v = yield t.global_read("a", i)
            yield t.global_write("b", i, v * 3 + t.blockIdx)
        yield t.atomic_add("c", 0, 1)
    return kernel


def block_branch_kernel(t):
    if t.blockIdx == 1:
        yield t.alu(5)
        v = yield t.global_read("a", t.global_id)
        yield t.global_write("b", t.global_id, v + 1)
    elif t.blockIdx < 3:
        yield t.global_write("b", t.global_id, t.blockIdx * 10)
    else:
        yield t.syncthreads()
        yield t.global_write("b", t.global_id, -t.threadIdx)


def modulo_kernel(t):
    idx = (t.blockIdx % 2) * t.blockDim + t.threadIdx
    v = yield t.global_read("a", idx)
    yield t.global_write("b", t.global_id, v + t.blockIdx // 2)


def misaligned_stride_kernel(t):
    # int32 elements, 3 per block step: 12 bytes, not a whole sector.
    v = yield t.global_read("w", t.blockIdx * 3 + t.threadIdx)
    yield t.global_write("b", t.global_id, v)


def aligned_stride_kernel(t):
    # int32 elements, 8 per block step: exactly one 32-byte sector.
    v = yield t.global_read("w", t.blockIdx * 8 + t.threadIdx)
    yield t.global_write("b", t.global_id, v)


def collide_kernel(t):
    # Lane coefficients differ: every lane collides in block 0 only.
    yield t.global_write("b", t.threadIdx * t.blockIdx, t.threadIdx)
    old = yield t.atomic_max("c", t.threadIdx * t.blockIdx % 3, t.lane)
    yield t.global_write("d", t.global_id, old)


def collide_shared_kernel(t):
    # Shared memory has no coalescing cost: only the address-collision
    # count (atomic serialization) tells blocks 0 and 1 apart.
    yield t.shared_write("buf", t.threadIdx, t.threadIdx)
    yield t.syncthreads()
    old = yield t.atomic_max("buf", t.threadIdx * t.blockIdx, t.lane)
    yield t.global_write("d", t.global_id, old)


def _directed_memory(grid: int, block: int, salt: int):
    n = grid * block
    return {"a": (np.arange(n, dtype=np.int64) * 7 + salt) % 61,
            "b": np.zeros(n, dtype=np.int64),
            "c": np.zeros(4, dtype=np.int64),
            "d": np.zeros(n, dtype=np.int64),
            "w": ((np.arange(n + 8 * grid, dtype=np.int64) * 5 + salt)
                  % 29).astype(np.int32)}


_DIRECTED = {
    # name: (kernel, grid, block, variants expected)
    "tail": (_make_tail_kernel(TAIL_N), 4, 64, 2),
    "blockidx-branch": (block_branch_kernel, 5, 64, 3),
    "modulo": (modulo_kernel, 4, 64, 4),
    "misaligned-stride": (misaligned_stride_kernel, 4, 32, 4),
    "aligned-stride": (aligned_stride_kernel, 4, 32, 1),
    "lane-coefficients": (collide_kernel, 3, 64, 3),
    "lane-coefficients-shared": (collide_shared_kernel, 2, 64, 2),
}


@pytest.mark.parametrize("case", sorted(_DIRECTED))
def test_directed_case_matches_reference(mini_gpu, case):
    kernel, grid, block, n_variants = _DIRECTED[case]
    assert kernel_purity(kernel)[0], "directed kernels run in 'on' mode"
    launch = LaunchConfig(grid, block)
    for salt in (0, 1):  # capture, then fresh content from the plans
        ref = _launch(mini_gpu, kernel, launch,
                      _directed_memory(grid, block, salt), "reference")
        for mode in ("on", "force"):
            DISPATCHER.clear()
            before = _counters()
            cold = _launch(mini_gpu, kernel, launch,
                           _directed_memory(grid, block, 0), mode)
            d = _deltas(before)
            assert d["dispatch.compile"] == n_variants, (case, mode)
            assert d["dispatch.lifted_blocks"] == grid, (case, mode)
            if salt == 0:
                _assert_same(cold, ref, f"{case} {mode} cold")
                continue
            before = _counters()
            warm = _launch(mini_gpu, kernel, launch,
                           _directed_memory(grid, block, salt), mode)
            d = _deltas(before)
            assert d["dispatch.shape_hit"] == 1, (case, mode)
            assert d["dispatch.compile"] == 0, (case, mode)
            _assert_same(warm, ref, f"{case} {mode} shape hit")


def test_misaligned_stride_cycles_differ_per_block(mini_gpu):
    """The control for the stride case: the coalescing count really does
    change between blocks, so a reused sector cost would be wrong."""
    launch = LaunchConfig(4, 32)
    ref = _launch(mini_gpu, misaligned_stride_kernel, launch,
                  _directed_memory(4, 32, 0), "reference")
    assert len(set(ref.block_cycles)) > 1


def forward_read_kernel(t):
    v = yield t.global_read("a", t.global_id)
    yield t.global_write("b", t.global_id, v)


def reversed_read_kernel(t):
    v = yield t.global_read("a", 191 - t.global_id)
    yield t.global_write("b", t.global_id, v)


@pytest.mark.parametrize("kernel", (forward_read_kernel,
                                    reversed_read_kernel))
def test_out_of_bounds_block_escapes(mini_gpu, kernel):
    """Bounds checks are guards too: block 0 reads inside the 192-entry
    array but block 3 reads past its end (forward) or below its start
    (reversed), so the variant captured at block 0 must not stretch
    over block 3 — that block's own capture escapes, the launch falls
    back, and it raises the reference's error."""
    launch = LaunchConfig(4, 64)

    def memory():
        return {"a": np.arange(192, dtype=np.int64),
                "b": np.zeros(256, dtype=np.int64)}

    with pytest.raises(SimulationError) as ref:
        _launch(mini_gpu, kernel, launch, memory(), "reference")
    for mode in ("on", "force"):
        DISPATCHER.clear()
        before = _counters()
        with pytest.raises(SimulationError) as got:
            _launch(mini_gpu, kernel, launch, memory(), mode)
        assert str(got.value) == str(ref.value), mode
        d = _deltas(before)
        assert d["dispatch.compile"] == 1, mode  # block 0's variant
        assert d["dispatch.fallback"] == 1, mode


def float_minmax_kernel(t):
    v = yield t.global_read("x", t.global_id)
    w = yield t.global_read("y", t.global_id)
    yield t.global_write("hi", t.global_id, max(v, w))
    yield t.global_write("lo", t.global_id, min(w, v))
    top = yield t.reduce_max_sync(v)
    near = yield t.shfl_down_sync(top + w, 1)  # 64-bit: two shuffles
    yield t.global_write("top", t.global_id, near)


def test_float_minmax_order_matches_reference(mini_gpu):
    """Builtin max/min and warp reductions over floats keep the
    builtin's argument order: which zero of -0.0/0.0 survives and how
    NaN propagates must match, on the capturing launch and on reuse of
    the variant; and a shuffle of a float is priced as the 64-bit one
    it is."""
    grid, block = 8, 32
    n = grid * block
    specials = np.array([-0.0, 0.0, np.nan, 1.5, -1.5])
    launch = LaunchConfig(grid, block)

    def memory(seed):
        rng = np.random.default_rng(seed)
        return {"x": rng.choice(specials, n), "y": rng.choice(specials, n),
                "hi": np.zeros(n), "lo": np.zeros(n), "top": np.zeros(n)}

    for mode in ("on", "force"):
        DISPATCHER.clear()
        for seed in range(6):
            ref = _launch(mini_gpu, float_minmax_kernel, launch,
                          memory(seed), "reference")
            before = _counters()
            got = _launch(mini_gpu, float_minmax_kernel, launch,
                          memory(seed), mode)
            assert _deltas(before)["dispatch.lifted_blocks"] == grid
            _assert_same(got, ref, f"{mode} seed {seed}")


def _random_tree(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    kind = rng.random()
    if kind < 0.6:
        op = rng.choice(("+", "-", "*", "==", "<", ">=", "!="))
        return ("b", op, _random_tree(rng, leaves, depth - 1),
                _random_tree(rng, leaves, depth - 1))
    if kind < 0.85:
        return ("m", rng.choice(("max", "min")),
                _random_tree(rng, leaves, depth - 1),
                _random_tree(rng, leaves, depth - 1))
    return ("u", rng.choice(("neg", "pos", "abs")),
            _random_tree(rng, leaves, depth - 1))


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return repr(a) == repr(b)  # tells -0.0 from 0.0, NaN equals NaN
    return type(a) is type(b) and a == b


_UNARY = {"neg": operator.neg, "pos": operator.pos,
          "invert": operator.invert, "abs": operator.abs}


def _apply_node(node, env, b):
    """Evaluate a value expression one operator call per node."""
    from repro.compiler.lift import _BINFN, _MINMAX
    tag = node[0]
    if tag == "k":
        return node[1]
    if tag == "s":
        return env[node[1]][node[2]]
    if tag == "a":
        return node[1] + node[2] * b
    if tag == "b":
        return _BINFN[node[1]](_apply_node(node[2], env, b),
                               _apply_node(node[3], env, b))
    if tag == "m":
        return _MINMAX[node[1]](_apply_node(node[2], env, b),
                                _apply_node(node[3], env, b))
    return _UNARY[node[1]](_apply_node(node[2], env, b))


@pytest.mark.parametrize("seed", range(20))
def test_compiled_values_match_operator_semantics(seed):
    """The compiled form of a pass's values computes exactly what
    applying the kernel's operators node by node does — types, signed
    zeros, NaNs — over DAGs that share subtrees between lanes."""
    from repro.compiler.lift import _compile_values
    rng = random.Random(seed)
    env = [[-0.0, 0.0, float("nan"), 2.5, -1.5], [0, 1, -3, 7, True]]
    leaves = [("s", slot, pos) for slot in (0, 1) for pos in range(5)]
    leaves += [("k", 3), ("k", -0.0), ("a", 2, 5), ("a", -1, 0)]
    shared = [_random_tree(rng, leaves, 3) for _ in range(3)]
    nodes = tuple(_random_tree(rng, leaves + shared, 4) for _ in range(8))
    b = rng.randrange(4)

    expected = [_apply_node(node, env, b) for node in nodes]
    compiled = _compile_values(nodes)(env, b)
    assert len(compiled) == len(expected)
    assert all(map(_same_value, compiled, expected)), (compiled, expected)


# --------------------------------------------------------------------- #
# Fuzz: generated liftable programs, changes between launches
# --------------------------------------------------------------------- #

#: Programs in the corpus (fixed seeds: a failure reproduces by seed).
N_PROGRAMS = 50

#: Module global every generated kernel reads; the fuzz rebinds it.
FUZZ_SCALE = 1

_TOP_ONLY = ("sync", "syncpred", "ballot", "any", "shfl", "rmax")
_ANYWHERE = ("alu", "gread", "gwrite", "swrite", "sread", "atomic",
             "syncwarp", "fence", "activemask", "max")
_READ_MODES = ("gid", "rev", "stride", "blk", "mod", "const")
_ATOMIC_KINDS = ("add", "sub", "and", "or", "xor", "max", "min", "inc",
                 "dec", "cas", "exch")
_ATOMIC_VARS = ("acc", "buf")  # global, and block-shared
_SYNC_VARIANTS = ("count", "and", "or")
_COND_KINDS = ("lane", "gid", "blk", "blkmul")
_COST_FIELDS = ("alu_cycles", "global_load_cycles",
                "uncoalesced_penalty_cycles", "divergence_cycles")


def _gen_program(rng, grid: int, block: int) -> tuple:
    """(cond, reps, op) triples; collectives and barriers stay
    unconditioned so every generated kernel is well formed."""
    ops = []
    for _ in range(rng.randint(4, 10)):
        kind = rng.choice(_TOP_ONLY + _ANYWHERE * 2)
        if kind == "alu":
            op = ("alu", rng.randint(1, 4))
        elif kind == "gread":
            op = ("gread", rng.choice(("g0", "g1")),
                  rng.choice(_READ_MODES), rng.choice((1, 3, 8, 16)))
        elif kind == "gwrite":
            op = ("gwrite", rng.randint(0, 5))
        elif kind in ("swrite", "sread"):
            op = (kind, rng.choice(("tid", "rot")), rng.randint(1, 5))
        elif kind == "atomic":
            op = ("atomic", rng.choice(_ATOMIC_KINDS),
                  rng.choice(_ATOMIC_VARS), rng.randint(0, 7),
                  rng.randint(1, 3))
        elif kind == "fence":
            op = ("fence", rng.choice(tuple(FENCE_KINDS)))
        elif kind == "syncpred":
            # Predicates on lane and block indices only: a barrier's
            # value steers no control flow, but a predicate read from
            # memory would make capture escape.
            op = ("syncpred", rng.choice(_SYNC_VARIANTS),
                  rng.choice(("lane", "blk", "gid")), rng.randint(0, 7))
        elif kind in ("ballot", "shfl"):
            op = (kind, rng.randint(1, 3))
        elif kind == "max":
            op = ("max", rng.randint(-5, 40))
        else:
            op = (kind,)
        cond = ()
        if kind in _ANYWHERE and rng.random() < 0.4:
            cond = (rng.choice(_COND_KINDS), rng.randint(1, grid * block))
        reps = rng.choice((1, 1, 1, 2, 3))
        ops.append((cond, reps, op))
    return tuple(ops)


def _make_fuzz_kernel(program, cut, bias):
    def kernel(t):
        acc = t.threadIdx + bias
        for cond, reps, op in program:
            if cond:
                c, k = cond
                if c == "lane":
                    taken = t.lane < k % 32
                elif c == "gid":
                    taken = t.global_id < cut
                elif c == "blk":
                    taken = t.blockIdx == k % t.gridDim
                else:
                    taken = t.blockIdx * t.blockDim + k < cut + t.threadIdx
                if not taken:
                    continue
            for _ in range(reps):
                kind = op[0]
                if kind == "alu":
                    yield t.alu(op[1])
                elif kind == "gread":
                    _, var, mode, k = op
                    if mode == "gid":
                        idx = t.global_id
                    elif mode == "rev":
                        idx = t.total_threads - 1 - t.global_id
                    elif mode == "stride":
                        idx = t.blockIdx * k + t.threadIdx
                    elif mode == "blk":
                        idx = t.blockIdx
                    elif mode == "mod":
                        idx = t.blockIdx % 2 * t.blockDim + t.threadIdx
                    else:
                        idx = k
                    v = yield t.global_read(var, idx)
                    acc = acc + v * FUZZ_SCALE
                elif kind == "gwrite":
                    yield t.global_write("out", t.global_id, acc + op[1])
                elif kind == "swrite" or kind == "sread":
                    if op[1] == "tid":
                        idx = t.threadIdx
                    else:
                        idx = (t.threadIdx + 1) % t.blockDim
                    if kind == "swrite":
                        yield t.shared_write("buf", idx, acc + op[2])
                    else:
                        v = yield t.shared_read("buf", idx)
                        acc = acc + v
                elif kind == "atomic":
                    _, name, var, slot, val = op
                    value = acc % 5 + val
                    if name == "add":
                        v = yield t.atomic_add(var, slot, value)
                    elif name == "sub":
                        v = yield t.atomic_sub(var, slot, value)
                    elif name == "and":
                        v = yield t.atomic_and(var, slot, value)
                    elif name == "or":
                        v = yield t.atomic_or(var, slot, value)
                    elif name == "xor":
                        v = yield t.atomic_xor(var, slot, value)
                    elif name == "max":
                        v = yield t.atomic_max(var, slot, value)
                    elif name == "min":
                        v = yield t.atomic_min(var, slot, value)
                    elif name == "inc":
                        v = yield t.atomic_inc(var, slot, value)
                    elif name == "dec":
                        v = yield t.atomic_dec(var, slot, value)
                    elif name == "cas":
                        v = yield t.atomic_cas(var, slot, acc % 3, value)
                    else:
                        v = yield t.atomic_exch(var, slot, value)
                    acc = acc + v
                elif kind == "syncwarp":
                    yield t.syncwarp()
                elif kind == "fence":
                    yield t.threadfence(op[1])
                elif kind == "activemask":
                    v = yield t.activemask()
                    acc = acc + v % 7
                elif kind == "max":
                    acc = max(acc, op[1] + t.blockIdx)
                elif kind == "sync":
                    yield t.syncthreads()
                elif kind == "syncpred":
                    _, variant, pmode, k = op
                    if pmode == "lane":
                        pred = t.lane % (k + 2) == 0
                    elif pmode == "blk":
                        pred = t.blockIdx == k % t.gridDim
                    else:
                        pred = t.global_id < cut
                    if variant == "count":
                        v = yield t.syncthreads_count(pred)
                    elif variant == "and":
                        v = yield t.syncthreads_and(pred)
                    else:
                        v = yield t.syncthreads_or(pred)
                    acc = acc + v
                elif kind == "ballot":
                    v = yield t.ballot_sync(t.lane % (op[1] + 1) == 0)
                    acc = acc + v
                elif kind == "any":
                    v = yield t.any_sync(t.global_id < cut)
                    acc = acc + v
                elif kind == "shfl":
                    v = yield t.shfl_down_sync(acc, op[1])
                    acc = acc + v
                else:  # rmax
                    acc = yield t.reduce_max_sync(acc)
        yield t.global_write("out", t.global_id, acc)

    return kernel


def _fuzz_memory(n: int, salt: int) -> dict[str, np.ndarray]:
    return {"g0": (np.arange(n, dtype=np.int64) + salt) % 23,
            "g1": (np.arange(n, dtype=np.int64) * 13 + salt) % 97,
            "acc": np.zeros(8, np.int64),
            "out": np.zeros(n, np.int64)}


def _rebind_cell(kernel, name: str, value) -> None:
    kernel.__closure__[kernel.__code__.co_freevars.index(name)] \
        .cell_contents = value


def _outcome(device, kernel, launch, memory, mode, **cuda_kw):
    """A launch's result, or its SimulationError message."""
    try:
        return _launch(device, kernel, launch, memory, mode, **cuda_kw)
    except SimulationError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_block_generic_fuzz_matches_reference(mini_gpu, monkeypatch,
                                              seed):
    rng = random.Random(9000 + seed)
    grid = rng.choice((2, 3, 4))
    block = rng.choice((32, 48, 64))
    n = grid * block
    program = _gen_program(rng, grid, block)
    cut = n - rng.randint(1, block)
    cost_field = rng.choice(_COST_FIELDS)
    launch = LaunchConfig(grid, block)
    module = sys.modules[__name__]
    kernels = {mode: _make_fuzz_kernel(program, cut, 0)
               for mode in ("reference", "fast", "on", "force")}
    assert kernel_purity(kernels["on"])[0]

    params = mini_gpu.params
    base_cost = getattr(params, cost_field)

    def set_state(scale: int, bias: int, cost: float) -> None:
        monkeypatch.setattr(module, "FUZZ_SCALE", scale)
        for kernel in kernels.values():
            _rebind_cell(kernel, "bias", bias)
        object.__setattr__(params, cost_field, cost)

    # (label, content salt, (scale, bias, cost), launch kwargs, counter
    # that must move): each step changes one thing the answer depends on.
    steps = (
        ("capture", 0, (1, 0, base_cost), {}, "dispatch.lifted_blocks"),
        ("identical relaunch", 0, (1, 0, base_cost), {}, "dispatch.hit"),
        ("fresh content", 1, (1, 0, base_cost), {}, "dispatch.shape_hit"),
        ("rebound module global", 1, (3, 0, base_cost), {},
         "dispatch.lifted_blocks"),
        ("rebound closure cell", 1, (3, 5, base_cost), {},
         "dispatch.lifted_blocks"),
        ("lowered step budget", 1, (3, 5, base_cost), {"max_steps": n},
         None),
        (f"mutated {cost_field}", 1, (3, 5, base_cost + 3), {},
         "dispatch.lifted_blocks"),
    )
    refs = {}
    for mode in ("on", "force"):
        DISPATCHER.clear()
        for label, salt, state, cuda_kw, expect in steps:
            set_state(*state)
            if label not in refs:
                refs[label] = _outcome(mini_gpu, kernels["reference"],
                                       launch, _fuzz_memory(n, salt),
                                       "reference", **cuda_kw)
            ref = refs[label]
            before = _counters()
            got = _outcome(mini_gpu, kernels[mode], launch,
                           _fuzz_memory(n, salt), mode, **cuda_kw)
            where = f"seed {seed} {mode}: {label}"
            if isinstance(ref, str):
                # The batched tier charges the budget once per warp pass,
                # so the reported count at exhaustion is the fast tier's
                # (which the dispatcher falls back to), not the scalar
                # loop's; the error itself must be the reference's.
                fast = _outcome(mini_gpu, kernels["fast"], launch,
                                _fuzz_memory(n, salt), "fast", **cuda_kw)
                assert got == fast, where
                assert got.split(":")[0] == ref.split(":")[0], where
                continue
            assert not isinstance(got, str), f"{where}: {got}"
            _assert_same(got, ref, where)
            d = _deltas(before)
            assert d["dispatch.fallback"] == 0, where
            if expect is not None:
                assert d[expect] > 0, f"{where}: {expect} did not move"
    object.__setattr__(params, cost_field, base_cost)
