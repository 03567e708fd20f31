"""Generative differential testing: fast paths vs reference schedulers.

The hand-written equivalence suite (``test_interpreter_fastpath.py``)
covers the kernels we thought of; this harness covers the ones we did
not.  For each of ``N_PROGRAMS`` fixed seeds it generates a random —
but deterministic and well-formed — kernel program from a small
instruction vocabulary, runs it on the batched fast path and on the
scalar reference scheduler, and requires byte-identical results:
same memory contents, same modeled times, same stats.

Well-formedness by construction (the static sanitizer's defect
classes are deliberately *not* generated): barriers and collectives
are emitted only at top level, thread-dependent branches only wrap
non-collective ops, loops have uniform trip counts, and lock
acquisitions are emitted as properly nested pairs in a fixed global
order.  The one exception is data races in OpenMP programs: they are
generated on purpose, so that the race detector — on by default — is
fuzzed on both schedulers too.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.common.errors import DataRaceError
from repro.compiler.dispatcher import dispatch_forced
from repro.cuda.interpreter import Cuda
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value
from repro.openmp.interpreter import OpenMP

#: Programs per interpreter.  Seeds are fixed: every CI run fuzzes the
#: exact same corpus, so a failure is reproducible by seed.
N_PROGRAMS = 50


# --------------------------- CUDA programs --------------------------- #

_CUDA_OPS = ("alu", "gread", "gwrite", "swrite", "sread", "atomic",
             "sync", "syncwarp", "collective")
#: Ops safe under thread-dependent control flow (no block barriers, no
#: warp collectives — exactly the sanitizer's divergence rule).
_CUDA_BRANCH_SAFE = ("alu", "gread", "gwrite", "swrite", "sread",
                     "atomic")
_ATOMIC_KINDS = ("atomic_add", "atomic_sub", "atomic_max", "atomic_min",
                 "atomic_and", "atomic_or", "atomic_xor", "atomic_inc",
                 "atomic_dec", "atomic_cas", "atomic_exch")
#: Element type of every generated program's arrays, drawn per seed:
#: signed and unsigned wrap-around both reach the atomics.
_MEM_DTYPES = (np.int32, np.int64, np.uint64)


def _atomic(t, name, var, slot, acc, val, **scope):
    """One generated atomic; ``atomicCAS`` compares against ``acc % 3``."""
    if name == "atomic_cas":
        return t.atomic_cas(var, slot, acc % 3, acc % 5 + val, **scope)
    return getattr(t, name)(var, slot, acc % 5 + val, **scope)


def _gen_cuda_ops(rng, depth=0):
    """One random instruction list (descriptors, not code)."""
    ops = []
    vocab = _CUDA_BRANCH_SAFE if depth else _CUDA_OPS
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(vocab)
        if kind == "alu":
            ops.append(("alu", rng.randint(1, 4)))
        elif kind in ("gread", "gwrite"):
            ops.append((kind, rng.choice(("g0", "g1")),
                        rng.choice(("tid", "rev", "const")),
                        rng.randint(0, 7)))
        elif kind in ("swrite", "sread"):
            ops.append((kind, rng.choice(("tid", "rot")),
                        rng.randint(1, 5)))
        elif kind == "atomic":
            ops.append(("atomic", rng.choice(_ATOMIC_KINDS),
                        rng.randint(0, 7), rng.randint(1, 3)))
        elif kind == "sync":
            ops.append(("sync",))
        elif kind == "syncwarp":
            ops.append(("syncwarp",))
        elif kind == "collective":
            ops.append(("collective",
                        rng.choice(("ballot", "all", "shfl"))))
        if depth == 0 and rng.random() < 0.3:
            body = _gen_cuda_ops(rng, depth + 1)
            if rng.random() < 0.5:
                ops.append(("branch", rng.randint(2, 4), body))
            else:
                ops.append(("loop", rng.randint(2, 3), body))
    return ops


def _make_cuda_kernel(program):
    """Build a closure kernel replaying one descriptor list."""

    def run_op(t, op, acc):
        kind = op[0]
        if kind == "alu":
            yield t.alu(op[1])
        elif kind == "gread":
            idx = _gindex(t, op[2], op[3])
            v = yield t.global_read(op[1], idx)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "gwrite":
            idx = _gindex(t, op[2], op[3])
            yield t.global_write(op[1], idx, acc[0] + op[3])
        elif kind == "swrite":
            idx = _sindex(t, op[1])
            yield t.shared_write("buf", idx, acc[0] + op[2])
        elif kind == "sread":
            idx = _sindex(t, op[1])
            v = yield t.shared_read("buf", idx)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "atomic":
            _, name, slot, val = op
            v = yield _atomic(t, name, "acc", slot, acc[0], val)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "sync":
            yield t.syncthreads()
        elif kind == "syncwarp":
            yield t.syncwarp()
        elif kind == "collective":
            if op[1] == "ballot":
                v = yield t.ballot_sync(acc[0] % 2 == 0)
            elif op[1] == "all":
                v = yield t.all_sync(acc[0] % 3 != 0)
            else:
                v = yield t.shfl_down_sync(acc[0], 1)
            acc[0] = (acc[0] + int(v)) % 1009

    def kernel(t):
        acc = [t.global_id % 7]
        for op in program:
            if op[0] == "branch":
                if t.global_id % op[1] == 0:
                    for sub in op[2]:
                        yield from run_op(t, sub, acc)
            elif op[0] == "loop":
                for _ in range(op[1]):
                    for sub in op[2]:
                        yield from run_op(t, sub, acc)
            else:
                yield from run_op(t, op, acc)
        yield t.global_write("out", t.global_id, acc[0])

    return kernel


def _gindex(t, mode, k):
    if mode == "tid":
        return t.global_id
    if mode == "rev":
        return t.total_threads - 1 - t.global_id
    return k


def _sindex(t, mode):
    if mode == "tid":
        return t.threadIdx
    return (t.threadIdx + 1) % t.blockDim


def _run_cuda(device, program, grid, block, fast, dtype):
    n = grid * block
    kernel = _make_cuda_kernel(program)
    cuda = Cuda(device, fast=fast)
    return cuda.launch(
        kernel, LaunchConfig(grid, block),
        globals_={"g0": np.arange(n, dtype=dtype),
                  "g1": (np.arange(n, dtype=dtype) * 13) % 97,
                  "acc": np.zeros(8, dtype),
                  "out": np.zeros(n, dtype)},
        shared_decls={"buf": (block, np.dtype(dtype))})


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_cuda_fast_path_matches_reference(mini_gpu, seed):
    rng = random.Random(1000 + seed)
    program = _gen_cuda_ops(rng)
    grid = rng.choice((1, 2))
    block = rng.choice((32, 64))
    dtype = rng.choice(_MEM_DTYPES)
    fast = _run_cuda(mini_gpu, program, grid, block, True, dtype)
    ref = _run_cuda(mini_gpu, program, grid, block, False, dtype)
    assert fast.elapsed_cycles == ref.elapsed_cycles, f"seed {seed}"
    assert fast.block_cycles == ref.block_cycles, f"seed {seed}"
    assert fast.stats == ref.stats, f"seed {seed}"
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"seed {seed}: {name}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_cuda_dispatcher_forced_matches_reference(mini_gpu, seed):
    """The JIT dispatch tiers (keyed in ``force`` mode, so even these
    closure-heavy generated kernels are eligible) must stay
    byte-identical to the reference — both on the cold launch that
    records/compiles and on the warm launch that replays."""
    rng = random.Random(1000 + seed)
    program = _gen_cuda_ops(rng)
    grid = rng.choice((1, 2))
    block = rng.choice((32, 64))
    dtype = rng.choice(_MEM_DTYPES)
    ref = _run_cuda(mini_gpu, program, grid, block, False, dtype)
    with dispatch_forced():
        cold = _run_cuda(mini_gpu, program, grid, block, True, dtype)
        hits = counter_value("dispatch.hit")
        warm = _run_cuda(mini_gpu, program, grid, block, True, dtype)
    assert counter_value("dispatch.hit") > hits, \
        f"seed {seed}: identical relaunch did not replay"
    for label, result in (("cold", cold), ("warm", warm)):
        assert result.elapsed_cycles == ref.elapsed_cycles, \
            f"seed {seed} ({label})"
        assert result.block_cycles == ref.block_cycles, \
            f"seed {seed} ({label})"
        assert result.stats == ref.stats, f"seed {seed} ({label})"
        assert set(result.memory) == set(ref.memory)
        for name in ref.memory:
            assert result.memory[name].tobytes() == \
                ref.memory[name].tobytes(), \
                f"seed {seed} ({label}): {name}"


# ------------------------ multi-GPU programs ------------------------- #

#: Multi-device vocabulary.  Everything is emitted at top level with
#: uniform control flow, so the cooperative barriers are always safe:
#: every thread on every device executes the same sequence.
_MG_OPS = ("alu", "dread", "dwrite", "sysread", "syswrite",
           "sysatomic", "devatomic", "fence", "fence_sys",
           "grid_sync", "multi_grid_sync")
_MG_ATOMICS = _ATOMIC_KINDS

#: Fixed-seed multi-device corpus size (ISSUE floor: >= 25).
N_MG_PROGRAMS = 25


def _gen_mg_ops(rng):
    """One random multi-device instruction list (descriptors)."""
    ops = []
    for _ in range(rng.randint(4, 10)):
        kind = rng.choice(_MG_OPS)
        if kind == "alu":
            ops.append(("alu", rng.randint(1, 4)))
        elif kind in ("dread", "dwrite"):
            ops.append((kind, rng.choice(("tid", "const")),
                        rng.randint(0, 7)))
        elif kind == "sysread":
            ops.append((kind, rng.choice(("s0", "s1")),
                        rng.choice(("sid", "const")), rng.randint(0, 7)))
        elif kind == "syswrite":
            ops.append((kind, rng.choice(("s0", "s1")),
                        rng.randint(1, 5)))
        elif kind in ("sysatomic", "devatomic"):
            ops.append((kind, rng.choice(_MG_ATOMICS),
                        rng.randint(0, 7), rng.randint(1, 3)))
        else:
            ops.append((kind,))
    return ops


#: Read by every generated multi-device kernel; the relaunch fuzz flips
#: it between two launches.
_MG_SALT = 0


def _make_mg_kernel(program, salt=0):
    """Build a closure kernel running one multi-device descriptor list.

    The starting accumulator reads the module global ``_MG_SALT`` and
    the closure cell ``salt``, so the fuzz can change either between
    launches of the same function object."""
    from repro.compiler.ops import Scope

    def kernel(t):
        acc = (t.system_id + salt + _MG_SALT) % 7
        for op in program:
            kind = op[0]
            if kind == "alu":
                yield t.alu(op[1])
            elif kind == "dread":
                idx = t.global_id if op[1] == "tid" else op[2]
                v = yield t.global_read("d0", idx)
                acc = (acc + int(v)) % 1009
            elif kind == "dwrite":
                idx = t.global_id if op[1] == "tid" else op[2]
                yield t.global_write("d0", idx, acc + op[2])
            elif kind == "sysread":
                idx = t.system_id if op[2] == "sid" else op[3]
                v = yield t.system_read(op[1], idx)
                acc = (acc + int(v)) % 1009
            elif kind == "syswrite":
                yield t.system_write(op[1], t.system_id, acc + op[2])
            elif kind in ("sysatomic", "devatomic"):
                _, name, slot, val = op
                scope = Scope.SYSTEM if kind == "sysatomic" \
                    else Scope.DEVICE
                v = yield _atomic(t, name, "acc", slot, acc, val,
                                  scope=scope)
                acc = (acc + int(v)) % 1009
            elif kind == "fence":
                yield t.threadfence()
            elif kind == "fence_sys":
                yield t.threadfence(Scope.SYSTEM)
            elif kind == "grid_sync":
                yield t.grid_sync()
            elif kind == "multi_grid_sync":
                yield t.multi_grid_sync()
        yield t.system_write("out", t.system_id, acc)

    return kernel


def _mg_system(n_total, dtype):
    return {"s0": np.arange(n_total, dtype=dtype),
            "s1": (np.arange(n_total, dtype=dtype) * 13) % 97,
            "acc": np.zeros(8, dtype),
            "out": np.zeros(n_total, dtype)}


def _run_mg(runtime, kernel, grid, block, n_total, dtype):
    return runtime.launch(
        kernel, LaunchConfig(grid, block),
        system=_mg_system(n_total, dtype),
        device_globals={"d0": (grid * block, np.dtype(dtype))})


#: Changes made between the two launches of one multi-device seed,
#: taken in turn by seed.
_MG_CHANGES = ("global", "cell", "cost")


def _mg_outcome_bytes(result):
    return (result.elapsed_cycles, tuple(result.device_cycles),
            tuple(sorted(vars(result.stats).items())),
            tuple((name, arr.tobytes())
                  for name, arr in sorted(result.system.items())),
            tuple((name, arr.tobytes()) for mem in result.device_memories
                  for name, arr in sorted(mem.items())))


@pytest.mark.parametrize("seed", range(N_MG_PROGRAMS))
def test_multigpu_replay_matches_reference(mini_gpu, monkeypatch, seed):
    """Relaunching a cooperative/system-scope program on a reused
    runtime, after a change that affects its answer, must be
    byte-identical to the same launch on a fresh runtime.  Seeds take
    turns flipping a module global, rebinding a closure cell, and
    mutating an interconnect cost field."""
    from dataclasses import replace

    from repro.cuda.multigpu import MultiCuda
    from repro.gpu.multi import MultiGpu

    rng = random.Random(4000 + seed)
    program = _gen_mg_ops(rng)
    grid = rng.choice((1, 2))
    block = rng.choice((8, 16))
    n_devices = rng.choice((2, 3))
    dtype = rng.choice(_MEM_DTYPES)
    n_total = n_devices * grid * block
    kernel = _make_mg_kernel(program)
    multi = MultiGpu(mini_gpu)
    runtime = MultiCuda(multi, n_devices=n_devices)

    first = _run_mg(runtime, kernel, grid, block, n_total, dtype)
    change = _MG_CHANGES[seed % len(_MG_CHANGES)]
    if change == "global":
        monkeypatch.setitem(globals(), "_MG_SALT", 1)
    elif change == "cell":
        kernel.__closure__[kernel.__code__.co_freevars.index("salt")] \
            .cell_contents = 2
    else:
        multi.interconnect = replace(
            multi.interconnect,
            latency_cycles=2 * multi.interconnect.latency_cycles)
    relaunch = _run_mg(runtime, kernel, grid, block, n_total, dtype)
    fresh = MultiCuda(MultiGpu(mini_gpu, interconnect=multi.interconnect),
                      n_devices=n_devices)
    ref = _run_mg(fresh, kernel, grid, block, n_total, dtype)

    assert _mg_outcome_bytes(relaunch) != _mg_outcome_bytes(first), \
        f"seed {seed}: the {change} change did not alter the launch"
    assert _mg_outcome_bytes(relaunch) == _mg_outcome_bytes(ref), \
        f"seed {seed}: relaunch after a {change} change diverged"


# -------------------------- OpenMP programs -------------------------- #

_OMP_OPS = ("read", "write", "atomic_read", "atomic_update",
            "atomic_write", "atomic_capture", "flush", "barrier",
            "single", "critical", "lock", "shared_write", "racy_read",
            "mixed")


def _gen_omp_ops(rng):
    ops = []
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(_OMP_OPS)
        if kind in ("read", "write"):
            ops.append((kind, rng.choice(("a", "b")),
                        rng.choice(("tid", "const")), rng.randint(0, 7)))
        elif kind in ("atomic_read", "atomic_update", "atomic_write",
                      "atomic_capture"):
            ops.append((kind, rng.randint(0, 3), rng.randint(1, 4)))
        elif kind == "shared_write":
            # Every thread stores to one shared element; unlocked, a race.
            ops.append((kind, rng.choice(("a", "b")), rng.randint(0, 7)))
        elif kind == "mixed":
            # An atomic access, then a plain one to the same acc slot.
            ops.append((kind, rng.choice(("atomic_read", "atomic_update",
                                          "atomic_write", "atomic_capture")),
                        rng.randint(0, 3), rng.randint(1, 4)))
        elif kind in ("flush", "barrier", "single", "critical",
                      "racy_read"):
            ops.append((kind,))
        elif kind == "lock":
            # Properly nested pair around a few plain accesses, always
            # the same lock name: imbalance- and cycle-free.  A
            # master-only pair lets the holder's accesses share a round
            # with the other threads' unlocked ones.  The accesses are
            # thread-private or to a shared element the lock orders.
            if rng.random() < 0.5:
                inner = [("read", "a", "tid", 0),
                         ("write", "a", "tid", rng.randint(1, 4))]
            else:
                inner = [("read", "a", "const", 0), ("shared_write", "a", 0)]
            ops.append(("lock", inner[:rng.randint(1, 2)],
                        rng.random() < 0.5))
    return ops


def _make_omp_body(program):
    def run_op(tc, op, acc):
        kind = op[0]
        if kind == "read":
            idx = tc.tid if op[2] == "tid" else op[3]
            v = yield tc.read(op[1], idx)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "write":
            idx = tc.tid if op[2] == "tid" else op[3]
            # Constant-index plain writes from all threads are the
            # sanitizer's static-race class; keep them thread-private.
            idx = tc.tid if op[2] == "const" else idx
            yield tc.write(op[1], idx, acc[0] + op[3])
        elif kind == "shared_write":
            yield tc.write(op[1], op[2], acc[0])
        elif kind == "racy_read":
            # Reads the critical section's counter outside it.
            v = yield tc.read("c", 0)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "mixed":
            # Races the other threads' atomic access: a plain write
            # after an atomic read, a plain read after an atomic write.
            _, atomic, slot, val = op
            yield from run_op(tc, (atomic, slot, val), acc)
            if atomic == "atomic_read":
                yield tc.write("acc", slot, acc[0])
            else:
                v = yield tc.read("acc", slot)
                acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "atomic_read":
            v = yield tc.atomic_read("acc", op[1])
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "atomic_update":
            _, slot, val = op
            yield tc.atomic_update("acc", slot, lambda v: v + val)
        elif kind == "atomic_write":
            _, slot, val = op
            yield tc.atomic_write("acc", slot, acc[0] % 7 + val)
        elif kind == "atomic_capture":
            _, slot, val = op
            old = yield tc.atomic_capture("acc", slot,
                                          lambda v: v + val)
            acc[0] = (acc[0] + int(old)) % 1009
        elif kind == "flush":
            yield tc.flush()
        elif kind == "barrier":
            yield tc.barrier()
        elif kind == "single":
            # Its touch of c races an unguarded access to c earlier in
            # the epoch.
            yield tc.single(
                lambda mem: mem["c"].__setitem__(0, mem["c"][0] + 2),
                touches=(("c", 0, True),))
        elif kind == "critical":
            yield tc.critical(
                lambda mem: mem["c"].__setitem__(0, mem["c"][0] + 1),
                touches=(("c", 0, True),))
        elif kind == "lock":
            if op[2] and not tc.is_master:
                return
            yield tc.lock_acquire("l")
            for sub in op[1]:
                yield from run_op(tc, sub, acc)
            yield tc.lock_release("l")

    def body(tc):
        acc = [tc.tid + 1]
        for op in program:
            yield from run_op(tc, op, acc)
        yield tc.atomic_write("out", tc.tid, acc[0])

    return body


def _omp_shared(n_threads):
    return {"a": np.arange(16, dtype=np.int64),
            "b": (np.arange(16, dtype=np.int64) * 7) % 31,
            "acc": np.zeros(4, np.int64),
            "c": np.zeros(1, np.int64),
            "out": np.zeros(n_threads, np.int64)}


def _run_omp(machine, program, n_threads, fast, shared=None,
             detect_races=False, collect_races=False):
    body = _make_omp_body(program)
    omp = OpenMP(machine, n_threads=n_threads, detect_races=detect_races,
                 collect_races=collect_races, fast=fast)
    return omp.parallel(
        body, shared=_omp_shared(n_threads) if shared is None else shared)


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_fast_path_matches_reference(quiet_cpu, seed):
    rng = random.Random(2000 + seed)
    program = _gen_omp_ops(rng)
    n_threads = rng.choice((2, 4))
    fast = _run_omp(quiet_cpu, program, n_threads, fast=True)
    ref = _run_omp(quiet_cpu, program, n_threads, fast=False)
    assert fast.elapsed_ns == ref.elapsed_ns, f"seed {seed}"
    assert fast.thread_times_ns == ref.thread_times_ns, f"seed {seed}"
    assert fast.barriers == ref.barriers, f"seed {seed}"
    assert fast.requests == ref.requests, f"seed {seed}"
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"seed {seed}: {name}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_dispatcher_forced_matches_reference(quiet_cpu, seed):
    """Region replay (forced keying) must be byte-identical to the
    reference scheduler, cold and warm."""
    rng = random.Random(2000 + seed)
    program = _gen_omp_ops(rng)
    n_threads = rng.choice((2, 4))
    ref = _run_omp(quiet_cpu, program, n_threads, fast=False)
    with dispatch_forced():
        cold = _run_omp(quiet_cpu, program, n_threads, fast=True)
        hits = counter_value("dispatch.hit")
        warm = _run_omp(quiet_cpu, program, n_threads, fast=True)
    assert counter_value("dispatch.hit") > hits, \
        f"seed {seed}: identical region rerun did not replay"
    for label, result in (("cold", cold), ("warm", warm)):
        assert result.elapsed_ns == ref.elapsed_ns, \
            f"seed {seed} ({label})"
        assert result.thread_times_ns == ref.thread_times_ns, \
            f"seed {seed} ({label})"
        assert result.barriers == ref.barriers, f"seed {seed} ({label})"
        assert result.requests == ref.requests, f"seed {seed} ({label})"
        assert set(result.memory) == set(ref.memory)
        for name in ref.memory:
            assert result.memory[name].tobytes() == \
                ref.memory[name].tobytes(), \
                f"seed {seed} ({label}): {name}"


def _detecting_outcome(machine, program, n_threads, fast, collect):
    """Everything a detecting region shows: in collect mode the race
    reports, clocks and counts; in raise mode the error message.  Both
    with the shared memory as it stood at the end or at the raise."""
    shared = _omp_shared(n_threads)
    try:
        result = _run_omp(machine, program, n_threads, fast, shared,
                          detect_races=True, collect_races=collect)
        shown = (str(result.races), result.elapsed_ns,
                 result.thread_times_ns, result.barriers, result.requests)
    except DataRaceError as exc:
        assert not collect, "collect mode raised"
        shown = ("raised", str(exc))
    return shown, [(name, arr.tobytes())
                   for name, arr in sorted(shared.items())]


@pytest.mark.parametrize("mode", ("collect", "raise"))
@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_detecting_fast_path_matches_reference(quiet_cpu, seed,
                                                      mode):
    """With the race detector on (the default), the fast scheduler
    reports the reference's races, or raises its error, byte for byte."""
    rng = random.Random(2000 + seed)
    program = _gen_omp_ops(rng)
    n_threads = rng.choice((2, 4))
    collect = mode == "collect"
    fast = _detecting_outcome(quiet_cpu, program, n_threads, True, collect)
    ref = _detecting_outcome(quiet_cpu, program, n_threads, False, collect)
    assert fast == ref, f"seed {seed} ({mode})"


def test_openmp_fuzz_corpus_races_often(quiet_cpu):
    """The detection-on fuzz means little unless many programs race:
    at least a third of the corpus must report a race."""
    racy = 0
    for seed in range(N_PROGRAMS):
        rng = random.Random(2000 + seed)
        program = _gen_omp_ops(rng)
        n_threads = rng.choice((2, 4))
        result = _run_omp(quiet_cpu, program, n_threads, fast=False,
                          detect_races=True, collect_races=True)
        racy += bool(result.races)
    assert racy * 3 >= N_PROGRAMS, f"only {racy}/{N_PROGRAMS} race"


# ------------------- OpenMP lifted tier (tier 1) --------------------- #


def _gen_steady_omp_ops(rng):
    """A random *steady* region: fixed control flow, concrete indices,
    values flowing only through lift-able arithmetic (no ``int()``
    coercions) — every generated program must lift, so a fallback is a
    failure, not a skip."""
    ops = []
    for _ in range(rng.randint(3, 9)):
        kind = rng.choice(("read", "write", "atomic_update",
                           "atomic_capture", "barrier"))
        if kind == "read":
            ops.append(("read", rng.choice(("a", "b")),
                        rng.randrange(16), rng.randrange(1, 5)))
        elif kind == "write":
            ops.append(("write", rng.randrange(7)))
        elif kind == "atomic_update":
            ops.append(("atomic_update", rng.randrange(4),
                        rng.randrange(1, 9)))
        elif kind == "atomic_capture":
            ops.append(("atomic_capture", rng.randrange(4),
                        rng.randrange(1, 9)))
        else:
            ops.append(("barrier",))
    ops.append(("write", 0))  # every thread publishes its accumulator
    return ops


def _make_steady_omp_body(ops):
    def body(tc):
        acc = tc.tid
        for op in ops:
            if op[0] == "read":
                value = yield tc.read(op[1], (tc.tid + op[2]) % 16)
                acc = acc + value * op[3]
            elif op[0] == "write":
                yield tc.write("out", tc.tid, acc + op[1])
            elif op[0] == "atomic_update":
                _, slot, val = op
                yield tc.atomic_update("acc", slot,
                                       lambda cur, v=val: cur + v)
            elif op[0] == "atomic_capture":
                _, slot, val = op
                old = yield tc.atomic_capture(
                    "acc", slot, lambda cur, v=val: cur + v)
                acc = acc + old
            else:
                yield tc.barrier()
    return body


def _steady_omp_shared(n_threads, salt):
    return {"a": (np.arange(16, dtype=np.int64) * 5 + salt) % 43,
            "b": (np.arange(16, dtype=np.int64) * 11 + salt) % 31,
            "acc": np.zeros(4, np.int64),
            "out": np.zeros(n_threads, np.int64)}


@pytest.mark.parametrize("seed", range(N_PROGRAMS // 2))
def test_openmp_lifted_tier_matches_reference(quiet_cpu, seed):
    """Byte-identity of tier-1 region plans, with the plan provably
    executing (fresh shared contents defeat tier-0 replay; the
    ``dispatch.lifted_regions`` tripwire defeats a silent fallback)."""
    from repro.compiler.dispatcher import DISPATCHER
    rng = random.Random(7000 + seed)
    ops = _gen_steady_omp_ops(rng)
    body = _make_steady_omp_body(ops)
    n_threads = rng.choice((2, 4))
    DISPATCHER.clear()
    with dispatch_forced():
        omp = OpenMP(quiet_cpu, n_threads=n_threads, detect_races=False)
        omp.parallel(body, _steady_omp_shared(n_threads, 0))  # capture
        lifted = counter_value("dispatch.lifted_regions")
        hits = counter_value("dispatch.shape_hit")
        fast_shared = _steady_omp_shared(n_threads, 1)
        fast = omp.parallel(body, fast_shared)
    assert counter_value("dispatch.lifted_regions") > lifted, \
        f"seed {seed}: the region plan never executed"
    assert counter_value("dispatch.shape_hit") > hits, \
        f"seed {seed}: fresh contents did not shape-hit"
    ref_shared = _steady_omp_shared(n_threads, 1)
    ref = OpenMP(quiet_cpu, n_threads=n_threads, detect_races=False,
                 fast=False).parallel(body, ref_shared)
    assert fast.elapsed_ns == ref.elapsed_ns, f"seed {seed}"
    assert fast.thread_times_ns == ref.thread_times_ns, f"seed {seed}"
    assert fast.barriers == ref.barriers, f"seed {seed}"
    assert fast.requests == ref.requests, f"seed {seed}"
    for name in ref_shared:
        assert fast_shared[name].tobytes() == \
            ref_shared[name].tobytes(), f"seed {seed}: {name}"
