"""The JIT-style dispatch layer: cache accounting, invalidation,
isolation, tier byte-identity, and the bench ``--compare`` diff.

The differential-fuzz harness (``test_differential_fuzz.py``) pins
byte-identity over random programs; this suite pins the dispatcher's
*mechanics* — which launches are keyed, when the cache hits, what
invalidates it, and how every degradation path falls back.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

import repro.compiler.dispatcher as dmod
from repro.bench import compare_payloads
from repro.common.errors import SimulationError
from repro.compiler.dispatcher import (
    DISPATCHER, Dispatcher, dispatch_disabled, dispatch_forced,
    machine_fingerprint,
)
from repro.compiler.lift import kernel_purity
from repro.cuda.interpreter import Cuda, KernelThread
from repro.gpu.costs import GpuCostParams
from repro.gpu.device import GpuDevice
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import (
    counter_value, counters_delta, counters_snapshot,
)
from repro.openmp.interpreter import OpenMP


def _counters(*names: str) -> dict[str, int]:
    return {name: counter_value(name) for name in names}


def _deltas(before: dict[str, int]) -> dict[str, int]:
    return {name: counter_value(name) - value
            for name, value in before.items()}


DISPATCH = ("dispatch.hit", "dispatch.miss", "dispatch.compile",
            "dispatch.fallback", "dispatch.lifted_blocks")


# A steady kernel the dispatcher can both lift and replay.
def steady_kernel(t):
    tid = t.global_id
    acc = 0
    for i in range(3):
        value = yield t.global_read("a", tid)
        yield t.alu(2)
        acc = acc + value * (i + 1)
    yield t.global_write("b", tid, acc)
    yield t.syncthreads()
    total = yield t.global_read("b", tid)
    yield t.atomic_add("c", 0, total)


# Data-dependent control flow: unliftable, but replayable.
def divergent_kernel(t):
    value = yield t.global_read("a", t.global_id)
    if value % 2 == 0:
        yield t.alu(3)
        yield t.global_write("b", t.global_id, value * 2)
    else:
        yield t.global_write("b", t.global_id, value + 1)


_MODULE_TABLE = [3]


def impure_kernel(t):
    yield t.global_write("b", t.global_id, _MODULE_TABLE[0])


SCALE = 1


def scale_global_kernel(t):
    yield t.global_write("b", t.global_id, t.global_id * SCALE)


LC = LaunchConfig(2, 64)
N = 2 * 64


def _memory(seed: int = 0) -> dict[str, np.ndarray]:
    return {"a": (np.arange(N, dtype=np.int64) * 13 + seed) % 101,
            "b": np.zeros(N, dtype=np.int64),
            "c": np.zeros(1, dtype=np.int64)}


def _snapshot(memory) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in memory.items()}


# --------------------------------------------------------------------- #
# Machine fingerprints
# --------------------------------------------------------------------- #


class TestMachineFingerprint:
    def test_stable_across_calls(self, mini_gpu):
        assert machine_fingerprint(mini_gpu) == \
            machine_fingerprint(mini_gpu)

    def test_changes_with_cost_params(self, mini_gpu):
        other = GpuDevice(mini_gpu.spec, dataclasses.replace(
            GpuCostParams(), sync_base_cycles=999))
        assert machine_fingerprint(mini_gpu) != \
            machine_fingerprint(other)

    def test_in_place_mutation_detected(self, mini_gpu):
        device = GpuDevice(mini_gpu.spec, GpuCostParams())
        before = machine_fingerprint(device)
        object.__setattr__(device.params, "sync_base_cycles",
                           device.params.sync_base_cycles + 7)
        assert machine_fingerprint(device) != before

    def test_faulty_machine_not_fingerprintable(self, quiet_cpu):
        from repro.faults.models import DroppedRun
        from repro.faults.scenario import FaultScenario
        from repro.faults.machine import FaultyMachine
        wrapped = FaultyMachine(
            quiet_cpu, FaultScenario("f", (DroppedRun(drop_prob=0.5),)))
        assert machine_fingerprint(wrapped) is None


# --------------------------------------------------------------------- #
# CUDA: replay + lifted tiers
# --------------------------------------------------------------------- #


class TestCudaDispatch:
    def test_miss_then_hit_accounting(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        before = _counters(*DISPATCH)
        first = _memory()
        cuda.launch(steady_kernel, LC, first)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.hit"] == 0
        assert d["dispatch.compile"] == 1
        assert d["dispatch.lifted_blocks"] == LC.grid_blocks

        before = _counters(*DISPATCH)
        second = _memory()
        cuda.launch(steady_kernel, LC, second)
        d = _deltas(before)
        assert d["dispatch.hit"] == 1
        assert d["dispatch.miss"] == 0
        assert d["dispatch.compile"] == 0
        assert _snapshot(first) == _snapshot(second)

    def test_replay_matches_reference(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory())  # record
        warm_mem = _memory()
        warm = cuda.launch(steady_kernel, LC, warm_mem)
        ref_mem = _memory()
        ref = Cuda(mini_gpu, fast=False).launch(steady_kernel, LC,
                                                ref_mem)
        assert _snapshot(warm_mem) == _snapshot(ref_mem)
        assert warm.elapsed_cycles == ref.elapsed_cycles
        assert warm.block_cycles == ref.block_cycles
        assert warm.stats == ref.stats

    def test_lifted_plans_reused_on_fresh_data(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(0))
        before = _counters(*DISPATCH)
        fast_mem = _memory(1)  # new content: replay must miss
        fast = cuda.launch(steady_kernel, LC, fast_mem)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.compile"] == 0, "plans must be reused"
        assert d["dispatch.lifted_blocks"] == LC.grid_blocks
        ref_mem = _memory(1)
        ref = Cuda(mini_gpu, fast=False).launch(steady_kernel, LC,
                                                ref_mem)
        assert _snapshot(fast_mem) == _snapshot(ref_mem)
        assert fast.elapsed_cycles == ref.elapsed_cycles
        assert fast.stats == ref.stats

    def test_tiers_record_spans(self, mini_gpu):
        from repro.obs import Recorder, recording
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        rec = Recorder()
        with recording(rec):
            cuda.launch(steady_kernel, LC, _memory(0))  # capture
            cuda.launch(steady_kernel, LC, _memory(0))  # replay hit
            cuda.launch(steady_kernel, LC, _memory(1))  # lifted plans
        names = [s["name"] for s in rec.spans()]
        assert "dispatch.capture" in names
        assert "dispatch.replay" in names
        assert "dispatch.lifted" in names
        lifted = next(s for s in rec.spans()
                      if s["name"] == "dispatch.lifted")
        assert lifted["attrs"]["kind"] == "cuda"

    def test_divergent_kernel_falls_back_but_replays(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        before = _counters(*DISPATCH)
        cuda.launch(divergent_kernel, LC, _memory())
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.lifted_blocks"] == 0
        assert d["dispatch.fallback"] == 1  # capture aborted

        before = _counters(*DISPATCH)
        replayed = _memory()
        cuda.launch(divergent_kernel, LC, replayed)
        assert _deltas(before)["dispatch.hit"] == 1
        ref = _memory()
        Cuda(mini_gpu, fast=False).launch(divergent_kernel, LC, ref)
        assert _snapshot(replayed) == _snapshot(ref)

    def test_impure_kernel_not_keyed(self, mini_gpu):
        DISPATCHER.clear()
        ok, reason = kernel_purity(impure_kernel)
        assert not ok and "_MODULE_TABLE" in reason
        cuda = Cuda(mini_gpu)
        before = _counters(*DISPATCH)
        cuda.launch(impure_kernel, LC, _memory())
        cuda.launch(impure_kernel, LC, _memory())
        d = _deltas(before)
        assert d["dispatch.fallback"] == 2
        assert d["dispatch.hit"] == d["dispatch.miss"] == 0

    def test_budget_exhaustion_identical_to_reference(self, mini_gpu):
        DISPATCHER.clear()
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())  # record
        before = _counters("dispatch.hit")
        fast_mem = _memory()
        with pytest.raises(SimulationError) as fast_exc:
            Cuda(mini_gpu, max_steps=10).launch(steady_kernel, LC,
                                                fast_mem)
        assert _deltas(before)["dispatch.hit"] == 0, \
            "a replay must never mask a budget blowout"
        assert "step budget" in str(fast_exc.value)
        with pytest.raises(SimulationError, match="step budget"):
            Cuda(mini_gpu, max_steps=10, fast=False).launch(
                steady_kernel, LC, _memory())


# --------------------------------------------------------------------- #
# Isolation + invalidation
# --------------------------------------------------------------------- #


def scale2_kernel(t):
    value = yield t.global_read("a", t.global_id)
    yield t.global_write("b", t.global_id, value * 2)


def scale3_kernel(t):
    value = yield t.global_read("a", t.global_id)
    yield t.global_write("b", t.global_id, value * 3)


class TestIsolation:
    def test_cross_kernel_isolation(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        m2 = _memory()
        cuda.launch(scale2_kernel, LC, m2)
        cuda.launch(scale2_kernel, LC, _memory())  # warm the cache
        m3 = _memory()
        cuda.launch(scale3_kernel, LC, m3)
        assert np.array_equal(m3["b"], m2["b"] // 2 * 3)

    def test_machine_param_change_invalidates(self, mini_gpu):
        DISPATCHER.clear()
        slow = GpuDevice(mini_gpu.spec, dataclasses.replace(
            GpuCostParams(), sync_base_cycles=5000))
        base_mem = _memory()
        base = Cuda(mini_gpu).launch(steady_kernel, LC, base_mem)
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())  # warm
        slow_mem = _memory()
        slow_result = Cuda(slow).launch(steady_kernel, LC, slow_mem)
        # Same bytes (costs don't change semantics), different time —
        # a stale replay would have returned the old elapsed cycles.
        assert _snapshot(slow_mem) == _snapshot(base_mem)
        assert slow_result.elapsed_cycles > base.elapsed_cycles
        ref = Cuda(slow, fast=False).launch(steady_kernel, LC,
                                            _memory())
        assert slow_result.elapsed_cycles == ref.elapsed_cycles

    def test_memory_content_part_of_key(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(scale2_kernel, LC, _memory(0))
        before = _counters("dispatch.hit", "dispatch.miss")
        changed = _memory(5)
        cuda.launch(scale2_kernel, LC, changed)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1 and d["dispatch.hit"] == 0
        assert np.array_equal(changed["b"], changed["a"] * 2)


# --------------------------------------------------------------------- #
# Modes, eviction, OpenMP
# --------------------------------------------------------------------- #


class TestModes:
    def test_dispatch_disabled_context(self, mini_gpu):
        DISPATCHER.clear()
        before = _counters(*DISPATCH)
        with dispatch_disabled():
            Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        assert all(v == 0 for v in _deltas(before).values())

    def test_env_off(self, mini_gpu, monkeypatch):
        monkeypatch.setenv("SYNCPERF_DISPATCH", "off")
        before = _counters(*DISPATCH)
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        assert all(v == 0 for v in _deltas(before).values())

    def test_forced_replay_sees_module_global_change(self, mini_gpu,
                                                     monkeypatch):
        """Tier-0 replay must key on the module globals a kernel reads:
        same kernel, same memory, different ``SCALE`` — a replay of the
        first launch would write 0..7 instead of 0..700."""
        import sys
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        launch = LaunchConfig(1, 8)
        with dispatch_forced():
            first = {"b": np.zeros(8, dtype=np.int64)}
            cuda.launch(scale_global_kernel, launch, first)
            assert first["b"].tolist() == list(range(8))
            monkeypatch.setattr(sys.modules[__name__], "SCALE", 100)
            again = {"b": np.zeros(8, dtype=np.int64)}
            cuda.launch(scale_global_kernel, launch, again)
        ref = {"b": np.zeros(8, dtype=np.int64)}
        Cuda(mini_gpu, fast=False).launch(scale_global_kernel, launch, ref)
        assert ref["b"].tolist() == [100 * i for i in range(8)]
        assert _snapshot(again) == _snapshot(ref)

    def test_forced_keys_impure_kernels(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        with dispatch_forced():
            forced = _memory()
            cuda.launch(impure_kernel, LC, forced)
            before = _counters("dispatch.hit")
            warm = _memory()
            cuda.launch(impure_kernel, LC, warm)
            assert _deltas(before)["dispatch.hit"] == 1
        ref = _memory()
        Cuda(mini_gpu, fast=False).launch(impure_kernel, LC, ref)
        assert _snapshot(warm) == _snapshot(ref)


class TestEviction:
    def test_lru_eviction_bounds_the_cache(self, mini_gpu, monkeypatch):
        small = Dispatcher(max_entries=2)
        monkeypatch.setattr(dmod, "DISPATCHER", small)
        cuda = Cuda(mini_gpu)
        before = _counters("dispatch.evictions")
        for seed in range(4):
            cuda.launch(scale2_kernel, LC, _memory(seed))
        assert small.stats()["entries"] <= 2
        assert _deltas(before)["dispatch.evictions"] >= 2

    def test_clear_empties_everything(self, mini_gpu):
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        DISPATCHER.clear()
        stats = DISPATCHER.stats()
        assert stats["entries"] == 0 and stats["plans"] == 0 \
            and stats["bytes"] == 0


def omp_body(tc):
    yield tc.atomic_update("hist", tc.tid % 2, lambda v: v + 1)
    yield tc.barrier()
    value = yield tc.atomic_read("hist", 0)
    yield tc.atomic_write("out", tc.tid, value + tc.tid)


class TestOpenMPBypass:
    def test_forced_dispatch_leaves_openmp_regions_alone(self, quiet_cpu):
        """OpenMP regions run on the batched scheduler without consulting
        the dispatcher, even when forced on and with detection off."""
        DISPATCHER.clear()
        before = counters_snapshot(("dispatch.",))
        with dispatch_forced():
            for _ in range(2):
                shared = {"hist": np.zeros(2, dtype=np.int64),
                          "out": np.zeros(4, dtype=np.int64)}
                OpenMP(quiet_cpu, n_threads=4,
                       detect_races=False).parallel(omp_body, shared)
                assert shared["out"].tolist() == [2, 3, 4, 5]
        assert counters_delta(before, ("dispatch.",)) == {}
        assert DISPATCHER.stats()["entries"] == 0


# --------------------------------------------------------------------- #
# bench --compare
# --------------------------------------------------------------------- #


def _payload(rows):
    return {"benchmarks": [{"id": i, "speedup": s} for i, s in rows]}


class TestBenchCompare:
    def test_regression_detected(self):
        old = _payload([("a", 10.0), ("b", 2.0)])
        new = _payload([("a", 10.1), ("b", 1.0)])
        regressions = compare_payloads(new, old, tolerance=0.2)
        assert [r["id"] for r in regressions] == ["b"]
        assert regressions[0]["old_speedup"] == 2.0
        assert regressions[0]["new_speedup"] == 1.0

    def test_tolerance_allows_small_drops(self):
        old = _payload([("a", 10.0)])
        new = _payload([("a", 8.5)])
        assert compare_payloads(new, old, tolerance=0.2) == []
        assert compare_payloads(new, old, tolerance=0.1) != []

    def test_new_and_removed_rows_never_fail(self):
        old = _payload([("gone", 5.0)])
        new = _payload([("fresh", 0.1)])
        assert compare_payloads(new, old, tolerance=0.2) == []


# --------------------------------------------------------------------- #
# Purity proof and fallback accounting
# --------------------------------------------------------------------- #


ON_SCALE = 2


def on_scale_kernel(t: KernelThread):
    yield t.global_write("b", t.global_id, t.global_id * ON_SCALE)


def _make_cell_kernel(cell):
    def kernel(t):
        yield t.global_write("b", t.global_id, cell[0])
    return kernel


class TestPurityAndFallbacks:
    def test_listing1_kernels_are_pure(self):
        from repro.reductions.kernels import REDUCTION_NAMES, make_reduction
        for name in REDUCTION_NAMES:
            assert kernel_purity(make_reduction(name, 64)) == (True, ""), \
                name

    def test_annotations_are_not_references(self):
        """``t: KernelThread`` never runs while the generator steps."""
        assert kernel_purity(on_scale_kernel) == (True, "")

    def test_shadowed_builtin_must_be_immutable(self, monkeypatch):
        import sys
        module = sys.modules[__name__]
        monkeypatch.setattr(module, "max", lambda *a: 0, raising=False)

        def kernel(t):
            yield t.alu(max(1, 2))

        ok, reason = kernel_purity(kernel)
        assert not ok and "'max'" in reason

    def test_rebound_constant_rekeys_on_mode(self, mini_gpu, monkeypatch):
        """An immutable module global admits the kernel in ``on`` mode,
        so rebinding it must re-key both tiers."""
        import sys
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        launch = LaunchConfig(1, 8)
        cuda.launch(on_scale_kernel, launch,
                    {"b": np.zeros(8, dtype=np.int64)})
        monkeypatch.setattr(sys.modules[__name__], "ON_SCALE", 9)
        before = _counters("dispatch.hit", "dispatch.shape_hit",
                           "dispatch.compile")
        again = {"b": np.zeros(8, dtype=np.int64)}
        cuda.launch(on_scale_kernel, launch, again)
        d = _deltas(before)
        assert d["dispatch.hit"] == d["dispatch.shape_hit"] == 0
        assert d["dispatch.compile"] == 1
        assert again["b"].tolist() == [9 * i for i in range(8)]

    def test_fallback_total_is_the_sum_of_reasons(self, mini_gpu,
                                                  monkeypatch):
        reasons = ("unfingerprintable", "impure", "unsignable", "memory",
                   "capture")
        names = ["dispatch.fallback"] + [f"dispatch.fallback.{r}"
                                         for r in reasons]
        DISPATCHER.clear()
        before = _counters(*names)
        odd = GpuDevice(dataclasses.replace(mini_gpu.spec),
                        GpuCostParams())
        object.__setattr__(odd.spec, "name", object())  # unfreezable
        Cuda(odd).launch(steady_kernel, LC, _memory())
        Cuda(mini_gpu).launch(impure_kernel, LC, _memory())
        Cuda(mini_gpu).launch(_make_cell_kernel([4]), LC, _memory())
        monkeypatch.setattr(DISPATCHER, "memory_cap", 16)
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        monkeypatch.undo()
        Cuda(mini_gpu).launch(divergent_kernel, LC, _memory())
        d = _deltas(before)
        assert all(d[f"dispatch.fallback.{r}"] == 1 for r in reasons), d
        assert d["dispatch.fallback"] == sum(
            d[f"dispatch.fallback.{r}"] for r in reasons)

    def test_capture_span_carries_verdict_and_escape(self, mini_gpu):
        from repro.obs import Recorder, recording
        DISPATCHER.clear()
        rec = Recorder()
        with recording(rec):
            Cuda(mini_gpu).launch(divergent_kernel, LC, _memory())
        span, = [s for s in rec.spans() if s["name"] == "dispatch.capture"]
        assert span["attrs"]["purity"] == "pure"
        assert "data-dependent value" in span["attrs"]["escape"]

    def test_capture_runs_outside_the_dispatcher_lock(self, mini_gpu,
                                                      monkeypatch):
        """Another thread's cache lookups proceed while a capture runs."""
        real = dmod.lift.capture_block_variant
        blocked = []

        def capture(*args, **kwargs):
            other = threading.Thread(target=DISPATCHER.stats)
            other.start()
            other.join(timeout=5)
            blocked.append(other.is_alive())
            return real(*args, **kwargs)

        monkeypatch.setattr(dmod.lift, "capture_block_variant", capture)
        DISPATCHER.clear()
        before = _counters("dispatch.compile")
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        assert _deltas(before)["dispatch.compile"] == 1
        assert blocked == [False], "stats() waited for a running capture"


# --------------------------------------------------------------------- #
# Shape-keyed lifted tier (tier 1)
# --------------------------------------------------------------------- #


_GUARD_SCALE = 2


def guarded_kernel(t):
    yield t.global_write("b", t.global_id, _GUARD_SCALE * 7)


class TestShapeKeys:
    def test_fresh_content_is_a_shape_hit(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(0))  # capture
        before = _counters("dispatch.shape_hit", "dispatch.compile")
        cuda.launch(steady_kernel, LC, _memory(1))  # fresh content
        d = _deltas(before)
        assert d["dispatch.shape_hit"] == 1
        assert d["dispatch.compile"] == 0

    def test_identical_content_replays_without_shape_lookup(self,
                                                            mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(0))
        before = _counters("dispatch.shape_hit", "dispatch.hit")
        cuda.launch(steady_kernel, LC, _memory(0))  # tier-0 replay
        d = _deltas(before)
        assert d["dispatch.hit"] == 1
        assert d["dispatch.shape_hit"] == 0

    def test_guard_falsifies_stale_plans(self, mini_gpu, monkeypatch):
        """Same shape, different semantics must NOT replay.

        Flipping a module global the kernel reads changes what the
        kernel computes without changing any dtype, shape, or launch
        parameter — the shape digest collides, and only the lift-time
        guard stands between the dispatcher and a stale answer.
        """
        import sys
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        with dispatch_forced():  # module-global kernels are impure
            cuda.launch(guarded_kernel, LC, _memory(0))  # capture @ 2
            monkeypatch.setattr(sys.modules[__name__],
                                "_GUARD_SCALE", 5)
            before = _counters("dispatch.shape_hit", "dispatch.compile")
            flipped = _memory(1)  # fresh content: tier 0 must miss
            cuda.launch(guarded_kernel, LC, flipped)
            d = _deltas(before)
            assert d["dispatch.shape_hit"] == 0, \
                "guard must reject the stale plan"
            assert d["dispatch.compile"] == 1, "must recapture"
        assert np.all(flipped["b"] == 35), "stale plan served 2 * 7"
        ref = _memory(1)
        Cuda(mini_gpu, fast=False).launch(guarded_kernel, LC, ref)
        assert _snapshot(flipped) == _snapshot(ref)

    def test_guard_accepts_unchanged_globals(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        with dispatch_forced():
            cuda.launch(guarded_kernel, LC, _memory(0))
            before = _counters("dispatch.shape_hit")
            cuda.launch(guarded_kernel, LC, _memory(1))
            assert _deltas(before)["dispatch.shape_hit"] == 1
