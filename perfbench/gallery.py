"""The ``kernels`` workload: Listing 1 plus the workload gallery.

Each program takes one of :data:`VARIANTS` input contents.  Simulated
results depend only on (program, variant), so every (program, variant)
pair has pinned cycle counts in ``pins.json`` and a run of any seed is
checked against them.  A seed picks, per kernel process, the program
order and which variants run:

* Listing 1 on variant ``a`` (the cold run, timed alone);
* every gallery program on its variant ``a``, again on ``a`` (same
  content), then on ``b != a`` (new content, same shape);
* Listing 1 again on ``a``, then on ``b``.
"""

from __future__ import annotations

import random
import zlib

#: Input contents per program (pins exist for each).
VARIANTS = 8

#: Gallery programs, in canonical order (the seed shuffles them).
PROGRAMS = (
    "gpu_histogram", "gpu_block_scan", "gpu_bfs", "gpu_bitonic_sort",
    "omp_histogram", "omp_scan", "omp_jacobi", "omp_pipeline",
    "omp_custom_barrier",
    "mg_bfs_2dev", "mg_bfs_4dev", "mg_jacobi_2dev", "mg_jacobi_4dev",
)

#: Programs whose inputs are fixed parameters: every variant is the
#: same content, so "new content" repeats it.
FIXED = frozenset({"omp_pipeline", "omp_custom_barrier"})


def plan(seed: int, index: int) -> list[tuple[str, int]]:
    """The (program, variant) launch list of kernel process ``index``."""
    rng = random.Random(f"perfbench/kernels/{seed}/{index}")

    def pick(program: str) -> tuple[int, int]:
        if program in FIXED:
            return 0, 0
        a = rng.randrange(VARIANTS)
        b = (a + 1 + rng.randrange(VARIANTS - 1)) % VARIANTS
        return a, b

    l1a, l1b = pick("listing1")
    order = list(PROGRAMS)
    rng.shuffle(order)
    launches = [("listing1", l1a)]
    for program in order:
        a, b = pick(program)
        launches += [(program, a), (program, a), (program, b)]
    launches += [("listing1", l1a), ("listing1", l1b)]
    return launches


def _rng(program: str, variant: int):
    import numpy as np
    return np.random.default_rng([zlib.crc32(program.encode()), variant])


class Gallery:
    """Machines and generated inputs for one kernel process."""

    def __init__(self) -> None:
        import repro.workloads.bfs  # noqa: F401  (imports are set-up)
        import repro.workloads.stencil  # noqa: F401
        from repro.cpu.presets import cpu_preset
        from repro.experiments.listing1 import mini_gpu
        from repro.gpu.multi import MultiGpu
        self.cpu = cpu_preset(3)
        self.gpu = mini_gpu(sm_count=4)
        self.multi = MultiGpu(mini_gpu(sm_count=4))
        self.inputs: dict[tuple[str, int], object] = {}

    def prepare(self, launches: list[tuple[str, int]]) -> None:
        """Generate every input the launch list needs (set-up work)."""
        for key in launches:
            if key not in self.inputs:
                self.inputs[key] = make_input(*key)

    def run(self, program: str, variant: int) -> tuple[list[float], bool]:
        """Run one launch; returns (simulated cycles/ns, correct)."""
        data = self.inputs.get((program, variant))
        if data is None:
            data = make_input(program, variant)
        return RUNNERS[program](self, data)


def make_input(program: str, variant: int) -> object:
    """The input content ``variant`` of ``program``."""
    import numpy as np
    rng = _rng(program, variant)
    if program == "listing1":
        return variant  # run_listing1 draws its ints from this seed
    if program in ("gpu_histogram", "omp_histogram"):
        return rng.integers(0, 8, size=2048).astype(np.int64)
    if program in ("gpu_block_scan", "omp_scan"):
        return rng.integers(-100, 100, size=256).astype(np.int64)
    if program == "gpu_bitonic_sort":
        return rng.integers(-500, 500, size=256).astype(np.int64)
    if program == "gpu_bfs":
        from repro.workloads.bfs import random_graph
        return random_graph(64, avg_degree=4, seed=1000 + variant)
    if program.startswith("mg_bfs"):
        from repro.workloads.bfs import random_graph
        return random_graph(48, avg_degree=3, seed=2000 + variant)
    if program == "omp_jacobi":
        return rng.uniform(0.0, 9.0, size=64)
    if program.startswith("mg_jacobi"):
        return rng.uniform(0.0, 9.0, size=24)
    if program in FIXED:
        return None
    raise KeyError(program)


def _listing1(g: Gallery, seed: int):
    from repro.experiments.listing1 import run_listing1
    outcomes = run_listing1(seed=seed)
    cycles = [float(outcomes[k].elapsed_cycles) for k in sorted(outcomes)]
    return cycles, all(o.correct for o in outcomes.values())


def _one(outcome) -> tuple[list[float], bool]:
    return [float(outcome.elapsed)], bool(outcome.correct)


def _gpu_histogram(g, data):
    from repro.workloads.histogram import gpu_histogram
    return _one(gpu_histogram(g.gpu, data, 8, strategy="shared"))


def _omp_histogram(g, data):
    from repro.workloads.histogram import cpu_histogram
    return _one(cpu_histogram(g.cpu, data, 8, strategy="atomic"))


def _gpu_block_scan(g, data):
    from repro.workloads.prefix_sum import gpu_block_prefix_sum
    return _one(gpu_block_prefix_sum(g.gpu, data))


def _omp_scan(g, data):
    from repro.workloads.prefix_sum import cpu_prefix_sum
    return _one(cpu_prefix_sum(g.cpu, data))


def _gpu_bfs(g, graph):
    from repro.workloads.bfs import gpu_bfs
    return _one(gpu_bfs(g.gpu, *graph))


def _gpu_bitonic_sort(g, data):
    from repro.workloads.sort import gpu_bitonic_sort
    return _one(gpu_bitonic_sort(g.gpu, data))


def _omp_jacobi(g, data):
    from repro.workloads.stencil import cpu_jacobi
    return _one(cpu_jacobi(g.cpu, data))


def _omp_pipeline(g, _):
    from repro.workloads.pipeline import cpu_pipeline
    return _one(cpu_pipeline(g.cpu, items_per_producer=12, n_threads=4,
                             queue_slots=4))


def _omp_custom_barrier(g, _):
    from repro.workloads.custom_barrier import compare_barriers
    out = compare_barriers(g.cpu, n_threads=8, rounds=8)
    return [float(out.custom_ns), float(out.native_ns)], bool(out.correct)


def _mg_bfs(devices: int):
    def run(g, graph):
        from repro.workloads.bfs import multi_gpu_bfs
        return _one(multi_gpu_bfs(g.multi, *graph, n_devices=devices,
                                  grid_blocks=2, block_threads=8))
    return run


def _mg_jacobi(devices: int):
    def run(g, data):
        from repro.workloads.stencil import multi_gpu_jacobi
        return _one(multi_gpu_jacobi(g.multi, data, iterations=3,
                                     n_devices=devices, grid_blocks=1,
                                     block_threads=8))
    return run


RUNNERS = {
    "listing1": _listing1,
    "gpu_histogram": _gpu_histogram,
    "gpu_block_scan": _gpu_block_scan,
    "gpu_bfs": _gpu_bfs,
    "gpu_bitonic_sort": _gpu_bitonic_sort,
    "omp_histogram": _omp_histogram,
    "omp_scan": _omp_scan,
    "omp_jacobi": _omp_jacobi,
    "omp_pipeline": _omp_pipeline,
    "omp_custom_barrier": _omp_custom_barrier,
    "mg_bfs_2dev": _mg_bfs(2),
    "mg_bfs_4dev": _mg_bfs(4),
    "mg_jacobi_2dev": _mg_jacobi(2),
    "mg_jacobi_4dev": _mg_jacobi(4),
}


def check(records: list[dict], pins: dict) -> list[str]:
    """Failures among kernel launch records: a wrong result or
    simulated cycles that differ from the pinned values."""
    failures = []
    for rec in records:
        where = f"{rec['program']}[{rec['variant']}]"
        if not rec["correct"]:
            failures.append(f"{where}: wrong result")
        pinned = pins.get(rec["program"], {}).get(str(rec["variant"]))
        if pinned != rec["values"]:
            failures.append(f"{where}: cycles {rec['values']} != "
                            f"pinned {pinned}")
    return failures
