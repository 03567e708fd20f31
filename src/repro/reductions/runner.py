"""Run and compare the Listing 1 reductions on a simulated GPU."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cuda.interpreter import Cuda, LaunchResult
from repro.gpu.device import GpuDevice
from repro.gpu.spec import LaunchConfig
from repro.reductions.kernels import INT_MIN, REDUCTION_NAMES, make_reduction


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of running one reduction implementation.

    Attributes:
        name: Which reduction ran.
        value: The computed maximum.
        correct: Whether it matches numpy's ``max`` of the input.
        elapsed_cycles: Modeled kernel runtime.
        launch: Grid/block configuration used.
        stats: Operation counts from the interpreter.
    """

    name: str
    value: int
    correct: bool
    elapsed_cycles: float
    launch: LaunchConfig
    stats: object

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name}: max={self.value} "
                f"({'ok' if self.correct else 'WRONG'}), "
                f"{self.elapsed_cycles:.0f} cycles")


def _launch_for(name: str, device: GpuDevice, size: int,
                block_threads: int) -> LaunchConfig:
    """Grid sizing: one thread per element for Reductions 1-4; a persistent
    grid (two blocks per SM, capped by the data) for Reduction 5."""
    if name == "reduction5":
        persistent = 2 * device.spec.sm_count
        needed = -(-size // block_threads)
        return LaunchConfig(max(1, min(persistent, needed)), block_threads)
    return LaunchConfig(-(-size // block_threads), block_threads)


def run_reduction(name: str, device: GpuDevice, data: np.ndarray,
                  block_threads: int = 256) -> ReductionOutcome:
    """Execute one reduction over ``data`` and model its runtime.

    Args:
        name: "reduction1" .. "reduction5".
        device: Simulated GPU.
        data: 1-D int32 array to reduce.
        block_threads: Threads per block.

    Raises:
        ConfigurationError: empty data or a non-integer array.
    """
    if data.size == 0:
        raise ConfigurationError("cannot reduce an empty array")
    if data.dtype != np.int32:
        raise ConfigurationError(
            f"Listing 1 reduces int data; got {data.dtype}")
    size = int(data.size)
    launch = _launch_for(name, device, size, block_threads)
    kernel = make_reduction(name, size)
    result = np.full(1, INT_MIN, dtype=np.int32)
    cuda = Cuda(device)
    out: LaunchResult = cuda.launch(
        kernel, launch,
        globals_={"data": data, "result": result},
        shared_decls={"block_result": (1, np.dtype(np.int32))},
    )
    value = int(result[0])
    return ReductionOutcome(
        name=name,
        value=value,
        correct=value == int(data.max()),
        elapsed_cycles=out.elapsed_cycles,
        launch=launch,
        stats=out.stats,
    )


def compare_reductions(device: GpuDevice, data: np.ndarray,
                       block_threads: int = 256,
                       names: tuple[str, ...] = REDUCTION_NAMES
                       ) -> dict[str, ReductionOutcome]:
    """Run every requested reduction on the same input.

    Returns:
        name -> outcome, in the order requested.
    """
    return {name: run_reduction(name, device, data, block_threads)
            for name in names}
