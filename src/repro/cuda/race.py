"""Data-race detection for CUDA kernels.

Two hazard classes, matching the CUDA memory model:

* **Intra-block** — conflicting accesses from different threads of one
  block are ordered only by ``__syncthreads()``; within one barrier epoch,
  a plain write conflicting with another thread's access is a race
  (unless both are atomic).
* **Cross-block** — blocks of one launch cannot synchronize with each
  other at all, so *any* conflicting pair from different blocks is a
  race regardless of barriers (unless both are atomic).

Enabled with ``Cuda(device, detect_races=True)``; shared-memory accesses
use per-block epochs, global-memory accesses additionally check the
cross-block rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DataRaceError


@dataclass(frozen=True)
class GpuAccess:
    """One recorded access.

    Attributes:
        block: Block index.
        thread: Thread index within the block.
        is_write: Store or read-modify-write.
        is_atomic: Performed atomically.
        epoch: The block's barrier epoch at access time.
    """

    block: int
    thread: int
    is_write: bool
    is_atomic: bool
    epoch: int


@dataclass(frozen=True)
class GpuRaceReport:
    """One detected race on ``var[idx]``."""

    var: str
    idx: int
    first: GpuAccess
    second: GpuAccess
    kind: str  # "intra-block" or "cross-block"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.kind} race on {self.var}[{self.idx}]: "
                f"block {self.first.block} thread {self.first.thread} "
                f"{'write' if self.first.is_write else 'read'} vs "
                f"block {self.second.block} thread {self.second.thread} "
                f"{'write' if self.second.is_write else 'read'}")


def _conflicts(a: GpuAccess, b: GpuAccess) -> bool:
    if not (a.is_write or b.is_write):
        return False
    if a.is_atomic and b.is_atomic:
        return False
    return True


@dataclass
class GpuRaceDetector:
    """Launch-wide race detector.

    Attributes:
        raise_on_race: Raise :class:`DataRaceError` at the first race
            (default); otherwise collect into :attr:`races`.
    """

    raise_on_race: bool = True
    races: list[GpuRaceReport] = field(default_factory=list)
    _global: dict[tuple[str, int], list[GpuAccess]] = \
        field(default_factory=dict)
    _shared: dict[tuple[int, str, int], list[GpuAccess]] = \
        field(default_factory=dict)

    def record_global(self, var: str, idx: int, access: GpuAccess) -> None:
        """Record a global-memory access and check both hazard classes."""
        history = self._global.setdefault((var, idx), [])
        for prev in history:
            if prev.block != access.block:
                if _conflicts(prev, access):
                    self._report(var, idx, prev, access, "cross-block")
                    break
            elif prev.thread != access.thread and \
                    prev.epoch == access.epoch:
                if _conflicts(prev, access):
                    self._report(var, idx, prev, access, "intra-block")
                    break
        if access not in history:  # dedup keeps histories bounded
            history.append(access)

    def record_shared(self, block: int, var: str, idx: int,
                      access: GpuAccess) -> None:
        """Record a shared-memory access (block-local epochs apply)."""
        history = self._shared.setdefault((block, var, idx), [])
        for prev in history:
            if prev.thread != access.thread and \
                    prev.epoch == access.epoch and \
                    _conflicts(prev, access):
                self._report(var, idx, prev, access, "intra-block")
                break
        if access not in history:
            history.append(access)

    def _report(self, var: str, idx: int, first: GpuAccess,
                second: GpuAccess, kind: str) -> None:
        report = GpuRaceReport(var=var, idx=idx, first=first,
                               second=second, kind=kind)
        if self.raise_on_race:
            raise DataRaceError(str(report))
        self.races.append(report)
