"""Unit tests for repro.openmp.race."""

import random

import pytest

from repro.common.errors import DataRaceError
from repro.openmp.race import AccessKind, RaceDetector, RaceReport, _conflicts


class TestConflictMatrix:
    def detector(self):
        return RaceDetector(raise_on_race=False)

    def test_two_reads_fine(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_READ)
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert not d.races

    def test_plain_write_vs_plain_read_races(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert len(d.races) == 1

    def test_two_atomic_writes_fine(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.ATOMIC_WRITE)
        d.record(1, "x", 0, AccessKind.ATOMIC_WRITE)
        assert not d.races

    def test_atomic_vs_plain_write_races(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.ATOMIC_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_WRITE)
        assert len(d.races) == 1

    def test_two_locked_accesses_fine(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.LOCKED_WRITE)
        d.record(1, "x", 0, AccessKind.LOCKED_WRITE)
        assert not d.races

    def test_locked_vs_plain_write_races(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.LOCKED_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert len(d.races) == 1

    def test_same_thread_never_races_with_itself(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(0, "x", 0, AccessKind.PLAIN_READ)
        assert not d.races

    def test_different_locations_independent(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 1, AccessKind.PLAIN_WRITE)
        d.record(1, "y", 0, AccessKind.PLAIN_WRITE)
        assert not d.races


class TestEpochs:
    def test_barrier_separates_accesses(self):
        d = RaceDetector(raise_on_race=False)
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.barrier()
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert not d.races

    def test_epoch_counter_increments(self):
        d = RaceDetector()
        assert d.epoch == 0
        d.barrier()
        d.barrier()
        assert d.epoch == 2

    def test_race_report_carries_epoch(self):
        d = RaceDetector(raise_on_race=False)
        d.barrier()
        d.record(0, "x", 3, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 3, AccessKind.PLAIN_WRITE)
        report = d.races[0]
        assert report.epoch == 1
        assert report.var == "x"
        assert report.idx == 3


class TestRaising:
    def test_raises_by_default(self):
        d = RaceDetector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        with pytest.raises(DataRaceError, match="data race on x"):
            d.record(1, "x", 0, AccessKind.PLAIN_WRITE)

    def test_collect_mode_does_not_raise(self):
        d = RaceDetector(raise_on_race=False)
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(2, "x", 0, AccessKind.PLAIN_WRITE)
        assert len(d.races) >= 1


class _HistoryWalkDetector:
    """The detector as first written: a linear walk of each location's
    epoch history on every access.  The oracle for the summary-indexed
    :class:`RaceDetector`."""

    def __init__(self, raise_on_race):
        self.raise_on_race = raise_on_race
        self.races = []
        self.epoch = 0
        self.accesses = {}

    def record(self, tid, var, idx, kind):
        history = self.accesses.setdefault((var, idx), [])
        for prev_tid, prev_kind in history:
            if prev_tid != tid and _conflicts(prev_kind, kind):
                report = RaceReport(var=var, idx=idx,
                                    first=(prev_tid, prev_kind),
                                    second=(tid, kind), epoch=self.epoch)
                if self.raise_on_race:
                    raise DataRaceError(str(report))
                self.races.append(report)
                break
        if (tid, kind) not in history:
            history.append((tid, kind))

    def barrier(self):
        self.epoch += 1
        self.accesses.clear()


def _replay(detector, stream):
    """Feed a call stream; returns the raised message (or None) and the
    index of the call that raised."""
    for at, call in enumerate(stream):
        try:
            if call is None:
                detector.barrier()
            else:
                detector.record(*call)
        except DataRaceError as exc:
            return str(exc), at
    return None, len(stream)


#: Kind families that never race among themselves.
_SAFE_FAMILIES = (
    (AccessKind.ATOMIC_READ, AccessKind.ATOMIC_WRITE),
    (AccessKind.LOCKED_READ, AccessKind.LOCKED_WRITE),
    (AccessKind.PLAIN_READ, AccessKind.ATOMIC_READ, AccessKind.LOCKED_READ),
)


def _random_stream(rng):
    """2-8 threads, two variables of three elements, all six kinds, and
    occasional barriers.  Each stream draws most kinds from one safe
    family and the rest from all six, so that racy and race-free
    streams are both common."""
    n_threads = rng.randint(2, 8)
    family = rng.choice(_SAFE_FAMILIES)
    p_any = rng.random() * 0.3
    stream = []
    for _ in range(rng.randint(1, 40)):
        if rng.random() < 0.08:
            stream.append(None)
            continue
        kinds = list(AccessKind) if rng.random() < p_any else family
        stream.append((rng.randrange(n_threads), rng.choice("xy"),
                       rng.randrange(3), rng.choice(kinds)))
    return stream


class TestSummaryMatchesHistoryWalk:
    """Random record/barrier streams: the summary-indexed detector must
    report exactly what the history walk reports, in both modes."""

    N_STREAMS = 400

    def test_collect_mode_reports_identical(self):
        rng = random.Random(16)
        racy = 0
        for n in range(self.N_STREAMS):
            stream = _random_stream(rng)
            new = RaceDetector(raise_on_race=False)
            old = _HistoryWalkDetector(raise_on_race=False)
            _replay(new, stream)
            _replay(old, stream)
            assert new.races == old.races, f"stream {n}: {stream}"
            assert new.epoch == old.epoch
            racy += bool(old.races)
        # Both outcomes are exercised.
        assert self.N_STREAMS // 4 < racy < self.N_STREAMS * 3 // 4

    def test_raise_mode_messages_identical(self):
        rng = random.Random(61)
        raised = 0
        for n in range(self.N_STREAMS):
            stream = _random_stream(rng)
            new = _replay(RaceDetector(), stream)
            old = _replay(_HistoryWalkDetector(raise_on_race=True), stream)
            assert new == old, f"stream {n}: {stream}"
            raised += new[0] is not None
        assert self.N_STREAMS // 4 < raised < self.N_STREAMS * 3 // 4
