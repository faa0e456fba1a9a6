"""Tests for the EngineStats instrumentation object."""

from repro.engine import EngineStats


class TestCounters:
    def test_count_and_read(self):
        stats = EngineStats()
        assert stats.counter("x") == 0
        stats.count("x")
        stats.count("x", 4)
        assert stats.counter("x") == 5

    def test_hit_miss_convention(self):
        stats = EngineStats()
        stats.miss("enumerate")
        stats.hit("enumerate")
        stats.hit("enumerate")
        assert stats.hits("enumerate") == 2
        assert stats.misses("enumerate") == 1
        assert stats.counter("enumerate.hit") == 2


class TestTimers:
    def test_timer_accumulates(self):
        stats = EngineStats()
        with stats.timer("work"):
            pass
        first = stats.timers["work"]
        assert first >= 0.0
        with stats.timer("work"):
            pass
        assert stats.timers["work"] >= first

    def test_timer_records_on_exception(self):
        stats = EngineStats()
        try:
            with stats.timer("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in stats.timers


class TestReporting:
    def test_merge(self):
        a, b = EngineStats(), EngineStats()
        a.count("x", 2)
        b.count("x", 3)
        b.count("y")
        b.add_time("t", 1.5)
        a.merge(b)
        assert a.counter("x") == 5
        assert a.counter("y") == 1
        assert a.timers["t"] == 1.5

    def test_snapshot_is_plain_and_sorted(self):
        stats = EngineStats()
        stats.count("b")
        stats.count("a")
        stats.add_time("t", 0.25)
        snap = stats.snapshot()
        assert snap == {
            "counters": {"a": 1, "b": 1},
            "timers": {"t": 0.25},
            "origin": stats.origin,
        }
        assert list(snap["counters"]) == ["a", "b"]

    def test_from_snapshot_roundtrip(self):
        stats = EngineStats()
        stats.count("parallel.jobs", 3)
        stats.count("justify.calls", 7)
        stats.add_time("session", 1.25)
        rebuilt = EngineStats.from_snapshot(stats.snapshot())
        assert rebuilt.snapshot() == stats.snapshot()
        assert rebuilt.origin == stats.origin
        # the rebuilt object is live, not a frozen view
        rebuilt.count("parallel.jobs")
        assert rebuilt.counter("parallel.jobs") == 4

    def test_from_snapshot_ignores_retired_maxima(self):
        # Checkpoints and journals written by older versions carry a
        # ``maxima`` section; it must load (and be dropped) cleanly.
        rebuilt = EngineStats.from_snapshot(
            {
                "counters": {"parallel.jobs": 2},
                "timers": {"generate": 0.5},
                "maxima": {"shard.wall": 1.5},
                "origin": "abc",
            }
        )
        assert rebuilt.counter("parallel.jobs") == 2
        assert rebuilt.timers == {"generate": 0.5}
        assert "maxima" not in rebuilt.snapshot()
        assert "maxima" not in rebuilt.format()

    def test_from_snapshot_empty(self):
        rebuilt = EngineStats.from_snapshot({})
        snap = rebuilt.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert "maxima" not in snap

    def test_format_empty(self):
        assert "no activity" in EngineStats().format()

    def test_format_lists_counters_and_timers(self):
        stats = EngineStats()
        stats.count("enumerate.miss")
        stats.add_time("enumerate", 0.5)
        text = stats.format()
        assert "enumerate.miss" in text
        assert "timers (s):" in text


class TestMergeIdempotency:
    """Regression: folding worker snapshots must never double-count.

    The parallel runner folds every worker result's stats into the parent
    engine; a seam that re-folds a snapshot (e.g. on retry bookkeeping or
    a checkpoint reload) must be a no-op for counters and timers alike.
    """

    @staticmethod
    def _worker(n):
        worker = EngineStats()
        worker.count("justify.calls", 10 * n)
        worker.add_time("generate", 0.5 * n)
        return worker

    def test_refolding_workers_is_idempotent(self):
        parent = EngineStats()
        workers = [self._worker(n) for n in (1, 2, 3)]
        for worker in workers:
            parent.merge(worker)
        reference = parent.snapshot()
        for worker in workers:  # second fold of the same objects
            parent.merge(worker)
        assert parent.snapshot() == reference
        assert parent.counter("justify.calls") == 60

    def test_refolding_snapshot_roundtrips_is_idempotent(self):
        parent = EngineStats()
        workers = [self._worker(n) for n in (1, 2)]
        for worker in workers:
            parent.merge(EngineStats.from_snapshot(worker.snapshot()))
        reference = parent.snapshot()
        for worker in workers:  # snapshots carry the origin token
            parent.merge(EngineStats.from_snapshot(worker.snapshot()))
        assert parent.snapshot() == reference

    def test_merging_the_merged_snapshot_back_is_noop(self):
        parent = EngineStats()
        for worker in (self._worker(1), self._worker(2)):
            parent.merge(worker)
        reference = parent.snapshot()
        parent.merge(EngineStats.from_snapshot(parent.snapshot()))
        assert parent.snapshot() == reference

    def test_self_merge_is_noop(self):
        stats = EngineStats()
        stats.count("x", 2)
        stats.merge(stats)
        assert stats.counter("x") == 2

    def test_transitively_merged_origins_are_deduplicated(self):
        # parent <- mid <- leaf, then parent <- leaf directly: the leaf's
        # events must land exactly once.
        leaf = self._worker(1)
        mid = EngineStats()
        mid.merge(leaf)
        parent = EngineStats()
        parent.merge(mid)
        parent.merge(leaf)
        assert parent.counter("justify.calls") == 10

    def test_distinct_objects_still_accumulate(self):
        parent = EngineStats()
        parent.merge(self._worker(1))
        parent.merge(self._worker(1))  # same shape, different origin
        assert parent.counter("justify.calls") == 20
