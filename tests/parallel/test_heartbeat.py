"""Heartbeat writer and watchdog classification."""

import os
import time

import pytest

from repro.parallel.heartbeat import (
    HeartbeatWriter,
    Watchdog,
    heartbeat_path,
)


class TestHeartbeatPath:
    def test_plain_key(self, tmp_path):
        assert heartbeat_path(tmp_path, "s27") == tmp_path / "s27.hb"


class TestHeartbeatWriter:
    def test_first_beat_is_synchronous(self, tmp_path):
        path = tmp_path / "job.hb"
        with HeartbeatWriter(path, interval=60.0):
            assert path.exists()  # no waiting for the thread

    def test_beats_advance_mtime(self, tmp_path):
        path = tmp_path / "job.hb"
        with HeartbeatWriter(path, interval=0.05):
            first = path.stat().st_mtime
            deadline = time.time() + 5.0
            while path.stat().st_mtime <= first:
                assert time.time() < deadline, "no second beat arrived"
                time.sleep(0.02)

    def test_stops_beating_after_exit(self, tmp_path):
        path = tmp_path / "job.hb"
        with HeartbeatWriter(path, interval=0.05):
            pass
        last = path.stat().st_mtime
        time.sleep(0.2)
        assert path.stat().st_mtime == last

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatWriter(tmp_path / "x.hb", interval=0)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "job.hb"
        HeartbeatWriter(path).beat()
        assert path.exists()


class TestWatchdog:
    def test_never_started_is_not_stuck(self, tmp_path):
        dog = Watchdog(tmp_path, stale_after=0.1)
        assert dog.age("ghost", time.time()) is None
        assert not dog.is_stuck("ghost", time.time())

    def test_fresh_beat_is_alive(self, tmp_path):
        HeartbeatWriter(heartbeat_path(tmp_path, "s27")).beat()
        dog = Watchdog(tmp_path, stale_after=30.0)
        assert not dog.is_stuck("s27", time.time())

    def test_silent_beat_is_stuck(self, tmp_path):
        path = heartbeat_path(tmp_path, "s27")
        HeartbeatWriter(path).beat()
        old = time.time() - 100.0
        os.utime(path, (old, old))
        dog = Watchdog(tmp_path, stale_after=30.0)
        assert dog.is_stuck("s27", time.time())

    def test_classify_splits_three_ways(self, tmp_path):
        stale = heartbeat_path(tmp_path, "stuck#0")
        HeartbeatWriter(stale).beat()
        old = time.time() - 100.0
        os.utime(stale, (old, old))
        HeartbeatWriter(heartbeat_path(tmp_path, "alive")).beat()
        dog = Watchdog(tmp_path, stale_after=30.0)
        alive, stuck = dog.classify(["alive", "stuck#0", "unstarted"], time.time())
        assert alive == ["alive", "unstarted"]
        assert stuck == ["stuck#0"]

    def test_rejects_nonpositive_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            Watchdog(tmp_path, stale_after=0)
