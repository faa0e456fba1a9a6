"""Tests for the content-addressed artifact store (repro.artifacts.store).

The store's contract: keys are pure functions of content (netlist
structure + kind + parameter envelope + format version), publishes are
atomic, and *every* malformed input -- truncated zip, zero-byte file,
non-npz garbage, flipped payload bytes, mislabelled envelope -- degrades
to a counted miss, never an error.
"""

import os

import numpy as np
import pytest

from repro.artifacts import (
    PAYLOAD_VERSION,
    ArtifactStore,
    artifact_key,
    netlist_canonical_form,
    netlist_digest,
)
from repro.circuit.transform import pdf_ready
from repro.engine import EngineStats

DIGEST = "0" * 32
PARAMS = {"max_faults": 100, "use_distances": True}


def sample_arrays():
    return {
        "nodes": np.array([1, 2, 3, 5, 8], dtype=np.int32),
        "lengths": np.array([2, 3], dtype=np.int32),
    }


def seeded(tmp_path, stats=None):
    store = ArtifactStore(tmp_path / "cache", stats=stats)
    path = store.publish(
        DIGEST, "enumeration", PARAMS, sample_arrays(), {"cap_hit": False}
    )
    return store, path


class TestKeys:
    def test_canonical_form_excludes_display_name(self, s27):
        from repro.circuit.transform import renamed

        netlist = pdf_ready(s27)
        copy = renamed(netlist, "a_different_display_name")
        assert copy.name != netlist.name
        assert netlist_canonical_form(copy) == netlist_canonical_form(netlist)
        assert netlist_digest(copy) == netlist_digest(netlist)

    def test_digest_separates_structures(self, s27, c17):
        assert netlist_digest(pdf_ready(s27)) != netlist_digest(pdf_ready(c17))

    def test_key_covers_every_envelope_field(self):
        base = artifact_key(DIGEST, "enumeration", PARAMS)
        assert artifact_key("1" * 32, "enumeration", PARAMS) != base
        assert artifact_key(DIGEST, "target_sets", PARAMS) != base
        assert artifact_key(DIGEST, "enumeration", {**PARAMS, "max_faults": 99}) != base

    def test_key_ignores_param_ordering(self):
        shuffled = dict(reversed(list(PARAMS.items())))
        assert artifact_key(DIGEST, "enumeration", shuffled) == artifact_key(
            DIGEST, "enumeration", PARAMS
        )


class TestPublishLoad:
    def test_round_trip(self, tmp_path):
        stats = EngineStats()
        store, _ = seeded(tmp_path, stats=stats)
        found = store.load(DIGEST, "enumeration", PARAMS)
        assert found is not None
        payload, arrays = found
        assert payload == {"cap_hit": False}
        for name, expected in sample_arrays().items():
            assert arrays[name].dtype == expected.dtype
            assert np.array_equal(arrays[name], expected)
        assert stats.counter("artifact.write") == 1
        assert stats.counter("artifact.hit") == 1
        assert stats.counter("artifact.corrupt") == 0

    def test_absent_is_silent_miss(self, tmp_path):
        stats = EngineStats()
        store = ArtifactStore(tmp_path / "cache")
        assert store.load(DIGEST, "enumeration", PARAMS, stats=stats) is None
        assert stats.counter("artifact.miss") == 1
        assert stats.counter("artifact.corrupt") == 0

    def test_different_params_do_not_alias(self, tmp_path):
        store, _ = seeded(tmp_path)
        assert store.load(DIGEST, "enumeration", {**PARAMS, "max_faults": 7}) is None

    def test_publish_leaves_no_temp_files(self, tmp_path):
        store, path = seeded(tmp_path)
        assert [p.name for p in store.directory.iterdir()] == [path.name]

    def test_republish_last_write_wins(self, tmp_path):
        store, path = seeded(tmp_path)
        again = store.publish(
            DIGEST, "enumeration", PARAMS, sample_arrays(), {"cap_hit": True}
        )
        assert again == path
        payload, _ = store.load(DIGEST, "enumeration", PARAMS)
        assert payload == {"cap_hit": True}

    def test_per_call_stats_override_default_sink(self, tmp_path):
        default = EngineStats()
        mine = EngineStats()
        store, _ = seeded(tmp_path, stats=default)
        store.load(DIGEST, "enumeration", PARAMS, stats=mine)
        assert mine.counter("artifact.hit") == 1
        assert default.counter("artifact.hit") == 0


def corrupt_truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def corrupt_zero_byte(path):
    path.write_bytes(b"")


def corrupt_garbage(path):
    path.write_bytes(b"this is not a zip archive at all")


def corrupt_flipped_payload(path):
    # Re-save with one array perturbed but the stored digest untouched:
    # the zip decodes fine, the integrity check must catch it.
    import io
    import json

    with np.load(path, allow_pickle=False) as data:
        meta = data["__meta__"]
        arrays = {name: data[name] for name in data.files if name != "__meta__"}
    arrays["nodes"] = arrays["nodes"] + 1
    buffer = io.BytesIO()
    np.savez(buffer, __meta__=meta, **arrays)
    path.write_bytes(buffer.getvalue())
    # Sanity: the tampered file still decodes as JSON-carrying npz.
    json.loads(bytes(meta).decode())


CORRUPTIONS = {
    "truncated": corrupt_truncated,
    "zero_byte": corrupt_zero_byte,
    "garbage": corrupt_garbage,
    "digest_mismatch": corrupt_flipped_payload,
}


class TestCorruption:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_counts_corrupt_miss_then_recovers(self, tmp_path, name):
        stats = EngineStats()
        store, path = seeded(tmp_path, stats=stats)
        CORRUPTIONS[name](path)
        assert store.load(DIGEST, "enumeration", PARAMS) is None
        assert stats.counter("artifact.miss") == 1
        assert stats.counter("artifact.corrupt") == 1
        # The caller's recompute + republish fully recovers the entry.
        store.publish(DIGEST, "enumeration", PARAMS, sample_arrays(), {"cap_hit": False})
        payload, arrays = store.load(DIGEST, "enumeration", PARAMS)
        assert payload == {"cap_hit": False}
        assert np.array_equal(arrays["nodes"], sample_arrays()["nodes"])
        assert stats.counter("artifact.hit") == 1
        assert stats.counter("artifact.corrupt") == 1

    def test_stale_envelope_is_corrupt_miss(self, tmp_path):
        # A valid entry copied under another key's filename decodes fine
        # but its stored envelope disagrees with the request.
        stats = EngineStats()
        store, path = seeded(tmp_path, stats=stats)
        other = {**PARAMS, "max_faults": 7}
        os.replace(path, store.path_for("enumeration", artifact_key(DIGEST, "enumeration", other)))
        assert store.load(DIGEST, "enumeration", other) is None
        assert stats.counter("artifact.miss") == 1
        assert stats.counter("artifact.corrupt") == 1


class TestQuarantine:
    """Self-healing: a corrupt entry is paid for once.  The first load
    that trips over it moves it to ``<store>/quarantine/``; subsequent
    loads see a plain absent-miss, and a republish lands cleanly."""

    def test_corrupt_load_moves_file_to_quarantine(self, tmp_path):
        stats = EngineStats()
        store, path = seeded(tmp_path, stats=stats)
        corrupt_garbage(path)
        assert store.load(DIGEST, "enumeration", PARAMS) is None
        assert not path.exists()
        assert [p.name for p in store.quarantined()] == [path.name]
        assert stats.counter("artifact.quarantined") == 1

    def test_second_load_does_not_recount_corrupt(self, tmp_path):
        stats = EngineStats()
        store, path = seeded(tmp_path, stats=stats)
        corrupt_garbage(path)
        store.load(DIGEST, "enumeration", PARAMS)
        store.load(DIGEST, "enumeration", PARAMS)  # file already parked
        assert stats.counter("artifact.corrupt") == 1
        assert stats.counter("artifact.quarantined") == 1
        assert stats.counter("artifact.miss") == 2

    def test_stale_envelope_also_quarantined(self, tmp_path):
        stats = EngineStats()
        store, path = seeded(tmp_path, stats=stats)
        other = {**PARAMS, "max_faults": 7}
        mislabelled = store.path_for(
            "enumeration", artifact_key(DIGEST, "enumeration", other)
        )
        os.replace(path, mislabelled)
        assert store.load(DIGEST, "enumeration", other) is None
        assert not mislabelled.exists()
        assert stats.counter("artifact.quarantined") == 1

    def test_quarantined_entries_invisible_to_scan_and_gc(self, tmp_path):
        store, path = seeded(tmp_path)
        corrupt_garbage(path)
        store.load(DIGEST, "enumeration", PARAMS)
        assert store.entries() == []
        assert store.total_bytes() == 0
        assert store.gc(max_bytes=0) == []
        assert len(store.quarantined()) == 1  # gc leaves evidence alone

    def test_collisions_keep_both_corruption_events(self, tmp_path):
        store, path = seeded(tmp_path)
        corrupt_garbage(path)
        store.load(DIGEST, "enumeration", PARAMS)
        # Republish, corrupt again: the second event must not overwrite
        # the first file's evidence.
        store.publish(DIGEST, "enumeration", PARAMS, sample_arrays(), {})
        corrupt_truncated(store.path_for("enumeration", artifact_key(DIGEST, "enumeration", PARAMS)))
        store.load(DIGEST, "enumeration", PARAMS)
        names = [p.name for p in store.quarantined()]
        assert len(names) == 2
        assert names[0] == path.name and names[1] == f"{path.name}.1"

    def test_republish_after_quarantine_round_trips(self, tmp_path):
        store, path = seeded(tmp_path)
        corrupt_zero_byte(path)
        store.load(DIGEST, "enumeration", PARAMS)
        store.publish(DIGEST, "enumeration", PARAMS, sample_arrays(), {"cap_hit": False})
        payload, arrays = store.load(DIGEST, "enumeration", PARAMS)
        assert payload == {"cap_hit": False}
        assert np.array_equal(arrays["nodes"], sample_arrays()["nodes"])

    def test_verify_repair_quarantines_and_drains(self, tmp_path):
        stats = EngineStats()
        store, path = seeded(tmp_path)
        victim = store.publish(DIGEST, "target_sets", PARAMS, sample_arrays(), {})
        corrupt_garbage(victim)
        intact, corrupt = store.verify(repair=True, stats=stats)
        assert [e.path for e in intact] == [path]
        assert [e.path for e in corrupt] == [victim]
        assert stats.counter("artifact.quarantined") == 1
        assert store.quarantined() == []  # drained afterwards
        assert not victim.exists()
        # The healthy entry is untouched and the scan is now clean.
        assert store.verify() == ([e for e in store.entries()], [])

    def test_verify_without_repair_leaves_files_in_place(self, tmp_path):
        store, path = seeded(tmp_path)
        corrupt_garbage(path)
        _, corrupt = store.verify()
        assert [e.path for e in corrupt] == [path]
        assert path.exists()
        assert store.quarantined() == []

    def test_drain_quarantine_returns_removed(self, tmp_path):
        store, path = seeded(tmp_path)
        corrupt_garbage(path)
        store.load(DIGEST, "enumeration", PARAMS)
        [parked] = store.quarantined()
        assert store.drain_quarantine() == [parked]
        assert store.quarantined() == []


class TestMaintenance:
    def test_entries_newest_first(self, tmp_path):
        store, first = seeded(tmp_path)
        second = store.publish(DIGEST, "target_sets", PARAMS, sample_arrays(), {})
        os.utime(first, (1_000, 1_000))
        os.utime(second, (2_000, 2_000))
        entries = store.entries()
        assert [e.path for e in entries] == [second, first]
        assert {e.kind for e in entries} == {"enumeration", "target_sets"}
        assert all(e.size > 0 for e in entries)

    def test_read_meta_and_describe(self, tmp_path):
        store, _ = seeded(tmp_path)
        (entry,) = store.entries()
        meta = store.read_meta(entry)
        assert meta["v"] == PAYLOAD_VERSION
        assert meta["params"] == PARAMS
        assert "enumeration" in entry.describe(meta)

    def test_verify_splits_intact_from_corrupt(self, tmp_path):
        store, path = seeded(tmp_path)
        victim = store.publish(DIGEST, "target_sets", PARAMS, sample_arrays(), {})
        corrupt_garbage(victim)
        intact, corrupt = store.verify()
        assert [e.path for e in intact] == [path]
        assert [e.path for e in corrupt] == [victim]

    def test_verify_flags_mislabelled_entry(self, tmp_path):
        store, path = seeded(tmp_path)
        os.replace(path, store.path_for("enumeration", "f" * 32))
        intact, corrupt = store.verify()
        assert not intact and len(corrupt) == 1

    def test_gc_keeps_recently_used(self, tmp_path):
        store, first = seeded(tmp_path)
        second = store.publish(DIGEST, "target_sets", PARAMS, sample_arrays(), {})
        # `first` is older on disk, but a load refreshes its mtime...
        os.utime(first, (1_000, 1_000))
        os.utime(second, (2_000, 2_000))
        store.load(DIGEST, "enumeration", PARAMS)
        assert first.stat().st_mtime > second.stat().st_mtime
        # ... so a one-entry budget evicts `second`: LRU, not FIFO.
        removed = store.gc(max_bytes=first.stat().st_size)
        assert [e.path for e in removed] == [second]
        assert first.exists() and not second.exists()

    def test_gc_zero_budget_clears_store(self, tmp_path):
        store, _ = seeded(tmp_path)
        store.publish(DIGEST, "target_sets", PARAMS, sample_arrays(), {})
        removed = store.gc(max_bytes=0)
        assert len(removed) == 2
        assert store.entries() == [] and store.total_bytes() == 0

    def test_gc_large_budget_is_noop(self, tmp_path):
        store, path = seeded(tmp_path)
        assert store.gc(max_bytes=10 * path.stat().st_size) == []
        assert path.exists()

    def test_gc_rejects_negative_budget(self, tmp_path):
        store, _ = seeded(tmp_path)
        with pytest.raises(ValueError):
            store.gc(max_bytes=-1)

    def test_total_bytes_sums_entries(self, tmp_path):
        store, path = seeded(tmp_path)
        second = store.publish(DIGEST, "target_sets", PARAMS, sample_arrays(), {})
        assert store.total_bytes() == path.stat().st_size + second.stat().st_size
