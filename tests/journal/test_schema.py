"""Schema, entry builders, and write -> read -> report round-trips."""

import json

import pytest

from repro.engine import EngineStats
from repro.experiments.results import (
    CircuitBasicResult,
    ExperimentResults,
    HeuristicOutcome,
    Table1Result,
    Table2Result,
    Table6Row,
)
from repro.journal import (
    SCHEMA_VERSION,
    SERVICE_EVENTS,
    JournalSchemaError,
    append_entry,
    encode_entry,
    read_journal,
    report_rows,
    service_entry,
    tables_entry,
    validate_entry,
)

# This repo collects ``bench_*`` functions as pytest-benchmark tests, so
# the builder must not be bound under its own name at module scope.
from repro.journal import bench_entry as make_bench_entry


def minimal_entry(**overrides) -> dict:
    entry = {
        "v": SCHEMA_VERSION,
        "kind": "bench",
        "ts": "2026-08-07T00:00:00+00:00",
        "sha": "a" * 40,
        "machine": {"python": "3.11.7", "platform": "Linux-test"},
        "metrics": {"tables_s27": 0.25},
    }
    entry.update(overrides)
    return entry


def sample_results() -> ExperimentResults:
    return ExperimentResults(
        scale="smoke",
        table1=Table1Result(
            circuit="s27",
            cap_paths=20,
            kept_paths=[("a", "b")],
            kept_lengths=[2],
            pruned_complete=1,
            min_length=2,
            max_length=2,
        ),
        table2=Table2Result(circuit="s1423_proxy", rows=[(0, 5, 4)]),
        basic={
            "s27": CircuitBasicResult(
                circuit="s27",
                i0=2,
                p0_total=10,
                p01_total=20,
                outcomes={
                    "values": HeuristicOutcome(
                        detected_p0=8,
                        tests=5,
                        detected_p01=12,
                        runtime_seconds=1.25,
                    ),
                    "uncomp": HeuristicOutcome(
                        detected_p0=7,
                        tests=9,
                        detected_p01=11,
                        runtime_seconds=2.5,
                        aborted=1,
                    ),
                },
            )
        },
        table6=[
            Table6Row(
                circuit="s27",
                i0=2,
                p0_total=10,
                p0_detected=9,
                p01_total=20,
                p01_detected=15,
                tests=6,
                runtime_seconds=3.75,
                aborted=2,
            )
        ],
    )


class TestValidateEntry:
    def test_minimal_entry_is_valid(self):
        assert validate_entry(minimal_entry()) == []

    def test_non_dict_rejected(self):
        assert validate_entry([1, 2]) != []

    @pytest.mark.parametrize("key", ["v", "kind", "ts", "sha", "machine", "metrics"])
    def test_each_required_key(self, key):
        entry = minimal_entry()
        del entry[key]
        assert validate_entry(entry) != []

    def test_unknown_kind_rejected(self):
        assert validate_entry(minimal_entry(kind="vibes")) != []

    def test_future_schema_version_rejected(self):
        assert validate_entry(minimal_entry(v=SCHEMA_VERSION + 1)) != []

    def test_non_numeric_metric_rejected(self):
        assert validate_entry(minimal_entry(metrics={"a": "fast"})) != []
        assert validate_entry(minimal_entry(metrics={"a": True})) != []

    def test_machine_needs_python_and_platform(self):
        assert validate_entry(minimal_entry(machine={"python": "3.11"})) != []

    def test_encode_rejects_invalid(self):
        with pytest.raises(JournalSchemaError):
            encode_entry(minimal_entry(kind="nope"))


class TestBuilders:
    def test_tables_entry_collects_runtime_series(self):
        stats = EngineStats()
        stats.hit("cone")
        stats.miss("cone")
        stats.count("budget.aborted", 3)
        stats.count("parallel.jobs", 2)
        stats.add_time("generate", 1.5)
        entry = tables_entry(
            sample_results(),
            stats,
            wall_seconds=9.5,
            config={"jobs": 2},
            jobs=[{"key": "s27", "kind": "circuit", "wall_seconds": 4.0}],
            sha="b" * 40,
            ts="2026-08-07T00:00:00+00:00",
        )
        assert validate_entry(entry) == []
        assert entry["kind"] == "tables"
        assert entry["metrics"]["tables.wall_seconds"] == 9.5
        assert entry["metrics"]["s27.values.seconds"] == 1.25
        assert entry["metrics"]["s27.uncomp.seconds"] == 2.5
        assert entry["metrics"]["s27.enrich.seconds"] == 3.75
        assert entry["counters"]["aborted.basic"] == 1
        assert entry["counters"]["aborted.enrich"] == 2
        assert entry["counters"]["budget.aborted"] == 3
        assert entry["counters"]["parallel.jobs"] == 2
        assert entry["caches"]["cone"] == {"hit": 1, "miss": 1, "rate": 0.5}
        assert entry["phases"]["generate"] == 1.5
        assert entry["jobs"][0]["key"] == "s27"
        assert entry["config"]["scale"] == "smoke"
        assert entry["config"]["jobs"] == 2

    def test_tables_entry_leaves_inputs_untouched(self):
        """Journaling must never perturb the experiment output."""
        results = sample_results()
        stats = EngineStats()
        before = results.canonical_json()
        counters_before = dict(stats.counters)
        tables_entry(results, stats, wall_seconds=1.0, sha="c" * 40)
        assert results.canonical_json() == before
        assert dict(stats.counters) == counters_before

    def test_bench_entry_uses_payload_results_and_meta(self):
        payload = {
            "meta": {"python": "3.9.1", "platform": "Linux-old"},
            "results": {"tables_s27": 0.4, "justify_cone": 0.7},
        }
        entry = make_bench_entry(payload, sha="d" * 40, config={"repeats": 6})
        assert validate_entry(entry) == []
        assert entry["metrics"] == {"tables_s27": 0.4, "justify_cone": 0.7}
        assert entry["machine"]["python"] == "3.9.1"
        assert entry["config"]["repeats"] == 6

    def test_entry_defaults_fill_sha_ts_machine(self):
        entry = make_bench_entry({"results": {"x": 1.0}})
        assert validate_entry(entry) == []
        assert entry["sha"]
        assert entry["ts"]
        assert "cpus" in entry["machine"]

    def test_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_SHA", "cafe" * 10)
        entry = make_bench_entry({"results": {"x": 1.0}})
        assert entry["sha"] == "cafe" * 10

    def test_explicit_sha_still_records_real_dirtiness(self, monkeypatch):
        # Passing a sha pins *which commit* was measured; it must not
        # also claim the tree was clean when it was not.
        monkeypatch.setattr("repro.journal.schema.git_dirty", lambda cwd=None: True)
        entry = make_bench_entry({"results": {"x": 1.0}}, sha="e" * 40)
        assert entry["dirty"] is True

    def test_sha_env_override_on_dirty_tree_is_dirty(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_SHA", "cafe" * 10)
        monkeypatch.setattr("repro.journal.schema.git_dirty", lambda cwd=None: True)
        entry = make_bench_entry({"results": {"x": 1.0}})
        assert entry["sha"] == "cafe" * 10
        assert entry["dirty"] is True

    def test_explicit_dirty_wins_over_probe(self, monkeypatch):
        monkeypatch.setattr("repro.journal.schema.git_dirty", lambda cwd=None: True)
        entry = make_bench_entry({"results": {"x": 1.0}}, sha="e" * 40, dirty=False)
        assert entry["dirty"] is False

    def test_backend_counters_are_journaled(self):
        stats = EngineStats()
        stats.count("backend.packed.runs", 7)
        entry = tables_entry(sample_results(), stats, wall_seconds=1.0, sha="f" * 40)
        assert entry["counters"]["backend.packed.runs"] == 7

    def test_implication_counters_are_journaled(self):
        stats = EngineStats()
        stats.count("implication.runs", 3)
        stats.count("implication.columns", 3 * 1024)
        entry = tables_entry(sample_results(), stats, wall_seconds=1.0, sha="f" * 40)
        assert entry["counters"]["implication.runs"] == 3
        assert entry["counters"]["implication.columns"] == 3 * 1024


class TestServiceEntries:
    """Schema v2: job-lifecycle events from the ``repro serve`` daemon."""

    def test_builder_produces_valid_entry(self):
        entry = service_entry(
            "done",
            "job-1",
            metrics={"service.wall_seconds": 2.5},
            detail={"attempts": 1},
            sha="a" * 40,
            ts="2026-08-07T00:00:00+00:00",
        )
        assert validate_entry(entry) == []
        assert entry["v"] == SCHEMA_VERSION
        assert entry["kind"] == "service"
        assert entry["event"] == "done"
        assert entry["job"] == "job-1"
        assert entry["metrics"] == {"service.wall_seconds": 2.5}
        assert entry["detail"] == {"attempts": 1}

    def test_metrics_default_to_empty(self):
        # Lifecycle chatter must not become trajectory trend points.
        entry = service_entry("leased", "job-1", sha="a" * 40)
        assert entry["metrics"] == {}
        assert validate_entry(entry) == []

    @pytest.mark.parametrize("event", SERVICE_EVENTS)
    def test_every_lifecycle_event_accepted(self, event):
        assert validate_entry(service_entry(event, "job-1", sha="a" * 40)) == []

    def test_builder_rejects_unknown_event(self):
        with pytest.raises(ValueError):
            service_entry("vibing", "job-1")

    def test_validate_rejects_unknown_event(self):
        entry = service_entry("done", "job-1", sha="a" * 40)
        entry["event"] = "vibing"
        assert validate_entry(entry) != []

    def test_validate_requires_job_id(self):
        entry = service_entry("done", "job-1", sha="a" * 40)
        del entry["job"]
        assert validate_entry(entry) != []
        entry["job"] = ""
        assert validate_entry(entry) != []

    def test_non_service_kinds_skip_service_checks(self):
        # A bench entry without event/job stays valid: the new required
        # keys are scoped to kind == "service".
        assert validate_entry(minimal_entry()) == []


class TestMixedVersionJournals:
    """Tolerant reader: a journal written across schema versions keeps
    working -- v1 tables/bench lines stay valid next to v2 service
    lines, and only entries *newer* than the library are rejected."""

    def test_v1_entries_remain_valid(self):
        assert validate_entry(minimal_entry(v=1)) == []

    def test_mixed_journal_reads_clean(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        v1 = minimal_entry(v=1, sha="1" * 40, metrics={"tables_s27": 0.4})
        v2 = minimal_entry(sha="2" * 40, metrics={"tables_s27": 0.3})
        lifecycle = service_entry(
            "done",
            "job-1",
            metrics={"service.wall_seconds": 1.0},
            sha="3" * 40,
            ts="2026-08-07T00:00:00+00:00",
        )
        for entry in (v1, v2, lifecycle):
            append_entry(journal, entry)
        read = read_journal(journal)
        assert read.problems == []
        assert [e.get("v") for e in read.entries] == [1, 2, 2]

    def test_report_spans_versions(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        append_entry(
            journal, minimal_entry(v=1, sha="1" * 40, metrics={"tables_s27": 0.4})
        )
        append_entry(
            journal, minimal_entry(sha="2" * 40, metrics={"tables_s27": 0.2})
        )
        headers, rows = report_rows(read_journal(journal).entries)
        assert headers == ["metric", "1111111", "2222222"]
        assert rows == [["tables_s27", "0.4", "0.2"]]

    def test_future_version_flagged_not_fatal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        append_entry(journal, minimal_entry())
        with journal.open("a") as handle:
            handle.write(json.dumps(minimal_entry(v=SCHEMA_VERSION + 1)) + "\n")
        read = read_journal(journal)
        assert len(read.entries) == 1  # the good line still parses
        assert read.problems != []


class TestRoundTrip:
    def test_write_read_report(self, tmp_path):
        """The acceptance loop: write -> read -> report rows."""
        journal = tmp_path / "journal.jsonl"
        first = minimal_entry(sha="1" * 40, metrics={"tables_s27": 0.4})
        second = minimal_entry(sha="2" * 40, metrics={"tables_s27": 0.2})
        append_entry(journal, first)
        append_entry(journal, second)
        read = read_journal(journal)
        assert read.problems == []
        assert read.entries == [first, second]
        headers, rows = report_rows(read.entries)
        assert headers == ["metric", "1111111", "2222222"]
        assert rows == [["tables_s27", "0.4", "0.2"]]

    def test_lines_are_canonical_json(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        append_entry(journal, minimal_entry())
        line = journal.read_text().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))

    def test_append_never_rewrites(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        append_entry(journal, minimal_entry(sha="1" * 40))
        before = journal.read_text()
        append_entry(journal, minimal_entry(sha="2" * 40))
        assert journal.read_text().startswith(before)

    def test_append_creates_parent_dirs(self, tmp_path):
        journal = tmp_path / "deep" / "nest" / "journal.jsonl"
        append_entry(journal, minimal_entry())
        assert journal.exists()
