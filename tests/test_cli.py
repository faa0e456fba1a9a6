"""Tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("circuits", "stats", "enumerate", "atpg", "enrich", "tables"):
            args = parser.parse_args(
                [command] + ([] if command in ("circuits", "tables") else ["s27"])
            )
            assert args.command == command


class TestCommands:
    def test_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "s1423_proxy" in out

    def test_stats_registry(self, capsys):
        assert main(["stats", "s27"]) == 0
        assert "10 gates" in capsys.readouterr().out

    def test_stats_bench_file(self, tmp_path, capsys):
        bench = tmp_path / "mini.bench"
        bench.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert main(["stats", str(bench)]) == 0
        assert "1 PIs" in capsys.readouterr().out

    def test_enumerate(self, capsys):
        code = main(
            ["enumerate", "s27", "--max-faults", "100", "--p0-min-faults", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "N_p(L_i)" in out and "|P0|" in out

    def test_atpg(self, capsys):
        code = main(
            [
                "atpg",
                "s27",
                "--heuristic",
                "values",
                "--max-faults",
                "100",
                "--p0-min-faults",
                "20",
                "--show-tests",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tests" in out and "->" in out

    def test_enrich(self, capsys):
        code = main(
            ["enrich", "s27", "--max-faults", "100", "--p0-min-faults", "20"]
        )
        assert code == 0
        assert "P0" in capsys.readouterr().out

    def test_stats_flag_reports_engine_counters(self, capsys):
        code = main(
            [
                "--stats",
                "atpg",
                "s27",
                "--max-faults",
                "100",
                "--p0-min-faults",
                "20",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "tests" in captured.out
        assert "engine stats" in captured.err
        assert "enumerate.miss" in captured.err
        assert "justify.calls" in captured.err

    def test_stats_flag_off_by_default(self, capsys):
        assert main(["stats", "s27"]) == 0
        assert "engine stats" not in capsys.readouterr().err

    def test_tables_jobs_flag(self, tmp_path, capsys):
        """--jobs plumbs through to run_all; a --quick single-circuit
        sweep short-circuits to the in-process path at any job count and
        must match --jobs 1 on every deterministic field."""
        args = [
            "tables",
            "--scale",
            "smoke",
            "--quick",
            "--max-faults",
            "120",
            "--p0-min-faults",
            "30",
        ]
        outputs = {}
        for jobs in ("1", "2"):
            out_path = tmp_path / f"jobs{jobs}.json"
            code = main(args + ["--jobs", jobs, "--out", str(out_path)])
            assert code == 0
            capsys.readouterr()
            payload = json.loads(out_path.read_text())
            for entry in payload["basic"].values():
                for outcome in entry["outcomes"].values():
                    outcome["runtime_seconds"] = 0.0
            for row in payload["table6"]:
                row["runtime_seconds"] = 0.0
            outputs[jobs] = payload
        assert outputs["1"] == outputs["2"]

    def test_tables_rejects_bad_jobs(self, capsys):
        """--jobs 0 is a clean argparse usage error (exit code 2), not a
        raw ValueError traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_tables_rejects_non_integer_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--jobs", "many"])
        assert excinfo.value.code == 2

    def test_tables_rejects_retired_max_retries(self, capsys):
        # The runner runs each circuit once; the retry is `--resume`.
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--max-retries", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-retries" in capsys.readouterr().err

    def test_tables_rejects_nonpositive_timeout(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--timeout", "0"])
        assert excinfo.value.code == 2

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--resume"])
        assert excinfo.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_tables_checkpoint_resume_identity(self, tmp_path, capsys):
        """A checkpointed --quick run rerun with --resume recomputes
        nothing and produces identical deterministic output."""
        ckpt = tmp_path / "ckpt"
        base = [
            "tables",
            "--scale",
            "smoke",
            "--quick",
            "--max-faults",
            "120",
            "--p0-min-faults",
            "30",
            "--checkpoint-dir",
            str(ckpt),
        ]
        outputs = {}
        for label, extra in (("fresh", []), ("resumed", ["--resume"])):
            out_path = tmp_path / f"{label}.json"
            code = main(base + extra + ["--out", str(out_path)])
            assert code == 0
            capsys.readouterr()
            payload = json.loads(out_path.read_text())
            for entry in payload["basic"].values():
                for outcome in entry["outcomes"].values():
                    outcome["runtime_seconds"] = 0.0
            for row in payload["table6"]:
                row["runtime_seconds"] = 0.0
            outputs[label] = payload
        assert outputs["fresh"] == outputs["resumed"]
        assert ckpt.exists() and any(ckpt.glob("*.json"))

    def test_tables_failure_reports_aggregated_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # s641_proxy is the --quick sweep's (only) circuit
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s641_proxy")
        code = main(
            [
                "tables",
                "--scale",
                "smoke",
                "--quick",
                "--max-faults",
                "120",
                "--p0-min-faults",
                "30",
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "s641_proxy" in err
        assert "--resume" in err

    def test_tables_journal_does_not_perturb_output(self, tmp_path, capsys):
        """The journaled run's results and rendered tables are identical
        to the unjournaled run's; the journal gains exactly one valid
        entry carrying the run's config and per-job records."""
        from repro.journal import read_journal

        journal = tmp_path / "journal.jsonl"
        base = [
            "tables",
            "--scale",
            "smoke",
            "--quick",
            "--max-faults",
            "120",
            "--p0-min-faults",
            "30",
        ]
        outputs = {}
        for label, extra in (
            ("plain", []),
            ("journaled", ["--journal", str(journal)]),
        ):
            out_path = tmp_path / f"{label}.json"
            assert main(base + extra + ["--out", str(out_path)]) == 0
            capsys.readouterr()
            # Zero the measured wall clocks (the only nondeterministic
            # fields); everything else must be byte-identical.
            payload = json.loads(out_path.read_text())
            for entry in payload["basic"].values():
                for outcome in entry["outcomes"].values():
                    outcome["runtime_seconds"] = 0.0
            for row in payload["table6"]:
                row["runtime_seconds"] = 0.0
            outputs[label] = payload
        assert outputs["plain"] == outputs["journaled"]
        read = read_journal(journal)
        assert read.problems == []
        [entry] = read.entries
        assert entry["kind"] == "tables"
        assert entry["config"]["scale"] == "smoke"
        assert entry["config"]["max_faults"] == 120
        assert entry["metrics"]["tables.wall_seconds"] > 0
        assert any(
            name.endswith(".enrich.seconds") for name in entry["metrics"]
        )
        assert entry["jobs"] and all("wall_seconds" in job for job in entry["jobs"])
        assert "enumerate" in entry["caches"]

    def test_tables_from_json_skips_journal(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        base = [
            "tables",
            "--scale",
            "smoke",
            "--quick",
            "--max-faults",
            "120",
            "--p0-min-faults",
            "30",
        ]
        assert main(base + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        journal = tmp_path / "journal.jsonl"
        code = main(
            ["tables", "--from-json", str(out_path), "--journal", str(journal)]
        )
        assert code == 0
        # Cached renders measured nothing; journaling one would poison
        # the trajectory with zero-cost entries.
        assert not journal.exists()
        assert "nothing was measured" in capsys.readouterr().err

    def test_tables_quick_smoke_with_cache(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(
            [
                "tables",
                "--scale",
                "smoke",
                "--quick",
                "--max-faults",
                "120",
                "--p0-min-faults",
                "30",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        first = capsys.readouterr().out
        assert "Table 6" in first
        payload = json.loads(out_path.read_text())
        assert payload["scale"] == "smoke"
        # Re-render from the cache without recomputation.
        code = main(["tables", "--from-json", str(out_path)])
        assert code == 0
        second = capsys.readouterr().out
        assert second == first


class TestCacheCommands:
    @pytest.fixture(autouse=True)
    def clean_envflags(self, monkeypatch):
        from repro import envflags

        monkeypatch.delenv(envflags.ARTIFACT_CACHE_ENV, raising=False)
        envflags.reset()
        yield
        monkeypatch.undo()
        envflags.reset()

    @staticmethod
    def seed(tmp_path, capsys):
        """One cached ``enumerate`` run; returns (cache dir, stdout)."""
        cache = tmp_path / "cache"
        code = main(
            [
                "enumerate",
                "s27",
                "--max-faults",
                "100",
                "--p0-min-faults",
                "20",
                "--artifact-cache",
                str(cache),
            ]
        )
        assert code == 0
        return cache, capsys.readouterr().out

    def test_cache_requires_directory(self, capsys):
        assert main(["cache", "ls"]) == 2
        assert "no artifact cache directory" in capsys.readouterr().err

    def test_flag_seeds_store_and_ls_lists_it(self, tmp_path, capsys):
        cache, _ = self.seed(tmp_path, capsys)
        assert main(["cache", "ls", "--artifact-cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "enumeration" in out and "target_sets" in out
        assert "2 entries" in out

    def test_warm_run_hits_with_identical_output(self, tmp_path, capsys):
        cache, cold_out = self.seed(tmp_path, capsys)
        code = main(
            [
                "--stats",
                "enumerate",
                "s27",
                "--max-faults",
                "100",
                "--p0-min-faults",
                "20",
                "--artifact-cache",
                str(cache),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == cold_out
        assert "artifact.hit" in captured.err
        assert "artifact.miss" not in captured.err

    def test_cached_output_matches_uncached(self, tmp_path, capsys):
        plain_args = ["enumerate", "s27", "--max-faults", "100", "--p0-min-faults", "20"]
        assert main(plain_args) == 0
        uncached = capsys.readouterr().out
        _, cold = self.seed(tmp_path, capsys)
        assert cold == uncached

    def test_env_var_enables_cache(self, tmp_path, capsys, monkeypatch):
        from repro import envflags

        cache = tmp_path / "cache"
        monkeypatch.setenv(envflags.ARTIFACT_CACHE_ENV, str(cache))
        envflags.reset()
        code = main(
            ["enumerate", "s27", "--max-faults", "100", "--p0-min-faults", "20"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0  # env names the store, no flag needed
        assert "2 entries" in capsys.readouterr().out

    def test_verify_clean_then_corrupt(self, tmp_path, capsys):
        cache, _ = self.seed(tmp_path, capsys)
        assert main(["cache", "verify", "--artifact-cache", str(cache)]) == 0
        assert "2 intact, 0 corrupt" in capsys.readouterr().out
        victim = sorted(cache.glob("*.npz"))[0]
        victim.write_bytes(b"garbage")
        assert main(["cache", "verify", "--artifact-cache", str(cache)]) == 1
        out = capsys.readouterr().out
        assert f"corrupt: {victim.name}" in out
        assert "1 intact, 1 corrupt" in out

    def test_verify_repair_heals_the_store(self, tmp_path, capsys):
        cache, _ = self.seed(tmp_path, capsys)
        victim = sorted(cache.glob("*.npz"))[0]
        victim.write_bytes(b"garbage")
        code = main(
            ["cache", "verify", "--repair", "--artifact-cache", str(cache)]
        )
        assert code == 0  # repair mode reports, it does not fail the build
        out = capsys.readouterr().out
        assert "1 intact, 1 corrupt" in out
        assert "repair: quarantined 1 entry" in out
        assert not victim.exists()
        assert not (cache / "quarantine").is_dir() or not list(
            (cache / "quarantine").iterdir()
        )
        # A second verify scan is clean.
        assert main(["cache", "verify", "--artifact-cache", str(cache)]) == 0
        assert "1 intact, 0 corrupt" in capsys.readouterr().out

    def test_gc_evicts_to_budget(self, tmp_path, capsys):
        cache, _ = self.seed(tmp_path, capsys)
        code = main(
            ["cache", "gc", "--max-bytes", "0", "--artifact-cache", str(cache)]
        )
        assert code == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert main(["cache", "ls", "--artifact-cache", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestJournalCommands:
    @staticmethod
    def write_journal(path, values, metric="tables_s27"):
        from repro.journal import append_entry

        for i, value in enumerate(values):
            append_entry(
                path,
                {
                    "v": 1,
                    "kind": "bench",
                    "ts": f"2026-08-{i + 1:02d}T00:00:00+00:00",
                    "sha": f"{i:040x}",
                    "machine": {"python": "3.12", "platform": "test"},
                    "metrics": {metric: value},
                },
            )
        return path

    def test_validate_missing_file(self, tmp_path, capsys):
        code = main(["journal", "validate", "--journal", str(tmp_path / "no.jsonl")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_validate_clean_journal(self, tmp_path, capsys):
        journal = self.write_journal(tmp_path / "j.jsonl", [0.5, 0.4])
        assert main(["journal", "validate", "--journal", str(journal)]) == 0
        assert "2 valid entries, 0 problem line(s)" in capsys.readouterr().out

    def test_validate_flags_corrupt_line(self, tmp_path, capsys):
        journal = self.write_journal(tmp_path / "j.jsonl", [0.5])
        with journal.open("a") as handle:
            handle.write("{broken\n")
        assert main(["journal", "validate", "--journal", str(journal)]) == 1
        captured = capsys.readouterr()
        assert "1 problem line(s)" in captured.out
        assert "line 2" in captured.err

    def test_report_renders_and_writes_out(self, tmp_path, capsys):
        journal = self.write_journal(tmp_path / "j.jsonl", [0.5, 0.4])
        out = tmp_path / "report.txt"
        code = main(
            ["journal", "report", "--journal", str(journal), "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "kind bench: 2 entries" in text
        assert "tables_s27" in text
        assert out.read_text().strip() in text

    def test_gate_missing_file(self, tmp_path, capsys):
        assert main(["journal", "gate", "--journal", str(tmp_path / "no.jsonl")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_gate_passes_stable_trajectory(self, tmp_path, capsys):
        journal = self.write_journal(tmp_path / "j.jsonl", [0.5, 0.52, 0.48])
        assert main(["journal", "gate", "--journal", str(journal)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_gate_fails_on_2x_slowdown(self, tmp_path, capsys):
        """The CI acceptance scenario: a synthetic 2x slowdown appended
        to a healthy trajectory must flip the gate to exit 1."""
        journal = self.write_journal(tmp_path / "j.jsonl", [0.5, 0.52, 1.04])
        assert main(["journal", "gate", "--journal", str(journal)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "1 trajectory regression(s)" in captured.err

    def test_gate_all_replays_whole_trajectory(self, tmp_path, capsys):
        # Slow entry in the middle, recovered since: only --all sees it.
        journal = self.write_journal(tmp_path / "j.jsonl", [0.5, 2.0, 0.5, 0.5])
        assert main(["journal", "gate", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["journal", "gate", "--journal", str(journal), "--all"]) == 1

    def test_gate_tolerance_flag(self, tmp_path, capsys):
        journal = self.write_journal(tmp_path / "j.jsonl", [1.0, 1.4])
        assert main(["journal", "gate", "--journal", str(journal)]) == 1
        capsys.readouterr()
        code = main(
            ["journal", "gate", "--journal", str(journal), "--tolerance", "0.5"]
        )
        assert code == 0


class TestServiceCommands:
    """The serve/submit/status/cancel/logs verbs over a queue directory."""

    @staticmethod
    def submit(tmp_path, capsys, *extra):
        queue = tmp_path / "queue"
        code = main(
            [
                "submit",
                "--queue",
                str(queue),
                "--scale",
                "smoke",
                "--quick",
                "--max-faults",
                "60",
                "--p0-min-faults",
                "15",
                "--jobs",
                "1",
                *extra,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip().splitlines()[0]
        assert job_id.startswith("job-")
        return queue, job_id

    def test_submit_requires_queue(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit"])
        assert excinfo.value.code == 2

    def test_submit_enqueues_and_prints_job_id(self, tmp_path, capsys):
        queue, job_id = self.submit(tmp_path, capsys)
        assert (queue / "pending" / f"{job_id}.json").exists()
        stored = json.loads(
            (queue / "pending" / f"{job_id}.json").read_text()
        )
        assert stored["params"]["scale"] == "smoke"
        assert stored["params"]["quick"] is True
        assert stored["params"]["max_faults"] == 60
        assert stored["params"]["jobs"] == 1

    def test_submit_journals_queued_event(self, tmp_path, capsys):
        from repro.journal import read_journal

        queue, job_id = self.submit(tmp_path, capsys)
        read = read_journal(queue / "journal.jsonl")
        assert read.problems == []
        assert [(e["event"], e["job"]) for e in read.entries] == [
            ("queued", job_id)
        ]

    def test_submit_retry_flag_becomes_policy_spec(self, tmp_path, capsys):
        queue, job_id = self.submit(tmp_path, capsys, "--max-retries", "2")
        stored = json.loads(
            (queue / "pending" / f"{job_id}.json").read_text()
        )
        assert stored["params"]["retry"]["max_retries"] == 2

    def test_status_lists_daemon_and_jobs(self, tmp_path, capsys):
        queue, job_id = self.submit(tmp_path, capsys)
        assert main(["status", "--queue", str(queue)]) == 0
        out = capsys.readouterr().out
        assert "daemon: not running" in out
        assert f"{job_id}  queued" in out

    def test_status_single_job_and_unknown(self, tmp_path, capsys):
        queue, job_id = self.submit(tmp_path, capsys)
        assert main(["status", "--queue", str(queue), job_id]) == 0
        assert "queued" in capsys.readouterr().out
        assert main(["status", "--queue", str(queue), "job-nope"]) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_cancel_pending_then_refuses_terminal(self, tmp_path, capsys):
        queue, job_id = self.submit(tmp_path, capsys)
        assert main(["cancel", "--queue", str(queue), job_id]) == 0
        assert "canceled" in capsys.readouterr().out
        # Now in canceled/: a second cancel reports the state, exit 1.
        assert main(["cancel", "--queue", str(queue), job_id]) == 1
        assert "is canceled" in capsys.readouterr().err

    def test_cancel_unknown_job(self, tmp_path, capsys):
        queue, _ = self.submit(tmp_path, capsys)
        assert main(["cancel", "--queue", str(queue), "job-nope"]) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_logs_missing_then_present(self, tmp_path, capsys):
        queue, job_id = self.submit(tmp_path, capsys)
        assert main(["logs", "--queue", str(queue), job_id]) == 1
        assert "no log" in capsys.readouterr().err
        log = queue / "logs" / f"{job_id}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text("hello from the daemon\n")
        assert main(["logs", "--queue", str(queue), job_id]) == 0
        assert "hello from the daemon" in capsys.readouterr().out

    def test_serve_drain_runs_submitted_job_to_done(self, tmp_path, capsys):
        """The whole loop through the CLI: submit -> serve --drain ->
        status shows done and the outputs exist."""
        queue, job_id = self.submit(tmp_path, capsys)
        assert main(["serve", "--queue", str(queue), "--drain"]) == 0
        capsys.readouterr()
        assert main(["status", "--queue", str(queue), job_id]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert (queue / "out" / job_id / "results.json").exists()
        assert (queue / "out" / job_id / "tables.txt").exists()
        # The per-job log is now served by `repro logs`.
        assert main(["logs", "--queue", str(queue), job_id]) == 0
        assert "done" in capsys.readouterr().out

    def test_serve_refuses_busy_queue(self, tmp_path, capsys):
        from repro.service import JobQueue, ServiceWAL

        queue = JobQueue(tmp_path / "queue")
        queue.ensure_layout()
        ServiceWAL(queue.wal_path).write("running", pid=1)
        code = main(["serve", "--queue", str(queue.root), "--drain"])
        assert code == 2
        assert "owned by live daemon" in capsys.readouterr().err

    def test_serve_rejects_bad_thresholds(self):
        for flag in ("--heartbeat-interval", "--stale-after", "--poll-interval"):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--queue", "q", flag, "0"])
            assert excinfo.value.code == 2
