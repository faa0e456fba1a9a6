"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import check_generation
from repro.atpg import AtpgConfig
from repro.engine import CircuitSession
from repro.experiments import tables
from repro.experiments.scale import ExperimentScale
from repro.sim.vectors import TwoPatternTest
from spans import Tracer, layer_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _s27_run():
    session = CircuitSession("s27")
    targets = session.target_sets(max_faults=40, p0_min_faults=10)
    result = session.generate_basic(targets.p0, AtpgConfig(heuristic="values", seed=1))
    return targets, result


def test_checker_accepts_the_program_output():
    targets, result = _s27_run()
    problems, derived = check_generation(result, [targets.p0], targets.all_records)
    assert problems == []
    assert derived["detected_by_pool"] == result.detected_by_pool


def test_checker_refutes_a_test_with_one_flipped_input():
    targets, result = _s27_run()
    generated = result.tests[0]
    source = generated.primary.fault.source
    assignment = dict(generated.test.assignment)
    assignment[source] = assignment[source].inverted()
    result.tests[0] = dataclasses.replace(generated, test=TwoPatternTest(assignment))
    problems, _ = check_generation(result, [targets.p0], targets.all_records)
    assert any(problem.startswith("test 0 does not detect") for problem in problems)


def _smoke_report(reference=None):
    return run.measure(
        WORKLOADS["tables-quick"], seed=1, seconds=0, trace=False, smoke=True,
        work_dir=str(ROOT), reference=reference,
    )


def test_a_changed_row_digest_fails_exactly_that_operation():
    clean = _smoke_report()
    reference = {name: verdict["digest"] for name, verdict in clean["verdicts"].items()}
    assert _smoke_report(reference)["failed"] == 0
    reference["basic.length"] = "0" * 16
    report = _smoke_report(reference)
    assert report["failed_ops"] == ["basic.length"]
    assert report["failed"] == report["ops"]["basic.length"]["n"]
    assert report["verdicts"]["basic.length"]["reference"] == "mismatch"
    assert report["problems"] == {}


def test_tables_quick_operations_reproduce_run_all():
    ops = WORKLOADS["tables-quick"].job(1, True, str(ROOT))
    rows = json.loads(json.dumps({op.name: op.run().row for op in ops}))
    scale = ExperimentScale("smoke", max_faults=40, p0_min_faults=10,
                            max_secondary_attempts=8, seed=1)
    whole = json.loads(
        tables.run_all(scale, circuits=("s27",), table6_circuits=("s27",), jobs=1)
        .canonical_json()
    )
    for heuristic, outcome in whole["basic"]["s27"]["outcomes"].items():
        del outcome["runtime_seconds"]
        assert rows[f"basic.{heuristic}"]["outcomes"] == {heuristic: outcome}
    del whole["table6"][0]["runtime_seconds"]
    assert rows["enrich"] == whole["table6"][0]
    assert rows["table1"] == whole["table1"]
    assert rows["table2"] == whole["table2"]


def test_nested_span_self_times_add_up():
    # experiments [0,10] > generate [1,6] > justify [2,5] > cone [3,4];
    # experiments > full [7,9]; the traced wall is 12.
    spans = [
        ["experiments", 0.0, 10.0, -1, 0, None],
        ["atpg.generate", 1.0, 6.0, 0, 0, None],
        ["atpg.justify", 2.0, 5.0, 1, 0, True],
        ["sim.cone", 3.0, 4.0, 2, 7, None],
        ["sim.full", 7.0, 9.0, 0, 1, None],
    ]
    table = layer_table(spans, wall=12.0)
    selves = {layer: row["self_s"] for layer, row in table.items() if row["self_s"]}
    assert selves == {
        "experiments": 3.0, "atpg.generate": 2.0, "atpg.justify": 2.0,
        "sim.cone": 1.0, "sim.full": 2.0, "other": 2.0,
    }
    assert sum(row["self_pct"] for row in table.values()) == pytest.approx(100.0)
    assert table["atpg.justify"]["rounds"] == 1
    assert table["atpg.justify"]["ok"] == 1
    assert table["sim.cone"]["columns"] == 7


def test_tracer_records_the_call_tree():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "sim.cone")
    outer = tracer.wrap(lambda: [inner(), inner()], "atpg.justify", ok=lambda r: True)
    outer()
    assert [(span[0], span[3]) for span in tracer.spans] == [
        ("atpg.justify", -1), ("sim.cone", 0), ("sim.cone", 0),
    ]
    assert tracer.spans[0][5] is True


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_names_and_declaration_are_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += list(_declared("end_to_end")) + list(_declared("per_layer"))
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    units = list(_declared("end_to_end").values()) + list(_declared("per_layer").values())
    assert all(UNIT.match(unit) for unit in units)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    assert _declared("end_to_end") == run.END_TO_END
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tables-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_with_a_program_switch_set():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tables-quick", "--smoke"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "REPRO_BACKEND": "packed"},
    )
    assert proc.returncode == 2
    assert "REPRO_BACKEND" in proc.stderr


def test_journal_entry_is_accepted_by_the_journal_commands(tmp_path):
    from repro.journal import append_entry

    summary = {
        "tables-quick": {
            "end_to_end": {
                name: {"median": 1.5, "min": 1.0, "max": 2.0, "n": 3, "unit": unit}
                for name, unit in run.END_TO_END.items()
            },
            "layer_seconds": {"sim.cone": 12.5},
        }
    }
    env = {"python": "3", "dirty": False}
    entry = run.journal_entry(summary, env, {"repeats": 3})
    assert "tables-quick.wall_s" in entry["metrics"]
    assert "tables-quick.faults_per_s" not in entry["metrics"]
    assert entry["phases"] == {"tables-quick.sim.cone": 12.5}
    journal = tmp_path / "journal.jsonl"
    append_entry(journal, entry)
    for command in ("validate", "report"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "journal", command, "--journal", str(journal)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    assert "tables-quick.wall_s" in proc.stdout
