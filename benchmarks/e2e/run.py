#!/usr/bin/env python3
"""End-to-end benchmark of the path-delay-fault ATPG reproduction.

One measured run (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload tables-quick --seed 1 --seconds 15 --trace 0

runs the workload's batch job over and over until ``--seconds`` have
passed (whole jobs only, at least two), checks every output, and prints
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

A series of runs::

    python3 benchmarks/e2e/run.py [--workloads a,b] [--repeats N] [--seed S[,S...]]
                                  [--trace] [--out PATH] [--journal PATH]

starts one fresh interpreter per (workload, repeat) -- round-robin across
workloads within each repeat, one at a time -- and prints every metric's
median, min, max and count per workload.  ``--trace`` follows each
untraced run with a traced one and reports the tracing overhead.
``--update-reference`` records the runs' operation digests as the
reference for their seeds.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK_DIR = ROOT / ".bench_work"

#: Length of one measured run, as declared in BENCHMARK.json.
RUN_SECONDS = 15
#: Whole jobs a run measures at least; ``wall_s`` is the fastest of them
#: (noise on a shared host only ever adds time).
MIN_JOBS = 2
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 2

#: Reference verdicts that fail an operation.
BAD_REFERENCE = ("missing", "mismatch")

#: Program switches that select non-default code paths.  The benchmark
#: measures the defaults, so it refuses to start when any is set.
SWITCHES = ("REPRO_BACKEND", "REPRO_FULL_SIM", "REPRO_SCALAR_COVER", "REPRO_ARTIFACT_CACHE")
SWITCH_PREFIXES = ("REPRO_INJECT_",)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "faults_per_s": "faults/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh-interpreter set-up: import the program, build the circuits and
#: compile their simulators.  argv: the source directory, then circuits.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from repro.engine import Engine; "
    "engine = Engine(); [engine.session(name).simulator for name in sys.argv[2:]]"
)


def set_switches() -> list[str]:
    return sorted(
        name
        for name in os.environ
        if name in SWITCHES or name.startswith(SWITCH_PREFIXES)
    )


def peak_rss_mb(pooled: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child's when the
    workload forks pool workers (ru_maxrss is in KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_seconds(circuits: tuple[str, ...], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        # No timeout: with one, the wait polls in 50 ms steps.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *circuits], check=True)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


# -- one measured run --------------------------------------------------------


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    work_dir: str,
    reference: dict | None,
) -> dict:
    """Run ``workload``'s job until ``seconds`` have passed, then check.

    Only whole jobs are measured, and at least :data:`MIN_JOBS` of them:
    the run ends at the first job boundary after ``seconds``.

    ``reference`` maps operation names to their expected row digests for
    this seed (``None``: no reference, the checker alone decides).  Returns
    the run report: samples, per-operation verdicts and the metrics.
    """
    from check import Capture, digest, tests_fingerprint
    from repro.engine import Engine
    from spans import Tracer, layer_table

    for name in workload.circuits(smoke):
        Engine().session(name).simulator

    def fingerprints(events):
        return [tests_fingerprint(event[2]) for event in events if event[0] == "run"]

    capture = Capture().install()
    tracer = Tracer().install() if trace else None
    samples: list[dict] = []
    first: dict[str, tuple] = {}
    problems: dict[str, list[str]] = defaultdict(list)
    first_job_samples = first_job_spans = 0
    try:
        started = time.perf_counter()
        job_walls: list[float] = []
        job_faults = 0
        while len(job_walls) < MIN_JOBS or time.perf_counter() - started < seconds:
            job_wall = 0.0
            for op in workload.job(seed, smoke, work_dir):
                capture.take()
                op_started = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an operation failure is data
                    wall = time.perf_counter() - op_started
                    job_wall += wall
                    problems[op.name].append(f"raised {type(exc).__name__}: {exc}")
                    samples.append({"op": op.name, "wall": wall, "ok": False})
                    continue
                wall = time.perf_counter() - op_started
                job_wall += wall
                events = capture.take()
                row_digest = digest(result.row)
                if op.name not in first:
                    first[op.name] = (op, result, events, row_digest, fingerprints(events))
                    job_faults += result.faults
                elif (row_digest, fingerprints(events)) != first[op.name][3:]:
                    problems[op.name].append("a repeat produced different output")
                samples.append({"op": op.name, "wall": wall, "ok": True, "jobs": result.jobs})
            job_walls.append(job_wall)
            if len(job_walls) == 1:
                first_job_samples = len(samples)
                first_job_spans = len(tracer.spans) if tracer is not None else 0
        window = time.perf_counter() - started
        rss = peak_rss_mb(workload.workers > 1)
        if tracer is not None:
            tracer.uninstall()
        verdicts = {}
        for name, (op, result, events, row_digest, _) in first.items():
            expected = None if reference is None else reference.get(name)
            if reference is None:
                status = "none"
            elif expected is None:
                status = "missing"
            else:
                status = "match" if expected == row_digest else "mismatch"
            checker = op.verify(result, events, capture, status == "match")
            problems[name] += checker
            verdicts[name] = {
                "digest": row_digest,
                "reference": status,
                "checker": checker,
                "quality": list(result.quality),
            }
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()

    walls = walls_by_op(samples)
    failed_ops = sorted(
        name for name in walls
        if problems.get(name) or verdicts.get(name, {}).get("reference") in BAD_REFERENCE
    )
    for sample in samples:
        if sample["op"] in failed_ops:
            sample["ok"] = False
    busy = sum(job_walls)
    wall_s = min(job_walls)
    report = {
        "workload": workload.name,
        "seed": seed,
        "workers": workload.workers,
        "trace": trace,
        "smoke": smoke,
        "window_s": window,
        "attempted": len(samples),
        "failed": sum(not sample["ok"] for sample in samples),
        "failed_ops": failed_ops,
        "job_walls": job_walls,
        "ops": {
            name: {"n": len(values), "median_s": statistics.median(values), "walls": values}
            for name, values in walls.items()
        },
        "verdicts": verdicts,
        "problems": {name: found for name, found in problems.items() if found},
        "wall_s": wall_s,
        "faults_per_s": job_faults / wall_s,
        "peak_rss_mb": rss,
    }
    if tracer is not None:
        report["layers"] = layer_table(tracer.spans, busy)
        report["job_layers"] = layer_table(tracer.spans[:first_job_spans], busy)
    report["pool_jobs"] = [wall for sample in samples for wall in sample.get("jobs", [])]
    report["first_job_pool_jobs"] = sum(
        len(sample.get("jobs", [])) for sample in samples[:first_job_samples]
    )
    report["job_quality"] = job_quality(first)
    return report


def walls_by_op(samples: list[dict]) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        walls[sample["op"]].append(sample["wall"])
    return walls


def job_quality(first: dict) -> dict:
    """Per-job totals over the first occurrence of every operation."""
    totals = {"tests": 0, "detected_p0": 0, "detected_p01": 0, "decisions": 0,
              "compact_attempts": 0, "compact_successes": 0}
    for _op, result, events, _digest, _prints in first.values():
        tests, p0, p01 = result.quality
        totals["tests"] += tests
        totals["detected_p0"] += p0
        totals["detected_p01"] += p01
        for event in events:
            if event[0] == "run":
                run = event[2]
                totals["decisions"] += run.justify_stats.decisions
                totals["compact_attempts"] += run.secondary_attempts
                totals["compact_successes"] += run.secondary_successes
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run: name -> (value, unit).

    Shares of self time come from the whole measured period; counts come
    from the first job alone, so they repeat exactly run to run.
    """
    from spans import LAYERS

    shares, counts = report["layers"], report["job_layers"]
    quality = report["job_quality"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (shares[layer]["self_pct"], "%")
        metrics[f"{layer}.calls"] = (counts[layer]["calls"], "count")
    metrics["other.self_pct"] = (shares["other"]["self_pct"], "%")
    cone, justify = counts["sim.cone"], counts["atpg.justify"]
    restrict, implication = counts["sim.restrict"], counts["atpg.implication"]
    metrics.update({
        "sim.cone.columns": (cone["columns"], "count"),
        "sim.cone.cols_per_call": (_ratio(cone["columns"], cone["calls"]), "cols/call"),
        "atpg.justify.success_ratio": (_ratio(justify["ok"], justify["calls"]), "ratio"),
        "atpg.justify.rounds_per_call": (_ratio(justify["rounds"], justify["calls"]),
                                         "rounds/call"),
        "atpg.justify.decisions": (quality["decisions"], "count"),
        "atpg.compact.attempts": (quality["compact_attempts"], "count"),
        "atpg.compact.accept_ratio": (
            _ratio(quality["compact_successes"], quality["compact_attempts"]), "ratio"),
        "atpg.generate.tests": (quality["tests"], "count"),
        "atpg.generate.detected_p0": (quality["detected_p0"], "count"),
        "atpg.generate.detected_p01": (quality["detected_p01"], "count"),
        "atpg.implication.drop_ratio": (_ratio(implication["ok"], implication["calls"]),
                                        "ratio"),
        "sim.restrict.hit_ratio": (
            1.0 - _ratio(counts["sim.restrict.compile"]["calls"], restrict["calls"])
            if restrict["calls"] else 0.0, "ratio"),
        "faults.target_sets.kept": (counts["faults.target_sets"]["columns"], "count"),
        "paths.enumerate.faults": (counts["paths.enumerate"]["columns"], "count"),
        "sim.full.columns": (counts["sim.full"]["columns"], "count"),
        "sim.cover.columns": (counts["sim.cover"]["columns"], "count"),
        "sim.faultsim.columns": (counts["sim.faultsim"]["columns"], "count"),
        "parallel.jobs": (report["first_job_pool_jobs"], "count"),
        "parallel.efficiency": (
            _ratio(sum(report["pool_jobs"]), report["workers"] * sum(report["job_walls"])),
            "ratio"),
    })
    return metrics


def format_report(report: dict, metrics: dict) -> str:
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"trace {int(report['trace'])}  window {report['window_s']:.1f}s  "
        f"{report['attempted']} operations, {report['failed']} failed",
        f"{'operation':<24}{'n':>4}{'median_s':>10}  {'digest':<17}{'reference':<10}checker",
    ]
    for name, op in report["ops"].items():
        verdict = report["verdicts"].get(name, {})
        checker = "ok" if not verdict.get("checker") else "FAIL"
        lines.append(
            f"{name:<24}{op['n']:>4}{op['median_s']:>10.3f}  "
            f"{verdict.get('digest', '-'):<17}{verdict.get('reference', '-'):<10}{checker}"
        )
    if all(v["reference"] == "none" for v in report["verdicts"].values()):
        lines.append(f"no reference digests for seed {report['seed']}: the checker alone decides")
    for name, verdict in report["verdicts"].items():
        if verdict["reference"] in BAD_REFERENCE:
            lines.append(f"PROBLEM {name}: reference digest {verdict['reference']}")
    for name, found in report["problems"].items():
        for problem in found[:5]:
            lines.append(f"PROBLEM {name}: {problem}")
    if "layers" in report:
        from spans import format_layer_table

        lines.append(format_layer_table(report["layers"]))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {value:.6g} {unit}")
    return "\n".join(lines)


def run_once(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = int(args.seed)
    reference = None
    if not args.smoke:
        reference = load_reference().get(workload.name, {}).get(str(seed))
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        report = measure(workload, seed, args.seconds, bool(args.trace), args.smoke,
                         work_dir, reference)
        report["setup_s"] = setup_seconds(
            workload.circuits(args.smoke),
            SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_DIR.rmdir()
    if args.trace:
        metrics = layer_metrics(report)
    else:
        metrics = {name: (report[name], unit) for name, unit in END_TO_END.items()}
    print(format_report(report, metrics))
    print(json.dumps({"detail": report}, default=str))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# -- a series of runs --------------------------------------------------------


def environment() -> dict:
    import numpy

    from repro.envflags import simulation_backend
    from repro.journal.schema import git_dirty, git_sha

    return {
        "sha": git_sha(str(ROOT)),
        "dirty": git_dirty(str(ROOT)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": simulation_backend(),
        "nproc": os.cpu_count() or 1,
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {int(trace)} exited {proc.returncode}")
    print("\n".join(lines[:-2]), flush=True)
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    """Median/min/max/n of every metric, per (workload, traced)."""
    series: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    for run in runs:
        key = (run["detail"]["workload"], run["detail"]["trace"])
        for name, metric in run["result"]["metrics"].items():
            series[key][name].append(metric["value"])
            units[name] = metric["unit"]
    summary: dict = {}
    for (workload, traced), metrics in series.items():
        side = summary.setdefault(workload, {}).setdefault(
            "per_layer" if traced else "end_to_end", {}
        )
        for name, values in metrics.items():
            side[name] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "n": len(values), "unit": units[name],
            }
    for workload, sides in summary.items():
        plain = [r["detail"] for r in runs
                 if r["detail"]["workload"] == workload and not r["detail"]["trace"]]
        traced = [r["detail"] for r in runs
                  if r["detail"]["workload"] == workload and r["detail"]["trace"]]
        if plain and traced:
            sides["trace_overhead"] = (
                statistics.median(d["wall_s"] for d in traced)
                / statistics.median(d["wall_s"] for d in plain) - 1
            )
        if traced:
            sides["layer_seconds"] = {
                layer: statistics.median(
                    d["layers"][layer]["self_s"] / len(d["job_walls"]) for d in traced
                )
                for layer in traced[0]["layers"]
            }
    return summary


def format_summary(summary: dict) -> str:
    lines = []
    for workload, sides in summary.items():
        for name, row in sides.get("end_to_end", {}).items():
            lines.append(
                f"{workload:<14}{name:<14}{row['median']:>12.4f} {row['unit']:<9}"
                f"min {row['min']:.4f}  max {row['max']:.4f}  n {row['n']}"
            )
        if "trace_overhead" in sides:
            lines.append(f"{workload:<14}trace overhead {100 * sides['trace_overhead']:+.1f}%")
    return "\n".join(lines)


def journal_entry(summary: dict, env: dict, config: dict) -> dict:
    """One ``bench`` journal entry: lower-is-better end-to-end medians keyed
    ``<workload>.<metric>``; with a trace, each layer's self seconds per job
    as ``phases`` (``<workload>.<layer>``)."""
    from repro.journal import bench_entry

    results = {}
    phases = {}
    for workload, sides in summary.items():
        for name, row in sides.get("end_to_end", {}).items():
            if name != "faults_per_s":  # the journal gate reads larger as worse
                results[f"{workload}.{name}"] = row["median"]
        for layer, seconds in sides.get("layer_seconds", {}).items():
            phases[f"{workload}.{layer}"] = seconds
    entry = bench_entry(
        {"meta": {"python": env["python"]}, "results": results},
        config=config,
        dirty=env["dirty"],
    )
    if phases:
        entry["phases"] = phases
    return entry


def update_reference(runs: list[dict]) -> int:
    reference = load_reference()
    recorded = 0
    for run in runs:
        detail = run["detail"]
        if detail["smoke"] or detail["problems"]:
            continue
        seeds = reference.setdefault(detail["workload"], {})
        seeds[str(detail["seed"])] = {
            name: verdict["digest"] for name, verdict in sorted(detail["verdicts"].items())
        }
        recorded += 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return recorded


def run_series(args) -> int:
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = [int(seed) for seed in args.seed.split(",")]
    env = environment()
    runs = []
    for _repeat in range(args.repeats):
        for seed in seeds:
            for name in names:
                for traced in (False, True) if args.trace else (False,):
                    runs.append(run_child(name, seed, args.seconds, traced, args.smoke))
    summary = summarize(runs)
    print(format_summary(summary))
    config = {"workloads": ",".join(names), "repeats": args.repeats, "seeds": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace), "smoke": args.smoke}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": env, "config": config, "summary": summary, "runs": runs},
            indent=1, default=str,
        ))
    if args.journal:
        from repro.journal import append_entry

        append_entry(args.journal, journal_entry(summary, env, config))
    if args.update_reference:
        print(f"recorded {update_reference(runs)} reference entries in {REFERENCE}")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one measured run of this workload")
    parser.add_argument("--workloads", help="comma-separated workloads of a series")
    parser.add_argument("--seed", default="1", help="input seed (a series takes a list)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="write the series' runs and summary as JSON")
    parser.add_argument("--journal", help="append the series as a bench journal entry")
    parser.add_argument("--update-reference", action="store_true",
                        help="record the series' digests as the reference")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    switches = set_switches()
    if switches:
        print(f"run.py: refusing to run with program switches set: {switches}",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload:
        return run_once(args)
    return run_series(args)


if __name__ == "__main__":
    sys.exit(main())
