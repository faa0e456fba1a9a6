#!/usr/bin/env python
"""Benchmark the hot paths and fail on regression against a baseline.

Times three things by default (gated against
``benchmarks/BENCH_PR4.json``):

* ``tables_s27``       -- the full per-circuit table pipeline on ``s27``
  at the ``default`` scale (enumeration, target sets, all four heuristic
  generation runs, P0 u P1 fault simulation), cold engine every repeat;
* ``detection_matrix_vectorized`` -- one
  ``FaultSimulator.detection_matrix`` call over the ``s641_proxy``
  default-scale fault universe (the stacked covering kernel);
* ``justify_cone`` -- a fixed sample of ``s641_proxy`` P0 justifications
  on the packed cone kernel (see benchmarks/bench_justify_cone.py).

``--cached`` switches to the persistent artifact-store entries (gated
against ``benchmarks/BENCH_PR9.json``), measured on ``s1423_proxy`` at
the default scale:

* ``artifact_cold_build`` -- fresh engine + empty store: enumeration and
  target-set construction from scratch, publishing both artifacts;
* ``artifact_warm_load``  -- fresh engine + pre-seeded store: both
  artifacts loaded (and re-sensitized) instead of recomputed;
* ``artifact_warm_cold_fraction`` -- ``warm / cold``; a fraction f
  certifies a ``1/f``x warm-start speedup, so ``f <= 0.2`` is the
  ">= 5x faster" acceptance bar.  Because the warm load is tiny
  (~tens of ms), this ratio is judged against that *absolute* bar
  rather than run-to-run noise: the bench itself fails when f exceeds
  the bar, while a nominal baseline/trajectory "regression" is
  tolerated as long as f stays under it (see ``FRACTION_BARS``).

Each entry records the best of ``--repeats`` runs (wall clock, seconds;
the fraction entry is a ratio).  With ``--baseline`` the current numbers
are compared entry by entry and the process exits non-zero when any
entry is more than ``--max-regression`` slower; a baseline entry that
the current run did not produce is reported and skipped, so retired
benchmarks never block an otherwise-green run.  CI runs this against the
committed ``benchmarks/BENCH_PR4.json`` / ``BENCH_PR9.json``; refresh
those files with ``--update-baseline`` on a quiet machine when a
deliberate change moves the numbers -- the refresh *merges* into the
existing baseline (entries this run did not produce are preserved), so
retired benchmarks are never silently dropped from the file.

``--journal PATH`` additionally appends this run's numbers to the
persistent run journal (see :mod:`repro.journal`) as a ``bench`` entry,
and ``--journal-gate`` compares them against the journal *trajectory*
-- the median of the last recorded values per entry, with the same
``--max-regression`` tolerance -- instead of only the single committed
baseline.  The entry is appended even when the gate fails (a regression
is still a measurement worth recording; the exit code is what blocks
the merge), and a deliberate ``--update-baseline`` refresh skips the
trajectory gate (moving the numbers is the point) while still
journaling the new measurement.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


#: Machine-portable acceptance bars for ratio entries.  A fraction whose
#: numerator is tiny (the ~20ms artifact warm load) swings tens of
#: percent run to run from pure scheduler jitter, so judging it against
#: a single lucky baseline measurement (or a lucky trajectory median)
#: manufactures regressions out of noise.  A ratio entry listed here
#: only counts as a regression when it also exceeds its *absolute*
#: acceptance bar -- ``artifact_warm_cold_fraction <= 0.2`` is the
#: ">= 5x warm-start" tentpole criterion, enforced unconditionally in
#: :func:`bench_artifact_cached` as well.
FRACTION_BARS = {"artifact_warm_cold_fraction": 0.2}

#: Wall-clock entries this small are dominated by scheduler jitter on a
#: shared runner: a 25% swing of a ~20ms measurement (the artifact warm
#: load) is noise, not a regression.  A comparison
#: whose two sides both sit under the floor is reported but never
#: failed; a real regression that pushes an entry *past* the floor is
#: still caught.
NOISE_FLOOR_SECONDS = 0.05


def tolerated(name: str, value: float, reference: float | None) -> str | None:
    """Why a nominal regression on ``name`` is acceptable, or ``None``.

    Ratio entries with an absolute acceptance bar are fine while under
    it; tiny wall clocks are fine while both sides stay under the noise
    floor.
    """
    bar = FRACTION_BARS.get(name)
    if bar is not None:
        return f"within absolute bar {bar:g}" if value <= bar else None
    if value < NOISE_FLOOR_SECONDS and (
        reference is None or reference < NOISE_FLOOR_SECONDS
    ):
        return f"below {NOISE_FLOOR_SECONDS:g}s noise floor"
    return None


def best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def bench_tables_s27(repeats: int) -> float:
    from repro.engine import Engine
    from repro.experiments import get_scale
    from repro.experiments.tables import run_basic_circuit

    scale = get_scale("default")

    def pipeline():
        engine = Engine()  # cold: includes enumeration + compilation
        run_basic_circuit(engine.session("s27"), scale)

    return best_of(repeats, pipeline)


def bench_detection_matrix(repeats: int) -> dict[str, float]:
    from repro.atpg import AtpgConfig
    from repro.engine import Engine
    from repro.experiments import get_scale
    from repro.sim.faultsim import FaultSimulator

    scale = get_scale("default")
    engine = Engine()
    session = engine.session("s641_proxy")
    targets = session.target_sets(
        max_faults=scale.max_faults, p0_min_faults=scale.p0_min_faults
    )
    config = AtpgConfig(
        heuristic="values",
        seed=scale.seed,
        max_secondary_attempts=scale.max_secondary_attempts,
    )
    tests = session.generate_basic(targets.p0, config).test_vectors
    simulator = FaultSimulator(
        session.netlist, targets.all_records, simulator=session.simulator
    )
    simulator.detection_matrix(tests)  # warm the batch simulator
    return {
        "detection_matrix_vectorized": best_of(
            repeats, lambda: simulator.detection_matrix(tests)
        )
    }


def bench_justify_cone(repeats: int) -> dict[str, float]:
    import random

    from repro.atpg.justify import Justifier
    from repro.atpg.requirements import RequirementSet
    from repro.engine import Engine
    from repro.experiments import get_scale

    scale = get_scale("default")
    engine = Engine()
    session = engine.session("s641_proxy")
    targets = session.target_sets(
        max_faults=scale.max_faults, p0_min_faults=scale.p0_min_faults
    )
    sample = [
        RequirementSet(record.sens.requirements) for record in targets.p0[:40]
    ]

    def justify_all(justifier):
        rng = random.Random(scale.seed)
        for requirements in sample:
            justifier.justify(requirements, rng)

    justifier = Justifier(session.netlist)
    justify_all(justifier)  # warm the cone cache
    return {"justify_cone": best_of(repeats, lambda: justify_all(justifier))}


def bench_artifact_cached(repeats: int) -> dict[str, float]:
    """Cold build vs warm load through the persistent artifact store.

    Both sides pay the same fresh-engine/session setup; the delta is the
    tentpole's win -- loading the enumeration + target sets instead of
    recomputing them.  Every cold repeat gets an empty store directory
    (a reused one would silently measure the warm path).
    """
    import shutil
    import tempfile

    from repro.artifacts import ArtifactStore
    from repro.engine import Engine
    from repro.experiments import get_scale

    scale = get_scale("default")

    def build(store):
        engine = Engine(artifacts=store)
        session = engine.session("s1423_proxy")
        session.enumeration(scale.max_faults)
        session.target_sets(
            max_faults=scale.max_faults, p0_min_faults=scale.p0_min_faults
        )
        return engine

    cold = float("inf")
    warm_dir = tempfile.mkdtemp(prefix="bench-artifacts-")
    try:
        for _ in range(max(1, repeats)):
            cold_dir = tempfile.mkdtemp(prefix="bench-artifacts-")
            try:
                started = time.perf_counter()
                build(ArtifactStore(cold_dir))
                cold = min(cold, time.perf_counter() - started)
            finally:
                shutil.rmtree(cold_dir, ignore_errors=True)

        build(ArtifactStore(warm_dir))  # seed the store once

        def warm_build():
            engine = build(ArtifactStore(warm_dir))
            hits = engine.stats.counter("artifact.hit")
            if hits < 2:  # must have loaded, not recomputed
                raise RuntimeError(f"warm run loaded {hits}/2 artifacts")

        # Warm rounds cost ~20ms, so take many more of them: the best-of
        # floor of a tiny measurement needs extra samples to stop
        # scheduler jitter from swinging the fraction below.
        warm = best_of(max(1, repeats) * 5, warm_build)
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    fraction = warm / cold
    bar = FRACTION_BARS["artifact_warm_cold_fraction"]
    if fraction > bar:
        raise RuntimeError(
            f"warm-start fraction {fraction:.4f} exceeds the acceptance "
            f"bar {bar:g} (warm {warm:.4f}s / cold {cold:.4f}s is below "
            f"the promised {1 / bar:.0f}x speedup)"
        )
    return {
        "artifact_cold_build": cold,
        "artifact_warm_load": warm,
        "artifact_warm_cold_fraction": fraction,
    }


def run_benches(repeats: int, cached: bool = False) -> dict:
    if cached:
        results = bench_artifact_cached(repeats)
    else:
        results = {"tables_s27": bench_tables_s27(max(1, repeats // 3))}
        results.update(bench_detection_matrix(repeats))
        results.update(bench_justify_cone(max(1, repeats // 2)))
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": {name: round(value, 6) for name, value in results.items()},
    }


def merge_baseline(current: dict, previous: dict) -> dict:
    """The refreshed baseline document: ``current`` wins entry by entry,
    but entries only the old baseline has (retired or not-run benchmarks)
    are carried over instead of dropped."""
    return {
        **current,
        "results": {
            **previous.get("results", {}),
            **current.get("results", {}),
        },
    }


def journal_run(
    current: dict, args, skip_gate: bool
) -> int:
    """Append this run to the journal; gate against the trajectory first.

    Returns the number of trajectory regressions (0 when gating was
    skipped or passed).  Gating happens *before* the append so the fresh
    measurement is judged against its history, and the append happens
    regardless of the verdict.
    """
    from repro.journal import (
        append_entry,
        bench_entry,
        gate_candidate,
        read_journal,
    )

    read = read_journal(args.journal)
    for problem in read.problems:
        print(f"journal {read.path}: {problem.describe()}", file=sys.stderr)
    regressions = 0
    if args.journal_gate and not skip_gate:
        report = gate_candidate(
            read.entries,
            "bench",
            current["results"],
            tolerance=args.max_regression,
        )
        print(f"gating against trajectory in {read.path}")
        print(report.format())
        regressions = 0
        for finding in report.regressions:
            reason = tolerated(finding.metric, finding.value, finding.baseline)
            if reason is not None:
                print(f"  (tolerated: {finding.metric} {reason})")
            else:
                regressions += 1
    append_entry(
        args.journal,
        bench_entry(
            current,
            config={
                "mode": "cached" if args.cached else "default",
                "cached": bool(args.cached),
                "repeats": args.repeats,
                "max_regression": args.max_regression,
                "update_baseline": bool(args.update_baseline),
            },
        ),
    )
    print(f"journal: appended bench entry to {args.journal}")
    return regressions


def compare(current: dict, baseline: dict, max_regression: float) -> list[str]:
    failures = []
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})
    for name, base_seconds in sorted(base_results.items()):
        cur_seconds = cur_results.get(name)
        if cur_seconds is None:
            # A retired or not-run entry is not a regression: report it
            # and move on so baseline/run drift never blocks a green run.
            print(
                f"  {name:<30} missing from current run; skipping "
                f"(baseline {base_seconds:.4f}s)"
            )
            continue
        ratio = cur_seconds / base_seconds if base_seconds > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + max_regression:
            reason = tolerated(name, cur_seconds, base_seconds)
            if reason is not None:
                verdict = f"ok ({reason})"
            else:
                verdict = f"REGRESSION (> {max_regression:.0%} slower)"
                failures.append(
                    f"{name}: {cur_seconds:.4f}s vs baseline {base_seconds:.4f}s "
                    f"({ratio:.2f}x)"
                )
        print(
            f"  {name:<30} {cur_seconds:>9.4f}s  baseline {base_seconds:>9.4f}s  "
            f"{ratio:>5.2f}x  {verdict}"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cached",
        action="store_true",
        help="run the persistent artifact-store entries (cold build vs "
        "warm load) instead of the default set "
        "(defaults --out/--baseline to BENCH_PR9.json)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write this run's numbers "
        "(default: BENCH_PR4.json; BENCH_PR9.json with --cached)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline to compare against ('' disables comparison; "
        "default: benchmarks/BENCH_PR4.json, or BENCH_PR9.json with "
        "--cached)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed slowdown per entry before failing (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--repeats", type=int, default=6, help="repeats per timed entry (best-of)"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="also refresh the baseline file with this run's numbers "
        "(merged: baseline entries this run did not produce are kept)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append this run as a 'bench' entry to the JSONL run journal "
        "(see repro.journal; CI uses benchmarks/journal.jsonl)",
    )
    parser.add_argument(
        "--journal-gate",
        action="store_true",
        help="also fail when an entry regressed by more than "
        "--max-regression against the journal trajectory's "
        "median-of-last-5 (requires --journal; skipped on "
        "--update-baseline refreshes)",
    )
    args = parser.parse_args(argv)
    if args.journal_gate and not args.journal:
        parser.error("--journal-gate requires --journal")
    default_name = "BENCH_PR9.json" if args.cached else "BENCH_PR4.json"
    if args.out is None:
        args.out = default_name
    if args.baseline is None:
        args.baseline = str(REPO_ROOT / "benchmarks" / default_name)

    current = run_benches(args.repeats, cached=args.cached)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(current, indent=1) + "\n")
    print(f"wrote {out_path}")
    for name, seconds in current["results"].items():
        print(f"  {name:<30} {seconds:>9.4f}s")

    trajectory_regressions = 0
    if args.journal:
        trajectory_regressions = journal_run(
            current, args, skip_gate=args.update_baseline
        )

    if args.update_baseline:
        baseline_path = Path(args.baseline)
        merged = current
        if baseline_path.exists():
            previous = json.loads(baseline_path.read_text())
            merged = merge_baseline(current, previous)
            retained = sorted(
                set(merged["results"]) - set(current["results"])
            )
            if retained:
                print(
                    f"preserved retired baseline entries: {', '.join(retained)}"
                )
        baseline_path.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"updated baseline {baseline_path}")
        return 0

    failures = []
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found; skipping comparison")
        else:
            baseline = json.loads(baseline_path.read_text())
            print(f"comparing against {baseline_path}")
            failures = compare(current, baseline, args.max_regression)
            if failures:
                print("benchmark regression:", file=sys.stderr)
                for line in failures:
                    print(f"  {line}", file=sys.stderr)
    if trajectory_regressions:
        print(
            f"trajectory regression: {trajectory_regressions} journal "
            f"entr{'y' if trajectory_regressions == 1 else 'ies'} past "
            f"tolerance",
            file=sys.stderr,
        )
    return 1 if failures or trajectory_regressions else 0


if __name__ == "__main__":
    sys.exit(main())
