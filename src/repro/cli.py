"""Command line interface (``repro-pdf`` / ``python -m repro``).

Subcommands:

* ``circuits``  -- list the registry with structural statistics.
* ``stats``     -- structural statistics for one circuit (or .bench file).
* ``enumerate`` -- bounded longest-path enumeration and the length table.
* ``atpg``      -- basic test generation (Section 2) for P0.
* ``enrich``    -- test enrichment with P0 and P1 (Section 3).
* ``tables``    -- regenerate the paper's Tables 1-7.
* ``journal``   -- the persistent run journal: ``report`` renders
  per-sha trend tables, ``gate`` flags regressions against the
  trajectory, ``validate`` schema-checks the JSONL file.
* ``cache``     -- the persistent artifact store: ``ls`` lists entries,
  ``verify`` integrity-checks them (``--repair`` quarantines and drains
  corrupt ones), ``gc`` applies a size-bounded LRU eviction.
* ``serve``     -- the supervised job daemon over a file-based queue
  directory; ``submit``/``status``/``cancel``/``logs`` are its client
  verbs (see :mod:`repro.service`).

One :class:`repro.engine.Engine` backs each invocation, so every stage of a
subcommand (and every circuit of a ``tables`` sweep) shares the per-circuit
artifact caches; ``--stats`` prints its counters and timers to stderr.
``--artifact-cache DIR`` (or ``REPRO_ARTIFACT_CACHE``) additionally makes
enumerations and target sets persistent across invocations via
:mod:`repro.artifacts` -- warm runs load instead of recomputing; output is
identical either way.
``tables --journal PATH`` additionally appends a structured record of the
run (sha, machine, config, per-circuit runtimes, abort taxonomy, cache hit
rates, per-circuit job records) to the journal -- after the results are
written, so journaling can never perturb the experiment output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .api import basic_atpg_circuit, enrich_circuit
from .artifacts import ArtifactStore
from .circuit import analyze, available_circuits, load_bench, validate
from .engine import CircuitSession, Engine
from .envflags import ARTIFACT_CACHE_ENV, artifact_cache_dir
from .experiments import (
    SCALES,
    TABLE3_CIRCUITS,
    TABLE6_CIRCUITS,
    run_all,
)
from .parallel import ParallelRunError, resolve_jobs
from .robustness import BUDGET_PROFILES, Budget, budget_from_profile

__all__ = ["main"]


def _jobs_arg(value: str) -> int:
    """argparse type for ``--jobs``: a clean usage error, not a traceback."""
    try:
        return resolve_jobs(int(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative_int_arg(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _positive_float_arg(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return number


def _positive_int_arg(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {number}")
    return number


def _build_budget(args) -> Budget | None:
    """Combine ``--budget-profile``/``--deadline``/``--abort-limit``.

    The profile (when given) supplies the base caps; explicit flags
    override its fields.  Returns ``None`` when no budget flag was used,
    keeping the unbudgeted path byte-identical to historical behaviour.
    """
    profile = getattr(args, "budget_profile", None)
    overrides = {
        "deadline_seconds": getattr(args, "deadline", None),
        "abort_limit": getattr(args, "abort_limit", None),
        "node_limit": getattr(args, "node_limit", None),
        "attempt_limit": getattr(args, "attempt_limit", None),
    }
    if profile is None and all(value is None for value in overrides.values()):
        return None
    budget = budget_from_profile(profile) if profile else Budget()
    for name, value in overrides.items():
        if value is not None:
            setattr(budget, name, value)
    return budget


def _print_aborted(aborted_faults, limit: int = 20) -> None:
    """stderr report of budget-aborted faults (graceful-degradation)."""
    if not aborted_faults:
        return
    print(
        f"budget: {len(aborted_faults)} fault(s) aborted before a verdict",
        file=sys.stderr,
    )
    for entry in aborted_faults[:limit]:
        print(
            f"  P{entry.pool} {entry.fault}: {entry.reason} in {entry.phase}",
            file=sys.stderr,
        )
    if len(aborted_faults) > limit:
        print(f"  ... and {len(aborted_faults) - limit} more", file=sys.stderr)


def _session(name_or_path: str, engine: Engine) -> CircuitSession:
    """Resolve a registry name or a .bench file path to an engine session."""
    if name_or_path.endswith(".bench") or "/" in name_or_path:
        netlist, _ = load_bench(Path(name_or_path))
        return engine.session(netlist)
    return engine.session(name_or_path)


def _cmd_circuits(_args, engine: Engine) -> int:
    for name in available_circuits():
        print(analyze(engine.session(name).netlist))
    return 0


def _cmd_stats(args, engine: Engine) -> int:
    # Statistics describe the netlist as parsed (no PDF-ready transform),
    # so .bench files report their raw structure; no session needed.
    if args.circuit.endswith(".bench") or "/" in args.circuit:
        netlist, _ = load_bench(Path(args.circuit))
    else:
        netlist = engine.session(args.circuit).netlist
    print(analyze(netlist))
    issues = validate(netlist)
    for issue in issues:
        print(f"  {issue}")
    return 0 if not any(i.severity == "error" for i in issues) else 1


def _cmd_enumerate(args, engine: Engine) -> int:
    session = _session(args.circuit, engine)
    targets = session.target_sets(
        max_faults=args.max_faults,
        p0_min_faults=args.p0_min_faults,
        filter_implications=not args.no_implications,
    )
    print(targets.summary())
    print(targets.length_table.format(max_rows=args.rows))
    return 0


def _cmd_atpg(args, engine: Engine) -> int:
    engine.budget = _build_budget(args)
    session = _session(args.circuit, engine)
    result = basic_atpg_circuit(
        session.netlist,
        heuristic=args.heuristic,
        max_faults=args.max_faults,
        p0_min_faults=args.p0_min_faults,
        seed=args.seed,
        mode=args.mode,
        max_secondary_attempts=args.budget,
        session=session,
    )
    print(result.summary())
    _print_aborted(result.aborted_faults)
    if args.show_tests:
        for generated in result.tests:
            first, second = generated.test.patterns(session.netlist)
            print(f"  {first} -> {second}  (+{generated.num_detected} faults)")
    return 0


def _cmd_enrich(args, engine: Engine) -> int:
    engine.budget = _build_budget(args)
    session = _session(args.circuit, engine)
    report = enrich_circuit(
        session.netlist,
        max_faults=args.max_faults,
        p0_min_faults=args.p0_min_faults,
        seed=args.seed,
        mode=args.mode,
        max_secondary_attempts=args.budget,
        session=session,
    )
    print(report.summary())
    _print_aborted(report.aborted_faults)
    return 0


def _journal_tables_config(args, scale) -> dict:
    """The run parameters a ``tables`` journal entry records."""
    budget = _build_budget(args)
    return {
        "scale": scale.name,
        "max_faults": scale.max_faults,
        "p0_min_faults": scale.p0_min_faults,
        "quick": bool(args.quick),
        "jobs": args.jobs,
        "resume": bool(args.resume),
        "budget": budget.spec() if budget is not None else None,
        "artifact_cache": bool(
            getattr(args, "artifact_cache", None) or artifact_cache_dir()
        ),
    }


def _cmd_tables(args, engine: Engine) -> int:
    started = time.perf_counter()
    if args.from_json:
        from .experiments import ExperimentResults

        results = ExperimentResults.from_json(Path(args.from_json).read_text())
        if args.journal:
            print(
                "journal: --from-json renders cached results; nothing was "
                "measured, so no entry is appended",
                file=sys.stderr,
            )
    else:
        from .experiments import ExperimentScale, get_scale

        scale = get_scale(args.scale)
        if args.max_faults or args.p0_min_faults:
            scale = ExperimentScale(
                name=scale.name,
                max_faults=args.max_faults or scale.max_faults,
                p0_min_faults=args.p0_min_faults or scale.p0_min_faults,
                max_secondary_attempts=scale.max_secondary_attempts,
                seed=scale.seed,
            )
        circuits = TABLE3_CIRCUITS if not args.quick else TABLE3_CIRCUITS[:1]
        table6 = TABLE6_CIRCUITS if not args.quick else TABLE6_CIRCUITS[:1]
        try:
            results = run_all(
                scale,
                circuits=circuits,
                table6_circuits=table6,
                engine=engine,
                jobs=args.jobs,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                timeout=args.timeout,
                budget=_build_budget(args),
            )
        except ParallelRunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            for failure in exc.failures:
                print(f"  {failure.describe()}", file=sys.stderr)
            if args.checkpoint_dir:
                print(
                    f"completed work is checkpointed under "
                    f"{args.checkpoint_dir}; rerun with --resume to skip it",
                    file=sys.stderr,
                )
            return 1
    if args.out:
        Path(args.out).write_text(results.to_json())
        print(f"wrote {args.out}", file=sys.stderr)
    print(results.format_all())
    if args.journal and not args.from_json:
        from .journal import append_entry, tables_entry

        append_entry(
            args.journal,
            tables_entry(
                results,
                engine.stats,
                wall_seconds=time.perf_counter() - started,
                config=_journal_tables_config(args, scale),
                jobs=engine.job_records,
            ),
        )
        print(f"journal: appended tables entry to {args.journal}", file=sys.stderr)
    return 0


def _cache_store(args) -> ArtifactStore | None:
    """The artifact store a ``cache`` subcommand operates on, or ``None``
    (with a stderr message) when neither the flag nor the environment
    names a directory."""
    directory = getattr(args, "artifact_cache", None) or artifact_cache_dir()
    if not directory:
        print(
            f"error: no artifact cache directory; pass --artifact-cache DIR "
            f"or set {ARTIFACT_CACHE_ENV}",
            file=sys.stderr,
        )
        return None
    return ArtifactStore(directory)


def _format_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024
    return f"{int(size)}B"  # pragma: no cover - unreachable


def _cmd_cache_ls(args, _engine: Engine) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    entries = store.entries()
    for entry in entries:
        print(entry.describe(store.read_meta(entry)))
    print(
        f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
        f"{_format_bytes(store.total_bytes())} in {store.directory}"
    )
    return 0


def _cmd_cache_verify(args, _engine: Engine) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    intact, corrupt = store.verify(repair=args.repair)
    for entry in corrupt:
        print(f"corrupt: {entry.path.name}")
    print(
        f"{len(intact)} intact, {len(corrupt)} corrupt in {store.directory}"
    )
    if args.repair:
        print(
            f"repair: quarantined {len(corrupt)} entr"
            f"{'y' if len(corrupt) == 1 else 'ies'}, quarantine drained"
        )
        return 0
    return 1 if corrupt else 0


def _cmd_cache_gc(args, _engine: Engine) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    removed = store.gc(args.max_bytes)
    freed = sum(entry.size for entry in removed)
    for entry in removed:
        print(f"evicted: {entry.path.name} ({_format_bytes(entry.size)})")
    print(
        f"evicted {len(removed)} entr{'y' if len(removed) == 1 else 'ies'} "
        f"({_format_bytes(freed)}); {_format_bytes(store.total_bytes())} kept "
        f"in {store.directory}"
    )
    return 0


def _warn_journal_problems(read) -> None:
    for problem in read.problems:
        print(f"journal {read.path}: {problem.describe()}", file=sys.stderr)


def _cmd_journal_report(args, _engine: Engine) -> int:
    from .journal import read_journal, render_report

    read = read_journal(args.journal)
    _warn_journal_problems(read)
    text = render_report(
        read.entries,
        kinds=[args.kind] if args.kind else None,
        last=args.last,
    )
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(text)
    return 0


def _cmd_journal_gate(args, _engine: Engine) -> int:
    from .journal import gate_trajectory, read_journal

    read = read_journal(args.journal)
    if not read.path.exists():
        print(f"journal {read.path} not found", file=sys.stderr)
        return 1
    _warn_journal_problems(read)
    report = gate_trajectory(
        read.entries,
        kinds=[args.kind] if args.kind else None,
        window=args.window,
        tolerance=args.tolerance,
        min_history=args.min_history,
        gate_all=args.all,
    )
    print(report.format())
    if not report.ok:
        print(
            f"journal gate: {len(report.regressions)} trajectory "
            f"regression(s) in {read.path}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_journal_validate(args, _engine: Engine) -> int:
    from .journal import read_journal

    read = read_journal(args.journal)
    if not read.path.exists():
        print(f"journal {read.path} not found", file=sys.stderr)
        return 1
    _warn_journal_problems(read)
    print(
        f"{read.path}: {len(read.entries)} valid entr"
        f"{'y' if len(read.entries) == 1 else 'ies'}, "
        f"{len(read.problems)} problem line(s)"
    )
    return 1 if read.problems else 0


# -- service verbs (repro serve / submit / status / cancel / logs) ------


def _service_queue(args):
    from .service import JobQueue

    return JobQueue(args.queue)


def _submit_params(args) -> dict:
    """The run configuration a submitted ``tables`` job carries."""
    budget = _build_budget(args)
    params = {
        "scale": args.scale,
        "quick": bool(args.quick),
        "jobs": args.jobs,
        "timeout": args.timeout,
        "budget": budget.spec() if budget is not None else None,
        "artifact_cache": getattr(args, "artifact_cache", None)
        or artifact_cache_dir()
        or None,
    }
    if args.max_faults:
        params["max_faults"] = args.max_faults
    if args.p0_min_faults:
        params["p0_min_faults"] = args.p0_min_faults
    if args.max_retries is not None:
        from .robustness import RetryPolicy

        params["retry"] = RetryPolicy(max_retries=args.max_retries).spec()
    return {key: value for key, value in params.items() if value is not None}


def _cmd_serve(args, _engine: Engine) -> int:
    from .service import QueueBusyError, Supervisor

    supervisor = Supervisor(
        args.queue,
        drain=args.drain,
        poll_interval=args.poll_interval,
        job_retries=args.job_retries,
        heartbeat_interval=args.heartbeat_interval,
        stale_after=args.stale_after,
        artifact_cache=getattr(args, "artifact_cache", None)
        or artifact_cache_dir()
        or None,
    )
    print(
        f"serve: queue {supervisor.queue.root} (pid {os.getpid()}, "
        f"{'drain' if args.drain else 'daemon'} mode)",
        file=sys.stderr,
    )
    try:
        return supervisor.serve()
    except QueueBusyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_submit(args, _engine: Engine) -> int:
    from .journal import append_entry, service_entry

    queue = _service_queue(args)
    job = queue.submit(_submit_params(args))
    try:
        append_entry(
            queue.journal_path,
            service_entry("queued", job.id, detail={"kind": job.kind}),
        )
    except OSError:
        pass
    print(job.id)
    print(f"submit: queued {job.id} in {args.queue}", file=sys.stderr)
    return 0


def _cmd_status(args, _engine: Engine) -> int:
    queue = _service_queue(args)
    if args.job:
        job = queue.find(args.job)
        if job is None:
            print(f"error: unknown job {args.job}", file=sys.stderr)
            return 1
        print(f"{job.id}  {job.status}  attempts={job.attempts}")
        if job.result:
            for key, value in sorted(job.result.items()):
                print(f"  {key}: {value}")
        return 0
    from .service import ServiceWAL

    wal = ServiceWAL(queue.wal_path)
    owner = wal.owner()
    state = wal.load() or {}
    print(
        f"daemon: {'pid ' + str(owner) if owner else 'not running'}"
        + (f" ({state.get('phase')})" if state else "")
    )
    jobs = queue.jobs()
    for job in jobs:
        print(f"{job.id}  {job.status}  attempts={job.attempts}")
    if not jobs:
        print("no jobs")
    return 0


def _cmd_cancel(args, _engine: Engine) -> int:
    queue = _service_queue(args)
    job = queue.cancel(args.job)
    if job is None:
        known = queue.find(args.job)
        if known is None:
            print(f"error: unknown job {args.job}", file=sys.stderr)
        else:
            print(
                f"error: job {args.job} is {known.status}; only pending "
                f"jobs can be canceled",
                file=sys.stderr,
            )
        return 1
    print(f"canceled {job.id}")
    return 0


def _cmd_logs(args, _engine: Engine) -> int:
    queue = _service_queue(args)
    path = queue.log_path(args.job)
    if not path.exists():
        print(f"error: no log for job {args.job}", file=sys.stderr)
        return 1
    sys.stdout.write(path.read_text("utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pdf",
        description="Path delay fault ATPG with test enrichment "
        "(Pomeranz & Reddy, DATE 2002).",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache/instrumentation counters to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list available circuits").set_defaults(
        func=_cmd_circuits
    )

    p_stats = sub.add_parser("stats", help="structural statistics")
    p_stats.add_argument("circuit", help="registry name or .bench path")
    p_stats.set_defaults(func=_cmd_stats)

    def add_scale_args(p):
        p.add_argument("--max-faults", type=int, default=600, metavar="N_P")
        p.add_argument("--p0-min-faults", type=int, default=150, metavar="N_P0")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--budget",
            type=int,
            default=None,
            help="secondary justification attempts per test per pool "
            "(default: unlimited, as in the paper)",
        )
        p.add_argument(
            "--mode",
            choices=("robust", "non_robust"),
            default="robust",
            help="sensitization conditions (non_robust is an extension)",
        )

    def add_budget_args(p):
        p.add_argument(
            "--deadline",
            type=_positive_float_arg,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget for the whole run; faults left without "
            "a verdict when it expires are reported as aborted and the "
            "run still exits 0",
        )
        p.add_argument(
            "--abort-limit",
            type=_positive_int_arg,
            default=None,
            metavar="N",
            help="stop generation once N faults were aborted by the budget "
            "(graceful stop, partial results are kept)",
        )
        p.add_argument(
            "--budget-profile",
            choices=sorted(BUDGET_PROFILES),
            default=None,
            help="named resource-budget preset (node/attempt/enumeration "
            "caps); the other budget flags override its fields",
        )
        p.add_argument(
            "--node-limit",
            type=_positive_int_arg,
            default=None,
            metavar="N",
            help="per-fault justification work cap (fixpoint rounds / "
            "branch-and-bound nodes); tripped faults are aborted",
        )
        p.add_argument(
            "--attempt-limit",
            type=_positive_int_arg,
            default=None,
            metavar="N",
            help="justification attempts per target fault",
        )

    def add_cache_arg(p):
        p.add_argument(
            "--artifact-cache",
            metavar="DIR",
            default=None,
            help="persistent artifact store directory: enumerations and "
            "target sets are loaded from DIR when present and published "
            "after computing (default: $" + ARTIFACT_CACHE_ENV + ", "
            "else disabled; output is identical with or without)",
        )

    p_enum = sub.add_parser("enumerate", help="longest-path enumeration")
    p_enum.add_argument("circuit")
    p_enum.add_argument("--max-faults", type=int, default=600)
    p_enum.add_argument("--p0-min-faults", type=int, default=150)
    p_enum.add_argument("--rows", type=int, default=20)
    p_enum.add_argument("--no-implications", action="store_true")
    add_cache_arg(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_atpg = sub.add_parser("atpg", help="basic test generation for P0")
    p_atpg.add_argument("circuit")
    p_atpg.add_argument(
        "--heuristic",
        choices=("uncomp", "arbit", "length", "values"),
        default="values",
    )
    add_scale_args(p_atpg)
    add_budget_args(p_atpg)
    add_cache_arg(p_atpg)
    p_atpg.add_argument("--show-tests", action="store_true")
    p_atpg.set_defaults(func=_cmd_atpg)

    p_enrich = sub.add_parser("enrich", help="test enrichment (P0 + P1)")
    p_enrich.add_argument("circuit")
    add_scale_args(p_enrich)
    add_budget_args(p_enrich)
    add_cache_arg(p_enrich)
    p_enrich.set_defaults(func=_cmd_enrich)

    p_tables = sub.add_parser("tables", help="regenerate the paper's tables")
    p_tables.add_argument("--scale", choices=sorted(SCALES), default="default")
    p_tables.add_argument("--out", help="also write results JSON here")
    p_tables.add_argument("--from-json", help="render from cached results JSON")
    p_tables.add_argument(
        "--quick", action="store_true", help="only one circuit (smoke run)"
    )
    p_tables.add_argument(
        "--max-faults", type=int, default=None, help="override the scale's N_P"
    )
    p_tables.add_argument(
        "--p0-min-faults", type=int, default=None, help="override the scale's N_P0"
    )
    p_tables.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        metavar="N",
        help="worker processes for the per-circuit sweep "
        "(default: all CPUs; 1 = in-process serial path)",
    )
    p_tables.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist each result to DIR as it completes "
        "(<circuit>.json; cleared first unless --resume)",
    )
    p_tables.add_argument(
        "--resume",
        action="store_true",
        help="skip circuits already checkpointed under --checkpoint-dir "
        "(output is identical to an uninterrupted run)",
    )
    p_tables.add_argument(
        "--timeout",
        type=_positive_float_arg,
        default=None,
        metavar="SECONDS",
        help="per-circuit wall-clock budget on the pool path "
        "(default: unlimited)",
    )
    p_tables.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append a structured run record (sha, machine, config, "
        "per-circuit runtimes, abort taxonomy, cache hit rates) to this "
        "JSONL run journal after the run; experiment output is "
        "unaffected",
    )
    add_budget_args(p_tables)
    add_cache_arg(p_tables)
    p_tables.set_defaults(func=_cmd_tables)

    p_cache = sub.add_parser(
        "cache", help="persistent artifact store: ls / verify / gc"
    )
    csub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_cls = csub.add_parser("ls", help="list stored artifacts (newest first)")
    add_cache_arg(p_cls)
    p_cls.set_defaults(func=_cmd_cache_ls)

    p_cverify = csub.add_parser(
        "verify",
        help="decode and integrity-check every entry (exit 1 on corruption)",
    )
    add_cache_arg(p_cverify)
    p_cverify.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt entries and drain the quarantine "
        "directory (exit 0: the store is healed, intact entries kept)",
    )
    p_cverify.set_defaults(func=_cmd_cache_verify)

    p_cgc = csub.add_parser(
        "gc",
        help="evict least-recently-used entries until the store fits the "
        "size bound (loads refresh an entry's mtime)",
    )
    add_cache_arg(p_cgc)
    p_cgc.add_argument(
        "--max-bytes",
        type=_nonnegative_int_arg,
        required=True,
        metavar="N",
        help="keep at most N bytes of newest-used entries (0 clears all)",
    )
    p_cgc.set_defaults(func=_cmd_cache_gc)

    p_journal = sub.add_parser(
        "journal", help="persistent run journal: report / gate / validate"
    )
    jsub = p_journal.add_subparsers(dest="journal_command", required=True)

    def add_journal_path(p):
        p.add_argument(
            "--journal",
            metavar="PATH",
            default="benchmarks/journal.jsonl",
            help="JSONL run journal (default: benchmarks/journal.jsonl)",
        )

    def add_journal_args(p):
        add_journal_path(p)
        p.add_argument(
            "--kind",
            choices=("tables", "bench", "service"),
            default=None,
            help="restrict to one entry kind (default: all kinds)",
        )

    p_jreport = jsub.add_parser(
        "report", help="render per-sha trend tables of the recorded metrics"
    )
    add_journal_args(p_jreport)
    p_jreport.add_argument(
        "--last",
        type=_positive_int_arg,
        default=8,
        metavar="N",
        help="newest runs shown per kind (default 8)",
    )
    p_jreport.add_argument("--out", metavar="PATH", help="also write the report here")
    p_jreport.set_defaults(func=_cmd_journal_report)

    p_jgate = jsub.add_parser(
        "gate",
        help="fail when a metric regressed against its trajectory "
        "(median of the last N recorded values, tolerance band)",
    )
    add_journal_args(p_jgate)
    p_jgate.add_argument(
        "--window",
        type=_positive_int_arg,
        default=5,
        metavar="N",
        help="history window per metric: median of the last N prior "
        "values is the reference (default 5)",
    )
    p_jgate.add_argument(
        "--tolerance",
        type=_positive_float_arg,
        default=0.25,
        metavar="T",
        help="allowed slowdown over the reference median before failing "
        "(default 0.25 = 25%%)",
    )
    p_jgate.add_argument(
        "--min-history",
        type=_positive_int_arg,
        default=1,
        metavar="N",
        help="prior values a metric needs before it is gated; younger "
        "series are reported as skipped (default 1)",
    )
    p_jgate.add_argument(
        "--all",
        action="store_true",
        help="gate every entry against its own past instead of only the "
        "newest one (validates a whole committed trajectory)",
    )
    p_jgate.set_defaults(func=_cmd_journal_gate)

    p_jvalidate = jsub.add_parser(
        "validate", help="schema-check every line of the journal file"
    )
    add_journal_path(p_jvalidate)
    p_jvalidate.set_defaults(func=_cmd_journal_validate)

    # -- service verbs --------------------------------------------------

    def add_queue_arg(p):
        p.add_argument(
            "--queue",
            metavar="DIR",
            required=True,
            help="queue directory (the whole service state: job files, "
            "WAL, checkpoints, outputs, logs, journal)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the supervised job daemon over a file-based queue",
    )
    add_queue_arg(p_serve)
    p_serve.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of polling forever "
        "(the CI mode)",
    )
    p_serve.add_argument(
        "--poll-interval",
        type=_positive_float_arg,
        default=0.5,
        metavar="SECONDS",
        help="idle sleep between queue polls (default 0.5)",
    )
    p_serve.add_argument(
        "--job-retries",
        type=_nonnegative_int_arg,
        default=1,
        metavar="N",
        help="default retry budget of a job: whole-job re-runs after a "
        "pass with a failed circuit, each resuming from the job's "
        "checkpoints (default 1; submit --max-retries overrides it)",
    )
    p_serve.add_argument(
        "--heartbeat-interval",
        type=_positive_float_arg,
        default=1.0,
        metavar="SECONDS",
        help="how often pool workers prove liveness via per-circuit "
        "heartbeat files (default 1.0)",
    )
    p_serve.add_argument(
        "--stale-after",
        type=_positive_float_arg,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat silence after which a started circuit job counts "
        "as stuck: the pass is torn down and the job retried whole "
        "(default 30.0)",
    )
    add_cache_arg(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="enqueue a tables sweep for the serve daemon"
    )
    add_queue_arg(p_submit)
    p_submit.add_argument("--scale", choices=sorted(SCALES), default="default")
    p_submit.add_argument(
        "--quick", action="store_true", help="only one circuit (smoke run)"
    )
    p_submit.add_argument(
        "--max-faults", type=int, default=None, help="override the scale's N_P"
    )
    p_submit.add_argument(
        "--p0-min-faults", type=int, default=None, help="override the scale's N_P0"
    )
    p_submit.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="worker processes for the sweep (default: all CPUs)",
    )
    p_submit.add_argument(
        "--timeout", type=_positive_float_arg, default=None, metavar="SECONDS",
        help="per-circuit wall-clock budget inside the runner",
    )
    p_submit.add_argument(
        "--max-retries", type=_nonnegative_int_arg, default=None, metavar="N",
        help="whole-job retry budget: re-runs after a pass with a failed "
        "circuit, each resuming from checkpoints (default: the daemon's "
        "--job-retries)",
    )
    add_budget_args(p_submit)
    add_cache_arg(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="daemon liveness and per-job states of a queue"
    )
    add_queue_arg(p_status)
    p_status.add_argument("job", nargs="?", default=None, help="one job id")
    p_status.set_defaults(func=_cmd_status)

    p_cancel = sub.add_parser("cancel", help="withdraw a pending job")
    add_queue_arg(p_cancel)
    p_cancel.add_argument("job", help="job id to cancel")
    p_cancel.set_defaults(func=_cmd_cancel)

    p_logs = sub.add_parser("logs", help="print one job's supervision log")
    add_queue_arg(p_logs)
    p_logs.add_argument("job", help="job id")
    p_logs.set_defaults(func=_cmd_logs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "checkpoint_dir", None):
        parser.error("--resume requires --checkpoint-dir")
    # --artifact-cache wins over REPRO_ARTIFACT_CACHE; with neither set,
    # Engine() leaves persistent caching off (the seed behaviour).
    cache_dir = getattr(args, "artifact_cache", None)
    engine = Engine(artifacts=ArtifactStore(cache_dir) if cache_dir else None)
    code = args.func(args, engine)
    if args.stats:
        print(engine.stats.format(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
