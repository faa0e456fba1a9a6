"""Schema of the persistent run journal.

A journal is an append-only JSONL file: one self-describing JSON object
per line, one line per recorded run.  Entries are the unit every other
journal layer operates on -- the writer appends them, the reader yields
them, the report renders their ``metrics`` as per-sha series and the
gate compares the newest value of each series against the trajectory of
the older ones.

Entry layout (``v`` = :data:`SCHEMA_VERSION`):

* ``v``       -- schema version (int, required);
* ``kind``    -- what produced the entry: ``"tables"`` for experiment
  sweeps, ``"bench"`` for ``tools/bench_compare.py`` runs,
  ``"service"`` for job-lifecycle events of the ``repro serve`` daemon
  (required);
* ``ts``      -- UTC ISO-8601 timestamp (required);
* ``sha``     -- git commit of the measured tree, ``"unknown"`` outside
  a repository (required);
* ``dirty``   -- whether the working tree had local modifications;
* ``machine`` -- fingerprint of the measuring host: at least ``python``
  and ``platform``, plus ``cpus`` when known (required);
* ``config``  -- run parameters (scale, circuits, jobs, budget
  spec, bench repeats ...), free-form JSON scalars;
* ``metrics`` -- flat ``{name: seconds-or-ratio}`` map (required).
  This is the *trend unit*: the report charts each name across shas and
  the gate treats larger values as worse, so only put
  cost-like quantities here (wall clocks, per-phase seconds, cache
  fractions) -- never throughput or hit rates;
* ``phases``  -- per-phase runtime breakdown (engine timers);
* ``counters``-- abort-taxonomy, robustness and backend counters
  (``backend.*``, ``budget.*``, ``parallel.*``, ``checkpoint.*``);
* ``caches``  -- per-cache ``{hit, miss, rate}`` from ``EngineStats``;
* ``jobs``    -- per-circuit runner records (key, wall seconds).

``"service"`` entries (schema v2) additionally require:

* ``event`` -- lifecycle transition, one of :data:`SERVICE_EVENTS`
  (``queued``/``leased``/``heartbeat``/``retried``/``readopted``/
  ``released``/``degraded``/``failed``/``done``/``canceled``/
  ``shutdown``);
* ``job``   -- the job id the event belongs to (non-empty string).

Their ``metrics`` map may be empty (lifecycle events are not trend
points unless they carry one, e.g. ``service.wall_seconds`` on
``done``), which keeps them invisible to the trajectory gate.

Only the required keys are enforced; optional sections may be absent so
old entries stay valid as the builders grow richer.  Version history:
v1 -- tables/bench entries; v2 -- adds the ``service`` kind (v1 entries
remain valid: readers are tolerant and the version check only rejects
entries *newer* than the library).
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from ..engine.stats import EngineStats
    from ..experiments.results import ExperimentResults

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "SERVICE_EVENTS",
    "validate_entry",
    "machine_fingerprint",
    "git_sha",
    "git_dirty",
    "utc_now",
    "tables_entry",
    "bench_entry",
    "service_entry",
]

SCHEMA_VERSION = 2

#: Known entry producers.  Unknown kinds fail validation: a journal is a
#: long-lived committed artifact, so typos must not dilute a series.
KINDS = ("tables", "bench", "service")

#: Job-lifecycle transitions a ``"service"`` entry may record.
SERVICE_EVENTS = (
    "queued",
    "leased",
    "heartbeat",
    "retried",
    "readopted",
    "released",
    "degraded",
    "failed",
    "done",
    "canceled",
    "shutdown",
)

#: Session caches whose hit/miss counters are worth journaling
#: ("artifact" is the persistent on-disk store of :mod:`repro.artifacts`).
_CACHES = ("enumerate", "target_sets", "fault_simulator", "cone", "artifact")

#: Counter prefixes copied from ``EngineStats`` into ``entry["counters"]``
#: (the abort taxonomy, the runner's fault-tolerance bookkeeping, the
#: artifact store's write/corrupt accounting and the implication filter's
#: simulations).
_COUNTER_PREFIXES = (
    "backend.",
    "budget.",
    "parallel.",
    "checkpoint.",
    "artifact.",
    "implication.",
)


def validate_entry(entry: object) -> list[str]:
    """Schema problems of one decoded journal line (empty = valid)."""
    if not isinstance(entry, dict):
        return [f"entry is {type(entry).__name__}, not an object"]
    problems = []
    version = entry.get("v")
    if not isinstance(version, int):
        problems.append("missing integer schema version 'v'")
    elif version > SCHEMA_VERSION:
        problems.append(f"schema version {version} is newer than {SCHEMA_VERSION}")
    kind = entry.get("kind")
    if kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {kind!r}")
    if not isinstance(entry.get("ts"), str) or not entry.get("ts"):
        problems.append("missing timestamp 'ts'")
    if not isinstance(entry.get("sha"), str) or not entry.get("sha"):
        problems.append("missing commit 'sha'")
    machine = entry.get("machine")
    if not isinstance(machine, dict) or not {"python", "platform"} <= set(machine):
        problems.append("'machine' must carry at least python and platform")
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("missing 'metrics' object")
    else:
        for name, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"metric {name!r} is not a number")
    if kind == "service":
        event = entry.get("event")
        if event not in SERVICE_EVENTS:
            problems.append(
                f"service event must be one of {SERVICE_EVENTS}, got {event!r}"
            )
        job = entry.get("job")
        if not isinstance(job, str) or not job:
            problems.append("service entry missing job id 'job'")
    return problems


def machine_fingerprint() -> dict:
    """Identity of the measuring host (stable within one container/runner)."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
    }


def _git(args: list[str], cwd: str | None) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def git_sha(cwd: str | None = None) -> str:
    """Current commit, ``REPRO_JOURNAL_SHA`` override, or ``"unknown"``.

    The override is how tests and backfill scripts pin entries to a
    specific historical commit without checking it out.
    """
    override = os.environ.get("REPRO_JOURNAL_SHA")
    if override:
        return override
    return _git(["rev-parse", "HEAD"], cwd) or "unknown"


def git_dirty(cwd: str | None = None) -> bool:
    """True when the working tree differs from ``sha`` (numbers may lie)."""
    status = _git(["status", "--porcelain"], cwd)
    return bool(status)


def utc_now() -> str:
    """UTC ISO-8601 timestamp with second precision."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _base_entry(
    kind: str,
    sha: str | None,
    ts: str | None,
    machine: dict | None,
    dirty: bool | None = None,
) -> dict:
    # ``dirty`` describes the *tree*, not the sha: an explicit sha (or a
    # REPRO_JOURNAL_SHA override) must not silently launder a modified
    # working tree into ``dirty: False``.  Callers that genuinely know
    # better (backfill scripts replaying committed states) pass ``dirty``
    # explicitly.
    return {
        "v": SCHEMA_VERSION,
        "kind": kind,
        "ts": ts if ts is not None else utc_now(),
        "sha": git_sha() if sha is None else sha,
        "dirty": git_dirty() if dirty is None else bool(dirty),
        "machine": machine if machine is not None else machine_fingerprint(),
    }


def _cache_section(stats: "EngineStats") -> dict:
    caches = {}
    for cache in _CACHES:
        hits, misses = stats.hits(cache), stats.misses(cache)
        if hits or misses:
            caches[cache] = {
                "hit": hits,
                "miss": misses,
                "rate": round(hits / (hits + misses), 4),
            }
    return caches


def tables_entry(
    results: "ExperimentResults",
    stats: "EngineStats",
    *,
    wall_seconds: float,
    config: Mapping | None = None,
    jobs: list[dict] | None = None,
    sha: str | None = None,
    ts: str | None = None,
    machine: dict | None = None,
    dirty: bool | None = None,
) -> dict:
    """Journal entry for one ``tables`` sweep.

    Metrics are the sweep's wall clock plus every measured
    ``runtime_seconds`` of the results (one series per circuit and
    heuristic, ``<circuit>.enrich` for Table 6 rows), so the trajectory
    tracks exactly the numbers EXPERIMENTS.md used to quote as prose.
    Reading ``results``/``stats`` never mutates them: journaling must
    leave the experiment output byte-identical to an unjournaled run.
    """
    entry = _base_entry("tables", sha, ts, machine, dirty)
    metrics = {"tables.wall_seconds": round(wall_seconds, 6)}
    aborted_basic = aborted_enrich = 0
    for circuit, result in results.basic.items():
        for heuristic, outcome in result.outcomes.items():
            metrics[f"{circuit}.{heuristic}.seconds"] = round(
                outcome.runtime_seconds, 6
            )
            aborted_basic += outcome.aborted
    for row in results.table6:
        metrics[f"{row.circuit}.enrich.seconds"] = round(row.runtime_seconds, 6)
        aborted_enrich += row.aborted
    entry["metrics"] = metrics
    entry["config"] = dict(config or {})
    entry["config"].setdefault("scale", results.scale)
    counters = {
        name: value
        for name, value in sorted(stats.counters.items())
        if name.startswith(_COUNTER_PREFIXES)
    }
    counters["aborted.basic"] = aborted_basic
    counters["aborted.enrich"] = aborted_enrich
    entry["counters"] = counters
    entry["phases"] = {
        name: round(value, 6) for name, value in sorted(stats.timers.items())
    }
    entry["caches"] = _cache_section(stats)
    if jobs:
        entry["jobs"] = jobs
    return entry


def bench_entry(
    payload: Mapping,
    *,
    config: Mapping | None = None,
    sha: str | None = None,
    ts: str | None = None,
    machine: dict | None = None,
    dirty: bool | None = None,
) -> dict:
    """Journal entry for one ``tools/bench_compare.py`` run.

    ``payload`` is the bench script's own output document
    (``{"meta": ..., "results": ...}``); its result names become the
    metric series, so the journal trajectory lines up one-to-one with
    the committed ``BENCH_PR*.json`` snapshots it supersedes.
    """
    meta = dict(payload.get("meta", {}))
    if machine is None and {"python", "platform"} <= set(meta):
        machine = {**machine_fingerprint(), **meta}
    entry = _base_entry("bench", sha, ts, machine, dirty)
    entry["metrics"] = {
        name: float(value) for name, value in payload.get("results", {}).items()
    }
    entry["config"] = dict(config or {})
    return entry


def service_entry(
    event: str,
    job: str,
    *,
    detail: Mapping | None = None,
    metrics: Mapping | None = None,
    sha: str | None = None,
    ts: str | None = None,
    machine: dict | None = None,
    dirty: bool | None = None,
) -> dict:
    """Journal entry for one job-lifecycle event of the service daemon.

    ``detail`` is free-form context for humans and tests (attempt
    numbers, failure phases, queue paths); ``metrics`` defaults to ``{}``
    so lifecycle chatter never feeds the trajectory gate -- only events
    that explicitly carry a cost series (``done`` with
    ``service.wall_seconds``) become trend points.
    """
    if event not in SERVICE_EVENTS:
        raise ValueError(
            f"service event must be one of {SERVICE_EVENTS}, got {event!r}"
        )
    entry = _base_entry("service", sha, ts, machine, dirty)
    entry["event"] = event
    entry["job"] = job
    entry["metrics"] = {
        name: float(value) for name, value in (metrics or {}).items()
    }
    if detail:
        entry["detail"] = dict(detail)
    return entry
