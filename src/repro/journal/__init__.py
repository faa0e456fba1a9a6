"""Persistent run journal: an operable time series of every measured run.

The repo's perf evidence used to be disconnected snapshots -- one
``BENCH_PR*.json`` baseline per PR, wall-clock history as prose in
EXPERIMENTS.md.  The journal replaces that with a single append-only
JSONL trajectory (``benchmarks/journal.jsonl``): every ``tables`` sweep
and every ``tools/bench_compare.py`` run appends a structured entry
(git sha, timestamp, machine fingerprint, config, metric series,
per-phase runtimes, abort-taxonomy counters, cache hit rates, per-circuit
job records), and two consumers read it back:

* ``repro-pdf journal report`` -- per-sha trend tables
  (:mod:`repro.journal.report`);
* ``repro-pdf journal gate`` -- regression gating against the
  median-of-last-N trajectory instead of one hand-committed baseline
  (:mod:`repro.journal.gate`).

Layering: :mod:`.schema` defines and validates entries and builds them
from experiment results / bench payloads, :mod:`.writer` appends,
:mod:`.reader` reads tolerantly (corrupt lines are reported, never
fatal), :mod:`.report` and :mod:`.gate` are the pure presenter/judge
layers on the decoded entries.  Everything is stdlib-only and
import-light so ``tools/bench_compare.py`` and CI snippets can use it
without pulling in the simulation stack.
"""

from .gate import (
    GateFinding,
    GateReport,
    gate_candidate,
    gate_trajectory,
)
from .reader import JournalProblem, JournalRead, read_journal
from .report import format_value, render_report, report_rows
from .schema import (
    KINDS,
    SCHEMA_VERSION,
    SERVICE_EVENTS,
    bench_entry,
    git_sha,
    machine_fingerprint,
    service_entry,
    tables_entry,
    utc_now,
    validate_entry,
)
from .writer import JournalSchemaError, append_entry, encode_entry

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "SERVICE_EVENTS",
    "validate_entry",
    "machine_fingerprint",
    "git_sha",
    "utc_now",
    "tables_entry",
    "bench_entry",
    "service_entry",
    "append_entry",
    "encode_entry",
    "JournalSchemaError",
    "read_journal",
    "JournalRead",
    "JournalProblem",
    "format_value",
    "render_report",
    "report_rows",
    "gate_candidate",
    "gate_trajectory",
    "GateReport",
    "GateFinding",
]
