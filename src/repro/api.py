"""High-level convenience API.

These helpers chain the full pipeline -- load/expand circuit, enumerate the
longest paths, select target sets, generate tests -- behind one call each,
with the paper's defaults scaled by two arguments (``max_faults`` = N_P,
``p0_min_faults`` = N_P0).

Every helper accepts an optional ``session`` (a
:class:`repro.engine.CircuitSession`); passing one reuses its cached
artifacts -- compiled simulator, justifier, path enumeration, target sets
-- across calls.  Without a session each call builds a private one, which
reproduces the historical one-shot behaviour.
"""

from __future__ import annotations

from .atpg.enrich import EnrichmentReport
from .atpg.generator import AtpgConfig, Heuristic
from .atpg.result import GenerationResult
from .circuit.library import load_circuit
from .circuit.netlist import Netlist
from .circuit.transform import pdf_ready
from .engine import CircuitSession
from .faults.conditions import Mode
from .faults.universe import TargetSets
from .sim.batch import BatchSimulator

__all__ = ["resolve_circuit", "prepare_targets", "basic_atpg_circuit", "enrich_circuit"]


def resolve_circuit(circuit: str | Netlist) -> Netlist:
    """Accept a registry name or an existing netlist; ensure PDF-ready."""
    netlist = load_circuit(circuit) if isinstance(circuit, str) else circuit
    return pdf_ready(netlist)


def _session(
    circuit: str | Netlist,
    session: CircuitSession | None,
    simulator: BatchSimulator | None = None,
) -> CircuitSession:
    """Use the caller's session when given, else build a throwaway one."""
    if session is not None:
        return session
    return CircuitSession(circuit, simulator=simulator)


def prepare_targets(
    circuit: str | Netlist,
    max_faults: int = 10000,
    p0_min_faults: int = 1000,
    mode: Mode = "robust",
    filter_implications: bool = True,
    simulator: BatchSimulator | None = None,
    session: CircuitSession | None = None,
) -> TargetSets:
    """Enumerate paths and build the target sets ``P0`` / ``P1``.

    ``filter_implications`` enables the paper's second undetectable-fault
    elimination (implication conflicts); it runs one necessary-value
    fixpoint per sensitized fault, all of them in lockstep on shared
    whole-netlist simulations.
    """
    session = _session(circuit, session, simulator)
    return session.target_sets(
        max_faults=max_faults,
        p0_min_faults=p0_min_faults,
        mode=mode,
        filter_implications=filter_implications,
    )


def basic_atpg_circuit(
    circuit: str | Netlist,
    heuristic: Heuristic = "values",
    max_faults: int = 10000,
    p0_min_faults: int = 1000,
    seed: int = 1,
    mode: Mode = "robust",
    targets: TargetSets | None = None,
    max_secondary_attempts: int | None = None,
    session: CircuitSession | None = None,
) -> GenerationResult:
    """Basic test generation for ``P0`` only (Tables 3 and 4).

    Pass a pre-built ``targets`` (or a shared ``session``) to reuse one
    enumeration across several heuristics, as the paper's experiments do.
    """
    session = _session(circuit, session)
    if targets is None:
        targets = session.target_sets(
            max_faults=max_faults, p0_min_faults=p0_min_faults, mode=mode
        )
    config = AtpgConfig(
        heuristic=heuristic, seed=seed, max_secondary_attempts=max_secondary_attempts
    )
    return session.generate_basic(targets.p0, config)


def enrich_circuit(
    circuit: str | Netlist,
    max_faults: int = 10000,
    p0_min_faults: int = 1000,
    seed: int = 1,
    mode: Mode = "robust",
    targets: TargetSets | None = None,
    max_secondary_attempts: int | None = None,
    session: CircuitSession | None = None,
) -> EnrichmentReport:
    """Full test enrichment with ``P0`` and ``P1`` (Table 6).

    Uses the value-based compaction heuristic, the one the paper selects
    for the enrichment procedure.
    """
    session = _session(circuit, session)
    if targets is None:
        targets = session.target_sets(
            max_faults=max_faults, p0_min_faults=p0_min_faults, mode=mode
        )
    config = AtpgConfig(
        heuristic="values", seed=seed, max_secondary_attempts=max_secondary_attempts
    )
    report = session.generate_enriched(targets, config)
    assert isinstance(report, EnrichmentReport)
    return report
