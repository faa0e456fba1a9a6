"""Per-circuit engine sessions with artifact caching.

Every entry point used to rebuild the expensive per-circuit artifacts from
scratch: the compiled :class:`~repro.sim.batch.BatchSimulator`, the
:class:`~repro.atpg.justify.Justifier`, per-population fault simulators and
the enumerated target sets.  A :class:`CircuitSession` owns all of them
behind memoizing accessors, so any number of generation runs, table
experiments or fault simulations against one circuit share one enumeration
and one compiled simulator.

An :class:`Engine` pools sessions across circuits (one per netlist) behind
a single shared :class:`~repro.engine.stats.EngineStats`, which is what the
CLI and the table drivers use for whole-invocation instrumentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..artifacts import (
    ArtifactStore,
    load_enumeration,
    load_target_sets,
    netlist_digest,
    publish_enumeration,
    publish_target_sets,
)
from ..atpg.enrich import generate_enriched
from ..atpg.generator import AtpgConfig, generate_basic
from ..atpg.justify import Justifier
from ..circuit.library import load_circuit
from ..circuit.netlist import Netlist
from ..circuit.transform import pdf_ready
from ..envflags import artifact_cache_dir
from ..faults.conditions import Mode
from ..faults.universe import FaultRecord, TargetSets, build_target_sets
from ..robustness import Budget
from ..sim.batch import BatchSimulator
from ..sim.faultsim import FaultSimulator
from .stats import EngineStats

if TYPE_CHECKING:
    from ..atpg.enrich import EnrichmentReport
    from ..atpg.result import GenerationResult
    from ..paths.enumerate import EnumerationResult

__all__ = ["CircuitSession", "Engine"]


class CircuitSession:
    """All derived artifacts of one PDF-ready netlist, built once.

    Accessors are memoized: repeated calls with the same key return the
    *same object* and record a cache hit in :attr:`stats`.  The session is
    the unit of reuse -- pass one session through ``api``/``cli``/
    ``experiments`` calls and path enumeration, requirement compilation and
    simulator construction happen exactly once per key.
    """

    def __init__(
        self,
        circuit: str | Netlist,
        stats: EngineStats | None = None,
        simulator: BatchSimulator | None = None,
        budget: Budget | None = None,
        artifacts: ArtifactStore | None = None,
    ) -> None:
        """``budget`` is the session-wide resource budget, applied to every
        accessor unless a call passes its own.  Memoized artifacts are
        cached per parameter key regardless of budget: a session lives
        inside one run and shares that run's budget, so a degraded
        artifact is exactly the one every later stage should reuse.

        ``artifacts`` is an optional persistent :class:`ArtifactStore`:
        enumeration/target-set accessors consult it before computing and
        publish after, but only for *unbudgeted* calls -- budgeted builds
        are wall-clock dependent and bypass the store entirely, so cached
        entries are always complete and deterministic."""
        self.stats = stats if stats is not None else EngineStats()
        self.budget = budget if budget is None or not budget.is_null else None
        netlist = load_circuit(circuit) if isinstance(circuit, str) else circuit
        self.netlist = pdf_ready(netlist)
        self.artifacts = artifacts
        self._artifact_digest: str | None = None
        self._simulator = simulator
        if simulator is not None and simulator.stats is None:
            simulator.stats = self.stats
        self._justifier: Justifier | None = None
        self._enumerations: dict[tuple[int, bool], "EnumerationResult"] = {}
        self._target_sets: dict[tuple[int, int, Mode, bool], TargetSets] = {}
        self._fault_simulators: dict[tuple, FaultSimulator] = {}

    # -- core artifacts ------------------------------------------------

    @property
    def simulator(self) -> BatchSimulator:
        """The compiled batch simulator (compiled on first access)."""
        if self._simulator is None:
            self.stats.count("simulator.build")
            with self.stats.timer("simulator.build"):
                self._simulator = BatchSimulator(self.netlist, stats=self.stats)
        return self._simulator

    @property
    def justifier(self) -> Justifier:
        """The justification engine, bound to :attr:`simulator`."""
        if self._justifier is None:
            self.stats.count("justifier.build")
            self._justifier = Justifier(
                self.netlist, self.simulator, stats=self.stats
            )
        return self._justifier

    def _budget(self, budget: Budget | None) -> Budget | None:
        """The effective budget for one call (argument wins, null is None)."""
        if budget is None:
            return self.budget
        return None if budget.is_null else budget

    def _store_for(self, budget: Budget | None) -> ArtifactStore | None:
        """The artifact store to consult for one call, if any.

        Only unbudgeted calls see the store: a budget may truncate the
        artifact, and a truncated artifact must neither be replayed nor
        shadow the degraded build this run's later stages should reuse.
        """
        if self.artifacts is None or budget is not None:
            return None
        return self.artifacts

    @property
    def artifact_digest(self) -> str:
        """Content digest of the session's PDF-ready netlist (lazy)."""
        if self._artifact_digest is None:
            self._artifact_digest = netlist_digest(self.netlist)
        return self._artifact_digest

    def enumeration(
        self,
        max_faults: int,
        use_distances: bool = True,
        budget: Budget | None = None,
    ) -> "EnumerationResult":
        """Bounded longest-path enumeration, cached per ``(cap, variant)``."""
        from ..paths.enumerate import enumerate_paths

        key = (max_faults, use_distances)
        cached = self._enumerations.get(key)
        if cached is not None:
            self.stats.hit("enumerate")
            return cached
        self.stats.miss("enumerate")
        budget = self._budget(budget)
        store = self._store_for(budget)
        if store is not None:
            with self.stats.timer("artifact.load"):
                loaded = load_enumeration(
                    store,
                    self.netlist,
                    max_faults=max_faults,
                    use_distances=use_distances,
                    digest=self.artifact_digest,
                    stats=self.stats,
                )
            if loaded is not None:
                self._enumerations[key] = loaded
                return loaded
        with self.stats.timer("enumerate"):
            result = enumerate_paths(
                self.netlist,
                max_faults=max_faults,
                use_distances=use_distances,
                budget=budget,
            )
        if store is not None:
            publish_enumeration(
                store,
                self.netlist,
                result,
                max_faults=max_faults,
                use_distances=use_distances,
                digest=self.artifact_digest,
                stats=self.stats,
            )
        self._enumerations[key] = result
        return result

    def target_sets(
        self,
        max_faults: int = 10000,
        p0_min_faults: int = 1000,
        mode: Mode = "robust",
        filter_implications: bool = True,
        budget: Budget | None = None,
    ) -> TargetSets:
        """``P0`` / ``P1`` construction, cached per full parameter key."""
        key = (max_faults, p0_min_faults, mode, filter_implications)
        cached = self._target_sets.get(key)
        if cached is not None:
            self.stats.hit("target_sets")
            return cached
        self.stats.miss("target_sets")
        budget = self._budget(budget)
        store = self._store_for(budget)
        if store is not None:
            with self.stats.timer("artifact.load"):
                loaded = load_target_sets(
                    store,
                    self.netlist,
                    max_faults=max_faults,
                    p0_min_faults=p0_min_faults,
                    mode=mode,
                    filter_implications=filter_implications,
                    digest=self.artifact_digest,
                    stats=self.stats,
                )
            if loaded is not None:
                self._target_sets[key] = loaded
                return loaded
        enumeration = self.enumeration(max_faults, budget=budget)
        with self.stats.timer("target_sets"):
            targets = build_target_sets(
                self.netlist,
                max_faults=max_faults,
                p0_min_faults=p0_min_faults,
                mode=mode,
                enumeration=enumeration,
                justifier=self.justifier if filter_implications else None,
                budget=budget,
            )
        if store is not None:
            publish_target_sets(
                store,
                self.netlist,
                targets,
                max_faults=max_faults,
                p0_min_faults=p0_min_faults,
                mode=mode,
                filter_implications=filter_implications,
                digest=self.artifact_digest,
                stats=self.stats,
            )
        self._target_sets[key] = targets
        return targets

    def fault_simulator(self, records: Sequence[FaultRecord]) -> FaultSimulator:
        """A fault simulator for ``records``, cached per fault population.

        The key is the ordered tuple of fault identities, so two record
        lists describing the same population share one set of compiled
        requirement matrices.
        """
        records = list(records)
        key = tuple(record.fault.key() for record in records)
        cached = self._fault_simulators.get(key)
        if cached is not None:
            self.stats.hit("fault_simulator")
            return cached
        self.stats.miss("fault_simulator")
        with self.stats.timer("fault_simulator"):
            simulator = FaultSimulator(
                self.netlist, records, simulator=self.simulator
            )
        self._fault_simulators[key] = simulator
        return simulator

    # -- generation front ends -----------------------------------------

    def generate_basic(
        self,
        records: Sequence[FaultRecord],
        config: AtpgConfig | None = None,
        budget: Budget | None = None,
    ) -> "GenerationResult":
        """Basic test generation reusing the session's simulator/justifier."""
        with self.stats.timer("generate"):
            return generate_basic(
                self.netlist,
                records,
                config,
                simulator=self.simulator,
                justifier=self.justifier,
                budget=self._budget(budget),
            )

    def generate_enriched(
        self,
        targets: TargetSets | list[list[FaultRecord]],
        config: AtpgConfig | None = None,
        budget: Budget | None = None,
    ) -> "EnrichmentReport | GenerationResult":
        """Test enrichment reusing the session's simulator/justifier."""
        with self.stats.timer("generate"):
            return generate_enriched(
                self.netlist,
                targets,
                config,
                simulator=self.simulator,
                justifier=self.justifier,
                budget=self._budget(budget),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitSession({self.netlist.name!r}, "
            f"{len(self._target_sets)} target sets, "
            f"{len(self._fault_simulators)} fault simulators)"
        )


class Engine:
    """A pool of :class:`CircuitSession` objects sharing one stats sink.

    One engine per CLI invocation / experiment sweep: ``session(circuit)``
    returns the existing session for a circuit when there is one, so every
    stage of a multi-circuit run reuses the per-circuit artifacts.
    """

    def __init__(
        self,
        stats: EngineStats | None = None,
        budget: Budget | None = None,
        artifacts: ArtifactStore | None = None,
    ) -> None:
        """``budget`` is handed to every session this engine creates (it
        may be (re)assigned before the first ``session()`` call, which is
        how the CLI applies ``--deadline``/``--budget-profile`` to an
        engine built earlier).

        ``artifacts`` is the persistent artifact store shared by every
        session.  When omitted, ``REPRO_ARTIFACT_CACHE`` is consulted, so
        pool workers (which inherit the environment) warm-start without
        explicit plumbing; unset means caching stays off."""
        self.stats = stats if stats is not None else EngineStats()
        self.budget = budget
        if artifacts is None:
            directory = artifact_cache_dir()
            if directory:
                artifacts = ArtifactStore(directory)
        self.artifacts = artifacts
        #: Per-job completion records appended by the parallel runner
        #: (key, kind, wall seconds; resumed checkpoints are flagged).
        #: The run journal embeds them so a sweep's per-circuit cost
        #: breakdown survives alongside its aggregate numbers.
        self.job_records: list[dict] = []
        self._by_name: dict[str, CircuitSession] = {}
        self._by_identity: dict[int, CircuitSession] = {}

    def session(self, circuit: str | Netlist) -> CircuitSession:
        """Get-or-create the session for a registry name or netlist."""
        if isinstance(circuit, str):
            session = self._by_name.get(circuit)
            if session is None:
                session = CircuitSession(
                    circuit,
                    stats=self.stats,
                    budget=self.budget,
                    artifacts=self.artifacts,
                )
                self._by_name[circuit] = session
            return session
        # Netlist objects are pooled by identity; the session keeps the
        # netlist alive, so ids cannot be recycled while pooled.
        session = self._by_identity.get(id(circuit))
        if session is None:
            session = CircuitSession(
                circuit,
                stats=self.stats,
                budget=self.budget,
                artifacts=self.artifacts,
            )
            self._by_identity[id(circuit)] = session
        return session

    def sessions(self) -> list[CircuitSession]:
        """Every pooled session (creation order)."""
        return list(self._by_name.values()) + list(self._by_identity.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine({len(self._by_name) + len(self._by_identity)} sessions)"
