"""Target-fault-set construction: ``P``, ``P0`` and ``P1`` (Section 3.1).

Pipeline:

1. enumerate the faults on the longest paths (``repro.paths.enumerate``),
   capped at ``N_P``;
2. compute ``A(p)`` for each fault and drop self-conflicting faults (the
   paper's type-1 undetectable elimination); given a justifier, drop the
   faults whose implications conflict (type 2), all settled by one
   lockstep :func:`repro.atpg.justify.implication_conflicts` call;
3. build the length table and pick the smallest ``i_0`` such that the
   faults on paths of length ``>= L_{i_0}`` number at least ``N_P0``;
4. ``P0`` = those faults, ``P1`` = the remainder of ``P``;
5. check the Section 3.1 invariants (:func:`check_target_sets`).

The resulting :class:`TargetSets` carries a :class:`FaultRecord` (fault +
its sensitization requirements) for every surviving fault, which is the
currency the test generator, fault simulator and enrichment driver trade
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..circuit.netlist import Netlist
from ..robustness import DEADLINE, Budget, InternalInvariantError
from .conditions import Mode, Sensitization, sensitize
from .fault import PathDelayFault, faults_of_paths

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..paths.enumerate import EnumerationResult
    from ..paths.lengths import LengthTable

__all__ = [
    "FaultRecord",
    "TargetSets",
    "build_target_sets",
    "check_target_sets",
    "partition_by_lengths",
]


@dataclass(frozen=True)
class FaultRecord:
    """A detectable-so-far fault together with its requirement set."""

    fault: PathDelayFault
    sens: Sensitization

    @property
    def length(self) -> int:
        """Path length of the fault."""
        return self.fault.length

    def __repr__(self) -> str:
        return f"FaultRecord({self.fault!r}, |A|={self.sens.num_values})"


@dataclass
class TargetSets:
    """The sets of target faults the enrichment procedure works with."""

    netlist: Netlist
    #: First (mandatory) target set: faults on the longest paths.
    p0: list[FaultRecord]
    #: Second (opportunistic) target set: faults on next-to-longest paths.
    p1: list[FaultRecord]
    #: Row index i_0 selecting the P0/P1 length boundary.
    i0: int
    #: Length table over all surviving faults of P (Table 2 layout).
    length_table: LengthTable
    #: Faults removed because A(p) is self-conflicting (type 1).
    dropped_conflict: int = 0
    #: Faults removed by the implication filter (type 2).
    dropped_implication: int = 0
    #: Raw enumeration diagnostics.
    enumeration: EnumerationResult | None = None
    #: Budget reason (e.g. ``deadline``) that cut target-set construction
    #: short, or ``None`` for a complete build.  When set, faults past the
    #: cut-off were never sensitized and are absent from ``P0``/``P1``.
    budget_exhausted: str | None = None

    @property
    def all_records(self) -> list[FaultRecord]:
        """``P = P0 + P1`` (P0 first)."""
        return self.p0 + self.p1

    @property
    def boundary_length(self) -> int:
        """``L_{i_0}``: minimum path length admitted to ``P0``."""
        return self.length_table.length_at(self.i0) if len(self.length_table) else 0

    def summary(self) -> str:
        """One-line description used by reports."""
        return (
            f"{self.netlist.name}: i0={self.i0} (L_i0={self.boundary_length}), "
            f"|P0|={len(self.p0)}, |P1|={len(self.p1)}, "
            f"dropped: {self.dropped_conflict} conflicting, "
            f"{self.dropped_implication} by implication"
        )


def build_target_sets(
    netlist: Netlist,
    max_faults: int = 10000,
    p0_min_faults: int = 1000,
    mode: Mode = "robust",
    use_distances: bool = True,
    enumeration: "EnumerationResult | None" = None,
    justifier=None,
    budget: Budget | None = None,
) -> "TargetSets":
    """Construct ``P0`` and ``P1`` for a circuit.

    Parameters mirror the paper: ``max_faults`` is ``N_P`` (default 10000)
    and ``p0_min_faults`` is ``N_P0`` (default 1000).  With a
    :class:`repro.atpg.justify.Justifier` as ``justifier`` (e.g. the one a
    :class:`repro.engine.CircuitSession` owns), faults whose
    necessary-value fixpoint ends in a conflict are dropped as
    undetectable: all of them are settled by one lockstep
    :func:`repro.atpg.justify.implication_conflicts` call.  A precomputed
    ``enumeration`` (e.g. from a session cache) skips the path
    enumeration; it must have been produced with the same ``max_faults``
    cap.

    A non-null ``budget`` bounds the build: its caps flow into the path
    enumeration, and its deadline is checked between faults during
    sensitization and between rounds of the implication filter -- on
    expiry the sets are built from the longest prefix of faults processed
    so far and ``budget_exhausted`` records the cut.

    The result is checked against the Section 3.1 invariants
    (:func:`check_target_sets`); a violation raises
    :class:`~repro.robustness.InternalInvariantError`.
    """
    from ..paths.enumerate import enumerate_paths
    from ..paths.lengths import length_table_for_faults

    if budget is not None and budget.is_null:
        budget = None
    if budget is not None:
        budget.start()

    if enumeration is None:
        enumeration = enumerate_paths(
            netlist, max_faults=max_faults, use_distances=use_distances, budget=budget
        )

    records: list[FaultRecord] = []
    # Type-1 drops seen before each kept record: the count to report when
    # the implication filter stops at that record.
    conflicts_before: list[int] = []
    dropped_conflict = 0
    dropped_implication = 0
    budget_exhausted = enumeration.budget_exhausted
    for fault in faults_of_paths(enumeration.paths):
        if budget is not None and budget.deadline_expired():
            budget_exhausted = DEADLINE
            break
        sens = sensitize(netlist, fault, mode=mode)
        if sens is None:
            dropped_conflict += 1
            continue
        records.append(FaultRecord(fault, sens))
        conflicts_before.append(dropped_conflict)

    if justifier is not None and records:
        # Lazy import: faults must not depend on atpg at module level.
        from ..atpg.justify import implication_conflicts
        from ..atpg.requirements import RequirementSet

        conflicts = implication_conflicts(
            justifier,
            (RequirementSet(record.sens.requirements) for record in records),
            budget=budget,
        )
        if len(conflicts) < len(records):
            budget_exhausted = DEADLINE
            dropped_conflict = conflicts_before[len(conflicts)]
        dropped_implication = sum(conflicts)
        records = [record for record, bad in zip(records, conflicts) if not bad]

    table = length_table_for_faults(record.fault for record in records)
    i0 = table.select_index(p0_min_faults)
    boundary = table.length_at(i0) if len(table) else 0
    p0 = [record for record in records if record.length >= boundary]
    p1 = [record for record in records if record.length < boundary]
    targets = TargetSets(
        netlist=netlist,
        p0=p0,
        p1=p1,
        i0=i0,
        length_table=table,
        dropped_conflict=dropped_conflict,
        dropped_implication=dropped_implication,
        enumeration=enumeration,
        budget_exhausted=budget_exhausted,
    )
    problems = check_target_sets(targets, max_faults, p0_min_faults)
    if problems:
        raise InternalInvariantError(
            f"{netlist.name}: target sets break Section 3.1: " + "; ".join(problems)
        )
    return targets


def check_target_sets(
    targets: TargetSets, max_faults: int, p0_min_faults: int
) -> list[str]:
    """Section 3.1 invariants of built target sets; empty when all hold.

    No fault appears twice, ``|P| <= N_P``, every ``P0`` fault is at least
    ``L_i0`` long and every ``P1`` fault shorter, the boundary is minimal
    (the faults longer than ``L_i0`` alone number fewer than ``N_P0``),
    and ``|P0| >= N_P0`` whenever ``P`` has that many faults -- unless a
    budget cut the build short.
    """
    problems = []
    p0, p1 = targets.p0, targets.p1
    boundary = targets.boundary_length
    keys = [record.fault.key() for record in p0 + p1]
    if len(set(keys)) != len(keys):
        problems.append("P0 and P1 contain duplicate faults")
    if len(keys) > max_faults:
        problems.append(f"|P| = {len(keys)} exceeds N_P = {max_faults}")
    if any(record.length < boundary for record in p0):
        problems.append(f"P0 holds a fault shorter than L_i0 = {boundary}")
    if any(record.length >= boundary for record in p1):
        problems.append(f"P1 holds a fault at least L_i0 = {boundary} long")
    if sum(record.length > boundary for record in p0) >= max(p0_min_faults, 1):
        problems.append("a longer boundary would already give N_P0 faults")
    if targets.budget_exhausted is None and len(p0) < min(p0_min_faults, len(keys)):
        problems.append(f"|P0| = {len(p0)} is below N_P0 = {p0_min_faults}")
    return problems


def partition_by_lengths(
    records: Sequence[FaultRecord], boundaries: Iterable[int]
) -> list[list[FaultRecord]]:
    """Split records into subsets ``P0, P1, ..., Pk`` by length thresholds.

    ``boundaries`` are decreasing minimum lengths; records with length
    ``>= boundaries[0]`` go to the first subset, then ``>= boundaries[1]``,
    and so on; anything below the last boundary forms the final subset.
    This generalizes the two-set scheme the paper evaluates ("it is
    possible to partition P into a larger number of subsets").
    """
    thresholds = sorted(set(boundaries), reverse=True)
    subsets: list[list[FaultRecord]] = [[] for _ in range(len(thresholds) + 1)]
    for record in records:
        for rank, threshold in enumerate(thresholds):
            if record.length >= threshold:
                subsets[rank].append(record)
                break
        else:
            subsets[-1].append(record)
    return subsets
