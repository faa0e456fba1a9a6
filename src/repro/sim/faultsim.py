"""Robust path-delay-fault simulation of two-pattern test sets.

Robust detection of a fault ``p`` by a fully specified test ``t`` is
equivalent to ``t`` assigning all values in ``A(p)`` (Section 2.1 of the
paper: the condition is necessary and sufficient).  Fault simulation is
therefore:

1. simulate all tests in one batch with the waveform-triple simulator
   (hazards appear as ``x`` intermediate components, which correctly fail
   steady-value requirements);
2. for every fault, check whether any test's simulated values *cover* its
   requirement set.

Cost: one levelized batch simulation plus a covering check.  The covering
check is vectorized across the whole fault population (all faults'
requirements stacked into rectangular blocks once, see
:class:`~repro.sim.cover.StackedRequirements`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..circuit.netlist import Netlist
from ..faults.universe import FaultRecord
from .batch import BatchSimulator
from .cover import CompiledRequirements, StackedRequirements
from .vectors import TwoPatternTest

if TYPE_CHECKING:  # engine imports sim; keep the reverse edge type-only
    from ..engine.session import CircuitSession

__all__ = [
    "FaultSimulator",
    "shared_fault_simulator",
    "mark_pool_worker",
    "detection_matrix",
    "detected_count",
]


class FaultSimulator:
    """Simulates a fixed fault population against arbitrary test sets.

    Every fault's requirements are stacked once, so the detection matrix
    is a few array ops per distinct requirement length.
    """

    def __init__(
        self,
        netlist: Netlist,
        records: Sequence[FaultRecord],
        simulator: BatchSimulator | None = None,
    ) -> None:
        self.netlist = netlist
        self.records = list(records)
        self.simulator = simulator or BatchSimulator(netlist)
        self._stacked = StackedRequirements(
            [CompiledRequirements(record.sens.requirements) for record in self.records]
        )

    def simulate(self, tests: Sequence[TwoPatternTest]) -> np.ndarray:
        """Simulate the test set; returns node codes ``(n_nodes, 3, K)``."""
        return self.simulator.run_triples([test.assignment for test in tests])

    def detection_matrix(self, tests: Sequence[TwoPatternTest]) -> np.ndarray:
        """Boolean matrix ``(n_faults, n_tests)``: test j detects fault i."""
        if not tests:
            return np.zeros((len(self.records), 0), dtype=bool)
        return self._stacked.covered_matrix(self.simulate(tests))

    def detected_mask(self, tests: Sequence[TwoPatternTest]) -> np.ndarray:
        """Boolean vector: fault i detected by at least one test."""
        if not tests:
            return np.zeros(len(self.records), dtype=bool)
        return self.detection_matrix(tests).any(axis=1)

    def detected_records(self, tests: Sequence[TwoPatternTest]) -> list[FaultRecord]:
        """The records detected by the test set."""
        mask = self.detected_mask(tests)
        return [record for record, hit in zip(self.records, mask) if hit]

    def coverage(self, tests: Sequence[TwoPatternTest]) -> tuple[int, int]:
        """``(detected, total)`` fault counts for the test set."""
        mask = self.detected_mask(tests)
        return int(mask.sum()), len(self.records)


# Small module-level cache so back-to-back one-shot calls on the same
# (netlist, records) share one FaultSimulator instead of recompiling the
# requirement matrices.  Keys are object identities; each entry keeps the
# netlist and records alive, so ids cannot be recycled while cached.
# Guarded by a lock: the parallel runner's threads/processes may race on
# it, and an eviction between another thread's get and move_to_end would
# otherwise corrupt the OrderedDict.
_SHARED_MAX = 8
_shared: "OrderedDict[tuple, tuple[Netlist, tuple, FaultSimulator]]" = OrderedDict()
_shared_lock = threading.Lock()
_in_pool_worker = False


def mark_pool_worker(active: bool = True) -> None:
    """Flag this process as a parallel-pool worker.

    Workers bypass the module-level cache entirely: with ``fork`` start
    they inherit a populated ``_shared`` whose entries alias parent-built
    simulators, and a short-lived worker gains nothing from caching its
    own.  Called by :mod:`repro.parallel`'s pool initializer.
    """
    global _in_pool_worker
    _in_pool_worker = active


def shared_fault_simulator(
    netlist: Netlist,
    records: Sequence[FaultRecord],
    sim: "FaultSimulator | CircuitSession | None" = None,
) -> FaultSimulator:
    """Resolve the fault simulator the one-shot wrappers should use.

    ``sim`` may be an explicit :class:`FaultSimulator`, anything with a
    session-style ``fault_simulator(records)`` accessor (e.g.
    :class:`repro.engine.CircuitSession`), or ``None`` to fall back to the
    bounded module-level cache (bypassed inside pool workers).
    """
    if isinstance(sim, FaultSimulator):
        return sim
    if sim is not None:
        return sim.fault_simulator(records)
    records = list(records)
    if _in_pool_worker:
        return FaultSimulator(netlist, records)
    key = (id(netlist), tuple(map(id, records)))
    with _shared_lock:
        entry = _shared.get(key)
        if entry is not None:
            _shared.move_to_end(key)
            return entry[2]
    # Compile outside the lock (construction is the expensive part); a
    # concurrent builder of the same key just wins the final insert.
    simulator = FaultSimulator(netlist, records)
    with _shared_lock:
        entry = _shared.get(key)
        if entry is not None:
            _shared.move_to_end(key)
            return entry[2]
        _shared[key] = (netlist, tuple(records), simulator)
        while len(_shared) > _SHARED_MAX:
            _shared.popitem(last=False)
    return simulator


def detection_matrix(
    netlist: Netlist,
    records: Sequence[FaultRecord],
    tests: Sequence[TwoPatternTest],
    sim: "FaultSimulator | CircuitSession | None" = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`FaultSimulator`."""
    return shared_fault_simulator(netlist, records, sim).detection_matrix(tests)


def detected_count(
    netlist: Netlist,
    records: Sequence[FaultRecord],
    tests: Sequence[TwoPatternTest],
    sim: "FaultSimulator | CircuitSession | None" = None,
) -> int:
    """Number of ``records`` detected by ``tests``."""
    simulator = shared_fault_simulator(netlist, records, sim)
    return int(simulator.detected_mask(tests).sum())
