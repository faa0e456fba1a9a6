"""Independent detection oracle for the tests.

Re-derives robust detections the slow, obvious way, sharing no code with
the batch simulator, the packed cone kernel or the stacked covering
kernel: every test is re-simulated with the scalar reference simulator
(:func:`repro.sim.scalar.simulate_triples`), and a requirement set is
met when each required line's simulated triple covers its required one
(:meth:`repro.algebra.triple.Triple.covers`) -- the paper's
necessary-and-sufficient robust detection condition.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.algebra.triple import Triple
from repro.sim.scalar import simulate_triples


def simulate(netlist, test) -> list[Triple]:
    """Scalar simulation of one test: the triple of every node, by index."""
    values = simulate_triples(
        netlist,
        {netlist.node_at(pi).name: test.triple_for(pi) for pi in netlist.input_indices},
    )
    return [values[netlist.node_at(index).name] for index in range(len(netlist))]


def satisfies(values: list[Triple], requirements: Mapping[int, Triple]) -> bool:
    """True when simulated ``values`` cover every required line value."""
    return all(values[node].covers(required) for node, required in requirements.items())


def detection_matrix(netlist, records: Sequence, tests: Sequence) -> np.ndarray:
    """Boolean ``(n_faults, n_tests)``: test j robustly detects fault i."""
    simulated = [simulate(netlist, test) for test in tests]
    return np.array(
        [
            [satisfies(values, record.sens.requirements) for values in simulated]
            for record in records
        ],
        dtype=bool,
    ).reshape(len(records), len(tests))
