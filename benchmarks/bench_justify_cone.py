"""Cone-restricted justification on the packed kernel.

Justifies a fixed sample of single-fault requirement sets from each
benchmark circuit's P0 on the justifier's one trial-simulation path: the
bit-packed {0,1,x} simulator over the fanin cone of the required lines.
The cone's saving over a full-netlist simulation is what the engine
reports as ``justify.cone_nodes`` vs ``justify.full_nodes``.
"""

import random

from repro.atpg.justify import Justifier
from repro.atpg.requirements import RequirementSet

#: Justifications per benchmark round (a fixed slice of P0, pool order).
SAMPLE = 40


def _sample(targets):
    records = targets.p0[:SAMPLE]
    return [RequirementSet(record.sens.requirements) for record in records]


def _justify_all(justifier, sample, seed):
    rng = random.Random(seed)
    return [justifier.justify(requirements, rng) for requirements in sample]


def bench_justify(benchmark, circuit_targets, smoke_scale):
    name, targets = circuit_targets
    sample = _sample(targets)
    justifier = Justifier(targets.netlist)
    # Warm the cone-compilation cache outside the timed region: a steady-
    # state ATPG run reuses compilations across thousands of calls, and
    # that steady state is what the benchmark should measure.
    _justify_all(justifier, sample, smoke_scale.seed)

    results = benchmark(_justify_all, justifier, sample, smoke_scale.seed)
    assert any(result is not None for result in results), name
