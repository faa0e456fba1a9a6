"""Covering-kernel benchmark: the stacked detection matrix.

``FaultSimulator.detection_matrix`` is the inner loop of every coverage
number in Tables 3-7 and of n-detection style analyses that fault-simulate
the same population many times.  This bench pins it on the benchmark
circuits.
"""

from repro.sim.faultsim import FaultSimulator


def bench_detection_matrix_vectorized(
    benchmark, engine, circuit_targets, run_cache
):
    name, targets = circuit_targets
    tests = run_cache.basic(name, "values").test_vectors
    session = engine.session(name)
    simulator = FaultSimulator(
        session.netlist, targets.all_records, simulator=session.simulator
    )
    simulator.detection_matrix(tests)  # warm the batch simulator
    matrix = benchmark(simulator.detection_matrix, tests)
    assert matrix.shape == (len(targets.all_records), len(tests))
