"""The lockstep implication filter against the one-set fixpoint.

:func:`implication_conflicts` settles many requirement sets per packed
simulation of the whole netlist.  Its verdicts must equal running
:meth:`Justifier._fixpoint` on each set's own cone, which is the reference
built here from ``_make_state`` + ``_fixpoint``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Triple
from repro.atpg import Justifier, RequirementSet
from repro.atpg.justify import (
    LOCKSTEP_WORDS,
    JustifyStats,
    implication_conflicts,
)
from repro.circuit import GateType, build_netlist, load_circuit, pdf_ready
from repro.circuit.synth import SynthProfile, generate
from repro.engine.stats import EngineStats
from repro.faults.conditions import sensitize
from repro.faults.fault import faults_of_paths
from repro.paths.enumerate import enumerate_paths
from repro.sim.packed import LANES


def reference(justifier, requirement_sets):
    """Per-set verdicts and fixpoint rounds on each set's own cone."""
    verdicts, rounds = [], 0
    for requirements in requirement_sets:
        stats = JustifyStats()
        state, cone = justifier._make_state(requirements)
        status = justifier._fixpoint(state, requirements, stats, cone)
        verdicts.append(status == "conflict")
        rounds += stats.rounds
    return verdicts, rounds


def enumerated_sets(netlist):
    enumeration = enumerate_paths(netlist, max_faults=10_000)
    sets = []
    for fault in faults_of_paths(enumeration.paths):
        sens = sensitize(netlist, fault)
        if sens is not None:
            sets.append(RequirementSet(sens.requirements))
    return sets


def wide_and(n_inputs):
    """``y = AND(i0 .. i{n-1})`` plus ``z = NOT(i0)``."""
    inputs = [f"i{index}" for index in range(n_inputs)]
    return build_netlist(
        f"and{n_inputs}",
        inputs=inputs,
        gates=[("y", GateType.AND, inputs), ("z", GateType.NOT, ["i0"])],
        outputs=["y", "z"],
    )


def require(netlist, **values):
    return RequirementSet(
        {netlist.index_of(name): Triple.parse(text) for name, text in values.items()}
    )


@pytest.mark.parametrize("name", ["s27", "c17", "s953_proxy", "s1423r_proxy"])
def test_every_enumerated_fault_matches_reference(name):
    netlist = pdf_ready(load_circuit(name))
    sets = enumerated_sets(netlist)
    expected, rounds = reference(Justifier(netlist), sets)
    stats = EngineStats()
    assert implication_conflicts(Justifier(netlist, stats=stats), sets) == expected
    assert stats.counter("implication.faults") == len(sets)
    assert stats.counter("implication.rounds") == rounds
    runs = stats.counter("implication.runs")
    assert 0 < runs <= rounds
    if len(sets) > 1000:
        assert runs < rounds / 4  # many sets share each simulation
    assert stats.counter("implication.columns") % LANES == 0
    assert stats.counter("implication.columns") <= runs * LOCKSTEP_WORDS * LANES


_TRIPLES = ["0x1", "1x0", "000", "111", "0xx", "1xx", "xx0", "xx1", "x0x", "xxx"]


@pytest.fixture(scope="module")
def mesh20():
    return generate(
        SynthProfile(
            name="mesh20", seed=3, style="mesh", n_inputs=20, n_gates=60,
            n_outputs=6, window=10.0,
        )
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_requirement_sets_match_reference(mesh20, data):
    n_nodes = len(mesh20)
    requirement = st.dictionaries(
        st.integers(0, n_nodes - 1),
        st.sampled_from(_TRIPLES).map(Triple.parse),
        max_size=5,
    )
    sets = [RequirementSet(values) for values in data.draw(
        st.lists(requirement, min_size=1, max_size=60), label="sets"
    )]
    justifier = Justifier(mesh20)
    expected, _ = reference(justifier, sets)
    assert implication_conflicts(justifier, sets) == expected


class TestEdgeSets:
    def test_empty_and_zero_support_sets(self):
        netlist = build_netlist(
            "consts",
            inputs=["a"],
            gates=[
                ("zero", GateType.CONST0, []),
                ("one", GateType.CONST1, []),
                ("g", GateType.AND, ["a", "one"]),
            ],
            outputs=["zero", "g"],
        )
        sets = [
            RequirementSet(),
            require(netlist, zero="000"),  # no support input, already covered
            require(netlist, zero="111"),  # no support input, contradicted
            require(netlist, zero="xx0", one="1xx"),
            require(netlist, g="0x1"),
        ]
        justifier = Justifier(netlist)
        expected, _ = reference(justifier, sets)
        assert expected == [False, False, True, False, False]
        assert implication_conflicts(justifier, sets) == expected

    def test_word_boundary_segments(self, monkeypatch):
        """Trial widths are ``1 + 2 * unresolved``, hence odd: a 16-input
        support opens with 65 lanes (one past a word), and pinning one
        endpoint leaves 63 (one short of it) for the next round."""
        netlist = wide_and(16)
        justifier = Justifier(netlist)
        packed = justifier.simulator.packed()
        screen = packed.screen
        widths = []

        def spy(codes, compiled, segments=None):
            widths.extend(width for _, width in segments)
            return screen(codes, compiled, segments)

        monkeypatch.setattr(packed, "screen", spy)
        sets = [
            require(netlist, i0="0xx", y="xx0"),
            require(netlist, y="111"),
            require(netlist, y="0x1", i0="0xx"),
            require(netlist, y="111", z="111"),
        ] * 3
        expected, _ = reference(Justifier(netlist), sets)
        assert implication_conflicts(justifier, sets) == expected
        assert {63, 65} <= set(widths)

    def test_batches_span_the_word_cap(self):
        # 40 inputs: 161 trial lanes, 3 words per set; 30 sets need 90
        # words, several batches of at most LOCKSTEP_WORDS words each.
        netlist = wide_and(40)
        stats = EngineStats()
        justifier = Justifier(netlist, stats=stats)
        sets = [
            require(netlist, y="0x1", **{f"i{index % 40}": "0xx"})
            for index in range(30)
        ]
        expected, rounds = reference(Justifier(netlist), sets)
        assert implication_conflicts(justifier, sets) == expected
        assert stats.counter("implication.rounds") == rounds
        columns = stats.counter("implication.columns")
        assert columns <= stats.counter("implication.runs") * LOCKSTEP_WORDS * LANES
        assert stats.counter("implication.runs") >= 90 // LOCKSTEP_WORDS

    def test_set_wider_than_the_cap_runs_alone(self):
        n_inputs = LOCKSTEP_WORDS * LANES // 4 + 1  # 1 + 4n lanes > the cap
        netlist = wide_and(n_inputs)
        sets = [require(netlist, y="111"), require(netlist, y="1x0", z="000")]
        justifier = Justifier(netlist)
        expected, _ = reference(justifier, sets)
        assert implication_conflicts(justifier, sets) == expected


class _ExpiresAfter:
    """A budget stand-in that passes ``checks`` deadline checks, then trips."""

    is_null = False

    def __init__(self, checks):
        self.remaining = checks

    def deadline_expired(self):
        self.remaining -= 1
        return self.remaining < 0


class TestDeadline:
    @pytest.fixture
    def netlist(self):
        return wide_and(4)

    def sets(self, netlist, order):
        # "slow" needs two rounds (force every input, then covered);
        # "fast" conflicts in round one (both values of i0 contradict it);
        # "ok" is stuck in round one (no single input is forced).
        kinds = {
            "slow": require(netlist, y="111"),
            "fast": require(netlist, i0="111", z="111"),
            "ok": require(netlist, y="xx0"),
        }
        return [kinds[kind] for kind in order]

    def test_keeps_longest_decided_prefix(self, netlist):
        justifier = Justifier(netlist)
        sets = self.sets(netlist, ["fast", "slow", "fast", "ok"])
        full = implication_conflicts(justifier, sets)
        assert full == [True, False, True, False]
        # One round runs: both "fast" sets and "ok" are decided after it,
        # but "slow" is open, so only the first verdict survives.
        cut = implication_conflicts(justifier, sets, budget=_ExpiresAfter(1))
        assert cut == full[:1]

    def test_open_first_set_keeps_nothing(self, netlist):
        justifier = Justifier(netlist)
        sets = self.sets(netlist, ["slow", "fast", "ok"])
        assert implication_conflicts(justifier, sets, budget=_ExpiresAfter(1)) == []

    def test_expired_before_first_round(self, netlist):
        justifier = Justifier(netlist)
        sets = self.sets(netlist, ["fast", "ok"])
        assert implication_conflicts(justifier, sets, budget=_ExpiresAfter(0)) == []

    def test_enough_rounds_decide_everything(self, netlist):
        justifier = Justifier(netlist)
        sets = self.sets(netlist, ["slow", "fast", "ok"])
        full = implication_conflicts(justifier, sets)
        assert implication_conflicts(justifier, sets, budget=_ExpiresAfter(2)) == full
