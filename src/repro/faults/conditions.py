"""Sensitization conditions ``A(p)`` for path delay faults.

Section 2.1 of the paper: to robustly detect a path delay fault ``p``, a
two-pattern test must assign

* the launching transition (``0x1`` for slow-to-rise, ``1x0`` for
  slow-to-fall) to the path's source, and
* the values required for robust propagation to every *off-path input*
  (side input) of every gate along the path.

For a gate with controlling value ``c`` (AND/NAND: 0, OR/NOR: 1) and
non-controlling value ``nc``, with the on-path input carrying transition
``t``:

* ``t`` ends at the **non-controlling** value (the on-path input *leaves*
  the controlling value): the output transition is launched by the on-path
  input, and any glitch on a side input could mask it -- every side input
  must be **steady non-controlling** (``nc nc nc``).
* ``t`` ends at the **controlling** value: the on-path input itself forces
  the output after the transition -- side inputs only need the
  non-controlling value **under the second pattern** (``x x nc``).

These are exactly the two requirement shapes of the paper's s27 example
(``000`` and ``xx0`` for NOR gates).

*Non-robust* tests relax the first case to ``x x nc`` as well; they are
provided as an extension (``mode="non_robust"``).

``A(p)`` is returned as a mapping from node index to a single merged
:class:`~repro.algebra.triple.Triple`.  If two requirements on the same line
disagree, the fault is undetectable (the paper's type-1 elimination) and
``None`` is returned.

Model note: paths are sequences of *nodes* (no separate fanout-branch
lines, see DESIGN.md).  Consequently a gate whose fanin repeats the on-path
node (``AND(a, a)``) contributes no side requirement -- the duplicated
input carries the on-path transition itself, which matches the waveform
simulation (``AND(0x1, 0x1) = 0x1``) used for detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

from ..algebra.triple import Triple
from ..algebra.ternary import ONE, X, ZERO
from ..circuit.netlist import CONTROLLING_VALUE, GateType, Netlist
from .fault import PathDelayFault

__all__ = ["Sensitization", "sensitize", "SensitizationError", "Mode"]

Mode = Literal["robust", "non_robust"]


class SensitizationError(ValueError):
    """Raised when a fault's path traverses an unsupported gate type."""


@dataclass(frozen=True)
class Sensitization:
    """The full sensitization record for one path delay fault.

    Attributes
    ----------
    fault:
        The fault this record belongs to.
    requirements:
        ``A(p)``: node index -> required waveform triple (source transition
        and merged off-path requirements).
    on_path:
        The waveform each on-path node carries when the path propagates the
        transition, aligned with ``fault.path.nodes``.  Entry 0 is the
        source transition.
    mode:
        ``"robust"`` or ``"non_robust"``.
    """

    fault: PathDelayFault
    requirements: Mapping[int, Triple]
    on_path: tuple[Triple, ...]
    mode: str

    @property
    def num_values(self) -> int:
        """Total number of specified value components in ``A(p)``.

        This is the quantity the value-based compaction heuristic reasons
        about (the size of the value set a test must satisfy).
        """
        return sum(t.specified_count() for t in self.requirements.values())

    def format(self, netlist: Netlist) -> str:
        """Human-readable listing of the required values."""
        parts = [
            f"{netlist.node_at(node).name}={triple}"
            for node, triple in sorted(self.requirements.items())
        ]
        return f"A({self.fault.format(netlist)}) = {{{', '.join(parts)}}}"


def _off_path_requirement(
    gate_type: GateType, on_path_final: int, mode: Mode
) -> Triple:
    """Requirement for one side input of a gate on the path."""
    controlling = CONTROLLING_VALUE[gate_type]
    non_controlling = 1 - controlling
    if mode == "robust" and on_path_final == non_controlling:
        # Transition away from the controlling value: side inputs must be
        # glitch-free non-controlling for the whole test.
        return Triple.stable(non_controlling)
    # Transition to the controlling value (or non-robust mode): the side
    # input only matters under the second pattern.
    return Triple.of(X, X, non_controlling)


def sensitize(
    netlist: Netlist, fault: PathDelayFault, mode: Mode = "robust"
) -> Sensitization | None:
    """Compute ``A(p)`` for ``fault``, or ``None`` when self-conflicting.

    ``None`` corresponds to the paper's first class of undetectable faults:
    the requirement set assigns conflicting values to some line (for
    example because the same node appears as a side input with incompatible
    requirements at two gates of the path, or as both source and side
    input).

    Raises :class:`SensitizationError` if the path goes through an
    unsupported gate type (XOR/XNOR must be expanded first, see
    :func:`repro.circuit.transform.expand_xor`).
    """
    path = fault.path
    requirements: dict[int, Triple] = {path.source: fault.transition.source_triple}
    current = fault.transition.source_triple
    on_path = [current]

    for driver, gate in path.edges():
        node = netlist.node_at(gate)
        gate_type = node.gate_type
        if gate_type in (GateType.NOT, GateType.BUF):
            current = current.inverted() if gate_type is GateType.NOT else current
            on_path.append(current)
            continue
        if gate_type not in CONTROLLING_VALUE:
            raise SensitizationError(
                f"gate {node.name!r} has type {gate_type.name}, which the "
                "path-delay-fault engine does not support; expand XOR/XNOR "
                "first (repro.circuit.transform.expand_xor)"
            )
        on_path_final = current.v3
        assert on_path_final in (ZERO, ONE), "on-path waveform must transition"
        side_req = _off_path_requirement(gate_type, on_path_final, mode)
        for fanin_index in netlist.fanin_indices(gate):
            if fanin_index == driver:
                continue
            merged = requirements.get(fanin_index, None)
            merged = side_req if merged is None else merged.merge(side_req)
            if merged is None:
                return None  # conflicting requirements: undetectable (type 1)
            requirements[fanin_index] = merged
        inverting = gate_type in (GateType.NAND, GateType.NOR)
        current = current.inverted() if inverting else current
        on_path.append(current)

    # A side input of a later gate may coincide with the source or with an
    # internal on-path node (the path reconverges with itself).  The source
    # case was handled by merging into `requirements`.  For internal nodes
    # the waveform the path carries there is forced; if it does not already
    # satisfy the side requirement the fault cannot be robustly detected.
    for node_index, waveform in zip(path.nodes, on_path):
        required = requirements.get(node_index)
        if required is None or node_index == path.source:
            continue
        if not waveform.covers(required):
            return None
    return Sensitization(
        fault=fault,
        requirements=requirements,
        on_path=tuple(on_path),
        mode=mode,
    )
