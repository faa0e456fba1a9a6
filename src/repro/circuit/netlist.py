"""Gate-level combinational netlist model.

A :class:`Netlist` is a DAG of named *nodes*.  Each node is either a primary
input or the output signal of exactly one gate; gate inputs reference other
nodes by name.  Sequential circuits are handled upstream by the ``.bench``
parser, which extracts the combinational core (flip-flop outputs become
pseudo primary inputs, flip-flop data inputs become pseudo primary outputs).

Netlists are built incrementally through :meth:`Netlist.add_input` /
:meth:`Netlist.add_gate` / :meth:`Netlist.add_output` and then *frozen*.
Freezing checks structural sanity (acyclic, no dangling references) and
computes the derived data every downstream algorithm relies on: topological
order, per-node logic level, and fanout lists.  A frozen netlist is
immutable.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Sequence


class GateType(enum.Enum):
    """Supported gate functions.

    ``INPUT`` marks primary-input nodes (no fanin).  ``CONST0``/``CONST1``
    are tie cells.  All multi-input types accept any fanin count >= 1.
    """

    INPUT = "input"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    CONST0 = "const0"
    CONST1 = "const1"


#: Gate types whose output inverts the sensitized input's transition.
INVERTING_TYPES = frozenset({GateType.NOT, GateType.NAND, GateType.NOR})

#: Gate types with a controlling value (value that alone determines output).
CONTROLLING_VALUE = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}

#: Gate types the path-delay-fault engine accepts (XOR must be expanded).
PDF_SUPPORTED_TYPES = frozenset(
    {
        GateType.INPUT,
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
    }
)


class NetlistError(ValueError):
    """Raised for structurally invalid netlists or illegal mutations."""


class Node:
    """One signal in the netlist: a primary input or a gate output."""

    __slots__ = ("name", "gate_type", "fanin", "index")

    def __init__(
        self, name: str, gate_type: GateType, fanin: tuple[str, ...], index: int
    ) -> None:
        self.name = name
        self.gate_type = gate_type
        self.fanin = fanin
        self.index = index

    @property
    def is_input(self) -> bool:
        """True for primary-input nodes."""
        return self.gate_type is GateType.INPUT

    def __repr__(self) -> str:
        if self.is_input:
            return f"Node({self.name!r}, INPUT)"
        args = ", ".join(self.fanin)
        return f"Node({self.name!r} = {self.gate_type.name}({args}))"


class Netlist:
    """A combinational gate-level netlist.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"s27"``).
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._nodes: list[Node] = []
        self._index: dict[str, int] = {}
        self._outputs: list[str] = []
        self._frozen = False
        # Derived data, filled in by freeze().
        self._topo: list[int] = []
        self._level: list[int] = []
        self._fanout: list[tuple[int, ...]] = []
        self._input_indices: list[int] = []
        self._output_indices: list[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise NetlistError("netlist is frozen and cannot be modified")

    def _add_node(self, name: str, gate_type: GateType, fanin: tuple[str, ...]) -> Node:
        self._check_mutable()
        if not name:
            raise NetlistError("node name must be non-empty")
        if name in self._index:
            raise NetlistError(f"duplicate node name: {name!r}")
        node = Node(name, gate_type, fanin, len(self._nodes))
        self._index[name] = node.index
        self._nodes.append(node)
        return node

    def add_input(self, name: str) -> Node:
        """Declare a primary input."""
        return self._add_node(name, GateType.INPUT, ())

    def add_gate(self, name: str, gate_type: GateType, fanin: Sequence[str]) -> Node:
        """Declare a gate whose output signal is ``name``.

        Fanin nodes may be declared later; references are resolved at
        :meth:`freeze` time.
        """
        if gate_type is GateType.INPUT:
            raise NetlistError("use add_input() for primary inputs")
        if gate_type in (GateType.CONST0, GateType.CONST1):
            if fanin:
                raise NetlistError(f"{gate_type.name} takes no fanin")
        elif gate_type in (GateType.BUF, GateType.NOT):
            if len(fanin) != 1:
                raise NetlistError(f"{gate_type.name} takes exactly one fanin")
        elif len(fanin) < 1:
            raise NetlistError(f"{gate_type.name} needs at least one fanin")
        return self._add_node(name, gate_type, tuple(fanin))

    def add_output(self, name: str) -> None:
        """Declare ``name`` (an existing or future node) a primary output."""
        self._check_mutable()
        if name in self._outputs:
            raise NetlistError(f"duplicate primary output: {name!r}")
        self._outputs.append(name)

    def freeze(self) -> "Netlist":
        """Validate the structure and compute derived data.

        Returns ``self`` for chaining.  Raises :class:`NetlistError` on
        dangling references, cycles, or missing outputs.
        """
        if self._frozen:
            return self
        for node in self._nodes:
            for ref in node.fanin:
                if ref not in self._index:
                    raise NetlistError(
                        f"node {node.name!r} references undeclared signal {ref!r}"
                    )
        for out in self._outputs:
            if out not in self._index:
                raise NetlistError(f"primary output {out!r} is not a declared node")
        if not self._outputs:
            raise NetlistError("netlist declares no primary outputs")

        n = len(self._nodes)
        fanout_lists: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for node in self._nodes:
            indegree[node.index] = len(node.fanin)
            for ref in node.fanin:
                fanout_lists[self._index[ref]].append(node.index)

        # Kahn topological sort; also assigns levels (inputs at level 0).
        level = [0] * n
        ready = [i for i in range(n) if indegree[i] == 0]
        topo: list[int] = []
        remaining = indegree[:]
        while ready:
            current = ready.pop()
            topo.append(current)
            for succ in fanout_lists[current]:
                if level[current] + 1 > level[succ]:
                    level[succ] = level[current] + 1
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.append(succ)
        if len(topo) != n:
            cyclic = [self._nodes[i].name for i in range(n) if remaining[i] > 0]
            raise NetlistError(f"netlist contains a combinational cycle: {cyclic[:5]}")

        self._topo = topo
        self._level = level
        # ``fanout_lists`` keeps one entry per fanin *slot* (what the
        # indegree walk above needs); a gate reading the same signal twice,
        # e.g. ``NAND(a, a)``, is still one successor of ``a``.
        self._fanout = [tuple(sorted(set(f))) for f in fanout_lists]
        self._input_indices = [
            node.index for node in self._nodes if node.is_input
        ]
        self._output_indices = [self._index[out] for out in self._outputs]
        self._frozen = True
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has run."""
        return self._frozen

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise NetlistError("netlist must be frozen first")

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def node(self, name: str) -> Node:
        """Return the node named ``name``."""
        try:
            return self._nodes[self._index[name]]
        except KeyError:
            raise NetlistError(f"no such node: {name!r}") from None

    def node_at(self, index: int) -> Node:
        """Return the node with dense index ``index``."""
        return self._nodes[index]

    def index_of(self, name: str) -> int:
        """Return the dense index of node ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise NetlistError(f"no such node: {name!r}") from None

    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes in declaration order."""
        return tuple(self._nodes)

    @property
    def input_names(self) -> tuple[str, ...]:
        """Primary-input names in declaration order."""
        return tuple(node.name for node in self._nodes if node.is_input)

    @property
    def output_names(self) -> tuple[str, ...]:
        """Primary-output names in declaration order."""
        return tuple(self._outputs)

    @property
    def input_indices(self) -> tuple[int, ...]:
        """Dense indices of primary inputs (frozen netlists only)."""
        self._require_frozen()
        return tuple(self._input_indices)

    @property
    def output_indices(self) -> tuple[int, ...]:
        """Dense indices of primary outputs (frozen netlists only)."""
        self._require_frozen()
        return tuple(self._output_indices)

    @property
    def topo_order(self) -> tuple[int, ...]:
        """Node indices in topological (fanin-before-fanout) order."""
        self._require_frozen()
        return tuple(self._topo)

    def level(self, name_or_index: str | int) -> int:
        """Logic level of a node (primary inputs are level 0)."""
        self._require_frozen()
        if isinstance(name_or_index, str):
            name_or_index = self.index_of(name_or_index)
        return self._level[name_or_index]

    def fanout(self, name_or_index: str | int) -> tuple[int, ...]:
        """Indices of the gates driven by a node."""
        self._require_frozen()
        if isinstance(name_or_index, str):
            name_or_index = self.index_of(name_or_index)
        return self._fanout[name_or_index]

    def fanin_indices(self, name_or_index: str | int) -> tuple[int, ...]:
        """Dense indices of a node's fanin signals."""
        if isinstance(name_or_index, str):
            name_or_index = self.index_of(name_or_index)
        node = self._nodes[name_or_index]
        return tuple(self._index[ref] for ref in node.fanin)

    @property
    def num_gates(self) -> int:
        """Number of non-input nodes."""
        return len(self._nodes) - len(self.input_names)

    def gate_type_counts(self) -> dict[GateType, int]:
        """Histogram of gate types (excluding INPUT)."""
        counts: dict[GateType, int] = {}
        for node in self._nodes:
            if node.is_input:
                continue
            counts[node.gate_type] = counts.get(node.gate_type, 0) + 1
        return counts

    def is_pdf_ready(self) -> bool:
        """True when every gate type is supported by the PDF engine."""
        return all(node.gate_type in PDF_SUPPORTED_TYPES for node in self._nodes
                   if node.gate_type not in (GateType.CONST0, GateType.CONST1))

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return (
            f"Netlist({self.name!r}, inputs={len(self.input_names)}, "
            f"gates={self.num_gates}, outputs={len(self._outputs)}, {state})"
        )


def build_netlist(
    name: str,
    inputs: Iterable[str],
    gates: Iterable[tuple[str, GateType, Sequence[str]]],
    outputs: Iterable[str],
) -> Netlist:
    """Convenience one-shot constructor returning a frozen netlist."""
    netlist = Netlist(name)
    for pin in inputs:
        netlist.add_input(pin)
    for gate_name, gate_type, fanin in gates:
        netlist.add_gate(gate_name, gate_type, fanin)
    for pout in outputs:
        netlist.add_output(pout)
    return netlist.freeze()
