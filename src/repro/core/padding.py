"""Padded graphs (Definition 3, Figure 2).

``pad_graph`` replaces every node of a base graph ``G`` with a gadget
from a family and connects port ``a`` of ``u`` to port ``b`` of ``v``
for every base edge; gadget-internal edges are tagged ``GadEdge`` and
the new connections ``PortEdge``.

The builder records the full correspondence (base node -> gadget node
range, base edge -> port edge id), which the hard-instance generators
and tests use; the Pi' solver never touches it — it rediscovers the
structure from the labels alone, as a distributed algorithm must.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Hashable, Sequence

from repro.gadgets.build import BuiltGadget
from repro.lcl.assignment import Labeling
from repro.lcl.labels import EMPTY
from repro.local.graphs import PortGraph

__all__ = ["GADEDGE", "PORTEDGE", "PaddedInput", "PaddedGraph", "pad_graph"]

GADEDGE = "GadEdge"
PORTEDGE = "PortEdge"


class PaddedInput(tuple):
    """Structured input label of Pi' elements.

    For nodes: ``(pi_input, gadget_node_input)`` — the gadget input
    already carries the port tag (Definition 2).  For edges:
    ``(pi_input, edge_tag)`` with ``edge_tag`` in {GadEdge, PortEdge}.
    For half-edges: ``(pi_input, gadget_half_input)``.
    """

    __slots__ = ()

    def __new__(cls, pi: Hashable, gadget: Hashable):
        return super().__new__(cls, (pi, gadget))

    def __getnewargs__(self) -> tuple[Hashable, Hashable]:
        # pickle and copy rebuild a tuple subclass as cls.__new__(cls,
        # *args); the tuple default passes the whole tuple as one arg.
        return (self[0], self[1])

    @property
    def pi(self) -> Hashable:
        return self[0]

    @property
    def gadget(self) -> Hashable:
        return self[1]


@dataclass
class PaddedGraph:
    """A padded graph with its Pi' input labeling and provenance."""

    graph: PortGraph
    inputs: Labeling
    base_num_nodes: int
    gadget_of: list[BuiltGadget]  # per base node
    node_offset: list[int]  # base node -> first padded node index
    port_edges: list[int] = field(default_factory=list)  # eids tagged PortEdge

    def padded_node(self, base_node: int, gadget_node: int) -> int:
        return self.node_offset[base_node] + gadget_node

    def gadget_nodes(self, base_node: int) -> range:
        start = self.node_offset[base_node]
        return range(start, start + self.gadget_of[base_node].num_nodes)

    def edge_tag(self, eid: int) -> Hashable:
        return self.inputs.edge(eid).gadget


def pad_graph(
    base: PortGraph,
    gadgets: Sequence[BuiltGadget],
    base_inputs: Labeling | None = None,
) -> PaddedGraph:
    """Pad ``base`` by the chosen gadget per node (Definition 3).

    Every gadget must offer at least ``deg(v)`` ports.  Base-problem
    inputs (if any) are carried over: the base node input lands on
    *every* node of its gadget (so in particular on Port_1, which
    constraint 5 of Pi' reads), base edge inputs on the port edge, and
    base half-edge inputs on the port-edge half at the matching port
    node.
    """
    if len(gadgets) != base.num_nodes:
        raise ValueError("one gadget per base node required")
    for v in base.nodes():
        if base.degree(v) > gadgets[v].delta:
            raise ValueError(
                f"base node {v} has degree {base.degree(v)} but its gadget "
                f"offers only {gadgets[v].delta} ports"
            )

    node_offset = list(accumulate((g.num_nodes for g in gadgets), initial=0))
    total_nodes = node_offset.pop()

    # Gadget-internal edges first, each gadget's in its own edge order
    # (so ports are preserved), then one port edge per base edge: base
    # edge {u via port a, v via port b} connects Port_{a+1} of u's
    # gadget to Port_{b+1} of v's gadget.
    pairs: list[tuple[int, int]] = []
    for v, gadget in enumerate(gadgets):
        offset = node_offset[v]
        g_nbr = gadget.graph.csr()[1]
        g_ends = gadget.graph.edge_slots()
        pairs.extend(
            (offset + g_nbr[b], offset + g_nbr[a])
            for a, b in zip(g_ends[0::2], g_ends[1::2])
        )
    num_gadget_edges = len(pairs)
    b_off, b_nbr, _peer, _eids = base.csr()
    b_ends = base.edge_slots()
    for eid in range(base.num_edges):
        a, b = b_ends[2 * eid], b_ends[2 * eid + 1]
        u, w = b_nbr[b], b_nbr[a]
        pairs.append(
            (
                node_offset[u] + gadgets[u].ports[a - b_off[u]],
                node_offset[w] + gadgets[w].ports[b - b_off[w]],
            )
        )
    graph = PortGraph.from_edge_list(total_nodes, pairs)

    # Labels: equal labels are one shared PaddedInput, and a gadget's
    # label rows are wrapped once per distinct base input.
    shared: dict[tuple[Hashable, Hashable], PaddedInput] = {}

    def padded(pi: Hashable, gadget_label: Hashable) -> PaddedInput:
        key = (pi, gadget_label)
        label = shared.get(key)
        if label is None:
            label = shared[key] = PaddedInput(pi, gadget_label)
        return label

    rows: dict[tuple[int, Hashable, str], list[PaddedInput]] = {}

    def row(gadget: BuiltGadget, pi: Hashable, kind: str) -> list[PaddedInput]:
        key = (id(gadget), pi, kind)
        labels = rows.get(key)
        if labels is None:
            source = getattr(gadget.inputs, f"{kind}_labels")()
            labels = rows[key] = [padded(pi, label) for label in source]
        return labels

    if base_inputs is None:
        base_inputs = Labeling(base)
    base_nodes = base_inputs.node_labels()
    base_slots = base_inputs.slot_labels()
    node_labels: list[PaddedInput] = []
    slot_labels: list[PaddedInput] = []
    for v, gadget in enumerate(gadgets):
        # the base node input lands on every node of its gadget
        node_labels.extend(row(gadget, base_nodes[v], "node"))
        # gadget slots, with each port node's port-edge slot (carrying
        # the base half-edge input) right after its gadget ports
        gadget_slots = row(gadget, EMPTY, "slot")
        g_off = gadget.graph.csr()[0]
        start = 0
        for port in sorted(range(base.degree(v)), key=gadget.ports.__getitem__):
            end = g_off[gadget.ports[port] + 1]
            slot_labels.extend(gadget_slots[start:end])
            slot_labels.append(padded(base_slots[b_off[v] + port], EMPTY))
            start = end
        slot_labels.extend(gadget_slots[start:])
    edge_labels = [padded(EMPTY, GADEDGE)] * num_gadget_edges
    edge_labels.extend(padded(label, PORTEDGE) for label in base_inputs.edge_labels())
    inputs = (
        Labeling(graph)
        .set_node_labels(node_labels)
        .set_edge_labels(edge_labels)
        .set_slot_labels(slot_labels)
    )
    port_edge_of_base_edge = list(range(num_gadget_edges, graph.num_edges))

    return PaddedGraph(
        graph=graph,
        inputs=inputs,
        base_num_nodes=base.num_nodes,
        gadget_of=list(gadgets),
        node_offset=node_offset,
        port_edges=port_edge_of_base_edge,
    )
