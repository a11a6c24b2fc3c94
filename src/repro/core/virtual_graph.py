"""Decomposition of a Pi' instance and the virtual-graph contraction.

``decompose`` discovers, exactly as a distributed algorithm would from
the labels alone:

* the gadget components (connected components of GadEdge edges);
* the prover verdict for each component (valid member of the family or
  locally checkable proof of error);
* the port status of every node (the PortErr1 / PortErr2 / NoPortErr
  trichotomy of constraints 3-4, Figure 4);
* the **virtual graph**: one node per valid gadget, one edge per
  port edge joining two valid ports (self-loops and parallel edges
  arise naturally and are kept — the reason the paper allows them).

Port edges with exactly one valid-port endpoint become *dangling*
virtual edges, modeled as edges to fresh degree-1 dummy nodes: the
corresponding Pi'-edge constraint is vacuous (the far side carries an
LErr or NoPort element), so the base problem only needs its node
constraint satisfiable with such a stub, which degree-exempt problems
like sinkless orientation give for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.padding import PORTEDGE
from repro.core.projection import GadgetProjection, pi_part
from repro.gadgets.family import GadgetFamily
from repro.gadgets.labels import CENTER, Port
from repro.gadgets.prover import ProverResult
from repro.gadgets.scope import GadgetScope
from repro.lcl.assignment import Labeling
from repro.local.builder import GraphBuilder
from repro.local.graphs import PortGraph
from repro.local.identifiers import IdAssignment

__all__ = [
    "PORT_OK",
    "PORT_ERR1",
    "PORT_ERR2",
    "GadgetComponent",
    "VirtualGraph",
    "Decomposition",
    "decompose",
]

PORT_OK = "NoPortErr"
PORT_ERR1 = "PortErr1"
PORT_ERR2 = "PortErr2"


@dataclass
class GadgetComponent:
    index: int
    nodes: list[int]
    prover: ProverResult
    is_valid: bool
    center: int | None
    port_nodes: dict[int, int]  # port index i (1-based) -> node

    def min_node(self) -> int:
        return self.nodes[0]


@dataclass
class VirtualGraph:
    """The contracted graph plus everything needed to map back."""

    graph: PortGraph
    ids: IdAssignment
    inputs: Labeling
    component_of_virtual: list[int | None]  # None for dummy stubs
    virtual_of_component: dict[int, int]
    # per virtual node: the (1-based) gadget port index behind each
    # virtual port, in virtual-port order (None rows for dummies)
    alpha: list[list[int] | None]
    # physical provenance, by virtual CSR slot: (port node, the port
    # node's port-edge slot), None for the dummy side of dangling edges
    attachment: list[tuple[int, int] | None] = field(default_factory=list)

    def num_real(self) -> int:
        return sum(1 for c in self.component_of_virtual if c is not None)


@dataclass
class Decomposition:
    graph: PortGraph
    inputs: Labeling
    family: GadgetFamily
    components: list[GadgetComponent]
    component_of_node: dict[int, int]
    port_status: dict[int, str]  # only nodes with a Port tag
    virtual: VirtualGraph
    scope: GadgetScope


def _gadget_scope(graph: PortGraph, inputs: Labeling) -> GadgetScope:
    """Everything that is not explicitly a PortEdge belongs to the
    gadget layer (malformed tags are adversarial gadget edges)."""
    projection = GadgetProjection(graph, inputs)
    tags = projection.edge_labels()
    return GadgetScope(  # type: ignore[arg-type]
        graph, projection, lambda eid: tags[eid] != PORTEDGE
    )


def decompose(
    graph: PortGraph,
    inputs: Labeling,
    family: GadgetFamily,
    ids: IdAssignment,
    n_hint: int,
    scope: GadgetScope | None = None,
) -> Decomposition:
    """Analyze a Pi' instance; see the module docstring.

    ``scope``, if given, must be ``_gadget_scope(graph, inputs)``: a
    caller that already holds that scope passes it to share its
    structural verdicts.
    """
    if scope is None:
        scope = _gadget_scope(graph, inputs)
    components: list[GadgetComponent] = []
    component_of_node: dict[int, int] = {}
    for nodes in scope.components():
        index = len(components)
        prover = family.prove(scope, nodes, n_hint)
        center = next((v for v in nodes if scope.role(v) == CENTER), None)
        port_nodes: dict[int, int] = {}
        for v in nodes:
            tag = scope.port_tag(v)
            if isinstance(tag, Port) and tag.i not in port_nodes:
                port_nodes[tag.i] = v
        components.append(
            GadgetComponent(
                index=index,
                nodes=nodes,
                prover=prover,
                is_valid=prover.is_valid,
                center=center,
                port_nodes=port_nodes,
            )
        )
        for v in nodes:
            component_of_node[v] = index

    # --- port status (constraints 3 and 4) --------------------------------
    off, nbr, peer, eids = graph.csr()

    def port_slots_at(v: int) -> list[int]:
        """The slots at ``v`` whose edge is a port edge, in port order."""
        return [
            slot for slot in range(off[v], off[v + 1]) if not scope.in_scope(eids[slot])
        ]

    port_status: dict[int, str] = {}
    port_slot: dict[int, int] = {}  # nodes with exactly one port edge
    for v in graph.nodes():
        tag = scope.port_tag(v)
        if not isinstance(tag, Port):
            continue
        slots = port_slots_at(v)
        if len(slots) != 1:
            port_status[v] = PORT_ERR2
            continue
        port_slot[v] = slots[0]
        own_valid = components[component_of_node[v]].is_valid
        far_node = nbr[slots[0]]
        far_tag = scope.port_tag(far_node)
        far_valid = (
            isinstance(far_tag, Port)
            and components[component_of_node[far_node]].is_valid
        )
        if own_valid and far_valid:
            port_status[v] = PORT_OK
        else:
            port_status[v] = PORT_ERR1

    # --- virtual graph ------------------------------------------------------
    builder = GraphBuilder()
    component_of_virtual: list[int | None] = []
    virtual_of_component: dict[int, int] = {}
    alpha: list[list[int] | None] = []
    for component in components:
        if not component.is_valid:
            continue
        virtual = builder.add_node()
        component_of_virtual.append(component.index)
        virtual_of_component[component.index] = virtual
        alpha.append([])  # filled below in sorted port order

    # valid ports per virtual node, in increasing port-index order
    valid_ports: dict[int, list[tuple[int, int]]] = {}  # virtual -> [(i, node)]
    for v, status in port_status.items():
        if status != PORT_OK:
            continue
        comp = components[component_of_node[v]]
        if not comp.is_valid:  # PORT_OK implies valid, but stay defensive
            continue
        virtual = virtual_of_component[comp.index]
        tag = scope.port_tag(v)
        valid_ports.setdefault(virtual, []).append((tag.i, v))

    virtual_port_of_node: dict[int, tuple[int, int]] = {}
    for virtual, ports in valid_ports.items():
        ports.sort()
        alpha[virtual] = [i for i, _node in ports]
        for rank, (_i, node) in enumerate(ports):
            virtual_port_of_node[node] = (virtual, rank)

    # physical provenance of each attached virtual half-edge, keyed by
    # (virtual node, virtual port) until the virtual slots exist
    attached: dict[tuple[int, int], tuple[int, int]] = {}
    seen_port_edges: set[int] = set()
    dummy_sides: list[tuple[int, int]] = []
    edge_plan: list[tuple[int, int, int, int]] = []
    for v in sorted(virtual_port_of_node):
        virtual, rank = virtual_port_of_node[v]
        slot = port_slot[v]
        eid = eids[slot]
        if eid in seen_port_edges:
            continue
        seen_port_edges.add(eid)
        attached[virtual, rank] = (v, slot)
        far_node = nbr[slot]
        if far_node in virtual_port_of_node and port_status.get(far_node) == PORT_OK:
            far_virtual, far_rank = virtual_port_of_node[far_node]
            attached[far_virtual, far_rank] = (far_node, off[far_node] + peer[slot])
            edge_plan.append((virtual, rank, far_virtual, far_rank))
        else:
            dummy_sides.append((virtual, rank))

    for virtual, rank in dummy_sides:
        dummy = builder.add_node()
        component_of_virtual.append(None)
        alpha.append(None)
        edge_plan.append((virtual, rank, dummy, 0))

    for a, a_port, b, b_port in edge_plan:
        builder.add_edge(a, b, u_port=a_port, v_port=b_port)

    virtual_graph = builder.build()
    v_off = virtual_graph.csr()[0]
    attachment: list[tuple[int, int] | None] = [None] * (2 * virtual_graph.num_edges)
    for (virtual, rank), provenance in attached.items():
        attachment[v_off[virtual] + rank] = provenance

    # identifiers: the smallest real id inside each gadget; dummies get
    # fresh ids above everything
    id_list = []
    for virtual, comp_index in enumerate(component_of_virtual):
        if comp_index is None:
            id_list.append(None)
        else:
            comp = components[comp_index]
            id_list.append(min(ids.of(v) for v in comp.nodes))
    next_free = (max((i for i in id_list if i is not None), default=0)) + 1
    taken = {i for i in id_list if i is not None}
    for virtual, value in enumerate(id_list):
        if value is None:
            while next_free in taken:
                next_free += 1
            id_list[virtual] = next_free
            taken.add(next_free)
            next_free += 1
    virtual_ids = IdAssignment(id_list)

    # virtual inputs: Pi-layer labels recovered per constraint 5/6
    virtual_input_labeling = Labeling(virtual_graph)
    for virtual, comp_index in enumerate(component_of_virtual):
        if comp_index is None:
            continue
        comp = components[comp_index]
        port1 = comp.port_nodes.get(1)
        if port1 is not None:
            virtual_input_labeling.set_node(virtual, pi_part(inputs.node(port1)))
    in_edges, in_slots = inputs.edge_labels(), inputs.slot_labels()
    v_eids = virtual_graph.csr()[3]
    for v_slot, provenance in enumerate(attachment):
        if provenance is not None:
            _node, slot = provenance
            virtual_input_labeling.set_edge(v_eids[v_slot], pi_part(in_edges[eids[slot]]))
            virtual_input_labeling.set_slot(v_slot, pi_part(in_slots[slot]))

    virtual = VirtualGraph(
        graph=virtual_graph,
        ids=virtual_ids,
        inputs=virtual_input_labeling,
        component_of_virtual=component_of_virtual,
        virtual_of_component=virtual_of_component,
        alpha=alpha,
        attachment=attachment,
    )
    return Decomposition(
        graph=graph,
        inputs=inputs,
        family=family,
        components=components,
        component_of_node=component_of_node,
        port_status=port_status,
        virtual=virtual,
        scope=scope,
    )
