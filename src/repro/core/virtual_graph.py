"""Decomposition of a Pi' instance and the virtual-graph contraction.

:func:`gadget_analysis` discovers, exactly as a distributed algorithm
would from the labels alone:

* the gadget components (connected components of GadEdge edges);
* each node's structural verdict (Sections 4.2/4.3), and the prover
  verdict for each component (valid member of the family or locally
  checkable proof of error) with its Psi outputs;
* the port status of every port node (the PortErr1 / PortErr2 /
  NoPortErr trichotomy of constraints 3-4, Figure 4);
* the **virtual graph**: one node per valid gadget, one edge per
  port edge joining two valid ports (self-loops and parallel edges
  arise naturally and are kept — the reason the paper allows them).

Port edges with exactly one valid-port endpoint become *dangling*
virtual edges, modeled as edges to fresh degree-1 dummy nodes: the
corresponding Pi'-edge constraint is vacuous (the far side carries an
LErr or NoPort element), so the base problem only needs its node
constraint satisfiable with such a stub, which degree-exempt problems
like sinkless orientation give for free.

All of it is a pure function of the graph, the inputs and the gadget
family: it reads no output, no identifier and no size hint.  So an
instance has one :class:`GadgetAnalysis`, kept with its inputs labeling
(:meth:`~repro.lcl.assignment.Labeling.derived`), and the Lemma 4
solver, the Section 3.3 verifier and every later trial on the instance
share it.  :func:`decompose` adds the per-use parts, which do read the
instance: the virtual identifiers (the smallest real id per gadget) and
the prover's radii (which read the size hint).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.core.padding import GADEDGE, PORTEDGE
from repro.core.projection import GadgetProjection, pi_part
from repro.gadgets.family import GadgetFamily
from repro.gadgets.labels import Port
from repro.gadgets.prover import error_radius
from repro.gadgets.scope import GadgetScope
from repro.lcl.assignment import Labeling
from repro.local.builder import GraphBuilder
from repro.local.graphs import PortGraph
from repro.local.identifiers import IdAssignment
from repro.obs import get_telemetry

__all__ = [
    "PORT_OK",
    "PORT_ERR1",
    "PORT_ERR2",
    "GADGET_EDGE",
    "PORT_EDGE",
    "UNTAGGED_EDGE",
    "VirtualGraph",
    "GadgetAnalysis",
    "Decomposition",
    "gadget_analysis",
    "decompose",
]

PORT_OK = "NoPortErr"
PORT_ERR1 = "PortErr1"
PORT_ERR2 = "PortErr2"

#: :attr:`GadgetAnalysis.edge_kinds` values.  Everything that is not
#: explicitly a PortEdge belongs to the gadget layer: an untagged edge
#: (malformed tag) is an adversarial gadget edge.
GADGET_EDGE, PORT_EDGE, UNTAGGED_EDGE = 0, 1, 2
#: ``edge_kinds.translate`` table to the scope's in-scope bytes: every
#: edge but a PortEdge belongs to the gadget layer.
_IN_GADGET_SCOPE = bytes.maketrans(
    bytes([GADGET_EDGE, PORT_EDGE, UNTAGGED_EDGE]), bytes([1, 0, 1])
)


@dataclass
class VirtualGraph:
    """The contracted graph plus everything needed to map back."""

    graph: PortGraph
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


class GadgetAnalysis:
    """Everything the Pi' solver and verifier read about an instance's
    input (see the module docstring), in flat tables.

    * ``scope``: the :class:`~repro.gadgets.scope.GadgetScope` of the
      gadget layer, with every node's structural verdict.
    * Per edge: ``edge_kinds`` (one byte: ``GADGET_EDGE``, ``PORT_EDGE``
      or ``UNTAGGED_EDGE``); ``port_edges`` lists the port edges.
    * Per node: ``component_of``, ``psi`` (V's Psi output) and
      ``center_dist`` (the BFS distance from the center of a valid
      gadget, -1 elsewhere).
    * Per component ``c``, in order of smallest node: its nodes,
      ascending, as ``component_nodes[component_start[c]:
      component_start[c + 1]]``; ``valid[c]``; ``ecc[c]`` (the center's
      eccentricity, valid gadgets only) and ``port_nodes[c]`` (port
      index -> first node with that tag, components with ports only).
    * Per port-tagged node, in node order: ``port_edge_slots`` (its
      port-edge slots) and ``port_status``.
    * ``virtual``: the contracted :class:`VirtualGraph`.

    It refers to no labeling: the verdicts and tables are copies, and
    the virtual inputs are its own.
    """

    def __init__(self, graph: PortGraph, inputs: Labeling, family: GadgetFamily):
        get_telemetry().incr("gadget_analysis.built")
        self.graph = graph
        projection = GadgetProjection(graph, inputs)
        kinds = self.edge_kinds = bytearray(
            PORT_EDGE if tag == PORTEDGE else GADGET_EDGE if tag == GADEDGE
            else UNTAGGED_EDGE
            for tag in projection.edge_labels()
        )
        self.port_edges = [eid for eid, kind in enumerate(kinds) if kind == PORT_EDGE]
        scope = self.scope = GadgetScope(  # type: ignore[arg-type]
            graph, projection, kinds.translate(_IN_GADGET_SCOPE)
        )
        self._prove_components(family)
        self._port_status()
        self.virtual = self._contract(inputs)
        scope.drop_navigation()

    def _prove_components(self, family: GadgetFamily) -> None:
        """Components, V's verdict and outputs on each, center distances."""
        scope, graph = self.scope, self.graph
        n = graph.num_nodes
        self.psi: list = [None] * n
        self.component_of = array("i", [0]) * n
        self.center_dist = array("i", [-1]) * n
        self.component_nodes = array("i")
        self.component_start = array("i", [0])
        self.valid = bytearray()
        self.ecc: dict[int, int] = {}
        self.port_nodes: dict[int, dict[int, int]] = {}
        for nodes in scope.components():
            index = len(self.valid)
            # V's outputs and validity do not depend on n; its radii do,
            # and are charged per use (Decomposition.prover_radii).
            proof = family.prove(scope, nodes, n)
            self.valid.append(proof.is_valid)
            ports: dict[int, int] = {}
            for v in nodes:
                self.psi[v] = proof.outputs[v]
                self.component_of[v] = index
                tag = scope.port_tag(v)
                if isinstance(tag, Port) and tag.i not in ports:
                    ports[tag.i] = v
            if ports:
                self.port_nodes[index] = ports
            self.component_nodes.extend(nodes)
            self.component_start.append(len(self.component_nodes))
            if proof.center_dist:
                for v, dist in proof.center_dist.items():
                    self.center_dist[v] = dist
                self.ecc[index] = max(proof.center_dist.values())

    def _port_status(self) -> None:
        """Constraints 3 and 4: each port node's port edges and flag."""
        scope, kinds, valid, component_of = (
            self.scope, self.edge_kinds, self.valid, self.component_of
        )
        off, nbr, _peer, eids = self.graph.csr()
        self.port_edge_slots: dict[int, tuple[int, ...]] = {}
        self.port_status: dict[int, str] = {}
        for v in range(self.graph.num_nodes):
            if not isinstance(scope.port_tag(v), Port):
                continue
            slots = tuple(
                slot for slot in range(off[v], off[v + 1])
                if kinds[eids[slot]] == PORT_EDGE
            )
            self.port_edge_slots[v] = slots
            if len(slots) != 1:
                self.port_status[v] = PORT_ERR2
                continue
            far_node = nbr[slots[0]]
            far_valid = (
                isinstance(scope.port_tag(far_node), Port)
                and valid[component_of[far_node]]
            )
            if valid[component_of[v]] and far_valid:
                self.port_status[v] = PORT_OK
            else:
                self.port_status[v] = PORT_ERR1

    def _contract(self, inputs: Labeling) -> VirtualGraph:
        """The virtual graph, its Pi-layer inputs and its provenance."""
        off, nbr, peer, eids = self.graph.csr()
        scope, valid, port_status = self.scope, self.valid, self.port_status
        builder = GraphBuilder()
        component_of_virtual: list[int | None] = []
        virtual_of_component: dict[int, int] = {}
        alpha: list[list[int] | None] = []
        for index, is_valid in enumerate(valid):
            if not is_valid:
                continue
            virtual = builder.add_node()
            component_of_virtual.append(index)
            virtual_of_component[index] = virtual
            alpha.append([])  # filled below in sorted port order

        # valid ports per virtual node, in increasing port-index order
        # (PORT_OK implies a valid component)
        valid_ports: dict[int, list[tuple[int, int]]] = {}  # virtual -> [(i, node)]
        for v, status in port_status.items():
            if status == PORT_OK:
                virtual = virtual_of_component[self.component_of[v]]
                valid_ports.setdefault(virtual, []).append((scope.port_tag(v).i, v))

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
            (slot,) = self.port_edge_slots[v]
            eid = eids[slot]
            if eid in seen_port_edges:
                continue
            seen_port_edges.add(eid)
            attached[virtual, rank] = (v, slot)
            far_node = nbr[slot]
            if far_node in virtual_port_of_node:
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
        v_off, _v_nbr, _v_peer, v_eids = virtual_graph.csr()
        attachment: list[tuple[int, int] | None] = [None] * (2 * virtual_graph.num_edges)
        for (virtual, rank), provenance in attached.items():
            attachment[v_off[virtual] + rank] = provenance

        # virtual inputs: Pi-layer labels recovered per constraint 5/6
        virtual_inputs = Labeling(virtual_graph)
        for virtual, comp_index in enumerate(component_of_virtual):
            if comp_index is None:
                continue
            port1 = self.port_nodes.get(comp_index, {}).get(1)
            if port1 is not None:
                virtual_inputs.set_node(virtual, pi_part(inputs.node(port1)))
        in_edges, in_slots = inputs.edge_labels(), inputs.slot_labels()
        for v_slot, provenance in enumerate(attachment):
            if provenance is not None:
                _node, slot = provenance
                virtual_inputs.set_edge(v_eids[v_slot], pi_part(in_edges[eids[slot]]))
                virtual_inputs.set_slot(v_slot, pi_part(in_slots[slot]))

        return VirtualGraph(
            graph=virtual_graph,
            inputs=virtual_inputs,
            component_of_virtual=component_of_virtual,
            virtual_of_component=virtual_of_component,
            alpha=alpha,
            attachment=attachment,
        )

    # -- reading the tables ----------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.valid)

    def nodes_of(self, index: int) -> list[int]:
        """The nodes of component ``index``, ascending."""
        start = self.component_start
        return self.component_nodes[start[index] : start[index + 1]].tolist()


def gadget_analysis(
    graph: PortGraph, inputs: Labeling, family: GadgetFamily
) -> GadgetAnalysis:
    """The instance's analysis: built on first use, then kept with
    ``inputs`` until it is written to or dropped (a labeling over
    another graph object gets a fresh, unkept one)."""
    if inputs.graph is not graph:
        return GadgetAnalysis(graph, inputs, family)
    key = ("gadget-analysis", type(family), family.delta, family.name)
    return inputs.derived(key, lambda: GadgetAnalysis(graph, inputs, family))


@dataclass
class Decomposition:
    """One use of an instance's :class:`GadgetAnalysis`: the analysis,
    the virtual identifiers and the size hint the radii are charged at."""

    analysis: GadgetAnalysis
    virtual_ids: IdAssignment
    n_hint: int

    def prover_radii(self) -> list[int]:
        """Each node's radius as V charges it at ``n_hint``
        (:func:`repro.gadgets.prover.run_prover`): the center distance
        plus the center's eccentricity plus one on a valid gadget, capped
        at the O(log n) bound that every node of an invalid one gets."""
        analysis = self.analysis
        limit = error_radius(self.n_hint)
        radii = [limit] * analysis.graph.num_nodes
        center_dist, component_of, ecc = (
            analysis.center_dist, analysis.component_of, analysis.ecc
        )
        for v, dist in enumerate(center_dist):
            if dist >= 0:
                radii[v] = min(dist + ecc[component_of[v]] + 1, limit)
        return radii


def _virtual_ids(analysis: GadgetAnalysis, ids: IdAssignment) -> IdAssignment:
    """The smallest real id inside each gadget; dummies get fresh ids
    above everything."""
    id_list: list[int | None] = []
    for comp_index in analysis.virtual.component_of_virtual:
        if comp_index is None:
            id_list.append(None)
        else:
            id_list.append(min(map(ids.of, analysis.nodes_of(comp_index))))
    next_free = (max((i for i in id_list if i is not None), default=0)) + 1
    taken = {i for i in id_list if i is not None}
    for virtual, value in enumerate(id_list):
        if value is None:
            while next_free in taken:
                next_free += 1
            id_list[virtual] = next_free
            taken.add(next_free)
            next_free += 1
    return IdAssignment(id_list)


def decompose(
    graph: PortGraph,
    inputs: Labeling,
    family: GadgetFamily,
    ids: IdAssignment,
    n_hint: int,
) -> Decomposition:
    """Analyze a Pi' instance (the shared :func:`gadget_analysis`) and
    add the parts that read ``ids`` and ``n_hint``."""
    analysis = gadget_analysis(graph, inputs, family)
    return Decomposition(analysis, _virtual_ids(analysis, ids), n_hint)
