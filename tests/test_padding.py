"""Tests for padded graphs (Definition 3) and the decomposition layer."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    GADEDGE,
    PORTEDGE,
    PORT_ERR1,
    PORT_ERR2,
    PORT_OK,
    decompose,
    pad_graph,
)
from repro.gadgets import LogGadgetFamily, build_gadget
from repro.generators import complete, cycle, path
from repro.local import GraphBuilder, PortGraph
from repro.local.identifiers import sequential_ids


def _pad(base, delta=3, height=3):
    gadgets = [build_gadget(delta, height) for _ in base.nodes()]
    return pad_graph(base, gadgets)


class TestPadGraph:
    def test_node_and_edge_counts(self):
        base = cycle(4)
        padded = _pad(base, delta=3, height=3)
        gadget_nodes = 3 * 7 + 1
        assert padded.graph.num_nodes == 4 * gadget_nodes
        # per gadget: internal edges; plus one port edge per base edge
        internal = padded.graph.num_edges - base.num_edges
        assert len(padded.port_edges) == base.num_edges
        assert internal == 4 * (padded.gadget_of[0].graph.num_edges)

    def test_edge_tags(self):
        base = path(3)
        padded = _pad(base)
        tags = [padded.edge_tag(e) for e in range(padded.graph.num_edges)]
        assert tags.count(PORTEDGE) == base.num_edges
        assert tags.count(GADEDGE) == padded.graph.num_edges - base.num_edges

    def test_port_edges_join_matching_ports(self):
        base = cycle(3)
        padded = _pad(base)
        for base_eid, padded_eid in enumerate(padded.port_edges):
            base_edge = base.edge(base_eid)
            padded_edge = padded.graph.edge(padded_eid)
            u, a = base_edge.a
            v, b = base_edge.b
            expected = {
                padded.padded_node(u, padded.gadget_of[u].ports[a]),
                padded.padded_node(v, padded.gadget_of[v].ports[b]),
            }
            assert set(padded_edge.nodes()) == expected

    def test_degree_requirement(self):
        base = complete(5)  # degree 4
        gadgets = [build_gadget(3, 2) for _ in base.nodes()]
        with pytest.raises(ValueError):
            pad_graph(base, gadgets)

    def test_base_self_loop_becomes_intra_gadget_port_edge(self):
        builder = GraphBuilder(1)
        builder.add_edge(0, 0)
        base = builder.build()
        padded = _pad(base, delta=2, height=2)
        eid = padded.port_edges[0]
        edge = padded.graph.edge(eid)
        gadget = padded.gadget_of[0]
        assert set(edge.nodes()) == {gadget.ports[0], gadget.ports[1]}

    def test_base_inputs_travel(self):
        from repro.lcl import Labeling

        base = path(2)
        base_inputs = Labeling(base)
        base_inputs.set_node(0, "left")
        base_inputs.set_node(1, "right")
        base_inputs.set_edge(0, "the-edge")
        gadgets = [build_gadget(2, 2), build_gadget(2, 2)]
        padded = pad_graph(base, gadgets, base_inputs)
        # every node of gadget 0 carries the base node input
        for x in padded.gadget_nodes(0):
            assert padded.inputs.node(x).pi == "left"
        eid = padded.port_edges[0]
        assert padded.inputs.edge(eid).pi == "the-edge"


class TestDecompose:
    def test_valid_padding_decomposes_cleanly(self):
        base = cycle(5)
        padded = _pad(base)
        family = LogGadgetFamily(3)
        ids = sequential_ids(padded.graph.num_nodes)
        decomposition = decompose(
            padded.graph, padded.inputs, family, ids, padded.graph.num_nodes
        )
        analysis = decomposition.analysis
        assert analysis.num_components == 5
        assert all(analysis.valid)
        virtual = analysis.virtual
        assert virtual.num_real() == 5
        assert virtual.graph.num_edges == 5
        # contraction of a cycle is the cycle
        degrees = sorted(virtual.graph.degree(a) for a in virtual.graph.nodes())
        assert degrees == [2] * 5

    def test_port_status_all_ok_on_valid_padding(self):
        base = cycle(3)
        padded = _pad(base)
        family = LogGadgetFamily(3)
        decomposition = decompose(
            padded.graph,
            padded.inputs,
            family,
            sequential_ids(padded.graph.num_nodes),
            padded.graph.num_nodes,
        )
        used_ports = {
            status for status in decomposition.analysis.port_status.values()
        }
        # degree-2 base nodes leave one port unused per gadget: that
        # port has no port edge -> PortErr2; connected ones are OK
        assert used_ports == {PORT_OK, PORT_ERR2}
        ok = sum(1 for s in decomposition.analysis.port_status.values() if s == PORT_OK)
        assert ok == 2 * base.num_edges

    def test_virtual_ids_are_gadget_minima(self):
        base = path(2)
        padded = _pad(base, delta=2, height=2)
        ids = sequential_ids(padded.graph.num_nodes)
        decomposition = decompose(
            padded.graph, padded.inputs, LogGadgetFamily(2), ids,
            padded.graph.num_nodes,
        )
        analysis = decomposition.analysis
        virtual = analysis.virtual
        expected = {
            min(ids.of(v) for v in analysis.nodes_of(c))
            for c in range(analysis.num_components)
        }
        actual = {decomposition.virtual_ids.of(a) for a in virtual.graph.nodes()}
        assert expected <= actual

    def test_corrupted_gadget_not_contracted(self):
        from repro.gadgets import corrupt

        base = path(2)
        g0 = build_gadget(2, 3)
        g1 = build_gadget(2, 3)
        padded = pad_graph(base, [g0, g1])
        # corrupt gadget 1 by stealing its port tag
        from repro.gadgets.labels import GadgetNodeInput, NOPORT

        inputs = padded.inputs.copy()
        victim = padded.padded_node(1, g1.ports[0])
        old = inputs.node(victim)
        from repro.core import PaddedInput

        inputs.set_node(
            victim,
            PaddedInput(old.pi, GadgetNodeInput(old.gadget.role, NOPORT, old.gadget.color)),
        )
        decomposition = decompose(
            padded.graph, inputs, LogGadgetFamily(2),
            sequential_ids(padded.graph.num_nodes), padded.graph.num_nodes,
        )
        analysis = decomposition.analysis
        assert sorted(analysis.valid) == [0, 1]  # one invalid, one valid
        virtual = analysis.virtual
        assert virtual.num_real() == 1
        # the far side is no longer a Port, so the valid gadget's port is
        # PortErr1 and the virtual node is isolated (no dangling stub)
        assert virtual.graph.num_nodes == 1
        assert virtual.graph.num_edges == 0
        port = padded.padded_node(0, g0.ports[0])
        assert analysis.port_status[port] == PORT_ERR1

    def test_dangling_from_port_err2(self):
        """Two base edges into the same gadget port -> PortErr2 there,
        dangling stubs for the two far ports."""
        builder = GraphBuilder(3)
        builder.add_edge(0, 1)  # port 0 of node 1
        builder.add_edge(2, 1)  # port 1 of node 1
        base = builder.build()
        g = [build_gadget(2, 3) for _ in base.nodes()]
        padded = pad_graph(base, g)
        # move node 1's second port edge onto its first port node by
        # splicing the padded graph: rebuild edges so both port edges of
        # gadget 1 attach to ports[0]
        target = padded.padded_node(1, g[1].ports[0])
        old_attach = padded.padded_node(1, g[1].ports[1])
        edges = []
        for edge in padded.graph.edges():
            a, b = edge.a, edge.b
            nodes = [a.node, b.node]
            if edge.eid == padded.port_edges[1]:
                # reattach the far endpoint onto `target`
                keep = a if a.node != old_attach else b
                edges.append((keep.node, target))
            else:
                edges.append((a.node, b.node))
        graph = PortGraph.from_edge_list(padded.graph.num_nodes, edges)
        # rebuild inputs by node (ports moved, so halves are rebuilt
        # against the gadget labels where possible)
        from repro.lcl import Labeling

        inputs = Labeling(graph)
        for v in graph.nodes():
            inputs.set_node(v, padded.inputs.node(v))
        # edges keep their insertion order, so tags carry over by eid
        for eid in range(graph.num_edges):
            inputs.set_edge(eid, padded.inputs.edge(eid))
        # halves: copy gadget half labels port-by-port where the degree
        # allows; the spliced port edge halves stay EMPTY-pi
        for v in graph.nodes():
            for port in range(min(graph.degree(v), padded.graph.degree(v))):
                if graph.edge_id_at(v, port) == padded.graph.edge_id_at(v, port):
                    from repro.local import HalfEdge

                    inputs.set_half(
                        HalfEdge(v, port), padded.inputs.half_at(v, port)
                    )
        decomposition = decompose(
            graph, inputs, LogGadgetFamily(2),
            sequential_ids(graph.num_nodes), graph.num_nodes,
        )
        # gadget components are untouched: all three stay valid
        analysis = decomposition.analysis
        assert all(analysis.valid)
        assert analysis.port_status[target] == PORT_ERR2
        virtual = analysis.virtual
        # nodes 0 and 2 keep NoPortErr ports -> two dangling stubs
        assert virtual.num_real() == 3
        dummies = virtual.graph.num_nodes - 3
        assert dummies == 2

    def test_garbage_graph_fully_invalid(self):
        from repro.lcl import Labeling

        graph = complete(6)
        inputs = Labeling(graph)  # no tags at all: one giant gadget comp
        decomposition = decompose(
            graph, inputs, LogGadgetFamily(3), sequential_ids(6), 6
        )
        assert not any(decomposition.analysis.valid)
        assert decomposition.analysis.virtual.num_real() == 0
