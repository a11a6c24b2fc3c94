"""Unit and property tests for the port-numbered multigraph core."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

from repro.local import GraphBuilder, HalfEdge, PortGraph
from tests.conftest import build_multigraph, multigraphs


class TestConstruction:
    def test_empty_graph(self):
        graph = PortGraph(0, [])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.max_degree == 0

    def test_single_edge(self):
        graph = PortGraph.from_edge_list(2, [(0, 1)])
        assert graph.degree(0) == 1
        assert graph.degree(1) == 1
        assert graph.endpoint(0, 0) == HalfEdge(1, 0)
        assert graph.endpoint(1, 0) == HalfEdge(0, 0)

    def test_self_loop_uses_two_ports(self):
        builder = GraphBuilder(1)
        builder.add_edge(0, 0)
        graph = builder.build()
        assert graph.degree(0) == 2
        assert graph.endpoint(0, 0) == HalfEdge(0, 1)
        assert graph.endpoint(0, 1) == HalfEdge(0, 0)
        assert graph.has_self_loop()
        assert not graph.is_simple()

    def test_parallel_edges(self):
        graph = PortGraph.from_edge_list(2, [(0, 1), (0, 1)])
        assert graph.degree(0) == 2
        assert graph.has_parallel_edges()
        assert not graph.has_self_loop()
        assert {graph.neighbor(0, 0), graph.neighbor(0, 1)} == {1}

    def test_port_order_matches_insertion(self):
        graph = PortGraph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert [graph.neighbor(0, p) for p in range(3)] == [1, 2, 3]

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            PortGraph(1, [(HalfEdge(0, 0), HalfEdge(1, 0))])

    def test_rejects_duplicate_port(self):
        with pytest.raises(ValueError):
            PortGraph(2, [(HalfEdge(0, 0), HalfEdge(1, 0)), (HalfEdge(0, 0), HalfEdge(1, 1))])

    def test_rejects_non_contiguous_ports(self):
        with pytest.raises(ValueError):
            PortGraph(2, [(HalfEdge(0, 1), HalfEdge(1, 0))])

    @pytest.mark.parametrize(
        "pairs,endpoint",
        [
            ([(0, 2)], "HalfEdge(node=2, port=0)"),
            ([(0, -3)], "HalfEdge(node=-3, port=0)"),
            ([(-1, 0)], "HalfEdge(node=-1, port=0)"),
            # a negative endpoint numbers its own ports, not node 1's
            ([(1, 1), (-1, 0)], "HalfEdge(node=-1, port=0)"),
        ],
    )
    def test_from_edge_list_rejects_out_of_range_endpoint(self, pairs, endpoint):
        message = f"edge endpoint {endpoint} out of range"
        with pytest.raises(ValueError, match=re.escape(message)):
            PortGraph.from_edge_list(2, pairs)

    def test_from_edge_list_rejects_negative_num_nodes(self):
        with pytest.raises(ValueError, match="num_nodes must be non-negative"):
            PortGraph.from_edge_list(-1, [])

    @pytest.mark.parametrize(
        "num_nodes,edges,message",
        [
            (-1, [], "num_nodes must be non-negative"),
            (1, [((0, 0), (1, 0))], f"edge endpoint {HalfEdge(1, 0)} out of range"),
            # the smaller half-edge of an edge is checked first
            (1, [((3, 0), (2, 0))], f"edge endpoint {HalfEdge(2, 0)} out of range"),
            (2, [((0, -1), (1, 0))], "negative port in HalfEdge(node=0, port=-1)"),
            (
                2,
                [((0, 0), (1, 0)), ((1, 1), (0, 0))],
                "port HalfEdge(node=0, port=0) used by two edges",
            ),
            # a half-edge joined to itself is a port used twice
            (1, [((0, 0), (0, 0))], f"port {HalfEdge(0, 0)} used by two edges"),
            (
                3,
                [((0, 0), (1, 0)), ((2, 0), (1, 2))],
                "node 1 has non-contiguous ports [0, 2]",
            ),
        ],
    )
    def test_constructor_rejection_messages(self, num_nodes, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PortGraph(num_nodes, edges)

    def test_builder_explicit_ports(self):
        builder = GraphBuilder(2)
        builder.add_edge(0, 1, u_port=1, v_port=0)
        builder.add_edge(0, 1, u_port=0, v_port=1)
        graph = builder.build()
        assert graph.neighbor(0, 0) == 1
        assert graph.neighbor(0, 1) == 1

    def test_builder_rejects_port_reuse(self):
        builder = GraphBuilder(2)
        builder.add_edge(0, 1, u_port=0, v_port=0)
        with pytest.raises(ValueError):
            builder.add_edge(0, 1, u_port=0, v_port=1)

    def test_builder_rejects_loop_on_same_port(self):
        builder = GraphBuilder(1)
        with pytest.raises(ValueError):
            builder.add_edge(0, 0, u_port=0, v_port=0)

    def test_add_nodes_returns_range(self):
        builder = GraphBuilder()
        assert builder.add_nodes(3) == range(0, 3)
        assert builder.add_node() == 3


class TestQueries:
    def test_edge_other_side(self):
        graph = PortGraph.from_edge_list(2, [(0, 1)])
        edge = graph.edge(0)
        assert edge.other_side(edge.a) == edge.b
        assert edge.other_side(edge.b) == edge.a
        with pytest.raises(ValueError):
            edge.other_side(HalfEdge(5, 5))

    def test_half_edges_enumeration(self):
        graph = PortGraph.from_edge_list(3, [(0, 1), (1, 2)])
        halves = set(graph.half_edges())
        assert len(halves) == 4
        assert HalfEdge(1, 0) in halves and HalfEdge(1, 1) in halves

    def test_incident_edges_loops_twice(self):
        graph = build_multigraph(1, [(0, 0)])
        incident = list(graph.incident_edges(0))
        assert len(incident) == 2
        assert incident[0].eid == incident[1].eid

    def test_half_edge_of_edge(self):
        graph = PortGraph.from_edge_list(2, [(0, 1)])
        assert graph.half_edge_of_edge(0, 0) == HalfEdge(0, 0)
        assert graph.half_edge_of_edge(1, 0) == HalfEdge(1, 0)
        with pytest.raises(ValueError):
            graph.half_edge_of_edge(5, 0)

    def test_min_max_degree(self):
        graph = PortGraph.from_edge_list(3, [(0, 1), (0, 2)])
        assert graph.max_degree == 2
        assert graph.min_degree == 1

    def test_degree_caches_on_empty_graph(self):
        graph = PortGraph(0, [])
        assert graph.max_degree == 0
        assert graph.min_degree == 0

    def test_min_degree_is_a_plain_int(self):
        graph = PortGraph.from_edge_list(3, [(0, 1), (0, 2)])
        assert type(graph.min_degree) is int
        assert not callable(graph.min_degree)


class TestProperties:
    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_endpoint_is_involution(self, graph: PortGraph):
        for v in graph.nodes():
            for port in range(graph.degree(v)):
                across = graph.endpoint(v, port)
                back = graph.endpoint(across.node, across.port)
                assert back == HalfEdge(v, port)

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, graph: PortGraph):
        assert sum(graph.degree(v) for v in graph.nodes()) == 2 * graph.num_edges

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_half_edge_count(self, graph: PortGraph):
        assert len(list(graph.half_edges())) == 2 * graph.num_edges

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_neighbors_in_port_order(self, graph: PortGraph):
        for v in graph.nodes():
            listed = list(graph.neighbors(v))
            direct = [graph.endpoint(v, p).node for p in range(graph.degree(v))]
            assert listed == direct
