"""Tests for the networkx boundary conversions."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings

from tests.conftest import build_multigraph, multigraphs
from tests.nx_bridge import from_networkx, to_networkx


class TestRoundTrip:
    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_there_and_back(self, graph):
        nxg = to_networkx(graph)
        back, mapping = from_networkx(nxg)
        assert back.num_nodes == graph.num_nodes
        assert back.num_edges == graph.num_edges
        for v in graph.nodes():
            assert back.degree(mapping[v]) == graph.degree(v)

    def test_ports_preserved_as_attributes(self):
        graph = build_multigraph(2, [(0, 1), (0, 1)])
        nxg = to_networkx(graph)
        ports = {data["ports"] for _u, _v, data in nxg.edges(data=True)}
        assert ports == {(0, 0), (1, 1)}

    def test_from_simple_graph(self):
        nxg = nx.petersen_graph()
        graph, mapping = from_networkx(nxg)
        assert graph.num_nodes == 10
        assert graph.num_edges == 15
        assert graph.max_degree == 3
        assert graph.is_simple()

    def test_from_graph_with_string_labels(self):
        nxg = nx.Graph([("a", "b"), ("b", "c")])
        graph, mapping = from_networkx(nxg)
        assert graph.num_nodes == 3
        assert mapping["a"] == 0

    def test_loops_survive(self):
        nxg = nx.MultiGraph()
        nxg.add_edge(0, 0)
        graph, _mapping = from_networkx(nxg)
        assert graph.has_self_loop()
        assert graph.degree(0) == 2
