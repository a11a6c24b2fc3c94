"""Tests for distance/component/cycle computations, cross-checked with networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.generators import complete, complete_binary_tree, cycle, disjoint_union, path, torus_grid
from repro.local import (
    PortGraph,
    bfs_distances,
    connected_components,
    cycle_containment_radius,
    diameter,
    eccentricity,
    girth,
    induced_subgraph,
    multi_source_bfs,
)
from tests.conftest import build_multigraph, multigraphs, simple_graphs
from tests.nx_bridge import to_networkx


class TestBfs:
    def test_distances_on_path(self):
        graph = path(5)
        dist = bfs_distances(graph, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_radius_truncates(self):
        graph = path(10)
        dist = bfs_distances(graph, 0, max_radius=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_multi_source_parents_descend(self):
        graph = path(7)
        dist, parent = multi_source_bfs(graph, [0, 6])
        assert dist[3] == 3
        for v in graph.nodes():
            if dist[v] > 0:
                edge = graph.edge(parent[v])
                other = edge.a.node if edge.b.node == v else edge.b.node
                assert dist[other] == dist[v] - 1

    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_bfs_matches_networkx(self, graph: PortGraph):
        if graph.num_nodes == 0:
            return
        ours = bfs_distances(graph, 0)
        theirs = nx.single_source_shortest_path_length(to_networkx(graph), 0)
        assert ours == dict(theirs)


class TestComponents:
    def test_disconnected_components(self):
        graph = disjoint_union(cycle(3), path(2))
        comps = connected_components(graph)
        assert comps == [[0, 1, 2], [3, 4]]

    def test_isolated_nodes_are_components(self):
        graph = PortGraph(3, [])
        assert connected_components(graph) == [[0], [1], [2]]


class TestMetrics:
    def test_eccentricity_and_diameter(self):
        graph = path(5)
        assert eccentricity(graph, 2) == 2
        assert eccentricity(graph, 0) == 4
        assert diameter(graph) == 4

    def test_diameter_of_torus(self):
        graph = torus_grid(4, 4)
        assert diameter(graph) == 4

    @given(simple_graphs(max_nodes=9))
    @settings(max_examples=30, deadline=None)
    def test_diameter_matches_networkx(self, graph: PortGraph):
        nxg = to_networkx(graph)
        expected = 0
        for comp in nx.connected_components(nxg):
            sub = nxg.subgraph(comp)
            expected = max(expected, nx.diameter(sub))
        assert diameter(graph) == expected


class TestGirth:
    def test_girth_of_cycles(self):
        for n in (3, 4, 5, 8, 13):
            assert girth(cycle(n)) == n

    def test_girth_none_on_trees(self):
        assert girth(path(6)) is None
        assert girth(complete_binary_tree(4)) is None

    def test_self_loop_girth_one(self):
        graph = build_multigraph(2, [(0, 0), (0, 1)])
        assert girth(graph) == 1

    def test_parallel_edges_girth_two(self):
        graph = build_multigraph(2, [(0, 1), (0, 1)])
        assert girth(graph) == 2

    def test_complete_graph_girth_three(self):
        assert girth(complete(5)) == 3

    @given(simple_graphs(max_nodes=9))
    @settings(max_examples=40, deadline=None)
    def test_girth_matches_networkx(self, graph: PortGraph):
        nxg = to_networkx(graph)
        try:
            expected = nx.girth(nx.Graph(nxg))
        except Exception:  # pragma: no cover - very old networkx
            pytest.skip("networkx girth unavailable")
        ours = girth(graph)
        if expected == float("inf"):
            assert ours is None
        else:
            assert ours == expected


class TestCycleContainment:
    def test_on_cycle_every_node_sees_it_at_half(self):
        graph = cycle(8)
        for v in graph.nodes():
            assert cycle_containment_radius(graph, v) == 4

    def test_odd_cycle(self):
        graph = cycle(7)
        for v in graph.nodes():
            assert cycle_containment_radius(graph, v) == 3

    def test_tree_has_no_cycle(self):
        graph = complete_binary_tree(3)
        for v in graph.nodes():
            assert cycle_containment_radius(graph, v) is None

    def test_self_loop_at_distance(self):
        # path 0-1-2 plus a self-loop at node 2
        graph = build_multigraph(3, [(0, 1), (1, 2), (2, 2)])
        assert cycle_containment_radius(graph, 0) == 2
        assert cycle_containment_radius(graph, 2) == 0

    def test_max_radius_cutoff(self):
        graph = cycle(16)
        assert cycle_containment_radius(graph, 0, max_radius=3) is None
        assert cycle_containment_radius(graph, 0, max_radius=8) == 8

    def test_ball_of_returned_radius_contains_cycle(self):
        # triangle with a tail: tail nodes see the triangle at their distance+1
        graph = build_multigraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
        assert cycle_containment_radius(graph, 5) == 4
        assert cycle_containment_radius(graph, 0) == 1


class TestInducedSubgraph:
    def test_preserves_port_order(self):
        graph = PortGraph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        sub, mapping = induced_subgraph(graph, [0, 1, 3])
        v0 = mapping[0]
        assert sub.degree(v0) == 2
        assert sub.neighbor(v0, 0) == mapping[1]
        assert sub.neighbor(v0, 1) == mapping[3]

    def test_keeps_loops_and_parallels(self):
        graph = build_multigraph(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
        sub, mapping = induced_subgraph(graph, [0, 1])
        assert sub.num_edges == 3
        assert sub.has_self_loop()
        assert sub.has_parallel_edges()

    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_full_induction_is_identity_shaped(self, graph: PortGraph):
        sub, mapping = induced_subgraph(graph, graph.nodes())
        assert sub.num_nodes == graph.num_nodes
        assert sub.num_edges == graph.num_edges
        for v in graph.nodes():
            assert sub.degree(mapping[v]) == graph.degree(v)
