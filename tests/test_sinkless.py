"""Tests for sinkless orientation: the LCL, the fixer, and both solvers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    complete,
    complete_binary_tree,
    cycle,
    disjoint_union,
    path,
    random_regular,
    star,
    torus_grid,
)
from repro.lcl import verify
from repro.local import Instance, PortGraph
from repro.local.identifiers import random_ids, sequential_ids
from repro.problems import (
    DeterministicSinklessSolver,
    Orientation,
    RandomizedSinklessSolver,
    SinklessOrientation,
    fix_deficient,
)
from repro.util.rng import NodeRng
from tests.conftest import build_multigraph, multigraphs


def _solve_and_verify(graph, solver, seed=0):
    instance = Instance.simple(graph, seed=seed)
    result = solver.solve(instance)
    problem = SinklessOrientation().problem()
    verdict = verify(problem, graph, instance.inputs or result.outputs, result.outputs)
    assert verdict.ok, verdict.summary()
    return result


class TestProblemDefinition:
    def test_oriented_cycle_accepted(self):
        graph = cycle(6)
        problem = SinklessOrientation().problem()
        # orient around the cycle deterministically
        from repro.local.identifiers import sequential_ids

        orientation = Orientation.by_lower_id(graph, sequential_ids(6))
        outputs = orientation.to_labeling()
        from repro.lcl import Labeling

        assert verify(problem, graph, Labeling(graph), outputs).ok

    def test_sink_rejected_on_cubic(self):
        graph = complete(4)  # 3-regular
        problem = SinklessOrientation().problem()
        # orient everything into node 0: node 0 becomes a sink
        tails = {}
        for edge in graph.edges():
            if 0 in edge.nodes():
                tails[edge.eid] = edge.a if edge.b.node == 0 else edge.b
            else:
                tails[edge.eid] = edge.a
        outputs = Orientation(graph, tails).to_labeling()
        from repro.lcl import Labeling

        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert not verdict.ok
        assert any(v.kind == "node" and v.where == 0 for v in verdict.violations)

    def test_inconsistent_edge_rejected(self):
        graph = cycle(4)
        problem = SinklessOrientation().problem()
        from repro.lcl import Labeling
        from repro.problems import OUT

        outputs = Labeling(graph).fill_halves(OUT)
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert not verdict.ok
        assert any(v.kind == "edge" for v in verdict.violations)

    def test_low_degree_nodes_exempt(self):
        graph = path(2)
        problem = SinklessOrientation().problem()
        from repro.lcl import Labeling
        from repro.problems import IN, OUT

        outputs = Labeling(graph)
        outputs.set_half_at(0, 0, OUT)
        outputs.set_half_at(1, 0, IN)
        assert verify(problem, graph, Labeling(graph), outputs).ok


class TestOrientation:
    def test_by_lower_id_and_roundtrip(self):
        graph = cycle(5)
        ids = sequential_ids(5)
        orientation = Orientation.by_lower_id(graph, ids)
        labeling = orientation.to_labeling()
        back = Orientation.from_labeling(graph, labeling)
        for eid in range(graph.num_edges):
            assert back.tail(eid) == orientation.tail(eid)

    def test_self_loop_gives_out_degree(self):
        graph = build_multigraph(1, [(0, 0)])
        orientation = Orientation.by_lower_id(graph, sequential_ids(1))
        assert orientation.out_degree(0) == 1
        assert len(orientation.in_edge_ids(0)) == 1
        assert len(orientation.out_edge_ids(0)) == 1

    def test_reverse_updates_degrees(self):
        graph = path(2)
        orientation = Orientation.by_lower_id(graph, sequential_ids(2))
        assert orientation.out_degree(0) == 1
        orientation.reverse(0)
        assert orientation.out_degree(0) == 0
        assert orientation.out_degree(1) == 1

    def test_total_orientation_required(self):
        graph = cycle(3)
        with pytest.raises(ValueError):
            Orientation(graph, {0: graph.edge(0).a})

    def test_from_labeling_rejects_garbage(self):
        from repro.lcl import Labeling

        graph = path(2)
        with pytest.raises(ValueError):
            Orientation.from_labeling(graph, Labeling(graph))


class TestFixer:
    def test_fixes_planted_sink(self):
        graph = complete(4)
        ids = sequential_ids(4)
        tails = {}
        for edge in graph.edges():
            if 0 in edge.nodes():
                tails[edge.eid] = edge.a if edge.b.node == 0 else edge.b
            else:
                tails[edge.eid] = edge.a
        orientation = Orientation(graph, tails)
        assert orientation.out_degree(0) == 0
        report = fix_deficient(graph, orientation, 3, priority=ids.of)
        assert orientation.out_degree(0) >= 1
        assert all(
            orientation.out_degree(v) >= 1 for v in graph.nodes()
        )
        assert report.paths_reversed >= 1

    def test_fixes_all_sinks_on_regular_graphs(self):
        rng = random.Random(5)
        graph = random_regular(60, 3, rng)
        ids = sequential_ids(60)
        # adversarial start: orient every edge toward its higher id
        tails = {}
        for edge in graph.edges():
            tails[edge.eid] = (
                edge.a if ids.of(edge.a.node) > ids.of(edge.b.node) else edge.b
            )
        orientation = Orientation(graph, tails)
        fix_deficient(graph, orientation, 3, priority=ids.of)
        assert all(orientation.out_degree(v) >= 1 for v in graph.nodes())

    def test_exempt_donors_in_trees(self):
        # binary tree: internal nodes have degree 3, leaves are exempt
        graph = complete_binary_tree(5)
        ids = sequential_ids(graph.num_nodes)
        # orient every edge toward the root: the root is fine, but some
        # internal node has out-degree 0 only if edges point to parent...
        tails = {}
        for edge in graph.edges():
            lo, hi = sorted(edge.nodes())
            tails[edge.eid] = edge.a if edge.a.node == hi else edge.b
        orientation = Orientation(graph, tails)
        fix_deficient(graph, orientation, 3, priority=ids.of)
        for v in graph.nodes():
            if graph.degree(v) >= 3:
                assert orientation.out_degree(v) >= 1

    @given(multigraphs(max_nodes=10, max_edges=20), st.integers(0, 2**30))
    @settings(max_examples=50, deadline=None)
    def test_fixer_total_on_multigraphs(self, graph, seed):
        rng = random.Random(seed)
        orientation = Orientation.by_coin_flips(graph, rng)
        ids = sequential_ids(graph.num_nodes)
        fix_deficient(graph, orientation, 3, priority=ids.of, rng=rng)
        for v in graph.nodes():
            if graph.degree(v) >= 3:
                assert orientation.out_degree(v) >= 1


class TestDeterministicSolver:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: complete(4),
            lambda: torus_grid(4, 4),
            lambda: random_regular(40, 3, random.Random(1)),
            lambda: random_regular(40, 4, random.Random(2)),
            lambda: disjoint_union(complete(4), cycle(5), star(4)),
            lambda: complete(5).with_isolated_nodes(7),
            lambda: complete_binary_tree(4),
        ],
    )
    def test_valid_on_standard_graphs(self, graph_factory):
        _solve_and_verify(graph_factory(), DeterministicSinklessSolver())

    def test_handles_self_loops_and_parallels(self):
        graph = build_multigraph(4, [(0, 0), (0, 1), (0, 2), (1, 2), (1, 2), (2, 3), (3, 3)])
        _solve_and_verify(graph, DeterministicSinklessSolver())

    def test_deterministic_across_runs(self):
        graph = random_regular(30, 3, random.Random(3))
        instance = Instance.simple(graph)
        a = DeterministicSinklessSolver().solve(instance)
        b = DeterministicSinklessSolver().solve(instance)
        assert a.outputs == b.outputs
        assert a.node_radius == b.node_radius

    def test_radius_scales_like_log_on_regular(self):
        rng = random.Random(7)
        small = random_regular(32, 3, rng)
        large = random_regular(512, 3, rng)
        r_small = _solve_and_verify(small, DeterministicSinklessSolver()).rounds
        r_large = _solve_and_verify(large, DeterministicSinklessSolver()).rounds
        assert r_large > r_small  # grows with n
        assert r_large <= 6 * max(r_small, 1)  # but gently (log-ish)

    def test_exempt_only_graph_zero_claims(self):
        graph = cycle(12)  # all degree 2: everyone exempt
        result = _solve_and_verify(graph, DeterministicSinklessSolver())
        assert result.rounds <= 1

    @given(multigraphs(max_nodes=12, max_edges=24))
    @settings(max_examples=40, deadline=None)
    def test_valid_on_random_multigraphs(self, graph):
        _solve_and_verify(graph, DeterministicSinklessSolver())


class TestRandomizedSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_valid_on_cubic_graphs(self, seed):
        graph = random_regular(64, 3, random.Random(seed + 10))
        _solve_and_verify(graph, RandomizedSinklessSolver(), seed=seed)

    def test_requires_rng(self):
        graph = complete(4)
        instance = Instance(graph, sequential_ids(4))
        with pytest.raises(ValueError):
            RandomizedSinklessSolver().solve(instance)

    def test_reproducible_given_seed(self):
        graph = random_regular(40, 3, random.Random(11))
        a = RandomizedSinklessSolver().solve(Instance.simple(graph, seed=5))
        b = RandomizedSinklessSolver().solve(Instance.simple(graph, seed=5))
        assert a.outputs == b.outputs

    def test_different_seeds_differ(self):
        graph = random_regular(40, 3, random.Random(11))
        a = RandomizedSinklessSolver().solve(Instance.simple(graph, seed=5))
        b = RandomizedSinklessSolver().solve(Instance.simple(graph, seed=6))
        assert a.outputs != b.outputs  # astronomically unlikely to match

    def test_faster_than_deterministic_at_scale(self):
        rng = random.Random(21)
        graph = random_regular(1024, 3, rng)
        ids = random_ids(1024, rng)
        det = DeterministicSinklessSolver().solve(
            Instance(graph, ids, None, None, None)
        )
        rand = RandomizedSinklessSolver().solve(
            Instance(graph, ids, None, None, NodeRng(1))
        )
        assert rand.rounds < det.rounds

    def test_keeps_only_the_global_stream(self):
        # each edge's coin comes from a stream forked for it and dropped:
        # a solve leaves one cached stream, not one per edge
        rng = random.Random(22)
        graph = random_regular(1024, 3, rng)
        node_rng = NodeRng(3)
        instance = Instance(graph, random_ids(1024, rng), None, None, node_rng)
        result = RandomizedSinklessSolver().solve(instance)
        problem = SinklessOrientation().problem()
        assert verify(problem, graph, result.outputs, result.outputs).ok
        assert list(node_rng._streams) == [-1]

    @given(multigraphs(max_nodes=12, max_edges=24), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_valid_on_random_multigraphs(self, graph, seed):
        _solve_and_verify(graph, RandomizedSinklessSolver(), seed=seed)
