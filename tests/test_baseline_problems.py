"""Tests for coloring, cycle coloring, MIS, matching, and trivial LCLs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
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
from repro.lcl import Labeling, verify
from repro.lcl.labels import EMPTY
from repro.local import Instance
from repro.local.graphs import HalfEdge, PortGraph
from repro.local.identifiers import random_ids
from repro.problems import (
    ColorClassMatchingSolver,
    ColorClassMisSolver,
    ConstantLabelProblem,
    ConstantSolver,
    CycleColoringSolver,
    LinialColoringSolver,
    LubyMatchingSolver,
    LubyMisSolver,
    MaximalIndependentSet,
    MaximalMatching,
    ParityOfDegreeProblem,
    ThreeColoringCycles,
    VertexColoring,
    line_graph,
)
from tests.conftest import build_multigraph, multigraphs


def _check(problem, graph, result):
    verdict = verify(problem, graph, Labeling(graph), result.outputs)
    assert verdict.ok, verdict.summary()


class TestVertexColoring:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: cycle(17),
            lambda: complete(5),
            lambda: torus_grid(5, 5),
            lambda: random_regular(48, 4, random.Random(0)),
            lambda: star(6),
            lambda: disjoint_union(cycle(5), path(4)),
        ],
    )
    def test_delta_plus_one_coloring(self, graph_factory):
        graph = graph_factory()
        instance = Instance.simple(graph)
        result = LinialColoringSolver().solve(instance)
        problem = VertexColoring(graph.max_degree + 1).problem()
        _check(problem, graph, result)

    def test_loops_are_exempt(self):
        graph = build_multigraph(2, [(0, 0), (0, 1)])
        problem = VertexColoring(4).problem()
        outputs = Labeling(graph)
        outputs.set_node(0, 0)
        outputs.set_node(1, 1)
        assert verify(problem, graph, Labeling(graph), outputs).ok

    def test_monochromatic_edge_rejected(self):
        graph = path(2)
        problem = VertexColoring(3).problem()
        outputs = Labeling(graph).fill_nodes(1)
        assert not verify(problem, graph, Labeling(graph), outputs).ok

    def test_respects_explicit_palette(self):
        graph = cycle(16)
        result = LinialColoringSolver(num_colors=5).solve(Instance.simple(graph))
        _check(VertexColoring(5).problem(), graph, result)

    def test_rejects_infeasible_palette(self):
        graph = complete(5)
        with pytest.raises(ValueError):
            LinialColoringSolver(num_colors=3).solve(Instance.simple(graph))

    def test_rounds_grow_very_slowly(self):
        rng = random.Random(9)
        small = cycle(16)
        large = cycle(4096)
        r_small = LinialColoringSolver(num_colors=3).solve(
            Instance(small, random_ids(16, rng))
        )
        r_large = LinialColoringSolver(num_colors=3).solve(
            Instance(large, random_ids(4096, rng))
        )
        # Theta(log* n): the gap between n=16 and n=4096 is at most a
        # couple of reduction rounds.
        assert r_large.rounds - r_small.rounds <= 6

    @given(multigraphs(max_nodes=10, max_edges=16))
    @settings(max_examples=30, deadline=None)
    def test_total_on_multigraphs(self, graph):
        instance = Instance.simple(graph)
        result = LinialColoringSolver().solve(instance)
        # the solver treats Delta = 0 as 1 (palette of at least two)
        problem = VertexColoring(max(graph.max_degree, 1) + 1).problem()
        _check(problem, graph, result)


class TestCycleColoring:
    def test_solves_cycles_and_paths(self):
        for graph in (cycle(5), cycle(64), path(33), disjoint_union(cycle(7), path(3))):
            result = CycleColoringSolver().solve(Instance.simple(graph))
            _check(ThreeColoringCycles().problem(), graph, result)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            CycleColoringSolver().solve(Instance.simple(star(3)))

    def test_problem_rejects_degree_three_configuration(self):
        graph = star(3)
        problem = ThreeColoringCycles().problem()
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, 1 if v == 0 else 2)
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert not verdict.ok


class TestMis:
    @pytest.mark.parametrize(
        "solver_factory", [ColorClassMisSolver, LubyMisSolver]
    )
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: cycle(12),
            lambda: complete(6),
            lambda: torus_grid(4, 6),
            lambda: random_regular(50, 3, random.Random(4)),
            lambda: complete_binary_tree(4),
        ],
    )
    def test_solvers_produce_valid_mis(self, solver_factory, graph_factory):
        graph = graph_factory()
        result = solver_factory().solve(Instance.simple(graph, seed=3))
        _check(MaximalIndependentSet().problem(), graph, result)

    def test_non_maximal_set_rejected(self):
        from repro.problems.mis import mis_labeling

        graph = path(3)
        problem = MaximalIndependentSet().problem()
        outputs = mis_labeling(graph, set())  # empty set is not maximal
        assert not verify(problem, graph, Labeling(graph), outputs).ok

    def test_adjacent_members_rejected(self):
        from repro.problems.mis import mis_labeling

        graph = path(2)
        problem = MaximalIndependentSet().problem()
        outputs = mis_labeling(graph, {0, 1})
        assert not verify(problem, graph, Labeling(graph), outputs).ok

    def test_isolated_nodes_must_join(self):
        from repro.local import PortGraph
        from repro.problems.mis import mis_labeling

        graph = PortGraph(2, [])
        problem = MaximalIndependentSet().problem()
        assert verify(problem, graph, Labeling(graph), mis_labeling(graph, {0, 1})).ok
        assert not verify(problem, graph, Labeling(graph), mis_labeling(graph, {0})).ok

    @given(multigraphs(max_nodes=10, max_edges=16), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_luby_total_on_multigraphs(self, graph, seed):
        result = LubyMisSolver().solve(Instance.simple(graph, seed=seed))
        _check(MaximalIndependentSet().problem(), graph, result)


class TestMatching:
    def test_line_graph_shape(self):
        graph = star(4)
        lg = line_graph(graph)
        assert lg.num_nodes == 4
        assert lg.num_edges == 6  # K4 on the star's edges

    def test_line_graph_ignores_loops(self):
        graph = build_multigraph(2, [(0, 0), (0, 1)])
        lg = line_graph(graph)
        assert lg.num_nodes == 2
        assert lg.num_edges == 0

    @pytest.mark.parametrize(
        "solver_factory", [ColorClassMatchingSolver, LubyMatchingSolver]
    )
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: cycle(9),
            lambda: complete(5),
            lambda: torus_grid(3, 5),
            lambda: random_regular(40, 3, random.Random(8)),
            lambda: star(5),
            # parallel edges join the same two identifiers
            lambda: PortGraph.from_edge_list(3, [(0, 1), (0, 1), (1, 2)]),
        ],
    )
    def test_solvers_produce_valid_matching(self, solver_factory, graph_factory):
        graph = graph_factory()
        result = solver_factory().solve(Instance.simple(graph, seed=2))
        _check(MaximalMatching().problem(), graph, result)

    def test_empty_matching_rejected_when_avoidable(self):
        from repro.problems.matching import matching_labeling

        graph = path(2)
        problem = MaximalMatching().problem()
        assert not verify(
            problem, graph, Labeling(graph), matching_labeling(graph, set())
        ).ok
        assert verify(
            problem, graph, Labeling(graph), matching_labeling(graph, {0})
        ).ok

    def test_two_matched_edges_at_node_rejected(self):
        from repro.problems.matching import matching_labeling

        graph = path(3)
        problem = MaximalMatching().problem()
        outputs = matching_labeling(graph, {0, 1})
        assert not verify(problem, graph, Labeling(graph), outputs).ok

    @given(multigraphs(max_nodes=8, max_edges=12), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_luby_total_on_multigraphs(self, graph, seed):
        result = LubyMatchingSolver().solve(Instance.simple(graph, seed=seed))
        _check(MaximalMatching().problem(), graph, result)


_FOREIGN_HALF_LABELS = [7, EMPTY, (1,), (1, 0, 0, 0), "out"]


@pytest.mark.parametrize("backend", kernels.BACKENDS)
@pytest.mark.parametrize("label", _FOREIGN_HALF_LABELS, ids=repr)
class TestLabelsOutsideTheAlphabet:
    """A half-edge label outside the problem's alphabet is a rejected
    output with a domain violation, never a crash, on every backend."""

    @staticmethod
    def _verdict(problem, graph, outputs, backend):
        with kernels.active(backend):
            return verify(problem, graph, Labeling(graph), outputs)

    @staticmethod
    def _assert_rejected_at(verdict, side):
        assert not verdict.ok
        assert any(
            v.kind == "domain" and v.where == ("half", side)
            for v in verdict.violations
        ), verdict.summary()

    def test_mis(self, label, backend):
        from repro.problems.mis import mis_labeling

        graph = cycle(6)
        outputs = mis_labeling(graph, {0, 2, 4})
        outputs.set_half(HalfEdge(1, 0), label)
        verdict = self._verdict(MaximalIndependentSet().problem(), graph, outputs, backend)
        self._assert_rejected_at(verdict, HalfEdge(1, 0))

    def test_matching(self, label, backend):
        from repro.problems.matching import matching_labeling

        graph = cycle(6)
        outputs = matching_labeling(graph, {0, 2, 4})
        outputs.set_half(HalfEdge(3, 1), label)
        verdict = self._verdict(MaximalMatching().problem(), graph, outputs, backend)
        self._assert_rejected_at(verdict, HalfEdge(3, 1))


class TestTrivial:
    def test_constant_problem(self):
        graph = cycle(5)
        result = ConstantSolver().solve(Instance.simple(graph))
        _check(ConstantLabelProblem().problem(), graph, result)
        assert result.rounds == 0

    def test_parity_problem(self):
        graph = star(3)
        result = ConstantSolver(parity=True).solve(Instance.simple(graph))
        _check(ParityOfDegreeProblem().problem(), graph, result)

    def test_wrong_constant_rejected(self):
        graph = cycle(4)
        problem = ConstantLabelProblem("ok").problem()
        outputs = Labeling(graph).fill_nodes("nope")
        assert not verify(problem, graph, Labeling(graph), outputs).ok
