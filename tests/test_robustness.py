"""Robustness suite: adversarial identifiers, property-based padding
round trips, and scope/navigation units."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PaddedProblem, PaddedSolver, pad_graph
from repro.gadgets import GadgetScope, LogGadgetFamily, build_gadget
from repro.gadgets.labels import Down, LCHILD, PARENT, RIGHT, UP
from repro.generators import complete, random_regular
from repro.lcl import Labeling, verify
from repro.local import Instance
from repro.local.identifiers import IdAssignment, random_ids, sequential_ids
from repro.problems import (
    DeterministicSinklessSolver,
    RandomizedSinklessSolver,
    SinklessOrientation,
)
from repro.util.rng import NodeRng
from tests.conftest import build_multigraph


class TestAdversarialIdentifiers:
    @pytest.mark.parametrize(
        "ids_factory",
        [
            sequential_ids,
            lambda n: IdAssignment(range(n, 0, -1)),
            lambda n: random_ids(n, random.Random(99)),
        ],
    )
    def test_sinkless_solvers_id_independent_correctness(self, ids_factory):
        graph = random_regular(48, 3, random.Random(3))
        ids = ids_factory(48)
        problem = SinklessOrientation().problem()
        for solver in (DeterministicSinklessSolver(), RandomizedSinklessSolver()):
            instance = Instance(graph, ids, None, None, NodeRng(1))
            result = solver.solve(instance)
            verdict = verify(problem, graph, Labeling(graph), result.outputs)
            assert verdict.ok, (solver.name, verdict.summary())

    def test_padded_solver_with_scrambled_ids(self):
        base = complete(4)
        gadgets = [build_gadget(3, 3) for _ in base.nodes()]
        padded = pad_graph(base, gadgets)
        family = LogGadgetFamily(3)
        problem = PaddedProblem(SinklessOrientation().problem(), family)
        ids = random_ids(padded.graph.num_nodes, random.Random(5))
        instance = Instance(padded.graph, ids, padded.inputs)
        result = PaddedSolver(problem, DeterministicSinklessSolver()).solve(instance)
        verdict = problem.verify(padded.graph, padded.inputs, result.outputs)
        assert verdict.ok, verdict.summary()

    def test_det_solver_output_changes_with_ids_but_stays_valid(self):
        graph = random_regular(32, 3, random.Random(8))
        problem = SinklessOrientation().problem()
        outputs = []
        for ids in (sequential_ids(32), IdAssignment(range(32, 0, -1))):
            result = DeterministicSinklessSolver().solve(Instance(graph, ids))
            assert verify(problem, graph, Labeling(graph), result.outputs).ok
            outputs.append(result.outputs)
        # determinism is per-instance; different ids may legitimately
        # yield different orientations -- both must verify (checked above)


@st.composite
def small_cubicish_graphs(draw):
    """Connected-ish multigraphs with max degree <= 3 for padding."""
    n = draw(st.integers(2, 6))
    pairs = []
    degree = [0] * n
    for _ in range(draw(st.integers(1, 8))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if degree[u] < 3 and degree[v] < 3 and (u != v or degree[u] < 2):
            pairs.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return build_multigraph(n, pairs)


class TestPaddedRoundTripProperty:
    @given(small_cubicish_graphs(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_pad_solve_verify(self, base, seed):
        gadgets = [build_gadget(3, 2) for _ in base.nodes()]
        padded = pad_graph(base, gadgets)
        family = LogGadgetFamily(3)
        problem = PaddedProblem(SinklessOrientation().problem(), family)
        instance = Instance(
            padded.graph,
            sequential_ids(padded.graph.num_nodes),
            padded.inputs,
            None,
            NodeRng(seed),
        )
        for base_solver in (
            DeterministicSinklessSolver(),
            RandomizedSinklessSolver(),
        ):
            result = PaddedSolver(problem, base_solver).solve(instance)
            verdict = problem.verify(padded.graph, padded.inputs, result.outputs)
            assert verdict.ok, verdict.summary()

    @given(small_cubicish_graphs())
    @settings(max_examples=25, deadline=None)
    def test_contraction_recovers_base_shape(self, base):
        from repro.core import decompose

        gadgets = [build_gadget(3, 2) for _ in base.nodes()]
        padded = pad_graph(base, gadgets)
        decomposition = decompose(
            padded.graph,
            padded.inputs,
            LogGadgetFamily(3),
            sequential_ids(padded.graph.num_nodes),
            padded.graph.num_nodes,
        )
        virtual = decomposition.analysis.virtual
        assert virtual.num_real() == base.num_nodes
        assert virtual.graph.num_edges == base.num_edges
        # degree spectrum is preserved by the contraction
        base_degrees = sorted(base.degree(v) for v in base.nodes())
        virtual_degrees = sorted(
            virtual.graph.degree(a)
            for a in virtual.graph.nodes()
            if virtual.component_of_virtual[a] is not None
        )
        assert base_degrees == virtual_degrees


class TestGadgetScope:
    def test_follow_and_components(self):
        built = build_gadget(2, 3)
        scope = GadgetScope(built.graph, built.inputs)
        assert scope.components() == [sorted(built.graph.nodes())]
        root1 = scope.follow(built.center, Down(1))
        assert scope.follow(root1, UP) == built.center
        child = scope.follow(root1, LCHILD)
        assert scope.follow(child, PARENT) == root1

    def test_follow_missing_label(self):
        built = build_gadget(2, 3)
        scope = GadgetScope(built.graph, built.inputs)
        assert scope.follow(built.center, RIGHT) is None

    def test_edge_filter_splits_components(self):
        built = build_gadget(2, 3)
        # exclude the center's edges: each sub-gadget becomes a component
        center_edges = {
            built.graph.edge_id_at(built.center, p)
            for p in range(built.graph.degree(built.center))
        }
        scope = GadgetScope(
            built.graph,
            built.inputs,
            bytes(eid not in center_edges for eid in range(built.graph.num_edges)),
        )
        comps = scope.components()
        assert len(comps) == 3  # two sub-gadgets + isolated center
        assert scope.scope_degree(built.center) == 0

    def test_labels_at_and_has_label(self):
        built = build_gadget(2, 4)
        scope = GadgetScope(built.graph, built.inputs)
        port = built.ports[0]
        labels = scope.labels_at(port)
        assert PARENT in labels
        assert scope.has_label(port, PARENT)
        assert not scope.has_label(port, RIGHT)
