"""Tests for labelings, ne-LCL problems, and the verifier."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import cycle, path
from repro.lcl import (
    BLANK,
    EMPTY,
    EdgeConfiguration,
    Labeling,
    LabelSet,
    NeLCL,
    NodeConfiguration,
    verify,
)
from repro.local import HalfEdge, PortGraph
from tests.conftest import build_multigraph


class TestLabelSet:
    def test_membership(self):
        colors = LabelSet("colors", {"red", "blue"})
        assert "red" in colors
        assert "green" not in colors
        assert len(colors) == 2

    def test_open_set_accepts_everything(self):
        anything = LabelSet.open_set("anything")
        assert ("weird", 3, EMPTY) in anything

    def test_closed_empty_rejected(self):
        with pytest.raises(ValueError):
            LabelSet("empty", ())

    def test_sentinels_are_singletons(self):
        import copy

        assert copy.deepcopy(EMPTY) is EMPTY
        assert copy.copy(BLANK) is BLANK
        assert repr(EMPTY) == "EMPTY"


class TestLabeling:
    def test_defaults_to_empty(self):
        graph = cycle(4)
        labeling = Labeling(graph)
        assert labeling.node(0) is EMPTY
        assert labeling.edge(0) is EMPTY
        assert labeling.half(HalfEdge(0, 0)) is EMPTY

    def test_set_and_get(self):
        graph = cycle(4)
        labeling = Labeling(graph)
        labeling.set_node(1, "a")
        labeling.set_edge(2, "b")
        labeling.set_half_at(3, 0, "c")
        assert labeling.node(1) == "a"
        assert labeling.edge(2) == "b"
        assert labeling.half_at(3, 0) == "c"

    def test_out_of_range_rejected(self):
        graph = cycle(4)
        labeling = Labeling(graph)
        with pytest.raises(KeyError):
            labeling.set_node(9, "x")
        with pytest.raises(KeyError):
            labeling.set_edge(9, "x")
        with pytest.raises(KeyError):
            labeling.set_half(HalfEdge(0, 5), "x")

    def test_fill_and_copy_independent(self):
        graph = cycle(3)
        labeling = Labeling(graph).fill_nodes("x").fill_edges("y").fill_halves("z")
        clone = labeling.copy()
        clone.set_node(0, "changed")
        assert labeling.node(0) == "x"
        assert clone.node(0) == "changed"

    def test_equality_is_structural(self):
        graph = cycle(3)
        a = Labeling(graph).fill_nodes("x")
        b = Labeling(graph).fill_nodes("x")
        assert a == b
        b.set_node(2, "y")
        assert a != b

    def test_items_iteration(self):
        graph = path(2)
        labeling = Labeling(graph)
        labeling.set_node(0, "n")
        labeling.set_half_at(1, 0, "h")
        kinds = [kind for kind, _, _ in labeling.items()]
        assert kinds == ["node", "half"]


def _all_equal_problem() -> NeLCL:
    """Toy ne-LCL: every node output must equal all incident half outputs."""

    def node_ok(cfg: NodeConfiguration) -> bool:
        return all(h == cfg.node_output for h in cfg.half_outputs)

    def edge_ok(cfg: EdgeConfiguration) -> bool:
        return cfg.half_outputs[0] == cfg.half_outputs[1]

    return NeLCL(
        name="all-equal",
        node_constraint=node_ok,
        edge_constraint=edge_ok,
        node_outputs=LabelSet("bits", {0, 1}),
        half_outputs=LabelSet("bits", {0, 1}),
    )


class TestVerifier:
    def test_accepts_valid_solution(self):
        graph = cycle(5)
        problem = _all_equal_problem()
        outputs = Labeling(graph).fill_nodes(1).fill_halves(1)
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert verdict.ok
        assert verdict.summary() == "accepted"

    def test_rejects_and_pinpoints_node(self):
        graph = cycle(5)
        problem = _all_equal_problem()
        outputs = Labeling(graph).fill_nodes(1).fill_halves(1)
        outputs.set_half_at(2, 0, 0)
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert not verdict.ok
        kinds = {v.kind for v in verdict.violations}
        assert "node" in kinds and "edge" in kinds
        assert any(v.where == 2 for v in verdict.violations if v.kind == "node")

    def test_domain_violation_reported(self):
        graph = cycle(3)
        problem = _all_equal_problem()
        outputs = Labeling(graph).fill_nodes(7).fill_halves(7)
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert any(v.kind == "domain" for v in verdict.violations)

    def test_asymmetric_constraint_flagged(self):
        def node_ok(cfg):
            return True

        def biased_edge(cfg: EdgeConfiguration) -> bool:
            return cfg.half_outputs[0] <= cfg.half_outputs[1]

        problem = NeLCL("biased", node_ok, biased_edge)
        graph = path(2)
        outputs = Labeling(graph)
        outputs.set_half_at(0, 0, 0)
        outputs.set_half_at(1, 0, 1)
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert not verdict.ok
        assert "asymmetric" in verdict.violations[0].message

    def test_every_out_of_domain_label_is_reported(self):
        graph = cycle(10)
        problem = _all_equal_problem()
        outputs = Labeling(graph)  # everything EMPTY: all domains fail
        verdict = verify(problem, graph, Labeling(graph), outputs)
        assert not verdict.ok
        # EMPTY equals EMPTY, so the constraints accept: the 10 node and
        # 20 half-edge domain violations are the whole report, nodes by
        # index first, then half-edges edge by edge.
        assert [v.where for v in verdict.violations] == [
            ("node", v) for v in graph.nodes()
        ] + [("half", h) for h in graph.half_edges()]

    def test_self_loop_configuration(self):
        graph = build_multigraph(1, [(0, 0)])
        problem = _all_equal_problem()
        outputs = Labeling(graph).fill_nodes(1).fill_halves(1)
        assert verify(problem, graph, Labeling(graph), outputs).ok
        outputs.set_half_at(0, 1, 0)
        assert not verify(problem, graph, Labeling(graph), outputs).ok

    def test_input_domain_checking_optional(self):
        graph = path(2)
        problem = _all_equal_problem()
        problem.node_inputs = LabelSet("ins", {"valid"})
        inputs = Labeling(graph).fill_nodes("invalid")
        outputs = Labeling(graph).fill_nodes(1).fill_halves(1)
        assert verify(problem, graph, inputs, outputs).ok
        verdict = verify(problem, graph, inputs, outputs, check_input_domain=True)
        assert not verdict.ok

    @given(st.integers(min_value=3, max_value=12), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_uniform_labelings_always_accepted(self, n, bit):
        graph = cycle(n)
        problem = _all_equal_problem()
        outputs = Labeling(graph).fill_nodes(bit).fill_halves(bit)
        assert verify(problem, graph, Labeling(graph), outputs).ok
