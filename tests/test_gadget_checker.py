"""Tests for the structural checker (Sections 4.2/4.3, Lemmas 7 and 8)."""

from __future__ import annotations

import random

import pytest

from repro.gadgets import (
    GadgetScope,
    all_corruptions,
    build_gadget,
    check_component,
    corrupt,
)
from repro.core.padding import PORTEDGE
from repro.gadgets.corruptions import CORRUPTIONS
from repro.gadgets.labels import (
    TREE_LABELS,
    UP,
    Down,
    GadgetHalfInput,
    GadgetNodeInput,
)
from repro.gadgets.probes import PROBE_FAMILIES
from repro.runtime import registry


def _scope(graph, inputs):
    return GadgetScope(graph, inputs)


class TestValidGadgetsAccepted:
    @pytest.mark.parametrize(
        "delta,heights",
        [
            (1, 2),
            (2, 2),
            (2, 4),
            (3, 3),
            (3, 5),
            (4, 3),
            (3, (2, 4, 3)),
            (2, (5, 2)),
        ],
    )
    def test_no_violations(self, delta, heights):
        built = build_gadget(delta, heights)
        scope = _scope(built.graph, built.inputs)
        component = sorted(built.graph.nodes())
        violations = check_component(scope, component, delta)
        assert violations == [], [str(v) for v in violations[:5]]


class TestCorruptionsRejected:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_each_corruption_flagged(self, name):
        built = build_gadget(3, 4)
        corruption = corrupt(built, name)
        scope = _scope(corruption.graph, corruption.inputs)
        component = sorted(corruption.graph.nodes())
        violations = check_component(scope, component, 3)
        assert violations, f"{name} was not detected"

    def test_expected_codes(self):
        built = build_gadget(3, 4)
        expectations = {
            "wrong-index": "1c",
            "fake-port": "3h",
            "missing-port": "3h",
            "color-clash": "1a",
            "color-replication": "1a",
            "swapped-children": "2c",
            "dropped-horizontal": "3a",
        }
        for name, code in expectations.items():
            corruption = corrupt(built, name)
            scope = _scope(corruption.graph, corruption.inputs)
            codes = {
                v.code
                for v in check_component(scope, sorted(corruption.graph.nodes()), 3)
            }
            assert code in codes, f"{name}: expected {code}, got {codes}"

    def test_wrong_delta_rejects_center(self):
        built = build_gadget(3, 3)
        scope = _scope(built.graph, built.inputs)
        component = sorted(built.graph.nodes())
        violations = check_component(scope, component, 4)
        assert any(v.code == "c2a" for v in violations)

    def test_garbage_inputs_flagged(self):
        from repro.lcl import Labeling

        built = build_gadget(2, 2)
        empty = Labeling(built.graph)
        scope = _scope(built.graph, empty)
        violations = check_component(scope, sorted(built.graph.nodes()), 2)
        assert all(v.code == "alpha" for v in violations)
        assert len(violations) == built.num_nodes

    def test_violation_str(self):
        built = build_gadget(2, 2)
        corruption = corrupt(built, "missing-port")
        scope = _scope(corruption.graph, corruption.inputs)
        violations = check_component(scope, sorted(corruption.graph.nodes()), 2)
        assert "3h" in str(violations[0])


class TestCorruptionLocality:
    """Corruptions are detected *near* the tampering: the checker radius
    is constant, so flagged nodes sit within distance 4 of the change."""

    def test_flagged_nodes_near_corruption(self):
        from repro.local import bfs_distances

        built = build_gadget(3, 5)
        for corruption in all_corruptions(built, random.Random(1)):
            scope = _scope(corruption.graph, corruption.inputs)
            component = sorted(corruption.graph.nodes())
            flagged = {v.node for v in check_component(scope, component, 3)}
            assert flagged
            # all flagged nodes are within distance 4 of each other's
            # neighborhoods; in particular the flagged set is small
            assert len(flagged) <= 12, corruption.name


class TestScopeSnapshot:
    """A scope reads its labels once, into flat tables; every accessor
    must still answer exactly what the labeling says, from its
    navigation table and, once that is dropped, from the flat tables
    alone."""

    FOLLOW_LABELS = (*TREE_LABELS, UP, Down(1), Down(2), Down(3), "no-such-label")

    def _assert_snapshot(self, scope, inputs, edge_in_scope=lambda eid: True):
        graph = scope.graph
        for eid in range(graph.num_edges):
            assert scope.in_scope(eid) is edge_in_scope(eid), eid
        for v in graph.nodes():
            node = inputs.node(v)
            node = node if isinstance(node, GadgetNodeInput) else None
            assert scope.node_input(v) == node, v
            assert scope.role(v) == (node.role if node else None)
            assert scope.port_tag(v) == (node.port if node else None)
            assert scope.color(v) == (node.color if node else None)
            rows = []
            for port in range(graph.degree(v)):
                half = inputs.half_at(v, port)
                half = half if isinstance(half, GadgetHalfInput) else None
                assert scope.half_input(v, port) == half, (v, port)
                far = inputs.half_at(*graph.endpoint(v, port))
                far_label = far.label if isinstance(far, GadgetHalfInput) else None
                assert scope.other_label(v, port) == far_label, (v, port)
                eid = graph.edge_id_at(v, port)
                if edge_in_scope(eid):
                    label = half.label if half else None
                    rows.append((port, eid, graph.neighbor(v, port), label))
            first = scope.incidences(v)
            assert list(first) == rows, v
            assert isinstance(first, tuple)
            assert scope.incidences(v) == first
            assert scope.scope_degree(v) == len(first)
            for label in self.FOLLOW_LABELS:
                expected = next((o for _p, _e, o, mine in rows if mine == label), None)
                assert scope.follow(v, label) == expected, (v, label)

    def _assert_both_modes(self, scope, inputs, edge_in_scope=lambda eid: True):
        self._assert_snapshot(scope, inputs, edge_in_scope)
        scope.drop_navigation()
        self._assert_snapshot(scope, inputs, edge_in_scope)

    def test_built_gadget_and_corruptions(self):
        built = build_gadget(3, 4)
        self._assert_both_modes(_scope(built.graph, built.inputs), built.inputs)
        for corruption in all_corruptions(built, random.Random(2)):
            self._assert_both_modes(
                _scope(corruption.graph, corruption.inputs), corruption.inputs
            )

    @pytest.mark.parametrize("family", PROBE_FAMILIES)
    def test_registered_corruption_families(self, family):
        instance = registry.family(family).builder(4, 0)
        self._assert_both_modes(
            _scope(instance.graph, instance.inputs), instance.inputs
        )

    def test_edge_filter(self):
        built = build_gadget(3, 3)
        kept = lambda eid: eid % 3 != 0  # noqa: E731
        in_scope = bytes(kept(eid) for eid in range(built.graph.num_edges))
        self._assert_both_modes(
            GadgetScope(built.graph, built.inputs, in_scope), built.inputs, kept
        )

    def test_padded_instance_scope(self):
        from repro.core import gadget_analysis, pad_graph
        from repro.core.projection import GadgetProjection
        from repro.gadgets import LogGadgetFamily
        from repro.generators import complete

        base = complete(4)
        padded = pad_graph(base, [build_gadget(3, 3) for _ in base.nodes()])
        # the analysis keeps its scope with the navigation table dropped
        scope = gadget_analysis(padded.graph, padded.inputs, LogGadgetFamily(3)).scope
        self._assert_snapshot(
            scope,
            GadgetProjection(padded.graph, padded.inputs),
            lambda eid: padded.edge_tag(eid) != PORTEDGE,
        )
        # port edges are out of scope, so every gadget stays its own component
        assert len(scope.components()) == base.num_nodes

    def test_registered_padded_instance_scope(self):
        from repro.core import gadget_analysis
        from repro.core.projection import GadgetProjection, edge_tag
        from repro.gadgets import LogGadgetFamily

        instance = registry.family("padded-sinkless").builder(2, 0)
        graph, inputs = instance.graph, instance.inputs
        scope = gadget_analysis(graph, inputs, LogGadgetFamily(3)).scope
        self._assert_snapshot(
            scope,
            GadgetProjection(graph, inputs),
            lambda eid: edge_tag(inputs, eid) != PORTEDGE,
        )


#: The structural codes each registered corruption family raises,
#: pinned so that a faster checker cannot silently change a verdict.
CORRUPTION_CODES = {
    "corrupt-color-clash": ["1a"],
    "corrupt-color-replication": ["1a"],
    "corrupt-detached-subgadget": ["c1", "c2a", "up-root"],
    "corrupt-dropped-horizontal": ["3a", "3b"],
    "corrupt-duplicate-down": ["c2b", "c2d"],
    "corrupt-fake-port": ["3h"],
    "corrupt-missing-port": ["3h"],
    "corrupt-parent-as-child": ["1b", "2b", "2c", "c1", "up-root"],
    "corrupt-swapped-children": ["2c", "2d"],
    "corrupt-wrong-index": ["1c"],
}


class TestStructuralVerdicts:
    def test_every_corruption_family_is_pinned(self):
        assert sorted(PROBE_FAMILIES) == sorted(CORRUPTION_CODES)

    @pytest.mark.parametrize("family", sorted(CORRUPTION_CODES))
    def test_corruption_families_rejected_with_the_same_codes(self, family):
        from repro.gadgets.proof import verify_prover_ok
        from repro.runtime.driver import dispatch_solver

        for height in (4, 5):
            instance = registry.family(family).builder(height, 0)
            scope = _scope(instance.graph, instance.inputs)
            component = sorted(instance.graph.nodes())
            codes = {v.code for v in check_component(scope, component, 3)}
            assert sorted(codes) == CORRUPTION_CODES[family], height
            result = dispatch_solver(
                registry.solver("gadget-prover").factory(), instance
            )
            with pytest.raises(AssertionError):
                verify_prover_ok(instance, result)

    def test_node_verdict_is_memoized_per_scope(self, monkeypatch):
        from repro.gadgets import checker

        built = corrupt(build_gadget(3, 4), "wrong-index")
        scope = _scope(built.graph, built.inputs)
        calls = []
        original = checker._evaluate_node

        def counted(scope, v, delta):
            calls.append((v, delta))
            return original(scope, v, delta)

        monkeypatch.setattr(checker, "_evaluate_node", counted)
        nodes = list(built.graph.nodes())
        first = {v: checker.node_verdict(scope, v, 3) for v in nodes}
        assert any(first.values())
        again = {v: checker.node_verdict(scope, v, 3) for v in nodes}
        assert calls == [(v, 3) for v in nodes]
        assert all(again[v] is first[v] for v in nodes)  # the memo's tuples
        fresh = _scope(built.graph, built.inputs)
        assert again == {v: tuple(original(fresh, v, 3)) for v in nodes}
