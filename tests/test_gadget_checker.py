"""Tests for the structural checker (Sections 4.2/4.3, Lemmas 7 and 8)."""

from __future__ import annotations

import random

import pytest

from repro.gadgets import (
    GadgetScope,
    all_corruptions,
    build_gadget,
    check_component,
    component_is_valid,
    corrupt,
)
from repro.gadgets.corruptions import CORRUPTIONS
from repro.gadgets.labels import GadgetHalfInput


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
        assert component_is_valid(scope, component, delta)


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
    """A scope builds each node's incidence tuple once and then shares it."""

    @staticmethod
    def _recomputed(scope, v):
        graph = scope.graph
        out = []
        for port in range(graph.degree(v)):
            eid = graph.edge_id_at(v, port)
            if not scope.in_scope(eid):
                continue
            half = scope.inputs.half_at(v, port)
            label = half.label if isinstance(half, GadgetHalfInput) else None
            out.append((port, eid, graph.neighbor(v, port), label))
        return out

    def _assert_snapshot(self, scope):
        for v in scope.graph.nodes():
            first = scope.incidences(v)
            assert list(first) == self._recomputed(scope, v), v
            assert isinstance(first, tuple)
            assert scope.incidences(v) is first
            assert scope.scope_degree(v) == len(first)

    def test_built_gadget_and_corruptions(self):
        built = build_gadget(3, 4)
        self._assert_snapshot(_scope(built.graph, built.inputs))
        for corruption in all_corruptions(built, random.Random(2)):
            self._assert_snapshot(_scope(corruption.graph, corruption.inputs))

    def test_padded_instance_scope(self):
        from repro.core import pad_graph
        from repro.core.virtual_graph import _gadget_scope
        from repro.generators import complete

        base = complete(4)
        padded = pad_graph(base, [build_gadget(3, 3) for _ in base.nodes()])
        scope = _gadget_scope(padded.graph, padded.inputs)
        self._assert_snapshot(scope)
        # port edges are out of scope, so every gadget stays its own component
        assert len(scope.components()) == base.num_nodes
