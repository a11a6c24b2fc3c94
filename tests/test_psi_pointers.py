"""Unit tests for each Psi pointer-chain constraint (Section 4.4, 3a-3f)."""

from __future__ import annotations

import pytest

from repro.gadgets import (
    ERROR,
    GADOK,
    GadgetScope,
    Pointer,
    build_gadget,
    corrupt,
    run_prover,
    verify_psi,
)
from repro.gadgets.labels import Down, LCHILD, LEFT, PARENT, RCHILD, RIGHT, UP


@pytest.fixture(scope="module")
def broken():
    """A corrupted gadget with a Psi-consistent proof to mutate.

    The wrong-index corruption's height-4 proof holds Right, Left,
    Parent, RChild, Up and Down pointers, so every chain below has a
    pointer to break.
    """
    built = build_gadget(3, 4)
    corruption = corrupt(built, "wrong-index")
    scope = GadgetScope(corruption.graph, corruption.inputs)
    component = sorted(corruption.graph.nodes())
    prover = run_prover(scope, component, 3, corruption.graph.num_nodes)
    assert verify_psi(scope, component, prover.outputs, 3) == []
    return scope, component, prover.outputs


def _find(scope, component, outputs, kind):
    for v in component:
        label = outputs[v]
        if isinstance(label, Pointer) and label.kind == kind:
            return v
    return None


class TestChainBreaks:
    @pytest.mark.parametrize("kind", [RIGHT, LEFT, PARENT, RCHILD])
    def test_breaking_a_chain_rejected(self, broken, kind):
        scope, component, outputs = broken
        v = _find(scope, component, outputs, kind)
        assert v is not None, f"no {kind} pointer in this proof"
        target = scope.follow(v, kind)
        assert target is not None
        mutated = dict(outputs)
        mutated[target] = GADOK
        assert verify_psi(scope, component, mutated, 3)

    def test_up_pointer_needs_down_continuation(self, broken):
        scope, component, outputs = broken
        v = _find(scope, component, outputs, UP)
        assert v is not None, "no Up pointer in this proof"
        center = scope.follow(v, UP)
        mutated = dict(outputs)
        mutated[center] = GADOK
        assert verify_psi(scope, component, mutated, 3)

    def test_up_pointer_rejects_own_subgadget(self, broken):
        """The center may not point back into the Up-pointer's gadget."""
        scope, component, outputs = broken
        v = _find(scope, component, outputs, UP)
        assert v is not None, "no Up pointer in this proof"
        center = scope.follow(v, UP)
        own_index = scope.role(v).i
        mutated = dict(outputs)
        mutated[center] = Pointer(Down(own_index))
        violations = verify_psi(scope, component, mutated, 3)
        assert violations  # either the Up rule or the Down chain breaks


class TestOutputDiscipline:
    def test_error_without_violation_rejected(self, broken):
        scope, component, outputs = broken
        sound = next(v for v in component if outputs[v] != ERROR)
        mutated = dict(outputs)
        mutated[sound] = ERROR
        assert verify_psi(scope, component, mutated, 3)

    def test_violation_without_error_rejected(self, broken):
        scope, component, outputs = broken
        flagged = next(v for v in component if outputs[v] == ERROR)
        mutated = dict(outputs)
        mutated[flagged] = Pointer(PARENT)
        assert verify_psi(scope, component, mutated, 3)

    def test_alien_label_rejected(self, broken):
        scope, component, outputs = broken
        mutated = dict(outputs)
        mutated[component[0]] = "wat"
        assert verify_psi(scope, component, mutated, 3)

    def test_out_of_range_down_rejected(self, broken):
        scope, component, outputs = broken
        mutated = dict(outputs)
        mutated[component[0]] = Pointer(Down(99))
        assert verify_psi(scope, component, mutated, 3)

    def test_pointer_without_edge_rejected(self):
        built = build_gadget(2, 3)
        corruption = corrupt(built, "wrong-index")
        scope = GadgetScope(corruption.graph, corruption.inputs)
        component = sorted(corruption.graph.nodes())
        prover = run_prover(scope, component, 2, corruption.graph.num_nodes)
        mutated = dict(prover.outputs)
        # the center has no Right edge; force a Right pointer there
        center = next(v for v in component if scope.role(v) == "Center")
        assert mutated[center] != ERROR, "center is an error node in this corruption"
        mutated[center] = Pointer(RIGHT)
        assert verify_psi(scope, component, mutated, 2)
