"""The distributed prover V (paper Section 4.5, Lemma 10).

Given an upper bound ``n`` on the graph size, V certifies each gadget
component in O(log n) rounds:

* on a valid gadget every node outputs ``GADOK``;
* on an invalid gadget every node outputs an error label — ``ERROR``
  at nodes whose constant-radius structural check fails, an error
  pointer elsewhere — and the resulting labeling satisfies the Psi
  constraints of Section 4.4 (a *locally checkable proof of error*).

Pointer selection follows the paper's case analysis: a node first
tries to reach an error along Right chains, then Left chains, then
Parent-then-sideways, then RChild-then-sideways; failing all four it
sits in a locally valid sub-gadget and points at its parent (or Up at
the root), and the center routes Down_i toward the lowest-index broken
sub-gadget.

The walks follow label chains, so they stay inside the O(log n) ball
of the walking node whenever the structure around the chain is valid;
the radius charged to each node is the eccentricity bound derived in
``_radius_accounting`` below, never more than ``error_radius(n)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from repro import kernels
from repro.gadgets.checker import check_component
from repro.gadgets.labels import (
    CENTER,
    Down,
    ERROR,
    GADOK,
    LEFT,
    PARENT,
    Pointer,
    RCHILD,
    RIGHT,
    UP,
)
from repro.gadgets.scope import GadgetScope
from repro.util.logmath import ceil_log2

__all__ = ["ProverResult", "error_radius", "run_prover"]


def error_radius(n_hint: int) -> int:
    """The O(log n) exploration radius of V.

    Within this radius a node of an n-node graph either sees a
    structural error or the entire (then necessarily valid) gadget: a
    valid-looking sub-gadget of depth d has 2^d - 1 nodes, so depth
    beyond log2(n) is impossible without a visible defect.
    """
    return 2 * ceil_log2(max(n_hint, 2) + 1) + 8


@dataclass
class ProverResult:
    """Per-node Psi outputs of one component plus radius accounting."""

    outputs: dict[int, Hashable]
    node_radius: dict[int, int]
    is_valid: bool
    violations: list = field(default_factory=list)
    #: On a valid gadget, each node's BFS distance from the center (the
    #: radii are charged from it); empty otherwise.  Unlike the radii it
    #: does not depend on ``n``.
    center_dist: dict[int, int] = field(default_factory=dict)

    def all_ok(self) -> bool:
        return all(label == GADOK for label in self.outputs.values())

    def error_only(self) -> bool:
        return all(label != GADOK for label in self.outputs.values())


def _walk_chain(
    scope: GadgetScope,
    start: int,
    label: Hashable,
    errors: set[int],
    limit: int,
) -> bool:
    """Is an error node reachable via 1..limit steps of ``label`` edges?"""
    seen = {start}
    node = start
    for _ in range(limit):
        node = scope.follow(node, label)
        if node is None or node in seen:
            return False
        if node in errors:
            return True
        seen.add(node)
    return False


def _walk_then_sideways(
    scope: GadgetScope,
    start: int,
    spine: Hashable,
    errors: set[int],
    limit: int,
) -> bool:
    """Error reachable via spine^i (i>=1) then Right^j or Left^j (j>=0)?"""
    seen = {start}
    node = start
    for _ in range(limit):
        node = scope.follow(node, spine)
        if node is None or node in seen:
            return False
        seen.add(node)
        if node in errors:
            return True
        if _walk_chain(scope, node, RIGHT, errors, limit):
            return True
        if _walk_chain(scope, node, LEFT, errors, limit):
            return True
    return False


def _choose_pointer(
    scope: GadgetScope,
    v: int,
    errors: set[int],
    delta: int,
    limit: int,
) -> Hashable:
    """The Section 4.5 case analysis for a structurally sound node."""
    if scope.role(v) == CENTER:
        for i in range(1, delta + 1):
            root = scope.follow(v, Down(i))
            if root is None:
                continue
            if root in errors:
                return Pointer(Down(i))
            if (
                _walk_chain(scope, root, RIGHT, errors, limit)
                or _walk_chain(scope, root, LEFT, errors, limit)
                or _walk_then_sideways(scope, root, RCHILD, errors, limit)
            ):
                return Pointer(Down(i))
        # No down-walk reaches an error: by Lemma 10 this cannot happen
        # for a sound center of an invalid gadget; guard loudly so a
        # regression is caught by the corruption tests.
        raise AssertionError(
            f"center {v}: invalid gadget but no Down pointer reaches an error"
        )
    # (a) Right chains
    if _walk_chain(scope, v, RIGHT, errors, limit):
        return Pointer(RIGHT)
    # (b) Left chains
    if _walk_chain(scope, v, LEFT, errors, limit):
        return Pointer(LEFT)
    # (c) Parent spine, then sideways
    if _walk_then_sideways(scope, v, PARENT, errors, limit):
        return Pointer(PARENT)
    # (d) RChild spine, then sideways
    if _walk_then_sideways(scope, v, RCHILD, errors, limit):
        return Pointer(RCHILD)
    # (e) the error is outside this (locally valid) sub-gadget
    if scope.follow(v, PARENT) is not None:
        return Pointer(PARENT)
    return Pointer(UP)


def _center_distances(scope: GadgetScope, component: list[int]) -> dict[int, int]:
    """BFS distances from the component's first center, or {} when it
    has no center or the search does not cover exactly the component.

    On the vector backend they are read from the scope's numpy
    :meth:`~repro.gadgets.scope.GadgetScope.structure` whenever that
    center is the smallest of its in-scope component, the one the numpy
    BFS starts from.
    """
    center = next((v for v in component if scope.role(v) == CENTER), None)
    if center is None:
        return {}
    if kernels.vector_enabled():
        from repro.kernels.gadgets import center_distances

        found = center_distances(scope.structure(), center, component)
        if found is not None:
            return found
    dist_center = {center: 0}
    frontier = deque([center])
    while frontier:
        x = frontier.popleft()
        for _p, _e, other, _l in scope.incidences(x):
            if other not in dist_center:
                dist_center[other] = dist_center[x] + 1
                frontier.append(other)
    return dist_center if set(dist_center) == set(component) else {}


def _radius_accounting(
    component: list[int], dist_center: dict[int, int], limit: int
) -> dict[int, int]:
    """The view radius each node consulted.

    Valid gadget: a node is sure once it has seen the whole gadget plus
    one hop; the distance to the center plus the center's eccentricity
    upper-bounds that.  Invalid gadget (no ``dist_center``): the
    paper's O(log n) bound (``limit``) is charged.
    """
    if not dist_center:
        return {v: limit for v in component}
    ecc_center = max(dist_center.values())
    return {v: min(dist_center[v] + ecc_center + 1, limit) for v in component}


def run_prover(
    scope: GadgetScope,
    component: list[int],
    delta: int,
    n_hint: int,
) -> ProverResult:
    """Run V on one gadget component."""
    limit = error_radius(n_hint)
    violations = check_component(scope, component, delta)
    if not violations:
        dist_center = _center_distances(scope, component)
        return ProverResult(
            outputs={v: GADOK for v in component},
            node_radius=_radius_accounting(component, dist_center, limit),
            is_valid=True,
            center_dist=dist_center,
        )
    errors = {violation.node for violation in violations}
    outputs: dict[int, Hashable] = {}
    for v in component:
        if v in errors:
            outputs[v] = ERROR
        else:
            outputs[v] = _choose_pointer(scope, v, errors, delta, limit=len(component))
    return ProverResult(
        outputs=outputs,
        node_radius=_radius_accounting(component, {}, limit),
        is_valid=False,
        violations=violations,
    )
