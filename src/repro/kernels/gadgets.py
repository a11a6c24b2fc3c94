"""numpy structural pass over a gadget scope (Sections 4.2 and 4.3).

Import only behind the numpy guard (see :mod:`repro.kernels`).

A :class:`~repro.gadgets.scope.GadgetScope` keeps flat tables: the
gadget input of every node and of every CSR slot, and one in-scope
byte per edge.  This module reads them array-at-a-time:

* :func:`scope_structure` finds the in-scope components (each node's
  component is named by its smallest node) and every node's BFS
  distance from its component's smallest center;
* :func:`sound_mask` evaluates the constant-radius constraints 1a–3h
  and c1–c2d at every node at once, and marks the nodes it clears.

The object checker (:func:`repro.gadgets.checker.node_verdict`) stays
the only source of violation lists and the oracle.  The mask is exact
where it can encode every label a node reads, and conservative
elsewhere: if it marks a node sound, the object verdict is empty; a
node it flags only costs an object check.  Labels are coded by type,
never looked up by value, because distinct labels compare equal
(``Index(2) == Port(2) == Down(2) == (2,)``).  A component holding
anything the codes cannot express exactly — another role or port tag
type, a color that is not a non-negative int, a half-edge label
outside the six strings and ``Down(int)``, a malformed input — is
flagged whole: every label a node's check reads lies in its own
component.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, NamedTuple, Sequence

import numpy as np

from repro.gadgets.labels import (
    CENTER,
    Down,
    GadgetHalfInput,
    GadgetNodeInput,
    Index,
    LCHILD,
    LEFT,
    NOPORT,
    PARENT,
    Port,
    RCHILD,
    RIGHT,
    UP,
)
from repro.kernels.vector import _expand, csr_arrays

__all__ = [
    "ScopeStructure",
    "center_distances",
    "component_lists",
    "scope_structure",
    "sound_mask",
]

#: Half-edge label codes.  ``Down(i)`` with ``1 <= i <= delta`` is
#: ``_DOWN + i``; ``_DOWN`` itself codes a ``Down`` out of that range.
_P, _L, _R, _LC, _RC, _UP, _DOWN = range(7)
_NAMED = {PARENT: _P, LEFT: _L, RIGHT: _R, LCHILD: _LC, RCHILD: _RC, UP: _UP}

#: Role and port codes: ``CENTER`` and ``NOPORT`` are 0, an index in
#: ``1..delta`` is itself, and one out of range is -1.
_OUT = -1

#: The rows of a node input and of a half-edge input that the codes
#: cannot express exactly.
_UNCODED_NODE = (False, 0, 0, 0)
_UNCODED_HALF = (False, 0, 0)


class ScopeStructure(NamedTuple):
    """The in-scope components of a scope and its center distances."""

    #: per node: the smallest node of its component
    component: np.ndarray
    #: per node: the BFS distance from its component's smallest center,
    #: -1 in components without a center
    center_dist: np.ndarray
    #: per component, at its smallest node: its number of nodes
    size: np.ndarray


def _encode(labels: Sequence[Any], row: Callable, width: int) -> list[np.ndarray]:
    """The ``width`` columns of ``row(label)``, per label.

    Equal labels are mostly one shared object (``build_gadget`` and
    ``pad_graph`` intern them), so ``row`` runs once per distinct
    object, by identity, not once per node or slot.
    """
    ids = np.fromiter(map(id, labels), dtype=np.int64, count=len(labels))
    _, first, codes = np.unique(ids, return_index=True, return_inverse=True)
    rows = [row(labels[i]) for i in first.tolist()]
    table = np.array(rows, dtype=np.int32).reshape(-1, width)
    return [column[codes] for column in table.T]


def _coded_index(value: Hashable, delta: int) -> int:
    return value if 1 <= value <= delta else _OUT  # type: ignore[operator]


def _node_row(node: Any, delta: int) -> tuple:
    """``(coded, role, port, color)`` of one node input."""
    if type(node) is not GadgetNodeInput:
        return _UNCODED_NODE
    role, port, color = node
    if type(role) is Index and type(role.i) is int:
        role_code = _coded_index(role.i, delta)
    elif type(role) is str and role == CENTER:
        role_code = 0
    else:
        return _UNCODED_NODE
    if type(port) is Port and type(port.i) is int:
        port_code = _coded_index(port.i, delta)
    elif type(port) is str and port == NOPORT:
        port_code = 0
    else:
        return _UNCODED_NODE
    if type(color) is not int or not 0 <= color < 2**31:
        return _UNCODED_NODE
    return True, role_code, port_code, color


def _half_row(half: Any, delta: int) -> tuple:
    """``(coded, label, color)`` of one half-edge input."""
    if type(half) is not GadgetHalfInput:
        return _UNCODED_HALF
    label, color = half
    if type(label) is str and label in _NAMED:  # a str key is safe in a dict
        code = _NAMED[label]
    elif type(label) is Down and type(label.i) is int:
        code = _DOWN + label.i if 1 <= label.i <= delta else _DOWN
    else:
        return _UNCODED_HALF
    if type(color) is not int or not 0 <= color < 2**31:
        return _UNCODED_HALF
    return True, code, color


def _in_scope(scope: Any) -> tuple[np.ndarray, ...]:
    """``(off, peer, slots, owner, neighbor)``: the CSR tables, and the
    in-scope slots in slot order with their owner and far node."""
    off, nbr, peer, eids = csr_arrays(scope.graph)
    in_scope = np.frombuffer(scope._in_scope, dtype=np.uint8)
    slots = np.flatnonzero(in_scope[eids])
    owner = np.repeat(np.arange(len(off) - 1, dtype=np.int32), np.diff(off))[slots]
    return off, peer, slots, owner, nbr[slots]


def _component_labels(n: int, owner: np.ndarray, neighbor: np.ndarray) -> np.ndarray:
    """The smallest node of each node's in-scope component.

    Across every edge joining two roots, the larger root is hooked under
    the smaller; pointer jumping then sends every node to its root.
    Edges whose ends share a root stay joined, so each round keeps only
    the rest.
    """
    label = np.arange(n, dtype=np.int32)
    forward = owner < neighbor
    a, b = owner[forward], neighbor[forward]
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def scope_structure(scope: Any) -> ScopeStructure:
    """(b) the component labels and (c) the center distances of a scope.

    A center is a node whose role equals ``CENTER``, the test
    :func:`repro.gadgets.prover._center_distances` makes.  Each
    component's BFS starts at its smallest center, level by level.
    """
    n = scope.graph.num_nodes
    off, _peer, slots, owner, neighbor = _in_scope(scope)
    component = _component_labels(n, owner, neighbor)
    (is_center,) = _encode(
        scope._nodes, lambda node: node is not None and node.role == CENTER, 1
    )
    centers = np.flatnonzero(is_center)
    center_dist = np.full(n, -1, dtype=np.int32)
    _, first = np.unique(component[centers], return_index=True)
    frontier = centers[first]
    in_off = np.searchsorted(slots, off)
    level = 0
    while frontier.size:
        center_dist[frontier] = level
        level += 1
        reached = neighbor[_expand(in_off, frontier)]
        frontier = np.unique(reached[center_dist[reached] < 0])
    size = np.bincount(component, minlength=n).astype(np.int32)
    return ScopeStructure(component, center_dist, size)


def center_distances(
    structure: ScopeStructure, center: int, component: list[int]
) -> dict[int, int] | None:
    """What a BFS from ``center`` gives over ``component``: ``{node:
    distance}`` when it reaches exactly the nodes of ``component``, {}
    when it does not; None when the numpy BFS did not start at
    ``center``.  The nodes come in ``component`` order, not in the
    order a BFS finds them; no caller reads that order."""
    if structure.center_dist[center] != 0:
        return None
    root = structure.component[center]
    nodes = np.asarray(component)
    if not (structure.component[nodes] == root).all() or (
        np.unique(nodes).size != structure.size[root]
    ):
        return {}
    return dict(zip(component, structure.center_dist[nodes].tolist()))


def component_lists(component: np.ndarray) -> list[list[int]]:
    """The components as sorted node lists, in order of smallest node."""
    order = np.argsort(component, kind="stable")
    nodes = order.tolist()
    if not nodes:
        return []
    cuts = (np.flatnonzero(np.diff(component[order])) + 1).tolist()
    return [nodes[a:b] for a, b in zip([0, *cuts], [*cuts, len(nodes)])]


def _repeats(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The owners holding one non-negative value on two in-scope slots."""
    if not owner.size:
        return owner
    radix = int(values.max()) + 1
    keys = owner.astype(np.int64) * radix + values
    keys.sort()
    return keys[1:][keys[1:] == keys[:-1]] // radix


def _first_across(
    n: int, owner: np.ndarray, neighbor: np.ndarray, chosen: np.ndarray
) -> np.ndarray:
    """Per node, the far node of its first ``chosen`` slot, or -1: what
    :meth:`~repro.gadgets.scope.GadgetScope.follow` returns."""
    picked = np.flatnonzero(chosen)
    owners = owner[picked]
    first = np.ones(owners.size, dtype=bool)
    first[1:] = owners[1:] != owners[:-1]
    out = np.full(n, -1, dtype=np.int32)
    out[owners[first]] = neighbor[picked[first]]
    return out


def _at(table: np.ndarray, nodes: np.ndarray, missing: Any) -> np.ndarray:
    """``table[nodes]``, with ``missing`` where a node is -1."""
    return np.where(nodes >= 0, table[nodes], missing)


def sound_mask(scope: Any, delta: int) -> np.ndarray:
    """(a) per node: True where :func:`~repro.gadgets.checker.node_verdict`
    at ``delta`` certainly finds no violation (see the module docstring).

    Each check below names the constraint of ``checker.py`` it mirrors;
    a node is flagged when any of them fires, so the checks need not
    stop where the object checker returns early.
    """
    n = scope.graph.num_nodes
    off, peer, slots, owner, neighbor = _in_scope(scope)
    coded, role, port, color = _encode(
        scope._nodes, lambda node: _node_row(node, delta), 4
    )
    half_coded, half_label, half_color = _encode(
        scope._halves, lambda half: _half_row(half, delta), 3
    )
    label = half_label[slots]
    far = half_label[off[neighbor] + peer[slots]]
    half_coded, half_color = half_coded[slots], half_color[slots]
    del half_label

    # Components with anything uncoded go to the object checker whole.
    uncoded = coded == 0
    uncoded[owner[half_coded == 0]] = True
    component = scope.structure().component
    broken = np.zeros(n, dtype=bool)
    broken[component[uncoded]] = True
    flag = broken[component]

    def flag_owners(where: np.ndarray) -> None:
        flag[owner[where]] = True

    mine, theirs = color[owner], color[neighbor]
    # 1a: colors replicated on the half-edges, proper at distance 2
    flag_owners((half_color != mine) | (neighbor == owner) | (theirs == mine))
    flag[_repeats(owner, theirs)] = True
    # 1b, c2d: no endpoint label twice at a node
    flag[_repeats(owner, label)] = True

    center = role == 0
    at_center = center[owner]
    their_role = role[neighbor]
    # centers: NoPort, delta edges (c2a), each Down_i in range (alpha),
    # to Index_i (c2b), mirrored by Up (c2c)
    flag |= center & ((port != 0) | (np.bincount(owner, minlength=n) != delta))
    flag_owners(
        at_center & ((label <= _DOWN) | (their_role != label - _DOWN) | (far != _UP))
    )

    # sub-gadget nodes: index and port in range, Port_i at Index_i (1d)
    flag |= ~center & ((role == _OUT) | (port == _OUT) | ((port > 0) & (port != role)))
    is_parent, is_left, is_right = label == _P, label == _L, label == _R
    is_child = (label == _LC) | (label == _RC)
    flag_owners(
        ~at_center
        & (
            (label > _UP)  # alpha: only tree labels and Up
            | ((label < _UP) & (their_role != role[owner]))  # 1c
            | ((label == _UP) & (their_role != 0))  # 1c
            | (is_left & (far != _R))  # 2a
            | (is_right & (far != _L))  # 2a
            | (is_parent & (far != _LC) & (far != _RC))  # 2b
            | (is_child & (far != _P))  # 2b
        )
    )
    parent, left, right, lchild = (
        _first_across(n, owner, neighbor, chosen)
        for chosen in (is_parent, is_left, is_right, label == _LC)
    )
    has_p, has_l, has_r, has_lc = parent >= 0, left >= 0, right >= 0, lchild >= 0
    has_rc, has_up = (
        _first_across(n, owner, neighbor, label == code) >= 0 for code in (_RC, _UP)
    )
    del is_left, is_right, is_child, mine, theirs, their_role
    nodes = np.arange(n, dtype=np.int32)
    # 2c: u(LChild, Right, Parent) = u
    end = _at(parent, _at(right, lchild, -1), -1)
    two_c = (end >= 0) & (end != nodes)
    # 2d: u(Right, LChild, Left, Parent) = u
    end = _at(parent, _at(left, _at(lchild, right, -1), -1), -1)
    two_d = (end >= 0) & (end != nodes)
    # 3c, 3d: a boundary node is the RChild (LChild) of its parent
    flag_owners(
        ~at_center
        & is_parent
        & ((~has_r[owner] & (far != _RC)) | (~has_l[owner] & (far != _LC)))
    )
    no_children = ~has_lc & ~has_rc
    flag |= ~center & (
        two_c
        | two_d
        # 3a, 3b: boundary-ness propagates to the parent
        | (~has_r & _at(has_r, parent, False))
        | (~has_l & _at(has_l, parent, False))
        # 3e: a root-like node has exactly the two child edges
        | (~has_r & ~has_l & ~(has_lc & has_rc & ~has_p))
        | (has_lc != has_rc)  # 3f
        # 3g: the bottom row's horizontal neighbors have no children
        | (no_children & _at(has_lc | has_rc, left, False))
        | (no_children & _at(has_lc | has_rc, right, False))
        | ((port != 0) != (~has_r & no_children))  # 3h
        # up-root; with 1b and 1c, also c1 (a parentless node has one
        # Up edge, to a center)
        | (has_up == has_p)
        | (has_up & (has_l | has_r))  # root-no-sides
    )
    return ~flag
