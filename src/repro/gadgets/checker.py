"""Local checkability of gadgets: the constraints of Sections 4.2 and 4.3.

``node_verdict`` evaluates every constant-radius constraint at one node
and returns the violated constraint codes; a gadget component is valid
iff no node reports a violation, i.e. ``check_component`` returns none
(Lemmas 7 and 8).  The constraint codes follow the paper's numbering:

* ``1a``–``1d``: basic consistency.  Constraint 1a (no self-loops or
  parallel edges) is realized through the distance-2 coloring input of
  Section 4.6: the checker verifies that the color is proper at
  distance 2 and replicated correctly on half-edges, which a loop or a
  parallel pair cannot satisfy.
* ``2a``–``2d``: internal tree structure (including the two
  constant-length commuting paths).
* ``3a``–``3h``: boundaries (level ends, root, bottom row, port).
* ``c1``, ``c2a``–``c2d``: the center and its Down/Up edges
  (Section 4.3).

Three conservative checks implied by validity are made explicit so
they get their own codes: ``alpha`` (label alphabets / well-formed
inputs), ``up-root`` (the Up edge exists exactly at parentless nodes),
and ``root-no-sides`` (roots have no horizontal edges).  Valid gadgets
satisfy all three, so Lemma 9 (no cheating on valid gadgets) is
unaffected.

This module is the only source of violation lists.  On the vector
backend, :func:`node_verdict` first runs one numpy pass over the whole
scope (:func:`repro.kernels.gadgets.sound_mask`), which clears the
nodes whose verdict is certainly empty; only the nodes it flags are
evaluated here, so on a valid gadget none is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import kernels
from repro.gadgets.labels import (
    CENTER,
    Down,
    Index,
    LCHILD,
    LEFT,
    NOPORT,
    PARENT,
    Port,
    RCHILD,
    RIGHT,
    TREE_LABELS,
    UP,
)
from repro.gadgets.scope import GadgetScope
from repro.obs import get_telemetry

__all__ = [
    "StructuralViolation",
    "node_verdict",
    "check_component",
]


@dataclass(frozen=True)
class StructuralViolation:
    node: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code} @ node {self.node}] {self.message}"


def _check_colors(scope: GadgetScope, v: int, out: list[StructuralViolation]) -> None:
    """Constraint 1a via the distance-2 coloring (Section 4.6)."""
    color = scope.color(v)
    if not isinstance(color, int) or color < 0:
        out.append(StructuralViolation(v, "1a", "missing distance-2 color"))
        return
    seen_neighbor_colors: set[int] = set()
    for port, _eid, other, _label in scope.incidences(v):
        half = scope.half_input(v, port)
        if half is None or half.color != color:
            out.append(
                StructuralViolation(
                    v, "1a", f"half-edge at port {port} does not replicate the color"
                )
            )
            continue
        other_color = scope.color(other)
        if other == v or other_color == color:
            out.append(
                StructuralViolation(
                    v, "1a", "a neighbor shares the node's color (loop?)"
                )
            )
        if other_color is not None:
            if other_color in seen_neighbor_colors:
                out.append(
                    StructuralViolation(
                        v,
                        "1a",
                        "two neighbors share a color (parallel edge or bad coloring)",
                    )
                )
            seen_neighbor_colors.add(other_color)


def _check_subgadget_node(
    scope: GadgetScope, v: int, delta: int, out: list[StructuralViolation]
) -> None:
    role = scope.role(v)
    assert isinstance(role, Index)
    if not 1 <= role.i <= delta:
        out.append(StructuralViolation(v, "alpha", f"index {role.i} out of range"))
    port_tag = scope.port_tag(v)
    if isinstance(port_tag, Port):
        if not 1 <= port_tag.i <= delta:
            out.append(StructuralViolation(v, "alpha", "port index out of range"))
        if port_tag.i != role.i:  # 1d
            out.append(
                StructuralViolation(
                    v, "1d", f"labeled Port_{port_tag.i} but Index_{role.i}"
                )
            )
    elif port_tag != NOPORT:
        out.append(StructuralViolation(v, "alpha", "malformed port tag"))

    incidences = scope.incidences(v)
    labels = [label for _p, _e, _o, label in incidences]

    allowed = TREE_LABELS | {UP}
    for _p, _e, _o, label in incidences:
        if label not in allowed:
            out.append(
                StructuralViolation(v, "alpha", f"endpoint label {label!r} not allowed")
            )
            return  # further navigation meaningless

    if len(set(labels)) != len(labels):  # 1b
        out.append(StructuralViolation(v, "1b", "duplicate endpoint labels"))

    for _p, _e, other, label in incidences:  # 1c
        if label in TREE_LABELS and scope.role(other) != role:
            out.append(
                StructuralViolation(
                    v, "1c", "tree edge leads to a different sub-gadget index"
                )
            )
        if label == UP and scope.role(other) != CENTER:
            out.append(StructuralViolation(v, "1c", "Up edge does not reach a center"))

    # 2a / 2b: endpoint labels pair up
    for port, _eid, _other, label in incidences:
        other_label = scope.other_label(v, port)
        if label == LEFT and other_label != RIGHT:
            out.append(StructuralViolation(v, "2a", "Left not mirrored by Right"))
        if label == RIGHT and other_label != LEFT:
            out.append(StructuralViolation(v, "2a", "Right not mirrored by Left"))
        if label == PARENT and other_label not in (LCHILD, RCHILD):
            out.append(StructuralViolation(v, "2b", "Parent not mirrored by a child"))
        if label in (LCHILD, RCHILD) and other_label != PARENT:
            out.append(StructuralViolation(v, "2b", "child edge not mirrored by Parent"))

    # 2c: u(LChild, Right, Parent) = u
    a = scope.follow(v, LCHILD)
    if a is not None:
        b = scope.follow(a, RIGHT)
        if b is not None:
            c = scope.follow(b, PARENT)
            if c is not None and c != v:
                out.append(StructuralViolation(v, "2c", "LChild-Right-Parent escapes"))
    # 2d: u(Right, LChild, Left, Parent) = u
    a = scope.follow(v, RIGHT)
    if a is not None:
        b = scope.follow(a, LCHILD)
        if b is not None:
            c = scope.follow(b, LEFT)
            if c is not None:
                d = scope.follow(c, PARENT)
                if d is not None and d != v:
                    out.append(
                        StructuralViolation(v, "2d", "Right-LChild-Left-Parent escapes")
                    )

    has = {label: True for label in labels}
    parent = scope.follow(v, PARENT)
    # 3a / 3b: boundary-ness propagates upward -- a node on the right
    # (left) boundary has a parent on the right (left) boundary.  (The
    # converse is false in valid sub-gadgets: the left child of a
    # rightmost node is interior, so the paper's "iff" is read as this
    # one direction.)
    if parent is not None:
        for side, code in ((RIGHT, "3a"), (LEFT, "3b")):
            if side not in has and scope.has_label(parent, side):
                out.append(
                    StructuralViolation(
                        v, code, f"{side}-boundary node has a non-boundary parent"
                    )
                )
    # 3c / 3d: boundary nodes are the right/left child of their parent
    if parent is not None:
        for port, _eid, other, label in incidences:
            if label != PARENT:
                continue
            other_label = scope.other_label(v, port)
            if RIGHT not in has and other_label != RCHILD:
                out.append(
                    StructuralViolation(v, "3c", "right-boundary node is not an RChild")
                )
            if LEFT not in has and other_label != LCHILD:
                out.append(
                    StructuralViolation(v, "3d", "left-boundary node is not an LChild")
                )
    # 3e: the root has exactly the two child edges
    if RIGHT not in has and LEFT not in has:
        tree_labels = sorted(
            str(l) for l in labels if l in TREE_LABELS
        )
        if tree_labels != [str(LCHILD), str(RCHILD)]:
            out.append(
                StructuralViolation(
                    v, "3e", f"root-like node has tree edges {tree_labels}"
                )
            )
    # 3f: children come in pairs
    if (LCHILD in has) != (RCHILD in has):
        out.append(StructuralViolation(v, "3f", "only one child edge present"))
    # 3g: the bottom boundary is horizontal
    if LCHILD not in has and RCHILD not in has:
        for side in (LEFT, RIGHT):
            w = scope.follow(v, side)
            if w is not None and (
                scope.has_label(w, LCHILD) or scope.has_label(w, RCHILD)
            ):
                out.append(
                    StructuralViolation(v, "3g", "bottom row neighbor has children")
                )
    # 3h: ports are exactly the bottom-right corners
    is_corner = RIGHT not in has and LCHILD not in has and RCHILD not in has
    if isinstance(port_tag, Port) != is_corner:
        out.append(
            StructuralViolation(
                v, "3h", "Port tag does not match the bottom-right corner"
            )
        )
    # c1: parentless nodes hang off a center; up-root: Up exactly there
    if PARENT not in has:
        centers = [
            other
            for _p, _e, other, label in incidences
            if label == UP and scope.role(other) == CENTER
        ]
        if len(centers) != 1:
            out.append(
                StructuralViolation(
                    v, "c1", "parentless node needs exactly one center neighbor"
                )
            )
    if (UP in has) == (PARENT in has):
        out.append(
            StructuralViolation(
                v, "up-root", "Up edge must exist exactly at parentless nodes"
            )
        )
    # root-no-sides: a root has no horizontal edges (level 0 is a single
    # node).  Valid gadgets satisfy this; making it explicit keeps the
    # prover's Down-pointer chains consistent (see prover.py).
    if UP in has and (LEFT in has or RIGHT in has):
        out.append(
            StructuralViolation(v, "root-no-sides", "root with a horizontal edge")
        )


def _check_center(
    scope: GadgetScope, v: int, delta: int, out: list[StructuralViolation]
) -> None:
    if scope.port_tag(v) != NOPORT:
        out.append(StructuralViolation(v, "alpha", "a center cannot be a port"))
    incidences = scope.incidences(v)
    if len(incidences) != delta:  # c2a
        out.append(
            StructuralViolation(
                v, "c2a", f"center degree {len(incidences)} != delta {delta}"
            )
        )
    seen_indices: set[int] = set()
    for port, _eid, other, label in incidences:
        if not isinstance(label, Down) or not 1 <= label.i <= delta:
            out.append(
                StructuralViolation(v, "alpha", f"center edge labeled {label!r}")
            )
            continue
        role = scope.role(other)
        if role != Index(label.i):  # c2b
            out.append(
                StructuralViolation(
                    v, "c2b", f"Down_{label.i} edge reaches role {role!r}"
                )
            )
        if scope.other_label(v, port) != UP:  # c2c
            out.append(StructuralViolation(v, "c2c", "center edge not labeled Up"))
        if label.i in seen_indices:  # c2d
            out.append(
                StructuralViolation(v, "c2d", f"two Down_{label.i} edges")
            )
        seen_indices.add(label.i)


def node_verdict(
    scope: GadgetScope, v: int, delta: int
) -> tuple[StructuralViolation, ...]:
    """All constant-radius structural constraints at node ``v``, as the
    memoized tuple of violations (shared — a sound node's is the one
    empty tuple).

    The verdict is a pure function of the labels the scope read, so it
    is computed once per ``(v, delta)``: the memo for ``delta`` is made
    on the scope's first check at that ``delta``.  On the vector
    backend, one structural pass
    (:func:`repro.kernels.gadgets.sound_mask`) fills it with ``()`` at
    every node it clears, so only the nodes it flags are evaluated here
    (counted as ``gadgets.node_checks``).
    """
    table = scope.verdicts.get(delta)
    if table is None:
        table = scope.verdicts[delta] = _new_memo(scope, delta)
    verdict = table[v]
    if verdict is None:
        get_telemetry().incr("gadgets.node_checks")
        verdict = table[v] = tuple(_evaluate_node(scope, v, delta))
    return verdict


def _new_memo(scope: GadgetScope, delta: int) -> list[tuple | None]:
    """A fresh memo: ``()`` where the structural pass clears a node,
    None (not yet evaluated) elsewhere."""
    if not kernels.vector_enabled():
        return [None] * scope.graph.num_nodes
    from repro.kernels.gadgets import sound_mask

    get_telemetry().incr("gadgets.structural_passes")
    return [() if sound else None for sound in sound_mask(scope, delta).tolist()]


def _evaluate_node(
    scope: GadgetScope, v: int, delta: int
) -> list[StructuralViolation]:
    """:func:`node_verdict` without the memo."""
    out: list[StructuralViolation] = []
    node = scope.node_input(v)
    if node is None:
        return [StructuralViolation(v, "alpha", "node input is not a gadget label")]
    for port, _eid, _other, _label in scope.incidences(v):
        if scope.half_input(v, port) is None:
            out.append(
                StructuralViolation(
                    v, "alpha", f"half-edge input at port {port} is malformed"
                )
            )
            return out
    _check_colors(scope, v, out)
    role = scope.role(v)
    if role == CENTER:
        _check_center(scope, v, delta, out)
    elif isinstance(role, Index):
        _check_subgadget_node(scope, v, delta, out)
    else:
        out.append(StructuralViolation(v, "alpha", f"unknown role {role!r}"))
    return out


def check_component(
    scope: GadgetScope, component: list[int], delta: int
) -> list[StructuralViolation]:
    """Structural violations over one gadget component."""
    out: list[StructuralViolation] = []
    for v in component:
        out.extend(node_verdict(scope, v, delta))
    return out
