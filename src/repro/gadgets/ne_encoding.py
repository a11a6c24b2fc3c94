"""Node-edge-checkable proofs (paper Section 4.6, Figures 7 and 8).

Psi as defined in Section 4.4 is checkable within radius 4; to make it
a genuine ne-LCL the paper adds three devices, all implemented here:

* **summaries** — every node replicates a constant-size digest of its
  local input (role, port tag, color, incident endpoint labels) and its
  Psi output onto its half-edges, so edge constraints can compare the
  two sides (this is how the error-pointer chain rules and the radius-2
  structural checks become edge-checkable);
* **duplicate-color witnesses** (Figure 7) — a node proving a
  distance-2 coloring violation (the stand-in for self-loops and
  parallel edges) marks exactly two half-edges with the shared color
  ``c``; the edge constraint confirms the far side's *input* color is
  ``c``.  On a properly colored gadget no two incidences can both
  succeed, so the witness cannot be fabricated;
* **chain witnesses** (Figure 8) — a node proving that one of the
  commuting-path constraints 2c/2d fails lays letters A, B, C, ...
  along the path; edge constraints force each successor letter across
  the path's next labeled edge, and the node constraint forbids one
  node holding both the first and the last letter of the same chain —
  which is exactly what a *valid* (closing) path would force.
  Overlapping chains are told apart by chain colors.

``compile_ne_proof`` lowers a prover result into these labels and
``verify_ne_proof`` checks them using node and edge constraints only.
The remaining structural constraints lower the same way (the paper:
"all the others can be handled similarly"); the radius-4 verifier in
``psi.py`` stays the reference semantics used by Pi'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple

from repro.gadgets.labels import (
    ERROR,
    LCHILD,
    LEFT,
    PARENT,
    Pointer,
    RIGHT,
    UP,
)
from repro.gadgets.scope import GadgetScope

__all__ = [
    "ChainToken",
    "NeNodeOutput",
    "NeHalfOutput",
    "NeViolation",
    "CHAIN_SPECS",
    "compile_ne_proof",
    "verify_ne_proof",
]


class ChainToken(NamedTuple):
    chain: str  # "2c" | "2d"
    color: int  # chain color distinguishing overlapping chains
    letter: int  # 0 = A, 1 = B, ...


class NeNodeOutput(NamedTuple):
    psi: Hashable
    summary: tuple  # (role, port, color, frozenset of incident labels)
    tokens: frozenset  # of ChainToken
    dup_color: int | None  # Figure 7 witness color, if any


class NeHalfOutput(NamedTuple):
    psi: Hashable
    summary: tuple
    tokens: frozenset
    dup_mark: int | None  # this half is one of the two Figure 7 marks


@dataclass(frozen=True)
class NeViolation:
    kind: str  # "node" | "edge"
    where: object
    message: str

    def __str__(self) -> str:
        return f"[ne-{self.kind} @ {self.where}] {self.message}"


#: the label sequence each chain walks; letters index into it
CHAIN_SPECS: dict[str, tuple] = {
    "2c": (LCHILD, RIGHT, PARENT),  # closes back at A in a valid gadget
    "2d": (RIGHT, LCHILD, LEFT, PARENT),
}


def _summary(scope: GadgetScope, v: int) -> tuple:
    node = scope.node_input(v)
    labels = frozenset(
        label for _p, _e, _o, label in scope.incidences(v) if label is not None
    )
    if node is None:
        return (None, None, None, labels)
    return (node.role, node.port, node.color, labels)


def _duplicate_color_witness(scope: GadgetScope, v: int) -> tuple[int, list[int]] | None:
    """Two ports of ``v`` whose far-side input colors coincide."""
    seen: dict[int, int] = {}
    for port, _eid, other, _label in scope.incidences(v):
        color = scope.color(other)
        if color is None:
            continue
        if color in seen:
            return color, [seen[color], port]
        seen[color] = port
    return None


def _chain_witness(scope: GadgetScope, v: int, chain: str) -> list[int] | None:
    """The node path of a broken 2c/2d constraint starting at ``v``.

    Returns the full node sequence when the path exists and does *not*
    return to ``v`` (the violation); None when the path is incomplete
    or correctly closes.
    """
    path = [v]
    node = v
    for label in CHAIN_SPECS[chain]:
        node = scope.follow(node, label)
        if node is None:
            return None
        path.append(node)
    if path[-1] == v:
        return None
    return path


def compile_ne_proof(
    scope: GadgetScope, component: list[int], psi_outputs: dict[int, Hashable]
) -> tuple[dict[int, NeNodeOutput], dict[tuple[int, int], NeHalfOutput]]:
    """Lower Psi outputs plus witnesses into node/half ne-labels."""
    tokens: dict[int, set[ChainToken]] = {v: set() for v in component}
    dup_color: dict[int, int | None] = {v: None for v in component}
    dup_ports: dict[int, list[int]] = {}
    next_chain_color = 0
    for v in component:
        if psi_outputs.get(v) != ERROR:
            continue
        witness = _duplicate_color_witness(scope, v)
        if witness is not None:
            color, ports = witness
            dup_color[v] = color
            dup_ports[v] = ports
        for chain in CHAIN_SPECS:
            path = _chain_witness(scope, v, chain)
            if path is None:
                continue
            chain_color = next_chain_color
            next_chain_color += 1
            for letter, node in enumerate(path):
                if node in tokens:
                    tokens[node].add(ChainToken(chain, chain_color, letter))

    node_out: dict[int, NeNodeOutput] = {}
    half_out: dict[tuple[int, int], NeHalfOutput] = {}
    for v in component:
        summary = _summary(scope, v)
        frozen = frozenset(tokens[v])
        node_out[v] = NeNodeOutput(psi_outputs.get(v), summary, frozen, dup_color[v])
        for port, _eid, _other, _label in scope.incidences(v):
            mark = (
                dup_color[v]
                if dup_color[v] is not None and port in dup_ports.get(v, [])
                else None
            )
            half_out[(v, port)] = NeHalfOutput(
                psi_outputs.get(v), summary, frozen, mark
            )
    return node_out, half_out


#: pointer-chain successor table, keyed by pointer kind (cf. psi.py)
_POINTER_SUCCESSORS = {
    RIGHT: (Pointer(RIGHT),),
    LEFT: (Pointer(LEFT),),
    PARENT: (Pointer(PARENT), Pointer(LEFT), Pointer(RIGHT), Pointer(UP)),
}


def verify_ne_proof(
    scope: GadgetScope,
    component: list[int],
    node_out: dict[int, NeNodeOutput],
    half_out: dict[tuple[int, int], NeHalfOutput],
) -> list[NeViolation]:
    """Check the witness systems with node and edge constraints only."""
    violations: list[NeViolation] = []

    # --- node constraints -------------------------------------------------
    for v in component:
        out = node_out.get(v)
        if out is None:
            violations.append(NeViolation("node", v, "missing ne output"))
            continue
        marks = []
        for port, _eid, _other, _label in scope.incidences(v):
            half = half_out.get((v, port))
            if half is None:
                violations.append(NeViolation("node", v, f"missing half at {port}"))
                continue
            if (half.psi, half.summary, half.tokens) != (
                out.psi,
                out.summary,
                out.tokens,
            ):
                violations.append(
                    NeViolation("node", v, f"half {port} does not replicate the node")
                )
            if half.dup_mark is not None:
                marks.append(half.dup_mark)
        # Figure 7: exactly two marks, one color, matching the node claim
        if out.dup_color is not None:
            if len(marks) != 2 or set(marks) != {out.dup_color}:
                violations.append(
                    NeViolation(
                        "node", v, "duplicate-color witness needs exactly two marks"
                    )
                )
        elif marks:
            violations.append(
                NeViolation("node", v, "dup marks without a node claim")
            )
        # chains: letters unique per (chain, color); first+last forbidden
        per_chain: dict[tuple[str, int], set[int]] = {}
        for token in out.tokens:
            per_chain.setdefault((token.chain, token.color), set()).add(token.letter)
        for (chain, color), letters in per_chain.items():
            last = len(CHAIN_SPECS[chain])
            if 0 in letters and last in letters:
                violations.append(
                    NeViolation(
                        "node",
                        v,
                        f"chain {chain}/{color} closes on itself (valid path!)",
                    )
                )

    # --- edge constraints ---------------------------------------------------
    seen_edges: set[int] = set()
    for v in component:
        for port, eid, other, my_label in scope.incidences(v):
            if eid in seen_edges:
                continue
            seen_edges.add(eid)
            far = scope.graph.endpoint(v, port)
            mine = half_out.get((v, port))
            theirs = half_out.get((far.node, far.port))
            if mine is None or theirs is None:
                continue  # flagged on the node side
            far_label = scope.other_label(v, port)
            for side, side_label, here, across in (
                (v, my_label, mine, theirs),
                (far.node, far_label, theirs, mine),
            ):
                # Figure 7: a mark's far side must carry the claimed color
                if here.dup_mark is not None:
                    far_color = (across.summary or (None,) * 4)[2]
                    if far_color != here.dup_mark:
                        violations.append(
                            NeViolation(
                                "edge",
                                eid,
                                f"dup-color mark {here.dup_mark} vs far color "
                                f"{far_color}",
                            )
                        )
                # Figure 8: successor letters across the chain's edges
                for token in here.tokens:
                    spec = CHAIN_SPECS[token.chain]
                    if token.letter >= len(spec):
                        continue
                    if side_label != spec[token.letter]:
                        continue
                    successor = ChainToken(token.chain, token.color, token.letter + 1)
                    if successor not in across.tokens:
                        violations.append(
                            NeViolation(
                                "edge",
                                eid,
                                f"chain {token.chain}/{token.color}: letter "
                                f"{token.letter} not continued across {side_label}",
                            )
                        )
                # pointer chains (the easy Section 4.6 cases)
                if isinstance(here.psi, Pointer):
                    kind = here.psi.kind
                    if kind in _POINTER_SUCCESSORS and side_label == kind:
                        allowed = (ERROR, *_POINTER_SUCCESSORS[kind])
                        if across.psi not in allowed:
                            violations.append(
                                NeViolation(
                                    "edge",
                                    eid,
                                    f"{kind} pointer not continued: {across.psi!r}",
                                )
                            )
    return violations
