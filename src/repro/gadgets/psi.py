"""The error-pointer LCL Psi (paper Section 4.4).

On a gadget component every node outputs ``GADOK``, ``ERROR``, or an
error pointer.  The constraints (checkable within radius 4, the radius
of the structural checks):

1. the output is exactly one of Ok / Error / pointer;
2. a node outputs ``ERROR`` iff its structural constraints
   (Sections 4.2/4.3) fail — it can neither cry wolf nor stay silent;
3. pointer chains flow along existing edges and terminate at errors:

   =========  =====================================================
   pointer    the pointed-to node must output
   =========  =====================================================
   Right      Error or Right
   Left       Error or Left
   Parent     Error or one of {Parent, Left, Right, Up}
   RChild     Error or one of {RChild, Right, Left}
   Up         Error or Down_j with j != own index
   Down_i     Error or RChild
   =========  =====================================================

Lemma 9: on a *valid* gadget no assignment of error labels satisfies
these constraints — chains cannot terminate — so algorithms cannot
cheat by claiming an error.  The adversarial tests exercise exactly
this property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.gadgets.checker import node_verdict
from repro.gadgets.labels import (
    Down,
    ERROR,
    GADOK,
    Index,
    LEFT,
    PARENT,
    Pointer,
    RCHILD,
    RIGHT,
    UP,
)
from repro.gadgets.scope import GadgetScope

__all__ = ["PsiViolation", "verify_psi"]


@dataclass(frozen=True)
class PsiViolation:
    node: int
    message: str

    def __str__(self) -> str:
        return f"[psi @ node {self.node}] {self.message}"


#: outputs allowed across each pointer kind (Error is always allowed)
_CHAIN_SUCCESSORS: dict[Hashable, tuple] = {
    RIGHT: (Pointer(RIGHT),),
    LEFT: (Pointer(LEFT),),
    PARENT: (Pointer(PARENT), Pointer(LEFT), Pointer(RIGHT), Pointer(UP)),
    RCHILD: (Pointer(RCHILD), Pointer(RIGHT), Pointer(LEFT)),
}


def _is_valid_output(label: object, delta: int) -> bool:
    if label in (GADOK, ERROR):
        return True
    if isinstance(label, Pointer):
        kind = label.kind
        if kind in (RIGHT, LEFT, PARENT, RCHILD, UP):
            return True
        return isinstance(kind, Down) and 1 <= kind.i <= delta
    return False


def verify_psi(
    scope: GadgetScope,
    component: list[int],
    outputs: Mapping[int, object],
    delta: int,
) -> list[PsiViolation]:
    """Check one component's Psi outputs; empty list means accepted."""
    violations: list[PsiViolation] = []
    for v in component:
        label = outputs.get(v)
        if not _is_valid_output(label, delta):
            violations.append(PsiViolation(v, f"output {label!r} is not a Psi label"))
            continue
        structurally_broken = bool(node_verdict(scope, v, delta))
        if structurally_broken != (label == ERROR):
            if structurally_broken:
                violations.append(
                    PsiViolation(v, "structural violation present but no Error output")
                )
            else:
                violations.append(
                    PsiViolation(v, "Error output at a structurally sound node")
                )
            continue
        if not isinstance(label, Pointer):
            continue
        kind = label.kind
        if isinstance(kind, Down):
            target = scope.follow(v, kind)
            if target is None:
                violations.append(PsiViolation(v, f"pointer {kind} has no edge"))
                continue
            allowed = (ERROR, Pointer(RCHILD))
            if outputs.get(target) not in allowed:
                violations.append(
                    PsiViolation(
                        v, f"Down pointer chain broken at {target}: "
                        f"{outputs.get(target)!r}"
                    )
                )
        elif kind == UP:
            target = scope.follow(v, UP)
            if target is None:
                violations.append(PsiViolation(v, "Up pointer has no Up edge"))
                continue
            role = scope.role(v)
            own_index = role.i if isinstance(role, Index) else None
            target_label = outputs.get(target)
            ok = target_label == ERROR or (
                isinstance(target_label, Pointer)
                and isinstance(target_label.kind, Down)
                and target_label.kind.i != own_index
            )
            if not ok:
                violations.append(
                    PsiViolation(
                        v, f"Up pointer chain broken at {target}: {target_label!r}"
                    )
                )
        else:
            target = scope.follow(v, kind)
            if target is None:
                violations.append(PsiViolation(v, f"pointer {kind} has no edge"))
                continue
            allowed = (ERROR, *_CHAIN_SUCCESSORS[kind])
            if outputs.get(target) not in allowed:
                violations.append(
                    PsiViolation(
                        v,
                        f"{kind} pointer chain broken at {target}: "
                        f"{outputs.get(target)!r}",
                    )
                )
    return violations
