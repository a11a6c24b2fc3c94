"""Label atoms for the (log, Delta)-gadget family (paper Section 4).

Gadget graphs carry constant-size input labels that make their
structure locally checkable:

* node labels: ``Index(i)`` (sub-gadget membership) or ``CENTER``, a
  port tag (``Port(i)`` or ``NOPORT``), and a distance-2 color (the
  Section 4.6 device that rules out self-loops and parallel edges);
* edge-endpoint labels (written on half-edges): ``PARENT``, ``LEFT``,
  ``RIGHT``, ``LCHILD``, ``RCHILD`` inside a sub-gadget, ``UP`` /
  ``Down(i)`` on the center edges.

The error-pointer LCL Psi (Section 4.4) outputs ``GADOK``, ``ERROR``,
or a pointer that mirrors an edge-endpoint label.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

__all__ = [
    "Index",
    "CENTER",
    "Port",
    "NOPORT",
    "PARENT",
    "LEFT",
    "RIGHT",
    "LCHILD",
    "RCHILD",
    "UP",
    "Down",
    "TREE_LABELS",
    "GadgetNodeInput",
    "GadgetHalfInput",
    "GADOK",
    "ERROR",
    "Pointer",
    "POINTER_KINDS",
]


class Index(NamedTuple):
    """Node label Index_i: membership in sub-gadget i (1-based)."""

    i: int


class Port(NamedTuple):
    """Port tag Port_i (1-based)."""

    i: int


class Down(NamedTuple):
    """Center-side endpoint label Down_i toward sub-gadget i's root."""

    i: int


CENTER = "Center"
NOPORT = "NoPort"

PARENT = "Parent"
LEFT = "Left"
RIGHT = "Right"
LCHILD = "LChild"
RCHILD = "RChild"
UP = "Up"

#: endpoint labels that belong to the sub-gadget tree structure
TREE_LABELS = frozenset({PARENT, LEFT, RIGHT, LCHILD, RCHILD})


class GadgetNodeInput(NamedTuple):
    """The full node input: role label, port tag, distance-2 color."""

    role: Hashable  # Index(i) or CENTER
    port: Hashable  # Port(i) or NOPORT
    color: int


class GadgetHalfInput(NamedTuple):
    """The full half-edge input: endpoint label plus the owner's color.

    Replicating the owner's distance-2 color onto its half-edges is the
    Section 4.6 trick that makes color violations node-edge checkable.
    """

    label: Hashable  # PARENT/LEFT/RIGHT/LCHILD/RCHILD/UP/Down(i)
    color: int


GADOK = "GadOk"
ERROR = "Error"


class Pointer(NamedTuple):
    """An error pointer: follow the incident edge whose endpoint label
    matches ``kind`` (``Down(i)`` pointers carry the index)."""

    kind: Hashable  # RIGHT | LEFT | PARENT | RCHILD | UP | Down(i)


POINTER_KINDS = (RIGHT, LEFT, PARENT, RCHILD, UP)
