"""Label projections between the Pi' layer and the gadget layer.

Pi' input labels are pairs ``(pi_input, gadget_input)`` (Section 3.3).
The gadget machinery of Section 4 (checker, prover, Psi) reads plain
gadget labels; :class:`GadgetProjection` adapts a padded labeling to
that interface by projecting the gadget component, leaving anything
malformed as-is so the checker can flag it.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.padding import GADEDGE, PORTEDGE, PaddedInput
from repro.lcl.assignment import Labeling
from repro.lcl.labels import EMPTY
from repro.local.graphs import HalfEdge, PortGraph

__all__ = ["GadgetProjection", "edge_tag", "pi_part", "gadget_part"]


def pi_part(label: Hashable) -> Hashable:
    return label.pi if isinstance(label, PaddedInput) else EMPTY


def gadget_part(label: Hashable) -> Hashable:
    return label.gadget if isinstance(label, PaddedInput) else label


def edge_tag(inputs: Labeling, eid: int) -> Hashable:
    """The GadEdge/PortEdge tag of an edge (EMPTY when malformed)."""
    label = inputs.edge(eid)
    tag = gadget_part(label)
    return tag if tag in (GADEDGE, PORTEDGE) else EMPTY


class GadgetProjection:
    """A read-only Labeling view exposing the gadget layer of Pi' inputs.

    Quacks like :class:`repro.lcl.assignment.Labeling` for the read
    methods the gadget scope/checker/prover use.
    """

    def __init__(self, graph: PortGraph, padded_inputs: Labeling):
        self.graph = graph
        self._inputs = padded_inputs

    def node(self, v: int) -> Hashable:
        return gadget_part(self._inputs.node(v))

    def edge(self, eid: int) -> Hashable:
        return gadget_part(self._inputs.edge(eid))

    def half(self, side: HalfEdge) -> Hashable:
        return gadget_part(self._inputs.half(side))

    def half_at(self, v: int, port: int) -> Hashable:
        return gadget_part(self._inputs.half_at(v, port))

    def node_labels(self) -> list[Hashable]:
        return _gadget_parts(self._inputs.node_labels())

    def edge_labels(self) -> list[Hashable]:
        return _gadget_parts(self._inputs.edge_labels())

    def slot_labels(self) -> list[Hashable]:
        return _gadget_parts(self._inputs.slot_labels())


def _gadget_parts(labels: list[Hashable]) -> list[Hashable]:
    """``gadget_part`` of every label (``PaddedInput`` is ``(pi, gadget)``)."""
    return [label[1] if isinstance(label, PaddedInput) else label for label in labels]
