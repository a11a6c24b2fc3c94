"""Scoped access to a gadget living inside a larger graph.

Gadget structure checks must ignore edges that do not belong to the
gadget (in padded graphs, the ``PortEdge`` connections).  A
:class:`GadgetScope` wraps a graph, its input labeling, and an edge
predicate, and offers the label-following navigation that both the
structural checker (Section 4.2/4.3) and the prover V (Section 4.5)
are written in terms of.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from repro.gadgets.labels import GadgetHalfInput, GadgetNodeInput
from repro.lcl.assignment import Labeling
from repro.local.graphs import HalfEdge, PortGraph

__all__ = ["GadgetScope"]

#: ``(port, eid, other_node, my_label)`` of one in-scope edge at a node.
Incidence = tuple[int, int, int, Hashable]


class GadgetScope:
    """Navigation over the gadget-edge subgraph of a labeled graph.

    A scope is a snapshot of ``graph`` and ``inputs``: :meth:`incidences`
    builds a node's tuple of in-scope edges on its first call and returns
    that same tuple afterwards, so neither may change once the scope
    exists.  Corruptions therefore build a new
    :class:`~repro.lcl.assignment.Labeling` rather than editing one.
    """

    def __init__(
        self,
        graph: PortGraph,
        inputs: Labeling,
        edge_in_scope: Callable[[int], bool] | None = None,
    ):
        self.graph = graph
        self.inputs = inputs
        self._edge_in_scope = edge_in_scope or (lambda eid: True)
        self._rows: list[tuple[Incidence, ...] | None] = [None] * graph.num_nodes

    def in_scope(self, eid: int) -> bool:
        return self._edge_in_scope(eid)

    # -- labels ---------------------------------------------------------------

    def node_input(self, v: int) -> GadgetNodeInput | None:
        """The node's gadget input, or None if malformed."""
        label = self.inputs.node(v)
        if isinstance(label, GadgetNodeInput):
            return label
        return None

    def half_input(self, v: int, port: int) -> GadgetHalfInput | None:
        label = self.inputs.half_at(v, port)
        if isinstance(label, GadgetHalfInput):
            return label
        return None

    def role(self, v: int) -> Hashable | None:
        node = self.node_input(v)
        return node.role if node else None

    def port_tag(self, v: int) -> Hashable | None:
        node = self.node_input(v)
        return node.port if node else None

    def color(self, v: int) -> int | None:
        node = self.node_input(v)
        return node.color if node else None

    # -- incidences --------------------------------------------------------------

    def incidences(self, v: int) -> tuple[Incidence, ...]:
        """The ``(port, eid, other_node, my_label)`` of each in-scope edge
        at ``v``, in port order (built once per node, then shared)."""
        row = self._rows[v]
        if row is None:
            graph = self.graph
            found = []
            for port in range(graph.degree(v)):
                eid = graph.edge_id_at(v, port)
                if not self._edge_in_scope(eid):
                    continue
                half = self.half_input(v, port)
                label = half.label if half else None
                found.append((port, eid, graph.neighbor(v, port), label))
            row = self._rows[v] = tuple(found)
        return row

    def labels_at(self, v: int) -> list[Hashable]:
        """The in-scope endpoint labels at ``v`` (may contain None)."""
        return [label for _p, _e, _o, label in self.incidences(v)]

    def other_label(self, v: int, port: int) -> Hashable | None:
        """The endpoint label on the far side of the edge at ``(v, port)``."""
        other = self.graph.endpoint(v, port)
        half = self.half_input(other.node, other.port)
        return half.label if half else None

    def has_label(self, v: int, label: Hashable) -> bool:
        return any(mine == label for _p, _e, _o, mine in self.incidences(v))

    def follow(self, v: int, label: Hashable) -> int | None:
        """The unique neighbor across the edge labeled ``label`` at ``v``.

        Returns None when no in-scope incidence carries the label; when
        several do (a 1b violation caught elsewhere), the first in port
        order is used so navigation stays deterministic.
        """
        for _port, _eid, other, mine in self.incidences(v):
            if mine == label:
                return other
        return None

    # -- component discovery ----------------------------------------------------------

    def component_of(self, v: int) -> list[int]:
        """The in-scope connected component containing ``v`` (sorted)."""
        seen = {v}
        frontier = deque([v])
        while frontier:
            x = frontier.popleft()
            for _p, _e, other, _label in self.incidences(x):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return sorted(seen)

    def components(self) -> list[list[int]]:
        """All in-scope components (every node appears in exactly one)."""
        seen: set[int] = set()
        out = []
        for v in self.graph.nodes():
            if v in seen:
                continue
            comp = self.component_of(v)
            seen.update(comp)
            out.append(comp)
        return out

    def scope_degree(self, v: int) -> int:
        return len(self.incidences(v))
