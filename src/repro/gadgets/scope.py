"""Scoped access to a gadget living inside a larger graph.

Gadget structure checks must ignore edges that do not belong to the
gadget (in padded graphs, the ``PortEdge`` connections).  A
:class:`GadgetScope` wraps a graph, its input labeling, and an in-scope
byte per edge, and offers the label-following navigation that both the
structural checker (Section 4.2/4.3) and the prover V (Section 4.5)
are written in terms of.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro import kernels
from repro.gadgets.labels import GadgetHalfInput, GadgetNodeInput
from repro.lcl.assignment import Labeling
from repro.local.graphs import PortGraph

__all__ = ["GadgetScope"]

#: ``(port, eid, other_node, my_label)`` of one in-scope edge at a node.
Incidence = tuple[int, int, int, Hashable]


class GadgetScope:
    """Navigation over the gadget-edge subgraph of a labeled graph.

    A scope reads the labeling's node and slot lists once, at
    construction, into flat tables indexed by node and by CSR port slot
    (the graph's own CSR tables and an in-scope byte per edge do the
    rest), and keeps no reference to the labeling.  Later edits to
    ``inputs`` are not seen.  A node's structural verdict is therefore a
    pure function of the scope: :func:`repro.gadgets.checker.node_verdict`
    memoizes it in :attr:`verdicts`, one list per ``delta`` with an
    entry per node.  On the vector backend the numpy pass of
    :mod:`repro.kernels.gadgets` reads the same tables: it fills that
    memo for every node it clears, and :meth:`structure` keeps the
    components and center distances it finds.

    Navigation runs on a table of each node's in-scope incidence tuples,
    built on first use: fast, but several hundred bytes per node, and a
    scope whose nodes the numpy pass all clears never needs it.  There
    is one scope per instance, kept as long as the instance's inputs (a
    padded instance's
    :func:`~repro.core.virtual_graph.gadget_analysis`, or the scope V
    re-reads on every trial on a gadget core), so its owner calls
    :meth:`drop_navigation` once the checks, proofs and searches that
    need speed are done.  From then on :meth:`incidences` rebuilds a
    node's tuple from the flat tables on each call: the same values, a
    new tuple.
    """

    def __init__(
        self,
        graph: PortGraph,
        inputs: Labeling,
        in_scope: bytes | None = None,
    ):
        """``in_scope`` holds one byte per edge id, 1 for an edge of the
        gadget and 0 for one to ignore; None puts every edge in scope."""
        self.graph = graph
        #: ``node_verdict``'s memo: ``delta -> per-node verdict`` (None
        #: until evaluated; a sound node's verdict is the shared ``()``).
        self.verdicts: dict[int, list[tuple | None]] = {}
        self._off, self._nbr, self._peer, self._eids = graph.csr()
        self._deg = graph.degrees
        self._in_scope = b"\x01" * graph.num_edges if in_scope is None else in_scope
        self._nodes: list[GadgetNodeInput | None] = [
            label if isinstance(label, GadgetNodeInput) else None
            for label in inputs.node_labels()
        ]
        self._halves: list[GadgetHalfInput | None] = [
            half if isinstance(half, GadgetHalfInput) else None
            for half in inputs.slot_labels()
        ]
        self._rows: list[tuple[Incidence, ...]] | None = None
        self._far_labels: list[Hashable] | None = None
        self._navigable = True
        self._structure = None

    def _build_navigation(self) -> None:
        """The per-node incidence tuples and per-slot far labels."""
        off, nbr, peer, eids = (table.tolist() for table in self.graph.csr())
        labels = [None if half is None else half.label for half in self._halves]
        # per slot: the endpoint label on the far side of its edge
        self._far_labels = [labels[off[w] + p] for w, p in zip(nbr, peer)]
        in_scope = self._in_scope
        self._rows = [
            tuple(
                (slot - off[v], eids[slot], nbr[slot], labels[slot])
                for slot in range(off[v], off[v + 1])
                if in_scope[eids[slot]]
            )
            for v in range(len(off) - 1)
        ]

    def drop_navigation(self) -> None:
        """Free the navigation table, and build none from now on (see
        the class docstring)."""
        self._rows = None
        self._far_labels = None
        self._navigable = False

    def structure(self):
        """The :class:`~repro.kernels.gadgets.ScopeStructure` of the numpy
        pass (component labels, center distances, component sizes),
        computed on first call.  Vector backend only."""
        if self._structure is None:
            from repro.kernels.gadgets import scope_structure

            self._structure = scope_structure(self)
        return self._structure

    def in_scope(self, eid: int) -> bool:
        return self._in_scope[eid] == 1

    # -- labels ---------------------------------------------------------------

    def node_input(self, v: int) -> GadgetNodeInput | None:
        """The node's gadget input, or None if malformed."""
        return self._nodes[v]

    def half_input(self, v: int, port: int) -> GadgetHalfInput | None:
        """The half-edge's gadget input, or None if malformed or if ``v``
        has no such port."""
        if not 0 <= port < self._deg[v]:
            return None
        return self._halves[self._off[v] + port]

    def role(self, v: int) -> Hashable | None:
        node = self._nodes[v]
        return node.role if node else None

    def port_tag(self, v: int) -> Hashable | None:
        node = self._nodes[v]
        return node.port if node else None

    def color(self, v: int) -> int | None:
        node = self._nodes[v]
        return node.color if node else None

    # -- incidences --------------------------------------------------------------

    def incidences(self, v: int) -> tuple[Incidence, ...]:
        """The ``(port, eid, other_node, my_label)`` of each in-scope edge
        at ``v``, in port order."""
        rows = self._rows
        if rows is None and self._navigable:
            self._build_navigation()
            rows = self._rows
        if rows is not None:
            return rows[v]
        off, eids, nbr, in_scope, halves = (
            self._off, self._eids, self._nbr, self._in_scope, self._halves
        )
        base = off[v]
        out = []
        for slot in range(base, off[v + 1]):
            eid = eids[slot]
            if in_scope[eid]:
                half = halves[slot]
                out.append(
                    (slot - base, eid, nbr[slot], None if half is None else half.label)
                )
        return tuple(out)

    def labels_at(self, v: int) -> list[Hashable]:
        """The in-scope endpoint labels at ``v`` (may contain None)."""
        return [label for _p, _e, _o, label in self.incidences(v)]

    def other_label(self, v: int, port: int) -> Hashable | None:
        """The endpoint label on the far side of the edge at ``(v, port)``."""
        if not 0 <= port < self._deg[v]:
            raise IndexError(f"node {v} has no port {port}")
        slot = self._off[v] + port
        far_labels = self._far_labels
        if far_labels is None and self._navigable:
            self._build_navigation()
            far_labels = self._far_labels
        if far_labels is not None:
            return far_labels[slot]
        half = self._halves[self._off[self._nbr[slot]] + self._peer[slot]]
        return None if half is None else half.label

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
        """All in-scope components (every node appears in exactly one),
        each ascending, in order of smallest node."""
        if kernels.vector_enabled():
            from repro.kernels.gadgets import component_lists

            return component_lists(self.structure().component)
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
