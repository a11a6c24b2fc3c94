"""Labelings over V, E, and B (half-edges).

A :class:`Labeling` assigns one label to every node, edge, and half-edge
of a graph, mirroring the paper's convention that "each element of
V x E x B is assigned exactly one label" (Section 3.3).

Storage is dense and laid out like the graph's flat incidence core
(:meth:`~repro.local.graphs.PortGraph.csr`): one list indexed by node,
one by edge id, and one by CSR port slot, where half-edge ``(v, p)``
lives at slot ``offsets[v] + p``.  Every entry starts as ``EMPTY``.

* **Reads** never raise: an unset element, or a key outside the graph
  (negative, past the end, or a port at or beyond the node's degree),
  reads ``EMPTY``.
* **Writes** check their key and raise ``KeyError`` outside the graph.
* A flag table per list records which entries were written, so
  :meth:`Labeling.items` yields exactly the labels set explicitly
  (``EMPTY`` included): nodes, then edges, then half-edges, each in
  index order.
* The **bulk** accessors (``node_labels``/``set_node_labels`` and their
  edge and slot twins) hand whole lists to the hot paths, which index
  them by node, edge id and slot directly.
* :meth:`Labeling.derived` keeps values computed from the labels (a
  padded instance's gadget analysis) with the labeling itself: every
  write drops them, a copy starts without them, and they are not
  pickled.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator, TypeVar

from repro.lcl.labels import EMPTY
from repro.local.graphs import HalfEdge, PortGraph

__all__ = ["Labeling"]

T = TypeVar("T")


class Labeling:
    """Mutable label assignment for one graph (see the module docstring)."""

    def __init__(self, graph: PortGraph):
        self.graph = graph
        self._off = graph.csr()[0]
        self._deg = graph.degrees
        self._nodes: list[Hashable] = [EMPTY] * graph.num_nodes
        self._edges: list[Hashable] = [EMPTY] * graph.num_edges
        self._slots: list[Hashable] = [EMPTY] * (2 * graph.num_edges)
        self._node_set = bytearray(graph.num_nodes)
        self._edge_set = bytearray(graph.num_edges)
        self._slot_set = bytearray(2 * graph.num_edges)
        #: :meth:`derived`'s values; every write resets it to None.
        self._derived: dict[Hashable, Any] | None = None

    # -- node labels --------------------------------------------------------

    def node(self, v: int) -> Hashable:
        return self._nodes[v] if 0 <= v < len(self._nodes) else EMPTY

    def set_node(self, v: int, label: Hashable) -> None:
        if not 0 <= v < len(self._nodes):
            raise KeyError(f"node {v} out of range")
        self._nodes[v] = label
        self._node_set[v] = 1
        self._derived = None

    # -- edge labels --------------------------------------------------------

    def edge(self, eid: int) -> Hashable:
        return self._edges[eid] if 0 <= eid < len(self._edges) else EMPTY

    def set_edge(self, eid: int, label: Hashable) -> None:
        if not 0 <= eid < len(self._edges):
            raise KeyError(f"edge {eid} out of range")
        self._edges[eid] = label
        self._edge_set[eid] = 1
        self._derived = None

    # -- half-edge labels ------------------------------------------------------

    def half(self, side: HalfEdge) -> Hashable:
        v, port = side
        return self.half_at(v, port)

    def half_at(self, v: int, port: int) -> Hashable:
        if 0 <= v < len(self._deg) and 0 <= port < self._deg[v]:
            return self._slots[self._off[v] + port]
        return EMPTY

    def set_half(self, side: HalfEdge, label: Hashable) -> None:
        v, port = side
        if not 0 <= v < len(self._deg) or not 0 <= port < self._deg[v]:
            raise KeyError(f"half-edge {side} out of range")
        slot = self._off[v] + port
        self._slots[slot] = label
        self._slot_set[slot] = 1
        self._derived = None

    def set_half_at(self, v: int, port: int, label: Hashable) -> None:
        self.set_half(HalfEdge(v, port), label)

    # -- slot-indexed access -------------------------------------------------------

    def set_slot(self, slot: int, label: Hashable) -> None:
        """Set the label of the half-edge at flat CSR slot ``slot``."""
        if not 0 <= slot < len(self._slots):
            raise KeyError(f"slot {slot} out of range")
        self._slots[slot] = label
        self._slot_set[slot] = 1
        self._derived = None

    def node_labels(self) -> list[Hashable]:
        """Every node's label, by node (shared — do not mutate)."""
        return self._nodes

    def edge_labels(self) -> list[Hashable]:
        """Every edge's label, by edge id (shared — do not mutate)."""
        return self._edges

    def slot_labels(self) -> list[Hashable]:
        """Every half-edge's label, by CSR slot (shared — do not mutate)."""
        return self._slots

    def set_node_labels(self, labels: Iterable[Hashable]) -> "Labeling":
        """Set every node's label at once, from a sequence by node."""
        self._nodes = self._whole(labels, self._nodes, "node")
        self._node_set = bytearray(b"\x01") * len(self._nodes)
        self._derived = None
        return self

    def set_edge_labels(self, labels: Iterable[Hashable]) -> "Labeling":
        """Set every edge's label at once, from a sequence by edge id."""
        self._edges = self._whole(labels, self._edges, "edge")
        self._edge_set = bytearray(b"\x01") * len(self._edges)
        self._derived = None
        return self

    def set_slot_labels(self, labels: Iterable[Hashable]) -> "Labeling":
        """Set every half-edge's label at once, from a sequence by slot."""
        self._slots = self._whole(labels, self._slots, "slot")
        self._slot_set = bytearray(b"\x01") * len(self._slots)
        self._derived = None
        return self

    @staticmethod
    def _whole(labels: Iterable[Hashable], current: list, kind: str) -> list:
        labels = list(labels)
        if len(labels) != len(current):
            raise ValueError(
                f"{len(labels)} {kind} labels for {len(current)} {kind}s"
            )
        return labels

    # -- bulk operations -----------------------------------------------------------

    def fill_nodes(self, label: Hashable) -> "Labeling":
        return self.set_node_labels([label] * len(self._nodes))

    def fill_edges(self, label: Hashable) -> "Labeling":
        return self.set_edge_labels([label] * len(self._edges))

    def fill_halves(self, label: Hashable) -> "Labeling":
        return self.set_slot_labels([label] * len(self._slots))

    def copy(self) -> "Labeling":
        return self.extended_to(self.graph)

    def extended_to(self, graph: PortGraph) -> "Labeling":
        """A copy of this labeling on ``graph``, which must be this
        labeling's graph plus isolated nodes numbered after its own
        (:meth:`PortGraph.with_isolated_nodes`); the new nodes are unset."""
        extra = graph.num_nodes - len(self._nodes)
        if extra < 0 or graph.num_edges != len(self._edges):
            raise ValueError("the graph does not extend this labeling's graph")
        out = Labeling.__new__(Labeling)
        out.graph = graph
        out._off = graph.csr()[0]
        out._deg = graph.degrees
        out._nodes = self._nodes + [EMPTY] * extra
        out._edges = list(self._edges)
        out._slots = list(self._slots)
        out._node_set = self._node_set + bytearray(extra)
        out._edge_set = bytearray(self._edge_set)
        out._slot_set = bytearray(self._slot_set)
        out._derived = None
        return out

    # -- derived values ------------------------------------------------------------

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once and kept with this labeling under
        ``key`` until its next write.

        For values that are pure functions of the labels, such as a
        padded instance's gadget analysis
        (:func:`repro.core.virtual_graph.gadget_analysis`): a value lives
        no longer than its labeling, is never served for another one
        (an equal copy included), and is dropped by every setter, so it
        never describes labels that have changed since.  (Writing
        through the shared bulk lists bypasses this, as it bypasses the
        written-flags; they are read-only by contract.)  A value must
        not refer back to this labeling, so that dropping the labeling
        frees it at once.
        """
        derived = self._derived
        if derived is None:
            derived = self._derived = {}
        if key in derived:
            return derived[key]
        value = derived[key] = build()
        return value

    # -- pickling ----------------------------------------------------------------
    #
    # The offsets view is a memoryview, which does not pickle; it is
    # re-derived from the (picklable) graph.  Derived values are left
    # behind.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_off"], state["_deg"], state["_derived"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = None
        self._off = self.graph.csr()[0]
        self._deg = self.graph.degrees

    # -- iteration / comparison ---------------------------------------------------

    def items(self) -> Iterator[tuple[str, Hashable, Hashable]]:
        """Yield ``(kind, key, label)`` for every explicitly set label."""
        for v, flag in enumerate(self._node_set):
            if flag:
                yield ("node", v, self._nodes[v])
        for eid, flag in enumerate(self._edge_set):
            if flag:
                yield ("edge", eid, self._edges[eid])
        off = self._off
        for v, degree in enumerate(self._deg):
            base = off[v]
            for port in range(degree):
                if self._slot_set[base + port]:
                    yield ("half", HalfEdge(v, port), self._slots[base + port])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        if self._nodes != other._nodes or self._edges != other._edges:
            return False
        if self.graph is other.graph:
            return self._slots == other._slots
        # Distinct graphs with equal counts: compare half-edges edge by
        # edge, a side then b side.
        return self._edge_major() == other._edge_major()

    def _edge_major(self) -> list[Hashable]:
        slots = self._slots
        return [slots[s] for s in self.graph.edge_slots()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Labeling(nodes={self._node_set.count(1)}, "
            f"edges={self._edge_set.count(1)}, halves={self._slot_set.count(1)})"
        )
