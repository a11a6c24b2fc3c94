"""Edge orientations and the augmenting-path deficiency fixer.

Both sinkless-orientation solvers share this machinery:

* :class:`Orientation` — a total assignment of a direction to every
  edge, tracked by the *tail* half-edge (the side labeled ``out``).
* :func:`fix_deficient` — repairs nodes that ended up with out-degree
  zero by reversing a directed path into the node from a *donor*
  (a node that can spare an out-edge).  Reversing a simple directed
  path ``u -> w_1 -> ... -> v`` gives ``v`` an out-edge, keeps every
  intermediate node's out-degree unchanged, and costs the donor ``u``
  one out-edge.

Donor existence is guaranteed on every input: if the backward closure
``S`` of a deficient node contained no donor, every non-exempt node of
``S`` would have out-degree at most 1 and in-degree at least 2, and all
in-edges of ``S`` would originate inside ``S``; counting edges with
head in ``S`` then gives ``2|S_ne| + |S_ex| <= |S_ne|``, which is
impossible because the deficient node itself is non-exempt.  (See
DESIGN.md; tested by failure-injection tests.)
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from repro.lcl.assignment import Labeling
from repro.local.graphs import HalfEdge, PortGraph

__all__ = ["OUT", "IN", "Orientation", "fix_deficient", "FixReport"]

OUT = "out"
IN = "in"


class Orientation:
    """A direction for every edge of a graph, mutable via reversal.

    Each edge's tail is held as a flat CSR slot (``offsets[v] + port``,
    see :meth:`PortGraph.csr`); the head is the edge's other slot.  The
    node of a slot is the neighbor entry of its edge's other slot, so
    no ``Edge``/``HalfEdge`` value is built except by the
    :class:`HalfEdge`-valued queries ``tail`` and ``head``.
    """

    def __init__(self, graph: PortGraph, tails: dict[int, HalfEdge]):
        if set(tails) != set(range(graph.num_edges)):
            raise ValueError("an orientation must direct every edge")
        off = graph.csr()[0]
        ends = graph.edge_slots()
        slots = [0] * graph.num_edges
        for eid, tail in tails.items():
            v, port = tail
            in_range = 0 <= v < graph.num_nodes and 0 <= port < graph.degree(v)
            slot = off[v] + port if in_range else -1
            if slot not in (ends[2 * eid], ends[2 * eid + 1]):
                raise ValueError(f"half-edge {tail} does not belong to edge {eid}")
            slots[eid] = slot
        self._adopt(graph, slots)

    @classmethod
    def from_tail_slots(cls, graph: PortGraph, slots: list[int]) -> "Orientation":
        """The orientation whose edge ``eid`` has its tail at flat slot
        ``slots[eid]``, which must be one of the edge's two slots
        (:meth:`PortGraph.edge_slots`).  The list is adopted, not copied."""
        orientation = cls.__new__(cls)
        orientation._adopt(graph, slots)
        return orientation

    def _adopt(self, graph: PortGraph, slots: list[int]) -> None:
        self.graph = graph
        self._off, self._nbr, _peer, self._eids = graph.csr()
        self._ends = graph.edge_slots()
        self._tail = slots
        self._out_degree = [0] * graph.num_nodes
        for eid in range(graph.num_edges):
            self._out_degree[self.tail_node(eid)] += 1

    # -- construction -----------------------------------------------------------

    @classmethod
    def by_lower_id(cls, graph: PortGraph, ids) -> "Orientation":
        """Canonical orientation: tail = endpoint with the smaller id.

        Self-loops use the lower port as tail (any choice gives the node
        an out-edge).
        """
        nbr = graph.csr()[1]
        ends = graph.edge_slots()
        slots = []
        for eid in range(graph.num_edges):
            a, b = ends[2 * eid], ends[2 * eid + 1]
            u, w = nbr[b], nbr[a]
            slots.append(a if u == w or ids.of(u) < ids.of(w) else b)
        return cls.from_tail_slots(graph, slots)

    @classmethod
    def by_coin_flips(cls, graph: PortGraph, rng: random.Random) -> "Orientation":
        """Independent fair coin per edge (the randomized first round)."""
        ends = graph.edge_slots()
        slots = [
            ends[2 * eid] if rng.random() < 0.5 else ends[2 * eid + 1]
            for eid in range(graph.num_edges)
        ]
        return cls.from_tail_slots(graph, slots)

    # -- queries ---------------------------------------------------------------

    def _head_slot(self, eid: int) -> int:
        ends = self._ends
        return ends[2 * eid] + ends[2 * eid + 1] - self._tail[eid]

    def tail(self, eid: int) -> HalfEdge:
        node = self.tail_node(eid)
        return HalfEdge(node, self._tail[eid] - self._off[node])

    def head(self, eid: int) -> HalfEdge:
        node = self.head_node(eid)
        return HalfEdge(node, self._head_slot(eid) - self._off[node])

    # the node of one side is the neighbor entry of the other

    def tail_node(self, eid: int) -> int:
        return self._nbr[self._head_slot(eid)]

    def head_node(self, eid: int) -> int:
        return self._nbr[self._tail[eid]]

    def out_degree(self, v: int) -> int:
        return self._out_degree[v]

    def in_edge_ids(self, v: int) -> list[int]:
        """Edges whose head is ``v``, in port order (for self-loops both
        sides count)."""
        eids, tail = self._eids, self._tail
        return [
            eids[slot]
            for slot in range(self._off[v], self._off[v + 1])
            if tail[eids[slot]] != slot
        ]

    def out_edge_ids(self, v: int) -> list[int]:
        eids, tail = self._eids, self._tail
        return [
            eids[slot]
            for slot in range(self._off[v], self._off[v + 1])
            if tail[eids[slot]] == slot
        ]

    # -- mutation ---------------------------------------------------------------

    def reverse(self, eid: int) -> None:
        self._out_degree[self.tail_node(eid)] -= 1
        self._tail[eid] = self._head_slot(eid)
        self._out_degree[self.tail_node(eid)] += 1

    def reverse_path(self, eids: list[int]) -> None:
        for eid in eids:
            self.reverse(eid)

    # -- export -----------------------------------------------------------------

    def to_labeling(self) -> Labeling:
        """Half-edge labels ``out``/``in``; nodes and edges stay EMPTY."""
        labels = [IN] * len(self._nbr)
        for slot in self._tail:
            labels[slot] = OUT
        return Labeling(self.graph).set_slot_labels(labels)

    @classmethod
    def from_labeling(cls, graph: PortGraph, labeling: Labeling) -> "Orientation":
        ends = graph.edge_slots()
        labels = labeling.slot_labels()
        slots = []
        for eid in range(graph.num_edges):
            a, b = ends[2 * eid], ends[2 * eid + 1]
            a_label, b_label = labels[a], labels[b]
            if {a_label, b_label} != {OUT, IN}:
                raise ValueError(
                    f"edge {eid} is not consistently oriented: "
                    f"{a_label!r}/{b_label!r}"
                )
            slots.append(a if a_label == OUT else b)
        return cls.from_tail_slots(graph, slots)


class FixReport:
    """Accounting of one :func:`fix_deficient` run."""

    def __init__(self) -> None:
        self.batches = 0
        self.paths_reversed = 0
        self.max_path_length = 0
        self.touched: dict[int, int] = {}  # node -> radius charged

    def charge(self, node: int, radius: int) -> None:
        if radius > self.touched.get(node, 0):
            self.touched[node] = radius


def _backward_path_to_donor(
    graph: PortGraph,
    orientation: Orientation,
    start: int,
    is_donor: Callable[[int], bool],
    neighbor_order: Callable[[list[int]], list[int]],
    max_depth: int,
) -> list[int] | None:
    """Shortest directed path (edge ids, donor-first) into ``start``.

    Walks backward over in-edges of the current orientation; the
    returned list of edge ids is ordered from the donor toward
    ``start`` so that reversing them in order flips the whole path.
    """
    parent_edge: dict[int, int] = {start: -1}
    frontier = deque([(start, 0)])
    while frontier:
        x, depth = frontier.popleft()
        if depth >= max_depth:
            continue
        in_edges = neighbor_order(orientation.in_edge_ids(x))
        for eid in in_edges:
            pred = orientation.tail_node(eid)
            if pred in parent_edge:
                continue
            parent_edge[pred] = eid
            if is_donor(pred):
                # reconstruct: walk from pred back to start
                path = []
                node = pred
                while node != start:
                    eid_step = parent_edge[node]
                    path.append(eid_step)
                    node = orientation.head_node(eid_step)
                return path
            frontier.append((pred, depth + 1))
    return None


def fix_deficient(
    graph: PortGraph,
    orientation: Orientation,
    exempt_below: int,
    priority: Callable[[int], object],
    rng: random.Random | None = None,
) -> FixReport:
    """Give every node of degree >= ``exempt_below`` an out-edge.

    Deficient nodes are processed in synchronous batches (mirroring a
    parallel execution): in each batch every still-deficient node finds
    its shortest backward path to a donor; paths are applied in
    ``priority`` order, skipping nodes that became satisfied.  The
    report charges every touched node a radius of path length + 1.

    ``rng`` randomizes the in-edge exploration order (the randomized
    solver); ``None`` keeps the deterministic edge order.
    """
    report = FixReport()

    def is_exempt(v: int) -> bool:
        return graph.degree(v) < exempt_below

    def is_donor(v: int) -> bool:
        if orientation.out_degree(v) >= 2:
            return True
        return is_exempt(v) and orientation.out_degree(v) >= 1

    def neighbor_order(eids: list[int]) -> list[int]:
        if rng is None:
            return sorted(eids)
        shuffled = list(eids)
        rng.shuffle(shuffled)
        return shuffled

    deficient = [
        v
        for v in graph.nodes()
        if not is_exempt(v) and orientation.out_degree(v) == 0
    ]
    max_depth = graph.num_nodes + 1
    guard = 0
    while deficient:
        guard += 1
        if guard > graph.num_nodes + 10:
            raise RuntimeError("deficiency fixing did not converge")
        report.batches += 1
        batch = sorted(deficient, key=priority)
        next_round: list[int] = []
        for v in batch:
            if orientation.out_degree(v) > 0:
                continue
            path = _backward_path_to_donor(
                graph, orientation, v, is_donor, neighbor_order, max_depth
            )
            if path is None:
                raise RuntimeError(
                    f"no donor reachable from deficient node {v}; "
                    "this contradicts the counting argument - file a bug"
                )
            orientation.reverse_path(path)
            report.paths_reversed += 1
            report.max_path_length = max(report.max_path_length, len(path))
            radius = len(path) + 1
            report.charge(v, radius)
            for eid in path:
                report.charge(orientation.tail_node(eid), radius)
                report.charge(orientation.head_node(eid), radius)
        for v in batch:
            if orientation.out_degree(v) == 0:
                next_round.append(v)
        deficient = next_round
    return report
