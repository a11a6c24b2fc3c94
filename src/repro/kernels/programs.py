"""Array twins of the solvers' node programs.

Each class here is the :class:`~repro.local.simulator.ArrayProgram`
counterpart of an object node program — the parity node of
``repro.problems.trivial`` and the Linial reduction node of
``repro.problems.coloring`` — producing bit-identical results, halt
rounds, and traces through
:func:`repro.kernels.engine.run_array_program`; each solver passes its
twin to :class:`~repro.local.simulator.SyncEngine` as
``array_program=``.  Beside them, :func:`mis_sweep` and
:func:`matching_sweep` are the array twins of the color-class sweeps
that follow the Linial coloring in ``mis-color-classes`` and
``matching-line-coloring``.

Import only behind :func:`repro.kernels.vector_enabled`: numpy loads at
module import.  The object programs stay the oracle; these only buy
time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.engine import RoundInbox, SlotLayout

__all__ = [
    "LinialProgram",
    "ParityProgram",
    "matching_sweep",
    "mis_sweep",
]

_I64 = np.int64


class ParityProgram:
    """Array twin of ``_ParityNode``: halt at round 0 with deg mod 2."""

    def init_all(self, instance: Any, layout: SlotLayout) -> None:
        self._parity = layout.counts % 2

    def step_all(self, round_index: int, inbox: RoundInbox | None):
        return None, np.ones(self._parity.shape[0], dtype=bool)

    def results_all(self) -> list[Any]:
        return self._parity.tolist()


def _poly_points(colors: np.ndarray, q: int, d: int) -> np.ndarray:
    """Row ``i`` is ``polynomial_set(colors[i], q, d)`` — the graph of
    the color's degree-d polynomial over GF(q), ordered by x."""
    value = colors.astype(_I64, copy=True)
    coeffs = np.empty((colors.shape[0], d + 1), dtype=_I64)
    for j in range(d + 1):
        coeffs[:, j] = value % q
        value //= q
    x = np.arange(q, dtype=_I64)
    powers = np.ones((d + 1, q), dtype=_I64)
    for j in range(1, d + 1):
        powers[j] = (powers[j - 1] * x) % q
    return x * q + (coeffs @ powers) % q


class LinialProgram:
    """Array twin of ``_LinialNode``: the whole Linial reduction.

    Reduction rounds evaluate every node's polynomial cover-free set in
    one ``(nodes, q)`` matrix, block neighbor sets through a boolean
    ``(nodes, q^2)`` scatter, and pick each node's first unblocked own
    point.  The elimination phase is a closed-form tail (see
    :mod:`repro.kernels.engine`): once the reductions are done, one
    array pass per non-empty color class, from ``palette_after - 1``
    down to ``target``, recolors the class's members to the smallest
    target color no non-loop neighbor holds.  A class of a proper
    coloring is an independent set, so its members recolor at once,
    exactly as the object node's one-class-per-round schedule does.
    Same first-free tie-breaks, same total round count as the object
    node.
    """

    def __init__(self, schedule, target: int, id_space: int):
        self._schedule = list(schedule)
        self._target = target
        self._id_space = id_space

    def init_all(self, instance: Any, layout: SlotLayout) -> None:
        self._layout = layout
        self._colors = np.asarray(instance.ids.as_list(), dtype=_I64) - 1
        schedule = self._schedule
        self._palette_after = (
            schedule[-1][0] ** 2 if schedule else self._id_space
        )
        self._phase_splits = len(schedule)
        self._total_rounds = self._phase_splits + max(
            self._palette_after - self._target, 0
        )
        self._tail = 0

    def step_all(self, round_index: int, inbox: RoundInbox | None):
        layout = self._layout
        if inbox is not None:
            self._reduce(round_index - 1, inbox)
        if round_index >= self._total_rounds:
            return None, np.ones(layout.num_nodes, dtype=bool)
        if round_index == self._phase_splits:
            self._eliminate()
            self._tail = self._total_rounds - round_index
            return None, None
        return self._colors[layout.node_of], None

    def closed_tail(self) -> int:
        """The elimination rounds :meth:`_eliminate` has computed (0
        before it runs)."""
        return self._tail

    def _reduce(self, step: int, inbox: RoundInbox) -> None:
        layout = self._layout
        act = inbox.active
        slots = inbox.slots
        # per-slot neighbor colors of active receivers; self-loop slots
        # are excluded like the object node's neighbor(v, port) != v
        valid = inbox.sent[slots] & layout.not_loop[slots]
        recv_row = np.repeat(
            np.arange(act.shape[0], dtype=_I64), inbox.lengths
        )
        flat = inbox.values[slots]
        q, d = self._schedule[step]
        own = self._colors[act]
        if np.any(valid & (flat == own[recv_row])):
            raise ValueError("reduce_color requires a proper input coloring")
        rows = recv_row[valid]
        nbr_points = _poly_points(flat[valid], q, d)
        blocked = np.zeros((act.shape[0], q * q), dtype=bool)
        blocked[np.repeat(rows, q), nbr_points.reshape(-1)] = True
        own_points = _poly_points(own, q, d)
        free = ~blocked[
            np.arange(act.shape[0], dtype=_I64)[:, None], own_points
        ]
        covered = free.any(axis=1)
        if not covered.all():
            bad = int(np.flatnonzero(~covered)[0])
            neighbors = int(np.count_nonzero(rows == bad))
            raise ValueError(
                f"cover-freeness violated: q={q}, d={d}, "
                f"{neighbors} neighbors"
            )
        self._colors[act] = own_points[
            np.arange(act.shape[0], dtype=_I64), free.argmax(axis=1)
        ]

    def _eliminate(self) -> None:
        """Every elimination round at once: each class above the target
        palette, highest first, moves to its first free target color."""
        layout = self._layout
        colors = self._colors
        target = self._target
        high = np.flatnonzero(colors >= target)
        if high.size == 0:
            return
        # members grouped by class, highest class first
        high = high[np.argsort(-colors[high], kind="stable")]
        bounds = np.flatnonzero(np.diff(colors[high])) + 1
        for members in np.split(high, bounds):
            slots = layout.slots_of(members)
            row = np.repeat(
                np.arange(members.shape[0], dtype=_I64),
                layout.counts[members],
            )
            held = colors[layout.nbr[slots]]
            mask = layout.not_loop[slots] & (held < target)
            taken = np.zeros((members.shape[0], target), dtype=bool)
            taken[row[mask], held[mask]] = True
            free = ~taken
            if not free.any(axis=1).all():
                raise ValueError("min() arg is an empty sequence")
            colors[members] = free.argmax(axis=1)

    def results_all(self) -> list[Any]:
        return self._colors.tolist()


# -- color-class sweeps -------------------------------------------------------
#
# A class of a proper coloring is an independent set (self-loops
# aside), and a class of a proper line-graph coloring is a matching, so
# every member of a class acts at once: one array pass per non-empty
# class, lowest class first, gives what the object sweeps' one member
# at a time gives.


def mis_sweep(graph: Any, colors: list[int]) -> set[int]:
    """``mis-color-classes``' sweep over a proper coloring, as arrays.

    A class's unblocked members join the set and block their non-loop
    neighbors.  Returns the member set.
    """
    layout = SlotLayout(graph)
    color = np.asarray(colors, dtype=_I64)
    member = np.zeros(layout.num_nodes, dtype=bool)
    blocked = np.zeros(layout.num_nodes, dtype=bool)
    for c in np.unique(color).tolist():
        joins = (color == c) & ~blocked
        member |= joins
        blocked[layout.nbr[joins[layout.node_of] & layout.not_loop]] = True
    return set(np.flatnonzero(member).tolist())


def matching_sweep(graph: Any, colors: list[int]) -> set[int]:
    """``matching-line-coloring``'s sweep over a proper line-graph
    coloring (``colors`` by edge id), as arrays.

    A class's non-loop edges whose endpoints are both still free join
    the matching.  Returns the matched edge ids.
    """
    layout = SlotLayout(graph)
    ends = np.frombuffer(graph.edge_slots(), dtype=_I64)
    # the node of one side is the neighbor entry of the other
    a_node = layout.nbr[ends[1::2]]
    b_node = layout.nbr[ends[0::2]]
    color = np.asarray(colors, dtype=_I64)
    live = a_node != b_node
    matched = np.zeros(color.shape[0], dtype=bool)
    node_matched = np.zeros(layout.num_nodes, dtype=bool)
    for c in np.unique(color[live]).tolist():
        free = ~node_matched[a_node] & ~node_matched[b_node]
        joins = live & (color == c) & free
        matched |= joins
        node_matched[a_node[joins]] = True
        node_matched[b_node[joins]] = True
    return set(np.flatnonzero(matched).tolist())
