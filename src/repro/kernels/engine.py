"""The batched node-program engine: whole-population rounds as array ops.

This is the array-at-a-time twin of the :class:`~repro.local.simulator.
SyncEngine` object loop.  A solver that passes the engine an
:class:`~repro.local.simulator.ArrayProgram` factory
(``array_program=``) runs its rounds here: one
gather across the CSR ``dest`` involution delivers every message, one
``step_all`` call advances every node, and the active set is compacted
to flat slot ranges as nodes halt — no per-node Python in the loop.

A program may also finish its run in *closed form*: after a round's
``step_all`` it reports, through its optional ``closed_tail``, how many
rounds from that one on it has already computed.  The engine then
charges those rounds to every still-active node — trace entries,
``engine.rounds`` and ``engine.active_nodes`` as if they had been
stepped — halts those nodes at the tail's end and stops.  Linial's
palette elimination runs this way (one array pass per non-empty color
class instead of one round per eliminated color);
``kernels.tail_rounds`` counts the rounds finished in closed form.

Import this module only behind :func:`repro.kernels.vector_enabled`: it
imports numpy at module load.  Semantics are pinned to the object loop
**bit-identically** — ``halt_rounds``, round traces, and
:class:`~repro.local.simulator.ConvergenceError` diagnostics included —
by the differential suites in ``tests/test_kernels.py`` and
``tests/test_views_simulator.py``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels import vector
from repro.local.simulator import ConvergenceError, EngineResult, MessageRound
from repro.obs import get_telemetry

__all__ = ["RoundInbox", "SlotLayout", "run_array_program"]

_I64 = np.int64


class SlotLayout:
    """Frozen per-slot geometry of one graph, shared with array programs.

    Everything a whole-population round step needs to address the flat
    CSR slot space: slot ``off[v] + p`` is port ``p`` of node ``v``,
    ``node_of[slot]`` inverts that, ``dest`` is the delivery involution
    (the slot across the edge — crossing twice returns), and
    ``not_loop`` masks self-loop slots (``nbr[slot] == node_of[slot]``).
    """

    __slots__ = (
        "off",
        "nbr",
        "peer",
        "eids",
        "counts",
        "node_of",
        "dest",
        "not_loop",
        "num_nodes",
        "total",
        "_expand",
    )

    def __init__(self, graph: Any):
        off, nbr, peer, eids = vector.csr_arrays(graph)
        self.off = off
        self.nbr = nbr
        self.peer = peer
        self.eids = eids
        self.counts = np.diff(off)
        self.num_nodes = int(graph.num_nodes)
        self.total = int(off[-1]) if off.size else 0
        self.node_of = np.repeat(
            np.arange(self.num_nodes, dtype=_I64), self.counts
        )
        self.dest = off[nbr] + peer
        self.not_loop = nbr != self.node_of
        self._expand = vector._frontier_expander(off)

    def slots_of(self, nodes: np.ndarray) -> np.ndarray:
        """Flat slots of ``nodes`` in node-major port-minor order
        (degree-bucketed single-gather on irregular graphs)."""
        return self._expand(nodes)


class RoundInbox:
    """One round's delivered messages, in flat per-slot arrays.

    ``values[slot]`` is the payload that arrived at ``slot`` and
    ``sent[slot]`` whether the sender across the edge was still active
    (the object loop's ``None`` entries are ``sent == False`` here).
    Only the slots of ``active`` receivers are populated — exactly
    ``slots`` (their flat slot expansion, ``lengths`` per node);
    anything else is uninitialized scratch and must not be read.
    """

    __slots__ = ("values", "sent", "active", "slots", "lengths")

    def __init__(self, values, sent, active, slots, lengths):
        self.values = values
        self.sent = sent
        self.active = active
        self.slots = slots
        self.lengths = lengths


def run_array_program(
    instance: Any, program: Any, max_rounds: int = 10_000
) -> EngineResult:
    """Run an :class:`~repro.local.simulator.ArrayProgram` to completion.

    Mirrors ``SyncEngine.run``'s object loop exactly: nodes that halt at
    round ``r`` send nothing that round, rounds count message rounds,
    the trace records per-round active counts, and exhausting
    ``max_rounds`` raises :class:`ConvergenceError` with the same
    diagnostics — also when ``max_rounds`` falls inside a closed-form
    tail, whose rounds are traced up to the cut.
    """
    layout = SlotLayout(instance.graph)
    program.init_all(instance, layout)
    closed_tail = getattr(program, "closed_tail", None)
    tail = 0
    n = layout.num_nodes
    halted = np.zeros(n, dtype=bool)
    halt_rounds = np.zeros(n, dtype=_I64)
    trace: list[MessageRound] = []
    rounds = 0
    active_total = 0
    active_nodes = np.arange(n, dtype=_I64)
    active_slots = np.arange(layout.total, dtype=_I64)
    inbox: RoundInbox | None = None
    for round_index in range(max_rounds):
        out_values, halt_now = program.step_all(round_index, inbox)
        if halt_now is not None:
            newly = halt_now & ~halted
            if newly.any():
                halt_rounds[newly] = round_index
                halted |= newly
                active_nodes = np.flatnonzero(~halted)
                active_slots = layout.slots_of(active_nodes)
        active = int(active_nodes.size)
        if active == 0:
            break
        if closed_tail is not None:
            tail = closed_tail()
            if tail:
                # rounds round_index .. end - 1 are computed; every
                # active node takes part in them and halts at ``end``
                end = round_index + tail
                trace.extend(
                    MessageRound(r, active)
                    for r in range(round_index, min(end, max_rounds))
                )
                if end >= max_rounds:
                    raise ConvergenceError(max_rounds, active, trace)
                rounds += tail
                active_total += active * tail
                halt_rounds[active_nodes] = end
                break
        if out_values is None or out_values.shape[0] != layout.total:
            got = "no" if out_values is None else out_values.shape[0]
            raise ValueError(
                f"array program produced {got} outbox slots for "
                f"{layout.total} ports"
            )
        rounds += 1
        active_total += active
        trace.append(MessageRound(round_index, active))
        # Deliver: gather through the dest involution into the slots of
        # the still-active receivers.  A halted sender's payload is
        # masked out via ``sent`` — the array analogue of the object
        # loop's explicit ``None`` message.
        values = np.empty_like(out_values)
        sent = np.zeros(layout.total, dtype=bool)
        values[active_slots] = out_values[layout.dest[active_slots]]
        sent[active_slots] = ~halted[layout.nbr[active_slots]]
        inbox = RoundInbox(
            values=values,
            sent=sent,
            active=active_nodes,
            slots=active_slots,
            lengths=layout.counts[active_nodes],
        )
    else:
        raise ConvergenceError(max_rounds, int(active_nodes.size), trace)
    telemetry = get_telemetry()
    telemetry.incr("engine.rounds", rounds)
    telemetry.incr("engine.active_nodes", active_total)
    telemetry.incr("kernels.array_rounds", rounds)
    if tail:
        telemetry.incr("kernels.tail_rounds", tail)
    return EngineResult(
        results=program.results_all(),
        rounds=rounds,
        trace=trace,
        halt_rounds=halt_rounds.tolist(),
    )
