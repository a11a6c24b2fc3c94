"""Synchronous message-passing engine for the LOCAL model.

The engine runs the classical formulation of the model: in every round
each node sends one (arbitrarily large) message through each port,
receives the messages of its neighbors, and updates its state.  Round
counting is exact: the reported complexity is the number of rounds
executed before every node has halted.

Two registered solvers run on this engine: the Linial color reduction
(``linial-4-coloring``, which also runs inside ``cycle-3-coloring``,
``mis-color-classes`` and ``matching-line-coloring``) and the
``parity-sync`` demo.  View-based algorithms use
:class:`repro.local.views.ViewOracle` instead.  Section 2 of the paper
notes the two are equivalent.

Two execution paths share the exact same semantics:

* the **object loop** below — one Python object per node, the oracle;
* the **batched array path** — when a solver also passes an
  :class:`ArrayProgram` factory (``array_program=``) and the vector
  kernel backend is active, rounds run whole-population at a time over
  flat per-slot numpy arrays in
  :func:`repro.kernels.engine.run_array_program`: one gather across the
  CSR delivery involution, one ``step_all``, active-set compaction as
  nodes halt — no per-node Python in the loop.  A program whose last
  rounds have a closed form (Linial's palette elimination) computes
  them in one call and reports them as a tail instead of stepping them.

Results, ``halt_rounds``, round traces, and
:class:`ConvergenceError` diagnostics are bit-identical across the two;
``--kernels object`` always forces the oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro import kernels
from repro.local.algorithm import Instance
from repro.obs import get_telemetry

__all__ = [
    "ArrayProgram",
    "NodeProtocol",
    "SyncEngine",
    "MessageRound",
    "EngineResult",
    "ConvergenceError",
]

_LOG = logging.getLogger("repro.local.simulator")
_WARNED_NO_ARRAY_BACKEND = False


class ConvergenceError(RuntimeError):
    """The engine hit ``max_rounds`` with nodes still active.

    Carries the partial round trace and the number of still-active
    nodes so callers can diagnose livelocks (which nodes never halt,
    whether activity was shrinking) instead of staring at a bare
    message.
    """

    def __init__(self, max_rounds: int, active: int, trace: list["MessageRound"]):
        super().__init__(
            f"engine did not converge in {max_rounds} rounds; "
            f"{active} node(s) still active in the last round"
        )
        self.max_rounds = max_rounds
        self.active = active
        self.trace = trace

    def __reduce__(self):
        # Rebuild through __init__'s arguments, so the error crosses a
        # process boundary (the default passes only the message).
        return (type(self), (self.max_rounds, self.active, self.trace))


class NodeProtocol(Protocol):
    """Behaviour of one node in the synchronous engine.

    The engine instantiates one object per node via the factory passed to
    :class:`SyncEngine`.  A node halts by returning ``None`` from
    ``outgoing``; once every node has halted the run is over.  A halted
    node still has its final state inspected through ``result``.
    """

    def outgoing(self, round_index: int) -> list[Any] | None:  # pragma: no cover
        """Messages for ports 0..deg-1 this round, or None to halt."""
        ...

    def receive(self, round_index: int, inbox: list[Any]) -> None:  # pragma: no cover
        """Deliver the per-port messages of this round."""
        ...

    def result(self) -> Any:  # pragma: no cover
        """Final local output once the node halted."""
        ...


class ArrayProgram(Protocol):
    """Whole-population twin of :class:`NodeProtocol` for batched rounds.

    An array program advances *every* node per call over flat per-slot
    arrays aligned with the frozen CSR tables (see
    :class:`repro.kernels.engine.SlotLayout`).  ``step_all(r, inbox)``
    fuses the object protocol's ``receive`` of round ``r - 1`` (``inbox``
    is ``None`` at round 0) with ``outgoing`` of round ``r``: it returns
    the per-slot outbox array (first axis = total slots; any dtype or
    payload width) plus an optional per-node halt mask — ``True`` where
    the object node would return ``None`` this round.  Programs are
    single-use: the engine builds one per run via the factory handed to
    :class:`SyncEngine`.

    A program may also define ``closed_tail() -> int``, which the engine
    reads after every ``step_all(r, ...)`` that leaves some node active.
    A positive ``R`` says the program has already computed rounds
    ``r .. r + R - 1`` in closed form (their outbox is then not read, so
    ``step_all`` may return ``None`` for it): every still-active node
    takes part in all of them and halts at round ``r + R``, as its
    object node would.  The engine charges those rounds without
    stepping them and stops.
    """

    def init_all(self, instance: Instance, layout: Any) -> None:  # pragma: no cover
        """Set up per-node state arrays for one run."""
        ...

    def step_all(self, round_index: int, inbox: Any):  # pragma: no cover
        """Process last round's inbox, emit this round's outbox + halts."""
        ...

    def results_all(self) -> list[Any]:  # pragma: no cover
        """Per-node final outputs, matching the object nodes' results."""
        ...


@dataclass
class MessageRound:
    index: int
    active: int


@dataclass
class EngineResult:
    """Per-node results and the exact number of rounds executed.

    ``halt_rounds[v]`` is the round index at which node ``v`` returned
    ``None`` from ``outgoing`` — i.e. the number of message rounds the
    node participated in, which is exactly the view radius it consulted.
    ``rounds`` is their maximum.
    """

    results: list[Any]
    rounds: int
    trace: list[MessageRound]
    halt_rounds: list[int]

    def node_radius(self) -> list[int]:
        """Per-node view radii: the round each node halted at."""
        return list(self.halt_rounds)


def _warn_no_array_backend() -> None:
    global _WARNED_NO_ARRAY_BACKEND
    if not _WARNED_NO_ARRAY_BACKEND:
        _WARNED_NO_ARRAY_BACKEND = True
        _LOG.warning(
            "array node program degrades to the object round loop "
            "(numpy is not importable; install the [fast] extra)"
        )


class SyncEngine:
    """Runs node objects in lock-step synchronous rounds.

    ``array_program`` is an optional zero-argument factory producing an
    :class:`ArrayProgram`, the one way to attach a batched twin: when it
    is given and the vector kernel backend is active, :meth:`run`
    executes the batched path instead of the object loop.
    """

    def __init__(
        self,
        instance: Instance,
        node_factory: Callable[[int, Instance], NodeProtocol],
        array_program: Callable[[], ArrayProgram] | None = None,
    ):
        self.instance = instance
        self.graph = instance.graph
        self._node_factory = node_factory
        self._array_program = array_program
        self._nodes: list[NodeProtocol] | None = None

    @property
    def nodes(self) -> list[NodeProtocol]:
        """The per-node objects, built on first use.

        Lazy so the batched path never pays ``n`` object constructions
        it will not consult.
        """
        if self._nodes is None:
            self._nodes = [
                self._node_factory(v, self.instance)
                for v in self.graph.nodes()
            ]
        return self._nodes

    def run(self, max_rounds: int = 10_000) -> EngineResult:
        if self._array_program is not None:
            if kernels.vector_enabled():
                from repro.kernels.engine import run_array_program

                return run_array_program(
                    self.instance, self._array_program(), max_rounds
                )
            if not kernels.HAVE_NUMPY:
                _warn_no_array_backend()
        graph = self.graph
        nodes = self.nodes
        num_nodes = graph.num_nodes
        # Hot loop: read topology through the flat incidence core so a
        # delivery is two index reads and a store, with no Edge/HalfEdge
        # objects on the path.
        off, nbr, peer, _ = graph.csr()
        deg = graph.degrees
        halted = [False] * num_nodes
        halt_rounds = [0] * num_nodes
        trace: list[MessageRound] = []
        rounds = 0
        active_total = 0
        for round_index in range(max_rounds):
            outboxes: list[list[Any] | None] = []
            append_outbox = outboxes.append
            active = 0
            for v, node in enumerate(nodes):
                if halted[v]:
                    append_outbox(None)
                    continue
                out = node.outgoing(round_index)
                if out is None:
                    halted[v] = True
                    halt_rounds[v] = round_index
                    append_outbox(None)
                    continue
                if len(out) != deg[v]:
                    raise ValueError(
                        f"node {v} produced {len(out)} messages for "
                        f"{deg[v]} ports"
                    )
                append_outbox(out)
                active += 1
            if active == 0:
                break
            rounds += 1
            active_total += active
            trace.append(MessageRound(round_index, active))
            # Deliver: the message leaving (u, p) arrives at the half-edge
            # across the edge.  Halted nodes send nothing; their neighbors
            # receive an explicit None on that port.  Only non-halted nodes
            # get an inbox — halted receivers would never read theirs, and
            # on large graphs with early halters the skipped allocations
            # dominate the per-round cost.
            inboxes: list[list[Any] | None] = [
                None if halted[v] else [None] * deg[v]
                for v in range(num_nodes)
            ]
            for v, out in enumerate(outboxes):
                if out is None:
                    continue
                base = off[v]
                for port, message in enumerate(out):
                    slot = base + port
                    inbox = inboxes[nbr[slot]]
                    if inbox is not None:
                        inbox[peer[slot]] = message
            for v, node in enumerate(nodes):
                if not halted[v]:
                    node.receive(round_index, inboxes[v])
        else:
            raise ConvergenceError(max_rounds, sum(not h for h in halted), trace)
        telemetry = get_telemetry()
        telemetry.incr("engine.rounds", rounds)
        telemetry.incr("engine.active_nodes", active_total)
        telemetry.incr("kernels.object_rounds", rounds)
        return EngineResult(
            results=[node.result() for node in self.nodes],
            rounds=rounds,
            trace=trace,
            halt_rounds=halt_rounds,
        )
