"""Flooding node programs: the synchronous engine's test workloads.

No solver runs these; the engine's differential tests and
``benchmarks/bench_simulator_throughput.py`` do.  Each probe ships as an
object node program for the oracle loop and as an
:class:`~repro.local.simulator.ArrayProgram` twin for the batched path,
which callers pass to :class:`~repro.local.simulator.SyncEngine` as
``array_program=``:

* :class:`FloodNode` / :class:`EccFloodProgram` delta-flood identifiers
  and count the rounds until a node has heard from everyone, i.e. its
  eccentricity.
* :class:`MinIdFloodNode` / :class:`MinFloodProgram` forward the
  smallest value seen and halt the round after it stabilizes.  Halting
  is staggered (distance to the minimum), which makes them the
  active-set-compaction workload and the gated throughput case.

numpy is imported only inside the twins, so this module imports on a
stdlib-only install.
"""

from __future__ import annotations

from typing import Any

from repro.local.algorithm import Instance


class FloodNode:
    """Counts rounds until it has heard from everyone (diameter probe).

    Floods deltas: each round a node forwards only what it learned the
    round before.  An id at distance d still arrives in exactly d
    rounds, so heard sets, halting rounds, and results are identical to
    re-broadcasting the full heard set — but messages stay
    frontier-sized instead of ball-sized.
    """

    def __init__(self, v: int, instance: Instance):
        self.v = v
        self.n = instance.graph.num_nodes
        self.degree = instance.graph.degree(v)
        self.heard = {v}
        self.fresh = frozenset((v,))
        self.done_at: int | None = 0 if self.n == 1 else None

    def outgoing(self, round_index):
        if self.done_at is not None:
            return None
        return [self.fresh] * self.degree

    def receive(self, round_index, inbox):
        heard = self.heard
        fresh = set().union(*(m for m in inbox if m)) - heard
        heard |= fresh
        self.fresh = frozenset(fresh)
        if len(heard) == self.n:
            self.done_at = round_index + 1

    def result(self):
        return self.done_at


class MinIdFloodNode:
    """Forward the smallest value seen, halt once it stabilizes.

    Converges on every graph (each component settles on its minimum),
    with per-node halt rounds staggered by distance to the minimum.
    """

    def __init__(self, v: int, instance: Instance):
        self.value = v
        self.deg = instance.graph.degree(v)
        self.changed = True

    def outgoing(self, round_index):
        if not self.changed:
            return None
        return [self.value] * self.deg

    def receive(self, round_index, inbox):
        best = min([self.value] + [m for m in inbox if m is not None])
        self.changed = best != self.value
        self.value = best

    def result(self):
        return self.value


def segment_reduce(ufunc, flat, lengths, empty):
    """Per-segment ``ufunc.reduce`` over consecutive runs of ``flat``.

    ``lengths`` tiles ``flat`` exactly (``lengths.sum() == len(flat)``);
    segment ``i`` is the next ``lengths[i]`` rows.  Empty segments yield
    ``empty``.  Reduction runs along axis 0, so 2-D payloads (bitset
    rows) reduce row-wise.

    ``np.ufunc.reduceat`` alone mishandles empty segments (it returns
    ``flat[start]`` instead of the identity, and an empty tail segment
    would index past the end), so the reduceat runs over the non-empty
    segments only: their start offsets are strictly increasing and the
    gap a skipped empty segment leaves is zero rows, so each reduceat
    window is exactly one segment.
    """
    import numpy as np

    k = lengths.shape[0]
    out = np.empty((k,) + flat.shape[1:], dtype=flat.dtype)
    if k == 0:
        return out
    out[...] = empty
    nonempty = np.flatnonzero(lengths)
    if nonempty.size == 0 or flat.shape[0] == 0:
        return out
    starts = np.zeros(k, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    out[nonempty] = ufunc.reduceat(flat, starts[nonempty], axis=0)
    return out


class MinFloodProgram:
    """Array twin of :class:`MinIdFloodNode`."""

    def init_all(self, instance: Any, layout: Any) -> None:
        import numpy as np

        self._layout = layout
        self._value = np.arange(layout.num_nodes, dtype=np.int64)
        self._changed = np.ones(layout.num_nodes, dtype=bool)

    def step_all(self, round_index: int, inbox: Any):
        import numpy as np

        if inbox is not None:
            top = np.iinfo(np.int64).max
            flat = np.where(
                inbox.sent[inbox.slots], inbox.values[inbox.slots], top
            )
            best = segment_reduce(np.minimum, flat, inbox.lengths, top)
            own = self._value[inbox.active]
            best = np.minimum(best, own)
            self._changed[inbox.active] = best != own
            self._value[inbox.active] = best
        return self._value[self._layout.node_of], ~self._changed

    def results_all(self) -> list[Any]:
        return self._value.tolist()


class EccFloodProgram:
    """Array twin of :class:`FloodNode`.

    The object node floods frozensets of ids; here each heard/fresh set
    is a row of packed uint64 bitset words, the per-node union is a
    segmented bitwise-or, and "heard everyone" is a running popcount —
    same delta-flood semantics, same ``done_at`` results.
    """

    def init_all(self, instance: Any, layout: Any) -> None:
        import numpy as np

        self._layout = layout
        n = layout.num_nodes
        self._n = n
        words = max(1, (n + 63) // 64)
        bits = np.zeros((n, words), dtype=np.uint64)
        idx = np.arange(n)
        bits[idx, idx // 64] = np.uint64(1) << (idx % 64).astype(np.uint64)
        self._heard = bits
        self._fresh = bits.copy()
        self._count = np.ones(n, dtype=np.int64)
        self._done_at = np.full(n, -1, dtype=np.int64)
        if n == 1:
            self._done_at[0] = 0

    def step_all(self, round_index: int, inbox: Any):
        import numpy as np

        if inbox is not None:
            flat = np.where(
                inbox.sent[inbox.slots, None],
                inbox.values[inbox.slots],
                np.uint64(0),
            )
            incoming = segment_reduce(
                np.bitwise_or, flat, inbox.lengths, np.uint64(0)
            )
            act = inbox.active
            new = incoming & ~self._heard[act]
            self._heard[act] |= new
            self._fresh[act] = new
            # popcount of each row: unpack its bytes into bits
            rows = np.ascontiguousarray(new).view(np.uint8)
            bits = np.unpackbits(rows, axis=1)
            self._count[act] += bits.sum(axis=1, dtype=np.int64)
            # the object node sets done_at = message_round + 1; this
            # step processes the messages of round_index - 1
            done = act[self._count[act] == self._n]
            self._done_at[done] = round_index
        return self._fresh[self._layout.node_of], self._done_at >= 0

    def results_all(self) -> list[Any]:
        return [r if r >= 0 else None for r in self._done_at.tolist()]
