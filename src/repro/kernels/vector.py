"""numpy frontier/gather kernels over the frozen CSR tables.

Import this module only behind :func:`repro.kernels.vector_enabled` (or
after checking ``repro.kernels.HAVE_NUMPY``): it imports numpy at module
load.

:func:`anchor_scans` is the array-at-a-time twin of the deterministic
sinkless solver's per-node ``anchor_scan`` and reproduces it
**bit-identically** — the same radius, claimed edge and port at every
node.  The trick is that level-synchronous BFS reproduces the object
layer's first-discovery rule exactly: candidates are laid out in
frontier-queue-major, port-minor order (the exact scan order of the
object loop), and a reversed scatter into a per-node scratch array
marks each node's *first* discovering slot in O(candidates) —
duplicates are dropped without the sort a ``np.unique`` pass would
pay.  :func:`csr_arrays` and the frontier expansion also serve the
batched node programs' :class:`repro.kernels.engine.SlotLayout`.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.local.graphs import HalfEdge

__all__ = [
    "anchor_scans",
    "csr_arrays",
]

_I64 = np.int64


def csr_arrays(graph: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The graph's CSR tables as zero-copy int64 ndarrays.

    ``PortGraph.csr()`` hands out read-only buffer-protocol views;
    ``np.frombuffer`` wraps them without copying, and the resulting
    arrays inherit the read-only flag — kernels cannot corrupt the
    shared tables any more than object-layer callers can.
    """
    off, nbr, peer, eids = graph.csr()
    return (
        np.frombuffer(off, dtype=_I64),
        np.frombuffer(nbr, dtype=_I64),
        np.frombuffer(peer, dtype=_I64),
        np.frombuffer(eids, dtype=_I64),
    )


def _expand(off: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat CSR slot indices of all ports of ``frontier``, in
    frontier-major port-minor order (the object loop's scan order)."""
    starts = off[frontier]
    counts = off[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=_I64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=_I64) + np.repeat(starts - (ends - counts), counts)


#: Degree-bucketed expansion pays one broadcast gather per distinct
#: degree; past this many buckets the cumsum/repeat path wins back.
_MAX_DEGREE_BUCKETS = 16


def _expand_bucketed(
    off: np.ndarray,
    counts: np.ndarray,
    degrees: np.ndarray,
    frontier: np.ndarray,
) -> np.ndarray:
    """Bucketed :func:`_expand`: group the frontier by degree, emit each
    bucket with one ``(members, d)`` broadcast, and scatter the blocks
    into the frontier-major port-minor output positions — identical
    output to the general expansion, without its cumsum/repeat passes.
    """
    frontier_counts = counts[frontier]
    total = int(frontier_counts.sum())
    out = np.empty(total, dtype=_I64)
    ends = np.cumsum(frontier_counts)
    out_starts = ends - frontier_counts
    for d in degrees.tolist():
        if d == 0:
            continue
        members = np.flatnonzero(frontier_counts == d)
        if members.size == 0:
            continue
        ports = np.arange(d, dtype=_I64)
        block = off[frontier[members]][:, None] + ports
        positions = out_starts[members][:, None] + ports
        out[positions.reshape(-1)] = block.reshape(-1)
    return out


def _frontier_expander(off: np.ndarray):
    """Per-run ``frontier -> flat slots`` function.

    Regular graphs (every instance family this repo benchmarks —
    cubic, torus, cycle) take a two-op broadcast; irregular graphs
    with few distinct degrees get a per-bucket single gather; only
    graphs with many distinct degrees fall back to the general
    cumsum/repeat :func:`_expand`.
    """
    counts = np.diff(off)
    if counts.size and int(counts.min()) == int(counts.max()):
        ports = np.arange(int(counts[0]), dtype=_I64)

        def expand(frontier: np.ndarray) -> np.ndarray:
            return (off[frontier][:, None] + ports).reshape(-1)

        return expand
    degrees = np.unique(counts)
    if degrees.size and degrees.size <= _MAX_DEGREE_BUCKETS:
        return lambda frontier: _expand_bucketed(off, counts, degrees, frontier)
    return lambda frontier: _expand(off, frontier)


#: Scratch cells (scan centre x node) one block of :func:`anchor_scans`
#: may stamp: the visit table is ``block x num_nodes`` int32, so it
#: stays at 4 MiB whatever the graph size.  Wider blocks mean fewer
#: level-synchronous passes: on a 2-vCPU host, the sinkless grid's 14
#: instances (n <= 4096) scanned in 0.21-0.24 s against 0.28-0.35 s with
#: a 1 MiB table, and one n = 16,384 cubic instance in 0.54 s against
#: 0.90 s.
_ANCHOR_CELL_BUDGET = 1 << 20
_STAMP_MAX = np.iinfo(np.int32).max


def anchor_scans(
    graph: Any, ids: Any, exempt_below: int
) -> list[tuple[int, int, HalfEdge] | None]:
    """Every node's ``anchor_scan``, as one level-synchronous pass.

    Returns a list indexed by node: ``(radius, claim_eid, claim_tail)``
    for each node the deterministic sinkless solver scans (degree at
    least ``max(exempt_below, 1)``), exactly as
    :func:`repro.problems.sinkless_solvers.anchor_scan` returns them,
    and None for every other node.  A component with neither a cycle
    nor an exempt node raises the oracle's ``RuntimeError``, naming the
    smallest such scanned node (the one the solver's loop reaches first).

    All scans of a block of centres advance one BFS level at a time.
    Each centre's frontier is scanned queue-major and, per node, in
    increasing (neighbor identifier, port) order: the oracle's visit
    order.  So the oracle's first anchor is the first *event* of the
    level in that order, where an event is

    * popping an exempt node (degree below ``exempt_below``, depth >= 1),
      checked before that node's ports;
    * an already visited neighbor reached over an edge other than the
      scanned node's parent edge (self-loops included);
    * a second scan of a node first discovered earlier in this level.

    A visited neighbor is at most one level shallower, and a node
    discovered this level is reached again over a different edge, so
    those rules are exactly the oracle's cycle test.  A centre stops at
    its first event; a centre with no event discovers only distinct new
    nodes, which become the next level.  Each visited node carries the
    first hop of its BFS path at the centre, which is the oracle's
    ``claim_toward``.
    """
    off, nbr, peer, eids = csr_arrays(graph)
    n = graph.num_nodes
    deg = np.diff(off)
    scanned = np.flatnonzero(deg >= max(exempt_below, 1))
    out: list[tuple[int, int, HalfEdge] | None] = [None] * n
    if scanned.size == 0:
        return out
    id_table = np.asarray(ids.as_list(), dtype=_I64)
    # Each node's ports by neighbor identifier; lexsort is stable, so
    # equal identifiers (parallel edges, self-loops) stay in port order.
    order = np.lexsort((id_table[nbr], np.repeat(np.arange(n, dtype=_I64), deg)))
    tables = _ScanTables(
        n, off, deg, peer, nbr.take(order), eids.take(order), order,
        _frontier_expander(off), deg < exempt_below,
    )
    block = max(1, _ANCHOR_CELL_BUDGET // n)
    stamp = np.zeros(min(block, scanned.size) * n, dtype=np.int32)
    radius = np.empty(n, dtype=_I64)
    claim = np.empty(n, dtype=_I64)
    base = 1
    for start in range(0, scanned.size, block):
        if base > _STAMP_MAX - stamp.size:
            # a block writes at most stamp.size records above base
            stamp[:] = 0
            base = 1
        centres = scanned[start : start + block]
        base, stuck = _anchor_block(tables, centres, stamp, base, radius, claim)
        if stuck is not None:
            raise RuntimeError(
                f"node {stuck}: component has neither a cycle nor an exempt "
                "node; such a finite graph cannot exist"
            )
    slots = claim.take(scanned)
    for v, r, eid, port in zip(
        scanned.tolist(),
        radius.take(scanned).tolist(),
        eids.take(slots).tolist(),
        (slots - off.take(scanned)).tolist(),
    ):
        out[v] = (r, eid, HalfEdge(v, port))
    return out


class _ScanTables(NamedTuple):
    """Per-call tables of :func:`anchor_scans`, shared by its blocks."""

    n: int
    off: np.ndarray
    deg: np.ndarray
    peer: np.ndarray
    nbr: np.ndarray  # neighbors in scan order (sorted per node)
    eids: np.ndarray  # edge ids in scan order
    slot: np.ndarray  # scan position -> CSR slot
    expand: Any  # frontier -> scan positions, frontier-major
    exempt: np.ndarray  # per node: degree below exempt_below


class _Ports(NamedTuple):
    """One level's scanned ports, frontier-major and in scan order."""

    entry: np.ndarray  # the frontier entry scanning the port
    pos: np.ndarray  # scan position of the port
    u: np.ndarray  # the neighbor across it
    seen: np.ndarray  # the neighbor's stamp before this level
    visited: np.ndarray  # seen >= base
    exempt: np.ndarray  # first port of an exempt entry (its pop comes first)


def _anchor_block(
    t: _ScanTables,
    centres: np.ndarray,
    stamp: np.ndarray,
    base: int,
    radius: np.ndarray,
    claim: np.ndarray,
) -> tuple[int, int | None]:
    """Scan one block of centres; fill ``radius`` and ``claim`` (the CSR
    slot at each centre whose edge and port the scan claims).

    Returns the next block's base and the smallest centre whose scan ran
    out of nodes (None when every scan found its anchor).
    """
    scan = _BlockScan(t, centres, stamp, base)
    while scan.x.size:
        scan.level(radius, claim)
    stuck = np.flatnonzero(scan.stuck)
    return base + scan.records, int(centres[stuck[0]]) if stuck.size else None


class _BlockScan:
    """The scans of one block of centres, advanced one level at a time.

    ``stamp[row * n + u]`` is ``base + r`` once centre ``row`` has
    visited ``u`` as the block's ``r``-th visit record; anything below
    ``base`` (zeros, earlier blocks, scratch tags) reads as unvisited.
    Records are numbered level by level, so a record at or above
    ``level_start`` was visited this level and one below it, the level
    before (from ``prev_start`` on).
    """

    def __init__(
        self, t: _ScanTables, centres: np.ndarray, stamp: np.ndarray, base: int
    ):
        self.t, self.centres, self.stamp, self.base = t, centres, stamp, base
        k = centres.size
        rows = np.arange(k, dtype=_I64)
        # Frontier entries: centre row, node, first-hop slot at the
        # centre (-1 at the centre itself), and the edge that reached it.
        self.row, self.x = rows, centres
        self.branch = np.full(k, -1, dtype=_I64)
        self.parent_eid = np.full(k, -1, dtype=_I64)
        stamp[rows * t.n + centres] = base + rows
        self.active = np.ones(k, dtype=bool)
        self.stuck = np.zeros(k, dtype=bool)
        self.depth = 0
        self.level_start, self.records = 0, k
        self.prev_branch, self.prev_start = self.branch, 0

    def level(self, radius: np.ndarray, claim: np.ndarray) -> None:
        """Scan the frontier's ports; stop the centres that hit an event
        and make the rest's first discoveries the next frontier."""
        t, stamp, base = self.t, self.stamp, self.base
        counts = t.deg.take(self.x)
        entry = np.repeat(np.arange(self.x.size, dtype=_I64), counts)
        pos = t.expand(self.x)
        u = t.nbr.take(pos)
        eid = t.eids.take(pos)
        keys = self.row.take(entry) * t.n + u
        seen = stamp.take(keys)
        visited = seen >= base
        event = visited & (eid != self.parent_eid.take(entry))
        fresh = np.flatnonzero(~visited)
        fresh_keys = keys.take(fresh)
        # First discoveries: a reversed scatter leaves each key's
        # earliest tag (tags stay below base, so they read unvisited).
        tags = -1 - np.arange(fresh.size, dtype=np.int32)
        stamp[fresh_keys[::-1]] = tags[::-1]
        first = stamp.take(fresh_keys) == tags
        event[fresh[~first]] = True
        exempt = np.zeros(pos.size, dtype=bool)
        if self.depth:
            popped = t.exempt.take(self.x)
            if popped.any():
                exempt[(np.cumsum(counts) - counts)[popped]] = True
                event |= exempt
        hits = np.flatnonzero(event)
        if hits.size:
            # each centre's first event ends its scan
            hit_rows = self.row.take(entry.take(hits))
            lead = np.ones(hits.size, dtype=bool)
            lead[1:] = hit_rows[1:] != hit_rows[:-1]
            ports = _Ports(entry, pos, u, seen, visited, exempt)
            self._resolve(ports, hits[lead], hit_rows[lead], radius, claim)
            self.active[hit_rows[lead]] = False
        found = fresh[first]
        found = found[self.active[self.row.take(entry.take(found))]]
        found_entry = entry.take(found)
        stamp[keys.take(found)] = base + self.records + np.arange(found.size, dtype=_I64)
        self.prev_branch, self.prev_start = self.branch, self.level_start
        self.level_start = self.records
        self.records += found.size
        if self.depth == 0:
            self.branch = t.slot.take(pos.take(found))
        else:
            self.branch = self.branch.take(found_entry)
        self.row = self.row.take(found_entry)
        self.x = u.take(found)
        self.parent_eid = eid.take(found)
        # a centre still scanning with an empty queue has no anchor
        reached = np.zeros(self.active.size, dtype=bool)
        reached[self.row] = True
        self.stuck |= self.active & ~reached
        self.active &= reached
        self.depth += 1

    def _resolve(
        self,
        p: _Ports,
        wins: np.ndarray,
        rows: np.ndarray,
        radius: np.ndarray,
        claim: np.ndarray,
    ) -> None:
        """Turn each centre's first event (at port ``wins``, for centre
        ``rows``) into the oracle's radius and claimed slot."""
        t, depth = self.t, self.depth
        v = self.centres.take(rows)
        slot = t.slot.take(p.pos.take(wins))
        at_v = t.off.take(v)
        if depth == 0:
            # The centre itself: a self-loop claims its lower port, a
            # parallel edge the scanned port.
            loop = p.u.take(wins) == v
            radius[v] = np.where(loop, 0, 1)
            claim[v] = np.where(loop, np.minimum(slot, at_v + t.peer.take(slot)), slot)
            return
        i = p.entry.take(wins)
        s = self.branch.take(i)  # default: the first hop toward the scanner
        exempt = p.exempt.take(wins)
        hit_visited = p.visited.take(wins) & ~exempt
        record = p.seen.take(wins) - self.base
        # a visited neighbor one level up is the cycle's nearer endpoint
        up = hit_visited & (p.u.take(wins) != self.x.take(i)) & (record < self.level_start)
        if depth == 1:
            s = np.where(up, at_v + t.peer.take(slot), s)  # the centre's side
        elif up.any():
            s[up] = self.prev_branch.take(record[up] - self.prev_start)
        # a node discovered twice this level closes a cycle one level down
        radius[v] = np.where(hit_visited | exempt, depth, depth + 1)
        claim[v] = s
