"""numpy frontier/gather kernels over the frozen CSR tables.

Import this module only behind :func:`repro.kernels.vector_enabled` (or
after checking ``repro.kernels.HAVE_NUMPY``): it imports numpy at module
load.

Every kernel here is the array-at-a-time twin of an object-layer
function and reproduces it **bit-identically** — not just the same sets,
but the same dict insertion orders, the same first-discovery parent
choices, the same list orderings.  The trick throughout is that
level-synchronous BFS reproduces the object layer's first-discovery
rule exactly: candidates are laid out in frontier-queue-major,
port-minor order (the exact scan order of the object loop), and a
reversed scatter into a per-node scratch array marks each node's
*first* discovering slot in O(candidates) — duplicates are dropped
without the sort a ``np.unique`` pass would pay, and the surviving
candidates are already in discovery order.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable

import numpy as np

__all__ = [
    "bfs_distances",
    "connected_components",
    "csr_arrays",
    "multi_source_bfs",
    "scan_order",
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


def _discoveries(
    stamp: np.ndarray,
    unvisited: np.ndarray,
    targets: np.ndarray,
    idx_buf: np.ndarray,
) -> np.ndarray:
    """Keep-mask of this level's BFS discoveries among raw ``targets``.

    ``targets`` holds the level's neighbor scan in frontier-major
    port-minor order (the object loop's scan order).  The reversed
    scatter writes each node's *earliest* target index last, so
    ``stamp[targets] == idx`` marks exactly the first occurrence of
    each node — the object loop's discovery rule — without sorting,
    and compressing ``targets`` by the mask yields discovery order.
    The visited filter is fused into the same mask: a visited node
    drops *every* occurrence, so filtering can never promote a later
    slot to first.  (``unvisited`` is kept inverted so the filter is
    a plain gather, no per-level negation.)

    ``stamp`` is caller-owned per-node scratch: every position read
    here was written this call, and every surviving node is marked
    visited right after, so stale entries are never consulted.
    ``idx_buf`` is a caller-owned ``arange`` over the run's maximum
    scan width, sliced instead of reallocated per level.
    """
    idx = idx_buf[: targets.size]
    stamp[targets[::-1]] = idx[::-1]
    return (stamp[targets] == idx) & unvisited[targets]


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


def _frontier_scanner(off: np.ndarray, table: np.ndarray):
    """Per-run ``frontier -> table[slots of frontier]`` function.

    For uniform-degree graphs the CSR offsets are exactly ``v * d``,
    so the whole expand-then-gather chain collapses to one fancy index
    into the table reshaped ``(num_nodes, d)`` — the cheapest possible
    neighbor scan.  Irregular graphs gather through the general slot
    expansion.
    """
    counts = np.diff(off)
    if counts.size and int(counts.min()) == int(counts.max()) and counts[0]:
        matrix = table.reshape(-1, int(counts[0]))

        def scan(frontier: np.ndarray) -> np.ndarray:
            # take(axis=0) is several times faster than fancy row
            # indexing for these small-row gathers.
            return matrix.take(frontier, axis=0).reshape(-1)

        return scan
    # irregular: gather through the (possibly bucketed) slot expansion
    expand = _frontier_expander(off)
    return lambda frontier: table.take(expand(frontier))


def bfs_distances(
    graph: Any, source: int, max_radius: int | None = None
) -> dict[int, int]:
    """Vector twin of :func:`repro.local.distances.bfs_distances`."""
    off, nbr, _, _ = csr_arrays(graph)
    unvisited = np.ones(graph.num_nodes, dtype=bool)
    unvisited[source] = False
    stamp = np.empty(graph.num_nodes, dtype=_I64)
    idx_buf = np.arange(nbr.size, dtype=_I64)
    scan = _frontier_scanner(off, nbr)
    dist = {source: 0}
    update = dist.update
    frontier = np.array([source], dtype=_I64)
    depth = 0
    while frontier.size:
        if max_radius is not None and depth >= max_radius:
            break
        targets = scan(frontier)
        if targets.size == 0:
            break
        frontier = targets.compress(_discoveries(stamp, unvisited, targets, idx_buf))
        unvisited[frontier] = False
        depth += 1
        update(zip(frontier.tolist(), repeat(depth)))
    return dist


def multi_source_bfs(
    graph: Any, sources: Iterable[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Vector twin of :func:`repro.local.distances.multi_source_bfs`."""
    off, nbr, _, eids = csr_arrays(graph)
    dist: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    roots: list[int] = []
    for s in sources:
        if s not in dist:
            dist[s] = 0
            roots.append(s)
    unvisited = np.ones(graph.num_nodes, dtype=bool)
    stamp = np.empty(graph.num_nodes, dtype=_I64)
    idx_buf = np.arange(nbr.size, dtype=_I64)
    expand = _frontier_expander(off)
    frontier = np.array(roots, dtype=_I64)
    unvisited[frontier] = False
    depth = 0
    while frontier.size:
        slots = expand(frontier)
        if slots.size == 0:
            break
        targets = nbr.take(slots)
        keep = _discoveries(stamp, unvisited, targets, idx_buf)
        frontier = targets.compress(keep)
        # The discovering slot also fixes the parent edge — identical
        # to the object loop's first-discovery assignment.
        parents = eids.take(slots.compress(keep))
        unvisited[frontier] = False
        depth += 1
        dist.update(zip(frontier.tolist(), repeat(depth)))
        parent_edge.update(zip(frontier.tolist(), parents.tolist()))
    return dist, parent_edge


def connected_components(graph: Any) -> list[list[int]]:
    """Vector twin of :func:`repro.local.distances.connected_components`."""
    off, nbr, _, _ = csr_arrays(graph)
    num_nodes = graph.num_nodes
    unseen = np.ones(num_nodes, dtype=bool)
    stamp = np.empty(num_nodes, dtype=_I64)
    idx_buf = np.arange(nbr.size, dtype=_I64)
    scan = _frontier_scanner(off, nbr)
    components: list[list[int]] = []
    for start in range(num_nodes):
        if not unseen[start]:
            continue
        unseen[start] = False
        members = [start]
        frontier = np.array([start], dtype=_I64)
        while frontier.size:
            targets = scan(frontier)
            if targets.size == 0:
                break
            frontier = targets.compress(
                _discoveries(stamp, unseen, targets, idx_buf)
            )
            unseen[frontier] = False
            members.extend(frontier.tolist())
        components.append(sorted(members))
    return components


def scan_order(
    graph: Any, ids: Any
) -> tuple[list[int], list[int], list[int]]:
    """Per-node port permutations in increasing (neighbor-id, port) order.

    Returns ``(offsets, ordered_neighbors, ordered_eids)`` as plain
    lists: slot ``offsets[v] + k`` holds node ``v``'s k-th port *after*
    sorting its ports by ``(identifier of neighbor, port)`` — exactly
    the exploration order the deterministic sinkless solver's
    ``anchor_scan`` computes with per-visit ``sorted`` calls.  One
    lexsort over the flat tables replaces ~|ball| small sorts per scan
    center, which is where that solver spends most of its time.
    """
    off, nbr, _, eids = csr_arrays(graph)
    total = nbr.shape[0]
    counts = np.diff(off)
    node_of = np.repeat(np.arange(graph.num_nodes, dtype=_I64), counts)
    port_of = np.arange(total, dtype=_I64) - off[node_of]
    id_table = np.asarray(ids.as_list(), dtype=_I64)
    # lexsort: last key is primary — group by node, then neighbor id,
    # then port, matching sorted(key=(id(neighbor), port)) per node.
    perm = np.lexsort((port_of, id_table[nbr], node_of))
    return off.tolist(), nbr[perm].tolist(), eids[perm].tolist()
