"""Random regular graphs and girth surgery.

The hard instances for sinkless orientation are bounded-degree graphs
of minimum degree 3 that look locally tree-like; random d-regular
graphs have exactly that property (their short cycles are sparse), and
``lift_girth`` removes the few short cycles by local edge surgery when
a guaranteed girth floor is wanted.
"""

from __future__ import annotations

import random

from repro.local.distances import girth
from repro.local.graphs import PortGraph
from repro.obs import get_telemetry
from repro.runtime.registry import register_family

__all__ = [
    "random_regular",
    "configuration_model",
    "lift_girth",
    "high_girth_cubic_instance",
]


#: Configuration-model samples :func:`random_regular` draws before it
#: gives up on a simple one.
_MAX_SAMPLES = 200


def _stub_pairs(n: int, degree: int, rng: random.Random) -> list[tuple[int, int]]:
    """One configuration-model pairing: shuffle the stubs, pair them in order."""
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    stubs = [v for v in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    return [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]


def _pairs_simple(pairs: list[tuple[int, int]]) -> bool:
    """Whether the pairs have no loop and no repeated (unordered) pair."""
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def configuration_model(n: int, degree: int, rng: random.Random) -> PortGraph:
    """One configuration-model sample (may contain loops/parallels)."""
    return PortGraph.from_edge_list(n, _stub_pairs(n, degree, rng))


def random_regular(n: int, degree: int, rng: random.Random) -> PortGraph:
    """A simple random d-regular graph, by resampling until simple.

    Each sample is a configuration-model pairing, drawn exactly as
    :func:`configuration_model` (the one sampler that keeps loops and
    parallel edges) draws it.  A sample with a loop or a repeated pair
    is rejected on the pair list, so only the accepted sample is built
    into a :class:`PortGraph`; the graph and the RNG state afterwards
    are those of calling :func:`configuration_model` until the result
    ``is_simple()``.  Every sample adds one to the
    ``generators.configuration_attempts`` counter; after
    ``_MAX_SAMPLES`` rejections it gives up.
    """
    telemetry = get_telemetry()
    for _ in range(_MAX_SAMPLES):
        telemetry.incr("generators.configuration_attempts")
        pairs = _stub_pairs(n, degree, rng)
        if _pairs_simple(pairs):
            return PortGraph.from_edge_list(n, pairs)
    raise RuntimeError(
        f"failed to sample a simple {degree}-regular graph on {n} nodes"
    )


def _short_cycle_edge(
    rows: list[list[tuple[int, int]]], source: int, below: int
) -> int | None:
    """The first edge the BFS from ``source`` finds on a cycle shorter
    than ``below``, or None.

    ``rows[v]`` lists ``(eid, neighbor)`` in port order.  Only the rows
    of nodes within distance ``(below - 1) // 2`` of ``source`` are read.
    """
    dist = {source: 0}
    parent = {source: -1}
    queue = [source]
    for v in queue:
        d = dist[v]
        if d * 2 >= below:
            continue
        for eid, u in rows[v]:
            if u == v:
                return eid
            if u not in dist:
                dist[u] = d + 1
                parent[u] = eid
                queue.append(u)
            elif parent[v] != eid and dist[u] + d + 1 < below:
                return eid
    return None


def _ball(
    rows: list[list[tuple[int, int]]], centres: set[int], radius: int
) -> set[int]:
    """Every node within distance ``radius`` of some node of ``centres``."""
    seen = set(centres)
    frontier = list(seen)
    for _ in range(radius):
        grown = []
        for v in frontier:
            for _eid, u in rows[v]:
                if u not in seen:
                    seen.add(u)
                    grown.append(u)
        frontier = grown
    return seen


def _rows(n: int, pairs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Per-node ``(eid, neighbor)`` rows in the port order that
    ``PortGraph.from_edge_list(n, pairs)`` gives: ascending edge id,
    with a self-loop listed twice."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(pairs):
        rows[u].append((eid, v))
        rows[v].append((eid, u))
    return rows


def lift_girth(
    graph: PortGraph,
    min_girth: int,
    rng: random.Random,
    max_swaps: int | None = None,
) -> PortGraph:
    """Raise the girth to at least ``min_girth`` by random 2-swaps.

    Repeatedly finds an edge lying on a short cycle and swaps it with a
    uniformly random other edge (the classic degree-preserving double
    edge swap).  Terminates when no cycle shorter than ``min_girth``
    remains; raises if the budget runs out, which indicates the girth
    target is infeasible at this size (a d-regular graph on n nodes has
    girth O(log n)).

    Each search returns the edge a BFS from each source in turn finds
    first, reading ports in the graph's order; after the first swap that
    is the order ``PortGraph.from_edge_list(n, pairs)`` gives.  A swap
    rewrites only the rows of its endpoints, and the next search rescans
    only the cleared sources within ``(min_girth - 1) // 2`` of one,
    then resumes at the first source never cleared.  One graph is built
    at the end; the input graph itself is returned when no swap is
    needed.
    """
    if max_swaps is None:
        max_swaps = 50 * graph.num_edges + 1000
    n = graph.num_nodes
    off, nbr, _, eids = graph.csr()
    rows = [
        list(zip(eids[off[v] : off[v + 1]], nbr[off[v] : off[v + 1]]))
        for v in range(n)
    ]
    # Each edge as (smaller, larger) endpoint: the nodes of its sides a, b.
    pairs: list[tuple[int, int]] = [(0, 0)] * graph.num_edges
    for v, row in enumerate(rows):
        for eid, u in row:
            if v <= u:
                pairs[eid] = (v, u)
    # Rows in ascending edge id are already in from_edge_list's order;
    # any other input is re-canonicalized by its first swap.
    canonical = all(row == sorted(row) for row in rows)
    radius = (min_girth - 1) // 2
    dirty: set[int] = set()  # cleared sources whose ball has changed since
    fresh = 0  # the first source never cleared
    swapped = False
    for _ in range(max_swaps):
        bad_eid = None
        for source in sorted(dirty):
            bad_eid = _short_cycle_edge(rows, source, min_girth)
            if bad_eid is not None:
                break
            dirty.discard(source)
        while bad_eid is None and fresh < n:
            bad_eid = _short_cycle_edge(rows, fresh, min_girth)
            if bad_eid is None:
                fresh += 1
        if bad_eid is None:
            return PortGraph.from_edge_list(n, pairs) if swapped else graph
        other_eid = rng.randrange(len(pairs))
        if other_eid == bad_eid:
            continue
        a, b = pairs[bad_eid]
        c, d = pairs[other_eid]
        if rng.random() < 0.5:
            new_pairs = [(a, c), (b, d)]
        else:
            new_pairs = [(a, d), (b, c)]
        pairs[bad_eid] = new_pairs[0]
        pairs[other_eid] = new_pairs[1]
        swapped = True
        if not canonical:
            rows = _rows(n, pairs)
            canonical = True
            fresh = 0
            continue
        ends = {a, b, c, d}
        # A scan reads only the rows within ``radius`` of its source, so
        # only the cleared sources that close to a swapped endpoint (in
        # the graph before the swap) can scan differently after it.
        dirty.update(v for v in _ball(rows, ends, radius) if v < fresh)
        for v in ends:
            rows[v] = [
                entry for entry in rows[v] if entry[0] not in (bad_eid, other_eid)
            ]
        for eid, (u, v) in zip((bad_eid, other_eid), new_pairs):
            rows[u].append((eid, v))
            rows[v].append((eid, u))
        for v in ends:
            rows[v].sort()
    current = PortGraph.from_edge_list(n, pairs) if swapped else graph
    g = girth(current)
    raise RuntimeError(
        f"girth surgery did not reach girth {min_girth} (currently {g}); "
        "the target is likely infeasible at this size"
    )


# Sampling and girth surgery both consume the seed: no sharing.
@register_family(
    "high-girth-cubic",
    description="random cubic graphs lifted to girth >= 6 by edge surgery",
    max_degree=3,
    min_degree=3,
    girth_at_least=6,
    test_sizes=(24, 40),
)
def high_girth_cubic_instance(n: int, seed: int):
    """A 3-regular instance with no cycle shorter than 6.

    The anchor-scan solver's Theta(log n) radius shows cleanest on
    these: the shortest certifying cycle cannot appear before radius 3.
    """
    from repro.local import Instance
    from repro.local.identifiers import random_ids
    from repro.util.rng import NodeRng

    n = n if n % 2 == 0 else n + 1
    rng = random.Random(0x617274 ^ (n * 1_000_003) ^ seed)
    graph = lift_girth(random_regular(n, 3, rng), 6, rng)
    return Instance(graph, random_ids(n, rng), None, None, NodeRng(seed))
