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


def random_regular(
    n: int, degree: int, rng: random.Random, simple: bool = True, max_tries: int = 200
) -> PortGraph:
    """A random d-regular graph; resamples until simple when requested.

    Each sample is a configuration-model pairing, drawn exactly as
    :func:`configuration_model` draws it.  A sample with a loop or a
    repeated pair is rejected on the pair list, so only the accepted
    sample is built into a :class:`PortGraph`; the graph and the RNG
    state afterwards are those of calling :func:`configuration_model`
    until the result ``is_simple()``.  Every sample adds one to the
    ``generators.configuration_attempts`` counter.
    """
    telemetry = get_telemetry()
    for _ in range(max_tries):
        telemetry.incr("generators.configuration_attempts")
        pairs = _stub_pairs(n, degree, rng)
        if not simple or _pairs_simple(pairs):
            return PortGraph.from_edge_list(n, pairs)
    raise RuntimeError(
        f"failed to sample a simple {degree}-regular graph on {n} nodes"
    )


def _short_cycle_edge(graph: PortGraph, below: int) -> tuple[int, int] | None:
    """Return (eid of an edge on a cycle shorter than ``below``, length)."""
    off, nbr, _, eids = graph.csr()
    for source in graph.nodes():
        dist = {source: 0}
        parent = {source: -1}
        queue = [source]
        for v in queue:
            d = dist[v]
            if d * 2 >= below:
                continue
            for slot in range(off[v], off[v + 1]):
                u = nbr[slot]
                eid = eids[slot]
                if u == v:
                    return eid, 1
                if u not in dist:
                    dist[u] = d + 1
                    parent[u] = eid
                    queue.append(u)
                elif parent[v] != eid:
                    length = dist[u] + d + 1
                    if length < below:
                        return eid, length
    return None


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
    """
    if max_swaps is None:
        max_swaps = 50 * graph.num_edges + 1000
    pairs = [(e.a.node, e.b.node) for e in graph.edges()]
    n = graph.num_nodes
    current = graph
    for _ in range(max_swaps):
        found = _short_cycle_edge(current, min_girth)
        if found is None:
            return current
        bad_eid, _length = found
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
        candidate = PortGraph.from_edge_list(n, pairs)
        current = candidate
    g = girth(current)
    raise RuntimeError(
        f"girth surgery did not reach girth {min_girth} (currently {g}); "
        "the target is likely infeasible at this size"
    )


@register_family(
    "high-girth-cubic",
    description="random cubic graphs lifted to girth >= 6 by edge surgery",
    max_degree=3,
    min_degree=3,
    girth_at_least=6,
    test_sizes=(24, 40),
    # Sampling and girth surgery both consume the seed: no sharing.
    topology_seeded=True,
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
