"""Distance, component, and cycle computations on :class:`PortGraph`.

These are the centralized counterparts of what LOCAL-model nodes do by
exploring their neighborhoods; solvers use them both to produce outputs
and to *account* for the view radius a distributed node would have
needed (see DESIGN.md, "Rounds are measured, not asserted").
"""

from __future__ import annotations

from typing import Iterable

from repro.local.graphs import PortGraph

__all__ = [
    "bfs_distances",
    "multi_source_bfs",
    "connected_components",
    "eccentricity",
    "diameter",
    "girth",
    "cycle_containment_radius",
    "induced_subgraph",
]


def bfs_distances(
    graph: PortGraph, source: int, max_radius: int | None = None
) -> dict[int, int]:
    """Map every node within ``max_radius`` of ``source`` to its distance."""
    off, nbr, _, _ = graph.csr()
    dist = {source: 0}
    queue = [source]
    for v in queue:  # appending while iterating keeps FIFO order
        d = dist[v]
        if max_radius is not None and d >= max_radius:
            continue
        for u in nbr[off[v] : off[v + 1]]:
            if u not in dist:
                dist[u] = d + 1
                queue.append(u)
    return dist


def multi_source_bfs(
    graph: PortGraph, sources: Iterable[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Multi-source BFS.

    Returns ``(dist, parent_edge)`` where ``parent_edge[v]`` is the edge id
    leading one step closer to the source set (absent for sources and
    unreachable nodes).  Parents are chosen deterministically: the
    smallest-eid tie-break, which makes the forest a pure function of the
    graph and source order.
    """
    off, nbr, _, eids = graph.csr()
    dist: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    queue: list[int] = []
    for s in sources:
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    for v in queue:
        d = dist[v]
        for slot in range(off[v], off[v + 1]):
            u = nbr[slot]
            if u not in dist:
                dist[u] = d + 1
                parent_edge[u] = eids[slot]
                queue.append(u)
    return dist, parent_edge


def connected_components(graph: PortGraph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by minimum node."""
    off, nbr, _, _ = graph.csr()
    seen = [False] * graph.num_nodes
    components = []
    for start in graph.nodes():
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # comp doubles as the BFS queue
            for u in nbr[off[v] : off[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        components.append(sorted(comp))
    return components


def eccentricity(graph: PortGraph, v: int) -> int:
    """Maximum distance from ``v`` within its component."""
    dist = bfs_distances(graph, v)
    return max(dist.values())


def diameter(graph: PortGraph) -> int:
    """Maximum eccentricity over all nodes (per component; max of them)."""
    best = 0
    for v in graph.nodes():
        best = max(best, eccentricity(graph, v))
    return best


def girth(graph: PortGraph) -> int | None:
    """Length of the shortest cycle, or ``None`` for forests.

    Self-loops count as cycles of length 1 and parallel edge pairs as
    cycles of length 2, matching the multigraph conventions of the paper.
    """
    if graph.has_self_loop():
        return 1
    if graph.has_parallel_edges():
        return 2
    off, nbr, _, eids = graph.csr()
    best: int | None = None
    for source in graph.nodes():
        # BFS from source; first cross edge yields a cycle through source's
        # BFS tree of length dist[u] + dist[v] + 1 (a standard upper bound
        # that is tight when minimized over all sources).
        dist = {source: 0}
        parent = {source: -1}
        queue = [source]
        for v in queue:
            d = dist[v]
            if best is not None and d * 2 >= best:
                continue
            for slot in range(off[v], off[v + 1]):
                u = nbr[slot]
                eid = eids[slot]
                if u not in dist:
                    dist[u] = d + 1
                    parent[u] = eid
                    queue.append(u)
                elif parent[v] != eid:
                    length = dist[u] + d + 1
                    if best is None or length < best:
                        best = length
    return best


def cycle_containment_radius(
    graph: PortGraph, v: int, max_radius: int | None = None
) -> int | None:
    """The smallest ``r`` such that ``v``'s radius-``r`` ball contains a
    full cycle.

    This is the quantity ``h(v)`` used by the deterministic sinkless
    orientation solver: a node exploring radius ``r`` can certify a cycle
    as soon as one is fully contained in its view.  Equivalently it is
    the BFS depth at which the first non-tree edge with both endpoints
    discovered appears.  Returns ``None`` if no cycle exists within
    ``max_radius`` (or at all).
    """
    # A self-loop or parallel pair at distance d is found at radius d (+1).
    off, nbr, _, eids = graph.csr()
    dist = {v: 0}
    parent = {v: -1}
    queue = [v]
    for x in queue:
        d = dist[x]
        if max_radius is not None and d > max_radius:
            return None
        for slot in range(off[x], off[x + 1]):
            u = nbr[slot]
            eid = eids[slot]
            if u == x:  # self-loop: cycle within radius d
                return d
            if u not in dist:
                dist[u] = d + 1
                parent[u] = eid
                queue.append(u)
            elif parent[x] != eid:
                # Non-tree edge between x (depth d) and u (depth dist[u]):
                # the cycle through the two BFS branches is contained in
                # the ball of radius max(d, dist[u]).
                radius = max(d, dist[u])
                if max_radius is None or radius <= max_radius:
                    return radius
                return None
    return None


def induced_subgraph(
    graph: PortGraph, nodes: Iterable[int]
) -> tuple[PortGraph, dict[int, int]]:
    """The subgraph induced by ``nodes``.

    Returns ``(subgraph, mapping)`` with ``mapping[original] = local``.
    Surviving edges keep their relative port order per node, so local
    views preserve the port structure of the original graph.
    """
    from repro.local.graphs import HalfEdge

    keep = sorted(set(nodes))
    mapping = {v: i for i, v in enumerate(keep)}
    keep_set = set(keep)
    # Assign new ports per node in original port order.  Plain (v, port)
    # tuples hash and compare equal to HalfEdge, so the flat scan and the
    # edge-object loop below share one dict.
    off, nbr, _, _ = graph.csr()
    new_port: dict[tuple[int, int], int] = {}
    for v in keep:
        next_p = 0
        base = off[v]
        for port, u in enumerate(nbr[base : off[v + 1]]):
            if u in keep_set:
                new_port[(v, port)] = next_p
                next_p += 1
    edges = []
    for edge in graph.edges():
        if edge.a.node in keep_set and edge.b.node in keep_set:
            a = HalfEdge(mapping[edge.a.node], new_port[edge.a])
            b = HalfEdge(mapping[edge.b.node], new_port[edge.b])
            edges.append((a, b))
    return PortGraph(len(keep), edges), mapping
