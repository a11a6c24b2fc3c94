"""Classic graph families: cycles, paths, trees, grids, and friends.

The ``*_instance`` builders at the bottom wrap the raw graph
constructors into registered runtime families — random identifiers,
a per-trial ``NodeRng``, deterministic in ``(n, seed)``.
"""

from __future__ import annotations

import math
import random

from repro.local.builder import GraphBuilder
from repro.local.graphs import PortGraph
from repro.runtime.registry import register_family

__all__ = [
    "cycle",
    "path",
    "complete",
    "star",
    "complete_binary_tree",
    "torus_grid",
    "disjoint_union",
    "cycle_instance",
    "path_instance",
    "torus_instance",
    "tree_instance",
]


def cycle(n: int) -> PortGraph:
    """The n-cycle; n = 1 is a self-loop, n = 2 a parallel pair."""
    if n < 1:
        raise ValueError("cycle needs at least one node")
    builder = GraphBuilder(n)
    for v in range(n):
        builder.add_edge(v, (v + 1) % n)
    return builder.build()


def path(n: int) -> PortGraph:
    """The n-node path."""
    if n < 1:
        raise ValueError("path needs at least one node")
    return PortGraph.from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def complete(n: int) -> PortGraph:
    """The complete graph K_n."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return PortGraph.from_edge_list(n, pairs)


def star(leaves: int) -> PortGraph:
    """A star with the given number of leaves; node 0 is the center."""
    return PortGraph.from_edge_list(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complete_binary_tree(height: int) -> PortGraph:
    """A complete binary tree with ``height`` levels (2**height - 1 nodes)."""
    if height < 1:
        raise ValueError("height must be at least 1")
    n = 2**height - 1
    pairs = []
    for v in range(1, n):
        pairs.append(((v - 1) // 2, v))
    return PortGraph.from_edge_list(n, pairs)


def torus_grid(rows: int, cols: int) -> PortGraph:
    """A toroidal grid (4-regular when rows, cols >= 3)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")

    def at(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if cols > 1:
                pairs.append((at(r, c), at(r, c + 1)))
            if rows > 1:
                pairs.append((at(r, c), at(r + 1, c)))
    return PortGraph.from_edge_list(rows * cols, pairs)


def disjoint_union(*graphs: PortGraph) -> PortGraph:
    """The disjoint union, preserving each part's port structure."""
    from repro.local.graphs import HalfEdge

    total = sum(g.num_nodes for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        for edge in g.edges():
            a = HalfEdge(edge.a.node + offset, edge.a.port)
            b = HalfEdge(edge.b.node + offset, edge.b.port)
            edges.append((a, b))
        offset += g.num_nodes
    return PortGraph(total, edges)


# -- registered instance families --------------------------------------
#
# Every classic family's graph depends on ``n`` alone; the seed only
# selects identifiers and the per-node randomness.  Each registration
# therefore splits the builder into the frozen ``topology`` (shared
# across seeds by batched drivers) and the cheap per-seed ``_instance``
# dressing.


def _instance(graph: PortGraph, n: int, seed: int):
    """Random-id instance with a seeded rng, deterministic in (n, seed)."""
    from repro.local import Instance
    from repro.local.identifiers import random_ids
    from repro.util.rng import NodeRng

    rng = random.Random(seed * 7919 + n)
    return Instance(
        graph, random_ids(graph.num_nodes, rng), None, None, NodeRng(seed)
    )


def _torus_topology(n: int) -> PortGraph:
    side = max(3, math.isqrt(max(n, 1)))
    return torus_grid(side, side)


def _tree_topology(n: int) -> PortGraph:
    height = max(1, (max(n, 1) + 1).bit_length() - 1)
    return complete_binary_tree(height)


@register_family(
    "cycle",
    description="the n-cycle with random identifiers",
    max_degree=2,
    min_degree=2,
    test_sizes=(5, 12),
    topology=cycle,
    dress=_instance,
)
def cycle_instance(n: int, seed: int):
    """A cycle with random identifiers (trivial / coloring rows)."""
    return _instance(cycle(n), n, seed)


@register_family(
    "path",
    description="the n-node path with random identifiers",
    max_degree=2,
    min_degree=1,
    test_sizes=(6, 13),
    topology=path,
    dress=_instance,
)
def path_instance(n: int, seed: int):
    """A path with random identifiers."""
    return _instance(path(n), n, seed)


@register_family(
    "torus",
    description="a ~sqrt(n) x sqrt(n) toroidal grid (4-regular)",
    max_degree=4,
    min_degree=4,
    test_sizes=(9, 25),
    topology=_torus_topology,
    dress=_instance,
)
def torus_instance(n: int, seed: int):
    """A near-square torus grid of roughly n nodes."""
    return _instance(_torus_topology(n), n, seed)


@register_family(
    "tree",
    description="the complete binary tree with ~n nodes",
    max_degree=3,
    min_degree=1,
    test_sizes=(7, 15),
    topology=_tree_topology,
    dress=_instance,
)
def tree_instance(n: int, seed: int):
    """The complete binary tree whose size is the largest 2^h - 1 <= n."""
    return _instance(_tree_topology(n), n, seed)
