"""Builders for sub-gadgets and gadgets (paper Sections 4.1 and 4.3).

A sub-gadget of height ``h`` is a complete binary tree on levels
``0..h-1`` with horizontal edges joining consecutive nodes of each
level (Figure 5); its bottom-right node is the port.  A gadget joins
``Delta`` sub-gadget roots to a fresh center node (Figure 6).

The builder also computes the distance-2 coloring required by the
Section 4.6 node-edge encoding and replicates each node's color onto
its half-edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gadgets.labels import (
    CENTER,
    Down,
    GadgetHalfInput,
    GadgetNodeInput,
    Index,
    LCHILD,
    LEFT,
    NOPORT,
    PARENT,
    Port,
    RCHILD,
    RIGHT,
    UP,
)
from repro.lcl.assignment import Labeling
from repro.local.graphs import PortGraph

__all__ = ["BuiltGadget", "build_gadget", "subgadget_size", "gadget_size"]


def subgadget_size(height: int) -> int:
    """Number of nodes of a height-``height`` sub-gadget."""
    return 2**height - 1


def gadget_size(delta: int, heights: tuple[int, ...] | int) -> int:
    """Number of nodes of a gadget (Delta sub-gadgets plus the center)."""
    if isinstance(heights, int):
        heights = (heights,) * delta
    return sum(subgadget_size(h) for h in heights) + 1


@dataclass
class BuiltGadget:
    """A gadget graph with its input labeling and coordinate book-keeping.

    ``coords[v]`` is ``("center",)`` for the center and
    ``("sub", i, level, x)`` for node ``(level, x)`` of sub-gadget ``i``
    (1-based ``i``).  ``ports[i - 1]`` is the node labeled ``Port_i``.
    """

    delta: int
    heights: tuple[int, ...]
    graph: PortGraph
    inputs: Labeling
    center: int
    ports: list[int]
    coords: dict[int, tuple] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def half_label(self, v: int, port: int):
        return self.inputs.half_at(v, port).label


def _distance2_coloring(graph: PortGraph) -> list[int]:
    """Greedy proper distance-2 coloring (at most Delta^2 + 1 colors)."""
    colors = [-1] * graph.num_nodes
    for v in graph.nodes():
        blocked = set()
        for u in graph.neighbors(v):
            if colors[u] >= 0:
                blocked.add(colors[u])
            for w in graph.neighbors(u):
                if w != v and colors[w] >= 0:
                    blocked.add(colors[w])
        color = 0
        while color in blocked:
            color += 1
        colors[v] = color
    return colors


def build_gadget(delta: int, heights: tuple[int, ...] | int) -> BuiltGadget:
    """Build a labeled gadget with ``delta`` sub-gadgets.

    ``heights`` is a single height for all sub-gadgets or one height per
    sub-gadget; every height must be at least 2 (a height-1 sub-gadget
    cannot satisfy both the root constraint 3e and the port constraint
    3h of Section 4.2).
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if isinstance(heights, int):
        heights = (heights,) * delta
    heights = tuple(heights)
    if len(heights) != delta:
        raise ValueError(f"need {delta} heights, got {len(heights)}")
    if any(h < 2 for h in heights):
        raise ValueError("sub-gadget heights must be at least 2")

    coords: dict[int, tuple] = {}
    node_of: dict[tuple, int] = {}

    # Allocate nodes: all sub-gadgets first, center last.
    for i, h in enumerate(heights, start=1):
        for level in range(h):
            for x in range(2**level):
                node_of[(i, level, x)] = len(coords)
                coords[len(coords)] = ("sub", i, level, x)
    center = len(coords)
    coords[center] = ("center",)
    num_nodes = center + 1

    # Edges with endpoint labels, in edge-id order.
    pending: list[tuple[int, int, object, object]] = []  # u, v, label_u, label_v
    for i, h in enumerate(heights, start=1):
        for level in range(1, h):
            for x in range(2**level):
                child = node_of[(i, level, x)]
                parent = node_of[(i, level - 1, x // 2)]
                parent_side = LCHILD if x % 2 == 0 else RCHILD
                pending.append((child, parent, PARENT, parent_side))
        for level in range(h):
            for x in range(2**level - 1):
                left = node_of[(i, level, x)]
                right = node_of[(i, level, x + 1)]
                pending.append((left, right, RIGHT, LEFT))
        root = node_of[(i, 0, 0)]
        pending.append((root, center, UP, Down(i)))

    # Ports are numbered in edge order, so each endpoint label lands on
    # the next free slot of its node.
    graph = PortGraph.from_edge_list(num_nodes, [(u, v) for u, v, _, _ in pending])
    off = graph.csr()[0]
    next_slot = off[:-1].tolist()
    end_labels: list[object] = [None] * (2 * graph.num_edges)
    for u, v, label_u, label_v in pending:
        end_labels[next_slot[u]] = label_u
        end_labels[next_slot[v]] = label_v
        next_slot[u] += 1
        next_slot[v] += 1
    colors = _distance2_coloring(graph)

    # Labels repeat massively (a role, a port tag and a color each), so
    # equal labels are one shared object.
    shared: dict[tuple, object] = {}

    def label_of(kind, *fields):
        key = (kind, *fields)
        label = shared.get(key)
        if label is None:
            label = shared[key] = kind(*fields)
        return label

    ports: list[int] = [0] * delta
    node_labels = []
    for v in range(num_nodes):
        coord = coords[v]
        if coord[0] == "center":
            role = CENTER
            port_tag = NOPORT
        else:
            _, i, level, x = coord
            role = Index(i)
            h = heights[i - 1]
            if level == h - 1 and x == 2**level - 1:
                port_tag = Port(i)
                ports[i - 1] = v
            else:
                port_tag = NOPORT
        node_labels.append(label_of(GadgetNodeInput, role, port_tag, colors[v]))
    half_labels = [
        label_of(GadgetHalfInput, end_labels[slot], colors[v])
        for v in range(num_nodes)
        for slot in range(off[v], off[v + 1])
    ]
    inputs = Labeling(graph).set_node_labels(node_labels).set_slot_labels(half_labels)

    return BuiltGadget(
        delta=delta,
        heights=heights,
        graph=graph,
        inputs=inputs,
        center=center,
        ports=ports,
        coords=coords,
    )
