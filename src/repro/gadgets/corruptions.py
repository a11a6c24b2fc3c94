"""Invalid-gadget generators: one targeted corruption per constraint class.

Each corruption takes a valid :class:`BuiltGadget` and returns a new
``(graph, inputs, description)`` triple that violates at least one
Section 4.2/4.3 constraint.  The tests assert that the checker flags
every corruption and that the prover V still produces a Psi-consistent
proof of error on it (Lemma 10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.gadgets.build import BuiltGadget
from repro.gadgets.labels import (
    Down,
    GadgetHalfInput,
    GadgetNodeInput,
    Index,
    LCHILD,
    NOPORT,
    PARENT,
    Port,
    RCHILD,
    RIGHT,
)
from repro.lcl.assignment import Labeling
from repro.local.graphs import HalfEdge, PortGraph

__all__ = ["Corruption", "CORRUPTIONS", "corrupt", "all_corruptions"]


@dataclass
class Corruption:
    name: str
    description: str
    graph: PortGraph
    inputs: Labeling


def _interior_node(built: BuiltGadget) -> int:
    """A node with both children and both horizontal neighbors."""
    for v, coord in built.coords.items():
        if coord[0] != "sub":
            continue
        _, _i, level, x = coord
        h = built.heights[_i - 1]
        if 0 < level < h - 1 and 0 < x < 2**level - 1:
            return v
    # fall back to any non-root internal node (small gadgets)
    for v, coord in built.coords.items():
        if coord[0] == "sub" and 0 < coord[2] < built.heights[coord[1] - 1] - 1:
            return v
    raise ValueError("gadget too small to have an interior node")


def _with_node_input(built: BuiltGadget, v: int, new_input: GadgetNodeInput, name: str, why: str) -> Corruption:
    inputs = built.inputs.copy()
    inputs.set_node(v, new_input)
    return Corruption(name, why, built.graph, inputs)


def corrupt_index(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Give one node the wrong sub-gadget index (violates 1c)."""
    v = _interior_node(built)
    old = built.inputs.node(v)
    wrong = old.role.i % built.delta + 1 if built.delta > 1 else old.role.i + 1
    return _with_node_input(
        built, v, GadgetNodeInput(Index(wrong), old.port, old.color),
        "wrong-index", f"node {v} claims Index_{wrong}",
    )


def corrupt_fake_port(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Tag a non-corner node as a port (violates 3h)."""
    v = _interior_node(built)
    old = built.inputs.node(v)
    return _with_node_input(
        built, v, GadgetNodeInput(old.role, Port(old.role.i), old.color),
        "fake-port", f"interior node {v} claims to be a port",
    )


def corrupt_missing_port(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Remove a port tag from the corner (violates 3h)."""
    v = built.ports[0]
    old = built.inputs.node(v)
    return _with_node_input(
        built, v, GadgetNodeInput(old.role, NOPORT, old.color),
        "missing-port", f"corner node {v} lost its port tag",
    )


def corrupt_color(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Copy a neighbor's color (violates the 1a distance-2 coloring)."""
    v = _interior_node(built)
    neighbor = next(iter(built.graph.neighbors(v)))
    old = built.inputs.node(v)
    stolen = built.inputs.node(neighbor).color
    inputs = built.inputs.copy()
    inputs.set_node(v, GadgetNodeInput(old.role, old.port, stolen))
    for port in range(built.graph.degree(v)):
        half = built.inputs.half_at(v, port)
        inputs.set_half(HalfEdge(v, port), GadgetHalfInput(half.label, stolen))
    return Corruption("color-clash", f"node {v} copies a neighbor color", built.graph, inputs)


def corrupt_color_replication(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Break the half-edge color replication (Section 4.6 device)."""
    v = _interior_node(built)
    inputs = built.inputs.copy()
    half = built.inputs.half_at(v, 0)
    inputs.set_half(HalfEdge(v, 0), GadgetHalfInput(half.label, half.color + 1))
    return Corruption(
        "color-replication", f"node {v} half-edge color off by one", built.graph, inputs
    )


def corrupt_endpoint_label(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Relabel a Parent endpoint as LChild (violates 2b)."""
    v = _interior_node(built)
    inputs = built.inputs.copy()
    for port in range(built.graph.degree(v)):
        half = built.inputs.half_at(v, port)
        if half.label == PARENT:
            inputs.set_half(HalfEdge(v, port), GadgetHalfInput(LCHILD, half.color))
            break
    return Corruption(
        "parent-as-child", f"node {v} relabels its Parent edge", built.graph, inputs
    )


def corrupt_swap_children(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Swap the LChild/RChild labels at one node (violates 2c/3c/3d)."""
    v = _interior_node(built)
    inputs = built.inputs.copy()
    for port in range(built.graph.degree(v)):
        half = built.inputs.half_at(v, port)
        if half.label == LCHILD:
            inputs.set_half(HalfEdge(v, port), GadgetHalfInput(RCHILD, half.color))
        elif half.label == RCHILD:
            inputs.set_half(HalfEdge(v, port), GadgetHalfInput(LCHILD, half.color))
    return Corruption(
        "swapped-children", f"node {v} swaps its child labels", built.graph, inputs
    )


def _rebuild_without_edge(built: BuiltGadget, drop_eid: int) -> tuple[PortGraph, Labeling]:
    """Remove one edge, keeping surviving ports contiguous per node."""
    old = built.graph
    new_port: dict[HalfEdge, int] = {}
    counters = [0] * old.num_nodes
    for v in old.nodes():
        for port in range(old.degree(v)):
            if old.edge_id_at(v, port) == drop_eid:
                continue
            new_port[HalfEdge(v, port)] = counters[v]
            counters[v] += 1
    edges = []
    for edge in old.edges():
        if edge.eid == drop_eid:
            continue
        edges.append(
            (
                HalfEdge(edge.a.node, new_port[edge.a]),
                HalfEdge(edge.b.node, new_port[edge.b]),
            )
        )
    graph = PortGraph(old.num_nodes, edges)
    inputs = Labeling(graph)
    for v in graph.nodes():
        inputs.set_node(v, built.inputs.node(v))
    for side, port in new_port.items():
        inputs.set_half(HalfEdge(side.node, port), built.inputs.half_at(side.node, side.port))
    return graph, inputs


def corrupt_drop_horizontal(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Delete a horizontal edge (violates 3a/3b at the break)."""
    v = _interior_node(built)
    for port in range(built.graph.degree(v)):
        if built.inputs.half_at(v, port).label == RIGHT:
            eid = built.graph.edge_id_at(v, port)
            graph, inputs = _rebuild_without_edge(built, eid)
            return Corruption(
                "dropped-horizontal", f"level edge at node {v} removed", graph, inputs
            )
    raise AssertionError("interior node must have a Right edge")


def corrupt_detach_center(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Delete one Down edge (violates c2a at the center, c1 at the root)."""
    center = built.center
    eid = built.graph.edge_id_at(center, 0)
    graph, inputs = _rebuild_without_edge(built, eid)
    return Corruption(
        "detached-subgadget", "one Down edge removed from the center", graph, inputs
    )


def corrupt_extra_center_edge(built: BuiltGadget, rng: random.Random) -> Corruption:
    """Duplicate a Down edge index onto a second root (violates c2d/1b)."""
    if built.delta < 2:
        raise ValueError("needs delta >= 2")
    center = built.center
    inputs = built.inputs.copy()
    half = built.inputs.half_at(center, 1)
    inputs.set_half(HalfEdge(center, 1), GadgetHalfInput(Down(1), half.color))
    return Corruption(
        "duplicate-down", "center labels two edges Down_1", built.graph, inputs
    )


CORRUPTIONS: dict[str, Callable[[BuiltGadget, random.Random], Corruption]] = {
    "wrong-index": corrupt_index,
    "fake-port": corrupt_fake_port,
    "missing-port": corrupt_missing_port,
    "color-clash": corrupt_color,
    "color-replication": corrupt_color_replication,
    "parent-as-child": corrupt_endpoint_label,
    "swapped-children": corrupt_swap_children,
    "dropped-horizontal": corrupt_drop_horizontal,
    "detached-subgadget": corrupt_detach_center,
    "duplicate-down": corrupt_extra_center_edge,
}


def corrupt(built: BuiltGadget, name: str, rng: random.Random | None = None) -> Corruption:
    return CORRUPTIONS[name](built, rng or random.Random(0))


def all_corruptions(built: BuiltGadget, rng: random.Random | None = None) -> list[Corruption]:
    rng = rng or random.Random(0)
    out = []
    for name, factory in CORRUPTIONS.items():
        if name == "duplicate-down" and built.delta < 2:
            continue
        out.append(factory(built, rng))
    return out
