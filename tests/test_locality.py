"""Nothing outside a node's ball changes its output.

ROADMAP item 1's locality audit, its *ids* and *topology*
perturbations.  In the LOCAL model, a T-round algorithm's output at v
is a function of v's radius-T ball.  For every sound registered triple
on every kernel backend this process can run: solve one instance,
sample nodes v, change only what lies outside v's ball, where T is the
trial's rounds, re-solve with a fresh ``NodeRng`` of the same seed, and
compare v's node label, its incident-edge labels and its half-edge
labels.

* *ids*: permute the identifiers among the nodes outside B_{T+1}(v).
* *topology*: double-edge swaps among edges whose endpoints all lie
  beyond distance T+2 of v.  A swap re-pairs the half-edges of two
  edges, so every node keeps its ports and degree, every edge its id,
  and B_{T+2}(v) is untouched; a swap that would make a self-loop or a
  parallel edge is skipped.  Only node-graded families take it: a
  height-graded instance (a gadget, or a padded one) encodes its gadget
  structure in input labels on its edges and half-edges, so a swap
  would make an instance its family never builds, one whose gadgets
  fail their structural check where the edges moved.

The audit is a falsifier, not a proof: it catches only a dependence
that the sampled perturbations happen to move.  The known failures are
strict expected failures, so a fix that lands without removing its
mark fails the suite.  The *bits* perturbation waits for item 2:
``sinkless-rand`` draws its edge coins through ``fork_rng(rng.seed,
...)`` directly, so no ``NodeRng`` built here can re-key them per
owner.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace
from typing import NamedTuple

import pytest

from repro import kernels as kernel_layer
from repro.local import PortGraph
from repro.local.distances import bfs_distances
from repro.local.identifiers import IdAssignment
from repro.runtime import registry
from repro.runtime.driver import dispatch_solver
from repro.util.rng import NodeRng

SEED = 0
#: The size of every node-graded instance; height-graded families run
#: at their smallest test height.
N = 128
#: Nodes sampled per instance.
SAMPLES = 16
#: Double-edge swaps per sampled node, all in one perturbed instance.
SWAPS = 4

TRIPLES = {
    f"{solver.name}@{family.name}": (solver, family)
    for _problem, solver, family in registry.sound_triples()
}
#: The triples the topology half perturbs.
NODE_GRADED = sorted(
    cell for cell, (_solver, family) in TRIPLES.items() if family.size_kind == "nodes"
)
#: Triples whose output moved at some sampled node, on every backend,
#: when each half landed (ROADMAP item 1); each fix removes its mark.
KNOWN_FAILURES = {
    "ids": {
        "sinkless-rand@cubic",
        "sinkless-rand@high-girth-cubic",
        "sinkless-rand@torus",
    },
    "topology": {
        "matching-luby@cubic",
        "matching-luby@cycle",
        "matching-luby@high-girth-cubic",
        "matching-luby@path",
        "matching-luby@torus",
        "sinkless-rand@cubic",
        "sinkless-rand@high-girth-cubic",
    },
}
#: Why each known failure moves.
CAUSES = {
    "ids": "sinkless-rand's output depends on identifiers outside its (T+1)-ball",
    "topology": (
        "the output depends on edges beyond distance T+2: matching-luby draws "
        "every mark from the global stream, and sinkless-rand's fixer shuffles "
        "every search with it"
    ),
}
#: Cells where no sampled node leaves anything to perturb.  For ids,
#: B_{T+1}(v) leaves at most one node outside at every sampled v: the
#: Linial-based solvers (T = 47 to 336 at n = 128) on every family but
#: the long cycles and paths, and the smallest gadget and
#: padded-sinkless heights.  For topology, no sampled node has two
#: edges with both endpoints beyond distance T+2: the same Linial-based
#: cells, and ``sinkless-det`` (T = 6) on the cubic families, whose
#: diameter at n = 128 is 9.
VACUOUS = {
    "ids": {
        "gadget-prover@gadget",
        "linial-4-coloring@cubic",
        "linial-4-coloring@high-girth-cubic",
        "linial-4-coloring@tree",
        "matching-line-coloring@cubic",
        "matching-line-coloring@high-girth-cubic",
        "matching-line-coloring@torus",
        "mis-color-classes@cubic",
        "mis-color-classes@high-girth-cubic",
        "mis-color-classes@torus",
        "mis-color-classes@tree",
        "padded-sinkless-det@padded-sinkless",
    },
    "topology": {
        "linial-4-coloring@cubic",
        "linial-4-coloring@high-girth-cubic",
        "linial-4-coloring@tree",
        "matching-line-coloring@cubic",
        "matching-line-coloring@high-girth-cubic",
        "matching-line-coloring@torus",
        "mis-color-classes@cubic",
        "mis-color-classes@high-girth-cubic",
        "mis-color-classes@torus",
        "mis-color-classes@tree",
        "sinkless-det@cubic",
        "sinkless-det@high-girth-cubic",
    },
}


class Audit(NamedTuple):
    rounds: int
    checked: int
    moved: tuple[int, ...]  # sampled nodes whose labels changed


def _solve(instance, solver, backend):
    rng = None if instance.rng is None else NodeRng(instance.rng.seed)
    with kernel_layer.active(backend):
        return dispatch_solver(solver.factory(), replace(instance, rng=rng))


@functools.lru_cache(maxsize=None)
def _base(cell: str, backend: str):
    """The unperturbed instance of ``cell`` and its solution, shared by
    both halves."""
    solver, family = TRIPLES[cell]
    size = N if family.size_kind == "nodes" else family.test_sizes[0]
    instance = family.builder(size, SEED)
    return instance, _solve(instance, solver, backend)


def _labels_at(graph, outputs, v) -> tuple:
    return (
        outputs.node(v),
        [outputs.edge(eid) for eid in graph.incident_edge_ids(v)],
        [outputs.half_at(v, port) for port in range(graph.degree(v))],
    )


def _permuted_ids(instance, v, rounds, rng):
    """``instance`` with its ids shifted cyclically, in random order,
    among the nodes outside B_{T+1}(v); None when fewer than two lie
    there."""
    graph = instance.graph
    ball = bfs_distances(graph, v, rounds + 1)
    outside = [u for u in graph.nodes() if u not in ball]
    if len(outside) < 2:
        return None
    rng.shuffle(outside)
    ids = instance.ids.as_list()
    shifted = [ids[u] for u in outside[1:] + outside[:1]]
    for u, identifier in zip(outside, shifted):
        ids[u] = identifier
    return replace(instance, ids=IdAssignment(ids))


def _swapped_edges(instance, v, rounds, rng):
    """``instance`` after up to :data:`SWAPS` double-edge swaps among
    the edges with both endpoints beyond distance T+2 of v; None when
    no swap was possible.

    A swap turns edges {a, b} and {c, d} into {a, d} and {c, b}: each
    half-edge keeps its node and port, and each edge its id.
    """
    graph = instance.graph
    ball = bfs_distances(graph, v, rounds + 2)
    sides = [list(graph.edge(eid)[1:]) for eid in range(graph.num_edges)]
    eligible = [
        eid
        for eid, (a, b) in enumerate(sides)
        if a.node not in ball and b.node not in ball
    ]
    if len(eligible) < 2:
        return None
    pairs = {frozenset((a.node, b.node)) for a, b in sides}
    swaps = 0
    for _ in range(10 * SWAPS):
        if swaps == SWAPS:
            break
        e, f = rng.sample(eligible, 2)
        (a, b), (c, d) = sides[e], sides[f]
        new = (frozenset((a.node, d.node)), frozenset((c.node, b.node)))
        if any(len(pair) == 1 or pair in pairs for pair in new) or new[0] == new[1]:
            continue
        pairs -= {frozenset((a.node, b.node)), frozenset((c.node, d.node))}
        pairs |= set(new)
        sides[e], sides[f] = [a, d], [c, b]
        swaps += 1
    if not swaps:
        return None
    return replace(instance, graph=PortGraph(graph.num_nodes, sides))


PERTURBATIONS = {"ids": _permuted_ids, "topology": _swapped_edges}


@functools.lru_cache(maxsize=None)
def audit(cell: str, backend: str, perturbation: str) -> Audit:
    solver, _family = TRIPLES[cell]
    instance, base = _base(cell, backend)
    graph = instance.graph
    rng = random.Random(SEED)
    checked = 0
    moved = []
    for v in rng.sample(range(graph.num_nodes), min(SAMPLES, graph.num_nodes)):
        perturbed = PERTURBATIONS[perturbation](instance, v, base.rounds, rng)
        if perturbed is None:
            continue
        again = _solve(perturbed, solver, backend)
        checked += 1
        if _labels_at(perturbed.graph, again.outputs, v) != _labels_at(
            graph, base.outputs, v
        ):
            moved.append(v)
    return Audit(base.rounds, checked, tuple(moved))


def _cells(perturbation, cells):
    return [
        pytest.param(
            cell,
            backend,
            id=f"{cell}-{backend}",
            marks=[
                pytest.mark.xfail(
                    strict=True, reason=f"ROADMAP item 1: {CAUSES[perturbation]}"
                )
            ]
            if cell in KNOWN_FAILURES[perturbation]
            else [],
        )
        for cell in cells
        for backend in kernel_layer.BACKENDS
    ]


def _assert_unmoved(cell, backend, perturbation, change):
    result = audit(cell, backend, perturbation)
    assert not result.moved, (
        f"{cell} on {backend} (T={result.rounds}): {change} changed the "
        f"labels at v = {list(result.moved)} of {result.checked} checked "
        f"node(s)"
    )


@pytest.mark.parametrize("cell,backend", _cells("ids", sorted(TRIPLES)))
def test_ids_outside_the_ball_leave_the_output_unchanged(cell, backend):
    solver, _family = TRIPLES[cell]
    if solver.randomized or solver.name == "sinkless-det":
        assert audit(cell, backend, "ids").checked > 0, f"{cell} checked no node"
    _assert_unmoved(cell, backend, "ids", "permuting ids outside B_(T+1)(v)")


@pytest.mark.parametrize("cell,backend", _cells("topology", NODE_GRADED))
def test_swaps_outside_the_ball_leave_the_output_unchanged(cell, backend):
    _assert_unmoved(
        cell, backend, "topology", "swapping edges beyond distance T+2 of v"
    )


def _vacuous(perturbation, cells):
    return {
        (cell, backend)
        for cell in cells
        for backend in kernel_layer.BACKENDS
        if audit(cell, backend, perturbation).checked == 0
    }


def _pinned(perturbation):
    return {
        (cell, backend)
        for cell in VACUOUS[perturbation]
        for backend in kernel_layer.BACKENDS
    }


def test_vacuous_cells_are_the_pinned_ones():
    assert _vacuous("ids", TRIPLES) == _pinned("ids")


def test_topology_vacuous_cells_are_the_pinned_ones():
    assert _vacuous("topology", NODE_GRADED) == _pinned("topology")
