"""Identifiers outside a node's (T+1)-ball do not change its output.

ROADMAP item 1's locality audit, its *ids* perturbation.  In the LOCAL
model, a T-round algorithm's output at v is a function of v's radius-T
ball.  For every sound registered triple on both kernel backends: solve
one instance, sample nodes v, permute the identifiers among the nodes
outside B_{T+1}(v), where T is the trial's rounds, re-solve with a
fresh ``NodeRng`` of the same seed, and compare v's node label, its
incident-edge labels and its half-edge labels.  The audit is a
falsifier, not a proof: it catches only a dependence that the sampled
permutations happen to move.

The known failures are strict expected failures, so a fix that lands
without removing its mark fails the suite.  The *bits* and *topology*
perturbations wait for item 1's fixes: ``sinkless-rand`` draws its edge
coins through ``fork_rng(rng.seed, ...)`` directly, so no ``NodeRng``
built here can re-key them per owner until item 2 lands.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace
from typing import NamedTuple

import pytest

from repro import kernels as kernel_layer
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
#: The concrete backends a trial can run on here (one without numpy).
BACKENDS = sorted({"object", kernel_layer.select_backend("auto")})

TRIPLES = {
    f"{solver.name}@{family.name}": (solver, family)
    for _problem, solver, family in registry.sound_triples()
}
#: Triples whose output moved at some sampled node, on both backends,
#: when the audit landed (ROADMAP item 1); each fix removes its mark.
KNOWN_FAILURES = {
    "sinkless-rand@cubic",
    "sinkless-rand@high-girth-cubic",
    "sinkless-rand@torus",
}
#: Cells where B_{T+1}(v) leaves at most one node outside at every
#: sampled v, so no permutation is possible: the Linial-based solvers
#: (T = 47 to 336 at n = 128) on every family but the long cycles and
#: paths, and the smallest gadget and padded-sinkless heights.
VACUOUS = {
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
}


class Audit(NamedTuple):
    rounds: int
    checked: int
    moved: tuple[int, ...]  # sampled nodes whose labels changed


def _solve(instance, solver, backend, ids):
    rng = None if instance.rng is None else NodeRng(instance.rng.seed)
    trial = replace(instance, ids=ids, rng=rng)
    with kernel_layer.active(backend):
        return dispatch_solver(solver.factory(), trial)


def _labels_at(graph, outputs, v) -> tuple:
    return (
        outputs.node(v),
        [outputs.edge(eid) for eid in graph.incident_edge_ids(v)],
        [outputs.half_at(v, port) for port in range(graph.degree(v))],
    )


@functools.lru_cache(maxsize=None)
def audit(cell: str, backend: str) -> Audit:
    solver, family = TRIPLES[cell]
    size = N if family.size_kind == "nodes" else family.test_sizes[0]
    instance = family.builder(size, SEED)
    graph = instance.graph
    base = _solve(instance, solver, backend, instance.ids)
    rng = random.Random(SEED)
    checked = 0
    moved = []
    for v in rng.sample(range(graph.num_nodes), min(SAMPLES, graph.num_nodes)):
        ball = bfs_distances(graph, v, base.rounds + 1)
        outside = [u for u in graph.nodes() if u not in ball]
        if len(outside) < 2:
            continue
        # A random cyclic shift: every node outside gets another's id.
        rng.shuffle(outside)
        ids = instance.ids.as_list()
        shifted = [ids[u] for u in outside[1:] + outside[:1]]
        for u, identifier in zip(outside, shifted):
            ids[u] = identifier
        again = _solve(instance, solver, backend, IdAssignment(ids))
        checked += 1
        if _labels_at(graph, again.outputs, v) != _labels_at(graph, base.outputs, v):
            moved.append(v)
    return Audit(base.rounds, checked, tuple(moved))


CELLS = [
    pytest.param(
        cell,
        backend,
        id=f"{cell}-{backend}",
        marks=[
            pytest.mark.xfail(
                strict=True,
                reason=(
                    "ROADMAP item 1: sinkless-rand's output depends on "
                    "identifiers outside its (T+1)-ball"
                ),
            )
        ]
        if cell in KNOWN_FAILURES
        else [],
    )
    for cell in sorted(TRIPLES)
    for backend in BACKENDS
]


@pytest.mark.parametrize("cell,backend", CELLS)
def test_ids_outside_the_ball_leave_the_output_unchanged(cell, backend):
    solver, _family = TRIPLES[cell]
    result = audit(cell, backend)
    if solver.randomized or solver.name == "sinkless-det":
        assert result.checked > 0, f"{cell} checked no node"
    assert not result.moved, (
        f"{cell} on {backend} (T={result.rounds}): permuting ids outside "
        f"B_(T+1)(v) changed the labels at v = {list(result.moved)} of "
        f"{result.checked} checked node(s)"
    )


def test_vacuous_cells_are_the_pinned_ones():
    vacuous = {
        (cell, backend)
        for cell in TRIPLES
        for backend in BACKENDS
        if audit(cell, backend).checked == 0
    }
    assert vacuous == {(cell, backend) for cell in VACUOUS for backend in BACKENDS}
