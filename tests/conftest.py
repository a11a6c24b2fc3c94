"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.generators import cycle, random_regular
from repro.local import GraphBuilder, PortGraph


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_cycle() -> PortGraph:
    return cycle(8)


@pytest.fixture
def cubic_graph(rng) -> PortGraph:
    return random_regular(64, 3, rng)


def build_multigraph(num_nodes: int, edge_plan: list[tuple[int, int]]) -> PortGraph:
    """Build a graph from (u, v) pairs allowing loops and parallels."""
    builder = GraphBuilder(num_nodes)
    for u, v in edge_plan:
        builder.add_edge(u, v)
    return builder.build()


@st.composite
def edge_plans(draw, max_nodes: int = 12, max_edges: int = 24):
    """Random ``(num_nodes, (u, v) pairs)`` with loops and parallels."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    return n, pairs


@st.composite
def multigraphs(draw, max_nodes: int = 12, max_edges: int = 24):
    """Random multigraphs (loops and parallel edges allowed)."""
    return build_multigraph(*draw(edge_plans(max_nodes, max_edges)))


@st.composite
def simple_graphs(draw, max_nodes: int = 12):
    """Random simple graphs via edge subsets of K_n."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    return PortGraph.from_edge_list(n, chosen)


# -- the un-amortized trial reference ----------------------------------------


def reference_run(problem: str, solver: str, family: str, n: int, seed: int):
    """One trial with no reuse at all: ``(instance, result, verified)``.

    The family's full builder, a fresh solver object, and the plain
    ``verifier_for`` check on the object backend — never a shared core
    or a prepared verifier skeleton.  Every amortized path (one
    ``TrialBatch`` over a grid, chunked, sharded, and merged engine
    runs) is held to what this produces.
    """
    from repro.runtime import registry
    from repro.runtime.driver import dispatch_solver, verifier_for

    instance = registry.family(family).builder(n, seed)
    result = dispatch_solver(registry.solver(solver).factory(), instance)
    try:
        verifier_for(registry.problem(problem))(instance, result)
    except AssertionError:
        return instance, result, False
    return instance, result, True


def reference_record(trial) -> dict:
    """The engine's JSON record for one ``TrialSpec``, via :func:`reference_run`."""
    instance, result, verified = reference_run(
        trial.problem, trial.solver, trial.generator, trial.n, trial.seed
    )
    assert verified, f"reference run of {trial} was rejected"
    return {
        "n": trial.n,
        "actual_n": instance.graph.num_nodes,
        "seed": trial.seed,
        "rounds": result.rounds,
        "extras": {
            key: value
            for key, value in result.extras.items()
            if isinstance(value, (bool, int, float, str))
        },
    }


def reference_records(spec) -> list[dict]:
    """:func:`reference_record` over a spec's whole grid, in grid order."""
    return [reference_record(trial) for trial in spec.trials()]
