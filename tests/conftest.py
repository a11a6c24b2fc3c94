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


@pytest.fixture
def cache_builds():
    """``(built, reused, bypassed)`` since the test began: the
    ``instance_cache.core_built``, ``core_reused`` and ``bypassed``
    telemetry counters, one of which each ``InstanceCache`` build counts."""
    from repro.obs import get_telemetry

    telemetry = get_telemetry()
    names = [
        f"instance_cache.{event}" for event in ("core_built", "core_reused", "bypassed")
    ]
    before = telemetry.snapshot()["counters"]

    def delta() -> tuple[int, int, int]:
        now = telemetry.snapshot()["counters"]
        return tuple(now.get(name, 0) - before.get(name, 0) for name in names)

    return delta


# -- the un-amortized trial reference ----------------------------------------


def reference_run(problem: str, solver: str, family: str, n: int, seed: int):
    """One trial with no reuse at all: ``(instance, result, verified)``.

    The family's full builder, a fresh solver object, and the plain
    ``verifier_for`` check on the object backend — never a shared core
    or a kept verifier.  Every amortized path (one
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


def _engine_record(trial, actual_n: int, rounds: int, extras: dict) -> dict:
    """The engine's JSON record of one ``TrialSpec``'s outcome."""
    return {
        "n": trial.n,
        "actual_n": actual_n,
        "seed": trial.seed,
        "rounds": rounds,
        "extras": {
            key: value
            for key, value in extras.items()
            if isinstance(value, (bool, int, float, str))
        },
    }


def reference_record(trial) -> dict:
    """The engine's JSON record for one ``TrialSpec``, via :func:`reference_run`."""
    instance, result, verified = reference_run(
        trial.problem, trial.solver, trial.generator, trial.n, trial.seed
    )
    assert verified, f"reference run of {trial} was rejected"
    return _engine_record(trial, instance.graph.num_nodes, result.rounds, result.extras)


def reference_records(spec) -> list[dict]:
    """:func:`reference_record` over a spec's whole grid, in grid order."""
    return [reference_record(trial) for trial in spec.trials()]


def shard_records(report) -> list[tuple[int, dict]]:
    """A run's records paired with their global grid indices, the slice
    ``shard_trials`` deals to the run's shard (the whole grid at K=1)."""
    from repro.engine.runner import shard_trials

    index, count = report.shard
    chunks = shard_trials(report.spec, index, count, report.batch_size)
    return list(zip([i for chunk in chunks for i in chunk], report.records))


def assembled_records(spec, reports) -> list[dict | None]:
    """The grid's records put together from shard reports by grid index
    (``None`` where no report holds the trial)."""
    records: list[dict | None] = [None] * len(spec.trials())
    for report in reports:
        for i, record in shard_records(report):
            records[i] = record
    return records


def oracle_records(spec) -> list[dict]:
    """A spec's whole grid through ``TrialBatch(kernels="object")``, the
    object oracle, as the engine's JSON records in grid order.

    The engine runs every trial on the platform's backend, so a parity
    test holds an engine run to these."""
    from repro.runtime import TrialBatch

    batch = TrialBatch(
        spec.problem, spec.solver, spec.generator, check_sound=False, kernels="object"
    )
    records = []
    for trial in spec.trials():
        record = batch.run_one(trial.n, trial.seed)
        assert record.verified, f"oracle run of {trial}: {record.rejection}"
        records.append(
            _engine_record(trial, record.actual_n, record.rounds, record.extras)
        )
    return records
