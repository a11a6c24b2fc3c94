"""E3 — Theorem 1 / Lemma 4: the multiplicative padding overhead.

The padded solver's measured rounds should track
``base rounds x gadget depth``: padding multiplies the base problem's
complexity by Theta(d(n)).  This bench measures the product structure
directly across gadget heights — the height series is one declarative
``repro.engine`` spec whose trial records carry both factors — and
runs the Lemma 5 reduction once to confirm the transfer direction.
"""

from __future__ import annotations

import random

from benchmarks.conftest import report
from repro.analysis import render_table
from repro.core import PaddedProblem, PaddedSolver, simulate_padded_algorithm
from repro.engine import ExperimentSpec, run_experiment
from repro.core.family import padded_sinkless_instance
from repro.gadgets import LogGadgetFamily
from repro.generators import random_regular
from repro.local import Instance
from repro.problems import DeterministicSinklessSolver, SinklessOrientation

FAMILY = LogGadgetFamily(3)
PROBLEM = PaddedProblem(SinklessOrientation().problem(), FAMILY)

HEIGHTS = (2, 3, 4, 5, 6, 7)

SPEC = ExperimentSpec(
    name="padding/multiplicative-overhead",
    problem="padded-sinkless",
    solver="padded-sinkless-det",
    generator="padded-sinkless",
    ns=HEIGHTS,
    seeds=(0,),
)


def test_multiplicative_overhead(benchmark):
    engine_report = run_experiment(SPEC, workers=4)
    rows = []
    overheads = []
    for height, record in zip(HEIGHTS, engine_report.records):
        base_rounds = record["extras"]["base_rounds"]
        depth = 2 * height
        overhead = record["rounds"] / max(base_rounds, 1)
        overheads.append((depth, overhead))
        rows.append(
            [
                record["actual_n"],
                height,
                depth,
                base_rounds,
                record["rounds"],
                round(overhead, 2),
            ]
        )
    report(
        render_table(
            ["padded n", "height h", "port dist 2h", "base rounds", "Pi' rounds", "overhead"],
            rows,
            title=(
                "E3  Theorem 1: padding multiplies complexity by the gadget "
                "depth Theta(d(n))"
            ),
        )
    )
    # the overhead factor must grow ~linearly with the depth
    (d0, o0), (d1, o1) = overheads[0], overheads[-1]
    assert o1 > o0
    assert 0.3 * (d1 / d0) <= o1 / o0 <= 3.0 * (d1 / d0)

    solver = PaddedSolver(PROBLEM, DeterministicSinklessSolver())
    instance = padded_sinkless_instance(4, 0)
    benchmark(lambda: solver.solve(instance))


def test_lemma5_reduction_transfer(benchmark):
    base_graph = random_regular(16, 3, random.Random(4))
    base_instance = Instance.simple(base_graph, seed=1)
    solver = PaddedSolver(PROBLEM, DeterministicSinklessSolver())
    base_result, padded_result = benchmark.pedantic(
        lambda: simulate_padded_algorithm(
            PROBLEM, solver, FAMILY, base_instance, target_n=4096
        ),
        rounds=1,
        iterations=1,
    )
    report(
        render_table(
            ["quantity", "value"],
            [
                ["base graph n", base_graph.num_nodes],
                ["padded n", 4096],
                ["padded rounds", padded_result.rounds],
                ["gadget depth", base_result.extras["depth"]],
                ["induced base rounds", base_result.rounds],
            ],
            title=(
                "E3  Lemma 5 reduction: a Pi' algorithm induces a Pi "
                "algorithm at rounds/depth"
            ),
        )
    )
    assert base_result.rounds <= padded_result.rounds
