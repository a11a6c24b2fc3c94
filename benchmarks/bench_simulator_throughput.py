"""E13 — substrate microbenchmarks and the batched-engine speedup gate.

The original microbenchmarks time the LOCAL-model machinery itself
(view gathering, BFS, the object round loop, the verifier).  PR 10
adds the tentpole gate: node programs run with an
:class:`repro.local.simulator.ArrayProgram` twin must run >= 3x faster
through :func:`repro.kernels.engine.run_array_program` than through
the per-node object loop at n >= 8192, with bit-identical engine
results.  The flooding probes are test fixtures
(``tests/flood_programs.py``).  Everything machine-readable lands in
``benchmarks/BENCH_simulator.json`` via the shared ``report_json``
hook.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import report, report_json
from repro import kernels
from repro.analysis import render_table
from repro.generators import cubic_instance, cycle, random_regular
from repro.lcl import Labeling, verify
from repro.local import Instance, SyncEngine, ViewOracle, bfs_distances
from repro.local.identifiers import sequential_ids
from repro.problems import SinklessOrientation, DeterministicSinklessSolver
from repro.problems.coloring import LinialColoringSolver
from tests.flood_programs import FloodNode, MinFloodProgram, MinIdFloodNode

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: The acceptance bar binds at n >= 8192; quick mode shrinks repeats,
#: not the instance — at this size the batched-vs-object ratio is
#: stable even on a noisy runner because both sides run back-to-back
#: in-process.
N = 8192
REPEATS = 2 if QUICK else 4
THRESHOLD = 3.0


def test_view_gathering(benchmark):
    graph = random_regular(2048, 3, random.Random(0))

    def gather():
        oracle = ViewOracle(graph)
        for v in range(0, 2048, 64):
            oracle.view(v, 8)
        return oracle.rounds()

    assert benchmark(gather) == 8


def test_bfs_full_graph(benchmark):
    graph = random_regular(4096, 3, random.Random(1))
    result = benchmark(lambda: bfs_distances(graph, 0))
    assert len(result) == 4096


def test_message_engine_flood(benchmark):
    graph = cycle(512)
    instance = Instance(graph, sequential_ids(512))

    def flood():
        return SyncEngine(instance, FloodNode).run().rounds

    assert benchmark(flood) == 256


def test_verifier_throughput(benchmark):
    graph = random_regular(2048, 3, random.Random(2))
    instance = Instance.simple(graph)
    outputs = DeterministicSinklessSolver().solve(instance).outputs
    problem = SinklessOrientation().problem()

    def check():
        return verify(problem, graph, Labeling(graph), outputs).ok

    assert benchmark(check)

    # One timed pass per case for the machine-readable trajectory file
    # (pytest-benchmark stats are unavailable under --benchmark-disable).
    flood_graph = cycle(512)
    flood_instance = Instance(flood_graph, sequential_ids(512))
    start = time.perf_counter()
    SyncEngine(flood_instance, FloodNode).run()
    flood_s = time.perf_counter() - start

    def gather_once() -> float:
        oracle = ViewOracle(random_regular(2048, 3, random.Random(0)))
        start = time.perf_counter()
        for v in range(0, 2048, 64):
            oracle.view(v, 8)
        return time.perf_counter() - start

    report_json(
        "simulator_throughput",
        {
            "engine_flood_512_cycle_s": flood_s,
            "view_gathering_2048_cubic_r8_s": gather_once(),
            # Reference point from the commit preceding the flat-core PR.
            # Only comparable to runs on the same machine — don't divide
            # numbers measured on a different host by these.
            "pre_incidence_core_baseline": {
                "engine_flood_512_cycle_s": 1.564,
                "view_gathering_2048_cubic_r8_s": 0.0226,
                "machine": "x86_64 linux, PR-2 development host",
            },
        },
        file="BENCH_simulator.json",
    )
    report(
        render_table(
            ["component", "instance"],
            [
                ["view oracle", "2048-node cubic, radius 8 views"],
                ["bfs", "4096-node cubic, full sweep"],
                ["sync engine", "512-cycle flooding (256 rounds)"],
                ["ne-LCL verifier", "2048-node cubic, sinkless outputs"],
            ],
            title="E13  substrate microbenchmarks (timings in the table above)",
        )
    )


def _best(fn):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="times the array path, which needs numpy"
)
def test_batched_engine_speedup():
    """PR 10 gate: array programs >= 3x over the object loop at n >= 8192.

    Both node programs below run with batched twins; the object loop is the
    oracle, so besides the speedup bar every run asserts bit-identical
    engine results (per-node outputs, round counts, halting rounds, and
    the full round trace).
    """
    instance = cubic_instance(N, seed=3)
    n = instance.graph.num_nodes
    rows = []
    payload = {}

    def flood_run():
        result = SyncEngine(
            instance, MinIdFloodNode, array_program=MinFloodProgram
        ).run(max_rounds=10_000)
        return (result.results, result.rounds, result.halt_rounds, result.trace)

    def linial_run():
        result = LinialColoringSolver(num_colors=4).solve(instance)
        outputs = [result.outputs.node(v) for v in instance.graph.nodes()]
        return (outputs, result.rounds, list(result.node_radius), result.extras)

    speedups = {}
    for label, run in (("min_id_flood", flood_run), ("linial_4_coloring", linial_run)):
        with kernels.active("object"):
            object_s, expected = _best(run)
        with kernels.active("vector"):
            vector_s, got = _best(run)
        assert got == expected, f"{label}: batched path diverged from object"
        speedup = object_s / vector_s
        speedups[label] = speedup
        rows.append(
            [
                label,
                n,
                round(object_s * 1e3, 2),
                round(vector_s * 1e3, 2),
                f"{speedup:.2f}x",
            ]
        )
        payload[label] = {
            "n": n,
            "object_ms": object_s * 1e3,
            "array_ms": vector_s * 1e3,
            "speedup": speedup,
            "gated": True,
        }

    report(
        render_table(
            ["node program", "n", "object ms", "array ms", "speedup"],
            rows,
            title=(
                "E13  batched array programs vs the object round loop "
                f"(results bit-identical; bar >= {THRESHOLD}x)"
            ),
        )
    )
    report_json(
        "batched_engine",
        {
            "cases": payload,
            "n": n,
            "quick": QUICK,
            "threshold": THRESHOLD,
        },
        file="BENCH_simulator.json",
    )
    for label, speedup in speedups.items():
        assert speedup >= THRESHOLD, (
            f"{label}: batched speedup {speedup:.2f}x below {THRESHOLD}x "
            f"at n={n}"
        )
