"""E12 — vectorized kernels over the CSR core vs the object layer.

The claim: the numpy-backed kernel layer (``repro.kernels``) beats the
pure-python object layer by >= 3x on the batched verifier at
n >= 1000, with *bit-identical* results — the object layer stays the
differential-testing oracle, the vector backend only buys time.

Emits ``benchmarks/BENCH_kernels.json`` via the shared ``report_json``
hook for cross-PR tracking.  The >= 3x gate holds in quick mode too:
the backends are measured back-to-back in-process, so the ratio is
robust to runner noise even when the absolute times are not.

The ``small_trials`` row backs the ``auto`` kernel mode, which takes
the vector backend at every instance size: whole trials (solve +
verify) of the canonical cells at n in {64, 128}, on both backends,
with identical results asserted.  At these sizes one trial is a few
milliseconds, so vector < object is gated in aggregate, and only in
thorough mode.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, report_json
from repro import kernels
from repro.analysis import render_table
from repro.generators import cubic_instance
from repro.lcl import Labeling
from repro.lcl.verifier import PreparedVerifier
from repro.problems import VertexColoring
from repro.runtime import registry
from repro.runtime.driver import dispatch_solver, verifier_for

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: The acceptance bar binds at n >= 1000; quick mode shrinks repeats,
#: not the instance (a sub-1000-node quick instance would gate nothing,
#: and numpy's per-call overhead only amortizes out well past the bar —
#: ratios at this size are stable, at 1024 they are noise).
N = 8192
REPEATS = 3 if QUICK else 5
THRESHOLD = 3.0
#: (solver, family) cells of the canonical grid whose small instances
#: the ``small_trials`` row times, and the sizes it uses.
SMALL_TRIAL_CELLS = (
    ("matching-line-coloring", "torus"),
    ("linial-4-coloring", "tree"),
    ("mis-color-classes", "torus"),
    ("sinkless-det", "cubic"),
    ("sinkless-rand", "cubic"),
    ("matching-luby", "cubic"),
    ("parity", "path"),
)
SMALL_TRIAL_NS = (64, 128)


def _best(fn, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _vector_vs_object(fn, *args, **kwargs):
    """Best-of times for both backends, asserting identical results."""
    object_s, expected = _best(fn, *args, **kwargs)
    with kernels.active("vector"):
        vector_s, got = _best(fn, *args, **kwargs)
    assert got == expected, f"{fn.__name__}: vector diverged from object"
    return object_s, vector_s


def _coloring_outputs(graph):
    outputs = Labeling(graph)
    for v in graph.nodes():
        outputs.set_node(v, v % 3)
    return outputs


def test_vector_kernel_speedups():
    # Random cubic topology: the paper's hard family.
    graph = cubic_instance(N, seed=0).graph
    n = graph.num_nodes

    # Batched verifier: one PreparedVerifier skeleton, repeated verify
    # calls — the seed-batch shape the engine actually runs.  The
    # vectorized twin folds the n constraint evaluations down to one
    # per *distinct* local configuration.
    problem = VertexColoring(3).problem()
    prepared = PreparedVerifier(problem, graph)
    outputs = _coloring_outputs(graph)

    def batched_verify():
        verdict = kernels.prepared_verify(prepared, outputs)
        return (verdict.ok, tuple(verdict.violations))

    object_s, vector_s = _vector_vs_object(batched_verify)
    verifier_speedup = object_s / vector_s

    report(
        render_table(
            ["kernel", "n", "object ms", "vector ms", "speedup"],
            [
                [
                    "batched_verifier",
                    n,
                    round(object_s * 1e3, 2),
                    round(vector_s * 1e3, 2),
                    f"{verifier_speedup:.2f}x",
                ]
            ],
            title=(
                "E12 vectorized kernels vs object layer "
                f"(results bit-identical; bar >= {THRESHOLD}x)"
            ),
        )
    )
    report_json(
        "vector_kernels",
        {
            "cases": {
                "batched_verifier": {
                    "n": n,
                    "object_ms": object_s * 1e3,
                    "vector_ms": vector_s * 1e3,
                    "speedup": verifier_speedup,
                }
            },
            "n": n,
            "quick": QUICK,
            "threshold": THRESHOLD,
            "verifier_speedup": verifier_speedup,
        },
        file="BENCH_kernels.json",
    )
    assert verifier_speedup >= THRESHOLD, (
        f"batched verifier speedup {verifier_speedup:.2f}x below "
        f"{THRESHOLD}x at n={n}"
    )


def _timed_trial(solver, family, n, backend):
    """Best-of solve + verify time of one seed-0 trial on ``backend``.

    Each repeat builds a fresh instance outside the timed region (a
    randomized solver consumes the instance's ``NodeRng``).  Returns
    the time and what the trial produced, for the equality check.
    """
    solver_info = registry.solver(solver)
    check = verifier_for(registry.problem(solver_info.problem))
    best = float("inf")
    produced = None
    for _ in range(REPEATS):
        instance = registry.family(family).builder(n, 0)
        start = time.perf_counter()
        with kernels.active(backend):
            result = dispatch_solver(solver_info.factory(), instance)
            check(instance, result)
        best = min(best, time.perf_counter() - start)
        produced = (
            result.rounds,
            list(result.node_radius),
            result.outputs,
            dict(result.extras),
        )
    return best, produced


def test_small_trial_speedups():
    kernels.preload("vector")  # numpy's lazy imports stay out of the timings
    rows = []
    payload = {}
    totals = {"object": 0.0, "vector": 0.0}
    for solver, family in SMALL_TRIAL_CELLS:
        cell = f"{solver}@{family}"
        for n in SMALL_TRIAL_NS:
            object_s, expected = _timed_trial(solver, family, n, "object")
            vector_s, got = _timed_trial(solver, family, n, "vector")
            assert got == expected, f"{cell} n={n}: vector diverged from object"
            totals["object"] += object_s
            totals["vector"] += vector_s
            speedup = object_s / vector_s
            rows.append(
                [
                    cell,
                    n,
                    round(object_s * 1e3, 2),
                    round(vector_s * 1e3, 2),
                    f"{speedup:.2f}x",
                ]
            )
            payload.setdefault(cell, {})[str(n)] = {
                "object_ms": object_s * 1e3,
                "vector_ms": vector_s * 1e3,
                "speedup": speedup,
            }
    aggregate = totals["object"] / totals["vector"]
    rows.append(
        [
            "all cells",
            "",
            round(totals["object"] * 1e3, 2),
            round(totals["vector"] * 1e3, 2),
            f"{aggregate:.2f}x",
        ]
    )
    report(
        render_table(
            ["cell", "n", "object ms", "vector ms", "speedup"],
            rows,
            title=(
                "E12 small trials: solve + verify per backend "
                "(results identical; vector faster in aggregate, gated "
                "in thorough mode)"
            ),
        )
    )
    report_json(
        "small_trials",
        {
            "cells": payload,
            "ns": list(SMALL_TRIAL_NS),
            "quick": QUICK,
            "repeats": REPEATS,
            "object_ms_total": totals["object"] * 1e3,
            "vector_ms_total": totals["vector"] * 1e3,
            "aggregate_speedup": aggregate,
        },
        file="BENCH_kernels.json",
    )
    if not QUICK:
        assert totals["vector"] < totals["object"], (
            f"small trials: vector {totals['vector'] * 1e3:.1f} ms is not "
            f"below object {totals['object'] * 1e3:.1f} ms in aggregate"
        )
