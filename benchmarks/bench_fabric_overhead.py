"""E13 — fabric bookkeeping overhead on the clean (no-failure) path.

Fault tolerance must be free when nothing fails.  The per-trial cost
the fabric adds to a shard run is the heartbeat emitter (a throttled
atomic file replace) plus an inert fault injector (one integer
increment); the per-shard cost is a handful of lease-board
transitions.  This bench gates the former — an instrumented
``run_shard`` must stay within 5% of the bare one on the same spec,
records asserted identical first — and reports the latter as a
per-transition microcost for the trajectory.

Emits ``benchmarks/BENCH_fabric.json`` via the shared ``report_json``
hook for cross-PR tracking.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from benchmarks.conftest import report, report_json
from repro.analysis import render_table
from repro.engine.cache import TrialCache
from repro.engine.fabric import BackoffPolicy, LeaseBoard
from repro.engine.faults import FaultInjector
from repro.engine.runner import plan_experiment, run_shard
from repro.engine.spec import ExperimentSpec
from repro.obs import HeartbeatEmitter

QUICK = bool(os.environ.get("BENCH_QUICK"))
MAX_N = 512 if QUICK else 4096
REPEATS = 2 if QUICK else 5
# Quick mode shrinks the workload ~20x while fixed costs stay
# constant, so its gate only guards against gross regressions.
THRESHOLD_PCT = 25.0 if QUICK else 5.0
LEASE_SHARDS = 16
LEASE_ROUNDS = 20 if QUICK else 100


def _spec() -> ExperimentSpec:
    ns = []
    n = 64
    while n <= MAX_N:
        ns.append(n)
        n *= 2
    return ExperimentSpec(
        name="bench/degree-parity/parity@cycle",
        problem="degree-parity",
        solver="parity",
        generator="cycle",
        ns=tuple(ns),
        seeds=tuple(range(16 if QUICK else 24)),
    )


def _time_shard(spec, root, instrumented: bool) -> tuple[float, list]:
    """One shard run against a fresh isolation root, optionally with
    the exact bookkeeping the fabric wires in: heartbeat emission per
    record plus an armed-but-empty fault injector."""
    plan = plan_experiment(spec, num_shards=1)
    manifest = plan.manifest(0)
    cache = TrialCache(
        os.path.join(root, "shared"), isolation=os.path.join(root, "out")
    )
    on_record = None
    emitter = None
    if instrumented:
        emitter = HeartbeatEmitter(
            os.path.join(root, "hb.json"),
            0,
            total=len(manifest.trial_indices()),
        )
        injector = FaultInjector((), shard_index=0)
        emitter.start()

        def on_record(record):
            emitter.record()
            injector.on_trial()

    start = time.perf_counter()
    rep = run_shard(manifest, workers=1, cache=cache, on_record=on_record)
    if emitter is not None:
        emitter.done()
    return time.perf_counter() - start, rep.records


def _lease_microcost() -> float:
    """Mean microseconds per persisted lease-board transition."""
    tmp = tempfile.mkdtemp(prefix="bench-lease-")
    policy = BackoffPolicy()
    try:
        board = LeaseBoard.load_or_create(
            os.path.join(tmp, "leases.json"), "bench-key", LEASE_SHARDS
        )
        start = time.perf_counter()
        transitions = 0
        for _ in range(LEASE_ROUNDS):
            for shard in range(LEASE_SHARDS):
                board.acquire(shard, "bench", ttl=60.0)
                board.renew(shard, ttl=60.0)
                board.release(shard, "retry")
                transitions += 3
        elapsed = time.perf_counter() - start
        # Exercised but unused by the timing: the backoff math is pure
        # arithmetic, three orders of magnitude under one transition.
        policy.schedule()
        return elapsed / transitions * 1e6
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_fabric_clean_path_overhead():
    spec = _spec()
    trials = len(spec.ns) * len(spec.seeds)
    best_bare = best_instrumented = float("inf")
    for _ in range(REPEATS):
        tmp = tempfile.mkdtemp(prefix="bench-fabric-")
        try:
            bare_s, bare_records = _time_shard(
                spec, os.path.join(tmp, "bare"), instrumented=False
            )
            instr_s, instr_records = _time_shard(
                spec, os.path.join(tmp, "instr"), instrumented=True
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        assert instr_records == bare_records
        best_bare = min(best_bare, bare_s)
        best_instrumented = min(best_instrumented, instr_s)
    overhead_pct = (best_instrumented - best_bare) / best_bare * 100
    lease_us = _lease_microcost()

    report(
        render_table(
            ["case", "trials", "ms"],
            [
                ["bare run_shard", trials, round(best_bare * 1000, 1)],
                [
                    "heartbeat + inert injector",
                    trials,
                    round(best_instrumented * 1000, 1),
                ],
            ],
            title=(
                "E13 fabric clean-path bookkeeping\n"
                f"    overhead: {overhead_pct:+.2f}% "
                f"(budget: < {THRESHOLD_PCT:.0f}%); lease transition: "
                f"{lease_us:.0f}us persisted"
            ),
        )
    )
    report_json(
        "fabric_overhead",
        {
            "trials": trials,
            "bare_ms": best_bare * 1000,
            "instrumented_ms": best_instrumented * 1000,
            "overhead_pct": overhead_pct,
            "lease_transition_us": lease_us,
            "max_n": MAX_N,
            "quick": QUICK,
        },
        file="BENCH_fabric.json",
    )
    assert overhead_pct < THRESHOLD_PCT, (
        f"fabric bookkeeping overhead {overhead_pct:.2f}% exceeds "
        f"{THRESHOLD_PCT:.0f}%"
    )
