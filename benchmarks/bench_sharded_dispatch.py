"""E12 — shard-native dispatch: plan/run/union overhead vs a single run.

The shard layer's promise is that making the shard a first-class
object costs nothing when you don't distribute: planning the full
grid, executing K shards, and bringing their records home must stay
within 5% of the plain single-host ``run_experiment`` on the same
spec.  Two scenarios are timed:

* **in-memory** — no cache anywhere; isolates pure pipeline overhead
  (plan construction, shard slicing, assembling the shards' records
  by global trial index).  This is the gated number: < 5%.
* **per-shard caches** — each shard writes a private isolation root;
  the roots are unioned into a shared root and the grid is replayed
  from it with ``run_experiment`` (0 computed), which is what
  ``run --from`` does, vs a single run writing one cache directly.  The
  union and the replay are extra passes over every record that a
  single run simply does not have, so this case is reported for the
  trajectory and held only to a loose sanity bound.

Both sides are asserted record-identical before any timing is
reported.  Emits ``benchmarks/BENCH_shard.json`` via the shared
``report_json`` hook for cross-PR tracking.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from benchmarks.conftest import report, report_json
from repro.analysis import render_table
from repro.engine.cache import TrialCache
from repro.engine.runner import plan_experiment, run_experiment, run_shard
from repro.engine.spec import ExperimentSpec

QUICK = bool(os.environ.get("BENCH_QUICK"))
MAX_N = 512 if QUICK else 4096
NUM_SHARDS = 4
REPEATS = 2 if QUICK else 5
# The 5% budget gates the in-memory pipeline.  Quick mode shrinks the
# workload ~20x while fixed costs stay constant, so its gates only
# guard against gross regressions; the cache+merge case always gets a
# loose bound, since the merge's extra disk pass rides on I/O noise.
PIPELINE_THRESHOLD_PCT = 25.0 if QUICK else 5.0
MERGE_THRESHOLD_PCT = 50.0 if QUICK else 20.0


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


def _time_single(spec, cache_root=None) -> tuple[float, list]:
    cache = TrialCache(cache_root) if cache_root else None
    start = time.perf_counter()
    rep = run_experiment(spec, workers=1, cache=cache)
    return time.perf_counter() - start, rep.records


def _time_sharded(spec, root=None) -> tuple[float, list]:
    """Plan and run all K shards serially on one host, then bring the
    records home: assembled by global trial index with no cache, or
    per-shard isolation roots unioned into a shared root and replayed
    from it."""
    start = time.perf_counter()
    plan = plan_experiment(spec, num_shards=NUM_SHARDS)
    reports = []
    for index in range(NUM_SHARDS):
        cache = None
        if root:
            cache = TrialCache(
                os.path.join(root, "shared"),
                isolation=os.path.join(root, f"shard-{index}"),
            )
        reports.append(run_shard(plan, index, workers=1, cache=cache))
    if root:
        shared = TrialCache(os.path.join(root, "shared"))
        for index in range(NUM_SHARDS):
            shared.merge(os.path.join(root, f"shard-{index}"))
        replay = run_experiment(
            spec, workers=1, cache=shared, batch_size=plan.batch_size
        )
        assert replay.computed == 0
        records = replay.records
    else:
        records = [None] * plan.trial_count()
        for report in reports:
            for i, record in report.records:
                records[i] = record
    return time.perf_counter() - start, records


def test_shard_pipeline_overhead():
    spec = _spec()
    rows = []
    payload = {}
    overheads = {}
    for case in ("in-memory", "per-shard caches"):
        best_single = best_sharded = float("inf")
        for _ in range(REPEATS):
            if case == "in-memory":
                single_s, single_records = _time_single(spec)
                sharded_s, sharded_records = _time_sharded(spec)
            else:
                tmp = tempfile.mkdtemp(prefix="bench-shard-")
                try:
                    single_s, single_records = _time_single(
                        spec, os.path.join(tmp, "single")
                    )
                    sharded_s, sharded_records = _time_sharded(
                        spec, os.path.join(tmp, "sharded")
                    )
                finally:
                    shutil.rmtree(tmp, ignore_errors=True)
            assert sharded_records == single_records, case
            best_single = min(best_single, single_s)
            best_sharded = min(best_sharded, sharded_s)
        overhead_pct = (best_sharded - best_single) / best_single * 100
        overheads[case] = overhead_pct
        rows.append(
            [
                case,
                len(spec.ns) * len(spec.seeds),
                round(best_single * 1000, 1),
                round(best_sharded * 1000, 1),
                f"{overhead_pct:+.2f}%",
            ]
        )
        payload[case] = {
            "trials": len(spec.ns) * len(spec.seeds),
            "num_shards": NUM_SHARDS,
            "single_ms": best_single * 1000,
            "sharded_ms": best_sharded * 1000,
            "overhead_pct": overhead_pct,
        }

    pipeline = overheads["in-memory"]
    with_merge = overheads["per-shard caches"]
    report(
        render_table(
            ["case", "trials", "single ms", f"{NUM_SHARDS}-shard ms", "overhead"],
            rows,
            title=(
                "E12 shard pipeline overhead (plan + run-shard x"
                f"{NUM_SHARDS} + merge vs run_experiment)\n"
                f"    pipeline: {pipeline:+.2f}% "
                f"(budget: < {PIPELINE_THRESHOLD_PCT:.0f}%); with cache "
                f"union: {with_merge:+.2f}% (< {MERGE_THRESHOLD_PCT:.0f}%)"
            ),
        )
    )
    report_json(
        "sharded_dispatch",
        {
            "cases": payload,
            "pipeline_overhead_pct": pipeline,
            "cache_union_overhead_pct": with_merge,
            "max_n": MAX_N,
            "quick": QUICK,
        },
        file="BENCH_shard.json",
    )
    assert pipeline < PIPELINE_THRESHOLD_PCT, (
        f"shard pipeline overhead {pipeline:.2f}% exceeds "
        f"{PIPELINE_THRESHOLD_PCT:.0f}%"
    )
    assert with_merge < MERGE_THRESHOLD_PCT, (
        f"cache-union overhead {with_merge:.2f}% exceeds "
        f"{MERGE_THRESHOLD_PCT:.0f}%"
    )
