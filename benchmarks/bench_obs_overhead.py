"""E12 — telemetry overhead: observability must be (nearly) free.

PR 6's claim: the obs layer (phase spans around build/solve/verify,
engine counters, snapshot piggybacking) costs < 3% wall time on the
batched-runtime workload from E11, and is **inert** — the records an
experiment produces are bit-identical with telemetry enabled or
disabled, at K in {1, 4} shards, with the K=4 telemetry merging
order-independently.

The timing gate only applies to full-size runs; quick mode times
millisecond windows on shared CI runners where a noisy neighbor could
fail it with zero code defect.  The inertness and merge-algebra
assertions hold in every mode.  Emits ``benchmarks/BENCH_obs.json``.
"""

from __future__ import annotations

import math
import os
import time

from benchmarks.conftest import report, report_json
from repro.analysis import render_table
from repro.engine.runner import plan_experiment, run_experiment, run_shard
from repro.engine.spec import ExperimentSpec
from repro.obs import aggregate, get_telemetry, merge_snapshots, set_enabled

QUICK = bool(os.environ.get("BENCH_QUICK"))
N = 512 if QUICK else 4096
SEEDS = tuple(range(8))
REPEATS = 3 if QUICK else 5
THRESHOLD = 0.03  # max tolerated wall-time overhead with telemetry on


def _spec(name: str, ns=(N,)) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        problem="degree-parity",
        solver="parity",
        generator="cycle",
        ns=ns,
        seeds=SEEDS,
    )


def test_telemetry_overhead_and_inertness():
    spec = _spec("bench-obs/degree-parity/parity@cycle")
    telemetry = get_telemetry()
    best_on = best_off = float("inf")
    report_on = report_off = None
    was_enabled = set_enabled(True)
    try:
        # Interleave enabled/disabled repeats so drift (thermal, cache
        # warmup) hits both arms equally; keep the best of each.
        for _ in range(REPEATS):
            set_enabled(True)
            telemetry.reset()
            start = time.perf_counter()
            report_on = run_experiment(spec, workers=1, batch_size=len(SEEDS))
            best_on = min(best_on, time.perf_counter() - start)
            set_enabled(False)
            start = time.perf_counter()
            report_off = run_experiment(spec, workers=1, batch_size=len(SEEDS))
            best_off = min(best_off, time.perf_counter() - start)
    finally:
        set_enabled(was_enabled)
    assert report_on is not None and report_off is not None

    # Inert: same records, down to the bit, with the layer on or off.
    assert report_on.records == report_off.records
    assert report_on.telemetry is not None and report_off.telemetry is None

    overhead = best_on / best_off - 1.0
    view = aggregate(report_on.telemetry)
    phase_total = sum(
        stat["total_s"]
        for path, stat in view["spans"].items()
        if path.startswith("trial.")
    )
    rows = [
        [
            "parity@cycle",
            N,
            len(SEEDS) * len(spec.ns),
            round(best_off * 1e3, 2),
            round(best_on * 1e3, 2),
            f"{overhead * 100:+.2f}%",
        ]
    ]
    report(
        render_table(
            ["case", "n", "trials", "off ms", "on ms", "overhead"],
            rows,
            title=(
                "E12 telemetry overhead (run_experiment, telemetry on vs off)\n"
                f"    bar: < {THRESHOLD * 100:.0f}% on full-size runs "
                "(informational in quick mode; records bit-identical); "
                f"phase spans cover {phase_total:.3f}s of the run"
            ),
        )
    )
    report_json(
        "obs_overhead",
        {
            "n": N,
            "trials": len(SEEDS) * len(spec.ns),
            "repeats": REPEATS,
            "off_ms": best_off * 1e3,
            "on_ms": best_on * 1e3,
            "overhead_frac": overhead,
            "threshold_frac": THRESHOLD,
            "counters": view["counters"],
            "records_identical": report_on.records == report_off.records,
            "quick": QUICK,
        },
        file="BENCH_obs.json",
    )
    if not QUICK:
        assert overhead < THRESHOLD, (
            f"telemetry overhead {overhead * 100:.2f}% exceeds the "
            f"{THRESHOLD * 100:.0f}% bar on the full-size workload"
        )


def test_k4_shard_telemetry_merges_order_independently_and_stays_inert():
    # Smaller sizes: this case checks algebra, not throughput.
    spec = _spec("bench-obs/shards/parity@cycle", ns=(64, 96, 128, 160))
    plan = plan_experiment(spec, num_shards=4, batch_size=len(SEEDS))

    def run_all():
        """Every shard's report, and their records by global index."""
        reports = [run_shard(plan, i) for i in range(plan.num_shards)]
        records = [None] * plan.trial_count()
        for report in reports:
            for i, record in report.records:
                records[i] = record
        return reports, records

    was_enabled = set_enabled(True)
    try:
        get_telemetry().reset()
        reports, records = run_all()
        merges = [
            merge_snapshots([reports[i].telemetry for i in order])
            for order in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0))
        ]
        # Merging sums: counters and span counts are integers, equal in
        # any order; float span totals agree up to rounding.
        first = merges[0]
        for merged in merges[1:]:
            assert merged["counters"] == first["counters"]
            assert merged["spans"].keys() == first["spans"].keys()
            for path, stat in merged["spans"].items():
                assert stat["count"] == first["spans"][path]["count"]
                assert math.isclose(stat["total_s"], first["spans"][path]["total_s"])
        counters = first["counters"]
        assert counters["trials.executed"] == len(spec.ns) * len(SEEDS)
        set_enabled(False)
        silent, silent_records = run_all()
    finally:
        set_enabled(was_enabled)
    assert all(report.telemetry is None for report in silent)
    assert None not in records
    assert silent_records == records
    report_json(
        "obs_shard_merge",
        {
            "num_shards": plan.num_shards,
            "trials": len(spec.ns) * len(SEEDS),
            "order_independent": True,
            "records_identical_disabled": silent_records == records,
            "counters": counters,
        },
        file="BENCH_obs.json",
    )
