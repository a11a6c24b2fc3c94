"""E14 — remote transport overhead on the clean (no-fault) path.

Moving shard results over HTTP must cost ~nothing next to computing
them.  Both arms run the same two-shard pipeline to completion; the
baseline merges the shard roots straight off the filesystem, the
remote arm detours each root through the full transport — manifested
``export_dir``, a loopback ``ExportServer``, checksum-verified
``pull_export``, then the same merge.  Full mode holds the overhead
of that detour — its directly-timed cost against the baseline
pipeline — under 5% (records asserted identical first).  Differencing
the two end-to-end totals would gate compute jitter instead: the
solver arm is ~40x the transport leg and wobbles by more than the
whole detour costs.
Quick mode's workload is ~40ms of compute, so a percentage there
would only measure the transport's fixed costs against an
artificially tiny denominator; it gates the absolute per-file
transfer cost instead (both modes do), and still reports the
percentage for the record.

Emits ``benchmarks/BENCH_remote.json`` via the shared ``report_json``
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
from repro.engine.remote import ExportServer, PullPolicy, pull_export
from repro.engine.runner import plan_experiment, run_shard
from repro.engine.spec import ExperimentSpec

QUICK = bool(os.environ.get("BENCH_QUICK"))
# Full mode needs seconds of compute per arm so the ~100ms transport
# leg registers as the few-percent tax it is in real sweeps; fewer
# seeds at larger n buys that without inflating the transferred bytes.
MAX_N = 512 if QUICK else 65536
REPEATS = 2 if QUICK else 3
THRESHOLD_PCT = 5.0  # gated in full mode only (see docstring)
PER_FILE_BUDGET_MS = 5.0  # gated in both modes
NUM_SHARDS = 2


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
        seeds=tuple(range(16 if QUICK else 8)),
    )


def _run_shards(spec, root) -> list[str]:
    """Compute every shard into its own cache root; return the roots."""
    plan = plan_experiment(spec, num_shards=NUM_SHARDS)
    roots = []
    for i in range(NUM_SHARDS):
        out = os.path.join(root, f"shard-{i}")
        cache = TrialCache(os.path.join(root, "shared"), isolation=out)
        run_shard(plan.manifest(i), workers=1, cache=cache)
        roots.append(out)
    return roots


def _fingerprint(root) -> dict[str, int]:
    cache = TrialCache(root)
    cache.load_all()
    return {key: len(str(record)) for key, record in cache._index.items()}


def _baseline(spec, root) -> float:
    """run shards + merge the roots straight off the filesystem."""
    start = time.perf_counter()
    roots = _run_shards(spec, root)
    merged = TrialCache(os.path.join(root, "merged"))
    for shard_root in roots:
        merged.merge(shard_root)
    return time.perf_counter() - start


def _remote(spec, root) -> tuple[float, float, int, int]:
    """Same pipeline with the transport detour; also times the pure
    export->serve->pull->merge leg and counts transferred bytes/files."""
    start = time.perf_counter()
    roots = _run_shards(spec, root)
    transport_start = time.perf_counter()
    export_root = os.path.join(root, "exports")
    for i, shard_root in enumerate(roots):
        TrialCache(shard_root).export_dir(
            os.path.join(export_root, f"shard-{i}")
        )
    merged = TrialCache(os.path.join(root, "merged"))
    pulled_bytes = pulled_files = 0
    policy = PullPolicy(timeout=10.0, max_attempts=2)
    with ExportServer(export_root) as server:
        for i in range(len(roots)):
            result = pull_export(
                f"{server.url}/shard-{i}",
                os.path.join(root, "pulls", f"src-{i}"),
                policy,
            )
            assert result.ok, result.summary()
            pulled_bytes += sum(file.bytes for file in result.files)
            pulled_files += len(result.files)
            merged.merge(result.dest)
    now = time.perf_counter()
    return now - start, now - transport_start, pulled_bytes, pulled_files


def test_remote_transport_clean_path_overhead():
    spec = _spec()
    trials = len(spec.ns) * len(spec.seeds)
    best_base = best_remote = best_transport = float("inf")
    pulled_bytes = pulled_files = 0
    for _ in range(REPEATS):
        tmp = tempfile.mkdtemp(prefix="bench-remote-")
        try:
            base_s = _baseline(spec, os.path.join(tmp, "base"))
            remote_s, transport_s, pulled_bytes, pulled_files = _remote(
                spec, os.path.join(tmp, "remote")
            )
            base_fp = _fingerprint(os.path.join(tmp, "base", "merged"))
            remote_fp = _fingerprint(os.path.join(tmp, "remote", "merged"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        assert remote_fp == base_fp  # transport must not change a byte
        best_base = min(best_base, base_s)
        best_remote = min(best_remote, remote_s)
        best_transport = min(best_transport, transport_s)
    overhead_pct = best_transport / best_base * 100
    end_to_end_pct = (best_remote - best_base) / best_base * 100
    per_file_ms = best_transport / max(pulled_files, 1) * 1000
    throughput_mbs = pulled_bytes / max(best_transport, 1e-9) / 1e6

    report(
        render_table(
            ["case", "trials", "ms"],
            [
                ["compute + fs merge", trials, round(best_base * 1000, 1)],
                [
                    "compute + export/serve/pull/merge",
                    trials,
                    round(best_remote * 1000, 1),
                ],
                [
                    "  transport leg alone",
                    pulled_files,
                    round(best_transport * 1000, 1),
                ],
            ],
            title=(
                "E14 remote transport clean path\n"
                f"    overhead: {overhead_pct:+.2f}% "
                f"(budget: < {THRESHOLD_PCT:.0f}%"
                f"{', reported only in quick mode' if QUICK else ''}); "
                f"{per_file_ms:.2f}ms/file "
                f"(budget: < {PER_FILE_BUDGET_MS:.0f}ms), "
                f"{throughput_mbs:.1f}MB/s verified"
            ),
        )
    )
    report_json(
        "remote_transport",
        {
            "trials": trials,
            "baseline_ms": best_base * 1000,
            "remote_ms": best_remote * 1000,
            "transport_ms": best_transport * 1000,
            "overhead_pct": overhead_pct,
            "end_to_end_pct": end_to_end_pct,
            "pulled_files": pulled_files,
            "pulled_bytes": pulled_bytes,
            "per_file_ms": per_file_ms,
            "throughput_mb_s": throughput_mbs,
            "max_n": MAX_N,
            "quick": QUICK,
        },
        file="BENCH_remote.json",
    )
    assert per_file_ms < PER_FILE_BUDGET_MS, (
        f"remote transfer cost {per_file_ms:.2f}ms/file exceeds "
        f"{PER_FILE_BUDGET_MS:.0f}ms"
    )
    if not QUICK:
        assert overhead_pct < THRESHOLD_PCT, (
            f"remote transport overhead {overhead_pct:.2f}% exceeds "
            f"{THRESHOLD_PCT:.0f}%"
        )
