"""E9 — engine scaling: serial vs pooled dispatch, cold vs warm cache.

Not a paper experiment but a harness property the other benches lean
on: the engine must (a) keep results bit-identical across worker
counts, (b) replay a warm cache without recomputing anything, and on
multi-core hardware (c) beat the serial loop on wall-clock.  (c) is
reported, not asserted — CI machines promise nothing about cores.
"""

from __future__ import annotations

import time

from benchmarks.conftest import report
from repro.analysis import render_table
from repro.engine import ExperimentSpec, TrialCache, run_experiment

SPEC = ExperimentSpec(
    name="engine-scaling/sinkless-det",
    problem="sinkless-orientation",
    solver="sinkless-det",
    generator="cubic",
    ns=tuple(2**k for k in range(6, 12)),
    seeds=(0, 1, 2),
)


def _timed(workers: int, cache: TrialCache | None):
    start = time.perf_counter()
    result = run_experiment(SPEC, workers=workers, cache=cache)
    return result, time.perf_counter() - start


def test_engine_scaling(benchmark, tmp_path):
    serial, serial_s = _timed(workers=1, cache=None)

    pool_cache_dir = str(tmp_path / "cache")
    pooled, pooled_s = _timed(workers=4, cache=TrialCache(pool_cache_dir))
    warm, warm_s = _timed(workers=4, cache=TrialCache(pool_cache_dir))

    trials = serial.trials_total
    rows = [
        ["serial (workers=1, no cache)", trials, 0, round(serial_s, 3),
         round(trials / serial_s, 1)],
        ["pooled (workers=4, cold cache)", trials, 0, round(pooled_s, 3),
         round(trials / pooled_s, 1)],
        ["pooled (workers=4, warm cache)", 0, trials, round(warm_s, 4),
         round(trials / warm_s, 1)],
    ]
    report(
        render_table(
            ["configuration", "computed", "cached", "seconds", "trials/s"],
            rows,
            title=(
                "E9  engine scaling: identical results, cached replay, "
                "pooled dispatch\n"
                f"    serial->pooled speedup: {serial_s / pooled_s:.2f}x, "
                f"cold->warm speedup: {pooled_s / warm_s:.1f}x"
            ),
        )
    )
    # (a) bit-identical sweeps at every worker count and cache state
    assert serial.sweep == pooled.sweep == warm.sweep
    # (b) the warm run replays everything and computes nothing
    assert warm.cache_hits == trials and warm.computed == 0
    assert pooled.cache_hits == 0 and pooled.computed == trials

    benchmark(lambda: run_experiment(SPEC, workers=1, cache=TrialCache(pool_cache_dir)))
