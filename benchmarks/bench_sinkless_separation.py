"""E2 — the base separation (Figure 1's sinkless-orientation dot).

Regenerates the deterministic Theta(log n) vs randomized
Theta(log log n) series on random cubic instances and fits both
against the growth dictionary.

The series run on ``repro.engine``: both sweeps are declarative specs
dispatched to a worker pool, so the trials of one size grid run
concurrently instead of one at a time.  (No trial cache here — the
bench must measure real solves every run; caching itself is exercised
by ``bench_engine_scaling.py``.)
"""

from __future__ import annotations

from benchmarks.conftest import report
from repro.analysis import best_fit, ratio_series, render_table
from repro.engine import ExperimentSpec, run_experiment
from repro.generators.hard import cubic_instance
from repro.problems import DeterministicSinklessSolver, RandomizedSinklessSolver

NS = tuple(2**k for k in range(6, 14))
SEEDS = (0, 1)
WORKERS = 4


def _spec(name: str, solver: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        problem="sinkless-orientation",
        solver=solver,
        generator="cubic",
        ns=NS,
        seeds=SEEDS,
    )


def test_sinkless_separation_series(benchmark):
    det = run_experiment(
        _spec("sinkless/det", "sinkless-det"), workers=WORKERS
    ).sweep
    rand = run_experiment(
        _spec("sinkless/rand", "sinkless-rand"), workers=WORKERS
    ).sweep
    det_fit = best_fit(det.ns(), det.means())
    rand_fit = best_fit(rand.ns(), rand.means())
    rows = [
        [n, d, r, round(ratio, 2)]
        for (n, d, r, (_n, ratio)) in zip(
            det.ns(),
            det.means(),
            rand.means(),
            ratio_series(det.ns(), det.means(), rand.means()),
        )
    ]
    report(
        render_table(
            ["n", "det rounds", "rand rounds", "D/R"],
            rows,
            title=(
                "E2  sinkless orientation: paper det Theta(log n) / rand "
                "Theta(log log n)\n"
                f"    measured det fit:  {det_fit}\n"
                f"    measured rand fit: {rand_fit}"
            ),
        )
    )
    # shape assertions: the separation must be visible
    assert det_fit.name in ("log", "log loglog")
    assert rand_fit.name in ("loglog", "log*", "1")
    assert det.means()[-1] / rand.means()[-1] >= 2.0

    instance = cubic_instance(1024, 0)
    benchmark(lambda: DeterministicSinklessSolver().solve(instance))


def test_randomized_solver_wallclock(benchmark):
    instance = cubic_instance(1024, 0)
    benchmark(lambda: RandomizedSinklessSolver().solve(instance))
