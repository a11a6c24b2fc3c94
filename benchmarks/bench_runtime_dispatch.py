"""E10 — runtime dispatch overhead: registry vs direct solver calls.

The runtime's promise is that the registry-driven path
(``dispatch_solver(registry.solver(name).factory(), instance)``:
catalog lookup, then the solver's own ``solve``) costs nothing
measurable on top of calling the solver directly.

Two solves of the same solver differ by host noise far larger than
5% on a shared machine, so the gate does not compare them.  It times
the dispatch machinery on its own instead: the registry lookup plus
:func:`~repro.runtime.driver.dispatch_solver` around a stub solver
whose ``solve`` returns at once, minus the stub's bare ``solve``, as
the median of interleaved windows of ``MACHINERY_CALLS`` calls.  That
per-call cost must stay under 5% of each case's median direct solve
time.  The interleaved direct and dispatched solve times are kept in
the table and the JSON as information.

Emits ``benchmarks/BENCH_runtime.json`` via the shared ``report_json``
hook for cross-PR tracking.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import report, report_json
from repro.analysis import render_table
from repro.runtime import registry
from repro.runtime.driver import dispatch_solver

# (solver, family, n): two real workloads and a near-trivial solver —
# the cheap case is where fixed dispatch costs would show up.
CASES = [
    ("sinkless-det", "cubic", 256),
    ("mis-color-classes", "cubic", 256),
    ("constant", "cycle", 256),
]
# Each timing window targets this much wall-clock so cheap solvers get
# enough calls for a stable per-call figure.
WINDOW_S = 0.25
#: Calls per window, and windows per case, when timing the dispatch
#: machinery alone on the stub solver.
MACHINERY_CALLS = 20_000
MACHINERY_WINDOWS = 7


def _calibrate(fn) -> int:
    """Loop count putting one timing window at ~WINDOW_S seconds."""
    start = time.perf_counter()
    fn()
    est = max(time.perf_counter() - start, 1e-7)
    return max(5, min(10_000, int(WINDOW_S / est)))


def _interleaved_medians(loops: int, fn_a, fn_b) -> tuple[float, float]:
    """Median-of-5 per-call times for two functions, windows interleaved.

    Alternating the timing windows makes slow allocator/GC drift over
    the run hit both paths equally instead of being attributed to
    whichever ran second.
    """
    times_a, times_b = [], []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            fn_a()
        times_a.append((time.perf_counter() - start) / loops)
        start = time.perf_counter()
        for _ in range(loops):
            fn_b()
        times_b.append((time.perf_counter() - start) / loops)
    return statistics.median(times_a), statistics.median(times_b)


class _InstantSolver:
    """A stub solver whose ``solve`` returns at once."""

    def solve(self, instance):
        return None


def _dispatch_cost(solver_name: str, instance) -> float:
    """Per-call seconds the registry route adds around a bare ``solve``.

    The stub makes the solver's own time, and its noise, nil on both
    sides, so the median of the interleaved per-window differences is
    the dispatch machinery alone.
    """
    stub = _InstantSolver()
    calls = range(MACHINERY_CALLS)
    costs = []
    for _ in range(MACHINERY_WINDOWS):
        start = time.perf_counter()
        for _ in calls:
            stub.solve(instance)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in calls:
            registry.solver(solver_name)
            dispatch_solver(stub, instance)
        routed = time.perf_counter() - start
        costs.append((routed - bare) / MACHINERY_CALLS)
    return statistics.median(costs)


def test_runtime_dispatch_overhead():
    rows = []
    payload = {}
    worst = 0.0
    for solver_name, family_name, n in CASES:
        instance = registry.family(family_name).builder(n, 0)
        solver_factory = registry.solver(solver_name).factory

        def direct():
            solver_factory().solve(instance)

        def dispatched():
            dispatch_solver(registry.solver(solver_name).factory(), instance)

        loops = _calibrate(direct)
        direct_s, dispatched_s = _interleaved_medians(loops, direct, dispatched)
        dispatch_s = _dispatch_cost(solver_name, instance)
        overhead_pct = dispatch_s / direct_s * 100
        worst = max(worst, overhead_pct)
        rows.append(
            [
                f"{solver_name}@{family_name}",
                n,
                round(direct_s * 1e6, 1),
                round(dispatched_s * 1e6, 1),
                round(dispatch_s * 1e6, 3),
                f"{overhead_pct:.2f}%",
            ]
        )
        payload[f"{solver_name}@{family_name}/n={n}"] = {
            "n": n,
            "loops": loops,
            "direct_us": direct_s * 1e6,
            "dispatched_us": dispatched_s * 1e6,
            "dispatch_us": dispatch_s * 1e6,
            "overhead_pct": overhead_pct,
        }

    report(
        render_table(
            [
                "case",
                "n",
                "direct us/call",
                "dispatched us/call",
                "dispatch us/call",
                "overhead",
            ],
            rows,
            title=(
                "E10 registry dispatch overhead (lookup + dispatch_solver "
                "on a stub, per direct solve)\n"
                f"    worst case: {worst:.2f}% (budget: < 5%)"
            ),
        )
    )
    report_json(
        "runtime_dispatch",
        {
            "cases": payload,
            "worst_overhead_pct": worst,
            "window_s": WINDOW_S,
            "machinery_calls": MACHINERY_CALLS,
            "machinery_windows": MACHINERY_WINDOWS,
        },
        file="BENCH_runtime.json",
    )
    assert worst < 5.0, f"registry dispatch overhead {worst:.2f}% exceeds 5%"
