"""Figure 1 assembly: the measured complexity landscape.

Each row of the landscape pairs a problem with its measured
deterministic and randomized complexities (best-fit growth class over
an n-sweep) and the paper's placement, so benches can print paper vs
measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.growth import best_fit
from repro.analysis.sweep import Sweep, run_sweep
from repro.analysis.tables import render_table
from repro.local.algorithm import Instance, LocalAlgorithm
from repro.util.logmath import Placement

__all__ = [
    "LandscapeRow",
    "measure_row",
    "render_landscape",
    "rows_from_engine_reports",
]


@dataclass
class LandscapeRow:
    problem: str
    paper_det: Placement | None
    paper_rand: Placement | None
    det_sweep: Sweep | None
    rand_sweep: Sweep | None
    candidates: Sequence[str] | None = None

    def measured_det(self) -> str:
        return self._measured(self.det_sweep)

    def measured_rand(self) -> str:
        return self._measured(self.rand_sweep)

    def _measured(self, sweep: Sweep | None) -> str:
        if sweep is None:
            return "-"
        if len(sweep.points) < 3:
            return "?"  # growth fitting needs at least three sizes
        fit = best_fit(sweep.ns(), sweep.means(), self.candidates)
        return fit.name

    def row(self) -> list:
        return [
            self.problem,
            self.paper_det or "-",
            self.measured_det(),
            self.paper_rand or "-",
            self.measured_rand(),
        ]


def measure_row(
    problem: str,
    paper_det: Placement | None,
    paper_rand: Placement | None,
    det_solver: LocalAlgorithm | None,
    rand_solver: LocalAlgorithm | None,
    instance_factory: Callable[[int, int], Instance],
    ns: Sequence[int],
    seeds: Sequence[int] = (0, 1, 2),
    candidates: Sequence[str] | None = None,
    verify: Callable[[Instance, object], None] | None = None,
) -> LandscapeRow:
    det_sweep = (
        run_sweep(det_solver, instance_factory, ns, seeds, verify)
        if det_solver
        else None
    )
    rand_sweep = (
        run_sweep(rand_solver, instance_factory, ns, seeds, verify)
        if rand_solver
        else None
    )
    return LandscapeRow(
        problem=problem,
        paper_det=paper_det,
        paper_rand=paper_rand,
        det_sweep=det_sweep,
        rand_sweep=rand_sweep,
        candidates=candidates,
    )


def _growth_sort_key(sweep: Sweep) -> tuple[int, int]:
    """Order sweeps by fitted asymptotic class, unfittable ones last."""
    from repro.analysis.growth import growth_rank

    if len(sweep.points) < 3:
        return (1, 0)  # too few sizes to fit: lose to any fitted sweep
    fit = best_fit(sweep.ns(), sweep.means())
    return (0, growth_rank(fit.name))


def rows_from_engine_reports(reports: Sequence) -> list[LandscapeRow]:
    """Fold engine reports into Figure 1 rows.

    Accepts :class:`~repro.engine.runner.EngineReport` objects, such as
    the ``landscape`` experiment's, and produces one row per (problem,
    family) pair, read from each spec's ``problem``, ``solver`` and
    ``generator`` fields.  When several solvers of one kind cover a
    cell, the deterministic and randomized columns each show the
    *best-per-cell* representative: the solver whose measured rounds
    fit the smallest growth class (ties broken by solver name, sweeps
    too short to fit ranked last) — a cell's entry is the complexity of
    the problem, not of whichever algorithm happened to register first.
    Reports naming an unregistered problem or solver are ignored.
    """
    from repro.runtime import registry

    solvers = registry.solvers()
    problems = registry.problems()
    cells: dict[tuple[str, str], dict[str, list[tuple[str, Sweep]]]] = {}
    for report in reports:
        spec = report.spec
        solver_info = solvers.get(spec.solver)
        if solver_info is None or spec.problem not in problems:
            continue
        kind = "rand" if solver_info.randomized else "det"
        cell = cells.setdefault((spec.problem, spec.generator), {})
        cell.setdefault(kind, []).append((spec.solver, report.sweep))

    def best_per_cell(candidates: list[tuple[str, Sweep]] | None) -> Sweep | None:
        if not candidates:
            return None
        return min(
            candidates, key=lambda entry: (_growth_sort_key(entry[1]), entry[0])
        )[1]

    rows = []
    for (problem_name, family_name), cell in sorted(cells.items()):
        info = problems[problem_name]
        rows.append(
            LandscapeRow(
                problem=f"{problem_name} @ {family_name}",
                paper_det=info.paper_det,
                paper_rand=info.paper_rand,
                det_sweep=best_per_cell(cell.get("det")),
                rand_sweep=best_per_cell(cell.get("rand")),
            )
        )
    return rows


def render_landscape(rows: Sequence[LandscapeRow]) -> str:
    headers = [
        "problem",
        "paper det",
        "measured det",
        "paper rand",
        "measured rand",
    ]
    return render_table(
        headers,
        [row.row() for row in rows],
        title="Figure 1 - the complexity landscape (paper vs measured)",
    )
