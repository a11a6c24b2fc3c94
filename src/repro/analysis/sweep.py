"""n-sweeps: run a solver across sizes and seeds, collect round counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.local.algorithm import Instance, LocalAlgorithm
from repro.runtime.driver import dispatch_solver

__all__ = ["SweepPoint", "Sweep", "aggregate_points", "run_sweep"]

InstanceFactory = Callable[[int, int], Instance]


@dataclass
class SweepPoint:
    n: int
    trials: int
    rounds_mean: float
    rounds_max: int
    rounds_min: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(
                f"SweepPoint(n={self.n}) needs at least one trial; a mean "
                "over zero trials is undefined"
            )

    def row(self) -> list:
        return [self.n, self.trials, round(self.rounds_mean, 2), self.rounds_max]


@dataclass
class Sweep:
    solver_name: str
    points: list[SweepPoint]

    def ns(self) -> list[int]:
        return [p.n for p in self.points]

    def means(self) -> list[float]:
        return [p.rounds_mean for p in self.points]


def aggregate_points(
    ns: Sequence[int], seeds: Sequence[int], records: Sequence[dict[str, Any]]
) -> list[SweepPoint]:
    """Fold grid-ordered records into one SweepPoint per requested n.

    ``records`` run n-major, seed-minor over the ``ns x seeds`` grid.
    The reported ``n`` is the actual size of the point's (last)
    instance, and the mean is taken over the seed grid in seed order —
    hence bit-stable.
    """
    if not seeds:
        raise ValueError("aggregation needs at least one seed per point")
    per_point = len(seeds)
    if len(records) != len(ns) * per_point:
        raise ValueError(
            f"record count {len(records)} does not cover the "
            f"{len(ns)}x{per_point} trial grid"
        )
    points = []
    for i, _n in enumerate(ns):
        chunk = records[i * per_point : (i + 1) * per_point]
        rounds = [record["rounds"] for record in chunk]
        points.append(
            SweepPoint(
                n=chunk[-1]["actual_n"],
                trials=len(rounds),
                rounds_mean=sum(rounds) / len(rounds),
                rounds_max=max(rounds),
                rounds_min=min(rounds),
            )
        )
    return points


def run_sweep(
    solver: LocalAlgorithm,
    instance_factory: InstanceFactory,
    ns: Sequence[int],
    seeds: Sequence[int] = (0, 1, 2),
    verify: Callable[[Instance, object], None] | None = None,
) -> Sweep:
    """Measure a live ``solver`` object on instances of each size.

    ``instance_factory(n, seed)`` builds one instance; the reported
    ``n`` is the actual instance size (which may differ slightly from
    the requested one, e.g. for gadget-rounded paddings).  ``verify``
    (if given) receives ``(instance, result)`` after every run and
    should raise on invalid outputs, so sweeps never report rounds of
    wrong solutions.

    Live objects and closures have no content hash, so this loop is
    serial and uncached; registered solvers and families run in
    parallel and cached through :func:`repro.engine.runner.run_experiment`.
    """
    if not seeds:
        raise ValueError("run_sweep needs at least one seed (got an empty grid)")
    records = []
    for n in ns:
        for seed in seeds:
            instance = instance_factory(n, seed)
            result = dispatch_solver(solver, instance)
            if verify is not None:
                verify(instance, result)
            records.append(
                {"actual_n": instance.graph.num_nodes, "rounds": result.rounds}
            )
    return Sweep(
        solver_name=solver.name, points=aggregate_points(ns, seeds, records)
    )
