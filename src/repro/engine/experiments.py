"""Named experiments, generated from the runtime registry.

Every spec here names its (problem, solver, family) triple by registry
name — picklable to any worker process, content-hashable by the trial
cache, and looked up in the catalogs rather than hand-wired factories:

* ``sinkless``  — the Figure 1 separation dot: deterministic
  Theta(log n) vs randomized Theta(loglog n) sinkless orientation on
  random cubic instances;
* ``padding``   — Theorem 1 / Lemma 4: the padded solver's rounds
  across gadget heights (the grid values are heights, not node
  counts; the reported n is the padded instance size);
* ``gadget``    — Lemma 10: the prover V's O(log n) radius on valid
  gadgets of growing height;
* ``landscape`` — the *full* sound (problem x solver x family)
  cross-product of the registry: one spec per triple whose family
  grid fits the size budget.  Registering a new problem, solver, or
  family widens this experiment automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.spec import ExperimentSpec
from repro.runtime import registry
from repro.runtime.registry import FamilyInfo, ProblemInfo, SolverInfo

__all__ = ["EXPERIMENTS", "Experiment", "build_experiment"]


def _registry_spec(
    experiment: str,
    problem: ProblemInfo,
    solver: SolverInfo,
    family: FamilyInfo,
    ns: tuple[int, ...],
    seeds: tuple[int, ...],
) -> ExperimentSpec:
    """One spec for one registered triple, by registry name."""
    return ExperimentSpec(
        name=f"{experiment}/{problem.name}/{solver.name}@{family.name}",
        problem=problem.name,
        solver=solver.name,
        generator=family.name,
        ns=ns,
        seeds=seeds,
    )


def _named_triple(
    solver_name: str, family_name: str
) -> tuple[ProblemInfo, SolverInfo, FamilyInfo]:
    solver = registry.solver(solver_name)
    return registry.problem(solver.problem), solver, registry.family(family_name)


# -- the named experiments ---------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A named group of specs plus how to scale it to a size budget."""

    name: str
    description: str
    build: Callable[[int, tuple[int, ...]], list[ExperimentSpec]]
    default_max_n: int
    default_seed_count: int


def _build_sinkless(max_n: int, seeds: tuple[int, ...]) -> list[ExperimentSpec]:
    ns = registry.family("cubic").sweep_sizes(max_n)
    if not ns:
        raise ValueError(
            "sinkless experiment needs --max-n >= 64 (the smallest "
            "cubic grid point has 64 nodes)"
        )
    specs = []
    for solver_name in ("sinkless-det", "sinkless-rand"):
        problem, solver, family = _named_triple(solver_name, "cubic")
        specs.append(
            _registry_spec("sinkless", problem, solver, family, ns, seeds)
        )
    return specs


def _build_padding(max_n: int, seeds: tuple[int, ...]) -> list[ExperimentSpec]:
    problem, solver, family = _named_triple("padded-sinkless-det", "padded-sinkless")
    heights = family.sweep_sizes(max_n)
    if not heights:
        raise ValueError(
            "padding experiment needs --max-n >= 128 (the smallest "
            "height-2 padded instance has ~128 nodes)"
        )
    return [_registry_spec("padding", problem, solver, family, heights, seeds)]


def _build_gadget(max_n: int, seeds: tuple[int, ...]) -> list[ExperimentSpec]:
    del seeds  # the prover is deterministic; one seed suffices
    problem, solver, family = _named_triple("gadget-prover", "gadget")
    heights = family.sweep_sizes(max_n)
    if not heights:
        raise ValueError(
            "gadget experiment needs --max-n >= 16 (the smallest "
            "height-3 gadget has ~22 nodes)"
        )
    return [_registry_spec("gadget", problem, solver, family, heights, (0,))]


def _build_landscape(max_n: int, seeds: tuple[int, ...]) -> list[ExperimentSpec]:
    """The full sound cross-product of the registry, one spec per triple."""
    specs = []
    node_graded = False
    for problem, solver, family in registry.sound_triples():
        ns = family.sweep_sizes(max_n)
        if not ns:
            continue  # family's smallest member exceeds the budget
        node_graded = node_graded or family.size_kind == "nodes"
        spec_seeds = seeds if solver.randomized else seeds[:1]
        specs.append(
            _registry_spec("landscape", problem, solver, family, ns, spec_seeds)
        )
    if not node_graded:
        raise ValueError(
            "landscape experiment needs --max-n >= 64 (the smallest "
            "grid point of every node-graded family)"
        )
    return specs


EXPERIMENTS: dict[str, Experiment] = {
    "sinkless": Experiment(
        "sinkless",
        "deterministic vs randomized sinkless orientation (Figure 1 dot)",
        _build_sinkless,
        default_max_n=4096,
        default_seed_count=2,
    ),
    "padding": Experiment(
        "padding",
        "Theorem 1 multiplicative padding overhead across gadget heights",
        _build_padding,
        default_max_n=4096,
        default_seed_count=1,
    ),
    "gadget": Experiment(
        "gadget",
        "Lemma 10 prover V radius on valid gadgets",
        _build_gadget,
        default_max_n=2048,
        default_seed_count=1,
    ),
    "landscape": Experiment(
        "landscape",
        "the registry's full sound problem x solver x family cross-product",
        _build_landscape,
        default_max_n=1024,
        default_seed_count=2,
    ),
}


def build_experiment(
    name: str, max_n: int | None = None, seed_count: int | None = None
) -> list[ExperimentSpec]:
    """Instantiate a named experiment's specs at the requested scale."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r} (known: {known})") from None
    if seed_count is None:
        seed_count = experiment.default_seed_count
    if seed_count < 1:
        raise ValueError(f"need at least one seed, got --seeds {seed_count}")
    if max_n is None:
        max_n = experiment.default_max_n
    if max_n < 1:
        raise ValueError(f"--max-n must be positive, got {max_n}")
    return experiment.build(max_n, tuple(range(seed_count)))
