"""Registry-driven execution layer (the runtime).

One layer owns the cross-product the paper's landscape is made of:

* :mod:`repro.runtime.registry` — introspectable catalogs populated by
  ``@register_problem`` / ``@register_solver`` / ``@register_family``
  decorators in the problem, generator, core, and gadget modules;
* :mod:`repro.runtime.driver` — :class:`~repro.runtime.driver.TrialBatch`,
  the one trial executor: ``TrialBatch(problem, solver, family)
  .run_one(n, seed)`` builds the instance, calls the solver's
  ``solve(instance)``, verifies, and returns a
  :class:`~repro.runtime.driver.TrialRecord`; the engine's worker
  chunks run through it too.

The engine's experiment specs name their (problem, solver, family)
triple by these catalogs' names.
"""

from repro.runtime.registry import (
    FamilyInfo,
    ProblemInfo,
    SolverInfo,
    ensure_registered,
    families,
    family,
    problem,
    problems,
    register_family,
    register_problem,
    register_solver,
    solver,
    solver_display_name,
    solvers,
    solvers_for,
    sound_triples,
)
from repro.runtime.driver import (
    InstanceCache,
    TrialBatch,
    TrialRecord,
    dispatch_solver,
    verifier_for,
)

__all__ = [
    "FamilyInfo",
    "InstanceCache",
    "ProblemInfo",
    "SolverInfo",
    "TrialBatch",
    "TrialRecord",
    "dispatch_solver",
    "ensure_registered",
    "families",
    "family",
    "problem",
    "problems",
    "register_family",
    "register_problem",
    "register_solver",
    "solver",
    "solver_display_name",
    "solvers",
    "solvers_for",
    "sound_triples",
    "verifier_for",
]
