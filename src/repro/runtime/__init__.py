"""Registry-driven execution layer (the runtime).

One layer owns the cross-product the paper's landscape is made of:

* :mod:`repro.runtime.registry` — introspectable catalogs populated by
  ``@register_problem`` / ``@register_solver`` / ``@register_family``
  decorators in the problem, generator, core, and gadget modules;
* :mod:`repro.runtime.driver` — :class:`~repro.runtime.driver.TrialBatch`,
  the one trial executor behind ``Runtime.run(problem, solver, family,
  n, seed)``, ``Runtime.run_many``, and the engine's worker chunks:
  build the instance, dispatch the solver behind one adapter (direct /
  SyncEngine / ViewOracle), verify, return a
  :class:`~repro.runtime.driver.TrialRecord`.

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
    Runtime,
    TrialBatch,
    TrialRecord,
    dispatch_solver,
    verifier_for,
)

__all__ = [
    "FamilyInfo",
    "InstanceCache",
    "ProblemInfo",
    "Runtime",
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
