"""Introspectable catalogs of problems, solvers, and graph families.

The paper's central object is a *landscape*: many LCL problems, each
with deterministic and randomized solvers, evaluated across graph
families.  This module turns that cross-product into data.  Modules
under ``repro.problems``, ``repro.generators``, ``repro.core`` and
``repro.gadgets`` register their contributions with the three
decorators:

* :func:`register_problem` — an LCL (a factory producing an
  :class:`~repro.lcl.problem.NeLCL` or any object with a compatible
  ``verify``), its maximum-degree constraint, and the paper's placement
  of its deterministic/randomized complexity;
* :func:`register_solver` — a solver for a named problem, whether it
  is randomized, and the families it is *sound* on (the instances it
  is guaranteed to produce verifier-accepted outputs for);
* :func:`register_family` — an instance family ``(n, seed) ->
  Instance`` with the structural guarantees its members satisfy.

Everything downstream — the trial executor
:class:`~repro.runtime.driver.TrialBatch`, the engine's declarative
experiments, the CLI's ``list``/``describe`` subcommands, and the
conformance test-suite — reads these catalogs instead of hand-wired
lists; registering a new problem, solver, or family automatically
widens all of them.

Registration is import-driven: :func:`ensure_registered` imports the
known registering packages once, so catalogs are complete in any
process (including pool workers) without a central hand-maintained
manifest.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.util.logmath import Placement

__all__ = [
    "FamilyInfo",
    "ProblemInfo",
    "SolverInfo",
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
    "unsound_triples",
]

# Modules whose import populates the catalogs.  Append-only: a module
# listed here registers itself via the decorators below.
_REGISTERING_MODULES = (
    "repro.problems",
    "repro.generators",
    "repro.core.family",
    "repro.gadgets.proof",
    "repro.gadgets.probes",
)

_PROBLEMS: dict[str, "ProblemInfo"] = {}
_SOLVERS: dict[str, "SolverInfo"] = {}
_FAMILIES: dict[str, "FamilyInfo"] = {}
_BOOTSTRAPPED = False


def _ref_of(obj: Any) -> str:
    """The ``module:qualname`` reference of a module-level callable.

    Empty for factories that are not importable by name (lambdas,
    nested functions) — callers must treat the ref as advisory.
    """
    qualname = getattr(obj, "__qualname__", "")
    if not qualname or "<" in qualname:
        return ""
    return f"{obj.__module__}:{qualname}"


@dataclass(frozen=True)
class ProblemInfo:
    """One catalog entry: an LCL and what instances it is defined on."""

    name: str
    factory: Callable[[], Any]
    description: str = ""
    #: Instances must not exceed this degree to be meaningful inputs
    #: (None = any).
    max_degree: int | None = None
    #: The paper's Figure 1 placement, e.g. ``Placement("Theta", "log")``
    #: (printed ``Theta(log n)``); None where the paper places none.
    paper_det: Placement | None = None
    paper_rand: Placement | None = None
    #: Custom ``(instance, result) -> None`` check; when None the
    #: runtime derives one from the factory (ne-LCL verifier, or the
    #: object's own ``verify``).
    verifier: Callable[[Any, Any], None] | None = None

    def materialize(self) -> Any:
        """Build the problem object (an ``NeLCL`` or richer)."""
        obj = self.factory()
        make = getattr(obj, "problem", None)
        return make() if callable(make) else obj


@dataclass(frozen=True)
class SolverInfo:
    """One catalog entry: a solver, its problem, and where it is sound."""

    name: str
    problem: str
    factory: Callable[[], Any]
    randomized: bool
    families: tuple[str, ...]
    description: str = ""
    #: Importable ``module:qualname`` of the factory when it is a
    #: module-level class/function, "" otherwise (e.g. lambdas).
    #: Advisory — shown by ``describe``; specs name the solver itself.
    ref: str = ""
    #: Declared *negative* probe targets: families the solver runs on
    #: but whose outputs the verifier must REJECT (e.g. corruption
    #: families).  The conformance suite exercises these through the
    #: unsound path (``check_sound=False``) and demands rejection.
    unsound_families: tuple[str, ...] = ()

    def sound_on(self, family_name: str) -> bool:
        return family_name in self.families


@dataclass(frozen=True)
class FamilyInfo:
    """One catalog entry: an instance family and its guarantees."""

    name: str
    builder: Callable[..., Any]
    description: str = ""
    #: Structural guarantees over every produced instance.
    max_degree: int | None = None
    min_degree: int | None = None
    girth_at_least: int | None = None
    #: What the size parameter means: "nodes" (approximate node count)
    #: or "height" (construction parameter; node count grows ~2^size).
    size_kind: str = "nodes"
    #: Small sizes the conformance suite exercises.
    test_sizes: tuple[int, ...] = (8, 17)
    #: Size grid for sweeps up to a node budget; None = geometric
    #: powers-of-two grid from 64.
    grid: Callable[[int], tuple[int, ...]] | None = None
    #: ``n -> core``: the immutable, seed-independent part of an
    #: instance (typically the frozen :class:`PortGraph`).  A family
    #: whose graph depends only on ``n`` provides it with ``dress`` so
    #: batched drivers build the core once per size and re-dress it per
    #: seed; a family whose seed picks the graph provides neither, and
    #: every trial runs the full builder.
    topology: Callable[[int], Any] | None = None
    #: ``(core, n, seed) -> Instance``: attach the cheap per-seed state
    #: (identifiers, inputs labeling, ``NodeRng``) to a shared core.
    #: Must produce an instance equal to ``builder(n, seed)`` except
    #: that the core objects are shared rather than rebuilt.
    dress: Callable[[Any, int, int], Any] | None = None

    @property
    def reusable_topology(self) -> bool:
        """Can batched drivers share one core across seeds of a size?"""
        return self.topology is not None

    def sweep_sizes(self, max_n: int) -> tuple[int, ...]:
        """The family's size grid capped by a node budget (may be empty)."""
        if self.grid is not None:
            return self.grid(max_n)
        ns: list[int] = []
        n = 64
        while n <= max_n:
            ns.append(n)
            n *= 2
        return tuple(ns)


def _register(catalog: dict[str, Any], info: Any) -> None:
    existing = catalog.get(info.name)
    if existing is not None and existing != info:
        raise ValueError(
            f"{type(info).__name__} {info.name!r} is already registered "
            f"with different settings"
        )
    catalog[info.name] = info


def register_problem(
    name: str,
    *,
    description: str = "",
    max_degree: int | None = None,
    paper_det: Placement | None = None,
    paper_rand: Placement | None = None,
    verifier: Callable[[Any, Any], None] | None = None,
):
    """Class/function decorator (or plain call) adding a problem entry.

    The decorated object must be a zero-argument callable whose result
    is either an ``NeLCL`` or an object with a ``problem()`` method
    producing one (the repo's factory-class idiom), or itself an object
    with a ``verify(graph, inputs, outputs)`` method (padded problems).
    """

    def decorate(factory: Callable[[], Any]):
        _register(
            _PROBLEMS,
            ProblemInfo(
                name=name,
                factory=factory,
                description=description,
                max_degree=max_degree,
                paper_det=paper_det,
                paper_rand=paper_rand,
                verifier=verifier,
            ),
        )
        return factory

    return decorate


def register_solver(
    name: str,
    *,
    problem: str,
    families: tuple[str, ...] | list[str],
    randomized: bool | None = None,
    description: str = "",
    unsound_families: tuple[str, ...] | list[str] = (),
):
    """Class/function decorator (or plain call) adding a solver entry.

    The decorated object must be a zero-argument factory producing a
    solver with ``solve(instance) -> RunResult`` (the
    :class:`~repro.local.algorithm.LocalAlgorithm` protocol).
    ``randomized`` defaults to the solver class's ``randomized``
    attribute.  ``unsound_families`` declares negative probe targets:
    families the solver executes on but whose outputs the verifier must
    reject (see :func:`unsound_triples`).
    """
    overlap = set(families) & set(unsound_families)
    if overlap:
        raise ValueError(
            f"solver {name!r} declares {sorted(overlap)} both sound and "
            "unsound; a family is one or the other"
        )

    def decorate(factory: Callable[[], Any]):
        is_rand = randomized
        if is_rand is None:
            is_rand = bool(getattr(factory, "randomized", False))
        _register(
            _SOLVERS,
            SolverInfo(
                name=name,
                problem=problem,
                factory=factory,
                randomized=is_rand,
                families=tuple(families),
                description=description,
                ref=_ref_of(factory),
                unsound_families=tuple(unsound_families),
            ),
        )
        return factory

    return decorate


def register_family(
    name: str,
    *,
    description: str = "",
    max_degree: int | None = None,
    min_degree: int | None = None,
    girth_at_least: int | None = None,
    size_kind: str = "nodes",
    test_sizes: tuple[int, ...] = (8, 17),
    grid: Callable[[int], tuple[int, ...]] | None = None,
    topology: Callable[[int], Any] | None = None,
    dress: Callable[[Any, int, int], Any] | None = None,
):
    """Function decorator adding an instance-family entry.

    The decorated builder is called as ``builder(n, seed, **params)``
    and must return a :class:`~repro.local.algorithm.Instance`.
    Families whose graph depends only on ``n`` may provide the
    ``topology``/``dress`` split so batched drivers can share the
    frozen core across seeds.
    """
    if size_kind not in ("nodes", "height"):
        raise ValueError(f"unknown size_kind {size_kind!r}")
    if (topology is None) != (dress is None):
        raise ValueError(
            f"family {name!r} must provide both topology and dress hooks "
            "(or neither)"
        )

    def decorate(builder: Callable[..., Any]):
        _register(
            _FAMILIES,
            FamilyInfo(
                name=name,
                builder=builder,
                description=description,
                max_degree=max_degree,
                min_degree=min_degree,
                girth_at_least=girth_at_least,
                size_kind=size_kind,
                test_sizes=tuple(test_sizes),
                grid=grid,
                topology=topology,
                dress=dress,
            ),
        )
        return builder

    return decorate


def ensure_registered() -> None:
    """Import every registering module once; idempotent and cheap after."""
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True
    try:
        for module in _REGISTERING_MODULES:
            importlib.import_module(module)
    except Exception:
        # A failed bootstrap must be retryable, not silently half-done.
        _BOOTSTRAPPED = False
        raise


def problems() -> dict[str, ProblemInfo]:
    ensure_registered()
    return dict(_PROBLEMS)


def solvers() -> dict[str, SolverInfo]:
    ensure_registered()
    return dict(_SOLVERS)


def families() -> dict[str, FamilyInfo]:
    ensure_registered()
    return dict(_FAMILIES)


def _lookup(catalog: dict[str, Any], name: str, kind: str) -> Any:
    ensure_registered()
    try:
        return catalog[name]
    except KeyError:
        known = ", ".join(sorted(catalog))
        raise KeyError(f"unknown {kind} {name!r} (known: {known})") from None


def problem(name: str) -> ProblemInfo:
    return _lookup(_PROBLEMS, name, "problem")


def solver(name: str) -> SolverInfo:
    return _lookup(_SOLVERS, name, "solver")


def family(name: str) -> FamilyInfo:
    return _lookup(_FAMILIES, name, "family")


# Memoized display names: a solver's human-facing name is the object's
# ``name`` attribute, which for class factories is readable without
# instantiating anything.  Factories that hide it behind construction
# (lambdas, functions) are materialized at most once per process.
_DISPLAY_NAMES: dict[str, str] = {}


def solver_display_name(name: str) -> str:
    """The ``.name`` a registered solver's instances carry, lazily.

    Matches ``getattr(factory(), "name", name)`` without materializing
    a solver object when the factory is a class exposing ``name`` as a
    class attribute, and memoizing the one materialization otherwise —
    so warm-cache replays never pay solver construction just to label
    their sweeps.
    """
    cached = _DISPLAY_NAMES.get(name)
    if cached is not None:
        return cached
    info = solver(name)
    display = getattr(info.factory, "name", None)
    if not isinstance(display, str):
        display = getattr(info.factory(), "name", name)
    _DISPLAY_NAMES[name] = display
    return display


def solvers_for(problem_name: str) -> list[SolverInfo]:
    """All registered solvers of one problem, name-sorted."""
    ensure_registered()
    return sorted(
        (s for s in _SOLVERS.values() if s.problem == problem_name),
        key=lambda s: s.name,
    )


def compatible(problem_info: ProblemInfo, family_info: FamilyInfo) -> bool:
    """Do the family's guarantees satisfy the problem's degree bound?

    An unknown guarantee (None) is treated as "no promise" and only
    passes an unconstrained problem — soundness declarations must be
    backed by declared structure.
    """
    if problem_info.max_degree is None:
        return True
    return (
        family_info.max_degree is not None
        and family_info.max_degree <= problem_info.max_degree
    )


def sound_triples() -> list[tuple[ProblemInfo, SolverInfo, FamilyInfo]]:
    """The full (problem, solver, family) cross-product, validated.

    One entry per solver per family the solver declared soundness on.
    Dangling names or a declared family that violates the problem's
    structural constraints raise — a mis-registration should fail the
    conformance suite, not silently shrink the landscape.
    """
    ensure_registered()
    out: list[tuple[ProblemInfo, SolverInfo, FamilyInfo]] = []
    for solver_info in sorted(_SOLVERS.values(), key=lambda s: s.name):
        problem_info = problem(solver_info.problem)
        for family_name in solver_info.families:
            family_info = family(family_name)
            if not compatible(problem_info, family_info):
                raise ValueError(
                    f"solver {solver_info.name!r} declares soundness on "
                    f"family {family_name!r}, but that family does not "
                    f"satisfy problem {problem_info.name!r}'s constraints"
                )
            out.append((problem_info, solver_info, family_info))
    return out


def unsound_triples() -> list[tuple[ProblemInfo, SolverInfo, FamilyInfo]]:
    """The declared negative probes, validated like :func:`sound_triples`.

    One entry per solver per family the solver declared *unsound* on.
    These are runs the verifier must REJECT — the conformance suite
    pushes each through the driver with ``check_sound=False`` and
    demands ``verified is False``, so the unsound detection path is
    exercised as systematically as the sound one.
    """
    ensure_registered()
    out: list[tuple[ProblemInfo, SolverInfo, FamilyInfo]] = []
    for solver_info in sorted(_SOLVERS.values(), key=lambda s: s.name):
        problem_info = problem(solver_info.problem)
        for family_name in solver_info.unsound_families:
            out.append((problem_info, solver_info, family(family_name)))
    return out
