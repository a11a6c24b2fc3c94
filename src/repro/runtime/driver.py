"""The unified execution driver: one executor for every trial.

:class:`TrialBatch` is the single path every (problem x solver x family)
trial goes through — :meth:`Runtime.run`, :meth:`Runtime.run_many`, and
the engine's worker chunks all call :meth:`TrialBatch.run_one`:

1. build the instance from the registered family, sharing frozen
   topology across seeds through an :class:`InstanceCache`;
2. dispatch the registered solver through the adapter — directly for
   :class:`~repro.local.algorithm.LocalAlgorithm` objects, via
   :class:`~repro.local.simulator.SyncEngine` for round-based node
   programs (batched through the registered array twin under the
   vector backend), via :class:`~repro.local.views.ViewOracle` for
   view-based programs — landing in one
   :class:`~repro.local.algorithm.RunResult` shape regardless of the
   execution model;
3. run the problem's verifier (the ne-LCL checker of
   :mod:`repro.lcl.verifier` by default, over a skeleton prepared once
   per shared core; the problem's own ``verify`` for padded problems;
   or a registered custom check);
4. return a :class:`TrialRecord` with outputs, per-node radii, round
   complexity, verification status, and wall time.
"""

from __future__ import annotations

import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import kernels as kernel_layer
from repro.lcl.assignment import Labeling
from repro.lcl.problem import NeLCL
from repro.lcl.verifier import PreparedVerifier
from repro.lcl.verifier import verify as lcl_verify
from repro.local.algorithm import Instance, RunResult
from repro.local.simulator import SyncEngine
from repro.local.views import ViewOracle
from repro.obs import get_telemetry
from repro.runtime import registry
from repro.runtime.registry import FamilyInfo, ProblemInfo, SolverInfo

_LOG = logging.getLogger("repro.runtime")

__all__ = [
    "InstanceCache",
    "Runtime",
    "TrialBatch",
    "TrialRecord",
    "dispatch_solver",
    "prepared_verifier_for",
    "verifier_for",
]


@dataclass
class TrialRecord:
    """Everything one trial produced, in one flat record."""

    problem: str
    solver: str
    family: str
    n: int
    actual_n: int
    seed: int
    rounds: int
    node_radius: list[int]
    outputs: Labeling
    verified: bool | None  # None = verification skipped
    wall_time: float
    extras: dict = field(default_factory=dict)
    #: The verifier's message when it rejected the output.
    rejection: str | None = None

    def summary(self) -> str:
        status = {True: "ok", False: "FAILED", None: "unverified"}[self.verified]
        return (
            f"{self.problem} / {self.solver} @ {self.family} "
            f"n={self.actual_n} seed={self.seed}: {self.rounds} rounds, "
            f"{status}, {self.wall_time * 1000:.1f}ms"
        )


def dispatch_solver(
    solver_obj: Any,
    instance: Instance,
    array_program: Callable[[], Any] | None = None,
) -> RunResult:
    """Run a solver object on an instance, whatever its execution model.

    Three shapes are accepted, checked in order:

    * ``solve(instance) -> RunResult`` — the repo-wide
      :class:`~repro.local.algorithm.LocalAlgorithm` protocol (covers
      solvers that drive ``SyncEngine``/``ViewOracle`` internally);
    * ``node_factory(v, instance)`` plus ``finish(instance, engine_result)
      -> Labeling`` — a round-based node program; the adapter runs it on
      :class:`~repro.local.simulator.SyncEngine` and charges each node
      the round it halted at;
    * ``run_views(oracle, instance) -> Labeling`` — a view-based
      program; the adapter meters it through
      :class:`~repro.local.views.ViewOracle` and charges each node the
      largest radius it consulted.

    ``array_program`` (usually the registry's
    :attr:`~repro.runtime.registry.SolverInfo.array_program`, else the
    solver object's own attribute) is the node program's batched twin;
    the engine runs it instead of the object loop under the vector
    kernel backend, with bit-identical records.
    """
    if hasattr(solver_obj, "solve"):
        return solver_obj.solve(instance)
    if hasattr(solver_obj, "node_factory"):
        if array_program is None:
            array_program = getattr(solver_obj, "array_program", None)
        engine = SyncEngine(
            instance, solver_obj.node_factory, array_program=array_program
        )
        engine_result = engine.run()
        outputs = solver_obj.finish(instance, engine_result)
        return RunResult(
            outputs=outputs,
            node_radius=engine_result.node_radius(),
            extras={"engine_rounds": engine_result.rounds},
        )
    if hasattr(solver_obj, "run_views"):
        oracle = ViewOracle(instance.graph)
        outputs = solver_obj.run_views(oracle, instance)
        return RunResult(
            outputs=outputs,
            node_radius=oracle.node_radii(),
            extras={"view_rounds": oracle.rounds()},
        )
    raise TypeError(
        f"solver {solver_obj!r} implements none of the adapter protocols "
        "(solve / node_factory+finish / run_views)"
    )


def verifier_for(problem_info: ProblemInfo) -> Callable[[Instance, RunResult], None]:
    """An ``(instance, result) -> None`` check for a registered problem.

    Preference order: the problem's registered custom verifier, the
    problem object's own ``verify(graph, inputs, outputs)`` (padded
    problems), then the ne-LCL checker of :mod:`repro.lcl.verifier`.
    Raises ``AssertionError`` with the verdict summary on rejection.
    """
    if problem_info.verifier is not None:
        return problem_info.verifier
    # The problem object is materialized on first use and then reused:
    # problems are stateless, and a batch of trials sharing one closure
    # should not rebuild label sets and constraint tables per trial.
    problem_cell: list[Any] = []

    def check(instance: Instance, result: RunResult) -> None:
        if not problem_cell:
            problem_cell.append(problem_info.materialize())
        problem_obj = problem_cell[0]
        inputs = instance.inputs
        if inputs is None:
            inputs = Labeling(instance.graph)
        own_verify = getattr(problem_obj, "verify", None)
        if callable(own_verify) and not isinstance(problem_obj, NeLCL):
            verdict = own_verify(instance.graph, inputs, result.outputs)
        else:
            verdict = lcl_verify(problem_obj, instance.graph, inputs, result.outputs)
        assert verdict.ok, (
            f"{problem_info.name}: {verdict.summary()}"
        )

    return check


def prepared_verifier_for(
    problem_info: ProblemInfo, instance: Instance
) -> PreparedVerifier | None:
    """A skeleton-precomputed verifier for trials sharing this instance's
    graph and inputs, or None when the problem does not go through the
    plain ne-LCL check (custom verifiers, padded problems).

    A returned verifier accepts exactly the outputs
    :func:`verifier_for`'s closure accepts; callers reuse it only for
    instances whose ``graph``/``inputs`` are identical objects.
    """
    if problem_info.verifier is not None:
        return None
    problem_obj = problem_info.materialize()
    if not isinstance(problem_obj, NeLCL):
        return None
    return PreparedVerifier(problem_obj, instance.graph, instance.inputs)


_MISSING = object()


class InstanceCache:
    """Frozen-topology cores shared across the seeds of one size.

    Families that declare ``topology_seeded=False`` with the
    ``topology``/``dress`` split build their immutable core (the frozen
    :class:`~repro.local.graphs.PortGraph`, plus any other
    seed-independent state) once per ``(family, n)`` and re-dress it per
    seed with the cheap mutable parts — identifiers, inputs labeling,
    ``NodeRng``.  Seeded-topology families always fall through to the
    full builder, so records stay bit-identical to an unshared build
    either way.

    The cache also holds each core's prepared verifier skeletons, one
    per problem: a skeleton pins its core's graph, so it is dropped when
    its core is evicted, keeping the capacity a bound on memory.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("instance cache needs capacity >= 1")
        self.capacity = capacity
        self._cores: OrderedDict[tuple[str, int], Any] = OrderedDict()
        # core key -> problem name -> PreparedVerifier, or None when the
        # problem is not preparable (custom / padded verification).
        self._prepared: dict[tuple[str, int], dict[str, PreparedVerifier | None]] = {}
        self.built = 0
        self.reused = 0
        self.bypassed = 0

    def build(
        self, family_info: FamilyInfo, n: int, seed: int
    ) -> tuple[Instance, tuple[str, int] | None]:
        """Build one instance, reusing the frozen core when allowed.

        Returns ``(instance, core_key)``; ``core_key`` is None when the
        full builder ran (seeded topology), and the cache key of the
        shared core otherwise.
        """
        if not family_info.reusable_topology:
            self.bypassed += 1
            get_telemetry().incr("instance_cache.bypassed")
            return family_info.builder(n, seed), None
        key = (family_info.name, n)
        hit = key in self._cores
        core = self.core(family_info, n)
        if hit:
            self.reused += 1
            get_telemetry().incr("instance_cache.core_reused")
        assert family_info.dress is not None
        return family_info.dress(core, n, seed), key

    def core(self, family_info: FamilyInfo, n: int) -> Any:
        """The shared frozen core for ``(family, n)``, building on miss.

        This is the build half of :meth:`build` without the per-seed
        dressing.
        """
        key = (family_info.name, n)
        core = self._cores.get(key)
        if core is None:
            assert family_info.topology is not None
            core = family_info.topology(n)
            self._cores[key] = core
            if len(self._cores) > self.capacity:
                evicted, _ = self._cores.popitem(last=False)
                self._prepared.pop(evicted, None)
            self.built += 1
            get_telemetry().incr("instance_cache.core_built")
        else:
            self._cores.move_to_end(key)
        return core

    def prepared_verifier(
        self, core_key: tuple[str, int], problem_info: ProblemInfo, instance: Instance
    ) -> PreparedVerifier | None:
        """The prepared verifier of ``problem_info`` on a shared core.

        Built on first use per (core, problem) and rebuilt when the
        instance's graph or inputs object is no longer the one the
        skeleton was prepared on (the core under its key was replaced).
        None when the problem is not preparable; that answer is cached
        too, so the probe runs once per core.
        """
        per_core = self._prepared.setdefault(core_key, {})
        entry = per_core.get(problem_info.name, _MISSING)
        if entry is _MISSING or (
            entry is not None
            and (
                entry.graph is not instance.graph
                or entry.inputs_src is not instance.inputs
            )
        ):
            entry = prepared_verifier_for(problem_info, instance)
            per_core[problem_info.name] = entry
            if entry is not None:
                get_telemetry().incr("prepared_verifier.built")
        elif entry is not None:
            get_telemetry().incr("prepared_verifier.reused")
        return entry


class TrialBatch:
    """The trial executor: many trials of one (problem, solver, family).

    Setup happens once per batch: the three catalog entries are looked
    up and the verifier closure is materialized at construction, frozen
    topology is shared across seeds through an :class:`InstanceCache`,
    and the cache keeps a :class:`~repro.lcl.verifier.PreparedVerifier`
    per shared core.  Records are bit-identical to building every
    instance with the family's full builder and checking it with
    :func:`verifier_for` (wall time aside).

    ``check_sound`` rejects combinations the registry does not vouch
    for: the solver must target ``problem`` and declare soundness on
    ``family``.  Pass ``False`` to probe unsound combinations (e.g.
    corruption experiments) — the verifier still reports the truth.
    ``kernels`` picks the implementation layer for solve+verify (see
    :mod:`repro.kernels`); records are bit-identical across backends.
    """

    def __init__(
        self,
        problem: str,
        solver: str,
        family: str,
        *,
        verify: bool = True,
        check_sound: bool = True,
        instances: InstanceCache | None = None,
        kernels: str = "auto",
    ):
        registry.ensure_registered()
        self._kernels = kernel_layer.ensure_mode(kernels)
        self.problem_info = registry.problem(problem)
        self.solver_info = registry.solver(solver)
        self.family_info = registry.family(family)
        if check_sound:
            if self.solver_info.problem != self.problem_info.name:
                raise ValueError(
                    f"solver {solver!r} solves {self.solver_info.problem!r}, "
                    f"not {problem!r}"
                )
            if not self.solver_info.sound_on(self.family_info.name):
                raise ValueError(
                    f"solver {solver!r} is not declared sound on family "
                    f"{family!r} (sound on: "
                    f"{', '.join(self.solver_info.families)})"
                )
        self.instances = instances if instances is not None else InstanceCache()
        self._verify = verify
        self._checker = verifier_for(self.problem_info) if verify else None
        _LOG.debug(
            "trial batch ready: %s / %s @ %s (verify=%s)",
            self.problem_info.name,
            self.solver_info.name,
            self.family_info.name,
            verify,
        )

    def _check(self, instance: Instance, result: RunResult, core_key) -> None:
        if core_key is not None:
            prepared = self.instances.prepared_verifier(
                core_key, self.problem_info, instance
            )
            if prepared is not None:
                verdict = kernel_layer.prepared_verify(prepared, result.outputs)
                assert verdict.ok, (
                    f"{self.problem_info.name}: {verdict.summary()}"
                )
                return
        assert self._checker is not None
        self._checker(instance, result)

    def run_one(self, n: int, seed: int = 0) -> TrialRecord:
        """Build, solve, verify one trial; everything it produced in one record."""
        telemetry = get_telemetry()
        start = time.perf_counter()
        with telemetry.span("trial.build"):
            instance, core_key = self.instances.build(self.family_info, n, seed)
        backend = kernel_layer.select_backend(self._kernels)
        telemetry.incr(f"kernels.{backend}_trials")
        verified: bool | None = None
        rejection: str | None = None
        with kernel_layer.active(backend):
            with telemetry.span("trial.solve"):
                result = dispatch_solver(
                    self.solver_info.factory(),
                    instance,
                    self.solver_info.array_program,
                )
            if self._verify:
                verified = True
                try:
                    with telemetry.span("trial.verify"):
                        self._check(instance, result, core_key)
                except AssertionError as err:
                    verified = False
                    rejection = str(err)
        telemetry.incr("trials.executed")
        return TrialRecord(
            problem=self.problem_info.name,
            solver=self.solver_info.name,
            family=self.family_info.name,
            n=n,
            actual_n=instance.graph.num_nodes,
            seed=seed,
            rounds=result.rounds,
            node_radius=list(result.node_radius),
            outputs=result.outputs,
            verified=verified,
            wall_time=time.perf_counter() - start,
            extras=dict(result.extras),
            rejection=rejection,
        )


class Runtime:
    """Registry-driven execution of (problem, solver, family) triples."""

    def __init__(self) -> None:
        registry.ensure_registered()

    # -- catalog passthrough (the driver is the natural API surface) ----

    def triples(self) -> list[tuple[ProblemInfo, SolverInfo, FamilyInfo]]:
        """The validated sound cross-product (see the registry)."""
        return registry.sound_triples()

    # -- the three stages ----------------------------------------------

    def build_instance(self, family: str, n: int, seed: int = 0) -> Instance:
        """Build one instance of a registered family."""
        return registry.family(family).builder(n, seed)

    def solve(self, solver: str, instance: Instance) -> RunResult:
        """Instantiate a registered solver and dispatch it on an instance."""
        solver_info = registry.solver(solver)
        return dispatch_solver(
            solver_info.factory(), instance, solver_info.array_program
        )

    def verify(
        self, problem: str, instance: Instance, result: RunResult
    ) -> bool:
        """True iff the registered verifier accepts the result."""
        try:
            verifier_for(registry.problem(problem))(instance, result)
        except AssertionError:
            return False
        return True

    # -- the unified entry points (both are TrialBatch runs) ------------

    def run(
        self,
        problem: str,
        solver: str,
        family: str,
        n: int,
        seed: int = 0,
        verify: bool = True,
        check_sound: bool = True,
        kernels: str = "auto",
    ) -> TrialRecord:
        """One trial: a :class:`TrialBatch` of one (see it for the flags)."""
        return self.run_many(
            problem, solver, family, (n,), (seed,), verify, check_sound, kernels
        )[0]

    def run_many(
        self,
        problem: str,
        solver: str,
        family: str,
        ns: Sequence[int],
        seeds: Sequence[int] = (0,),
        verify: bool = True,
        check_sound: bool = True,
        kernels: str = "auto",
    ) -> list[TrialRecord]:
        """One :class:`TrialBatch` over the (ns x seeds) grid, n-major.

        Catalog lookups, soundness checks, and the verifier closure are
        set up once; families with seed-independent topology share one
        frozen core (and one prepared verifier skeleton) across all
        seeds of a size.
        """
        batch = TrialBatch(
            problem,
            solver,
            family,
            verify=verify,
            check_sound=check_sound,
            kernels=kernels,
        )
        return [batch.run_one(n, seed) for n in ns for seed in seeds]
