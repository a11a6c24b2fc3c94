"""The unified execution driver: one executor for every trial.

:class:`TrialBatch` is the single path every (problem x solver x family)
trial goes through — tests, benches and the engine's worker chunks all
call :meth:`TrialBatch.run_one`:

1. build the instance from the registered family through an
   :class:`InstanceCache`, which shares frozen topology across seeds
   and builds each seeded instance once per process;
2. call the registered solver's ``solve(instance)`` through
   :func:`dispatch_solver`, landing in one
   :class:`~repro.local.algorithm.RunResult` shape whatever the
   execution model (a solver that is a node program or a metered view
   drives :class:`~repro.local.simulator.SyncEngine` or
   :class:`~repro.local.views.ViewOracle` inside its own ``solve``);
3. run the problem's verifier (the ne-LCL checker of
   :mod:`repro.lcl.verifier` by default, which on the vector backend is
   a :class:`~repro.kernels.verifier.VectorPreparedVerifier` kept once
   per shared core; the problem's own ``verify`` for padded problems,
   which reads the gadget analysis the solver built on the instance;
   or a registered custom check);
4. return a :class:`TrialRecord` with outputs, per-node radii, round
   complexity, verification status, and wall time.

Steps 2 and 3 run on the platform's kernel backend
(:data:`repro.kernels.DEFAULT_BACKEND`: ``vector`` where numpy imports,
``object`` otherwise); records are bit-identical on both, and tests
name the object oracle with ``TrialBatch(kernels="object")``.
"""

from __future__ import annotations

import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro import kernels as kernel_layer
from repro.lcl.assignment import Labeling
from repro.lcl.problem import NeLCL
from repro.lcl.verifier import verify as lcl_verify
from repro.local.algorithm import Instance, RunResult
from repro.obs import get_telemetry
from repro.runtime import registry
from repro.runtime.registry import FamilyInfo, ProblemInfo
from repro.util.rng import NodeRng

if TYPE_CHECKING:
    from repro.kernels.verifier import VectorPreparedVerifier

_LOG = logging.getLogger("repro.runtime")

__all__ = [
    "INSTANCE_NODE_BUDGET",
    "InstanceCache",
    "TrialBatch",
    "TrialRecord",
    "dispatch_solver",
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
    verified: bool
    wall_time: float
    extras: dict = field(default_factory=dict)
    #: The verifier's message when it rejected the output.
    rejection: str | None = None

    def summary(self) -> str:
        status = "ok" if self.verified else "FAILED"
        return (
            f"{self.problem} / {self.solver} @ {self.family} "
            f"n={self.actual_n} seed={self.seed}: {self.rounds} rounds, "
            f"{status}, {self.wall_time * 1000:.1f}ms"
        )


def dispatch_solver(solver_obj: Any, instance: Instance) -> RunResult:
    """Run a solver object on an instance: ``solver_obj.solve(instance)``.

    ``solve(instance) -> RunResult`` — the
    :class:`~repro.local.algorithm.LocalAlgorithm` protocol — is the one
    solver protocol; an object without it is a ``TypeError``.
    """
    solve = getattr(solver_obj, "solve", None)
    if solve is None:
        raise TypeError(f"solver {solver_obj!r} has no solve(instance) method")
    return solve(instance)


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


_MISSING = object()

#: The most nodes :class:`InstanceCache` retains at once, in cores and
#: seeded instances together, its own builds and those a pool helper
#: handed over alike (an entry arrives without its derived values and
#: kept verifiers, which are rebuilt on next use).  The canonical grid
#: needs ~41k nodes (9,905 in cores) and the paper-scale
#: ``sinkless-wide`` grid 65,408, so each is built once per process, and
#: one a helper built comes home; a larger instance (Pi_3 and ladder
#: sizes) is built, handed out and dropped, never pinned.
INSTANCE_NODE_BUDGET = 1 << 16


def _num_nodes(kept: Any) -> int:
    """A kept entry's node count: its graph's, or its own when the
    entry is the graph (a core may be a bare ``PortGraph``)."""
    return getattr(kept, "graph", kept).num_nodes


class InstanceCache:
    """Built instances shared across trials: seeded instances per
    ``(family, n, seed)``, frozen-topology cores per ``(family, n)``.

    Families with the ``topology``/``dress`` split build their
    immutable core (the frozen
    :class:`~repro.local.graphs.PortGraph`, plus any other
    seed-independent state) once per ``(family, n)`` and re-dress it per
    seed with the cheap mutable parts — identifiers, inputs labeling,
    ``NodeRng``.

    Seeded-topology families run the full builder once per
    ``(family, n, seed)``: the built instance is kept, and every trial
    on it, the first included, gets it with a fresh ``NodeRng`` of the
    builder's seed (an instance built without one stays without), so
    the specs and solvers that share the random hard inputs share one
    build.

    Cores and seeded instances are kept in one least-recently-used
    order, evicted to hold their total node count (a core counts its
    graph's) within :data:`INSTANCE_NODE_BUDGET`.  An entry larger than
    the budget is returned but not kept, so a core that large is
    rebuilt for every trial and gets no kept verifier.  Solvers and
    verifiers never write to an instance's graph, ids or inputs
    (``tests/test_solver_purity.py``), so records stay bit-identical
    to an unshared build either way.

    Each :meth:`build` counts one telemetry event: a hit — a kept
    instance, or a kept core re-dressed — is
    ``instance_cache.core_reused``; a build that is kept is
    ``instance_cache.core_built``; a build over the budget is
    ``instance_cache.bypassed``.

    On the vector backend the cache also keeps each kept core's
    :class:`~repro.kernels.verifier.VectorPreparedVerifier`, one per
    problem: it pins its core's graph, so it is dropped when its core
    is evicted, and the budget stays a bound on memory.  Seeded
    instances get none: each (instance, problem) pair is verified only
    once or twice.

    What else an entry keeps rides on its inputs labeling
    (:meth:`~repro.lcl.assignment.Labeling.derived`): the values
    derived from the input alone, which the first trial on the entry
    builds and every later one reuses.  A padded instance keeps its
    gadget analysis (:func:`repro.core.virtual_graph.gadget_analysis`:
    its scope and structural verdicts, components, proofs, port status
    and virtual graph), and a gadget core the scope and verdicts that V
    re-reads on every trial.  Unlike a kept verifier, the analysis
    pays off within one trial, since the padded solver and verifier
    both read it, and again on every other solver and spec that shares
    the instance; it costs ~80 bytes per node.  It lives and dies with the
    entry: eviction frees it, and an instance over the budget keeps its
    analysis only while a trial holds the instance.

    An entry may also arrive from another process.  :meth:`hand_over`
    gives the entries this cache built and still keeps since its last
    hand-over, which a pool helper sends home with each chunk result,
    and :meth:`adopt` keeps those whose key the receiving cache lacks,
    under the same budget and order.  An entry travels without its
    derived values (pickling drops them) and without its kept vector
    verifiers (they live beside the entries), so the receiving process
    rebuilds both where it next uses the entry.
    """

    def __init__(self) -> None:
        # (family, n) -> core and (family, n, seed) -> seeded instance,
        # least recently used first.
        self._kept: OrderedDict[tuple, Any] = OrderedDict()
        # core key -> problem name -> vector verifier, or None when the
        # problem is not a plain ne-LCL (custom / padded verification).
        self._prepared: dict[tuple, dict[str, VectorPreparedVerifier | None]] = {}
        # Keys built and kept here since the last hand_over.
        self._fresh: set[tuple] = set()
        self.retained_nodes = 0

    def build(
        self, family_info: FamilyInfo, n: int, seed: int
    ) -> tuple[Instance, tuple[str, int] | None]:
        """One instance of ``family_info`` at ``(n, seed)``, from what
        this cache kept when it can.

        Returns ``(instance, core_key)``; ``core_key`` is the cache key
        of the kept core on a reusable-topology family, and None on a
        seeded one or for a core over the budget.
        """
        if family_info.reusable_topology:
            key = (family_info.name, n)
            if key in self._kept:
                self._count("core_reused")
            core = self.core(family_info, n)
            assert family_info.dress is not None
            return (
                family_info.dress(core, n, seed),
                key if key in self._kept else None,
            )
        key = (family_info.name, n, seed)
        instance = self._kept.get(key)
        if instance is not None:
            self._kept.move_to_end(key)
            self._count("core_reused")
        else:
            instance = family_info.builder(n, seed)
            self._keep_built(key, instance)
        rng = instance.rng
        return (
            replace(instance, rng=None if rng is None else NodeRng(rng.seed)),
            None,
        )

    def hand_over(self) -> list[tuple[tuple, Any]]:
        """The ``(key, entry)`` pairs this cache built and kept since the
        last hand-over and still keeps, least recently used first."""
        fresh = [(key, kept) for key, kept in self._kept.items() if key in self._fresh]
        self._fresh.clear()
        return fresh

    def adopt(self, entries: list[tuple[tuple, Any]]) -> None:
        """Keep each handed-over entry whose key this cache lacks, as a
        build is kept but neither counted nor handed over again; an
        entry it has is left as it is."""
        for key, entry in entries:
            if key not in self._kept:
                self._retain(key, entry)

    def _keep_built(self, key: tuple, entry: Any) -> None:
        """Keep a new build for later trials and the next hand-over, or
        count it bypassed when it alone exceeds the budget."""
        if self._retain(key, entry):
            self._fresh.add(key)
            self._count("core_built")
        else:
            self._count("bypassed")

    def _retain(self, key: tuple, entry: Any) -> bool:
        """Keep ``entry`` under the node budget, evicting the least
        recently used; False (nothing kept) when it alone exceeds it."""
        size = _num_nodes(entry)
        if size > INSTANCE_NODE_BUDGET:
            return False
        self._kept[key] = entry
        self.retained_nodes += size
        while self.retained_nodes > INSTANCE_NODE_BUDGET:
            evicted_key, evicted = self._kept.popitem(last=False)
            self.retained_nodes -= _num_nodes(evicted)
            self._prepared.pop(evicted_key, None)
            self._fresh.discard(evicted_key)
        return True

    def _count(self, event: str) -> None:
        """One :meth:`build` outcome, in telemetry."""
        get_telemetry().incr(f"instance_cache.{event}")

    def core(self, family_info: FamilyInfo, n: int) -> Any:
        """The shared frozen core for ``(family, n)``, building on miss.

        This is the build half of :meth:`build` on a reusable-topology
        family, without the per-seed dressing.
        """
        key = (family_info.name, n)
        core = self._kept.get(key)
        if core is None:
            assert family_info.topology is not None
            core = family_info.topology(n)
            self._keep_built(key, core)
        else:
            self._kept.move_to_end(key)
        return core

    def prepared_verifier(
        self, core_key: tuple[str, int], problem_info: ProblemInfo, instance: Instance
    ) -> VectorPreparedVerifier | None:
        """The kept vector verifier of ``problem_info`` on a shared core,
        for the vector backend only.

        Built on first use per (core, problem) and rebuilt when the
        instance's graph or inputs object is no longer the one it was
        built on (the core under its key was replaced).  None when the
        problem is not a plain ne-LCL (a custom verifier, or a padded
        problem's own ``verify``); that answer is cached too, so the
        probe runs once per core.
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
            entry = None
            if problem_info.verifier is None:
                problem_obj = problem_info.materialize()
                if isinstance(problem_obj, NeLCL):
                    from repro.kernels.verifier import VectorPreparedVerifier

                    entry = VectorPreparedVerifier(
                        problem_obj, instance.graph, instance.inputs
                    )
                    get_telemetry().incr("prepared_verifier.built")
            per_core[problem_info.name] = entry
        elif entry is not None:
            get_telemetry().incr("prepared_verifier.reused")
        return entry


class TrialBatch:
    """The trial executor: many trials of one (problem, solver, family).

    Setup happens once per batch: the three catalog entries are looked
    up and the verifier closure is materialized at construction, frozen
    topology is shared across seeds and seeded instances across trials
    through an :class:`InstanceCache`, and on the vector backend the
    cache keeps a :class:`~repro.kernels.verifier.VectorPreparedVerifier`
    per shared core.  Records are bit-identical to building every
    instance with the family's full builder and checking it with
    :func:`verifier_for` (wall time aside).

    ``check_sound`` rejects combinations the registry does not vouch
    for: the solver must target ``problem`` and declare soundness on
    ``family``.  Pass ``False`` to probe unsound combinations (e.g.
    corruption experiments) — the verifier still reports the truth.
    Trials solve and verify on the platform's backend
    (:data:`repro.kernels.DEFAULT_BACKEND`); ``kernels`` names another
    of :data:`repro.kernels.BACKENDS`, which tests use to run the object
    oracle.  Records are bit-identical across backends.
    """

    def __init__(
        self,
        problem: str,
        solver: str,
        family: str,
        *,
        check_sound: bool = True,
        instances: InstanceCache | None = None,
        kernels: str = kernel_layer.DEFAULT_BACKEND,
    ):
        if kernels not in kernel_layer.BACKENDS:
            raise ValueError(
                f"backend {kernels!r} cannot run here (choose from "
                f"{', '.join(kernel_layer.BACKENDS)})"
            )
        registry.ensure_registered()
        self._backend = kernels
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
        self._checker = verifier_for(self.problem_info)
        _LOG.debug(
            "trial batch ready: %s / %s @ %s",
            self.problem_info.name,
            self.solver_info.name,
            self.family_info.name,
        )

    def _check(self, instance: Instance, result: RunResult, core_key) -> None:
        if core_key is not None and kernel_layer.vector_enabled():
            prepared = self.instances.prepared_verifier(
                core_key, self.problem_info, instance
            )
            if prepared is not None:
                verdict = kernel_layer.prepared_verify(prepared, result.outputs)
                assert verdict.ok, (
                    f"{self.problem_info.name}: {verdict.summary()}"
                )
                return
        self._checker(instance, result)

    def run_one(self, n: int, seed: int = 0) -> TrialRecord:
        """Build, solve, verify one trial; everything it produced in one record."""
        telemetry = get_telemetry()
        start = time.perf_counter()
        with telemetry.span("trial.build"):
            instance, core_key = self.instances.build(self.family_info, n, seed)
        telemetry.incr(f"kernels.{self._backend}_trials")
        verified = True
        rejection: str | None = None
        with kernel_layer.active(self._backend):
            with telemetry.span("trial.solve"):
                result = dispatch_solver(self.solver_info.factory(), instance)
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

