"""One gadget analysis per padded instance.

The Lemma 4 solver and the Section 3.3 verifier read the same facts
about a Pi' instance's input — the gadget scope and each node's
structural verdict, the components with their proofs, the port status
and the virtual graph — and :func:`repro.core.gadget_analysis` builds
them once per inputs labeling.  These tests pin the sharing (a node is
checked once however many trials run on its instance), its safety (a
copy gets its own analysis, a write drops it), its lifetime (it goes
with its instance) and that records do not move.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from collections import Counter

import pytest

from repro import kernels as kernel_layer
from repro.core import (
    PaddedInput,
    PaddedProblem,
    PaddedSolver,
    build_family,
    gadget_analysis,
    hard_instance,
    pad_graph,
)
from repro.core import virtual_graph
from repro.core.hard_instances import _lifted_ids
from repro.gadgets import LogGadgetFamily, build_gadget, checker
from repro.gadgets.labels import NOPORT, GadgetNodeInput
from repro.generators import complete
from repro.local import Instance
from repro.local.identifiers import sequential_ids
from repro.obs import get_telemetry
from repro.problems import DeterministicSinklessSolver, SinklessOrientation
from repro.runtime import InstanceCache, TrialBatch, driver, registry
from repro.runtime.driver import dispatch_solver, verifier_for
from repro.util.rng import NodeRng
from tests.conftest import reference_run

PADDED = ("padded-sinkless", "padded-sinkless-det", "padded-sinkless")
#: The concrete backends a trial can run on here (one without numpy).
BACKENDS = sorted({"object", kernel_layer.select_backend("auto")})


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of the structural checker's node evaluations, by node."""
    calls = Counter()
    original = checker._evaluate_node

    def counted(scope, v, delta):
        calls[v] += 1
        return original(scope, v, delta)

    monkeypatch.setattr(checker, "_evaluate_node", counted)
    return calls


@pytest.fixture
def analyses(monkeypatch):
    """Weak references to every gadget analysis built, in build order."""
    built = []
    original = virtual_graph.GadgetAnalysis.__init__

    def recorded(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(virtual_graph.GadgetAnalysis, "__init__", recorded)
    return built


def _honest_k4():
    """A padded K4 with gadgets of height 3, and a verified Pi' solution."""
    base = complete(4)
    gadgets = [build_gadget(3, 3) for _ in base.nodes()]
    padded = pad_graph(base, gadgets)
    problem = PaddedProblem(SinklessOrientation().problem(), LogGadgetFamily(3))
    instance = Instance(
        padded.graph, sequential_ids(padded.graph.num_nodes), padded.inputs
    )
    result = PaddedSolver(problem, DeterministicSinklessSolver()).solve(instance)
    return padded, problem, result


@pytest.fixture
def counted(evaluations):
    """The structural checker's telemetry since the test began: object
    node checks (also counted by node in ``evaluations``) and numpy
    structural passes."""
    telemetry = get_telemetry()
    names = ("gadgets.node_checks", "gadgets.structural_passes")
    before = {name: telemetry.snapshot()["counters"].get(name, 0) for name in names}

    def delta():
        now = telemetry.snapshot()["counters"]
        return {name.split(".")[1]: now.get(name, 0) - before[name] for name in names}

    return delta


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneCheckPerNode:
    """The object backend evaluates each node of a padded instance once.
    The vector backend runs one structural pass per instance, which
    clears every node of a valid one, so it evaluates none."""

    @staticmethod
    def _assert_checked_once(backend, evaluations, counted, n):
        if backend == "object":
            assert evaluations == Counter(range(n))
            assert counted() == {"node_checks": n, "structural_passes": 0}
        else:
            assert not evaluations
            assert counted() == {"node_checks": 0, "structural_passes": 1}

    def test_solve_and_verify_check_each_node_once(self, backend, evaluations, counted):
        instance = registry.family("padded-sinkless").builder(3, 0)
        with kernel_layer.active(backend):
            result = dispatch_solver(
                registry.solver("padded-sinkless-det").factory(), instance
            )
            verifier_for(registry.problem("padded-sinkless"))(instance, result)
        self._assert_checked_once(
            backend, evaluations, counted, instance.graph.num_nodes
        )

    def test_second_trial_on_a_kept_instance_checks_none(
        self, backend, evaluations, counted, analyses
    ):
        instances = InstanceCache()
        det = TrialBatch(*PADDED, instances=instances, kernels=backend)
        rand = TrialBatch(
            "padded-sinkless", "padded-sinkless-rand", "padded-sinkless",
            instances=instances, kernels=backend,
        )
        first = det.run_one(3, 0)
        assert first.verified
        self._assert_checked_once(backend, evaluations, counted, first.actual_n)
        second = rand.run_one(3, 0)
        assert second.verified
        self._assert_checked_once(backend, evaluations, counted, first.actual_n)
        assert len(analyses) == 1
        assert (instances.built, instances.reused) == (1, 1)


class TestSafety:
    def test_copies_get_their_own_analysis(self):
        padded, problem, result = _honest_k4()
        graph, family = padded.graph, problem.family
        analysis = gadget_analysis(graph, padded.inputs, family)
        assert gadget_analysis(graph, padded.inputs, LogGadgetFamily(3)) is analysis

        twin = padded.inputs.copy()
        assert twin == padded.inputs
        assert gadget_analysis(graph, twin, family) is not analysis
        assert problem.verify(graph, twin, result.outputs).ok

        # Gadget 0 loses the Port tag of its first port: it is no longer
        # a valid gadget, so the honest all-GadOk proof is a lie there.
        corrupted = padded.inputs.copy()
        victim = padded.padded_node(0, padded.gadget_of[0].ports[0])
        old = corrupted.node(victim)
        corrupted.set_node(
            victim,
            PaddedInput(
                old.pi, GadgetNodeInput(old.gadget.role, NOPORT, old.gadget.color)
            ),
        )
        broken = gadget_analysis(graph, corrupted, family)
        assert broken is not analysis
        assert not all(broken.valid) and all(analysis.valid)
        verdict = problem.verify(graph, corrupted, result.outputs)
        assert not verdict.ok
        assert any("Psi_G" in str(v) for v in verdict.violations)
        # the original keeps its own analysis, and still accepts
        assert gadget_analysis(graph, padded.inputs, family) is analysis
        assert problem.verify(graph, padded.inputs, result.outputs).ok

    def test_a_write_drops_the_analysis(self):
        padded, problem, _result = _honest_k4()
        inputs = padded.inputs.copy()
        analysis = gadget_analysis(padded.graph, inputs, problem.family)
        inputs.set_node(0, inputs.node(0))  # any write, even of the same label
        assert gadget_analysis(padded.graph, inputs, problem.family) is not analysis

    def test_pickled_inputs_leave_the_analysis_behind(self):
        padded, problem, _result = _honest_k4()
        analysis = gadget_analysis(padded.graph, padded.inputs, problem.family)
        inputs = pickle.loads(pickle.dumps(padded.inputs))
        assert inputs == padded.inputs
        assert inputs._derived is None
        fresh = gadget_analysis(inputs.graph, inputs, problem.family)
        assert fresh is not analysis
        assert fresh.port_status == analysis.port_status


class TestRecursion:
    def test_pi3_trial_analyses_each_level_once(self, analyses):
        levels = build_family(3, delta=3)
        pi2, pi3 = levels[1], levels[2]
        inner = hard_instance(complete(4), pi2.family, 600)
        inner_ids = _lifted_ids(sequential_ids(4), inner)
        outer = hard_instance(inner.graph, pi3.family, 12_000, inner.inputs)
        instance = Instance(
            outer.graph, _lifted_ids(inner_ids, outer), outer.inputs, 12_000, NodeRng(3)
        )
        result = pi3.det_solver.solve(instance)
        assert pi3.verify(outer.graph, outer.inputs, result.outputs).ok
        # one analysis per padding level, shared by solver and verifier
        assert len(analyses) == 2
        outer_analysis, inner_analysis = (ref() for ref in analyses)
        assert outer_analysis.graph is outer.graph
        assert inner_analysis.graph is outer_analysis.virtual.graph
        # a second solver on the instance builds none
        again = pi3.rand_solver.solve(instance)
        assert pi3.verify(outer.graph, outer.inputs, again.outputs).ok
        assert len(analyses) == 2


class TestRecords:
    @pytest.mark.parametrize("kernels", BACKENDS)
    def test_kept_instance_trials_match_fresh_builds(self, kernels):
        instances = InstanceCache()
        for solver in ("padded-sinkless-det", "padded-sinkless-rand"):
            batch = TrialBatch(
                "padded-sinkless", solver, "padded-sinkless",
                instances=instances, kernels=kernels,
            )
            record = batch.run_one(3, 1)
            instance, result, verified = reference_run(
                "padded-sinkless", solver, "padded-sinkless", 3, 1
            )
            assert verified and record.verified
            assert record.actual_n == instance.graph.num_nodes
            assert record.rounds == result.rounds
            assert record.node_radius == list(result.node_radius)
            assert record.extras == result.extras
            assert record.outputs == result.outputs
        assert (instances.built, instances.reused) == (1, 1)


class TestLifetime:
    def test_eviction_drops_the_analysis(self, monkeypatch, analyses):
        # A height-2 instance has 128 nodes: two do not fit in 200.
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 200)
        batch = TrialBatch(*PADDED)
        was_enabled = gc.isenabled()
        gc.disable()  # freed by reference counting, not by a collection
        try:
            batch.run_one(2, 0)
            assert ("padded-sinkless", 2, 0) in batch.instances._kept
            (first,) = analyses
            assert first() is not None
            batch.run_one(2, 1)  # evicts seed 0's instance
            assert list(batch.instances._kept) == [("padded-sinkless", 2, 1)]
            assert first() is None
            assert analyses[1]() is not None
        finally:
            if was_enabled:
                gc.enable()

    def test_over_budget_instance_keeps_its_analysis_only_in_use(
        self, monkeypatch, analyses
    ):
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 100)
        batch = TrialBatch(*PADDED)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            record = batch.run_one(2, 0)
            assert record.verified and batch.instances.bypassed == 1
            assert len(analyses) == 1 and analyses[0]() is None
        finally:
            if was_enabled:
                gc.enable()
