"""Tests for :mod:`repro.kernels`: backend selection, the vectorized
verifier twin, and record parity across the whole engine stack.

The object layer is the oracle everywhere: with or without numpy, with
any worker count or shard count, trial records must be bit-identical —
the vector backend only buys time, never different answers.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import kernels
from repro.engine.experiments import build_experiment
from repro.engine.runner import plan_experiment, run_experiment, run_shard
from repro.engine.spec import ExperimentSpec
from repro.generators import cycle
from repro.lcl import Labeling, verify
from repro.runtime import TrialBatch
from tests.conftest import multigraphs, reference_run

needs_numpy = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="vector kernels need numpy"
)


PARITY_SPEC = ExperimentSpec(
    "kernels/degree-parity/parity@cycle",
    "degree-parity",
    "parity",
    "cycle",
    ns=(8, 16),
    seeds=(0, 1),
)


def _record_keys(report):
    return [json.dumps(r, sort_keys=True) for r in report.records]


def _shard_record_keys(plan, reports):
    """:func:`_record_keys` of the shards' records, assembled by their
    global trial index."""
    records = [None] * plan.trial_count()
    for report in reports:
        for i, record in report.records:
            records[i] = record
    return [json.dumps(r, sort_keys=True) for r in records]


def _corruptions(outputs):
    """Corrupted copies of a valid labeling, each broken differently.

    The labels stay of the kinds the solver wrote (constraints may
    unpack them): one copy moves every third set label to another label
    its kind takes elsewhere, the other shifts every label of one kind
    one element along.
    """
    setters = {
        "node": Labeling.set_node,
        "edge": Labeling.set_edge,
        "half": Labeling.set_half,
    }
    by_kind = {}
    for kind, key, label in outputs.items():
        by_kind.setdefault(kind, []).append((key, label))
    moved = outputs.copy()
    for kind, entries in by_kind.items():
        labels = sorted({label for _, label in entries}, key=repr)
        for index, (key, label) in enumerate(entries):
            others = [other for other in labels if other != label]
            if index % 3 == 0 and others:
                setters[kind](moved, key, others[0])
    shifted = outputs.copy()
    kind, entries = max(by_kind.items(), key=lambda item: len(item[1]))
    for (key, _), (_, label) in zip(entries, entries[1:] + entries[:1]):
        setters[kind](shifted, key, label)
    return [moved, shifted]


def _counter_total(telemetry_block, name):
    """Sum one counter across the delta parts of a merged snapshot."""
    if not telemetry_block:
        return 0
    total = 0
    for part in telemetry_block.get("parts", {}).values():
        total += part.get("counters", {}).get(name, 0)
    return total


# -- backend selection --------------------------------------------------------


class TestBackendSelection:
    def test_ensure_mode_rejects_junk(self):
        with pytest.raises(ValueError, match="unknown kernels mode"):
            kernels.ensure_mode("simd")
        for mode in kernels.BACKENDS:
            assert kernels.ensure_mode(mode) == mode

    def test_active_needs_concrete_backend(self):
        with pytest.raises(ValueError, match="concrete backend"):
            with kernels.active("auto"):
                pass

    def test_active_restores_previous_backend(self):
        assert kernels.current_backend() == "object"
        with kernels.active("vector"):
            assert kernels.current_backend() == "vector"
            with kernels.active("object"):
                assert kernels.current_backend() == "object"
            assert kernels.current_backend() == "vector"
        assert kernels.current_backend() == "object"

    def test_object_mode_always_object(self):
        assert kernels.select_backend("object") == "object"

    @pytest.mark.parametrize(
        "have_numpy", [pytest.param(True, marks=needs_numpy), False]
    )
    def test_auto_follows_numpy_alone(self, monkeypatch, have_numpy):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", have_numpy)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", True)
        expected = "vector" if have_numpy else "object"
        assert kernels.select_backend("auto") == expected
        assert kernels.select_backend("vector") == expected
        assert kernels.select_backend("object") == "object"

    def test_vector_enabled_is_ambient(self):
        assert not kernels.vector_enabled()
        with kernels.active("vector"):
            assert kernels.vector_enabled() == kernels.HAVE_NUMPY

    def test_degrades_without_numpy_with_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", False)
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            assert kernels.select_backend("vector") == "object"
            assert kernels.select_backend("auto") == "object"
            assert kernels.select_backend("vector") == "object"
        warnings = [
            rec for rec in caplog.records if "degrade" in rec.getMessage()
        ]
        assert len(warnings) == 1  # logged once, not per call
        with kernels.active("vector"):
            assert not kernels.vector_enabled()

    def test_only_an_explicit_vector_request_warns(self, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", False)

        def warnings():
            return [
                rec for rec in caplog.records if "degrade" in rec.getMessage()
            ]

        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            for _ in range(3):
                assert kernels.select_backend("auto") == "object"
            assert warnings() == []  # the default mode degrades silently
            assert kernels.select_backend("vector") == "object"
            assert kernels.select_backend("vector") == "object"
            assert len(warnings()) == 1

    def test_runtime_works_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", True)
        record = TrialBatch(
            "degree-parity", "parity", "cycle", kernels="vector"
        ).run_one(16)
        assert record.verified


class TestPreload:
    """Each check runs in a fresh interpreter, so that modules other
    tests imported cannot hide what ``preload`` loads."""

    @staticmethod
    def _modules_loaded_by(mode):
        code = (
            "import sys\n"
            "from repro import kernels\n"
            "before = set(sys.modules)\n"
            f"kernels.preload({mode!r})\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        return set(result.stdout.split())

    def test_object_mode_imports_nothing(self):
        assert self._modules_loaded_by("object") == set()

    def test_auto_mode_loads_the_vector_backend(self):
        loaded = self._modules_loaded_by("auto")
        if not kernels.HAVE_NUMPY:
            assert loaded == set()
            return
        assert {
            "numpy.ma",
            "repro.kernels.engine",
            "repro.kernels.programs",
            "repro.kernels.vector",
            "repro.kernels.verifier",
        } <= loaded


# -- the vectorized verifier twin --------------------------------------------


@needs_numpy
class TestVectorVerifierTwin:
    def _checked(self, problem, graph, outputs):
        inputs = Labeling(graph)
        expected = verify(problem, graph, inputs, outputs)
        with kernels.active("vector"):
            got = verify(problem, graph, inputs, outputs)
        assert got.ok == expected.ok
        assert got.violations == expected.violations
        return expected

    def test_violation_lists_identical_including_order(self):
        from repro.problems import VertexColoring

        graph = cycle(24)
        problem = VertexColoring(2).problem()
        outputs = Labeling(graph)
        for v in graph.nodes():
            # domain breakage, node-constraint breakage, and valid
            # stretches all mixed together
            outputs.set_node(v, "junk" if v % 5 == 4 else v % 2)
        verdict = self._checked(problem, graph, outputs)
        assert not verdict.ok
        kinds = {violation.kind for violation in verdict.violations}
        assert "domain" in kinds

    def test_kept_verifier_matches_verify_call_after_call(self):
        # A kept verifier checks one output after another, as a seed
        # sweep on a shared core does: its memo of constraint verdicts
        # carries over between calls, and every verdict stays verify's.
        from repro.kernels.verifier import VectorPreparedVerifier
        from repro.problems import VertexColoring

        graph = cycle(32)
        problem = VertexColoring(3).problem()
        kept = VectorPreparedVerifier(problem, graph)

        def coloring(color):
            outputs = Labeling(graph)
            for v in graph.nodes():
                outputs.set_node(v, color(v))
            return outputs

        proper = coloring(lambda v: v % 3)
        runs = [
            proper,
            coloring(lambda v: v % 3 if v else 1),  # node 0 clashes
            coloring(lambda v: "junk" if v % 5 == 4 else v % 3),
            coloring(lambda v: 0),
            proper,
        ]
        accepted = []
        for index, outputs in enumerate(runs):
            memo = (len(kept._node_memo), len(kept._edge_memo))
            expected = verify(problem, graph, Labeling(graph), outputs)
            got = kept.verify(outputs)
            assert got.ok == expected.ok
            assert got.violations == expected.violations
            accepted.append(expected.ok)
            if index == len(runs) - 1:
                # The repeat is answered from the memo alone.
                assert (len(kept._node_memo), len(kept._edge_memo)) == memo
        assert accepted == [True, False, False, False, True]

    # -- vector verifiers are built only where the vector path runs --

    @pytest.fixture
    def vector_builds(self, monkeypatch):
        """Every ``VectorPreparedVerifier`` that gets constructed."""
        from repro.kernels.verifier import VectorPreparedVerifier

        built = []
        init = VectorPreparedVerifier.__init__

        def counted(prepared, *args, **kwargs):
            built.append(prepared)
            init(prepared, *args, **kwargs)

        monkeypatch.setattr(VectorPreparedVerifier, "__init__", counted)
        return built

    def test_object_backend_builds_no_vector_verifier(self, vector_builds):
        from repro.problems import VertexColoring

        graph = cycle(32)
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, v % 3 if v else 1)  # node 0 clashes
        problem = VertexColoring(3).problem()
        assert not verify(problem, graph, Labeling(graph), outputs).ok
        batch = TrialBatch("degree-parity", "parity", "cycle", kernels="object")
        for seed in range(3):
            assert batch.run_one(8, seed).verified
        assert vector_builds == []

    def test_kept_verifier_is_built_once_per_core(self, vector_builds):
        batch = TrialBatch("degree-parity", "parity", "cycle", kernels="vector")
        for n in (8, 16):
            for seed in range(3):
                assert batch.run_one(n, seed).verified
        kept = [
            per_core["degree-parity"]
            for per_core in batch.instances._prepared.values()
        ]
        # One build per core; every later seed reuses it.
        assert len(kept) == 2
        assert vector_builds == kept

    @pytest.mark.parametrize(
        "problem, solver, family, n",
        [
            ("mis", "mis-color-classes", "cycle", 30),
            ("maximal-matching", "matching-line-coloring", "torus", 36),
            ("sinkless-orientation", "sinkless-det", "cubic", 32),
            ("degree-parity", "parity", "tree", 40),
        ],
    )
    def test_vector_verdicts_match_verify_on_solver_outputs(
        self, problem, solver, family, n
    ):
        from repro.runtime import registry

        instance, result, verified = reference_run(problem, solver, family, n, 0)
        assert verified
        problem_obj = registry.problem(problem).materialize()
        graph = instance.graph
        inputs = instance.inputs if instance.inputs is not None else Labeling(graph)
        accepted = []
        for outputs in [result.outputs, *_corruptions(result.outputs)]:
            expected = verify(problem_obj, graph, inputs, outputs)
            with kernels.active("vector"):
                got = verify(problem_obj, graph, inputs, outputs)
            assert got.ok == expected.ok
            assert got.violations == expected.violations
            accepted.append(expected.ok)
        assert accepted == [True, False, False]

    @pytest.mark.parametrize(
        "problem, solver, family, ns",
        [
            ("4-coloring", "linial-4-coloring", "cycle", (16, 64)),
            ("maximal-matching", "matching-line-coloring", "torus", (16, 64)),
        ],
    )
    def test_shared_core_sweep_keeps_one_vector_verifier_per_core(
        self, problem, solver, family, ns
    ):
        from repro.kernels.verifier import VectorPreparedVerifier

        batch = TrialBatch(problem, solver, family, kernels="vector")
        for n in ns:
            for seed in range(3):
                assert batch.run_one(n, seed).verified
        kept = batch.instances._prepared
        assert list(kept) == [(family, n) for n in ns]
        for per_core in kept.values():
            assert list(per_core) == [problem]
            assert isinstance(per_core[problem], VectorPreparedVerifier)


# -- record parity through the whole stack ------------------------------------


class TestKernelsRecordParity:
    def test_runtime_records_identical_across_backends(self):
        def run(kernels):
            batch = TrialBatch("degree-parity", "parity", "cycle", kernels=kernels)
            return [batch.run_one(n, seed) for n in (8, 16) for seed in (0, 1)]

        obj, auto, vec = run("object"), run("auto"), run("vector")

        def strip(records):
            return [
                {k: v for k, v in vars(r).items() if k != "wall_time"}
                for r in records
            ]
        assert strip(obj) == strip(auto) == strip(vec)

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_shard_records_identical_across_backends(self, num_shards):
        oracle = run_experiment(PARITY_SPEC, workers=1, kernels="object")
        plan = plan_experiment(PARITY_SPEC, num_shards=num_shards)
        reports = [
            run_shard(plan, i, workers=2, kernels="vector")
            for i in range(num_shards)
        ]
        assert _shard_record_keys(plan, reports) == _record_keys(oracle)
        assert all(report.kernels == "vector" for report in reports)

    @needs_numpy
    def test_small_canonical_cells_identical_across_backends(self):
        """``auto`` takes the vector kernels at every size, so the small
        end of every canonical cell must match the object oracle too:
        the landscape up to 128 nodes, and the padded and gadget grids
        at their smallest heights."""
        specs = build_experiment("landscape", max_n=128, seed_count=2)
        specs += build_experiment("padding", max_n=512)
        specs += build_experiment("gadget", max_n=256)
        assert len(specs) == 64
        for spec in specs:
            oracle = run_experiment(spec, workers=1, kernels="object")
            got = run_experiment(spec, workers=1, kernels="vector")
            assert _record_keys(got) == _record_keys(oracle), spec.name

    def test_report_carries_kernels_field(self):
        report = run_experiment(PARITY_SPEC, workers=1, kernels="object")
        assert report.kernels == "object"
        assert report.as_dict()["kernels"] == "object"
        tele = report.as_dict()["telemetry"]
        executed = _counter_total(tele, "kernels.object_trials")
        assert executed == len(report.records)
        assert _counter_total(tele, "kernels.vector_trials") == 0

    def test_shard_report_kernels_roundtrip(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=1)
        report = run_shard(plan, 0, workers=1, kernels="object")
        # What ``run-shard --json`` writes, read back.
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["kernels"] == report.kernels == "object"

    def test_mixed_shard_backends_merge_identically(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=4)
        modes = ["object", "vector", "object", "vector"]
        reports = [
            run_shard(plan, i, workers=1, kernels=modes[i])
            for i in range(4)
        ]
        oracle = run_experiment(PARITY_SPEC, workers=1, kernels="object")
        assert _shard_record_keys(plan, reports) == _record_keys(oracle)
        assert [report.as_dict()["kernels"] for report in reports] == modes


# -- batched array programs vs the object round loop --------------------------


ARRAY_PARITY_SPEC = ExperimentSpec(
    "kernels/degree-parity/parity-sync@cycle",
    "degree-parity",
    "parity-sync",
    "cycle",
    ns=(8, 16),
    seeds=(0, 1),
)

LINIAL_SPEC = ExperimentSpec(
    "kernels/4-coloring/linial@cubic",
    "4-coloring",
    "linial-4-coloring",
    "cubic",
    ns=(32, 64),
    seeds=(0, 1),
)


@needs_numpy
class TestArrayProgramDifferential:
    """Batched node programs against the object loop on random graphs.

    Every solver that ships an :class:`repro.local.simulator.ArrayProgram`
    twin must produce bit-identical engine results — per-node outputs,
    round counts, halting rounds, traces, and ConvergenceError
    diagnostics — on multigraphs with self-loops, parallel edges,
    irregular degrees, and staggered halts.
    """

    @given(multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_min_flood_matches_everywhere(self, graph):
        # min-id flooding converges on every graph (each component
        # settles on its minimum), so parity holds with no exclusions.
        from repro.local import Instance, SyncEngine
        from repro.local.flood import MinIdFloodNode
        from repro.local.identifiers import sequential_ids

        instance = Instance(graph, sequential_ids(graph.num_nodes))
        expected = SyncEngine(instance, MinIdFloodNode).run(max_rounds=64)
        with kernels.active("vector"):
            got = SyncEngine(instance, MinIdFloodNode).run(max_rounds=64)
        assert got.results == expected.results
        assert got.rounds == expected.rounds
        assert got.halt_rounds == expected.halt_rounds
        assert got.trace == expected.trace

    @given(multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_ecc_flood_matches_including_livelocks(self, graph):
        # the delta-flood livelocks on some topologies (an early halter
        # cuts the relay); both paths must then raise identically.
        from repro.local import ConvergenceError, Instance, SyncEngine
        from repro.local.flood import FloodNode
        from repro.local.identifiers import sequential_ids

        instance = Instance(graph, sequential_ids(graph.num_nodes))
        try:
            expected = SyncEngine(instance, FloodNode).run(max_rounds=48)
        except ConvergenceError as err:
            with kernels.active("vector"):
                with pytest.raises(ConvergenceError) as excinfo:
                    SyncEngine(instance, FloodNode).run(max_rounds=48)
            assert excinfo.value.max_rounds == err.max_rounds
            assert excinfo.value.active == err.active
            assert excinfo.value.trace == err.trace
            return
        with kernels.active("vector"):
            got = SyncEngine(instance, FloodNode).run(max_rounds=48)
        assert got.results == expected.results
        assert got.rounds == expected.rounds
        assert got.halt_rounds == expected.halt_rounds
        assert got.trace == expected.trace

    @given(multigraphs(max_nodes=10, max_edges=16))
    @settings(max_examples=30, deadline=None)
    def test_linial_matches_on_multigraphs(self, graph):
        from repro.local.algorithm import Instance
        from repro.problems import LinialColoringSolver

        instance = Instance.simple(graph)
        expected = LinialColoringSolver().solve(instance)
        with kernels.active("vector"):
            got = LinialColoringSolver().solve(instance)
        nodes = list(graph.nodes())
        assert [got.outputs.node(v) for v in nodes] == [
            expected.outputs.node(v) for v in nodes
        ]
        assert got.rounds == expected.rounds
        assert got.node_radius == expected.node_radius
        assert got.extras == expected.extras


class TestArrayProgramRecordParity:
    """Array-program solvers through the whole runtime stack."""

    @pytest.mark.parametrize("spec", [ARRAY_PARITY_SPEC, LINIAL_SPEC])
    def test_runtime_records_identical_across_backends(self, spec):
        oracle = run_experiment(spec, workers=1, kernels="object")
        for backend in ("vector", "auto"):
            report = run_experiment(spec, workers=1, kernels=backend)
            assert _record_keys(report) == _record_keys(oracle)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_shard_records_identical_across_backends(self, num_shards):
        oracle = run_experiment(LINIAL_SPEC, workers=1, kernels="object")
        plan = plan_experiment(LINIAL_SPEC, num_shards=num_shards)
        reports = [
            run_shard(plan, i, workers=2, kernels="vector")
            for i in range(num_shards)
        ]
        assert _shard_record_keys(plan, reports) == _record_keys(oracle)

    @needs_numpy
    def test_engine_runs_the_registered_array_twin(self, monkeypatch):
        # parity-sync's twin is not carried by its node factory:
        # ParitySyncSolver.solve hands it to SyncEngine, which batches
        # it under the vector backend.
        from repro.kernels import engine as kernel_engine

        calls = []
        original = kernel_engine.run_array_program

        def counted(*args, **kwargs):
            calls.append(args[0].graph.num_nodes)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel_engine, "run_array_program", counted)
        spec = dataclasses.replace(ARRAY_PARITY_SPEC, ns=(256, 512), seeds=(0,))
        report = run_experiment(spec, workers=1, kernels="vector")
        assert calls == [256, 512]
        assert report.records == run_experiment(spec, kernels="object").records

    @needs_numpy
    def test_round_telemetry_splits_by_path(self):
        obj = run_experiment(LINIAL_SPEC, workers=1, kernels="object")
        vec = run_experiment(LINIAL_SPEC, workers=1, kernels="vector")
        obj_tele = obj.as_dict()["telemetry"]
        vec_tele = vec.as_dict()["telemetry"]
        obj_rounds = _counter_total(obj_tele, "engine.rounds")
        vec_rounds = _counter_total(vec_tele, "engine.rounds")
        assert obj_rounds == vec_rounds > 0
        assert _counter_total(obj_tele, "engine.active_nodes") == \
            _counter_total(vec_tele, "engine.active_nodes") > 0
        # the per-path counters are exclusive: each backend runs every
        # engine round on exactly one of the two loops
        assert _counter_total(obj_tele, "kernels.object_rounds") == obj_rounds
        assert _counter_total(obj_tele, "kernels.array_rounds") == 0
        assert _counter_total(vec_tele, "kernels.array_rounds") == vec_rounds
        assert _counter_total(vec_tele, "kernels.object_rounds") == 0


# -- batched anchor scans vs the per-node oracle -------------------------------


def _oracle_scans(graph, ids, exempt_below):
    """``anchor_scan`` on every node the solver scans, or the error it raises."""
    from repro.problems.sinkless_solvers import anchor_scan

    scans = [None] * graph.num_nodes
    try:
        for v in graph.nodes():
            if graph.degree(v) >= max(exempt_below, 1):
                scan = anchor_scan(graph, ids, v, exempt_below)
                scans[v] = (scan.radius, scan.claim_eid, scan.claim_tail)
    except RuntimeError as err:
        return ("RuntimeError", str(err))
    return scans


def _batched_scans(graph, ids, exempt_below):
    from repro.kernels import vector

    try:
        return vector.anchor_scans(graph, ids, exempt_below)
    except RuntimeError as err:
        return ("RuntimeError", str(err))


SINKLESS_DET_SPEC = ExperimentSpec(
    "kernels/sinkless-orientation/sinkless-det@cubic",
    "sinkless-orientation",
    "sinkless-det",
    "cubic",
    ns=(64, 256, 1024),
    seeds=(0, 1),
)

PADDED_DET_SPEC = ExperimentSpec(
    "kernels/padded-sinkless/padded-sinkless-det@padded-sinkless",
    "padded-sinkless",
    "padded-sinkless-det",
    "padded-sinkless",
    ns=(2, 3),
    seeds=(0, 1),
)


@needs_numpy
class TestAnchorScansDifferential:
    """``vector.anchor_scans`` against one ``anchor_scan`` per node.

    Radius, claimed edge and claimed tail must agree on every scanned
    node, and both must raise the same ``RuntimeError`` on a component
    with neither a cycle nor an exempt node.
    """

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize(
        "family", ["cubic", "high-girth-cubic", "torus", "tree", "cycle", "path"]
    )
    def test_matches_on_every_family(self, family, n):
        from repro.runtime import registry

        for seed in (0, 1):
            instance = registry.family(family).builder(n, seed)
            graph, ids = instance.graph, instance.ids
            oracle = {}
            for exempt_below in (1, 2, 3):
                # anchor_scan reads exempt_below only as "degree <
                # exempt_below", so thresholds splitting the degrees alike
                # share one oracle run (on a cycle, 1 and 2 both exempt
                # nothing and scan every node)
                split = frozenset(d for d in graph.degrees if d < exempt_below)
                if split not in oracle:
                    oracle[split] = _oracle_scans(graph, ids, exempt_below)
                got = _batched_scans(graph, ids, exempt_below)
                assert got == oracle[split], (family, n, seed, exempt_below)

    @given(
        multigraphs(),
        st.integers(0, 2**16),
        st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_on_multigraphs(self, graph, id_seed, exempt_below):
        import random

        from repro.local.identifiers import random_ids

        ids = random_ids(graph.num_nodes, random.Random(id_seed))
        assert _batched_scans(graph, ids, exempt_below) == _oracle_scans(
            graph, ids, exempt_below
        )

    def test_both_raise_on_one_edge_without_exempt_nodes(self):
        from repro.kernels import vector
        from repro.local import PortGraph
        from repro.local.identifiers import sequential_ids
        from repro.problems.sinkless_solvers import anchor_scan

        graph = PortGraph.from_edge_list(2, [(0, 1)])
        ids = sequential_ids(2)
        with pytest.raises(RuntimeError, match="node 0: ") as expected:
            anchor_scan(graph, ids, 0, 1)
        with pytest.raises(RuntimeError) as got:
            vector.anchor_scans(graph, ids, 1)
        assert str(got.value) == str(expected.value)

    def test_small_budget_runs_several_blocks(self, monkeypatch):
        from repro.kernels import vector
        from repro.runtime import registry

        instance = registry.family("cubic").builder(256, 0)
        expected = _oracle_scans(instance.graph, instance.ids, 3)
        blocks = []
        original = vector._anchor_block

        def counted(tables, centres, *args):
            blocks.append(centres.size)
            return original(tables, centres, *args)

        monkeypatch.setattr(vector, "_anchor_block", counted)
        # 8 centres per block, and a stamp ceiling low enough that the
        # visit table is re-zeroed between blocks
        monkeypatch.setattr(vector, "_ANCHOR_CELL_BUDGET", 8 * 256)
        monkeypatch.setattr(vector, "_STAMP_MAX", 3 * 8 * 256)
        assert vector.anchor_scans(instance.graph, instance.ids, 3) == expected
        assert blocks == [8] * 32

    @pytest.mark.parametrize("spec", [SINKLESS_DET_SPEC, PADDED_DET_SPEC])
    def test_solver_outputs_identical_across_backends(self, spec):
        from repro.runtime import registry
        from repro.runtime.driver import dispatch_solver

        for trial in spec.trials():
            instance = registry.family(trial.generator).builder(trial.n, trial.seed)
            results = {}
            for backend in ("object", "vector"):
                with kernels.active(backend):
                    results[backend] = dispatch_solver(
                        registry.solver(trial.solver).factory(), instance
                    )
            obj, vec = results["object"], results["vector"]
            assert vec.outputs == obj.outputs
            assert vec.node_radius == obj.node_radius
            assert vec.rounds == obj.rounds
            assert vec.extras == obj.extras
        oracle = run_experiment(spec, workers=1, kernels="object")
        report = run_experiment(spec, workers=1, kernels="vector")
        assert _record_keys(report) == _record_keys(oracle)
