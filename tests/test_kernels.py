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

import pytest
from hypothesis import given, settings

from repro import kernels
from repro.engine.runner import (
    ShardReport,
    merge_shard_reports,
    plan_experiment,
    run_experiment,
    run_shard,
)
from repro.engine.spec import ExperimentSpec
from repro.generators import cycle
from repro.lcl import Labeling, verify
from repro.lcl.verifier import PreparedVerifier
from repro.runtime.driver import Runtime
from tests.conftest import multigraphs

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
        assert kernels.select_backend("object", cycle(4096)) == "object"

    @needs_numpy
    def test_auto_threshold(self):
        small = cycle(kernels.AUTO_THRESHOLD // 2)
        large = cycle(kernels.AUTO_THRESHOLD)
        assert kernels.select_backend("auto", small) == "object"
        assert kernels.select_backend("auto", large) == "vector"
        assert kernels.select_backend("auto", None) == "vector"
        assert kernels.select_backend("vector", small) == "vector"

    def test_vector_enabled_is_ambient(self):
        assert not kernels.vector_enabled()
        with kernels.active("vector"):
            assert kernels.vector_enabled() == kernels.HAVE_NUMPY

    def test_degrades_without_numpy_with_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", False)
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            assert kernels.select_backend("vector", cycle(4096)) == "object"
            assert kernels.select_backend("auto", cycle(4096)) == "object"
            assert kernels.select_backend("vector") == "object"
        warnings = [
            rec for rec in caplog.records if "degrade" in rec.getMessage()
        ]
        assert len(warnings) == 1  # logged once, not per call
        with kernels.active("vector"):
            assert not kernels.vector_enabled()

    def test_runtime_works_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", True)
        record = Runtime().run(
            "degree-parity", "parity", "cycle", 16, kernels="vector"
        )
        assert record.verified


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

    def test_prepared_twin_matches_and_is_cached(self):
        from repro.problems import VertexColoring

        graph = cycle(32)
        problem = VertexColoring(3).problem()
        prepared = PreparedVerifier(problem, graph)
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, v % 3)
        expected = prepared.verify(outputs)
        with kernels.active("vector"):
            got = kernels.prepared_verify(prepared, outputs)
            twin = prepared._vector_twin
            again = kernels.prepared_verify(prepared, outputs)
            assert prepared._vector_twin is twin  # built once, reused
        assert got.ok == expected.ok
        assert got.violations == expected.violations
        assert again.violations == expected.violations

    def test_prepared_object_path_untouched_without_vector(self):
        from repro.problems import VertexColoring

        graph = cycle(8)
        prepared = PreparedVerifier(VertexColoring(3).problem(), graph)
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, v % 3 if v else 1)
        verdict = kernels.prepared_verify(prepared, outputs)
        assert verdict.violations == prepared.verify(outputs).violations
        assert not hasattr(prepared, "_vector_twin")


# -- record parity through the whole stack ------------------------------------


class TestKernelsRecordParity:
    def test_runtime_records_identical_across_backends(self):
        runtime = Runtime()
        grids = dict(ns=(8, 16), seeds=(0, 1))
        obj = runtime.run_many(
            "degree-parity", "parity", "cycle", kernels="object", **grids
        )
        auto = runtime.run_many(
            "degree-parity", "parity", "cycle", kernels="auto", **grids
        )
        vec = runtime.run_many(
            "degree-parity", "parity", "cycle", kernels="vector", **grids
        )
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
            run_shard(
                plan.manifest(i), workers=2, kernels="vector"
            )
            for i in range(num_shards)
        ]
        merged = merge_shard_reports(reports)
        assert _record_keys(merged) == _record_keys(oracle)
        assert merged.kernels == "vector"

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
        report = run_shard(plan.manifest(0), workers=1, kernels="object")
        payload = report.as_dict()
        assert payload["kernels"] == "object"
        assert ShardReport.from_dict(payload).kernels == "object"

    def test_mixed_shard_backends_merge_identically(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=4)
        modes = ["object", "vector", "object", "vector"]
        reports = [
            run_shard(plan.manifest(i), workers=1, kernels=modes[i])
            for i in range(4)
        ]
        merged = merge_shard_reports(reports)
        oracle = run_experiment(PARITY_SPEC, workers=1, kernels="object")
        assert _record_keys(merged) == _record_keys(oracle)
        assert merged.kernels == "mixed"


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
            run_shard(plan.manifest(i), workers=2, kernels="vector")
            for i in range(num_shards)
        ]
        merged = merge_shard_reports(reports)
        assert _record_keys(merged) == _record_keys(oracle)

    @needs_numpy
    def test_engine_runs_the_registered_array_twin(self, monkeypatch):
        # parity-sync's twin is registered with the solver rather than
        # carried by its node factory, so only an executor that passes
        # the registry's array_program batches it under the vector
        # backend.
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
