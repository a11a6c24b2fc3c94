"""Tests for the view oracle, radius metering, and the synchronous engine."""

from __future__ import annotations

import pickle

import pytest

from repro import kernels
from repro.generators import cycle, path
from repro.local import ConvergenceError, Instance, PortGraph, SyncEngine, ViewOracle
from repro.local.identifiers import sequential_ids
from tests.flood_programs import (
    EccFloodProgram,
    FloodNode,
    MinFloodProgram,
    MinIdFloodNode,
)

needs_numpy = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="the batched engine path needs numpy"
)


class TestViewOracle:
    def test_view_contents_grow_with_radius(self):
        graph = path(9)
        oracle = ViewOracle(graph)
        v0 = oracle.view(4, 0)
        assert v0.nodes() == [4]
        v2 = oracle.view(4, 2)
        assert v2.nodes() == [2, 3, 4, 5, 6]
        assert v2.boundary() == [2, 6]

    def test_metering_tracks_max(self):
        graph = cycle(10)
        oracle = ViewOracle(graph)
        oracle.view(0, 1)
        oracle.view(0, 3)
        oracle.view(0, 2)
        assert oracle.radius_used(0) == 3
        assert oracle.rounds() == 3

    def test_charge_without_view(self):
        graph = cycle(5)
        oracle = ViewOracle(graph)
        oracle.charge(2, 7)
        assert oracle.radius_used(2) == 7
        assert oracle.node_radii() == [0, 0, 7, 0, 0]

    def test_charge_rejects_negative(self):
        oracle = ViewOracle(cycle(3))
        with pytest.raises(ValueError):
            oracle.charge(0, -1)

    def test_view_beyond_component_saturates(self):
        graph = path(4)
        oracle = ViewOracle(graph)
        view = oracle.view(0, 50)
        assert view.nodes() == [0, 1, 2, 3]

    def test_incremental_growth_consistent_with_fresh(self):
        graph = cycle(12)
        grown = ViewOracle(graph)
        for r in (1, 2, 5):
            fresh = ViewOracle(graph).view(3, r)
            incremental = grown.view(3, r)
            assert fresh.dist == incremental.dist

    def test_subgraph_of_view(self):
        graph = cycle(8)
        oracle = ViewOracle(graph)
        sub, mapping = oracle.view(0, 2).subgraph()
        assert sub.num_nodes == 5
        assert sub.num_edges == 4  # an arc of the cycle


class TestSyncEngine:
    def test_flooding_takes_eccentricity_rounds(self):
        graph = cycle(10)
        instance = Instance(graph, sequential_ids(10))
        engine = SyncEngine(instance, FloodNode)
        result = engine.run()
        # every node hears everyone after exactly ecc = 5 message rounds
        assert result.rounds == 5
        assert all(r == 5 for r in result.results)

    def test_single_node_halts_immediately(self):
        graph = PortGraph(1, [])
        instance = Instance(graph, sequential_ids(1))
        result = SyncEngine(instance, FloodNode).run()
        assert result.rounds == 0
        assert result.results == [0]

    def test_wrong_message_count_raises(self):
        class BadNode(FloodNode):
            def outgoing(self, round_index):
                return []  # wrong: must equal degree

        graph = cycle(4)
        instance = Instance(graph, sequential_ids(4))
        with pytest.raises(ValueError):
            SyncEngine(instance, BadNode).run()

    def test_nonconvergence_raises(self):
        class ForeverNode(FloodNode):
            def outgoing(self, round_index):
                return [0] * self.degree

        graph = cycle(4)
        instance = Instance(graph, sequential_ids(4))
        with pytest.raises(RuntimeError):
            SyncEngine(instance, ForeverNode).run(max_rounds=10)

    def test_nonconvergence_carries_diagnostics(self):
        from repro.local import ConvergenceError

        class ForeverNode(FloodNode):
            def outgoing(self, round_index):
                return [0] * self.degree

        graph = cycle(4)
        instance = Instance(graph, sequential_ids(4))
        with pytest.raises(ConvergenceError) as excinfo:
            SyncEngine(instance, ForeverNode).run(max_rounds=10)
        err = excinfo.value
        assert err.max_rounds == 10
        assert err.active == 4  # nobody ever halts
        assert len(err.trace) == 10  # the partial trace survives
        assert all(r.active == 4 for r in err.trace)
        assert "10 rounds" in str(err) and "4 node(s)" in str(err)
        # It survives a pickle round trip, as a pool helper sends it.
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is ConvergenceError and str(clone) == str(err)
        assert (clone.max_rounds, clone.active, clone.trace) == (
            err.max_rounds, err.active, err.trace
        )

    def test_node_radius_uniform(self):
        graph = cycle(6)
        instance = Instance(graph, sequential_ids(6))
        result = SyncEngine(instance, FloodNode).run()
        assert result.node_radius() == [result.rounds] * 6

    def test_node_radius_per_component(self):
        """A small and a large component halt at their own eccentricities.

        (Flood nodes count the whole graph as n, but a component is done
        once its own ids stop being fresh... so pass each component's
        size via per-node closures instead: each node waits for exactly
        its component's node count.)
        """
        from repro.generators import disjoint_union

        graph = disjoint_union(cycle(3), cycle(7))

        class ComponentFlood(FloodNode):
            def __init__(self, v: int, instance: Instance):
                super().__init__(v, instance)
                self.n = 3 if v < 3 else 7  # component size, not graph size

        instance = Instance(graph, sequential_ids(10))
        result = SyncEngine(instance, ComponentFlood).run()
        # cycle(3) has eccentricity 1, cycle(7) eccentricity 3
        expected = [1, 1, 1, 3, 3, 3, 3, 3, 3, 3]
        assert result.node_radius() == expected
        assert result.halt_rounds == expected
        assert result.rounds == 3  # the big component halts last

    def test_late_halter_keeps_engine_running(self):
        """Early halters stop being charged while others continue."""

        class StaggeredNode:
            def __init__(self, v: int, instance: Instance):
                self.v = v
                self.degree = instance.graph.degree(v)

            def outgoing(self, round_index):
                return None if round_index >= self.v else [0] * self.degree

            def receive(self, round_index, inbox):
                pass

            def result(self):
                return self.v

        graph = cycle(5)
        instance = Instance(graph, sequential_ids(5))
        result = SyncEngine(instance, StaggeredNode).run()
        assert result.halt_rounds == [0, 1, 2, 3, 4]
        assert result.rounds == 4


class TestArrayProgramEngine:
    """The batched array path against the object loop it shadows."""

    def _both(self, graph, node_factory, array_program, max_rounds=500):
        instance = Instance(graph, sequential_ids(graph.num_nodes))
        with kernels.active("object"):
            expected = SyncEngine(instance, node_factory).run(max_rounds)
        with kernels.active("vector"):
            got = SyncEngine(
                instance, node_factory, array_program=array_program
            ).run(max_rounds)
        return expected, got

    @needs_numpy
    def test_flood_twins_match_object_loop(self):
        twins = ((FloodNode, EccFloodProgram), (MinIdFloodNode, MinFloodProgram))
        for graph in (cycle(10), cycle(33), PortGraph(1, [])):
            for node_factory, array_program in twins:
                expected, got = self._both(graph, node_factory, array_program)
                assert got.results == expected.results
                assert got.rounds == expected.rounds
                assert got.halt_rounds == expected.halt_rounds
                assert got.trace == expected.trace

    @needs_numpy
    def test_staggered_halts_compact_the_active_set(self):
        """A twin with per-node halt rounds keeps full trace parity."""
        import numpy as np

        class StaggeredNode:
            def __init__(self, v: int, instance: Instance):
                self.v = v
                self.degree = instance.graph.degree(v)

            def outgoing(self, round_index):
                return None if round_index >= self.v else [0] * self.degree

            def receive(self, round_index, inbox):
                pass

            def result(self):
                return self.v

        class StaggeredProgram:
            def init_all(self, instance, layout):
                self.layout = layout

            def step_all(self, round_index, inbox):
                layout = self.layout
                halt = np.arange(layout.num_nodes) <= round_index
                return np.zeros(layout.total, dtype=np.int64), halt

            def results_all(self):
                return list(range(self.layout.num_nodes))

        import repro.kernels as kernels

        graph = cycle(5)
        instance = Instance(graph, sequential_ids(5))
        expected = SyncEngine(instance, StaggeredNode).run()
        with kernels.active("vector"):
            got = SyncEngine(
                instance, StaggeredNode, array_program=StaggeredProgram
            ).run()
        assert got.halt_rounds == expected.halt_rounds == [0, 1, 2, 3, 4]
        assert got.rounds == expected.rounds == 4
        assert got.trace == expected.trace
        assert got.results == expected.results

    @needs_numpy
    def test_convergence_error_parity(self):
        """Livelocks carry identical diagnostics on both paths.

        The delta-flood genuinely livelocks on a path graph: the middle
        node halts first and stops relaying, so the endpoints never
        hear the far side.  Both engines must report the same failure.
        """
        errors = []
        for backend in ("object", "vector"):
            instance = Instance(path(9), sequential_ids(9))
            engine = SyncEngine(instance, FloodNode, array_program=EccFloodProgram)
            with kernels.active(backend):
                with pytest.raises(ConvergenceError) as excinfo:
                    engine.run(max_rounds=40)
            errors.append(excinfo.value)
        expected, got = errors
        assert got.max_rounds == expected.max_rounds == 40
        assert got.active == expected.active
        assert got.trace == expected.trace

    @needs_numpy
    def test_closed_form_tail_cut_by_max_rounds(self):
        """A ``max_rounds`` inside Linial's closed-form elimination tail
        raises the object loop's ConvergenceError; one more round than
        the run takes raises on neither path."""
        from repro.kernels.programs import LinialProgram
        from repro.problems.coloring import _LinialNode
        from repro.problems.linial import reduction_schedule

        n, target = 40, 3
        instance = Instance(cycle(n), sequential_ids(n))
        schedule = reduction_schedule(n, 2)
        stepped = len(schedule)
        total = stepped + schedule[-1][0] ** 2 - target
        assert total > stepped + 1  # the tail is several rounds long

        def run(backend, max_rounds):
            engine = SyncEngine(
                instance,
                lambda v, inst: _LinialNode(v, inst, schedule, target, n),
                array_program=lambda: LinialProgram(schedule, target, n),
            )
            with kernels.active(backend):
                return engine.run(max_rounds)

        for max_rounds in (stepped + 1, stepped + 3, total):
            errors = []
            for backend in ("object", "vector"):
                with pytest.raises(ConvergenceError) as excinfo:
                    run(backend, max_rounds)
                errors.append(excinfo.value)
            expected, got = errors
            assert got.max_rounds == expected.max_rounds == max_rounds
            assert got.active == expected.active == n
            assert got.trace == expected.trace
            assert len(got.trace) == max_rounds
        expected, got = run("object", total + 1), run("vector", total + 1)
        assert got.rounds == expected.rounds == total
        assert got.results == expected.results
        assert got.halt_rounds == expected.halt_rounds == [total] * n
        assert got.trace == expected.trace

    def test_degrades_to_object_loop_without_numpy(self, monkeypatch, caplog):
        """No numpy: the array seam falls back, warns once, same answers."""
        import logging

        import repro.kernels as kernels
        from repro.local import simulator

        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(kernels, "_WARNED_NO_NUMPY", True)
        monkeypatch.setattr(simulator, "_WARNED_NO_ARRAY_BACKEND", False)
        graph = cycle(6)
        with caplog.at_level(logging.WARNING, logger="repro.local.simulator"):
            for _ in range(2):  # the warning must not repeat
                instance = Instance(graph, sequential_ids(6))
                result = SyncEngine(
                    instance, FloodNode, array_program=EccFloodProgram
                ).run()
        assert result.results == [3] * 6
        assert result.rounds == 3
        degraded = [
            rec for rec in caplog.records if "degrades" in rec.getMessage()
        ]
        assert len(degraded) == 1


class TestInstance:
    def test_n_hint_defaults_to_size(self):
        graph = cycle(5)
        instance = Instance(graph, sequential_ids(5))
        assert instance.n_hint == 5

    def test_n_hint_must_cover_graph(self):
        graph = cycle(5)
        with pytest.raises(ValueError):
            Instance(graph, sequential_ids(5), n_hint=4)

    def test_id_size_mismatch(self):
        graph = cycle(5)
        with pytest.raises(ValueError):
            Instance(graph, sequential_ids(4))

    def test_require_rng(self):
        graph = cycle(5)
        instance = Instance(graph, sequential_ids(5))
        with pytest.raises(ValueError):
            instance.require_rng()
        seeded = Instance.simple(graph, seed=7)
        assert seeded.require_rng() is seeded.rng
