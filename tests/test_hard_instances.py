"""Tests for Lemma 5 hard instances, the reduction, and the Pi_i family."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    PaddedProblem,
    PaddedSolver,
    build_family,
    hard_instance,
    paper_f,
    simulate_padded_algorithm,
)
from repro.core.theory import (
    deterministic_prediction,
    gap_ratio_prediction,
    randomized_prediction,
    theorem1_lower,
    theorem1_upper,
)
from repro.gadgets import LogGadgetFamily
from repro.generators import complete, random_regular
from repro.lcl import verify
from repro.local import Instance
from repro.local.identifiers import sequential_ids
from repro.problems import DeterministicSinklessSolver, SinklessOrientation
from repro.util.rng import NodeRng


class TestPaperF:
    def test_floor_sqrt(self):
        assert paper_f(0) == 0
        assert paper_f(15) == 3
        assert paper_f(16) == 4
        assert paper_f(10**6) == 1000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            paper_f(-1)


class TestHardInstance:
    def test_exact_target_size(self):
        base = complete(4)
        family = LogGadgetFamily(3)
        instance = hard_instance(base, family, 500)
        assert instance.num_nodes == 500
        assert instance.padded.graph.num_nodes <= 500

    def test_equal_gadgets_of_log_depth(self):
        base = complete(4)
        family = LogGadgetFamily(3)
        instance = hard_instance(base, family, 2000)
        budget = 2000 // 4
        assert instance.gadget_height == family.height_for(budget)
        sizes = {g.num_nodes for g in instance.padded.gadget_of}
        assert len(sizes) == 1

    def test_too_small_target_rejected(self):
        base = complete(4)
        family = LogGadgetFamily(3)
        with pytest.raises(ValueError):
            hard_instance(base, family, 20)

    def test_degree_guard(self):
        base = complete(6)  # degree 5 > delta 3
        with pytest.raises(ValueError):
            hard_instance(base, LogGadgetFamily(3), 10_000)

    def test_isolated_filler_is_unconstrained(self):
        """Filler nodes form invalid singleton gadgets; the Pi' solver
        must still succeed and the verifier accept (don't-care nodes)."""
        base = complete(4)
        family = LogGadgetFamily(3)
        instance = hard_instance(base, family, 400)
        problem = PaddedProblem(SinklessOrientation().problem(), family)
        solver = PaddedSolver(problem, DeterministicSinklessSolver())
        run = solver.solve(
            Instance(
                instance.graph,
                sequential_ids(instance.num_nodes),
                instance.inputs,
                400,
            )
        )
        verdict = problem.verify(instance.graph, instance.inputs, run.outputs)
        assert verdict.ok, verdict.summary()


class TestSimulationReduction:
    def test_reduction_yields_valid_base_solution(self):
        """Lemma 5, executably: a Pi' solver induces a Pi solver."""
        rng = random.Random(7)
        base_graph = random_regular(12, 3, rng)
        family = LogGadgetFamily(3)
        problem = PaddedProblem(SinklessOrientation().problem(), family)
        padded_solver = PaddedSolver(problem, DeterministicSinklessSolver())
        base_instance = Instance.simple(base_graph, seed=0)
        base_result, padded_result = simulate_padded_algorithm(
            problem, padded_solver, family, base_instance, target_n=12 * 12 * 4
        )
        base_problem = SinklessOrientation().problem()
        from repro.lcl import Labeling

        verdict = verify(
            base_problem, base_graph, Labeling(base_graph), base_result.outputs
        )
        assert verdict.ok, verdict.summary()

    def test_reduction_round_scaling(self):
        """The induced base algorithm costs padded rounds / depth."""
        rng = random.Random(9)
        base_graph = random_regular(16, 3, rng)
        family = LogGadgetFamily(3)
        problem = PaddedProblem(SinklessOrientation().problem(), family)
        padded_solver = PaddedSolver(problem, DeterministicSinklessSolver())
        base_instance = Instance.simple(base_graph, seed=0)
        base_result, padded_result = simulate_padded_algorithm(
            problem, padded_solver, family, base_instance, target_n=3000
        )
        depth = base_result.extras["depth"]
        assert depth >= 4
        assert base_result.rounds <= padded_result.rounds
        assert base_result.rounds >= padded_result.rounds // (4 * depth)


class TestTheory:
    def test_predictions_monotone_in_level(self):
        for n in (10**3, 10**6):
            det = [deterministic_prediction(i, n) for i in (1, 2, 3)]
            rand = [randomized_prediction(i, n) for i in (1, 2, 3)]
            assert det[0] < det[1] < det[2]
            assert rand[0] < rand[1] < rand[2]

    def test_rand_below_det_at_same_level(self):
        for i in (1, 2, 3):
            assert randomized_prediction(i, 10**6) < deterministic_prediction(i, 10**6)

    def test_gap_ratio_matches_quotient(self):
        for i in (1, 2, 3):
            n = 10**6
            quotient = deterministic_prediction(i, n) / randomized_prediction(i, n)
            assert quotient == pytest.approx(gap_ratio_prediction(n))

    def test_theorem1_bounds_bracket(self):
        assert theorem1_lower(5, 10**6) <= theorem1_upper(5, 10**6)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            deterministic_prediction(0, 100)
        with pytest.raises(ValueError):
            randomized_prediction(0, 100)


class TestFamilyConstruction:
    def test_levels_and_names(self):
        levels = build_family(3)
        assert [lvl.name for lvl in levels] == ["Pi_1", "Pi_2", "Pi_3"]
        assert levels[0].family is None
        assert levels[1].family.delta == 3
        assert levels[2].family.delta == 5

    def test_solver_wrapping(self):
        levels = build_family(3)
        assert levels[1].det_solver.randomized is False
        assert levels[1].rand_solver.randomized is True
        assert levels[2].det_solver.name.startswith("padded[padded[")

    def test_level_one_verifies_sinkless(self):
        from repro.generators.hard import cubic_instance
        from repro.lcl import Labeling

        level = build_family(1)[0]
        instance = cubic_instance(32, 0)
        result = level.det_solver.solve(instance)
        verdict = level.verify(
            instance.graph, Labeling(instance.graph), result.outputs
        )
        assert verdict.ok

    def test_needs_positive_levels(self):
        with pytest.raises(ValueError):
            build_family(0)

    def test_padded_hard_instance_factory(self):
        from repro.generators.hard import padded_hard_instance

        levels = build_family(2)
        instance = padded_hard_instance(levels[1], 900, 0)
        assert instance.graph.num_nodes == 900
        result = levels[1].det_solver.solve(instance)
        verdict = levels[1].verify(instance.graph, instance.inputs, result.outputs)
        assert verdict.ok, verdict.summary()


def _reference_lifted_ids(base_ids, instance) -> list[int]:
    """Lemma 5's padded ids, spelled out: each gadget's first node keeps
    its base node's id, every other node gets a fresh id above all base
    ids, and the isolated filler nodes come last."""
    n = instance.graph.num_nodes
    stride = n + 1
    first_free = max(base_ids.as_list()) + 1
    ids = [0] * n
    offsets = instance.padded.node_offset
    for v in instance.base_graph.nodes():
        size = instance.padded.gadget_of[v].num_nodes
        ids[offsets[v]] = base_ids.of(v)
        for offset in range(1, size):
            ids[offsets[v] + offset] = first_free + v * stride + offset
    tail = first_free + instance.base_graph.num_nodes * stride + 1
    for x in range(instance.padded.graph.num_nodes, n):
        ids[x] = tail
        tail += 1
    return ids


class TestLiftedIds:
    @pytest.mark.parametrize("level_index, n", [(2, 900), (2, 4096), (3, 16384)])
    def test_lifted_ids_match_the_reference_at_every_layer(self, level_index, n):
        from repro.core.hard_instances import _lifted_ids
        from repro.generators.hard import cubic_instance, padded_hard_instance

        chain = build_family(level_index)
        sizes = [n]
        for _ in range(level_index - 1):
            sizes.append(max(paper_f(sizes[-1]), 6))
        instance = cubic_instance(sizes[-1], 0)
        for depth, target in enumerate(reversed(sizes[:-1]), start=1):
            hard = hard_instance(
                instance.graph, chain[depth].family, target, instance.inputs
            )
            ids = _lifted_ids(instance.ids, hard)
            assert ids.as_list() == _reference_lifted_ids(instance.ids, hard)
            assert ids.max_id() == max(ids.as_list())
            instance = Instance(hard.graph, ids, hard.inputs, target, NodeRng(0))
        built = padded_hard_instance(chain[level_index - 1], n, 0)
        assert built.ids.as_list() == instance.ids.as_list()

    def test_max_id_is_the_largest_id(self):
        from repro.local.identifiers import IdAssignment, random_ids

        assert IdAssignment([]).max_id() == 0
        assert IdAssignment([4, 9, 2]).max_id() == 9
        ids = random_ids(50, random.Random(1))
        assert ids.max_id() == max(ids.as_list())
