"""Conformance suite for the runtime registry and unified driver.

The heart of it is one parametrized test that pushes *every* sound
(problem, solver, family) triple through ``TrialBatch.run_one`` at small
sizes and demands a verifier-accepted output — so any future
registration is correctness-tested for free, and an unsound soundness
declaration fails loudly here rather than polluting the landscape.
"""

from __future__ import annotations

import pytest

from repro.runtime import TrialBatch, registry
from repro.runtime.driver import dispatch_solver

TRIPLES = registry.sound_triples()
TRIPLE_IDS = [f"{s.name}@{f.name}" for _p, s, f in TRIPLES]
UNSOUND = registry.unsound_triples()
UNSOUND_IDS = [f"{s.name}@{f.name}" for _p, s, f in UNSOUND]


class TestCatalogs:
    def test_catalog_minimums(self):
        """The landscape the paper draws needs this much breadth."""
        assert len(registry.problems()) >= 8
        assert len(registry.solvers()) >= 10
        assert len(registry.families()) >= 6
        assert len(TRIPLES) >= 20

    def test_every_solver_names_a_registered_problem(self):
        problems = registry.problems()
        for info in registry.solvers().values():
            assert info.problem in problems, info.name

    def test_every_declared_family_exists(self):
        families = registry.families()
        for info in registry.solvers().values():
            for family in info.families:
                assert family in families, (info.name, family)

    def test_every_problem_has_a_solver(self):
        for name in registry.problems():
            assert registry.solvers_for(name), f"problem {name} has no solver"

    def test_unknown_names_raise_with_suggestions(self):
        with pytest.raises(KeyError, match="unknown solver"):
            registry.solver("nope")
        with pytest.raises(KeyError, match="unknown family"):
            registry.family("nope")
        with pytest.raises(KeyError, match="unknown problem"):
            registry.problem("nope")

    def test_every_solver_implements_solve(self):
        """``solve(instance)`` is the one solver protocol."""
        for info in registry.solvers().values():
            assert callable(getattr(info.factory(), "solve", None)), info.name

    def test_families_sharing_cores_are_pinned(self):
        """Exactly the families whose graph depends on ``n`` alone
        provide the ``topology``/``dress`` split."""
        from repro.gadgets.corruptions import CORRUPTIONS

        families = registry.families()
        reusable = {
            name for name, info in families.items() if info.reusable_topology
        }
        probes = {f"corrupt-{name}" for name in CORRUPTIONS}
        assert len(probes) == 10
        assert reusable == {"cycle", "path", "torus", "tree", "gadget"} | probes
        assert set(families) - reusable == {
            "cubic", "high-girth-cubic", "padded-sinkless",
        }

    def test_duplicate_registration_with_different_settings_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register_family("cubic", description="something else")(
                lambda n, seed: None
            )


class TestConformance:
    @pytest.mark.parametrize(
        ("problem", "solver", "family"),
        [(p.name, s.name, f.name) for p, s, f in TRIPLES],
        ids=TRIPLE_IDS,
    )
    def test_sound_triple_verifies(self, problem, solver, family):
        """Every registered combination produces accepted outputs."""
        batch = TrialBatch(problem, solver, family)
        for n in registry.family(family).test_sizes:
            record = batch.run_one(n, seed=1)
            assert record.verified, record.summary()
            assert record.rounds == max(record.node_radius, default=0)
            assert len(record.node_radius) == record.actual_n
            assert record.wall_time >= 0

    def test_unsound_combinations_rejected(self):
        with pytest.raises(ValueError, match="not declared sound"):
            TrialBatch("3-coloring-cycles", "cycle-3-coloring", "cubic")
        with pytest.raises(ValueError, match="solves"):
            TrialBatch("mis", "cycle-3-coloring", "cycle")
        with pytest.raises(ValueError, match="not declared sound"):
            TrialBatch("sinkless-orientation", "sinkless-det", "cycle")

    def test_check_sound_false_probes_anyway(self):
        """Unsound probes run; the verifier reports the truth."""
        record = TrialBatch(
            "degree-parity", "constant", "cycle", check_sound=False
        ).run_one(6)
        # the constant solver outputs "ok", not parities
        assert record.verified is False


class TestUnsoundProbes:
    """The declared negative triples: the verifier must reject each."""

    def test_probe_catalog_covers_every_corruption(self):
        from repro.gadgets.corruptions import CORRUPTIONS

        probed = {f.name for _p, _s, f in UNSOUND}
        assert {f"corrupt-{name}" for name in CORRUPTIONS} <= probed

    @pytest.mark.parametrize(
        ("problem", "solver", "family"),
        [(p.name, s.name, f.name) for p, s, f in UNSOUND],
        ids=UNSOUND_IDS,
    )
    def test_unsound_triple_is_rejected(self, problem, solver, family):
        batch = TrialBatch(problem, solver, family, check_sound=False)
        for n in registry.family(family).test_sizes:
            record = batch.run_one(n, seed=1)
            assert record.verified is False, record.summary()

    def test_sound_check_still_rejects_probes(self):
        with pytest.raises(ValueError, match="not declared sound"):
            TrialBatch("gadget-proof", "gadget-prover", "corrupt-color-clash")

    def test_overlapping_declarations_rejected(self):
        with pytest.raises(ValueError, match="both sound and unsound"):
            registry.register_solver(
                "bad-solver",
                problem="gadget-proof",
                families=("gadget",),
                unsound_families=("gadget",),
            )


class TestAdapter:
    def test_all_three_execution_paths_agree_on_parity(self):
        """direct / SyncEngine / ViewOracle produce identical labelings."""
        instance = registry.family("tree").builder(15, 3)
        outputs = []
        for solver in ("parity", "parity-sync", "parity-views"):
            result = dispatch_solver(registry.solver(solver).factory(), instance)
            outputs.append(
                [result.outputs.node(v) for v in instance.graph.nodes()]
            )
            assert result.rounds == 0
        assert outputs[0] == outputs[1] == outputs[2]

    def test_dispatch_rejects_alien_objects(self):
        instance = registry.family("cycle").builder(5, 0)
        with pytest.raises(TypeError, match="no solve"):
            dispatch_solver(object(), instance)

    def test_dispatch_hands_the_instance_to_solve(self):
        """Dispatch is ``solver_obj.solve(instance)`` and nothing more."""
        instance = registry.family("cycle").builder(5, 0)
        seen = []
        sentinel = object()

        class Stub:
            def solve(self, inst):
                seen.append(inst)
                return sentinel

        assert dispatch_solver(Stub(), instance) is sentinel
        assert seen == [instance]

    @pytest.mark.parametrize(
        "solver,extras",
        [
            ("parity", {}),
            ("parity-sync", {"engine_rounds": 0}),
            ("parity-views", {"view_rounds": 0}),
        ],
    )
    def test_parity_models_report_their_rounds(self, solver, extras):
        """Each execution model charges every node radius 0 and records
        its own round count in ``extras``."""
        record = TrialBatch("degree-parity", solver, "torus").run_one(9, seed=1)
        assert record.verified is True
        assert record.node_radius == [0] * record.actual_n
        assert record.extras == extras

    def test_family_guarantees_hold_on_samples(self):
        """Registered structural guarantees are true of built instances."""
        for info in registry.families().values():
            instance = info.builder(info.test_sizes[0], 0)
            graph = instance.graph
            degrees = [graph.degree(v) for v in graph.nodes()]
            if info.max_degree is not None:
                assert max(degrees) <= info.max_degree, info.name
            if info.min_degree is not None:
                assert min(degrees) >= info.min_degree, info.name
            if info.girth_at_least is not None:
                from repro.local.distances import girth

                assert girth(graph) >= info.girth_at_least, info.name


class TestEngineIntegration:
    def test_landscape_is_the_full_cross_product(self):
        """One spec per sound triple that fits the budget, by name."""
        from repro.engine.experiments import build_experiment

        specs = build_experiment("landscape", max_n=128)
        named = {spec.name for spec in specs}
        expected = {
            f"landscape/{p.name}/{s.name}@{f.name}"
            for p, s, f in TRIPLES
            if f.sweep_sizes(128)
        }
        assert named == expected
        for spec in specs:
            assert spec.name == (
                f"landscape/{spec.problem}/{spec.solver}@{spec.generator}"
            )

    def test_registry_spec_runs_through_engine(self):
        """A registry-generated spec executes on the engine runner."""
        from repro.engine.experiments import build_experiment
        from repro.engine.runner import run_experiment

        spec = next(
            s
            for s in build_experiment("landscape", max_n=64, seed_count=1)
            if "mis-color-classes@cycle" in s.name
        )
        report = run_experiment(spec, workers=1, cache=None)
        assert report.trials_total == len(spec.ns)
        assert all(p.trials >= 1 for p in report.sweep.points)

    def test_cli_list_enumerates_catalogs(self, capsys):
        from repro.engine.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert f"problems ({len(registry.problems())})" in out
        assert f"solvers ({len(registry.solvers())})" in out
        assert "mis-luby" in out and "cubic" in out

    def test_cli_describe(self, capsys):
        from repro.engine.cli import main

        assert main(["describe", "sinkless-det"]) == 0
        out = capsys.readouterr().out
        assert "solves sinkless-orientation" in out
        assert main(["describe", "nope"]) == 2

    def test_reports_read_a_hand_named_spec_by_its_fields(self):
        """A spec's name is free text: the paper line and the Figure 1
        row come from its problem, solver and generator fields."""
        from repro.analysis.landscape import rows_from_engine_reports
        from repro.engine import ExperimentSpec, run_experiment
        from repro.engine.cli import format_report

        spec = ExperimentSpec(
            name="sinkless/det",
            problem="sinkless-orientation",
            solver="sinkless-det",
            generator="cubic",
            ns=(16, 32),
            seeds=(0,),
        )
        report = run_experiment(spec, workers=1, cache=None)
        assert (
            "paper: det Theta(log n) / rand Theta(loglog n)"
            in format_report([report])
        )
        (row,) = rows_from_engine_reports([report])
        assert row.problem == "sinkless-orientation @ cubic"
        assert row.det_sweep is report.sweep and row.rand_sweep is None
