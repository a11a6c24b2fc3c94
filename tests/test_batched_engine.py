"""The batched trial pipeline's load-bearing property: equivalence.

One ``TrialBatch`` over a grid and chunked ``run_experiment`` may
amortize whatever setup they like — catalog lookups, frozen topology,
kept vector verifiers — but the records they produce must be bit-identical
to the un-amortized reference (``tests.conftest.reference_run``) at every
worker count and batch size.
The suite pins that, plus the cache-discipline corners: a seeded
instance is shared by every trial on its (family, n, seed) and by no
other seed, kept instances stay within the node budget, and a warm
cache must replay the batched run exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import kernels
from repro.analysis.sweep import Sweep, SweepPoint
from repro.engine.cache import TrialCache
from repro.engine import runner
from repro.engine.cli import main as engine_main
from repro.engine.runner import (
    MAX_BATCH_SIZE,
    execute_trial_batch,
    run_experiment,
    shard_trials,
)
from repro.engine.spec import ExperimentSpec
from repro.generators import cycle
from repro.local import Instance
from repro.runtime import InstanceCache, TrialBatch, driver, registry
from tests.conftest import reference_records, reference_run


def record_key(record):
    """Every TrialRecord field that must be bit-identical (not wall time)."""
    return (
        record.actual_n,
        record.rounds,
        tuple(record.node_radius),
        record.verified,
        tuple(sorted(record.extras.items())),
    )


PARITY_SPEC = ExperimentSpec(
    "test/degree-parity/parity@cycle",
    "degree-parity",
    "parity",
    "cycle",
    ns=(8, 12, 16),
    seeds=(0, 1, 2),
)


class TestBatchedMatchesPerTrialReference:
    """One ``TrialBatch`` over a grid gives each trial the record of the
    un-amortized per-trial reference."""

    GRIDS = [
        # (problem, solver, family, ns, seeds) — a reuse family per
        # execution model, a randomized solver on a seeded-topology
        # family (its instances are kept and reused per (n, seed)), and
        # the shared-inputs gadget core.
        ("degree-parity", "parity", "cycle", (8, 12), (0, 1, 2)),
        ("degree-parity", "parity-sync", "torus", (9, 16), (0, 1)),
        ("degree-parity", "parity-views", "tree", (7, 15), (0, 1)),
        ("sinkless-orientation", "sinkless-rand", "cubic", (16,), (0, 1, 2)),
        ("gadget-proof", "gadget-prover", "gadget", (3, 4), (0, 1)),
    ]

    @pytest.mark.parametrize("problem,solver,family,ns,seeds", GRIDS)
    def test_matches_per_trial_run(self, problem, solver, family, ns, seeds):
        grid = [(n, seed) for n in ns for seed in seeds]
        batch = TrialBatch(problem, solver, family)
        batched = [batch.run_one(n, seed) for n, seed in grid]
        assert [(r.problem, r.solver, r.family, r.n, r.seed) for r in batched] == [
            (problem, solver, family, n, seed) for n, seed in grid
        ]
        for (n, seed), record in zip(grid, batched):
            instance, result, verified = reference_run(
                problem, solver, family, n, seed
            )
            assert record_key(record) == (
                instance.graph.num_nodes,
                result.rounds,
                tuple(result.node_radius),
                verified,
                tuple(sorted(result.extras.items())),
            )
            assert record.outputs == result.outputs


class TestInstanceCache:
    def test_reuse_family_shares_one_graph_across_seeds(self, cache_builds):
        cache = InstanceCache()
        a, key_a = cache.build(registry.family("cycle"), 8, 0)
        b, key_b = cache.build(registry.family("cycle"), 8, 1)
        assert key_a == key_b == ("cycle", 8)
        assert a.graph is b.graph
        assert a.ids != b.ids  # the per-seed dressing still differs
        assert cache_builds() == (1, 1, 0)

    def test_seeded_family_builds_once_per_seed(self, cache_builds):
        cache = InstanceCache()
        cubic = registry.family("cubic")
        a, key_a = cache.build(cubic, 16, 0)
        b, key_b = cache.build(cubic, 16, 0)
        c, key_c = cache.build(cubic, 16, 1)
        assert key_a is None and key_b is None and key_c is None
        # The same (family, n, seed) is one build ...
        assert a.graph is b.graph and a.ids is b.ids
        # ... whose every trial gets its own unconsumed rng of the seed.
        assert a.rng is not b.rng and a.rng.seed == b.rng.seed == 0
        # Another seed is another graph.
        assert c.graph is not a.graph
        assert bytes(c.graph.csr()[1]) != bytes(a.graph.csr()[1])
        assert cache_builds() == (2, 1, 0)
        assert cache.retained_nodes == 32

    def test_instance_without_rng_stays_without(self):
        family = registry.FamilyInfo(
            "test-no-rng", lambda n, seed: Instance.simple(cycle(n))
        )
        cache = InstanceCache()
        a, _ = cache.build(family, 8, 0)
        b, _ = cache.build(family, 8, 0)
        assert a.graph is b.graph
        assert a.rng is None and b.rng is None

    @pytest.mark.parametrize(
        "problem,solver,family,n",
        [
            ("sinkless-orientation", "sinkless-rand", "cubic", 30),
            ("mis", "mis-luby", "cubic", 30),
            ("padded-sinkless", "padded-sinkless-rand", "padded-sinkless", 2),
        ],
    )
    def test_memoized_instance_matches_fresh_build_twice(
        self, problem, solver, family, n, cache_builds
    ):
        instance, result, verified = reference_run(problem, solver, family, n, 1)
        expected = (
            instance.graph.num_nodes,
            result.rounds,
            tuple(result.node_radius),
            verified,
            tuple(sorted(result.extras.items())),
        )
        batch = TrialBatch(problem, solver, family)
        records = [batch.run_one(n, 1), batch.run_one(n, 1)]
        assert cache_builds() == (1, 1, 0)
        for record in records:
            assert record_key(record) == expected
            assert record.outputs == result.outputs

    def test_retained_nodes_never_exceed_the_budget(self, monkeypatch, cache_builds):
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 64)
        cache = InstanceCache()
        cubic = registry.family("cubic")
        for seed in range(4):
            cache.build(cubic, 16, seed)
        assert cache.retained_nodes == 64
        cache.build(cubic, 16, 0)  # a hit: seed 0 is now the most recent
        cache.build(cubic, 30, 0)  # evicts the least recent, seeds 1 and 2
        assert list(cache._kept) == [
            ("cubic", 16, 3), ("cubic", 16, 0), ("cubic", 30, 0)
        ]
        for seed in range(4, 12):
            cache.build(cubic, 16 + 2 * (seed % 3), seed)
            assert cache.retained_nodes <= 64
            assert cache.retained_nodes == sum(
                instance.graph.num_nodes for instance in cache._kept.values()
            )
        assert cache_builds()[2] == 0

    def test_over_budget_instance_is_returned_not_retained(
        self, monkeypatch, cache_builds
    ):
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 20)
        cache = InstanceCache()
        cubic = registry.family("cubic")
        kept, _ = cache.build(cubic, 16, 0)
        big, key = cache.build(cubic, 30, 0)
        again, _ = cache.build(cubic, 30, 0)
        assert key is None and big.graph.num_nodes == 30
        assert again.graph is not big.graph  # built afresh each time
        assert cache_builds() == (1, 0, 2)
        assert list(cache._kept) == [("cubic", 16, 0)]
        assert cache.retained_nodes == 16
        assert cache.build(cubic, 16, 0)[0].graph is kept.graph

    def test_batch_counts_reuse_on_topology_family(self, cache_builds):
        batch = TrialBatch("degree-parity", "parity", "cycle")
        for seed in range(4):
            batch.run_one(8, seed)
        assert cache_builds() == (1, 3, 0)

    def test_batch_prepared_verifiers_stay_bounded(self, monkeypatch, cache_builds):
        # 20 cycle sizes of 4..23 nodes overflow a 64-node budget many
        # times over.
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 64)
        batch = TrialBatch("degree-parity", "parity", "cycle")
        instances = batch.instances
        for n in range(4, 24):
            batch.run_one(n, 0)
            assert instances.retained_nodes <= 64
            assert instances.retained_nodes == sum(
                core.num_nodes for core in instances._kept.values()
            )
        # The most recent cores that fit are kept, and kept verifiers
        # are dropped with their cores.
        assert list(instances._kept) == [("cycle", 22), ("cycle", 23)]
        assert set(instances._prepared) <= set(instances._kept)
        assert cache_builds()[2] == 0

    def test_cores_and_seeded_instances_share_one_budget(
        self, monkeypatch, cache_builds
    ):
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 64)
        cache = InstanceCache()
        cycle_family, cubic = registry.family("cycle"), registry.family("cubic")
        cache.build(cycle_family, 20, 0)
        cache.build(cubic, 16, 0)
        cache.build(cubic, 16, 1)
        _, core_key = cache.build(cycle_family, 8, 0)
        assert core_key == ("cycle", 8)
        assert cache.retained_nodes == 20 + 16 + 16 + 8
        cache.build(cubic, 16, 2)  # evicts the least recent, the 20-cycle
        assert list(cache._kept) == [
            ("cubic", 16, 0), ("cubic", 16, 1), ("cycle", 8), ("cubic", 16, 2)
        ]
        assert cache.retained_nodes == 56
        again, _ = cache.build(cycle_family, 20, 1)  # built anew, evicting seed 0
        assert cache_builds() == (6, 0, 0)
        assert list(cache._kept)[-1] == ("cycle", 20)
        assert ("cubic", 16, 0) not in cache._kept
        assert cache.retained_nodes == 60

    def test_over_budget_core_is_rebuilt_per_trial(self, monkeypatch, cache_builds):
        monkeypatch.setattr(driver, "INSTANCE_NODE_BUDGET", 20)
        batch = TrialBatch("degree-parity", "parity", "cycle")
        instances = batch.instances
        first, core_key = instances.build(registry.family("cycle"), 30, 0)
        second, _ = instances.build(registry.family("cycle"), 30, 1)
        assert core_key is None and first.graph is not second.graph
        batch.run_one(30, 2)  # verified without a kept verifier
        assert cache_builds() == (0, 0, 3)
        assert not instances._kept and not instances._prepared
        assert instances.retained_nodes == 0

    @pytest.mark.skipif(
        not kernels.HAVE_NUMPY, reason="only the vector backend keeps verifiers"
    )
    def test_prepared_verifiers_are_shared_per_core_and_problem(self):
        instances = InstanceCache()
        for solver in ("parity", "parity-sync"):
            batch = TrialBatch(
                "degree-parity", solver, "cycle", instances=instances
            )
            batch.run_one(8, 0)
            batch.run_one(8, 1)
        (per_core,) = instances._prepared.values()
        assert list(per_core) == ["degree-parity"]
        # A replaced core invalidates its kept verifier.
        prepared = per_core["degree-parity"]
        instances._kept[("cycle", 8)] = registry.family("cycle").topology(8)
        batch = TrialBatch("degree-parity", "parity", "cycle", instances=instances)
        batch.run_one(8, 0)
        assert instances._prepared[("cycle", 8)]["degree-parity"] is not prepared

    def test_object_backend_keeps_no_verifier_per_core(self, cache_builds):
        batch = TrialBatch("degree-parity", "parity", "cycle", kernels="object")
        for seed in range(3):
            assert batch.run_one(8, seed).verified
        assert cache_builds() == (1, 2, 0)
        assert not batch.instances._prepared

    def test_batches_share_seeded_instances_across_solvers(self, cache_builds):
        instances = InstanceCache()
        det = TrialBatch(
            "sinkless-orientation", "sinkless-det", "cubic", instances=instances
        )
        rand = TrialBatch(
            "sinkless-orientation", "sinkless-rand", "cubic", instances=instances
        )
        for seed in range(3):
            det.run_one(16, seed)
        for seed in range(3):
            rand.run_one(16, seed)
        assert cache_builds() == (3, 3, 0)

    def test_registry_rejects_hooks_on_seeded_family(self):
        from repro.runtime.registry import register_family

        with pytest.raises(ValueError, match="both topology and dress"):
            register_family("bad-family", topology=lambda n: None)
        with pytest.raises(ValueError, match="both topology and dress"):
            register_family("bad-family", dress=lambda core, n, seed: None)


class TestChunkedEngineEquivalence:
    def test_records_identical_across_workers_and_batch_sizes(self):
        oracle = reference_records(PARITY_SPEC)
        for workers, batch_size in [
            (1, 1), (1, 2), (1, 64), (2, 1), (2, 3), (2, None), (4, 2),
        ]:
            report = run_experiment(
                PARITY_SPEC, workers=workers, batch_size=batch_size
            )
            assert report.records == oracle, (workers, batch_size)
            assert report.computed == len(oracle)

    def test_seeded_topology_spec_identical(self):
        spec = ExperimentSpec(
            "test/sinkless/sinkless-rand@cubic",
            "sinkless-orientation",
            "sinkless-rand",
            "cubic",
            ns=(16, 32),
            seeds=(0, 1, 2),
        )
        report = run_experiment(spec, workers=2, batch_size=3)
        assert report.records == reference_records(spec)

    def test_chunks_never_span_two_sizes(self):
        report = run_experiment(PARITY_SPEC, workers=1, batch_size=64)
        # 3 sizes x 3 seeds with a huge cap: one chunk per size.
        assert report.batches == 3
        assert report.batch_size == 64

    def test_batch_verifier_failure_still_raises(self):
        spec = ExperimentSpec(
            "test/gadget-prover@corrupt-color-clash",
            "gadget-proof",
            "gadget-prover",
            "corrupt-color-clash",
            ns=(4,),
            seeds=(0, 1),
        )
        with pytest.raises(
            AssertionError, match=r"prover flagged a valid gadget \(n=4, seed=0\)"
        ):
            run_experiment(spec, workers=1, batch_size=2)

    def test_mixed_ref_batches_rejected(self):
        trials = PARITY_SPEC.trials()[:1] + ExperimentSpec(
            "test/other", "constant", "constant", "cycle", (8,), (0,)
        ).trials()
        with pytest.raises(ValueError, match="must share"):
            execute_trial_batch(trials)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            run_experiment(PARITY_SPEC, workers=1, batch_size=0)

    def test_invalid_batch_size_rejected_even_on_warm_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(PARITY_SPEC, workers=1, cache=TrialCache(cache_dir))
        with pytest.raises(ValueError, match="batch size"):
            run_experiment(
                PARITY_SPEC, cache=TrialCache(cache_dir), batch_size=-1
            )


class TestCacheWarmReplay:
    def test_cold_batched_then_warm(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(
            PARITY_SPEC, workers=2, cache=TrialCache(cache_dir), batch_size=2
        )
        assert cold.computed == cold.trials_total == 9
        assert cold.batches == 6  # ceil(3/2) chunks per size, 3 sizes
        warm = run_experiment(
            PARITY_SPEC, workers=2, cache=TrialCache(cache_dir), batch_size=2
        )
        assert warm.cache_hits == warm.trials_total == 9
        assert warm.computed == 0 and warm.batches == 0
        assert warm.records == cold.records
        assert warm.sweep == cold.sweep

    def test_batched_records_replay_a_per_trial_cache(self, tmp_path):
        # A cache written by batch_size=1 must satisfy a batched rerun
        # (same keys, same records) and vice versa.
        cache_dir = str(tmp_path / "cache")
        run_experiment(
            PARITY_SPEC, workers=1, cache=TrialCache(cache_dir), batch_size=1
        )
        warm = run_experiment(
            PARITY_SPEC, workers=2, cache=TrialCache(cache_dir), batch_size=None
        )
        assert warm.cache_hits == warm.trials_total

    def test_warm_replay_does_not_materialize_a_solver(self, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            "test/constant@cycle-lazy-name",
            "constant",
            "constant",
            "cycle",
            ns=(8,),
            seeds=(0,),
        )
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(spec, workers=1, cache=TrialCache(cache_dir))
        from repro.problems.trivial import ConstantSolver

        def boom(self, *args, **kwargs):
            raise AssertionError("warm replay constructed a solver")

        monkeypatch.setattr(ConstantSolver, "__init__", boom)
        warm = run_experiment(spec, workers=1, cache=TrialCache(cache_dir))
        assert warm.cache_hits == warm.trials_total
        assert warm.sweep.solver_name == cold.sweep.solver_name == "constant"


class TestStreaming:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_record_sees_every_record_in_order(self, workers):
        seen = []
        report = run_experiment(
            PARITY_SPEC, workers=workers, batch_size=2, on_record=seen.append
        )
        assert seen == report.records

    def test_on_record_fires_for_cache_hits_and_computed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        narrower = dataclasses.replace(PARITY_SPEC, ns=(8, 12))
        run_experiment(narrower, workers=1, cache=TrialCache(cache_dir))
        seen = []
        report = run_experiment(
            PARITY_SPEC,
            workers=2,
            cache=TrialCache(cache_dir),
            on_record=seen.append,
        )
        assert len(seen) == report.trials_total == 9
        assert report.cache_hits == 6
        # Cached records stream first in grid order (the n=8 and n=12
        # trials), then the computed n=16 chunk; together they cover
        # exactly the report's record list.
        assert seen[:6] == report.records[:6]
        by_grid = sorted(seen, key=lambda r: (r["n"], r["seed"]))
        assert by_grid == sorted(
            report.records, key=lambda r: (r["n"], r["seed"])
        )


class TestLargestFirst:
    """A pool gets a spec's chunks largest-first; nothing else changes."""

    @pytest.mark.parametrize(
        "workers, batch_size, order",
        [
            # One chunk per size: descending n.
            (2, None, [[16, 16, 16], [12, 12, 12], [8, 8, 8]]),
            # n x trials: 32, 24, then the tied 16s in grid order, 12, 8.
            (2, 2, [[16, 16], [12, 12], [8, 8], [16], [12], [8]]),
            # The serial path keeps grid order.
            (1, 2, [[8, 8], [8], [12, 12], [12], [16, 16], [16]]),
        ],
    )
    def test_only_a_pool_gets_chunks_largest_first(
        self, monkeypatch, workers, batch_size, order
    ):
        submitted = []
        original = runner.run_task_batches

        def spy(fn, batches, **kwargs):
            submitted.extend(
                [trial["n"] for trial in batch["trials"]] for batch in batches
            )
            return original(fn, batches, **kwargs)

        monkeypatch.setattr(runner, "run_task_batches", spy)
        seen = []
        report = run_experiment(
            PARITY_SPEC,
            workers=workers,
            batch_size=batch_size,
            on_record=seen.append,
        )
        assert submitted == order
        assert seen == report.records
        assert report.records == reference_records(PARITY_SPEC)

    def test_chunks_are_stored_as_they_arrive(self, tmp_path):
        # A 3-regular graph on 2 nodes cannot be sampled, so the n=2
        # chunk raises; dispatched last, it comes after the larger ones.
        spec = ExperimentSpec(
            "test/sinkless-det@cubic-with-an-impossible-size",
            "sinkless-orientation",
            "sinkless-det",
            "cubic",
            ns=(2, 16, 32),
            seeds=(0, 1),
        )
        root = str(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="failed to sample"):
            run_experiment(spec, workers=2, cache=TrialCache(root))
        stored = TrialCache(root)
        assert [t.n for t in spec.trials() if stored.contains(t.key())] == [
            16, 16, 32, 32,
        ]


class TestAutoBatchSize:
    """Unpinned, a chunk holds one size's seeds, up to the cap."""

    @staticmethod
    def _chunk_sizes(seed_count):
        spec = ExperimentSpec(
            "test/degree-parity/parity@cycle-seeds",
            "degree-parity",
            "parity",
            "cycle",
            ns=(8, 12),
            seeds=tuple(range(seed_count)),
        )
        return [len(chunk) for chunk in shard_trials(spec, 0, 1)]

    def test_covers_a_seed_group(self):
        assert self._chunk_sizes(6) == [6, 6]

    def test_caps_and_floors(self):
        assert MAX_BATCH_SIZE == 64
        assert self._chunk_sizes(100) == [64, 36, 64, 36]
        assert self._chunk_sizes(1) == [1, 1]


class TestBestPerCellLandscape:
    def _report(self, solver, points):
        """A finished degree-parity@cycle report of ``solver``."""
        name = f"landscape/degree-parity/{solver}@cycle"
        spec = ExperimentSpec(
            name, "degree-parity", solver, "cycle", ns=(64,), seeds=(0,)
        )
        sweep = Sweep(solver_name=name, points=points)
        return type("FakeReport", (), {"spec": spec, "sweep": sweep})()

    @staticmethod
    def _points(rounds):
        return [
            SweepPoint(
                n=64 * 2**i,
                trials=1,
                rounds_mean=float(r),
                rounds_max=r,
                rounds_min=r,
            )
            for i, r in enumerate(rounds)
        ]

    def test_min_growth_wins_regardless_of_name_order(self):
        from repro.analysis.landscape import rows_from_engine_reports

        # "parity" sorts before "parity-sync", but its fake sweep grows
        # linearly while parity-sync stays constant: the best-per-cell
        # policy must pick the constant one for the det column.
        growing = self._report("parity", self._points([64, 128, 256, 512]))
        flat = self._report("parity-sync", self._points([3, 3, 3, 3]))
        rows = rows_from_engine_reports([growing, flat])
        assert len(rows) == 1
        assert rows[0].det_sweep is flat.sweep
        assert rows[0].measured_det() == "1"

    def test_short_sweeps_lose_to_fitted_ones(self):
        from repro.analysis.landscape import rows_from_engine_reports

        short = self._report("parity", self._points([1, 1]))
        fitted = self._report("parity-sync", self._points([5, 6, 7, 8]))
        rows = rows_from_engine_reports([short, fitted])
        assert rows[0].det_sweep is fitted.sweep


class TestCli:
    def test_batch_size_and_progress_flags(self, tmp_path, capsys):
        code = engine_main(
            [
                "run",
                "--experiment",
                "sinkless",
                "--workers",
                "1",
                "--max-n",
                "64",
                "--batch-size",
                "2",
                "--progress",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "chunk(s)" in captured.out
        assert "trials" in captured.err  # the progress line went to stderr

    def test_rejects_nonpositive_batch_size(self, tmp_path, capsys):
        code = engine_main(
            [
                "run",
                "--experiment",
                "sinkless",
                "--max-n",
                "64",
                "--batch-size",
                "0",
                "--no-cache",
            ]
        )
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err


class TestDisplayNames:
    def test_display_names(self):
        assert registry.solver_display_name("constant") == "constant"
        # Lambda factory: materialized once, then memoized.
        assert registry.solver_display_name("parity") == "parity"
        assert registry.solver_display_name("gadget-prover") == "gadget-prover-V"

    def test_every_solver_has_its_own_display_name(self):
        # A table title or a --json "solver" names one solver.
        names = [registry.solver_display_name(name) for name in registry.solvers()]
        assert len(set(names)) == len(names), sorted(names)
