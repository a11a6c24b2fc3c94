"""Shard determinism and cache merge algebra.

The shard layer's load-bearing invariant: running a plan's K shards in
ANY order, on any mix of processes, with any per-shard cache roots,
then merging, yields records — and a Figure 1 table — byte-identical
to the single-host run.  The suite pins that (K in {1, 2, 5} against
the per-trial oracle, plus the K=4 shuffled landscape acceptance run),
and the cache algebra that makes distributed merge safe: union is
idempotent and commutative, compaction preserves the index, and a torn
trailing line never poisons an import.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.engine.cache import TrialCache
from repro.engine.cli import main as engine_main
from repro.engine.experiments import build_experiment
from repro.engine.runner import (
    merge_shard_reports,
    plan_experiment,
    run_experiment,
    run_shard,
)
from repro.engine.shard import (
    ShardManifest,
    ShardPlan,
    dump_plan_file,
    load_plan_file,
)
from repro.engine.spec import ExperimentSpec
from tests.conftest import reference_records


PARITY_SPEC = ExperimentSpec(
    "test/degree-parity/parity@cycle",
    "degree-parity",
    "parity",
    "cycle",
    ns=(8, 12, 16),
    seeds=(0, 1, 2),
)


class TestPlanning:
    def test_plan_is_stable_under_replanning(self):
        a = plan_experiment(PARITY_SPEC, num_shards=3, batch_size=2)
        b = plan_experiment(PARITY_SPEC, num_shards=3, batch_size=2)
        assert a == b
        assert a.key() == b.key()

    def test_plan_chunks_cover_the_grid_and_respect_sizes(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        trials = PARITY_SPEC.trials()
        covered = sorted(i for chunk in plan.chunks for i in chunk)
        assert covered == list(range(len(trials)))
        for chunk in plan.chunks:
            assert len(chunk) <= 2
            assert len({trials[i].n for i in chunk}) == 1  # never spans sizes

    def test_shards_partition_the_chunks_round_robin(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        dealt = [plan.shard_chunks(i) for i in range(2)]
        assert dealt[0] == plan.chunks[0::2]
        assert dealt[1] == plan.chunks[1::2]
        merged = sorted(i for side in dealt for chunk in side for i in chunk)
        assert merged == list(range(plan.trial_count()))

    def test_chunking_ignores_the_cache_state(self, tmp_path):
        # Planning must chunk the FULL grid: a host with a warm cache
        # and a cold remote host have to agree on shard boundaries.
        cache = TrialCache(str(tmp_path / "warm"))
        run_experiment(PARITY_SPEC, cache=cache)
        warm = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        cold = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        assert warm.key() == cold.key()

    def test_warm_cache_keys_auto_batch_off_the_missing_subset(
        self, tmp_path
    ):
        # 16 sizes x 2 seeds: the full grid auto-sizes to 8-trial
        # chunks on one worker, but after warming all but the last
        # size, the 2-trial remainder must be sized for itself.
        wide = ExperimentSpec(
            "test/degree-parity/parity@cycle-wide",
            "degree-parity",
            "parity",
            "cycle",
            ns=tuple(range(4, 20)),
            seeds=(0, 1),
        )
        narrower = ExperimentSpec(
            wide.name, "degree-parity", "parity", "cycle",
            ns=wide.ns[:-1], seeds=wide.seeds,
        )
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(wide, cache=TrialCache(cache_dir))
        assert cold.batch_size == 8
        run_experiment(narrower, cache=TrialCache(str(tmp_path / "warm")))
        cache = TrialCache(str(tmp_path / "warm"))
        warm = run_experiment(wide, cache=cache)
        assert warm.computed == 2
        assert warm.batch_size == 2  # sized for the remainder, not the grid

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            plan_experiment(PARITY_SPEC, batch_size=0)
        with pytest.raises(ValueError, match=">= 1 shard"):
            plan_experiment(PARITY_SPEC, num_shards=0)
        plan = plan_experiment(PARITY_SPEC, num_shards=2)
        with pytest.raises(ValueError, match="out of range"):
            plan.manifest(2)

    def test_manifest_json_round_trip(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=3, batch_size=2)
        manifest = plan.manifest(1)
        clone = ShardManifest.from_json(manifest.to_json())
        assert clone == manifest
        assert clone.spec == PARITY_SPEC
        assert clone.trial_indices() == manifest.trial_indices()

    def test_plan_file_round_trip(self):
        plans = [plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)]
        payload = json.loads(json.dumps(dump_plan_file("test", plans)))
        experiment, loaded = load_plan_file(payload)
        assert experiment == "test"
        assert loaded == plans

    def test_plan_file_rejects_tampering(self):
        plans = [plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)]
        payload = dump_plan_file("test", plans)
        payload["specs"][0]["chunks"][0] = [1, 0]  # reorder one chunk
        with pytest.raises(ValueError, match="content hash"):
            load_plan_file(payload)

    def test_truncated_plan_refused_even_without_plan_key(self):
        plans = [plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)]
        payload = dump_plan_file("test", plans)
        payload["specs"][0]["chunks"] = payload["specs"][0]["chunks"][:-1]
        payload["specs"][0].pop("plan_key")
        with pytest.raises(ValueError, match="full 9-trial grid"):
            load_plan_file(payload)

    def test_foreign_version_refused(self):
        plans = [plan_experiment(PARITY_SPEC, num_shards=1)]
        payload = dump_plan_file("test", plans)
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            load_plan_file(payload)


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_merged_shards_match_the_per_trial_oracle(
        self, num_shards, tmp_path
    ):
        oracle = reference_records(PARITY_SPEC)
        plan = plan_experiment(
            PARITY_SPEC, num_shards=num_shards, batch_size=2
        )
        manifests = plan.manifests()
        random.Random(num_shards).shuffle(manifests)  # any execution order
        reports = []
        for manifest in manifests:
            cache = TrialCache(
                str(tmp_path / "shared"),
                isolation=str(tmp_path / f"shard-{manifest.shard_index}"),
            )
            reports.append(run_shard(manifest, workers=2, cache=cache))
        merged = merge_shard_reports(reports)
        assert merged.records == oracle
        assert merged.trials_total == len(oracle)
        assert merged.computed == len(oracle)
        single = run_experiment(PARITY_SPEC)
        assert merged.sweep == single.sweep

    def test_remote_host_needs_only_the_manifest(self, tmp_path):
        # Simulate shipping: serialize each manifest to JSON, "receive"
        # it, run from the deserialized copy alone.
        oracle = reference_records(PARITY_SPEC)
        plan = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        reports = []
        for manifest in plan.manifests():
            wire = manifest.to_json()
            reports.append(run_shard(ShardManifest.from_json(wire)))
        assert merge_shard_reports(reports).records == oracle

    def test_shard_replays_its_cache_slice(self, tmp_path):
        plan = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        cache = TrialCache(str(tmp_path / "cache"))
        cold = run_shard(plan.manifest(0), cache=cache)
        assert cold.computed == cold.trials_total > 0
        warm = run_shard(plan.manifest(0), cache=cache)
        assert warm.cache_hits == warm.trials_total
        assert warm.computed == 0 and warm.batches == 0
        assert warm.records == cold.records

    def test_scattered_misses_repack_into_full_chunks(self, tmp_path):
        # After a partial merge the misses can interleave with hits
        # inside one size; the dispatch must pack the missing subset
        # like the pre-shard runner, not ship one chunk per remnant.
        spec = ExperimentSpec(
            "test/degree-parity/parity@cycle-scattered",
            "degree-parity",
            "parity",
            "cycle",
            ns=(8,),
            seeds=tuple(range(8)),
        )
        full = TrialCache(str(tmp_path / "full"))
        oracle = run_experiment(spec, cache=full, batch_size=2)
        odd_keys = [
            trial.key() for trial in spec.trials() if trial.seed % 2
        ]
        dump = str(tmp_path / "odd.jsonl")
        assert full.export(dump, keys=odd_keys) == 4
        partial = TrialCache(str(tmp_path / "partial"))
        partial.import_file(dump)
        report = run_experiment(spec, cache=partial, batch_size=2)
        assert report.records == oracle.records
        assert report.cache_hits == 4 and report.computed == 4
        assert report.batches == 2  # [0,2] and [4,6], not four singletons

    def test_merge_rejects_incomplete_and_foreign_reports(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        reports = [run_shard(m) for m in plan.manifests()]
        with pytest.raises(ValueError, match="at least one"):
            merge_shard_reports([])
        with pytest.raises(ValueError, match="incomplete"):
            merge_shard_reports(reports[:1])
        with pytest.raises(ValueError, match="incomplete"):
            merge_shard_reports([reports[0], reports[0]])
        other = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=3)
        alien = run_shard(other.manifest(1))
        with pytest.raises(ValueError, match="different plans"):
            merge_shard_reports([reports[0], alien])

    def test_sharded_cache_roots_merge_into_a_full_replay(self, tmp_path):
        plan = plan_experiment(PARITY_SPEC, num_shards=3, batch_size=2)
        for manifest in plan.manifests():
            run_shard(
                manifest,
                cache=TrialCache(
                    str(tmp_path / "base"),
                    isolation=str(tmp_path / f"s{manifest.shard_index}"),
                ),
            )
        base = TrialCache(str(tmp_path / "base"))
        added = sum(
            base.merge(str(tmp_path / f"s{i}")) for i in range(3)
        )
        assert added == 9
        warm = run_experiment(
            PARITY_SPEC, cache=TrialCache(str(tmp_path / "base"))
        )
        assert warm.cache_hits == warm.trials_total == 9


class TestLandscapeAcceptance:
    def test_k4_shuffled_shards_match_the_single_host_landscape(
        self, tmp_path
    ):
        """The acceptance criterion, end to end: a landscape run split
        into K=4 shards, executed in shuffled order with per-shard
        cache roots, then merged, is byte-identical to K=1 — records
        and the rendered Figure 1 table."""
        from repro.analysis import render_landscape
        from repro.analysis.landscape import rows_from_engine_reports

        specs = build_experiment("landscape", max_n=128, seed_count=2)
        single_reports = [
            run_experiment(spec, cache=TrialCache(str(tmp_path / "single")))
            for spec in specs
        ]
        single_table = render_landscape(
            rows_from_engine_reports(single_reports)
        )

        plans = [
            plan_experiment(spec, num_shards=4, batch_size=2)
            for spec in specs
        ]
        jobs = [
            (plan, shard_index)
            for plan in plans
            for shard_index in range(4)
        ]
        random.Random(7).shuffle(jobs)  # any order, interleaved specs
        by_spec: dict[str, list] = {}
        for plan, shard_index in jobs:
            cache = TrialCache(
                str(tmp_path / "shared"),
                isolation=str(tmp_path / f"shard-{shard_index}"),
            )
            report = run_shard(plan.manifest(shard_index), cache=cache)
            by_spec.setdefault(plan.spec.name, []).append(report)
        merged_reports = [
            merge_shard_reports(by_spec[spec.name]) for spec in specs
        ]

        for single, merged in zip(single_reports, merged_reports):
            assert merged.records == single.records
            assert json.dumps(merged.records, sort_keys=True) == json.dumps(
                single.records, sort_keys=True
            )
            assert merged.sweep == single.sweep
        merged_table = render_landscape(
            rows_from_engine_reports(merged_reports)
        )
        assert merged_table == single_table

        # And the merged cache replays every shard's work: union the
        # four private roots, then rerun the whole landscape all-hits.
        base = TrialCache(str(tmp_path / "shared"))
        for shard_index in range(4):
            base.merge(str(tmp_path / f"shard-{shard_index}"))
        replay = [
            run_experiment(
                spec, cache=TrialCache(str(tmp_path / "shared"))
            )
            for spec in specs
        ]
        assert all(rep.computed == 0 for rep in replay)
        assert [rep.records for rep in replay] == [
            rep.records for rep in single_reports
        ]


class TestCacheAlgebra:
    def _filled(self, root, items):
        cache = TrialCache(str(root))
        cache.put_many(items)
        return cache

    def test_merge_is_idempotent(self, tmp_path):
        a = self._filled(tmp_path / "a", [("aa1", {"x": 1}), ("bb2", {"x": 2})])
        b = self._filled(tmp_path / "b", [("aa1", {"x": 1}), ("cc3", {"x": 3})])
        assert b.merge(str(tmp_path / "a")) == 1  # only bb2 is new
        assert b.merge(str(tmp_path / "a")) == 0  # idempotent
        again = TrialCache(str(tmp_path / "b"))
        assert again.merge(str(tmp_path / "a")) == 0  # on disk, too

    def test_merge_is_commutative(self, tmp_path):
        items_a = [("aa1", {"x": 1}), ("bb2", {"x": 2})]
        items_b = [("cc3", {"x": 3}), ("dd4", {"x": 4})]
        self._filled(tmp_path / "a", items_a)
        self._filled(tmp_path / "b", items_b)
        ab = TrialCache(str(tmp_path / "ab"))
        ab.merge(str(tmp_path / "a"))
        ab.merge(str(tmp_path / "b"))
        ba = TrialCache(str(tmp_path / "ba"))
        ba.merge(str(tmp_path / "b"))
        ba.merge(str(tmp_path / "a"))
        for cache in (ab, ba):
            cache.load_all()
        assert ab._index == ba._index
        assert len(ab) == 4

    def test_merge_missing_root_rejected(self, tmp_path):
        cache = TrialCache(str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="does not exist"):
            cache.merge(str(tmp_path / "nope"))

    def test_export_import_round_trip(self, tmp_path):
        items = [("aa1", {"x": 1}), ("bb2", {"x": 2}), ("cc3", {"x": 3})]
        cache = self._filled(tmp_path / "src", items)
        out = str(tmp_path / "dump.jsonl")
        assert cache.export(out) == 3
        dest = TrialCache(str(tmp_path / "dest"))
        assert dest.import_file(out) == (3, 0)
        assert dest.import_file(out) == (0, 0)  # idempotent
        for key, record in items:
            assert dest.get(key) == record

    def test_export_selected_keys(self, tmp_path):
        cache = self._filled(
            tmp_path / "src", [("aa1", {"x": 1}), ("bb2", {"x": 2})]
        )
        out = str(tmp_path / "dump.jsonl")
        assert cache.export(out, keys=["bb2", "zz9"]) == 1
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 and '"bb2"' in lines[0]

    def test_export_dedups_repeated_keys(self, tmp_path):
        # Keys gathered from overlapping manifests repeat; the export
        # must not crash sorting equal keys nor write duplicates.
        cache = self._filled(tmp_path / "src", [("aa1", {"x": 1})])
        out = str(tmp_path / "dump.jsonl")
        assert cache.export(out, keys=["aa1", "aa1"]) == 1
        with open(out, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 1

    def test_torn_tail_tolerated_everywhere(self, tmp_path):
        cache = self._filled(tmp_path / "src", [("aa1", {"x": 1})])
        out = str(tmp_path / "dump.jsonl")
        cache.export(out)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write('{"key": "bb2", "record": {"x"')  # killed mid-write
        dest = TrialCache(str(tmp_path / "dest"))
        assert dest.import_file(out) == (1, 1)  # one good, one torn
        assert dest.stats.torn_lines == 1
        assert dest.get("aa1") == {"x": 1}
        # The same torn line inside a shard file is skipped on load.
        shard = os.path.join(str(tmp_path / "dest"), "aa.jsonl")
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa9", "rec')
        fresh = TrialCache(str(tmp_path / "dest"))
        assert fresh.get("aa1") == {"x": 1}
        assert fresh.get("aa9") is None

    def test_import_missing_file_rejected(self, tmp_path):
        cache = TrialCache(str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="does not exist"):
            cache.import_file(str(tmp_path / "nope.jsonl"))

    def test_isolation_writes_stay_private(self, tmp_path):
        base_root = str(tmp_path / "base")
        private = str(tmp_path / "private")
        TrialCache(base_root).put("aa1", {"x": 1})
        shard = TrialCache(base_root, isolation=private)
        assert shard.get("aa1") == {"x": 1}  # reads see the shared root
        shard.put("bb2", {"x": 2})
        assert shard.get("bb2") == {"x": 2}
        assert TrialCache(base_root).get("bb2") is None  # base untouched
        assert os.path.exists(os.path.join(private, "bb.jsonl"))
        merged = TrialCache(base_root)
        assert merged.merge(private) == 1
        assert TrialCache(base_root).get("bb2") == {"x": 2}

    def test_isolation_wins_over_the_shared_root(self, tmp_path):
        base_root = str(tmp_path / "base")
        TrialCache(base_root).put("aa1", {"x": "stale"})
        shard = TrialCache(base_root, isolation=str(tmp_path / "private"))
        shard.put("aa1", {"x": "fresh"})
        again = TrialCache(base_root, isolation=str(tmp_path / "private"))
        assert again.get("aa1") == {"x": "fresh"}


class TestCompaction:
    def test_compact_drops_duplicate_appends_and_preserves_the_index(
        self, tmp_path
    ):
        root = str(tmp_path / "cache")
        cache = TrialCache(root)
        for _ in range(3):
            cache.put("aa1", {"x": 1})
            cache.put("aa2", {"x": 2})
        cache.put("bb1", {"x": 3})
        before = TrialCache(root)
        before.load_all()
        kept, dropped = TrialCache(root).compact()
        assert (kept, dropped) == (3, 4)
        after = TrialCache(root)
        after.load_all()
        assert after._index == before._index
        # Idempotent: a second pass finds nothing to drop.
        assert TrialCache(root).compact() == (3, 0)

    def test_compacted_cache_still_replays_the_engine_run(self, tmp_path):
        root = str(tmp_path / "cache")
        run_experiment(PARITY_SPEC, cache=TrialCache(root))
        # Force duplicate lines the way an interrupted rerun would.
        dup = TrialCache(root)
        dup.load_all()
        dup.put_many(list(dup._index.items()))
        kept, dropped = TrialCache(root).compact()
        assert kept == 9 and dropped == 9
        warm = run_experiment(PARITY_SPEC, cache=TrialCache(root))
        assert warm.cache_hits == warm.trials_total == 9


class TestCli:
    def _plan_file(self, tmp_path, shards=2):
        path = str(tmp_path / "plan.json")
        code = engine_main(
            [
                "plan",
                "--experiment",
                "sinkless",
                "--max-n",
                "128",
                "--shards",
                str(shards),
                "--batch-size",
                "2",
                "--out",
                path,
            ]
        )
        assert code == 0
        return path

    def test_plan_run_shard_merge_status_round_trip(self, tmp_path, capsys):
        plan_path = self._plan_file(tmp_path)
        merged_dir = str(tmp_path / "merged")
        for shard in ("0/2", "1/2"):
            code = engine_main(
                [
                    "run-shard",
                    "--plan",
                    plan_path,
                    "--shard",
                    shard,
                    "--workers",
                    "1",
                    "--cache-dir",
                    merged_dir,
                    "--cache-out",
                    str(tmp_path / f"s{shard[0]}"),
                ]
            )
            assert code == 0
        out = capsys.readouterr().out
        assert "shard 0/2" in out and "shard 1/2" in out
        code = engine_main(
            [
                "merge",
                "--plan",
                plan_path,
                "--cache-dir",
                merged_dir,
                "--from",
                str(tmp_path / "s0"),
                str(tmp_path / "s1"),
                "--compact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "merged 2 shard root(s)" in out
        assert ", 0 computed during merge" in out
        code = engine_main(
            ["status", "--plan", plan_path, "--cache-dir", merged_dir]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "complete" in out and "without computing" in out

    def test_merge_computes_the_remainder_of_a_partial_plan(
        self, tmp_path, capsys
    ):
        plan_path = self._plan_file(tmp_path)
        merged_dir = str(tmp_path / "merged")
        engine_main(
            [
                "run-shard",
                "--plan",
                plan_path,
                "--shard",
                "0",
                "--workers",
                "1",
                "--cache-dir",
                merged_dir,
            ]
        )
        capsys.readouterr()
        code = engine_main(
            [
                "status", "--plan", plan_path, "--cache-dir", merged_dir,
            ]
        )
        assert code == 0
        assert "remaining" in capsys.readouterr().out
        code = engine_main(
            [
                "merge",
                "--plan",
                plan_path,
                "--cache-dir",
                merged_dir,
                "--workers",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ", 0 computed during merge" not in out

    def test_status_sees_unmerged_cache_out_roots(self, tmp_path, capsys):
        # The documented scheduler probe: shards write private
        # --cache-out roots; status --from must count them as done
        # before any merge happens.
        plan_path = self._plan_file(tmp_path)
        merged_dir = str(tmp_path / "merged")
        for shard in ("0/2", "1/2"):
            engine_main(
                [
                    "run-shard",
                    "--plan",
                    plan_path,
                    "--shard",
                    shard,
                    "--workers",
                    "1",
                    "--cache-dir",
                    merged_dir,
                    "--cache-out",
                    str(tmp_path / f"s{shard[0]}"),
                ]
            )
        capsys.readouterr()
        code = engine_main(
            ["status", "--plan", plan_path, "--cache-dir", merged_dir]
        )
        assert code == 0
        assert "remaining" in capsys.readouterr().out  # merged root is empty
        code = engine_main(
            [
                "status",
                "--plan",
                plan_path,
                "--cache-dir",
                merged_dir,
                "--from",
                str(tmp_path / "s0"),
                str(tmp_path / "s1"),
            ]
        )
        assert code == 0
        assert "plan complete" in capsys.readouterr().out
        code = engine_main(
            [
                "status",
                "--plan",
                plan_path,
                "--cache-dir",
                merged_dir,
                "--from",
                str(tmp_path / "nope"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_read_only_subcommands_reject_a_missing_cache_dir(
        self, tmp_path, capsys
    ):
        # A typo'd --cache-dir must error, not be silently created and
        # report a finished plan as all-remaining.
        plan_path = self._plan_file(tmp_path)
        for argv in (
            ["status", "--plan", plan_path, "--cache-dir", str(tmp_path / "x")],
            ["cache", "--cache-dir", str(tmp_path / "x")],
        ):
            assert engine_main(argv) == 2, argv
            assert "does not exist" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_invalid_shard_spec_rejected(self, tmp_path, capsys):
        plan_path = self._plan_file(tmp_path)
        for bad in ("2/2", "0/3", "-1"):
            code = engine_main(
                ["run-shard", "--plan", plan_path, "--shard", bad]
            )
            assert code == 2, bad
            assert "error:" in capsys.readouterr().err

    def test_cache_compact_subcommand(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        cache = TrialCache(root)
        cache.put("aa1", {"x": 1})
        cache.put("aa1", {"x": 1})
        code = engine_main(["cache", "--cache-dir", root, "--compact"])
        assert code == 0
        assert "dropped 1 stale line(s)" in capsys.readouterr().out
        code = engine_main(["cache", "--cache-dir", root])
        assert code == 0
        assert "1 record(s) on disk" in capsys.readouterr().out

    def test_list_exposes_unsound_probes(self, capsys):
        assert engine_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "corrupt-wrong-index" in out
        assert "declared-unsound probe triples" in out
        assert engine_main(["describe", "gadget-prover"]) == 0
        out = capsys.readouterr().out
        assert "verifier must reject" in out

    def test_progressive_landscape_table_on_stderr(self, tmp_path, capsys):
        code = engine_main(
            [
                "run",
                "--experiment",
                "landscape",
                "--max-n",
                "64",
                "--seeds",
                "1",
                "--workers",
                "1",
                "--progress",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # The partial table streams to stderr while specs complete...
        assert "Figure 1" in captured.err
        assert "specs]" in captured.err
        # ...and the final table still lands on stdout.
        assert "Figure 1" in captured.out
