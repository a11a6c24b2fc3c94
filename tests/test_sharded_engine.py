"""Shard determinism and cache merge algebra.

The shard layer's load-bearing invariant: running a plan's K shards in
ANY order, on any mix of processes, into per-shard cache roots, then
unioning the roots and replaying the plan, yields records — and a
Figure 1 table — byte-identical to the single-host run.  The suite
pins that (K in {1, 2, 5} against the per-trial oracle, plus the K=4
shuffled landscape acceptance run), the property a launcher's restart
rests on (a shard that fails mid-run keeps its finished chunks, and
the rerun computes only the rest), and the cache algebra that makes
distributed merge safe: union is idempotent and commutative,
compaction preserves the index, and a torn trailing line never
poisons a merge.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import sys

import pytest

from repro.engine import pool, runner
from repro.engine.cache import TrialCache
from repro.engine.cli import main as engine_main
from repro.engine.experiments import EXPERIMENTS, build_experiment
from repro.engine.pool import WorkerCrashed
from repro.engine.runner import (
    MAX_BATCH_SIZE,
    plan_experiment,
    run_experiment,
    run_shard,
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

    def test_trial_indices_flatten_the_shard_chunks(self):
        for num_shards in (1, 2, 4):
            plan = plan_experiment(
                PARITY_SPEC, num_shards=num_shards, batch_size=2
            )
            owned = [plan.trial_indices(i) for i in range(num_shards)]
            for shard_index, indices in enumerate(owned):
                assert indices == [
                    i for chunk in plan.shard_chunks(shard_index) for i in chunk
                ]
            everything = [i for indices in owned for i in indices]
            assert sorted(everything) == list(range(plan.trial_count()))
            with pytest.raises(ValueError, match="out of range"):
                plan.trial_indices(num_shards)
        # One shard owns the whole grid, in grid order.
        assert plan_experiment(PARITY_SPEC).trial_indices(0) == list(
            range(len(PARITY_SPEC.trials()))
        )

    def test_chunking_ignores_the_cache_state(self, tmp_path):
        # Planning must chunk the FULL grid: a host with a warm cache
        # and a cold remote host have to agree on shard boundaries.
        cache = TrialCache(str(tmp_path / "warm"))
        run_experiment(PARITY_SPEC, cache=cache)
        warm = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        cold = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        assert warm == cold

    @pytest.mark.parametrize(
        "max_n, seed_count", [(None, None), (4096, 100)], ids=["default", "wide"]
    )
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_default_chunks_are_one_per_size_split_at_the_cap(
        self, experiment, max_n, seed_count
    ):
        # The default chunk size depends on the seed count alone, so
        # every host derives the same shards from the grid flags.
        for spec in build_experiment(experiment, max_n, seed_count):
            plan = plan_experiment(spec)
            seeds = len(spec.seeds)
            per_size = [MAX_BATCH_SIZE] * (seeds // MAX_BATCH_SIZE)
            per_size += [seeds % MAX_BATCH_SIZE] if seeds % MAX_BATCH_SIZE else []
            assert plan.batch_size == min(MAX_BATCH_SIZE, seeds)
            assert [len(chunk) for chunk in plan.chunks] == per_size * len(spec.ns)
            assert [i for chunk in plan.chunks for i in chunk] == list(
                range(len(spec.ns) * seeds)
            )
            trials = spec.trials()
            for chunk in plan.chunks:
                assert len({trials[i].n for i in chunk}) == 1, spec.name

    def test_warm_cache_keys_auto_batch_off_the_missing_subset(
        self, tmp_path
    ):
        # 16 sizes x 2 seeds: after warming all but the last size, the
        # 2-trial remainder travels as the one chunk it needs.
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
        assert cold.batches == 16  # one chunk per size
        run_experiment(narrower, cache=TrialCache(str(tmp_path / "warm")))
        cache = TrialCache(str(tmp_path / "warm"))
        warm = run_experiment(wide, cache=cache)
        assert warm.computed == 2
        assert warm.batches == 1
        assert warm.records == cold.records

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            plan_experiment(PARITY_SPEC, batch_size=0)
        with pytest.raises(ValueError, match=">= 1 shard"):
            plan_experiment(PARITY_SPEC, num_shards=0)
        plan = plan_experiment(PARITY_SPEC, num_shards=2)
        with pytest.raises(ValueError, match="out of range"):
            plan.shard_chunks(2)
        with pytest.raises(ValueError, match="out of range"):
            run_shard(plan, -1)


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_merged_shards_match_the_per_trial_oracle(
        self, num_shards, tmp_path
    ):
        oracle = reference_records(PARITY_SPEC)
        plan = plan_experiment(
            PARITY_SPEC, num_shards=num_shards, batch_size=2
        )
        rng = random.Random(num_shards)
        order = list(range(num_shards))
        rng.shuffle(order)  # any execution order
        assembled = [None] * len(oracle)
        computed = 0
        for shard_index in order:
            cache = TrialCache(
                str(tmp_path / "shared"),
                isolation=str(tmp_path / f"shard-{shard_index}"),
            )
            report = run_shard(plan, shard_index, workers=2, cache=cache)
            computed += report.computed
            for i, record in report.records:
                assert assembled[i] is None  # no trial in two shards
                assembled[i] = record
        assert assembled == oracle
        assert computed == len(oracle)

        rng.shuffle(order)  # any union order
        merged = TrialCache(str(tmp_path / "merged"))
        for shard_index in order:
            merged.merge(str(tmp_path / f"shard-{shard_index}"))
        replay = run_experiment(
            PARITY_SPEC, cache=merged, batch_size=plan.batch_size
        )
        assert replay.records == oracle
        assert replay.trials_total == len(oracle)
        assert replay.computed == 0
        single = run_experiment(PARITY_SPEC)
        assert replay.sweep == single.sweep

    def test_shard_report_payload_names_its_plan(self):
        plan = plan_experiment(PARITY_SPEC, num_shards=3, batch_size=2)
        report = run_shard(plan, 1)
        # What ``run-shard --json`` writes, read back.
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["experiment"] == PARITY_SPEC.name
        assert (payload["shard_index"], payload["num_shards"]) == (1, 3)
        assert [i for i, _ in payload["records"]] == plan.trial_indices(1)
        assert payload["records"] == [[i, r] for i, r in report.records]
        assert payload["trials_total"] == len(plan.trial_indices(1))

    def test_shard_replays_its_cache_slice(self, tmp_path):
        plan = plan_experiment(PARITY_SPEC, num_shards=2, batch_size=2)
        cache = TrialCache(str(tmp_path / "cache"))
        cold = run_shard(plan, 0, cache=cache)
        assert cold.computed == cold.trials_total > 0
        warm = run_shard(plan, 0, cache=cache)
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
        oracle = run_experiment(spec, batch_size=2)
        partial = TrialCache(str(tmp_path / "partial"))
        partial.put_many(
            (trial.key(), record)
            for trial, record in zip(spec.trials(), oracle.records)
            if trial.seed % 2
        )
        report = run_experiment(spec, cache=partial, batch_size=2)
        assert report.records == oracle.records
        assert report.cache_hits == 4 and report.computed == 4
        assert report.batches == 2  # [0,2] and [4,6], not four singletons

    def test_sharded_cache_roots_merge_into_a_full_replay(self, tmp_path):
        plan = plan_experiment(PARITY_SPEC, num_shards=3, batch_size=2)
        for shard_index in range(plan.num_shards):
            run_shard(
                plan,
                shard_index,
                cache=TrialCache(
                    str(tmp_path / "base"),
                    isolation=str(tmp_path / f"s{shard_index}"),
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


def _records_on_disk(root):
    cache = TrialCache(root)
    cache.load_all()
    return dict(cache._index)


_EXECUTE = runner._execute_batch_payload
#: The trial whose chunk kills its pool helper in the crash test.
_DOOMED = PARITY_SPEC.trials()[4].to_payload()
#: Set by the helper that claims the doomed chunk; the crash test makes
#: it before the dispatch, so forked helpers inherit it.
_DOOMED_CLAIMED = None
#: The trial payloads of the chunks the calling process ran itself.
_RAN_IN_CALLER: list = []


def _die_on_the_doomed_chunk(payload):
    in_caller = multiprocessing.parent_process() is None
    if _DOOMED in payload["trials"]:
        if in_caller:
            # Never SIGKILL the test process itself.
            raise RuntimeError("the doomed chunk ran outside a pool helper")
        _DOOMED_CLAIMED.set()
        os.kill(os.getpid(), signal.SIGKILL)
    if in_caller:
        # The caller's own chunks wait until a helper holds the doomed
        # one, so the caller never claims it.
        assert _DOOMED_CLAIMED.wait(timeout=60), "no helper claimed the doomed chunk"
        _RAN_IN_CALLER.extend(payload["trials"])
    return _EXECUTE(payload)


class TestInterruptedShard:
    """A shard that fails mid-run keeps every chunk it delivered, so
    its rerun — whatever launcher restarts it — computes only the rest
    and leaves the cache a clean K=1 run writes."""

    def test_a_failed_chunk_keeps_the_chunks_before_it(
        self, tmp_path, monkeypatch
    ):
        plan = plan_experiment(PARITY_SPEC, batch_size=1)
        trials = PARITY_SPEC.trials()
        calls = []

        def fail_the_third(payload):
            calls.append(payload)
            if len(calls) == 3:
                raise RuntimeError("the shard died here")
            return _EXECUTE(payload)

        root = str(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_execute_batch_payload", fail_the_third)
            with pytest.raises(RuntimeError, match="the shard died here"):
                run_shard(plan, 0, workers=1, cache=TrialCache(root))
        delivered = [trials[i].key() for chunk in plan.chunks[:2] for i in chunk]
        assert sorted(_records_on_disk(root)) == sorted(delivered)

        rerun = run_shard(plan, 0, workers=1, cache=TrialCache(root))
        assert rerun.cache_hits == 2
        assert rerun.computed == len(trials) - 2
        oracle = str(tmp_path / "oracle")
        run_experiment(PARITY_SPEC, cache=TrialCache(oracle))
        # Serial runs append in grid order, so even the files match.
        for name in sorted(os.listdir(oracle)):
            with open(os.path.join(root, name), "rb") as mine, open(
                os.path.join(oracle, name), "rb"
            ) as clean:
                assert mine.read() == clean.read(), name
        assert sorted(os.listdir(root)) == sorted(os.listdir(oracle))

    def test_a_dead_worker_keeps_the_delivered_chunks(
        self, tmp_path, monkeypatch
    ):
        ctx = pool._context()
        try:
            claimed = ctx.Event()
        except (ImportError, NotImplementedError, OSError):
            pytest.skip("no process helpers on this platform")
        if ctx.get_start_method() != "fork":
            pytest.skip("helpers are not forked, so they would not see the event")
        plan = plan_experiment(PARITY_SPEC, batch_size=1)
        trials = PARITY_SPEC.trials()
        # The pool gets the chunks largest-first; the doomed chunk's
        # position in that order is the batch index the crash names.
        order = sorted(range(len(trials)), key=lambda i: (-trials[i].n, i))
        doomed = order.index(4)
        root = str(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(
                runner, "_execute_batch_payload", _die_on_the_doomed_chunk
            )
            patch.setattr(sys.modules[__name__], "_DOOMED_CLAIMED", claimed)
            patch.setattr(sys.modules[__name__], "_RAN_IN_CALLER", [])
            with pytest.raises(WorkerCrashed) as excinfo:
                run_shard(plan, 0, workers=2, cache=TrialCache(root))
            ran_in_caller = [
                i for i, trial in enumerate(trials)
                if trial.to_payload() in _RAN_IN_CALLER
            ]
        assert excinfo.value.chunk_indices == (doomed,)
        # The helper ran the chunks up to the doomed one; the caller ran
        # the rest, from the back.
        assert ran_in_caller == sorted(order[doomed + 1:])
        stored = _records_on_disk(root)
        # One trial per chunk: every chunk but the doomed one is stored,
        # with the record a clean run computes.
        assert sorted(stored) == sorted(
            trial.key() for i, trial in enumerate(trials) if i != 4
        )
        oracle = str(tmp_path / "oracle")
        run_experiment(PARITY_SPEC, cache=TrialCache(oracle))
        clean = _records_on_disk(oracle)
        assert all(clean[key] == record for key, record in stored.items())

        rerun = run_shard(plan, 0, workers=2, cache=TrialCache(root))
        assert rerun.cache_hits == len(trials) - 1
        assert rerun.computed == 1
        # Pool chunks land in arrival order, so compare the key ->
        # record mappings rather than the append-ordered shard files.
        assert _records_on_disk(root) == _records_on_disk(oracle)


class TestLandscapeAcceptance:
    def test_k4_shuffled_shards_match_the_single_host_landscape(
        self, tmp_path
    ):
        """The acceptance criterion, end to end: a landscape run split
        into K=4 shards, executed in shuffled order into per-shard
        cache roots, unioned in shuffled order and replayed, is
        byte-identical to K=1 — records and the rendered Figure 1
        table."""
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
        rng = random.Random(7)
        rng.shuffle(jobs)  # any order, interleaved specs
        for plan, shard_index in jobs:
            cache = TrialCache(
                str(tmp_path / "shared"),
                isolation=str(tmp_path / f"shard-{shard_index}"),
            )
            run_shard(plan, shard_index, cache=cache)

        # Union the four private roots, then replay the whole
        # landscape from the merged cache: all hits.
        roots = list(range(4))
        rng.shuffle(roots)
        base = TrialCache(str(tmp_path / "shared"))
        for shard_index in roots:
            base.merge(str(tmp_path / f"shard-{shard_index}"))
        replay = [
            run_experiment(
                spec, cache=TrialCache(str(tmp_path / "shared"))
            )
            for spec in specs
        ]
        assert all(rep.computed == 0 for rep in replay)
        for single, merged in zip(single_reports, replay):
            assert merged.records == single.records
            assert json.dumps(merged.records, sort_keys=True) == json.dumps(
                single.records, sort_keys=True
            )
            assert merged.sweep == single.sweep
        assert render_landscape(rows_from_engine_reports(replay)) == single_table


#: Lines that decode to a JSON object but are not a record: each is
#: skipped and counted like a torn tail, never indexed.
STRAY_OBJECTS = [
    pytest.param('{"stray": 1}', id="neither-key-nor-record"),
    pytest.param('{"key": "aa2"}', id="no-record"),
    pytest.param('{"record": {"x": 2}}', id="no-key"),
    pytest.param('{"key": "", "record": {"x": 2}}', id="empty-key"),
    pytest.param('{"key": 7, "record": {"x": 2}}', id="number-key"),
    pytest.param('{"key": "aa2", "record": 5}', id="number-record"),
    pytest.param('{"key": "aa2", "record": null}', id="null-record"),
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

    def test_torn_tail_tolerated_everywhere(self, tmp_path):
        self._filled(tmp_path / "src", [("aa1", {"x": 1})])
        source = os.path.join(str(tmp_path / "src"), "aa.jsonl")
        with open(source, "a", encoding="utf-8") as handle:
            handle.write('{"key": "bb2", "record": {"x"')  # killed mid-write
        dest = TrialCache(str(tmp_path / "dest"))
        assert dest.merge(str(tmp_path / "src")) == 1  # one good, one torn
        assert dest.torn_lines == 1
        assert dest.get("aa1") == {"x": 1}
        # The same torn line inside a shard file is skipped on load.
        shard = os.path.join(str(tmp_path / "dest"), "aa.jsonl")
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa9", "rec')
        fresh = TrialCache(str(tmp_path / "dest"))
        assert fresh.get("aa1") == {"x": 1}
        assert fresh.get("aa9") is None

    def test_put_after_a_torn_tail_keeps_its_record(self, tmp_path):
        root = str(tmp_path / "cache")
        TrialCache(root).put("aa01", {"x": 1})
        with open(os.path.join(root, "aa.jsonl"), "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa02", "record"')  # a killed writer's tail
        TrialCache(root).put("aa03", {"x": 3})
        again = TrialCache(root)
        assert again.get("aa01") == {"x": 1}
        assert again.get("aa03") == {"x": 3}
        assert again.get("aa02") is None
        assert again.torn_lines == 1

    def test_non_object_lines_are_skipped_and_counted(self, tmp_path):
        self._filled(tmp_path / "src", [("aa1", {"x": 1})])
        shard = os.path.join(str(tmp_path / "src"), "aa.jsonl")
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('42\n"aa2"\n[1, 2]\nnull\n')
        fresh = TrialCache(str(tmp_path / "src"))
        assert fresh.get("aa1") == {"x": 1}
        assert fresh.torn_lines == 4
        dest = TrialCache(str(tmp_path / "dest"))
        assert dest.merge(str(tmp_path / "src")) == 1
        assert dest.torn_lines == 4

    @pytest.mark.parametrize("line", STRAY_OBJECTS)
    def test_stray_objects_are_skipped_and_counted(self, tmp_path, line):
        self._filled(tmp_path / "src", [("aa1", {"x": 1})])
        shard = os.path.join(str(tmp_path / "src"), "aa.jsonl")
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        fresh = TrialCache(str(tmp_path / "src"))
        fresh.load_all()
        assert fresh._index == {"aa1": {"x": 1}}
        assert fresh.torn_lines == 1
        merged = TrialCache(str(tmp_path / "merged"))
        assert merged.merge(str(tmp_path / "src")) == 1
        assert merged.torn_lines == 1

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

    def test_compact_drops_and_counts_a_torn_tail(self, tmp_path):
        root = str(tmp_path / "cache")
        TrialCache(root).put_many([("aa1", {"x": 1}), ("aa2", {"x": 2})])
        with open(os.path.join(root, "aa.jsonl"), "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa3", "rec')  # a killed writer's tail
        assert TrialCache(root).compact() == (2, 1)
        after = TrialCache(root)
        after.load_all()
        assert after.torn_lines == 0
        assert after._index == {"aa1": {"x": 1}, "aa2": {"x": 2}}
        assert TrialCache(root).compact() == (2, 0)

    def test_compact_counts_a_torn_tail_beside_a_duplicate(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = TrialCache(root)
        cache.put_many([("aa1", {"x": 1}), ("aa2", {"x": 2})])
        cache.put("aa1", {"x": 1})
        with open(os.path.join(root, "aa.jsonl"), "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa3", "rec')
        assert TrialCache(root).compact() == (2, 2)
        after = TrialCache(root)
        after.load_all()
        assert after.torn_lines == 0
        assert len(after) == 2

    @pytest.mark.parametrize("line", STRAY_OBJECTS)
    def test_compact_drops_and_counts_a_stray_object(self, tmp_path, line):
        root = str(tmp_path / "cache")
        TrialCache(root).put("aa1", {"x": 1})
        shard = os.path.join(root, "aa.jsonl")
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert TrialCache(root).compact() == (1, 1)
        with open(shard, encoding="utf-8") as handle:
            assert handle.read() == '{"key": "aa1", "record": {"x": 1}}\n'
        after = TrialCache(root)
        after.load_all()
        assert after.torn_lines == 0

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
    #: The grid flags every shard, status and replay of one run shares.
    GRID = ["--experiment", "sinkless", "--max-n", "128", "--batch-size", "2"]

    def _run_shard(self, shard, cache_dir, cache_out=None, grid=GRID):
        argv = ["run-shard", *grid, "--shard", shard, "--workers", "1"]
        argv += ["--cache-dir", str(cache_dir)]
        if cache_out is not None:
            argv += ["--cache-out", str(cache_out)]
        assert engine_main(argv) == 0

    @staticmethod
    def _reports(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["reports"]

    def test_run_shard_status_replay_round_trip(self, tmp_path, capsys):
        merged_dir = str(tmp_path / "merged")
        for shard in ("0/2", "1/2"):
            self._run_shard(shard, merged_dir, tmp_path / f"s{shard[0]}")
        out = capsys.readouterr().out
        assert "shard 0/2" in out and "shard 1/2" in out
        merged_json = str(tmp_path / "merged.json")
        argv = ["run", *self.GRID, "--workers", "1", "--cache-dir", merged_dir]
        argv += ["--from", str(tmp_path / "s0"), str(tmp_path / "s1")]
        assert engine_main(argv + ["--json", merged_json]) == 0
        out = capsys.readouterr().out
        reports = self._reports(merged_json)
        total = sum(rep["trials_total"] for rep in reports)
        assert f"merged 2 root(s) into {merged_dir}: {total} new record(s)" in out
        assert [rep["computed"] for rep in reports] == [0] * len(reports)
        argv = ["status", *self.GRID, "--shards", "2", "--cache-dir", merged_dir]
        assert engine_main(argv) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "without computing" in out

    def test_sharded_round_trip_equals_a_cold_single_host_run(
        self, tmp_path, capsys
    ):
        for shard in (2, 0, 1):
            self._run_shard(f"{shard}/3", tmp_path / "base", tmp_path / f"s{shard}")
        merged_json = str(tmp_path / "merged.json")
        argv = ["run", *self.GRID, "--workers", "1"]
        argv += ["--cache-dir", str(tmp_path / "merged"), "--json", merged_json]
        argv += ["--from"] + [str(tmp_path / f"s{shard}") for shard in (1, 2, 0)]
        assert engine_main(argv) == 0
        single_json = str(tmp_path / "single.json")
        argv = ["run", "--experiment", "sinkless", "--max-n", "128"]
        argv += ["--workers", "1", "--no-cache", "--json", single_json]
        assert engine_main(argv) == 0
        capsys.readouterr()

        merged, single = self._reports(merged_json), self._reports(single_json)
        assert [rep["computed"] for rep in merged] == [0] * len(merged)
        assert [(rep["experiment"], rep["points"]) for rep in merged] == [
            (rep["experiment"], rep["points"]) for rep in single
        ]

    def test_run_from_computes_the_remainder_of_a_partial_set(
        self, tmp_path, capsys
    ):
        merged_dir = str(tmp_path / "merged")
        self._run_shard("0/2", merged_dir, tmp_path / "s0")
        capsys.readouterr()
        argv = ["status", *self.GRID, "--shards", "2", "--cache-dir", merged_dir]
        assert engine_main(argv + ["--from", str(tmp_path / "s0")]) == 0
        assert "remaining" in capsys.readouterr().out
        merged_json = str(tmp_path / "merged.json")
        argv = ["run", *self.GRID, "--workers", "1", "--cache-dir", merged_dir]
        argv += ["--from", str(tmp_path / "s0"), "--json", merged_json]
        assert engine_main(argv) == 0
        capsys.readouterr()
        specs = build_experiment("sinkless", max_n=128)
        owed_by_shard_1 = [
            len(plan_experiment(spec, 2, batch_size=2).trial_indices(1))
            for spec in specs
        ]
        reports = self._reports(merged_json)
        assert [rep["computed"] for rep in reports] == owed_by_shard_1
        assert all(owed > 0 for owed in owed_by_shard_1)

    def test_status_sees_unmerged_cache_out_roots(self, tmp_path, capsys):
        # The documented scheduler probe: shards write private
        # --cache-out roots; status --from must count them as done
        # before any merge happens.
        merged_dir = str(tmp_path / "merged")
        for shard in ("0/2", "1/2"):
            self._run_shard(shard, merged_dir, tmp_path / f"s{shard[0]}")
        capsys.readouterr()
        status = ["status", *self.GRID, "--shards", "2", "--cache-dir", merged_dir]
        assert engine_main(status) == 0
        assert "remaining" in capsys.readouterr().out  # merged root is empty
        argv = status + ["--from", str(tmp_path / "s0"), str(tmp_path / "s1")]
        assert engine_main(argv) == 0
        assert "plan complete" in capsys.readouterr().out
        assert engine_main(status + ["--from", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("ran", [(), (0,), (2,), (0, 1), (0, 1, 2)])
    def test_status_reports_exactly_the_shards_still_owing(
        self, tmp_path, capsys, ran
    ):
        grid = ["--experiment", "sinkless", "--max-n", "128"]
        grid += ["--seeds", "2", "--batch-size", "1"]
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        for shard in ran:
            self._run_shard(f"{shard}/3", cache_dir, grid=grid)
        capsys.readouterr()
        argv = ["status", *grid, "--shards", "3", "--cache-dir", cache_dir]
        assert engine_main(argv) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit() and "/3 " in line
        }
        assert sorted(rows) == ["0/3", "1/3", "2/3"]
        owed = {"0/3": 4, "1/3": 2, "2/3": 2}  # chunks dealt round-robin
        for shard in range(3):
            trials, cached, *state = rows[f"{shard}/3"]
            assert int(trials) == owed[f"{shard}/3"]
            if shard in ran:
                assert (int(cached), state) == (int(trials), ["complete"])
            else:
                assert (int(cached), state) == (0, [trials, "remaining"])

    def test_read_only_subcommands_reject_a_missing_cache_dir(
        self, tmp_path, capsys
    ):
        # A typo'd --cache-dir must error, not be silently created and
        # report a finished run as all-remaining.
        for argv in (
            ["status", *self.GRID, "--shards", "2", "--cache-dir", str(tmp_path / "x")],
            ["cache", "--cache-dir", str(tmp_path / "x")],
        ):
            assert engine_main(argv) == 2, argv
            assert "does not exist" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad", ["2/2", "7/3", "0/0"])
    def test_invalid_shard_spec_rejected(self, bad, tmp_path, capsys):
        argv = ["run-shard", *self.GRID, "--shard", bad]
        argv += ["--cache-dir", str(tmp_path / "cache")]
        assert engine_main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(
            "error: command=run-shard experiment=sinkless shard="
        )
        assert "cause=ValueError" in line
        assert captured.out == ""
        assert engine_main(argv + ["--json-errors"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["cause"], error["exit_code"]) == ("ValueError", 2)
        assert not (tmp_path / "cache").exists()

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
