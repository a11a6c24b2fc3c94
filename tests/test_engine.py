"""Tests for the experiment-orchestration engine.

The three load-bearing properties:

* determinism — the same spec yields identical trial keys and
  bit-identical sweep points at any worker count;
* caching — a second run of the same spec computes nothing and
  replays every trial from disk;
* compatibility — ``run_sweep`` over live solver objects reports
  exactly what the engine reports for the registered equivalents.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os

import pytest

from repro.analysis import run_sweep
from repro.analysis.sweep import SweepPoint
from repro.engine import (
    ExperimentSpec,
    TrialCache,
    TrialSpec,
    build_experiment,
    execute_trial_batch,
    grid,
    run_experiment,
    run_task_batches,
)
from repro.engine.cli import main as engine_main
from repro.generators.hard import cubic_instance
from repro.obs import get_telemetry
from repro.problems import DeterministicSinklessSolver
from tests.conftest import reference_record

SPEC = ExperimentSpec(
    name="test/sinkless-det",
    problem="sinkless-orientation",
    solver="sinkless-det",
    generator="cubic",
    ns=(16, 32, 64),
    seeds=(0, 1),
)

#: The declared-unsound probe: the Lemma 10 prover on a corrupted
#: gadget, whose output the verifier must reject.
REJECTED_SPEC = ExperimentSpec(
    name="test/gadget-prover@corrupt-color-clash",
    problem="gadget-proof",
    solver="gadget-prover",
    generator="corrupt-color-clash",
    ns=(4,),
    seeds=(0,),
)


class TestSpec:
    def test_trial_grid_order(self):
        trials = SPEC.trials()
        assert [(t.n, t.seed) for t in trials] == [
            (16, 0), (16, 1), (32, 0), (32, 1), (64, 0), (64, 1)
        ]

    def test_keys_are_stable_and_distinct(self):
        keys = [t.key() for t in SPEC.trials()]
        assert keys == [t.key() for t in SPEC.trials()]
        assert len(set(keys)) == len(keys)

    def test_key_ignores_display_name(self):
        renamed = dataclasses.replace(SPEC, name="other-name")
        assert [t.key() for t in renamed.trials()] == [
            t.key() for t in SPEC.trials()
        ]

    def test_key_depends_on_every_field(self):
        base = SPEC.trials()[0]
        variants = [
            dataclasses.replace(base, problem="other"),
            dataclasses.replace(base, solver="other"),
            dataclasses.replace(base, generator="other"),
            dataclasses.replace(base, n=17),
            dataclasses.replace(base, seed=9),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == 6

    def test_payload_roundtrip(self):
        trial = SPEC.trials()[3]
        assert TrialSpec.from_payload(trial.to_payload()) == trial

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("e", "p", "s", "g", ns=(), seeds=(0,))
        with pytest.raises(ValueError):
            ExperimentSpec("e", "p", "s", "g", ns=(8,), seeds=())

    def test_grid_helper(self):
        assert grid(64, 512) == (64, 128, 256, 512)


class TestDeterminism:
    def test_serial_equals_parallel(self):
        serial = run_experiment(SPEC, workers=1)
        parallel = run_experiment(SPEC, workers=4)
        assert serial.sweep == parallel.sweep
        assert serial.records == parallel.records

    def test_execute_trial_reproducible(self):
        trial = SPEC.trials()[-1]
        assert execute_trial_batch([trial]) == execute_trial_batch([trial])
        assert execute_trial_batch([trial]) == [reference_record(trial)]

    def test_randomized_solver_deterministic_across_workers(self):
        spec = dataclasses.replace(
            SPEC, name="test/sinkless-rand", solver="sinkless-rand",
            ns=(32, 64), seeds=(0, 1, 2),
        )
        assert run_experiment(spec, workers=1).sweep == run_experiment(
            spec, workers=3
        ).sweep


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        cache = TrialCache(str(tmp_path / "cache"))
        cold = run_experiment(SPEC, workers=2, cache=cache)
        assert cold.cache_hits == 0
        assert cold.computed == cold.trials_total == 6

        warm = run_experiment(SPEC, workers=2, cache=TrialCache(str(tmp_path / "cache")))
        assert warm.cache_hits == warm.trials_total == 6
        assert warm.computed == 0
        assert warm.sweep == cold.sweep
        assert warm.records == cold.records

    def test_partial_overlap_computes_only_delta(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(SPEC, cache=TrialCache(cache_dir))
        wider = dataclasses.replace(SPEC, ns=SPEC.ns + (128,))
        report = run_experiment(wider, cache=TrialCache(cache_dir))
        assert report.cache_hits == 6
        assert report.computed == 2

    def test_shards_are_jsonl(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(SPEC, cache=TrialCache(cache_dir))
        shards = [f for f in os.listdir(cache_dir) if f.endswith(".jsonl")]
        assert shards
        with open(os.path.join(cache_dir, shards[0])) as handle:
            entry = json.loads(handle.readline())
        assert set(entry) == {"key", "record"}
        assert "rounds" in entry["record"]

    def test_torn_tail_line_is_ignored(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(SPEC, cache=TrialCache(cache_dir))
        shard = next(
            os.path.join(cache_dir, f)
            for f in os.listdir(cache_dir)
            if f.endswith(".jsonl")
        )
        with open(shard, "a") as handle:
            handle.write('{"key": "deadbeef", "record"')  # torn write
        warm = run_experiment(SPEC, cache=TrialCache(cache_dir))
        assert warm.cache_hits == warm.trials_total

    def test_verifier_runs_on_computed_trials(self, tmp_path):
        with pytest.raises(
            AssertionError, match=r"prover flagged a valid gadget \(n=4, seed=0\)"
        ):
            run_experiment(REJECTED_SPEC, workers=1)


class TestPool:
    def test_preserves_order(self):
        delivered = []
        results = run_task_batches(
            _double,
            list(range(20)),
            workers=4,
            on_result=lambda i, result: delivered.append((i, result)),
        )
        assert results == [2 * i for i in range(20)]
        assert delivered == list(enumerate(results))

    def test_serial_fallback_for_unpicklable(self):
        # A lambda cannot cross a process boundary; the pool must fall
        # back to an in-process loop rather than fail.
        assert run_task_batches(lambda x: x + 1, [1, 2, 3], workers=4) == [2, 3, 4]

    def test_serial_fallback_without_named_semaphores(self, monkeypatch):
        # Where named semaphores are missing, creating the executor
        # raises NotImplementedError: the batches must still run, here.
        def no_semaphores(*args, **kwargs):
            raise NotImplementedError("named semaphores are unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_semaphores)
        get_telemetry().reset()
        delivered = []
        results = run_task_batches(
            _with_pid,
            [1, 2, 3],
            workers=2,
            on_result=lambda i, result: delivered.append(i),
        )
        assert results == [(x, os.getpid()) for x in (1, 2, 3)]
        assert delivered == [0, 1, 2]
        assert get_telemetry().counters()["pool.serial_fallbacks"] == 1


def _double(x):
    return 2 * x


def _with_pid(x):
    return x, os.getpid()


class TestSweepShim:
    def test_run_sweep_matches_engine(self):
        sweep = run_sweep(
            DeterministicSinklessSolver(), cubic_instance, [16, 32], seeds=(0, 1)
        )
        engine_sweep = run_experiment(
            dataclasses.replace(SPEC, name="shim-check", ns=(16, 32)), workers=4
        ).sweep
        assert sweep.points == engine_sweep.points

    def test_empty_seeds_raise(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_sweep(
                DeterministicSinklessSolver(), cubic_instance, [16], seeds=()
            )

    def test_sweep_point_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="at least one trial"):
            SweepPoint(n=16, trials=0, rounds_mean=0.0, rounds_max=0, rounds_min=0)


class TestNamedExperiments:
    def test_registry_builds_every_experiment(self):
        for name in ("sinkless", "padding", "gadget", "landscape"):
            specs = build_experiment(name, max_n=128)
            assert specs
            for spec in specs:
                assert spec.trials()

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            build_experiment("nope")

    def test_cli_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = engine_main(
            [
                "run",
                "--experiment",
                "sinkless",
                "--workers",
                "2",
                "--max-n",
                "64",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "sinkless/sinkless-orientation/sinkless-det@cubic" in captured
        assert "cache hits" in captured
        payload = json.loads(out_json.read_text())
        assert payload["experiment"] == "sinkless"
        assert payload["reports"][0]["points"]
