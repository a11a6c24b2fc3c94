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
import signal
import subprocess
import sys
import time

import pytest

import repro
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
from repro.engine.pool import WorkerCrashed, _make_executor
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

    def test_worker_death_raises_typed_error_with_lost_chunks(self):
        # The guard matters: on a pool-less platform the batches would
        # run serially and the suicide batch would kill pytest.
        _require_a_pool()
        delivered = {}
        with pytest.raises(WorkerCrashed) as excinfo:
            run_task_batches(
                _suicide_batch,
                ["a", "die", "b", "c"],
                workers=2,
                on_result=lambda i, result: delivered.__setitem__(i, result),
            )
        lost = set(excinfo.value.chunk_indices)
        assert 1 in lost
        assert set(delivered) | lost == {0, 1, 2, 3}
        for i, result in delivered.items():
            assert result == f"ok:{['a', 'die', 'b', 'c'][i]}"

    def test_task_exceptions_still_propagate_as_themselves(self):
        with pytest.raises(ValueError, match="boom"):
            run_task_batches(_raising_batch, ["x", "y"], workers=2)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process groups from /proc"
    )
    def test_a_killed_parent_takes_its_workers_with_it(self):
        # The parent leads its own process group, so its pool workers
        # share the group id, which is the parent's pid.
        _require_a_pool()
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import time\n"
            "from repro.engine.pool import run_task_batches\n"
            "run_task_batches(time.sleep, [60, 60, 60, 60], workers=2)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(_live_group_members(parent.pid)) < 3:
                assert parent.poll() is None, "the pool's parent exited early"
                assert time.monotonic() < deadline, "the pool never started"
                time.sleep(0.05)
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5
            while _live_group_members(parent.pid):
                assert time.monotonic() < deadline, _live_group_members(parent.pid)
                time.sleep(0.05)
        finally:
            try:
                os.killpg(parent.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            parent.wait(timeout=10)


def _require_a_pool():
    executor = _make_executor(2, 2, 0)
    if executor is None:
        pytest.skip("no process pool on this platform")
    executor.shutdown()


def _double(x):
    return 2 * x


def _with_pid(x):
    return x, os.getpid()


def _suicide_batch(payload):
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return f"ok:{payload}"


def _raising_batch(payload):
    raise ValueError(f"boom: {payload}")


def _live_group_members(pgid: int) -> list[str]:
    """The command lines of running (non-zombie) processes in a group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue  # exited while we looked
        # The command name (field 2) may hold spaces and parentheses;
        # the fields after its closing paren are state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(f"{entry}: {cmdline}")
    return members


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
