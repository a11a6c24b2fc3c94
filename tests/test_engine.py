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

import dataclasses
import json
import multiprocessing
import multiprocessing.context
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
    run_experiment,
    run_task_batches,
)
from repro.engine import pool, runner
from repro.engine.cli import main as engine_main
from repro.engine.pool import WorkerCrashed
from repro.generators.hard import cubic_instance
from repro.obs import aggregate, get_telemetry
from repro.problems import DeterministicSinklessSolver
from repro.runtime import registry
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

    def test_sinkless_grid(self):
        # cubic's powers-of-two sweep from 64, for both solvers
        specs = build_experiment("sinkless", 512)
        assert [spec.ns for spec in specs] == [(64, 128, 256, 512)] * 2
        with pytest.raises(ValueError, match="--max-n >= 64"):
            build_experiment("sinkless", 32)

    def test_landscape_needs_a_node_graded_grid(self):
        # gadget heights fit from max_n 16, the node-graded sweeps from 64
        for max_n in (15, 16, 63):
            with pytest.raises(ValueError, match="--max-n >= 64"):
                build_experiment("landscape", max_n)
        families = registry.families()
        specs = build_experiment("landscape", 64)
        node_graded = [
            spec for spec in specs if families[spec.generator].size_kind == "nodes"
        ]
        assert node_graded
        assert {spec.ns for spec in node_graded} == {(64,)}


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

    @pytest.mark.parametrize("workers", [2, 4])
    def test_order_and_results_match_the_serial_loop(self, workers):
        _require_a_pool()
        batches = [(i, "x" * (i % 5)) for i in range(13)]
        serial = []
        expected = run_task_batches(
            _describe, batches, on_result=lambda i, r: serial.append((i, r))
        )
        delivered = []
        results = run_task_batches(
            _describe,
            batches,
            workers=workers,
            on_result=lambda i, result: delivered.append((i, result)),
        )
        assert results == expected
        assert delivered == serial

    def test_every_batch_runs_once_when_more_workers_than_cores_race(
        self, tmp_path
    ):
        # A lost update on the claim window would run a batch twice
        # (its second exclusive create fails) or never (it comes back
        # lost).  Bounded: 2,000 tiny batches, under a second.
        _require_a_pool()
        workers = min(16, 2 * (os.cpu_count() or 1) + 2)
        batches = [(i, str(tmp_path)) for i in range(2000)]
        start = time.monotonic()
        assert run_task_batches(_run_once, batches, workers=workers) == list(range(2000))
        assert len(os.listdir(tmp_path)) == 2000
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 60

    def test_the_caller_is_one_of_the_workers(self, fork_signals):
        # The two batches wait for each other, so they run at once in
        # two processes: the caller takes the back one, a helper the
        # front one.
        pids = run_task_batches(_meet, [0, 1], workers=2)
        assert pids[1] == os.getpid()
        assert pids[0] != os.getpid()

    def test_serial_fallback_for_unpicklable(self):
        # A lambda cannot cross a process boundary; the pool must fall
        # back to an in-process loop rather than fail.
        assert run_task_batches(lambda x: x + 1, [1, 2, 3], workers=4) == [2, 3, 4]

    def test_serial_fallback_without_named_semaphores(self, monkeypatch):
        # Where named semaphores are missing, creating the window's
        # lock raises: the batches must still run, here.
        def no_semaphores(*args, **kwargs):
            raise ImportError("This platform lacks a functioning sem_open implementation")

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Lock", no_semaphores)
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
        assert get_telemetry().snapshot()["counters"]["pool.serial_fallbacks"] == 1

    def test_worker_death_raises_typed_error_with_lost_chunks(self, fork_signals):
        # The caller's batches wait until a helper holds the doomed one,
        # so the caller never claims it (it would SIGKILL pytest).  The
        # helper's death loses that batch alone: the caller runs the rest.
        delivered = {}
        with pytest.raises(WorkerCrashed) as excinfo:
            run_task_batches(
                _suicide_batch,
                ["a", "die", "b", "c"],
                workers=2,
                on_result=lambda i, result: delivered.__setitem__(i, result),
            )
        assert excinfo.value.chunk_indices == (1,)
        assert {i: text for i, (text, _) in delivered.items()} == {
            0: "ok:a", 2: "ok:b", 3: "ok:c"
        }
        # The caller ran the back two while a helper took the front two.
        pids = {i: pid for i, (_, pid) in delivered.items()}
        assert pids[2] == pids[3] == os.getpid() != pids[0]

    def test_task_exceptions_still_propagate_as_themselves(self):
        with pytest.raises(ValueError, match="boom"):
            run_task_batches(_raising_batch, ["x", "y"], workers=2)

    @pytest.mark.parametrize("kind", ["plain", "two-arg"])
    def test_a_helpers_exception_arrives_with_its_traceback(
        self, fork_signals, kind
    ):
        # The caller's batch waits until a helper has run the failing
        # front one.  An exception that cannot be rebuilt from its args
        # arrives as a RuntimeError with its type and message.
        with pytest.raises(Exception) as excinfo:
            run_task_batches(_fail_in_a_helper, [kind, "caller"], workers=2)
        err = excinfo.value
        if kind == "plain":
            assert type(err) is ValueError and str(err) == "boom in a helper"
        else:
            assert type(err) is RuntimeError
            assert str(err) == "_TwoArgError: boom 2"
        assert isinstance(err.__cause__, pool._RemoteTraceback)
        assert "in _fail_in_a_helper" in str(err.__cause__)

    def test_no_batch_past_a_failure_is_started(
        self, fork_signals, monkeypatch, tmp_path
    ):
        # The helper's front batch fails once the caller runs the back
        # one, and the caller's batch returns only when the helper has
        # closed the window at the failure (forked helpers inherit the
        # patched _portable, which runs after that).
        portable = pool._portable

        def portable_then_signal(err):
            _SIGNALS["doomed"].set()
            return portable(err)

        monkeypatch.setattr(pool, "_portable", portable_then_signal)
        batches = [(i, str(tmp_path)) for i in range(6)]
        with pytest.raises(ValueError, match="boom: 0"):
            run_task_batches(_fail_the_front_once_the_back_runs, batches, workers=2)
        assert sorted(os.listdir(tmp_path)) == ["ran-0", "ran-5"]

    def test_no_helper_outlives_a_dispatch(self):
        _require_a_pool()
        assert run_task_batches(_double, list(range(8)), workers=3) == [
            2 * i for i in range(8)
        ]
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="boom"):
            run_task_batches(_raising_batch, ["x", "y", "z"], workers=3)
        assert multiprocessing.active_children() == []
        # An interrupt in the caller ends the helpers at their work.
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_task_batches(_interrupt_the_caller, [0, 1, 2], workers=3)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

    def test_a_helper_dying_inside_its_claim_does_not_hang_the_caller(
        self, fork_signals, monkeypatch
    ):
        # A helper killed while it holds the window's lock leaves the
        # other helper blocked on it: the caller ends both and runs
        # every batch itself.  (Forked helpers inherit the patch.)
        def claim_and_die(lock, window):
            lock.acquire()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(pool, "_claim_front", claim_and_die)
        monkeypatch.setattr(pool, "_LOCK_PATIENCE_S", 0.05)
        delivered = []
        results = run_task_batches(
            _double,
            list(range(6)),
            workers=3,
            on_result=lambda i, result: delivered.append(i),
        )
        assert results == [2 * i for i in range(6)]
        assert delivered == list(range(6))
        assert multiprocessing.active_children() == []

    def test_helpers_inherit_the_callers_instances(self, monkeypatch):
        # The caller keeps its process-wide instance cache across
        # dispatches, so a second spec on the same seeded instances
        # reuses builds made during the first: in the caller itself,
        # or in a helper forked from it.
        _require_a_pool()
        monkeypatch.setattr(runner, "_INSTANCES", None)
        monkeypatch.setattr(runner, "_BATCHES", {})
        grid = dict(ns=(16, 32, 64, 128), seeds=(0, 1, 2))
        first = ExperimentSpec(
            "test/inherit/sinkless-det", "sinkless-orientation", "sinkless-det",
            "cubic", **grid,
        )
        second = dataclasses.replace(
            first, name="test/inherit/sinkless-rand", solver="sinkless-rand"
        )
        run_experiment(first, workers=2, batch_size=1)
        report = run_experiment(second, workers=2, batch_size=1)
        counters = aggregate(report.telemetry)["counters"]
        assert counters.get("instance_cache.core_reused", 0) >= 1, counters

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process groups from /proc"
    )
    def test_a_killed_parent_takes_its_workers_with_it(self):
        # The parent leads its own process group, so its helpers share
        # the group id, which is the parent's pid.  The parent runs a
        # batch itself, next to workers - 1 helpers.
        _require_a_pool()
        workers = 3
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import time\n"
            "from repro.engine.pool import run_task_batches\n"
            f"run_task_batches(time.sleep, [60, 60, 60, 60], workers={workers})\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(_live_group_members(parent.pid)) < 1 + (workers - 1):
                assert parent.poll() is None, "the pool's parent exited early"
                assert time.monotonic() < deadline, "the helpers never started"
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
    try:
        pool._context().Lock()
    except (ImportError, NotImplementedError, OSError):
        pytest.skip("no process helpers on this platform")


#: Events the batch functions below wait on; the ``fork_signals``
#: fixture fills it before a dispatch, so forked helpers inherit them.
_SIGNALS: dict = {}


@pytest.fixture
def fork_signals(monkeypatch):
    """Fresh events for a dispatch whose helpers are forked.

    The tests using it hand helpers state (events, patched functions)
    that only a forked helper inherits.
    """
    _require_a_pool()
    ctx = pool._context()
    if ctx.get_start_method() != "fork":
        pytest.skip("helpers are not forked on this platform")
    signals = {key: ctx.Event() for key in (0, 1, "doomed")}
    monkeypatch.setattr(sys.modules[__name__], "_SIGNALS", signals)
    return signals


def _in_a_helper() -> bool:
    return multiprocessing.parent_process() is not None


def _double(x):
    return 2 * x


def _describe(batch):
    index, text = batch
    return {"index": index, "length": len(text), "echo": text[::-1]}


def _run_once(batch):
    index, root = batch
    os.close(os.open(os.path.join(root, f"ran-{index}"), os.O_CREAT | os.O_EXCL))
    return index


def _with_pid(x):
    return x, os.getpid()


def _meet(side):
    _SIGNALS[side].set()
    assert _SIGNALS[1 - side].wait(timeout=60), "the other batch never ran"
    return os.getpid()


def _suicide_batch(payload):
    if payload == "die":
        if not _in_a_helper():
            raise RuntimeError("the doomed batch ran in the caller")
        _SIGNALS["doomed"].set()
        os.kill(os.getpid(), signal.SIGKILL)
    if not _in_a_helper():
        assert _SIGNALS["doomed"].wait(timeout=60), "no helper claimed the doomed batch"
    return f"ok:{payload}", os.getpid()


class _TwoArgError(Exception):
    def __init__(self, what, count):
        super().__init__(f"{what} {count}")


def _fail_in_a_helper(payload):
    if _in_a_helper():
        _SIGNALS["doomed"].set()
        if payload == "plain":
            raise ValueError("boom in a helper")
        raise _TwoArgError("boom", 2)
    assert _SIGNALS["doomed"].wait(timeout=60), "no helper ran the failing batch"
    return payload


def _fail_the_front_once_the_back_runs(batch):
    index, root = batch
    open(os.path.join(root, f"ran-{index}"), "w").close()
    if _in_a_helper():
        assert _SIGNALS[0].wait(timeout=60), "the caller never ran a batch"
        raise ValueError(f"boom: {index}")
    _SIGNALS[0].set()
    assert _SIGNALS["doomed"].wait(timeout=60), "no helper failed"
    return index


def _raising_batch(payload):
    raise ValueError(f"boom: {payload}")


def _interrupt_the_caller(payload):
    if _in_a_helper():
        time.sleep(60)
    raise KeyboardInterrupt


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
