"""The fault-tolerant fabric: chaos runs, leases, backoff, degradation.

The acceptance property mirrors the shard layer's: a K=8 fabric run
whose shards are SIGKILLed, hung, and corrupted mid-flight — each
recovered by lease reassignment and retry — merges to a cache
byte-identical to the clean single-host run.  Around it, the unit
surface: backoff schedules under a fake clock, lease-board transitions
and restart resume, the reaping of running shards when the launcher is
interrupted, fault-spec parsing, the typed :class:`WorkerCrashed`
contract of the pool, heartbeat emission and observer-side liveness,
and the CLI's structured error hygiene.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import signal
import time
import types

import pytest

from repro.engine import fabric
from repro.engine.cache import TrialCache
from repro.engine.cli import main as engine_main
from repro.engine.fabric import (
    BackoffPolicy,
    LeaseBoard,
    fabric_key,
    run_fabric,
)
from repro.engine.faults import (
    FaultInjector,
    FaultSpec,
    corrupt_jsonl,
    parse_fault_specs,
)
from repro.engine.pool import WorkerCrashed, _make_executor, run_task_batches
from repro.engine.runner import plan_experiment, run_experiment
from repro.engine.shard import dump_plan_file, load_plan_file
from repro.engine.spec import ExperimentSpec
from repro.obs import (
    Heartbeat,
    HeartbeatEmitter,
    LivenessMonitor,
    read_heartbeat,
    write_heartbeat,
)
from tests.test_remote import _live_group_members


PARITY_SPEC = ExperimentSpec(
    "test/degree-parity/parity@cycle",
    "degree-parity",
    "parity",
    "cycle",
    ns=(8, 12, 16),
    seeds=(0, 1, 2),
)


def write_plan(tmp_path, num_shards, spec=PARITY_SPEC, name="plan.json"):
    """A plan file with one-trial chunks, so every shard owns work."""
    plans = [plan_experiment(spec, num_shards=num_shards, batch_size=1)]
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump_plan_file("test-fabric", plans), handle)
    return path, plans


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- backoff -----------------------------------------------------------


class TestBackoffPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = BackoffPolicy(
            base=0.5, factor=2.0, max_delay=3.0, jitter=0.0, max_attempts=6
        )
        assert policy.schedule() == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_jitter_stretches_within_bounds_and_is_seeded(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=60.0, jitter=0.25)
        for attempt in (1, 2, 3):
            raw = policy.delay(attempt)
            jittered = policy.delay(attempt, random.Random(7))
            assert raw <= jittered <= raw * 1.25
        assert policy.delay(2, random.Random(7)) == policy.delay(
            2, random.Random(7)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="base"):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError, match="jitter"):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="attempt"):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="1-based"):
            BackoffPolicy().delay(0)


# -- fault specs -------------------------------------------------------


class TestFaultSpecs:
    def test_parse_round_trips(self):
        for text in (
            "kill@1:at=1",
            "hang@2:at=3,secs=0.5",
            "corrupt@0:at=2,attempts=1+2",
            "delay@4:at=1,attempts=2,secs=2",
        ):
            spec = FaultSpec.parse(text)
            assert FaultSpec.parse(spec.spec_string()) == spec

    def test_parse_defaults_and_env_list(self):
        spec = FaultSpec.parse("kill@3")
        assert (spec.at, spec.attempts) == (1, (1,))
        specs = parse_fault_specs("kill@1;hang@2:at=2 ; ")
        assert [s.mode for s in specs] == ["kill", "hang"]
        assert parse_fault_specs(None) == []

    def test_parse_rejects_malformed(self):
        for text in (
            "kill", "kill@", "boom@1", "kill@1:at", "kill@1:depth=2",
            "net-drop@1",
        ):
            with pytest.raises(ValueError):
                FaultSpec.parse(text)

    def test_injector_filters_by_shard_and_attempt(self):
        specs = parse_fault_specs("kill@1:at=1;delay@2:at=1,secs=0")
        assert not FaultInjector(specs, shard_index=0).active
        assert FaultInjector(specs, shard_index=1).active
        # attempt 2 was not armed: the retry must run clean.
        assert not FaultInjector(specs, shard_index=1, attempt=2).active

    def test_delay_fires_once_at_its_trial(self):
        injector = FaultInjector(
            [FaultSpec("delay", shard=0, at=2, seconds=0.0)], shard_index=0
        )
        injector.on_trial()
        assert not injector._fired
        injector.on_trial()
        assert len(injector._fired) == 1

    def test_corrupt_jsonl_same_length_garbage(self, tmp_path):
        root = str(tmp_path / "root")
        cache = TrialCache(root)
        cache.put_many([(f"k{i}", {"v": i}) for i in range(3)])
        lines_before = []
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                lines_before += [line.rstrip("\n") for line in handle]
        assert corrupt_jsonl(root, at=2)
        lines_after = []
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                lines_after += [line.rstrip("\n") for line in handle]
        assert len(lines_after) == len(lines_before)
        garbled = [
            (before, after)
            for before, after in zip(lines_before, lines_after)
            if before != after
        ]
        assert len(garbled) == 1
        before, after = garbled[0]
        assert len(after) == len(before)
        with pytest.raises(json.JSONDecodeError):
            json.loads(after)
        # The tolerant reader skips the damage; the record is *absent*,
        # not poisonous — which is what turns corruption into a retry.
        fresh = TrialCache(root)
        fresh.load_all()
        assert len(fresh) == 2

    def test_corrupt_jsonl_beyond_eof_is_a_noop(self, tmp_path):
        root = str(tmp_path / "root")
        TrialCache(root).put("k", {"v": 1})
        assert not corrupt_jsonl(root, at=5)
        assert not corrupt_jsonl(str(tmp_path / "missing"), at=1)


# -- lease board -------------------------------------------------------


class TestLeaseBoard:
    def board(self, tmp_path, clock):
        return LeaseBoard.load_or_create(
            str(tmp_path / "leases.json"), "key-a", 3, clock=clock
        )

    def test_acquire_renew_release_lifecycle(self, tmp_path):
        clock = FakeClock()
        board = self.board(tmp_path, clock)
        assert board.in_state("pending") == [0, 1, 2]
        lease = board.acquire(0, "me", ttl=30.0)
        assert (lease.state, lease.attempts, lease.owner) == ("leased", 1, "me")
        assert lease.deadline == clock.now + 30.0
        clock.advance(20.0)
        board.renew(0, ttl=30.0)
        assert board.lease(0).deadline == clock.now + 30.0
        board.release(0, "done")
        assert board.in_state("done") == [0]
        with pytest.raises(ValueError, match="already done"):
            board.acquire(0, "me", ttl=30.0)

    def test_live_lease_is_exclusive_until_expiry(self, tmp_path):
        clock = FakeClock()
        board = self.board(tmp_path, clock)
        board.acquire(1, "a", ttl=10.0)
        with pytest.raises(ValueError, match="leased to a"):
            board.acquire(1, "b", ttl=10.0)
        clock.advance(11.0)
        lease = board.acquire(1, "b", ttl=10.0)  # expired: up for grabs
        assert (lease.owner, lease.attempts) == ("b", 2)

    def test_reclaim_expired_and_reset_failed(self, tmp_path):
        clock = FakeClock()
        board = self.board(tmp_path, clock)
        board.acquire(0, "dead-launcher", ttl=5.0)
        board.acquire(1, "dead-launcher", ttl=50.0)
        clock.advance(10.0)
        assert board.reclaim_expired() == [0]
        assert board.lease(0).state == "pending"
        assert board.lease(0).attempts == 1  # attempts survive reclaim
        assert board.lease(1).state == "leased"
        board.release(1, "failed", "it kept dying")
        assert board.reset_failed() == [1]
        assert board.lease(1).cause == "it kept dying"

    def test_persistence_round_trip(self, tmp_path):
        clock = FakeClock()
        board = self.board(tmp_path, clock)
        board.acquire(2, "me", ttl=30.0)
        board.release(2, "retry", "flaky disk")
        reloaded = LeaseBoard.load(board.path, clock=clock)
        assert reloaded.fabric_key == "key-a"
        assert reloaded.lease(2).state == "pending"
        assert reloaded.lease(2).attempts == 1
        assert reloaded.lease(2).cause == "flaky disk"

    def test_refuses_foreign_board(self, tmp_path):
        clock = FakeClock()
        self.board(tmp_path, clock)
        with pytest.raises(ValueError, match="different plan"):
            LeaseBoard.load_or_create(
                str(tmp_path / "leases.json"), "key-b", 3, clock=clock
            )
        with pytest.raises(ValueError, match="shard"):
            LeaseBoard.load_or_create(
                str(tmp_path / "leases.json"), "key-a", 4, clock=clock
            )

    def test_fabric_key_tracks_plan_identity(self, tmp_path):
        _, plans_a = write_plan(tmp_path, 2, name="a.json")
        other = ExperimentSpec(
            "test/degree-parity/parity@cycle",
            "degree-parity",
            "parity",
            "cycle",
            ns=(8, 12, 16),
            seeds=(0, 1),
        )
        _, plans_b = write_plan(tmp_path, 2, spec=other, name="b.json")
        assert fabric_key("x", plans_a) == fabric_key("x", plans_a)
        assert fabric_key("x", plans_a) != fabric_key("x", plans_b)
        assert fabric_key("x", plans_a) != fabric_key("y", plans_a)


# -- pool: typed worker-crash contract ---------------------------------


def _suicide_batch(payload):
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return f"ok:{payload}"


class TestWorkerCrashed:
    def test_worker_death_raises_typed_error_with_lost_chunks(self):
        executor = _make_executor(2, 2, 0)
        if executor is None:
            pytest.skip("no process pool on this platform")
        executor.shutdown()
        # The guard above matters: on a pool-less platform the batches
        # would run serially and the suicide batch would kill pytest.
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


def _raising_batch(payload):
    raise ValueError(f"boom: {payload}")


# -- heartbeats --------------------------------------------------------


class TestHeartbeat:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "hb.json")
        write_heartbeat(
            path,
            Heartbeat(seq=3, shard_index=1, pid=42, phase="record", done=5, total=9),
        )
        beat = read_heartbeat(path)
        assert (beat.seq, beat.done, beat.total, beat.phase) == (3, 5, 9, "record")

    def test_unreadable_payloads_read_as_no_heartbeat(self, tmp_path):
        path = str(tmp_path / "hb.json")
        assert read_heartbeat(path) is None
        for garbage in ("not json", '{"v": 999, "seq": 1}', '{"v": 1}'):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(garbage)
            assert read_heartbeat(path) is None

    def test_emitter_throttles_but_forces_phase_edges(self, tmp_path):
        clock = FakeClock()
        path = str(tmp_path / "hb.json")
        emitter = HeartbeatEmitter(
            path, 0, total=10, min_interval=1.0, with_telemetry=False, clock=clock
        )
        emitter.start()
        for _ in range(5):
            emitter.record()  # all inside the throttle window
        beat = read_heartbeat(path)
        assert (beat.seq, beat.phase, beat.done) == (1, "start", 0)
        clock.advance(1.5)
        emitter.record()
        beat = read_heartbeat(path)
        assert (beat.seq, beat.phase, beat.done) == (2, "record", 6)
        emitter.done()  # phase edge: writes despite the window
        assert read_heartbeat(path).phase == "done"

    def test_liveness_is_observer_side_seq_tracking(self, tmp_path):
        clock = FakeClock()
        path = str(tmp_path / "hb.json")
        monitor = LivenessMonitor(timeout=5.0, clock=clock)
        monitor.watch("s0", path)
        # Never wrote a beat: goes stale from watch time.
        clock.advance(6.0)
        monitor.observe("s0")
        assert monitor.stale("s0")
        write_heartbeat(
            path, Heartbeat(seq=1, shard_index=0, pid=1, phase="record", done=1, total=2)
        )
        monitor.observe("s0")
        assert not monitor.stale("s0")
        # Same seq re-read: age keeps growing — progress, not presence.
        clock.advance(6.0)
        monitor.observe("s0")
        assert monitor.stale("s0")
        write_heartbeat(
            path, Heartbeat(seq=2, shard_index=0, pid=1, phase="record", done=2, total=2)
        )
        monitor.observe("s0")
        assert not monitor.stale("s0")


# -- the chaos acceptance run ------------------------------------------


class TestFabricChaos:
    def test_k8_chaos_run_matches_clean_oracle_byte_for_byte(self, tmp_path):
        plan_path, plans = write_plan(tmp_path, 8)
        for shard_index in range(8):
            assert plans[0].manifest(shard_index).trial_indices(), (
                "chaos preconditions: every shard must own at least one trial"
            )
        result = run_fabric(
            plan_path,
            str(tmp_path / "cache"),
            work_dir=str(tmp_path / "work"),
            max_parallel=4,
            heartbeat_timeout=6.0,
            poll_interval=0.05,
            backoff=BackoffPolicy(base=0.05, max_delay=0.5, max_attempts=3),
            faults=[
                "kill@1:at=1",
                "hang@2:at=1,secs=600",
                "corrupt@3:at=1",
            ],
        )
        assert result.ok, result.summary()
        assert result.gap_manifest is None
        states = {o.shard_index: o for o in result.outcomes}
        assert all(o.state == "done" for o in result.outcomes)
        # Each faulted shard burned its injected failure plus one clean
        # retry; the untouched shards finished first try.
        for shard_index in (1, 2, 3):
            assert states[shard_index].attempts == 2, states[shard_index]
        for shard_index in (0, 4, 5, 6, 7):
            assert states[shard_index].attempts == 1, states[shard_index]
        assert result.launched == 11  # 8 shards + 3 retries

        # The oracle: the same spec, single host, fresh cache.
        oracle_cache = TrialCache(str(tmp_path / "oracle"))
        oracle_reports = [
            run_experiment(plan.spec, cache=oracle_cache, batch_size=1)
            for plan in plans
        ]
        fabric_export = str(tmp_path / "fabric.jsonl")
        oracle_export = str(tmp_path / "oracle.jsonl")
        TrialCache(str(tmp_path / "cache")).export(fabric_export)
        oracle_cache.export(oracle_export)
        with open(fabric_export, "rb") as handle:
            fabric_bytes = handle.read()
        with open(oracle_export, "rb") as handle:
            oracle_bytes = handle.read()
        assert fabric_bytes == oracle_bytes
        assert len(fabric_bytes) > 0
        # And the replayed reports carry the identical sweep.
        for fabric_report, oracle_report in zip(result.reports, oracle_reports):
            assert fabric_report.sweep.points == oracle_report.sweep.points

    def test_degrades_to_gap_manifest_and_resumes_from_the_board(self, tmp_path):
        plan_path, plans = write_plan(tmp_path, 2)
        work_dir = str(tmp_path / "work")
        cache_dir = str(tmp_path / "cache")
        result = run_fabric(
            plan_path,
            cache_dir,
            work_dir=work_dir,
            max_parallel=2,
            heartbeat_timeout=6.0,
            poll_interval=0.05,
            backoff=BackoffPolicy(base=0.05, max_delay=0.5, max_attempts=2),
            faults=["kill@0:at=1,attempts=1+2"],
        )
        assert not result.ok
        assert result.reports is None
        gap = result.gap_manifest
        shard0_trials = set(plans[0].manifest(0).trial_indices())
        assert gap["trials_missing"] == len(gap["specs"][0]["missing_indices"])
        assert set(gap["specs"][0]["missing_indices"]) <= shard0_trials
        assert gap["failed_shards"][0]["shard_index"] == 0
        assert gap["failed_shards"][0]["attempts"] == 2
        with open(os.path.join(work_dir, "gaps.json"), encoding="utf-8") as handle:
            assert json.load(handle) == gap
        # Shard 1's records survived the degraded run.
        assert result.records_merged > 0

        # A fresh launcher resumes from the persisted board: the done
        # shard is not relaunched, the failed one gets a clean round.
        resumed = run_fabric(
            plan_path,
            cache_dir,
            work_dir=work_dir,
            max_parallel=2,
            heartbeat_timeout=6.0,
            poll_interval=0.05,
            backoff=BackoffPolicy(base=0.05, max_delay=0.5, max_attempts=4),
            retry_failed=True,
        )
        assert resumed.ok, resumed.summary()
        assert resumed.launched == 1
        states = {o.shard_index: o for o in resumed.outcomes}
        assert states[0].attempts == 3
        assert states[1].attempts == 1
        # The stale gap manifest does not outlive the successful resume.
        assert not os.path.exists(os.path.join(work_dir, "gaps.json"))

    def test_refuses_a_foreign_work_dir(self, tmp_path):
        plan_path, _plans = write_plan(tmp_path, 2, name="a.json")
        other = ExperimentSpec(
            "test/degree-parity/parity@cycle",
            "degree-parity",
            "parity",
            "cycle",
            ns=(8,),
            seeds=(0,),
        )
        other_path, _ = write_plan(tmp_path, 2, spec=other, name="b.json")
        work_dir = str(tmp_path / "work")
        result = run_fabric(
            plan_path,
            str(tmp_path / "cache"),
            work_dir=work_dir,
            max_parallel=2,
            poll_interval=0.05,
        )
        assert result.ok
        with pytest.raises(ValueError, match="different plan"):
            run_fabric(
                other_path,
                str(tmp_path / "cache"),
                work_dir=work_dir,
                max_parallel=2,
                poll_interval=0.05,
            )

    def test_interrupt_kills_running_shards(self, tmp_path, monkeypatch, caplog):
        """Shards lead their own sessions, so a Ctrl-C at the launcher
        never reaches them: the launcher itself must reap them before
        the interrupt propagates, and hand their leases back."""
        caplog.set_level(logging.INFO, logger="repro.engine")
        plan_path, _plans = write_plan(tmp_path, 1)
        work_dir = tmp_path / "work"
        beat_path = str(work_dir / "shard-0.hb.json")
        first_beat = []
        started = time.monotonic()

        def sleep(seconds):
            time.sleep(seconds)
            now = time.monotonic()
            if not first_beat and read_heartbeat(beat_path) is not None:
                first_beat.append(now)
            # A second after its first beat the shard is parked in the
            # injected hang; a shard that never beats is interrupted too.
            if (first_beat and now - first_beat[0] > 1.0) or now - started > 30:
                raise KeyboardInterrupt

        # Only the launcher's view of time.sleep changes: the shard's
        # process-group reaping still waits on the real clock.
        clock = types.SimpleNamespace(
            monotonic=time.monotonic, perf_counter=time.perf_counter, sleep=sleep
        )
        monkeypatch.setattr(fabric, "time", clock)
        pid = None
        try:
            with pytest.raises(KeyboardInterrupt):
                run_fabric(
                    plan_path,
                    str(tmp_path / "cache"),
                    work_dir=str(work_dir),
                    heartbeat_timeout=60.0,
                    poll_interval=0.05,
                    faults=["hang@0:at=1,secs=60"],
                )
            spawned = re.search(r"shard 0 attempt 1: pid (\d+)", caplog.text)
            assert spawned is not None, caplog.text
            pid = int(spawned.group(1))
            assert _live_group_members(pid) == []
            board = LeaseBoard.load(str(work_dir / "leases.json"))
            assert board.lease(0).state == "pending"
            assert board.lease(0).cause == "launcher stopped: KeyboardInterrupt"
        finally:
            if pid is not None:
                try:
                    os.killpg(pid, signal.SIGKILL)  # never leak a hung shard
                except OSError:
                    pass

    def test_refuses_a_nonpositive_max_parallel(self, tmp_path):
        # With no launch slot the supervision loop would wait forever.
        plan_path, _plans = write_plan(tmp_path, 2)
        work_dir = tmp_path / "work"
        with pytest.raises(ValueError, match="max_parallel"):
            run_fabric(
                plan_path,
                str(tmp_path / "cache"),
                work_dir=str(work_dir),
                max_parallel=0,
            )
        assert not work_dir.exists()


# -- CLI surface -------------------------------------------------------


class TestCliFabric:
    def test_fabric_subcommand_clean_run(self, tmp_path, capsys):
        plan_path, _plans = write_plan(tmp_path, 2)
        code = engine_main(
            [
                "fabric",
                "--plan", plan_path,
                "--cache-dir", str(tmp_path / "cache"),
                "--work-dir", str(tmp_path / "work"),
                "--max-parallel", "2",
                "--poll-interval", "0.05",
                "--json", str(tmp_path / "fabric.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "complete" in out
        with open(tmp_path / "fabric.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["ok"] is True
        assert payload["num_shards"] == 2
        assert [o["state"] for o in payload["outcomes"]] == ["done", "done"]

    def test_fabric_subcommand_degraded_exits_4(self, tmp_path, capsys):
        plan_path, _plans = write_plan(tmp_path, 2)
        code = engine_main(
            [
                "fabric",
                "--plan", plan_path,
                "--cache-dir", str(tmp_path / "cache"),
                "--work-dir", str(tmp_path / "work"),
                "--max-parallel", "2",
                "--poll-interval", "0.05",
                "--max-attempts", "1",
                "--backoff-base", "0.05",
                "--inject", "kill@0:at=1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "DEGRADED" in captured.out
        assert "gap manifest" in captured.err
        assert os.path.isfile(tmp_path / "work" / "gaps.json")

    def test_fabric_bad_plan_is_a_structured_setup_error(self, tmp_path, capsys):
        code = engine_main(
            ["fabric", "--plan", str(tmp_path / "nope.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: command=fabric")
        assert "cause=" in err


class TestCliErrorHygiene:
    def test_run_shard_setup_error_is_one_structured_line(self, tmp_path, capsys):
        code = engine_main(
            ["run-shard", "--plan", str(tmp_path / "nope.json"), "--shard", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: command=run-shard")
        assert "cause=FileNotFoundError" in err
        assert "\n" not in err

    def test_run_shard_json_errors_emits_parseable_json(self, tmp_path, capsys):
        plan_path, _plans = write_plan(tmp_path, 2)
        code = engine_main(
            [
                "run-shard",
                "--plan", plan_path,
                "--shard", "7/2",
                "--json-errors",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        error = payload["error"]
        assert error["command"] == "run-shard"
        assert error["experiment"] == "test-fabric"
        assert error["cause"] == "ValueError"
        assert error["exit_code"] == 2

    def test_run_shard_runtime_failure_exits_3_with_shard_attribution(
        self, tmp_path, capsys
    ):
        # The declared-unsound probe: the verifier rejects its output.
        failing = ExperimentSpec(
            "test/fabric-fail",
            "gadget-proof",
            "gadget-prover",
            "corrupt-color-clash",
            ns=(4,),
            seeds=(0,),
        )
        plan_path, _plans = write_plan(tmp_path, 1, spec=failing)
        code = engine_main(
            [
                "run-shard",
                "--plan", plan_path,
                "--shard", "0/1",
                "--cache-dir", str(tmp_path / "cache"),
                "--json-errors",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip())
        error = payload["error"]
        assert error["shard"] == 0
        assert error["cause"] == "AssertionError"
        assert "prover flagged a valid gadget (n=4, seed=0)" in error["message"]

    def test_merge_missing_cache_is_structured(self, tmp_path, capsys):
        plan_path, _plans = write_plan(tmp_path, 2)
        code = engine_main(
            [
                "merge",
                "--plan", plan_path,
                "--cache-dir", str(tmp_path / "missing"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: command=merge")

    def test_status_heartbeats_view(self, tmp_path, capsys):
        plan_path, _plans = write_plan(tmp_path, 2)
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        hb_dir = tmp_path / "work"
        os.makedirs(hb_dir)
        write_heartbeat(
            str(hb_dir / "shard-0.hb.json"),
            Heartbeat(seq=4, shard_index=0, pid=7, phase="record", done=3, total=5),
        )
        code = engine_main(
            [
                "status",
                "--plan", plan_path,
                "--cache-dir", cache_dir,
                "--heartbeats", str(hb_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heartbeats in" in out
        assert "3/5" in out


class TestShardHeartbeatAndInjectFlags:
    def test_run_shard_publishes_heartbeat_file(self, tmp_path, capsys):
        plan_path, plans = write_plan(tmp_path, 2)
        hb_path = str(tmp_path / "hb.json")
        code = engine_main(
            [
                "run-shard",
                "--plan", plan_path,
                "--shard", "0/2",
                "--cache-dir", str(tmp_path / "cache"),
                "--heartbeat", hb_path,
            ]
        )
        assert code == 0
        beat = read_heartbeat(hb_path)
        assert beat.phase == "done"
        assert beat.total == len(plans[0].manifest(0).trial_indices())
        assert beat.done == beat.total

    def test_run_shard_inject_corrupt_damages_the_export(self, tmp_path, capsys):
        plan_path, _plans = write_plan(tmp_path, 2)
        out_root = str(tmp_path / "shard0")
        code = engine_main(
            [
                "run-shard",
                "--plan", plan_path,
                "--shard", "0/2",
                "--cache-dir", str(tmp_path / "cache"),
                "--cache-out", out_root,
                "--inject", "corrupt@0:at=1",
            ]
        )
        assert code == 0  # the damage is silent — that's the point
        probe = TrialCache(str(tmp_path / "cache"), isolation=out_root)
        trials = _plans_trials(plan_path)
        present = sum(probe.contains(t.key()) for t in trials)
        assert present == len(trials) - 1


def _plans_trials(plan_path):
    with open(plan_path, encoding="utf-8") as handle:
        _experiment, plans = load_plan_file(json.load(handle))
    trials = []
    for plan in plans:
        all_trials = plan.spec.trials()
        for shard_index in (0,):
            trials += [all_trials[i] for i in plan.manifest(shard_index).trial_indices()]
    return trials
