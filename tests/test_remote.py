"""Exec targets: the fabric's shards run over ``cmd://`` wrappers.

The acceptance property extends the fabric's: a K=8 chaos run whose
shards execute over a ``cmd://`` target and are killed mid-run
recovers via retries and merges byte-identical to the K=1 oracle.
Around it, the unit surface: target URI parsing and command
resolution, the ``--dry-run`` renderer, target timeouts, and the
process-group reaping of shards that die mid-chunk.
"""

from __future__ import annotations

import json
import logging
import os
import re

import pytest

from repro.engine.cache import TrialCache
from repro.engine.cli import main as engine_main
from repro.engine.fabric import BackoffPolicy, run_fabric
from repro.engine.remote import (
    ExecTarget,
    assign_targets,
    local_argv,
    shard_context,
)
from repro.engine.runner import plan_experiment, run_experiment
from repro.engine.shard import dump_plan_file
from repro.engine.spec import ExperimentSpec


PARITY_SPEC = ExperimentSpec(
    "test/degree-parity/parity@cycle",
    "degree-parity",
    "parity",
    "cycle",
    ns=(8, 12, 16),
    seeds=(0, 1, 2),
)

#: A wrapper template equivalent to local://, but exercising the whole
#: cmd:// path: format substitution, shlex splitting, shell exec.
CMD_LOCALHOST = (
    "cmd://sh -c \"exec {python} -m repro.engine run-shard --plan {plan} "
    "--shard {shard}/{num_shards} --workers {workers} --cache-dir {cache_dir} "
    "--cache-out {out} --heartbeat {heartbeat} --kernels {kernels} "
    "--json-errors -q\""
)


def write_plan(tmp_path, num_shards, spec=PARITY_SPEC, name="plan.json"):
    plans = [plan_experiment(spec, num_shards=num_shards, batch_size=1)]
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump_plan_file("test-remote", plans), handle)
    return path, plans


def cache_fingerprint(root):
    """(key -> canonical record) for byte-level cache comparison."""
    cache = TrialCache(root)
    cache.load_all()
    return {
        key: json.dumps(record, sort_keys=True)
        for key, record in cache._index.items()
    }


# -- exec targets ------------------------------------------------------


class TestExecTarget:
    def test_parse_local_default(self):
        target = ExecTarget.parse("local://")
        assert target.scheme == "local"
        assert target.concurrency is None and target.timeout is None

    def test_parse_fragment_options(self):
        target = ExecTarget.parse("local://#concurrency=2,timeout=90")
        assert target.concurrency == 2
        assert target.timeout == 90.0

    def test_parse_cmd_template(self):
        target = ExecTarget.parse("cmd://ssh host run {plan} {shard}#timeout=5")
        assert target.scheme == "cmd"
        assert target.template == "ssh host run {plan} {shard}"
        assert target.timeout == 5.0
        # The fragment starts at the last '#': a trailing one keeps a
        # template's own '#' intact.
        hashed = ExecTarget.parse('cmd://sh -c "x # {plan} {shard}"#')
        assert hashed.template == 'sh -c "x # {plan} {shard}"'

    @pytest.mark.parametrize(
        "uri, match",
        [
            ("rsh://host", "not 'local://' or 'cmd://"),
            ("local://echo hi", "takes no command"),
            ("cmd://", "needs a command template"),
            ("cmd://run {plan}", "must reference {shard}"),
            ("cmd://run {plan} {shard} {hostname}", "unknown placeholder"),
            ("cmd://run {plan} {shard}#color=red", "unknown target option"),
            ("local://#concurrency=0", "must be >= 1"),
            ("local://#timeout=0", "must be > 0"),
            ("local://#timeout=nan", "must be > 0"),
            ("local://#timeout=abc", "'timeout' needs a number .*'abc'"),
            ("local://#concurrency=x", "'concurrency' needs an integer, got 'x'"),
            (
                'cmd://sh -c "sleep 1 # {plan} {shard}"',
                "must end with '#' or '#options'",
            ),
        ],
    )
    def test_bad_targets_rejected(self, uri, match):
        with pytest.raises(ValueError, match=match):
            ExecTarget.parse(uri)

    def test_local_command_is_run_shard_argv(self, tmp_path):
        ctx = shard_context("plan.json", 1, 4, "cache", str(tmp_path))
        target = ExecTarget.parse("local://")
        argv = target.command(ctx)
        assert argv == local_argv(ctx)
        assert "--shard" in argv and argv[argv.index("--shard") + 1] == "1/4"

    def test_cmd_command_substitutes_and_splits(self, tmp_path):
        ctx = shard_context("plan.json", 2, 8, "cache", str(tmp_path))
        target = ExecTarget.parse(
            "cmd://ssh worker-3 repro-shard {plan} {shard}/{num_shards}"
        )
        assert target.command(ctx) == [
            "ssh", "worker-3", "repro-shard", "plan.json", "2/8",
        ]

    def test_assign_round_robin_shares_instances(self):
        targets = ["cmd://a {plan} {shard}", "cmd://b {plan} {shard}"]
        dealt = assign_targets(5, targets)
        assert [t.template[0] for t in dealt] == ["a", "b", "a", "b", "a"]
        # shard 0 and 2 share one parsed instance: identity is what
        # groups a target's concurrency accounting in the launcher
        assert dealt[0] is dealt[2] is dealt[4]

    def test_assign_defaults_to_local(self):
        dealt = assign_targets(3)
        assert all(t.scheme == "local" for t in dealt)


# -- CLI: dry-run and bad targets --------------------------------------


class TestRemoteCLI:
    def test_fabric_dry_run_prints_commands_without_spawning(
        self, tmp_path, capsys
    ):
        plan_path, _ = write_plan(tmp_path, num_shards=3)
        rc = engine_main(
            [
                "fabric", "--plan", plan_path,
                "--cache-dir", str(tmp_path / "cache"),
                "--dry-run",
                "--target", "cmd://ssh h0 run {plan} {shard}#concurrency=2",
                "--target", "local://",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "shard 0/3: target cmd://ssh h0 run {plan} {shard}" in out
        assert "shard 1/3: target local://" in out
        assert "shard 2/3: target cmd://" in out  # round-robin wraps
        assert f"ssh h0 run {plan_path} 0" in out
        assert "run-shard" in out  # the local:// resolved argv
        # nothing spawned, no fabric state conjured
        assert not os.path.exists(plan_path + ".fabric")

    def test_bad_target_uri_is_a_setup_error(self, tmp_path, capsys):
        plan_path, _ = write_plan(tmp_path, num_shards=2)
        rc = engine_main(
            [
                "fabric", "--plan", plan_path,
                "--cache-dir", str(tmp_path / "cache"),
                "--target", "teleport://elsewhere",
            ]
        )
        assert rc == 2
        assert "not 'local://' or 'cmd://" in capsys.readouterr().err

# -- fabric over cmd:// targets ----------------------------------------


class TestFabricTargets:
    def test_cmd_target_matches_local_run(self, tmp_path):
        plan_path, _ = write_plan(tmp_path, num_shards=2)
        local = run_fabric(
            plan_path,
            str(tmp_path / "cache-local"),
            work_dir=str(tmp_path / "work-local"),
            backoff=BackoffPolicy(base=0.1, max_attempts=2),
        )
        remote = run_fabric(
            plan_path,
            str(tmp_path / "cache-cmd"),
            work_dir=str(tmp_path / "work-cmd"),
            backoff=BackoffPolicy(base=0.1, max_attempts=2),
            targets=[CMD_LOCALHOST + "#concurrency=2"],
        )
        assert local.ok and remote.ok
        assert cache_fingerprint(str(tmp_path / "cache-cmd")) == cache_fingerprint(
            str(tmp_path / "cache-local")
        )

    def test_target_timeout_kills_and_fails_attempt(self, tmp_path):
        plan_path, _ = write_plan(tmp_path, num_shards=1)
        # A wrapper that never starts the shard: heartbeats never appear,
        # but the target timeout reaps it long before heartbeat staleness.
        stuck = "cmd://sh -c \"sleep 600 # {plan} {shard}\"#timeout=0.5"
        result = run_fabric(
            plan_path,
            str(tmp_path / "cache"),
            work_dir=str(tmp_path / "work"),
            heartbeat_timeout=120.0,
            backoff=BackoffPolicy(base=0.05, max_attempts=1),
            targets=[stuck],
        )
        assert not result.ok
        assert result.outcomes[0].state == "failed"
        assert "target timeout" in result.outcomes[0].cause

    def test_vector_kill_salvages_and_reaps_the_group(self, tmp_path, caplog):
        """A shard on a cmd:// target dies mid-chunk; the retry salvages
        its durable chunks and the launcher reaps the dead shard's pool
        workers."""
        caplog.set_level(logging.INFO, logger="repro.engine")
        plan_path, _ = write_plan(tmp_path, num_shards=2)
        result = run_fabric(
            plan_path,
            str(tmp_path / "cache"),
            work_dir=str(tmp_path / "work"),
            shard_workers=2,
            kernels="vector",
            backoff=BackoffPolicy(base=0.1, max_attempts=3),
            faults=["kill@0:at=2"],
            targets=[CMD_LOCALHOST],
        )
        assert result.ok
        assert result.outcomes[0].attempts == 2  # died once, recovered
        oracle_dir = str(tmp_path / "oracle")
        run_experiment(PARITY_SPEC, workers=1, cache=TrialCache(oracle_dir))
        assert cache_fingerprint(str(tmp_path / "cache")) == cache_fingerprint(
            oracle_dir
        )
        # no process of the killed attempt outlives the run: the shard
        # led its own process group, so its pool workers and resource
        # tracker share the group id, which is the attempt's pid
        killed = re.search(r"shard 0 attempt 1: pid (\d+)", caplog.text)
        assert killed is not None, caplog.text
        assert _live_group_members(int(killed.group(1))) == []


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


# -- the acceptance chaos run ------------------------------------------


class TestRemoteChaosAcceptance:
    def test_k8_chaos_over_cmd_targets_matches_oracle(self, tmp_path):
        """Kill two shards mid-run on a cmd:// target; the retries
        recover and the fabric's merged cache is byte-identical to the
        K=1 oracle."""
        plan_path, _ = write_plan(tmp_path, num_shards=8)
        fabric_dir = str(tmp_path / "fabric-cache")
        fabric = run_fabric(
            plan_path,
            fabric_dir,
            work_dir=str(tmp_path / "work"),
            max_parallel=4,
            backoff=BackoffPolicy(base=0.1, max_attempts=3),
            faults=["kill@1:at=1", "kill@3:at=1"],
            targets=[CMD_LOCALHOST + "#concurrency=4"],
        )
        assert fabric.ok, fabric.summary()
        states = {o.shard_index: o for o in fabric.outcomes}
        assert states[1].attempts == states[3].attempts == 2

        oracle_dir = str(tmp_path / "oracle")
        run_experiment(PARITY_SPEC, workers=1, cache=TrialCache(oracle_dir))
        assert cache_fingerprint(fabric_dir) == cache_fingerprint(oracle_dir)
