"""Remote shard transport: exec targets, integrity-checked pulls, chaos.

The acceptance property extends the fabric's: a K=8 chaos run whose
shards execute over ``cmd://`` targets and whose exports travel a
fault-injected HTTP link — killed shards, stalled responses, truncated
and garbled transfers — recovers via retries and Range resume and
merges byte-identical to the K=1 oracle, while a *persistently*
corrupted export is quarantined (never merged) and reported in the gap
manifest.  Around it, the unit surface: target URI parsing and command
resolution, manifested exports, every ``net-*`` fault mode against a
live loopback server, the ``--dry-run`` renderer, and the process-group
reaping of shards that die mid-chunk.
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import os
import re

import pytest

from repro.engine.cache import TrialCache, load_export_manifest
from repro.engine.cli import main as engine_main
from repro.engine.fabric import BackoffPolicy, run_fabric
from repro.engine.faults import NetFaultInjector, parse_fault_specs, shard_from_path
from repro.engine.remote import (
    ExecTarget,
    ExportServer,
    PullPolicy,
    assign_targets,
    local_argv,
    pull_export,
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


# -- manifested exports ------------------------------------------------


def _filled_cache(root, items):
    cache = TrialCache(str(root))
    for key, record in items:
        cache.put(key, record)
    return cache


class TestExportDir:
    def test_manifest_names_every_file_with_true_digests(self, tmp_path):
        cache = _filled_cache(
            tmp_path / "src", [("aa1", {"x": 1}), ("ab2", {"x": 2}), ("cc3", {"x": 3})]
        )
        dest = str(tmp_path / "export")
        manifest = cache.export_dir(dest)
        assert manifest["records_total"] == 3
        loaded = load_export_manifest(dest)
        assert loaded["files"] == manifest["files"]
        for name, entry in manifest["files"].items():
            with open(os.path.join(dest, name), "rb") as handle:
                blob = handle.read()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]

    def test_export_dir_merges_back_identically(self, tmp_path):
        items = [("aa1", {"x": 1}), ("bb2", {"y": [2, 3]})]
        cache = _filled_cache(tmp_path / "src", items)
        dest = str(tmp_path / "export")
        cache.export_dir(dest)
        merged = TrialCache(str(tmp_path / "merged"))
        assert merged.merge(dest) == 2
        for key, record in items:
            assert merged.get(key) == record


# -- pulling over a live loopback server -------------------------------


FAST_PULL = PullPolicy(timeout=2.0, max_attempts=4, backoff_base=0.05, jitter=0.0)


@pytest.fixture()
def export_tree(tmp_path):
    """A served export of 6 records in 3+ files, plus its fingerprint."""
    items = [(f"{c}{c}{i}", {"v": i}) for i, c in enumerate("aabbcc")]
    cache = _filled_cache(tmp_path / "src", items)
    dest = str(tmp_path / "exports" / "shard-0")
    cache.export_dir(dest)
    return str(tmp_path / "exports"), items


class TestPullExport:
    def test_clean_round_trip(self, tmp_path, export_tree):
        root, items = export_tree
        with ExportServer(root) as server:
            result = pull_export(
                server.url + "/shard-0", str(tmp_path / "pull"), FAST_PULL
            )
        assert result.ok and not result.quarantined
        assert result.records == len(items)
        merged = TrialCache(str(tmp_path / "merged"))
        merged.merge(result.dest)
        for key, record in items:
            assert merged.get(key) == record

    @pytest.mark.parametrize(
        "spec, resumes",
        [
            ("net-truncate@0:attempts=1", True),
            ("net-drop@0:attempts=1", True),
            ("net-garble@0:attempts=1", False),  # poisoned -> full refetch
            ("net-5xx@0:attempts=1+2", False),
        ],
    )
    def test_transient_faults_recover(self, tmp_path, export_tree, spec, resumes):
        root, items = export_tree
        injector = NetFaultInjector(parse_fault_specs(spec), seed=7)
        with ExportServer(root, injector=injector) as server:
            result = pull_export(
                server.url + "/shard-0", str(tmp_path / "pull"), FAST_PULL
            )
        assert result.ok, result.summary()
        assert result.records == len(items)
        assert max(file.attempts for file in result.files) > 1
        if resumes:
            assert sum(file.resumed_bytes for file in result.files) > 0

    def test_stall_times_out_and_retries(self, tmp_path, export_tree):
        root, items = export_tree
        injector = NetFaultInjector(
            parse_fault_specs("net-stall@0:attempts=1,secs=5"), seed=0
        )
        policy = PullPolicy(timeout=0.5, max_attempts=3, backoff_base=0.05, jitter=0.0)
        with ExportServer(root, injector=injector) as server:
            result = pull_export(
                server.url + "/shard-0", str(tmp_path / "pull"), policy
            )
        assert result.ok and result.records == len(items)

    def test_persistent_corruption_quarantined_never_merged(
        self, tmp_path, export_tree
    ):
        root, items = export_tree
        # Corrupt one record file on disk; its manifest digest is now a
        # standing lie no number of retries can fix.
        victim = sorted(glob.glob(os.path.join(root, "shard-0", "*.jsonl")))[0]
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write('{"key": "evil", "record": {"v": 666}}\n')
        with ExportServer(root) as server:
            result = pull_export(
                server.url + "/shard-0", str(tmp_path / "pull"), FAST_PULL
            )
        assert not result.ok
        names = [file.name for file in result.quarantined]
        assert names == [os.path.basename(victim)]
        # quarantined for forensics, invisible to merge
        qpath = os.path.join(result.dest, "quarantine", names[0])
        assert os.path.isfile(qpath)
        merged = TrialCache(str(tmp_path / "merged"))
        merged.merge(result.dest)
        assert merged.get("evil") is None
        assert result.records < len(items)

    def test_unreachable_endpoint_reports_error(self, tmp_path):
        policy = PullPolicy(timeout=0.5, max_attempts=2, backoff_base=0.05)
        result = pull_export(
            "http://127.0.0.1:9/nope", str(tmp_path / "pull"), policy
        )
        assert result.error is not None and not result.ok

    def test_traversal_refused(self, tmp_path, export_tree):
        import urllib.error
        import urllib.request

        root, _ = export_tree
        (tmp_path / "secret.txt").write_text("keep out")
        with ExportServer(root) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    server.url + "/shard-0/%2e%2e/%2e%2e/secret.txt", timeout=2.0
                )
        assert excinfo.value.code == 404

    def test_shard_mapping_from_paths(self):
        assert shard_from_path("shard-3/aa.jsonl") == 3
        assert shard_from_path("exports/shard-12/bb.jsonl") == 12
        assert shard_from_path("aa.jsonl") == 0  # flat root


# -- CLI: dry-run, export, serve, merge --from-url ---------------------


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

    def test_cache_export_cli(self, tmp_path, capsys):
        _filled_cache(tmp_path / "cache", [("aa1", {"x": 1}), ("bb2", {"x": 2})])
        dest = str(tmp_path / "export")
        rc = engine_main(
            ["cache", "--cache-dir", str(tmp_path / "cache"), "--export", dest]
        )
        assert rc == 0
        assert "2 record(s)" in capsys.readouterr().out
        assert load_export_manifest(dest)["records_total"] == 2

    def _ran_plan_with_exports(self, tmp_path):
        """Run the plan locally, export the cache, return all three."""
        plan_path, plans = write_plan(tmp_path, num_shards=2)
        cache_dir = str(tmp_path / "ran")
        run_experiment(
            PARITY_SPEC, workers=1, cache=TrialCache(cache_dir),
            batch_size=plans[0].batch_size,
        )
        export_root = str(tmp_path / "exports")
        TrialCache(cache_dir).export_dir(os.path.join(export_root, "shard-0"))
        return plan_path, cache_dir, export_root

    def test_merge_from_url_clean(self, tmp_path, capsys):
        plan_path, cache_dir, export_root = self._ran_plan_with_exports(tmp_path)
        merged_dir = str(tmp_path / "merged")
        with ExportServer(export_root) as server:
            rc = engine_main(
                [
                    "merge", "--plan", plan_path,
                    "--cache-dir", merged_dir,
                    "--from-url", server.url + "/shard-0",
                    "--pull-backoff", "0.05", "-q",
                ]
            )
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 pulled export(s)" in out
        assert cache_fingerprint(merged_dir) == cache_fingerprint(cache_dir)

    def test_merge_from_url_quarantine_degrades_to_gaps(self, tmp_path, capsys):
        plan_path, cache_dir, export_root = self._ran_plan_with_exports(tmp_path)
        victim = sorted(
            glob.glob(os.path.join(export_root, "shard-0", "*.jsonl"))
        )[0]
        with open(victim, "ab") as handle:
            handle.write(b"garbage tail\n")
        merged_dir = str(tmp_path / "merged")
        with ExportServer(export_root) as server:
            rc = engine_main(
                [
                    "merge", "--plan", plan_path,
                    "--cache-dir", merged_dir,
                    "--from-url", server.url + "/shard-0",
                    "--pull-attempts", "2", "--pull-backoff", "0.05", "-q",
                ]
            )
        captured = capsys.readouterr()
        assert rc == 4
        assert "gap manifest" in captured.err
        with open(os.path.join(merged_dir, "gaps.json"), encoding="utf-8") as f:
            gap = json.load(f)
        assert gap["trials_missing"] > 0
        assert gap["quarantined"][0]["file"] == os.path.basename(victim)
        assert os.path.isfile(gap["quarantined"][0]["quarantine"])
        # every surviving record merged; none of the quarantined bytes
        good = cache_fingerprint(merged_dir)
        oracle = cache_fingerprint(cache_dir)
        assert set(good) < set(oracle)
        assert all(good[key] == oracle[key] for key in good)

    def test_merge_from_url_unreachable_degrades(self, tmp_path, capsys):
        plan_path, _ = write_plan(tmp_path, num_shards=2)
        merged_dir = str(tmp_path / "merged")
        rc = engine_main(
            [
                "merge", "--plan", plan_path,
                "--cache-dir", merged_dir,
                "--from-url", "http://127.0.0.1:9/shard-0",
                "--pull-attempts", "2", "--pull-backoff", "0.05",
                "--pull-timeout", "0.5", "-q",
            ]
        )
        assert rc == 4
        with open(os.path.join(merged_dir, "gaps.json"), encoding="utf-8") as f:
            gap = json.load(f)
        assert gap["failed_sources"][0]["url"].startswith("http://127.0.0.1:9")


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
        """Kill a shard mid-run on a cmd:// target, then pull every
        shard's export through a link that stalls, truncates, and
        garbles — and still merge byte-identical to the K=1 oracle."""
        plan_path, _ = write_plan(tmp_path, num_shards=8)
        fabric = run_fabric(
            plan_path,
            str(tmp_path / "fabric-cache"),
            work_dir=str(tmp_path / "work"),
            max_parallel=4,
            backoff=BackoffPolicy(base=0.1, max_attempts=3),
            faults=["kill@1:at=1", "kill@3:at=1"],
            targets=[CMD_LOCALHOST + "#concurrency=4"],
        )
        assert fabric.ok, fabric.summary()

        # Host-side: export each shard's root with its manifest.
        export_root = str(tmp_path / "exports")
        for i in range(8):
            shard_dir = os.path.join(str(tmp_path / "work"), f"shard-{i}")
            TrialCache(shard_dir).export_dir(
                os.path.join(export_root, f"shard-{i}")
            )

        # Link-side chaos: stall one shard's transfer past the client
        # timeout, truncate another, garble a third — once each.
        injector = NetFaultInjector(
            parse_fault_specs(
                "net-stall@2:attempts=1,secs=5;"
                "net-truncate@4:attempts=1;"
                "net-garble@5:attempts=1"
            ),
            seed=11,
        )
        merged_dir = str(tmp_path / "merged")
        policy = PullPolicy(
            timeout=1.0, max_attempts=4, backoff_base=0.05, jitter=0.0
        )
        merged = TrialCache(merged_dir)
        with ExportServer(export_root, injector=injector) as server:
            for i in range(8):
                result = pull_export(
                    f"{server.url}/shard-{i}",
                    os.path.join(str(tmp_path / "pulls"), f"src-{i}"),
                    policy,
                )
                assert result.ok, result.summary()
                merged.merge(result.dest)

        oracle_dir = str(tmp_path / "oracle")
        run_experiment(PARITY_SPEC, workers=1, cache=TrialCache(oracle_dir))
        assert cache_fingerprint(merged_dir) == cache_fingerprint(oracle_dir)
