"""The shape of ``python -m repro.engine``: one surface, one parse path.

Shared flags are parent parsers, so dropping one from a subcommand
changes that subcommand's option strings: the table below pins every
subcommand's surface.  Around it, the behaviour the shared definitions
make uniform: count flags reject values below 1 and seconds flags
values that are not positive, both at parse time, ``--json -`` means
stdout everywhere, usage errors come back from ``main`` as exit code 2
instead of ``SystemExit``, and a run-time failure comes back as exit
code 3 with one error line, not a traceback.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.engine import cli
from repro.engine.cli import main

#: Every subcommand's options, besides ``-h``/``-v``/``-q`` (all take those).
SURFACE = {
    "cache": ["--cache-dir", "--compact", "--status"],
    "describe": [],
    "fabric": [
        "--backoff-base", "--cache-dir", "--dry-run", "--heartbeat-timeout",
        "--inject", "--json", "--json-errors", "--kernels", "--max-attempts",
        "--max-parallel", "--plan", "--poll-interval", "--retry-failed",
        "--shard-workers", "--target", "--work-dir",
    ],
    "list": [],
    "merge": [
        "--cache-dir", "--compact", "--from", "--json", "--json-errors",
        "--kernels", "--plan", "--trace", "--workers",
    ],
    "plan": [
        "--batch-size", "--experiment", "--max-n", "--out", "--seeds",
        "--shards",
    ],
    "run": [
        "--batch-size", "--cache-dir", "--experiment", "--json", "--kernels",
        "--max-n", "--no-cache", "--progress", "--seeds", "--trace",
        "--workers",
    ],
    "run-shard": [
        "--cache-dir", "--cache-out", "--heartbeat", "--inject", "--json",
        "--json-errors", "--kernels", "--plan", "--progress", "--shard",
        "--trace", "--workers",
    ],
    "stats": ["--cache-dir", "--report"],
    "status": ["--cache-dir", "--from", "--heartbeats", "--plan"],
}
EVERYWHERE = ["-h", "--help", "-q", "--quiet", "-v", "--verbose"]
COUNT_FLAGS = {
    "workers", "max_n", "seeds", "batch_size", "shards", "shard_workers",
    "max_parallel", "max_attempts",
}
SECONDS_FLAGS = {"heartbeat_timeout", "poll_interval", "backoff_base"}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


@pytest.fixture
def plan_path(tmp_path):
    path = str(tmp_path / "plan.json")
    argv = ["plan", "--experiment", "sinkless", "--max-n", "64", "--seeds", "1"]
    assert main(argv + ["--shards", "2", "--out", path]) == 0
    return path


def test_every_subcommand_keeps_its_option_strings():
    subcommands = _subcommands()
    assert sorted(subcommands) == sorted(SURFACE)
    for name, sub in subcommands.items():
        options = sorted(s for a in sub._actions for s in a.option_strings)
        assert options == sorted(SURFACE[name] + EVERYWHERE), name
        for action in sub._actions:
            if action.dest in COUNT_FLAGS:
                assert action.type is cli._positive_int, (name, action.dest)
            if action.dest in SECONDS_FLAGS:
                assert action.type is cli._positive_float, (name, action.dest)


def test_usage_errors_return_2(tmp_path, monkeypatch, capsys):
    # The bare form once meant `run`; it is a usage error now.
    monkeypatch.chdir(tmp_path)
    assert main(["--experiment", "sinkless"]) == 2
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["list", "--help"]) == 0


def test_negative_workers_is_a_usage_error(capsys):
    argv = ["run", "--experiment", "sinkless", "--max-n", "64"]
    assert main(argv + ["--workers", "-3", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert "--workers" in captured.err and "positive integer" in captured.err
    assert captured.out == ""


def test_run_time_failure_exits_3_with_one_error_line(monkeypatch, capsys):
    def reject(spec, **kwargs):
        raise AssertionError(f"rejected output (spec={spec.name})")

    monkeypatch.setattr(cli, "run_experiment", reject)
    argv = ["run", "--experiment", "sinkless", "--max-n", "64", "--no-cache"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(
        "error: command=run experiment=sinkless cause=AssertionError "
        "message='rejected output (spec=sinkless/"
    )
    assert captured.out == ""


def test_interrupted_fabric_exits_3_with_one_error_line(
    plan_path, monkeypatch, capsys
):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_fabric", interrupted)
    capsys.readouterr()
    try:
        code = main(["fabric", "--plan", plan_path])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped the CLI as a traceback")
    assert code == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: command=fabric experiment=sinkless cause=KeyboardInterrupt"
    )


def test_zero_max_parallel_is_a_usage_error(plan_path, capsys):
    capsys.readouterr()
    argv = ["fabric", "--plan", plan_path, "--max-parallel", "0", "--dry-run"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--max-parallel" in captured.err
    assert captured.out == ""  # nothing resolved, nothing printed


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--poll-interval", "-1"),
        ("--heartbeat-timeout", "0"),
        ("--backoff-base", "nan"),
        ("--poll-interval", "soon"),
    ],
)
def test_nonpositive_seconds_are_usage_errors(plan_path, capsys, flag, value):
    # A negative poll interval used to crash the supervision loop with
    # its first shard already running.
    capsys.readouterr()
    argv = ["fabric", "--plan", plan_path, flag, value, "--dry-run"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "positive number" in captured.err
    assert captured.out == ""


def test_run_shard_json_dash_is_stdout(plan_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = main(
        [
            "run-shard", "--plan", plan_path, "--shard", "0/2",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--json", "-",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("\n{") + 1 :])
    assert payload["shard_index"] == 0
    assert payload["reports"]
    assert not (tmp_path / "-").exists()
