"""The shape of ``python -m repro.engine``: one surface, one parse path.

Shared flags are parent parsers, so dropping one from a subcommand
changes that subcommand's option strings: the table below pins every
subcommand's surface.  Around it, the behaviour the shared definitions
make uniform: count flags reject values below 1 at parse time,
``--json -`` means stdout everywhere, usage errors come back from
``main`` as exit code 2 instead of ``SystemExit``, and a failure comes
back as one error line (``--json-errors``: one JSON object), not a
traceback: exit code 2 for setup (a missing, torn or malformed plan
or report file, and an unwritable ``--out``, included), 3 at run time.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.engine import cli
from repro.engine.cli import main
from repro.engine.runner import plan_experiment
from repro.engine.shard import dump_plan_file
from repro.engine.spec import ExperimentSpec

#: Every subcommand's options, besides ``-h``/``-v``/``-q`` (all take those).
SURFACE = {
    "cache": ["--cache-dir", "--compact", "--status"],
    "describe": [],
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
        "--cache-dir", "--cache-out", "--json", "--json-errors", "--kernels",
        "--plan", "--progress", "--shard", "--trace", "--workers",
    ],
    "stats": ["--report"],
    "status": ["--cache-dir", "--from", "--plan"],
}
EVERYWHERE = ["-h", "--help", "-q", "--quiet", "-v", "--verbose"]
COUNT_FLAGS = {"workers", "max_n", "seeds", "batch_size", "shards"}
#: Every (subcommand, count flag) pair of the surface above.
COUNT_FLAG_USES = [
    (name, option)
    for name, options in sorted(SURFACE.items())
    for option in options
    if option[2:].replace("-", "_") in COUNT_FLAGS
]
#: The least argv each count-flag subcommand parses, without the flag.
REQUIRED_ARGV = {
    "merge": ["--plan", "plan.json"],
    "plan": ["--experiment", "sinkless", "--shards", "1"],
    "run": ["--experiment", "sinkless", "--no-cache"],
    "run-shard": ["--plan", "plan.json", "--shard", "0"],
}


def _dumps_after(edit):
    """A plan file's text after ``edit`` changed its payload in place."""

    def text(payload):
        edit(payload)
        return json.dumps(payload)

    return text


#: Broken plan files, each with the cause its setup error names
#: (``None``: no file at all).
BAD_PLAN_FILES = {
    "missing": (None, "FileNotFoundError"),
    "torn": (lambda payload: json.dumps(payload)[:-40], "JSONDecodeError"),
    "a-list": (lambda payload: json.dumps([payload]), "ValueError"),
    "foreign-version": (
        _dumps_after(lambda payload: payload.update(version=99)),
        "ValueError",
    ),
    "no-specs": (_dumps_after(lambda payload: payload.pop("specs")), "ValueError"),
    "empty-specs": (
        _dumps_after(lambda payload: payload.update(specs=[])),
        "ValueError",
    ),
    "spec-plan-not-an-object": (
        _dumps_after(lambda payload: payload.update(specs=["sinkless"])),
        "ValueError",
    ),
    "spec-plan-missing-a-field": (
        _dumps_after(lambda payload: payload["specs"][0].pop("spec")),
        "ValueError",
    ),
    "field-of-the-wrong-type": (
        _dumps_after(lambda payload: payload["specs"][0].update(num_shards=None)),
        "ValueError",
    ),
    "tampered": (
        _dumps_after(lambda payload: payload["specs"][0].update(batch_size=7)),
        "ValueError",
    ),
    "truncated": (
        _dumps_after(lambda payload: payload["specs"][0].update(chunks=[])),
        "ValueError",
    ),
    "shard-count-disagrees": (
        _dumps_after(lambda payload: payload.update(num_shards=3)),
        "ValueError",
    ),
}


#: Report files ``stats`` cannot render, each a setup error.
BAD_REPORT_FILES = {
    "a-list": [],
    "entries-not-objects": {"reports": [1, {"telemetry": 5}]},
    "telemetry-not-an-object": {"reports": [{"telemetry": 5}]},
    "foreign-telemetry-version": {
        "reports": [{"experiment": "x", "elapsed_s": 1.0, "telemetry": {"v": 9}}]
    },
}


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


@pytest.mark.parametrize("command, flag", COUNT_FLAG_USES)
def test_count_flags_reject_values_below_one(
    command, flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for bad in ("0", "-1", "1.5", "many"):
        argv = [command, *REQUIRED_ARGV[command], flag, bad]
        assert main(argv) == 2, bad
        captured = capsys.readouterr()
        assert f"argument {flag}: expected a positive integer" in captured.err
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no handler ran


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


def test_run_shard_setup_error_is_one_structured_line(tmp_path, capsys):
    code = main(["run-shard", "--plan", str(tmp_path / "nope.json"), "--shard", "0"])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: command=run-shard")
    assert "cause=FileNotFoundError" in err
    assert "\n" not in err


def test_run_shard_json_errors_emits_parseable_json(plan_path, capsys):
    capsys.readouterr()
    code = main(["run-shard", "--plan", plan_path, "--shard", "7/2", "--json-errors"])
    assert code == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error["command"] == "run-shard"
    assert error["experiment"] == "sinkless"
    assert error["cause"] == "ValueError"
    assert error["exit_code"] == 2


def test_run_shard_runtime_failure_exits_3_with_shard_attribution(
    tmp_path, capsys
):
    # The declared-unsound probe: the verifier rejects its output.
    failing = ExperimentSpec(
        "test/shard-fail",
        "gadget-proof",
        "gadget-prover",
        "corrupt-color-clash",
        ns=(4,),
        seeds=(0,),
    )
    path = str(tmp_path / "plan.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            dump_plan_file("test-fail", [plan_experiment(failing, batch_size=1)]),
            handle,
        )
    argv = ["run-shard", "--plan", path, "--shard", "0/1"]
    code = main(argv + ["--cache-dir", str(tmp_path / "cache"), "--json-errors"])
    assert code == 3
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error["shard"] == 0
    assert error["cause"] == "AssertionError"
    assert "prover flagged a valid gadget (n=4, seed=0)" in error["message"]


def test_merge_missing_cache_is_structured(plan_path, tmp_path, capsys):
    capsys.readouterr()
    argv = ["merge", "--plan", plan_path, "--cache-dir", str(tmp_path / "missing")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: command=merge")


@pytest.mark.parametrize("command", ["run-shard", "merge", "status"])
@pytest.mark.parametrize("case", sorted(BAD_PLAN_FILES))
def test_a_bad_plan_file_is_one_setup_error_line(
    case, command, plan_path, tmp_path, capsys
):
    make, cause = BAD_PLAN_FILES[case]
    bad = tmp_path / "bad.json"
    if make is not None:
        with open(plan_path, encoding="utf-8") as handle:
            bad.write_text(make(json.load(handle)), encoding="utf-8")
    argv = [command, "--plan", str(bad), "--cache-dir", str(tmp_path / "cache")]
    if command == "run-shard":
        argv += ["--shard", "0"]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: command={command} cause={cause} message=")
    assert captured.out == ""
    if command != "status":  # the subcommands a launcher parses
        assert main(argv + ["--json-errors"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["cause"], error["exit_code"]) == (cause, 2)
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("case", sorted(BAD_REPORT_FILES))
def test_a_bad_report_file_is_one_setup_error_line(case, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(BAD_REPORT_FILES[case]), encoding="utf-8")
    assert main(["stats", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: command=stats cause=ValueError message=")
    assert captured.out == ""


def test_plan_to_an_unwritable_out_is_one_setup_error_line(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "plan.json"
    argv = ["plan", "--experiment", "sinkless", "--max-n", "64", "--shards", "2"]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(
        "error: command=plan experiment=sinkless cause=FileNotFoundError message="
    )
    assert captured.out == ""
    assert not out.parent.exists()


def test_stats_requires_a_report(tmp_path, capsys):
    assert main(["stats"]) == 2
    assert "--report" in capsys.readouterr().err
    # The cache view is ``cache --status``; ``stats`` has no fallback to it.
    argv = ["stats", "--report", str(tmp_path / "report.json")]
    assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --cache-dir" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "cache").exists()


def test_stats_names_each_shard_report_by_its_spec(plan_path, tmp_path, capsys):
    report_path = str(tmp_path / "shard.json")
    argv = ["run-shard", "--plan", plan_path, "--shard", "1/2", "--workers", "1"]
    argv += ["--cache-dir", str(tmp_path / "cache"), "--json", report_path]
    assert main(argv) == 0
    with open(report_path, encoding="utf-8") as handle:
        reports = json.load(handle)["reports"]
    assert [rep["shard_index"] for rep in reports] == [1] * len(reports)
    capsys.readouterr()
    assert main(["stats", "--report", report_path]) == 0
    walls = [
        line for line in capsys.readouterr().out.splitlines()
        if line.endswith("s wall")
    ]
    assert [line.split(": ")[0] for line in walls] == [
        rep["experiment"] for rep in reports
    ]
    assert all(name.startswith("sinkless/") for name in walls)
