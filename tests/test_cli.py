"""The shape of ``python -m repro.engine``: one surface, one parse path.

Shared flags are parent parsers, so dropping one from a subcommand
changes that subcommand's option strings: the table below pins every
subcommand's surface.  Around it, the behaviour the shared definitions
make uniform: count flags reject values below 1 at parse time,
``--json -`` means stdout everywhere, usage errors come back from
``main`` as exit code 2 instead of ``SystemExit``, and a failure comes
back as one error line (``--json-errors``: one JSON object), not a
traceback: exit code 2 for setup (a grid below its experiment's
smallest instance, a missing or unusable cache root, a bad shard index
and a malformed report file included), 3 at run time.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.engine import cli
from repro.engine.cache import TrialCache
from repro.engine.cli import main

#: Every subcommand's options, besides ``-h``/``-v``/``-q`` (all take those).
SURFACE = {
    "cache": ["--cache-dir", "--compact", "--status"],
    "describe": [],
    "list": [],
    "run": [
        "--batch-size", "--cache-dir", "--experiment", "--from", "--json",
        "--max-n", "--no-cache", "--progress", "--seeds", "--trace",
        "--workers",
    ],
    "run-shard": [
        "--batch-size", "--cache-dir", "--cache-out", "--experiment", "--json",
        "--json-errors", "--max-n", "--progress", "--seeds", "--shard",
        "--trace", "--workers",
    ],
    "stats": ["--report"],
    "status": [
        "--batch-size", "--cache-dir", "--experiment", "--from", "--max-n",
        "--seeds", "--shards",
    ],
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
    "run": ["--experiment", "sinkless", "--no-cache"],
    "run-shard": ["--experiment", "sinkless", "--shard", "0/1"],
    "status": ["--experiment", "sinkless", "--shards", "1"],
}
#: The grid flags every shard and status call of one small run shares.
GRID = ["--experiment", "sinkless", "--max-n", "64", "--seeds", "1"]


def _grid_argv(command, cache_dir=None, grid=GRID, extra=()):
    """``command`` over ``grid``, as shard 0 of 2 where it shards.

    ``cache_dir`` defaults to ``cache``, a root ``run`` and ``run-shard``
    would create, and to ``root``, an existing one, for ``status``.
    """
    shard = {
        "run": [], "run-shard": ["--shard", "0/2"], "status": ["--shards", "2"]
    }
    if cache_dir is None:
        cache_dir = "root" if command == "status" else "cache"
    return [command, *grid, *shard[command], "--cache-dir", cache_dir, *extra]


#: Each experiment's largest ``--max-n`` below its smallest instance.
TOO_SMALL = {"sinkless": 63, "padding": 127, "gadget": 15, "landscape": 15}

#: Grids, cache roots and trace paths no grid subcommand can set up,
#: each with the cause its error line names.  ``root`` is an existing
#: cache root and ``file`` a plain file; no other path exists, and none
#: may be created: ``run`` and ``run-shard`` check every output path
#: before they create a cache root or a trace file.
BAD_SETUPS = {
    **{
        f"{command}-{experiment}-max-n-{max_n}": (
            _grid_argv(
                command, grid=["--experiment", experiment, "--max-n", str(max_n)]
            ),
            "ValueError",
        )
        for command in ("run", "run-shard", "status")
        for experiment, max_n in TOO_SMALL.items()
    },
    "run-cache-dir-is-a-file": (_grid_argv("run", "file"), "FileExistsError"),
    "run-shard-cache-dir-is-a-file": (
        _grid_argv("run-shard", "file"),
        "FileExistsError",
    ),
    "status-cache-dir-is-a-file": (_grid_argv("status", "file"), "ValueError"),
    "run-cache-dir-under-a-file": (
        _grid_argv("run", "file/cache"),
        "NotADirectoryError",
    ),
    "run-shard-cache-dir-under-a-file": (
        _grid_argv("run-shard", "file/cache"),
        "NotADirectoryError",
    ),
    "status-cache-dir-under-a-file": (
        _grid_argv("status", "file/cache"),
        "ValueError",
    ),
    "status-cache-dir-missing": (_grid_argv("status", "cache"), "ValueError"),
    "run-from-a-missing-root": (
        _grid_argv("run", extra=["--from", "root", "missing"]),
        "ValueError",
    ),
    "status-from-a-missing-root": (
        _grid_argv("status", extra=["--from", "missing"]),
        "ValueError",
    ),
    "run-from-a-file": (
        _grid_argv("run", extra=["--from", "root", "file"]),
        "ValueError",
    ),
    "status-from-a-file": (
        _grid_argv("status", extra=["--from", "file"]),
        "ValueError",
    ),
    "run-trace-in-a-missing-directory": (
        _grid_argv("run", extra=["--trace", "nodir/t.jsonl"]),
        "FileNotFoundError",
    ),
    "run-shard-trace-in-a-missing-directory": (
        _grid_argv("run-shard", extra=["--trace", "nodir/t.jsonl"]),
        "FileNotFoundError",
    ),
    "run-shard-cache-out-is-a-file": (
        _grid_argv("run-shard", extra=["--cache-out", "file", "--trace", "t.jsonl"]),
        "FileExistsError",
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
    "retired-parts-layout": {
        "reports": [
            {
                "experiment": "x",
                "elapsed_s": 1.0,
                "telemetry": dict(
                    v=1, parts={"1-ab:0": {"counters": {"cache.hits": 1}, "spans": {}}}
                ),
            }
        ]
    },
}
#: The cause a bad report file's error line names, where it names one.
REPORT_FILE_CAUSES = {
    "foreign-telemetry-version": "retired {v, parts} layout",
    "retired-parts-layout": "retired {v, parts} layout",
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_every_subcommand_keeps_its_option_strings():
    subcommands = _subcommands()
    assert sorted(subcommands) == sorted(SURFACE)
    # The census: 7 subcommands, 34 (subcommand, flag) pairs, of which
    # 12 are count flags.
    assert len(SURFACE) == 7
    assert sum(len(options) for options in SURFACE.values()) == 34
    assert len(COUNT_FLAG_USES) == 12
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


UNKNOWN = "argument --experiment: invalid choice: 'sinkles'"
REQUIRED = "the following arguments are required:"


# The grid flags are the plan: every subcommand that takes them needs a
# registered --experiment, and a shard needs its I/K.
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", *GRID, "--no-cache", "--from", "shard-0"],
            "argument --from: not allowed with argument --no-cache",
        ),
        (["run-shard", *GRID, "--shard", "1"], "argument --shard: expected I/K"),
        (["run-shard", *GRID, "--shard", "1/two"], "argument --shard: expected I/K"),
        (["run", "--experiment", "sinkles", "--no-cache"], UNKNOWN),
        (["run-shard", "--experiment", "sinkles", "--shard", "0/1"], UNKNOWN),
        (["status", "--experiment", "sinkles", "--shards", "1"], UNKNOWN),
        (["run", "--no-cache"], f"{REQUIRED} --experiment"),
        (["run-shard", "--shard", "0/1"], f"{REQUIRED} --experiment"),
        (["status", "--shards", "1"], f"{REQUIRED} --experiment"),
        (["run-shard", *GRID], f"{REQUIRED} --shard"),
        (["status", *GRID], f"{REQUIRED} --shards"),
    ],
    ids=[
        "from-with-no-cache", "shard-without-k", "shard-k-not-a-number",
        "run-unknown-experiment", "run-shard-unknown-experiment",
        "status-unknown-experiment", "run-without-experiment",
        "run-shard-without-experiment", "status-without-experiment",
        "run-shard-without-shard", "status-without-shards",
    ],
)
def test_malformed_grid_or_shard_flags_are_usage_errors(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no handler ran


def test_run_from_a_missing_root_is_one_setup_error_line(tmp_path, capsys):
    shard = tmp_path / "shard-0"
    TrialCache(str(shard)).put("aa1", {"x": 1})
    records = (shard / "aa.jsonl").read_bytes()
    cache_dir = tmp_path / "cache"
    argv = ["run", *GRID, "--cache-dir", str(cache_dir)]
    argv += ["--from", str(shard), str(tmp_path / "nope")]
    assert main(argv + ["--trace", str(tmp_path / "trace.jsonl")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(
        "error: command=run experiment=sinkless cause=ValueError message="
    )
    assert "does not exist" in line
    assert captured.out == ""
    # Nothing was created: no cache root, no trace, and the root that
    # does exist was left as it was.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-0"]
    assert sorted(p.name for p in shard.iterdir()) == ["aa.jsonl"]
    assert (shard / "aa.jsonl").read_bytes() == records


@pytest.mark.parametrize("case", sorted(BAD_SETUPS))
def test_a_bad_grid_or_root_is_one_setup_error_line(
    case, tmp_path, monkeypatch, capsys
):
    argv, cause = BAD_SETUPS[case]
    monkeypatch.chdir(tmp_path)
    TrialCache("root").put("aa1", {"x": 1})
    records = (tmp_path / "root" / "aa.jsonl").read_bytes()
    (tmp_path / "file").write_text("", encoding="utf-8")
    command = argv[0]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: command={command} experiment=")
    assert f" cause={cause} message=" in line
    assert captured.out == ""
    if command == "run-shard":  # the subcommand a launcher parses
        assert main(argv + ["--json-errors"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["cause"], error["exit_code"]) == (cause, 2)
    # Nothing was created, merged or written.
    paths = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert paths == ["file", "root", "root/aa.jsonl"]
    assert (tmp_path / "root" / "aa.jsonl").read_bytes() == records
    assert (tmp_path / "file").read_text(encoding="utf-8") == ""


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


def test_run_shard_json_dash_is_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "run-shard", *GRID, "--shard", "0/2",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--json", "-",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("\n{") + 1 :])
    assert payload["experiment"] == "sinkless"
    assert payload["shard_index"] == 0
    assert payload["reports"]
    assert not (tmp_path / "-").exists()


def test_run_shard_setup_error_is_one_structured_line(tmp_path, capsys):
    # A cache root that is a file cannot be opened.
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("", encoding="utf-8")
    argv = ["run-shard", *GRID, "--shard", "0/1", "--cache-dir", str(not_a_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(
        "error: command=run-shard experiment=sinkless shard=0 cause=FileExistsError"
    )
    assert "\n" not in err


def test_run_shard_json_errors_emits_parseable_json(tmp_path, capsys):
    argv = ["run-shard", *GRID, "--shard", "7/2", "--json-errors"]
    assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error["command"] == "run-shard"
    assert error["experiment"] == "sinkless"
    assert error["cause"] == "ValueError"
    assert error["exit_code"] == 2
    assert not (tmp_path / "cache").exists()


def test_run_shard_runtime_failure_exits_3_with_shard_attribution(
    tmp_path, monkeypatch, capsys
):
    def reject(spec, **kwargs):
        assert kwargs["shard"] == (1, 2)
        raise AssertionError(f"rejected output (spec={spec.name})")

    monkeypatch.setattr(cli, "run_experiment", reject)
    argv = ["run-shard", *GRID, "--shard", "1/2"]
    code = main(argv + ["--cache-dir", str(tmp_path / "cache"), "--json-errors"])
    assert code == 3
    captured = capsys.readouterr()
    error = json.loads(captured.err.strip())["error"]
    assert error["shard"] == 1
    assert error["cause"] == "AssertionError"
    assert error["exit_code"] == 3
    assert error["message"].startswith("rejected output (spec=sinkless/")
    assert captured.out == ""


@pytest.mark.parametrize("case", sorted(BAD_REPORT_FILES))
def test_a_bad_report_file_is_one_setup_error_line(case, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(BAD_REPORT_FILES[case]), encoding="utf-8")
    assert main(["stats", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: command=stats cause=ValueError message=")
    assert REPORT_FILE_CAUSES.get(case, "") in line
    assert captured.out == ""


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


def test_stats_names_each_shard_report_by_its_spec(tmp_path, capsys):
    report_path = str(tmp_path / "shard.json")
    argv = ["run-shard", *GRID, "--shard", "1/2", "--workers", "1"]
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
