"""Tests of the benchmark's own code, at tiny scale (max_n=64).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import layers  # noqa: E402

harness.use_source_tree()

TINY = harness.Workload(
    "tiny", (("sinkless", 64, 1), ("gadget", 64, 1), ("landscape", 64, 1)), 1, "tiny"
)


def _run(tmp_path, workload=TINY, seed=0, specs=None):
    if specs is None:
        specs = harness.build_specs(workload, seed)
    return harness.run_pass(specs, workload.workers, str(tmp_path / "cache"))


def _record(rounds=3, **extras):
    return {"n": 64, "actual_n": 64, "seed": 0, "rounds": rounds, "extras": extras}


# -- digests ---------------------------------------------------------------


def test_spec_digest_covers_exactly_the_record_fields():
    base = harness.spec_digest([_record(), _record(rounds=4)])
    assert base == harness.spec_digest([_record(), _record(rounds=4)])
    assert base != harness.spec_digest([_record(), _record(rounds=5)])
    assert base != harness.spec_digest([_record(rounds=4), _record()])  # grid order
    assert base != harness.spec_digest([_record(size=1), _record(rounds=4)])
    noisy = [dict(_record(), elapsed=1.0), _record(rounds=4)]
    assert base == harness.spec_digest(noisy)


def test_mismatched_trials_counts_only_differing_specs():
    digests = {"a": "1", "b": "2", "c": "3"}
    trials = {"a": 4, "b": 5, "c": 6, "d": 7}
    failed, errors = harness.mismatched_trials(digests, trials, {"a": "1", "b": "x"})
    assert failed == 5 + 6  # b differs, c is unknown; d raised, not recounted
    assert len(errors) == 2


def test_seed_shifts_every_trial_seed():
    base = harness.build_specs(TINY, 0)
    shifted = harness.build_specs(TINY, 3)
    assert [s.name for s in base] == [s.name for s in shifted]
    for a, b in zip(base, shifted):
        assert b.seeds == tuple(s + 3 * harness.SEED_STRIDE for s in a.seeds)


def test_records_identical_across_workers(tmp_path):
    w1 = _run(tmp_path / "w1")
    w2 = _run(tmp_path / "w2", dataclasses.replace(TINY, workers=2))
    assert w1["failed"] == w2["failed"] == 0
    assert w1["spec_digests"] == w2["spec_digests"]
    other_seed = _run(tmp_path / "s1", seed=1)
    assert other_seed["spec_digests"] != w1["spec_digests"]


# -- end-to-end arithmetic ------------------------------------------------


def test_parallel_efficiency_and_medians():
    assert harness.parallel_efficiency(6.0, 4.0, 2) == pytest.approx(0.75)
    ref = harness.CAL_REF_S[2]
    passes = [
        {"wall_s": w, "cpu_s": 2 * w, "compute_s": c, "workers": 2,
         "peak_rss_mb": 50.0, "calibration_s": ref}
        for w, c in ((4.0, 6.0), (5.0, 5.0), (10.0, 2.0))
    ]
    metrics = harness.end_to_end(passes, [0.3, 0.1, 0.2, 0.9, 0.4])
    assert metrics["wall_s"] == 5.0
    assert metrics["cpu_s"] == 10.0
    assert metrics["setup_s"] == 0.3
    assert metrics["parallel_efficiency"] == pytest.approx(0.5)  # median of .75 .5 .1
    # A slower host (walks take twice as long, the workload 2**CAL_EXPONENT
    # times as long) reads the same.
    f = 2 ** harness.CAL_EXPONENT
    slow = [dict(p, wall_s=f * p["wall_s"], cpu_s=f * p["cpu_s"],
                 compute_s=f * p["compute_s"], calibration_s=2 * ref) for p in passes]
    slowed = harness.end_to_end(slow, [f * s for s in (0.3, 0.1, 0.2, 0.9, 0.4)])
    assert slowed == pytest.approx(metrics)


def test_failed_frac_counts_a_raising_spec(tmp_path):
    specs = harness.build_specs(TINY, 0)
    broken = dataclasses.replace(specs[0], name="sinkless/broken", generator="repro:missing")
    result = _run(tmp_path, specs=specs + [broken])
    assert result["attempted"] == sum(len(s.trials()) for s in specs) + len(broken.trials())
    assert result["failed"] == len(broken.trials())
    assert "sinkless/broken" not in result["spec_digests"]
    assert any("sinkless/broken" in error for error in result["errors"])
    frac = harness.failed_frac(result["failed"], result["attempted"])
    assert frac == len(broken.trials()) / result["attempted"]
    assert result["compute_s"] > 0


# -- probes ------------------------------------------------------------------


def test_probes_measure_and_restore_every_binding(tmp_path):
    from repro.engine import runner
    from repro.problems import linial
    from repro.runtime import driver

    originals = (runner.run_task_batches, linial.polynomial_family_params,
                 driver.dispatch_solver, driver.InstanceCache.__dict__["build"])
    untraced = _run(tmp_path / "plain")
    with layers.probed():
        assert runner.run_task_batches is not originals[0]
        assert layers.wrapped_bindings()
        traced = _run(tmp_path / "traced")
    assert layers.wrapped_bindings() == []
    assert (runner.run_task_batches, linial.polynomial_family_params,
            driver.dispatch_solver, driver.InstanceCache.__dict__["build"]) == originals
    assert traced["spec_digests"] == untraced["spec_digests"]
    metrics = layers.per_layer(traced)
    for name in ("problems.solve_s", "generators.build_s", "local.graph_build_s",
                 "problems.linial_params_s", "problems.solve_s.sinkless-det",
                 "gadgets.prover_s", "engine.cache.store_s"):
        assert metrics[name][0] > 0, name
    assert metrics["problems.solve_s"][0] <= metrics["trial.solve_s"][0]
    assert metrics["engine.pool.dispatches"][0] == 0  # workers=1 never forks
    assert layers.per_layer(untraced)["problems.solve_s"][0] == 0


def test_probes_restore_after_an_error():
    with pytest.raises(RuntimeError):
        with layers.probed():
            raise RuntimeError("boom")
    assert layers.wrapped_bindings() == []


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    traced_names = set(layers.per_layer(_run(tmp_path))) | {"obs.trace_overhead_frac"}
    assert {m["name"] for m in declared["per_layer"]} == traced_names
    one = {"wall_s": 1, "cpu_s": 1, "compute_s": 1, "workers": 1,
           "peak_rss_mb": 1, "calibration_s": 1}
    e2e = {m["name"] for m in declared["end_to_end"]}
    assert e2e == set(harness.end_to_end([one], [1]))
    assert {w["name"] for w in declared["workloads"]} <= set(harness.WORKLOADS)


def _bench_tree(tmp_path, with_program):
    """A checkout holding this benchmark and, optionally, the program."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "layers.py", "one_pass.py"):
        (bench / name).write_text(open(os.path.join(harness.HERE, name)).read())
    if with_program:
        (tmp_path / "src").symlink_to(harness.SRC)
    return bench / "run.py"


def _cli(run_py, *args):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", "smoke", *args],
        capture_output=True, text=True, timeout=120, cwd=run_py.parent.parent,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_cli_gates_digests_across_runs(tmp_path):
    run_py = _bench_tree(tmp_path, with_program=True)
    code, plain = _cli(run_py, "--seed", "5", "--seconds", "0")
    assert code == 0 and plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {"wall_s", "setup_s", "cpu_s",
                                     "parallel_efficiency", "peak_rss_mb"}
    code, traced = _cli(run_py, "--seed", "5", "--trace", "1")
    assert code == 0 and traced["correct"]
    assert traced["metrics"]["engine.pool.dispatches"]["value"] > 0
    assert "obs.trace_overhead_frac" in traced["metrics"]
    assert (tmp_path / ".perfbench_out" / "cells-smoke-seed5.json").exists()

    ledger_path = tmp_path / ".perfbench_out" / "ledger.json"
    ledger = json.loads(ledger_path.read_text())
    specs = ledger["digests"]["smoke"]["5"]
    first = next(iter(specs))
    specs[first] = "0" * 64
    ledger_path.write_text(json.dumps(ledger))
    code, tampered = _cli(run_py, "--seed", "5", "--seconds", "0")
    assert code == 1 and not tampered["correct"]
    assert 0 < tampered["failed"] < tampered["attempted"]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    run_py = _bench_tree(tmp_path, with_program=False)
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", "canonical-w1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
