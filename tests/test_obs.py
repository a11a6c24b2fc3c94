"""Telemetry: span timing, summed snapshots, piggyback, and inertness.

The obs layer's load-bearing claims, pinned:

* spans nest by path and their aggregates are timing-consistent
  (``min <= mean <= max``, children bounded by parents);
* a snapshot is one additive ``{"counters", "spans"}`` map, and merging
  sums snapshots: commutative and associative, tested property-style
  over shuffled orders;
* worker telemetry piggybacks on chunk results, so engine counters
  agree at every worker count;
* telemetry is inert: records are bit-identical with it enabled or
  disabled, at K in {1, 4} shards.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro import kernels
from repro.engine import runner
from repro.engine.cache import TrialCache
from repro.engine.cli import main as engine_main
from repro.engine.runner import run_experiment
from repro.engine.spec import ExperimentSpec
from repro.obs import (
    Telemetry,
    TraceSink,
    aggregate,
    format_telemetry,
    get_telemetry,
    merge_snapshots,
    set_enabled,
)
from repro.runtime import TrialBatch
from tests.conftest import assembled_records


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test sees a drained, enabled default registry."""
    telemetry = get_telemetry()
    telemetry.detach_sink()
    telemetry.reset()
    was_enabled = set_enabled(True)
    yield telemetry
    set_enabled(was_enabled)
    telemetry.detach_sink()
    telemetry.reset()


PARITY_SPEC = ExperimentSpec(
    "obs/degree-parity/parity@cycle",
    "degree-parity",
    "parity",
    "cycle",
    ns=(8, 12, 16),
    seeds=(0, 1),
)
#: The snapshot of a registry that accrued nothing.
EMPTY = {"counters": {}, "spans": {}}


class TestSpans:
    def test_span_aggregates_are_timing_consistent(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.span("work"):
                time.sleep(0.002)
        stats = telemetry.snapshot()["spans"]["work"]
        assert stats["count"] == 3
        mean = stats["total_s"] / stats["count"]
        assert 0 < stats["min_s"] <= mean <= stats["max_s"] <= stats["total_s"]
        # perf_counter is monotonic: three 2ms sleeps cannot total less
        # than one of them.
        assert stats["total_s"] >= 0.002

    def test_nested_spans_record_slash_paths(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                time.sleep(0.001)
            with telemetry.span("inner"):
                pass
        stats = telemetry.snapshot()["spans"]
        assert set(stats) == {"outer", "outer/inner"}
        assert stats["outer"]["count"] == 1
        assert stats["outer/inner"]["count"] == 2
        # A child runs inside its parent, so its time is bounded by it.
        assert stats["outer/inner"]["total_s"] <= stats["outer"]["total_s"]

    def test_nesting_is_per_thread(self):
        telemetry = Telemetry()
        seen = []

        def worker():
            with telemetry.span("threaded"):
                seen.append(True)

        with telemetry.span("outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The thread's span must not pick up the main thread's stack.
        spans = telemetry.snapshot()["spans"]
        assert "threaded" in spans
        assert "outer/threaded" not in spans

    def test_span_recorded_even_when_body_raises(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("failing"):
                raise RuntimeError("boom")
        assert telemetry.snapshot()["spans"]["failing"]["count"] == 1

    def test_disabled_telemetry_is_a_noop(self):
        telemetry = Telemetry(enabled=False)
        with telemetry.span("ignored"):
            pass
        telemetry.incr("ignored", 5)
        assert telemetry.snapshot() == EMPTY


def random_snapshot(rng: random.Random) -> dict:
    """One synthetic snapshot.  Span durations are multiples of 1/64 s,
    so every sum is exact and merges in any order compare equal."""
    counters: dict[str, int] = {}
    for _ in range(rng.randrange(1, 5)):
        name = rng.choice(["a", "b", "c"])
        counters[name] = counters.get(name, 0) + rng.randrange(1, 10)
    spans = {}
    for path in rng.sample(["x", "y", "x/z"], rng.randrange(0, 3)):
        durations = [rng.randrange(1, 64) / 64 for _ in range(rng.randrange(1, 4))]
        spans[path] = {
            "count": len(durations),
            "total_s": sum(durations),
            "min_s": min(durations),
            "max_s": max(durations),
        }
    return {"counters": counters, "spans": spans}


class TestMergeAlgebra:
    def test_delta_snapshots_partition_exactly_once(self):
        telemetry = Telemetry()
        telemetry.incr("hits", 3)
        first = telemetry.snapshot(reset=True)
        telemetry.incr("hits", 2)
        second = telemetry.snapshot(reset=True)
        merged = merge_snapshots([first, second])
        assert merged["counters"] == {"hits": 5}
        # And nothing is left behind after the final drain.
        assert telemetry.snapshot() == EMPTY

    def test_merge_sums_in_any_order(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(20):
            snapshots = [random_snapshot(rng) for _ in range(rng.randrange(2, 6))]
            reference = merge_snapshots(snapshots)
            shuffled = snapshots[:]
            rng.shuffle(shuffled)
            assert merge_snapshots(shuffled) == reference
            for name, value in reference["counters"].items():
                assert value == sum(s["counters"].get(name, 0) for s in snapshots)
            for path, stat in reference["spans"].items():
                parts = [s["spans"][path] for s in snapshots if path in s["spans"]]
                assert stat == {
                    "count": sum(p["count"] for p in parts),
                    "total_s": sum(p["total_s"] for p in parts),
                    "min_s": min(p["min_s"] for p in parts),
                    "max_s": max(p["max_s"] for p in parts),
                }
            # A sum counts what it is given: merging twice doubles.
            twice = merge_snapshots([reference, reference])
            assert twice["counters"] == {
                name: 2 * value for name, value in reference["counters"].items()
            }
            # One snapshot's aggregate is its one-snapshot merge.
            assert aggregate(reference) == reference

    def test_merge_is_associative(self):
        rng = random.Random(7)
        a, b, c = (random_snapshot(rng) for _ in range(3))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    def test_merge_tolerates_none_and_empty(self):
        empty = Telemetry().snapshot()
        assert empty == EMPTY
        assert merge_snapshots([None, empty, None]) == EMPTY
        assert aggregate(None) == EMPTY

    def test_snapshot_round_trips_through_json(self):
        telemetry = Telemetry()
        telemetry.incr("hits", 2)
        with telemetry.span("phase"):
            pass
        snap = telemetry.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestEngineTelemetry:
    def test_worker_snapshots_piggyback_at_every_worker_count(self):
        total = len(PARITY_SPEC.ns) * len(PARITY_SPEC.seeds)
        views = {}
        for workers in (1, 2):
            get_telemetry().reset()
            report = run_experiment(PARITY_SPEC, workers=workers)
            assert report.telemetry is not None
            views[workers] = aggregate(report.telemetry)
            counters = views[workers]["counters"]
            # Every computed trial was counted by whichever process ran
            # it, and the snapshots all made it back to the report.
            assert counters["trials.executed"] == total == report.computed
            assert counters["pool.batches_dispatched"] == report.batches
            spans = views[workers]["spans"]
            for phase in ("trial.build", "trial.solve", "trial.verify"):
                assert spans[phase]["count"] == total

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_telemetry_is_its_own_calls(self, workers, monkeypatch):
        # Trials run outside the engine before the call, and a counter
        # incremented by its last step, the sweep: the report holds
        # the latter and none of the former.
        batch = TrialBatch("degree-parity", "parity", "cycle")
        for seed in range(3):
            batch.run_one(8, seed)
        real_aggregate = runner.aggregate_points

        def counted(*args):
            get_telemetry().incr("test.sweeps")
            return real_aggregate(*args)

        monkeypatch.setattr(runner, "aggregate_points", counted)
        spec = ExperimentSpec(
            "obs/degree-parity/parity@cycle-own",
            "degree-parity",
            "parity",
            "cycle",
            ns=(8, 12),
            seeds=(0, 1),
        )
        report = run_experiment(spec, workers=workers)
        counters = aggregate(report.telemetry)["counters"]
        assert counters["trials.executed"] == report.computed == 4
        assert counters[f"kernels.{kernels.DEFAULT_BACKEND}_trials"] == 4
        assert counters["test.sweeps"] == 1
        assert get_telemetry().snapshot()["counters"] == {}

    def test_shard_report_telemetry_survives_the_payload_round_trip(self):
        report = run_experiment(PARITY_SPEC, batch_size=2, shard=(0, 2))
        assert report.telemetry is not None
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["telemetry"] == report.telemetry

    def test_merged_telemetry_is_order_independent(self):
        reports = [
            run_experiment(PARITY_SPEC, batch_size=2, shard=(i, 3))
            for i in range(3)
        ]
        merged = [
            merge_snapshots([reports[i].telemetry for i in order])
            for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0))
        ]
        # Counters and span counts are integers, so any order sums them
        # exactly; float totals agree to rounding.
        for other in merged[1:]:
            assert other["counters"] == merged[0]["counters"]
            assert other["spans"].keys() == merged[0]["spans"].keys()
            for path, stat in other["spans"].items():
                first = merged[0]["spans"][path]
                assert stat["count"] == first["count"]
                assert (stat["min_s"], stat["max_s"]) == (
                    first["min_s"], first["max_s"]
                )
                assert stat["total_s"] == pytest.approx(first["total_s"])
        assert merged[0]["counters"]["trials.executed"] == len(
            PARITY_SPEC.ns
        ) * len(PARITY_SPEC.seeds)

    def test_engine_report_elapsed_is_the_whole_call(
        self, tmp_path, monkeypatch
    ):
        # The call's first step, the deal, and its last, the sweep, each
        # pause; the report's clock covers both.
        pause = 0.05

        def paused(step):
            def run(*args, **kwargs):
                time.sleep(pause)
                return step(*args, **kwargs)

            return run

        monkeypatch.setattr(runner, "shard_trials", paused(runner.shard_trials))
        monkeypatch.setattr(
            runner, "aggregate_points", paused(runner.aggregate_points)
        )
        root = str(tmp_path / "cache")
        run_experiment(PARITY_SPEC, cache=TrialCache(root))
        start = time.perf_counter()
        report = run_experiment(PARITY_SPEC, cache=TrialCache(root))
        outer = time.perf_counter() - start
        assert report.computed == 0
        assert 2 * pause <= report.elapsed <= outer
        payload = report.as_dict()
        assert payload["elapsed_s"] == round(report.elapsed, 4)
        assert "cpu_elapsed_s" not in payload

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_records_bit_identical_with_telemetry_on_and_off(self, num_shards):
        def run_all():
            reports = [
                run_experiment(PARITY_SPEC, batch_size=2, shard=(i, num_shards))
                for i in range(num_shards)
            ]
            return reports, assembled_records(PARITY_SPEC, reports)

        with_telemetry, records_on = run_all()
        assert all(r.telemetry is not None for r in with_telemetry)
        set_enabled(False)
        without, records_off = run_all()
        set_enabled(True)
        assert all(r.telemetry is None for r in without)
        assert None not in records_on
        assert records_off == records_on

    def test_warm_replay_counts_hits_not_trials(self, tmp_path):
        cache = TrialCache(str(tmp_path / "cache"))
        run_experiment(PARITY_SPEC, cache=cache)
        get_telemetry().reset()
        report = run_experiment(
            PARITY_SPEC, cache=TrialCache(str(tmp_path / "cache"))
        )
        counters = aggregate(report.telemetry)["counters"]
        assert counters["cache.hits"] == report.trials_total
        assert "trials.executed" not in counters


class TestCacheCounters:
    def test_hit_miss_put_and_compaction_counters(self, tmp_path):
        telemetry = get_telemetry()
        cache = TrialCache(str(tmp_path / "cache"))
        assert cache.get("aa-missing") is None
        cache.put("aa-key", {"rounds": 1})
        cache.put("aa-key", {"rounds": 1})  # duplicate append line
        assert cache.get("aa-key") == {"rounds": 1}
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.puts"] == 2
        kept, dropped = cache.compact()
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.compactions"] == 1
        assert counters["cache.records_compacted"] == dropped == 1

    def test_merge_counters(self, tmp_path):
        telemetry = get_telemetry()
        source = TrialCache(str(tmp_path / "source"))
        source.put("ab-key", {"rounds": 2})
        destination = TrialCache(str(tmp_path / "destination"))
        destination.merge(str(tmp_path / "source"))
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.merges"] == 1
        assert counters["cache.merge_new_records"] == 1


class TestTraceAndRendering:
    def test_trace_sink_streams_span_lines(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry = Telemetry()
        with TraceSink(path) as sink:
            telemetry.attach_sink(sink)
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
            telemetry.detach_sink()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        # Spans emit on close: inner first, then outer.
        assert [(entry["kind"], entry["name"], entry["depth"]) for entry in lines] == [
            ("span", "outer/inner", 1),
            ("span", "outer", 0),
        ]
        assert all("t" in entry and "pid" in entry for entry in lines)
        assert lines[0]["dur_s"] <= lines[1]["dur_s"]

    def test_format_telemetry_renders_phases_and_counters(self):
        telemetry = Telemetry()
        telemetry.incr("cache.hits", 2)
        telemetry.incr("other.counter", 1)
        with telemetry.span("trial.build"):
            pass
        text = format_telemetry(telemetry.snapshot(), title="demo")
        assert "trial.build" in text and "cache.hits" in text
        filtered = format_telemetry(
            telemetry.snapshot(), title="demo", counter_prefix="cache."
        )
        assert "other.counter" not in filtered
        assert "no telemetry recorded" in format_telemetry(None)

    def test_cli_trace_stats_and_cache_status(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        trace_path = str(tmp_path / "trace.jsonl")
        cache_dir = str(tmp_path / "cache")
        code = engine_main(
            [
                "run",
                "--experiment",
                "sinkless",
                "--max-n",
                "64",
                "--workers",
                "1",
                "--cache-dir",
                cache_dir,
                "--json",
                report_path,
                "--trace",
                trace_path,
            ]
        )
        assert code == 0
        with open(trace_path, encoding="utf-8") as handle:
            kinds = {json.loads(line)["kind"] for line in handle if line.strip()}
        assert "span" in kinds
        capsys.readouterr()
        assert engine_main(["stats", "--report", report_path]) == 0
        out = capsys.readouterr().out
        assert "phases" in out and "trial.solve" in out
        # One wall-time line per report, named by its spec.
        with open(report_path, encoding="utf-8") as handle:
            names = [rep["experiment"] for rep in json.load(handle)["reports"]]
        walls = [line for line in out.splitlines() if line.endswith("s wall")]
        assert [line.split(": ")[0] for line in walls] == names
        assert engine_main(["cache", "--cache-dir", cache_dir, "--status"]) == 0
        out = capsys.readouterr().out
        assert "record(s) on disk" in out
        assert "cache.shard_files_loaded" in out
