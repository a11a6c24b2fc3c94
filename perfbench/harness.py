"""Workloads, seeds, record digests, and one measured pass.

A *pass* runs every spec of a workload once, in the calling process,
through the program's public entry points only:
``repro.engine.experiments.build_experiment`` to make the specs,
``repro.engine.runner.run_experiment`` with a fresh, empty
``TrialCache`` per experiment, and ``rows_from_engine_reports`` +
``render_landscape``
for the Figure 1 table.  ``run.py`` gives every pass its own process, so
the runner's per-process memos and the telemetry registry never carry
one pass's work into the next.

Nothing here imports ``repro`` at module level: the caller puts the
checkout's ``src`` on ``sys.path`` first (see :func:`use_source_tree`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import random
import resource
import statistics
import sys
import time
from typing import Any, Iterable, Mapping, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: pass caches, the digest ledger,
#: and the traced run's cell tables.
OUT = os.path.join(ROOT, ".perfbench_out")
PINNED = os.path.join(HERE, "pinned.json")

#: The workload seed the pinned digests were taken at.  Seed ``s``
#: shifts every trial seed by ``s * SEED_STRIDE``; seed 0 runs exactly
#: the seeds ``build_experiment`` produces.
DEFAULT_SEED = 0
SEED_STRIDE = 1000

#: The record fields the digest covers (the whole trial record).
RECORD_FIELDS = ("n", "actual_n", "seed", "rounds", "extras")
TRIAL_SPANS = ("trial.build", "trial.solve", "trial.verify")


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named list of experiments run in one closed loop by one client.

    ``experiments`` holds ``(name, max_n, seed_count)`` triples; None
    takes the experiment's default scale.  Workloads in one
    ``digest_group`` run the same grid and must produce identical
    records, whatever their worker count.
    """

    name: str
    experiments: tuple[tuple[str, int | None, int | None], ...]
    workers: int
    digest_group: str


# The four named experiments, all at default scale except the landscape
# at max_n=512 (its default, 1024, doubles a pass): at default scale one
# pass takes 45-70 s on the 2-core reference host, and the 48 runs the
# benchmark is measured with would not fit its time budget.
CANONICAL = (
    ("sinkless", None, None),
    ("padding", None, None),
    ("gadget", None, None),
    ("landscape", 512, None),
)

WORKLOADS: dict[str, Workload] = {
    "canonical-w1": Workload("canonical-w1", CANONICAL, 1, "canonical"),
    "canonical-w2": Workload("canonical-w2", CANONICAL, 2, "canonical"),
    # The canonical grid at its smallest scale, for checking the
    # benchmark itself in seconds.
    "smoke": Workload(
        "smoke",
        (("sinkless", 64, 1), ("padding", 128, 1), ("gadget", 64, 1), ("landscape", 64, 1)),
        2,
        "smoke",
    ),
    # Paper-scale sinkless grid (few large trials, ~35 s a pass).
    # Runnable by name, but not in BENCHMARK.json: a third workload does
    # not fit the time budget, and its wall time also swings by seed with
    # the number of configuration-model resamples (30-36 s over 3 seeds).
    "sinkless-wide": Workload(
        "sinkless-wide", (("sinkless", 16384, 2),), 1, "sinkless-wide"
    ),
}


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, never an install."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_program() -> None:
    """Import every module a pass calls, so set-up pays for the imports."""
    import repro.analysis.landscape  # noqa: F401
    import repro.engine.cache  # noqa: F401
    import repro.engine.experiments  # noqa: F401
    import repro.engine.runner  # noqa: F401


def build_specs(workload: Workload, seed: int) -> list:
    """The workload's specs, every trial seed shifted by the workload seed."""
    from repro.engine.experiments import build_experiment

    offset = seed * SEED_STRIDE
    specs = []
    for experiment, max_n, seed_count in workload.experiments:
        for spec in build_experiment(experiment, max_n, seed_count):
            specs.append(
                dataclasses.replace(
                    spec, seeds=tuple(s + offset for s in spec.seeds)
                )
            )
    return specs


# -- digests -------------------------------------------------------------


def _sha256_json(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def spec_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """sha256 over one spec's grid-ordered trial records."""
    return _sha256_json(
        [{name: record[name] for name in RECORD_FIELDS} for record in records]
    )


def workload_digest(spec_digests: Mapping[str, str]) -> str:
    """sha256 over a workload's per-spec digests, in spec order."""
    return _sha256_json(list(spec_digests.items()))


def mismatched_trials(
    spec_digests: Mapping[str, str],
    spec_trials: Mapping[str, int],
    reference: Mapping[str, str],
) -> tuple[int, list[str]]:
    """Trials of specs whose digest differs from ``reference``.

    Specs absent from ``spec_digests`` already failed (they raised) and
    are not counted twice; a spec the reference does not know is a
    mismatch.
    """
    failed = 0
    errors = []
    for name, digest in spec_digests.items():
        if reference.get(name) != digest:
            failed += spec_trials[name]
            errors.append(f"{name}: record digest differs from the reference")
    return failed, errors


# -- telemetry helpers ---------------------------------------------------


def span_total(view: Mapping[str, Any], name: str) -> float:
    """Total seconds of every span path ending in ``name``."""
    return sum(
        stat["total_s"]
        for path, stat in view.get("spans", {}).items()
        if path.rsplit("/", 1)[-1] == name
    )


def trial_compute_s(view: Mapping[str, Any]) -> float:
    """build + solve + verify seconds in an aggregated telemetry view."""
    return sum(span_total(view, name) for name in TRIAL_SPANS)


def _cell(spec_name: str) -> str:
    return spec_name.rsplit("/", 1)[-1]  # "<solver>@<family>"


# -- host speed calibration ------------------------------------------------
#
# The effective speed of a shared host drifts by a third over minutes
# (neighbours' load), and CPU time drifts with it.  A pass therefore
# times a fixed pure-Python graph walk before every spec and after the
# last (a serial pass also between chunks, every CAL_INTERVAL_S), on as
# many processes at once as the pass has workers (a second
# busy process can slow both), and its timing metrics are rescaled to
# the speed at which the walks take CAL_REF_S.  The walks are not
# counted in the wall or CPU time.  The workload is less sensitive to
# the drift than the cache-resident walk, and the walk itself reads a
# little differently from process to process, so the rescaling uses a
# power below 1: over four batches of ten seeds per workload on the
# reference host, the exponent 0.8 kept the worst ten-seed spread
# (interquartile range over median) of wall_s at 0.18, against up to
# 0.32 unscaled.

#: The typical walk time on the reference host by the number of walks
#: run at once (two busy processes slow each other down), so that both
#: worker counts rescale to the same speed and stay comparable.
CAL_REF_S = {1: 0.010, 2: 0.015}
CAL_EXPONENT = 0.8
CAL_INTERVAL_S = 0.25
_CAL_NODES = 3000


def calibration_graph() -> list[list[int]]:
    """A fixed random graph of average degree 6 (the walk's input)."""
    rng = random.Random(20200803)
    adj: list[list[int]] = [[] for _ in range(_CAL_NODES)]
    for v in range(_CAL_NODES):
        for u in rng.sample(range(_CAL_NODES), 3):
            adj[v].append(u)
            adj[u].append(v)
    return adj


def calibration_sample(adj: Sequence[Sequence[int]]) -> float:
    """Seconds for one breadth-first walk over ``adj`` from every 500th node."""
    start = time.perf_counter()
    for source in range(0, len(adj), 500):
        depth = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                d = depth[v] + 1
                for u in adj[v]:
                    if u not in depth:
                        depth[u] = d
                        nxt.append(u)
            frontier = nxt
    return time.perf_counter() - start


def _calibration_helper(conn, adj) -> None:
    while conn.recv():
        conn.send(calibration_sample(adj))


class Calibrator:
    """Walks on ``workers`` processes at once; one sample per call.

    ``wall_s`` is the time spent sampling and ``own_s`` the walks' CPU
    time in this process: both come off the pass's wall and CPU time.
    Helpers are reaped on exit, after the pass has read its rusage.
    """

    def __init__(self, workers: int):
        self.adj = calibration_graph()
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.own_s = 0.0
        self.last = time.perf_counter()
        self._helpers = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(workers - 1):
            here, there = ctx.Pipe()
            proc = ctx.Process(
                target=_calibration_helper, args=(there, self.adj), daemon=True
            )
            proc.start()
            there.close()
            self._helpers.append((here, proc))

    def __enter__(self) -> "Calibrator":
        return self

    def sample(self) -> None:
        start = time.perf_counter()
        for conn, _ in self._helpers:
            conn.send(True)
        own = calibration_sample(self.adj)
        times = [own] + [conn.recv() for conn, _ in self._helpers]
        self.own_s += own
        self.samples.append(statistics.mean(times))
        self.last = time.perf_counter()
        self.wall_s += self.last - start

    def on_record(self, _record: Any) -> None:
        """Sample between a serial pass's chunks, every CAL_INTERVAL_S.

        Records of a serial run arrive between chunks, while nothing
        else runs; a parallel run's arrive while its workers compute,
        so parallel passes sample between specs only.
        """
        if time.perf_counter() - self.last >= CAL_INTERVAL_S:
            self.sample()

    def __exit__(self, *exc) -> None:
        for conn, proc in self._helpers:
            conn.send(False)
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()


# -- one pass -------------------------------------------------------------


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # waited-for child, i.e. the biggest pool worker.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(specs: Sequence, workers: int, cache_dir: str) -> dict[str, Any]:
    """Run every spec once from empty caches; time it and collect records.

    A spec whose run raises counts all its trials as failed, and the
    pass moves on to the next spec.  A cache hit means the pass was not
    cold: the hit trials count as failed too.
    """
    from repro.analysis import render_landscape
    from repro.analysis.landscape import rows_from_engine_reports
    from repro.engine.cache import TrialCache
    from repro.engine.runner import run_experiment
    from repro.obs import aggregate, merge_snapshots

    # One empty cache per experiment: experiments share some trials
    # (landscape re-runs the sinkless cells), and every trial of the
    # grid is to be computed, not replayed.
    caches: dict[str, Any] = {}
    reports = []
    errors: list[str] = []
    failed = 0
    with Calibrator(workers) as calibrator:
        cpu_start = _cpu_s()
        start = time.perf_counter()
        for spec in specs:
            calibrator.sample()
            try:
                experiment = spec.name.split("/", 1)[0]
                if experiment not in caches:
                    caches[experiment] = TrialCache(os.path.join(cache_dir, experiment))
                report = run_experiment(
                    spec,
                    workers=workers,
                    cache=caches[experiment],
                    on_record=calibrator.on_record if workers == 1 else None,
                )
            except Exception as err:  # a failing spec is data, not an abort
                failed += len(spec.trials())
                errors.append(f"{spec.name}: {type(err).__name__}: {err}")
                continue
            reports.append(report)
        figure1_start = time.perf_counter()
        render_landscape(
            rows_from_engine_reports(
                [r for r in reports if r.spec.name.startswith("landscape/")]
            )
        )
        end = time.perf_counter()
        wall_s = end - start - calibrator.wall_s
        cpu_s = _cpu_s() - cpu_start - calibrator.own_s
        calibrator.sample()

    cache_hits = sum(report.cache_hits for report in reports)
    if cache_hits:
        failed += cache_hits
        errors.append(f"{cache_hits} trial(s) replayed from the cache")
    views = {report.spec.name: aggregate(report.telemetry) for report in reports}
    cells: dict[str, float] = {}
    for name, view in views.items():
        cells[_cell(name)] = cells.get(_cell(name), 0.0) + trial_compute_s(view)
    return {
        "wall_s": wall_s,
        "calibration_s": statistics.median(calibrator.samples),
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "compute_s": sum(cells.values()),
        "figure1_s": end - figure1_start,
        "attempted": sum(len(spec.trials()) for spec in specs),
        "failed": failed,
        "errors": errors,
        "workers": workers,
        "spec_digests": {
            report.spec.name: spec_digest(report.records) for report in reports
        },
        "spec_trials": {spec.name: len(spec.trials()) for spec in specs},
        "telemetry": aggregate(
            merge_snapshots(report.telemetry for report in reports)
        ),
        "cells": cells,
    }


# -- end-to-end metrics ---------------------------------------------------


def parallel_efficiency(compute_s: float, wall_s: float, workers: int) -> float:
    """Trial compute over the worker-seconds the wall time offered."""
    return compute_s / (wall_s * workers)


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted


def host_scale(pass_result: Mapping[str, Any]) -> float:
    """The factor rescaling a pass's times to the reference host speed."""
    reference = CAL_REF_S[pass_result["workers"]]
    return (reference / pass_result["calibration_s"]) ** CAL_EXPONENT


def end_to_end(
    passes: Sequence[Mapping[str, Any]], setup_samples: Sequence[float]
) -> dict[str, float]:
    """The end-to-end metrics: medians over passes and set-up samples.

    Times are rescaled to the reference host speed (see CAL_REF_S) by
    each pass's own calibration; set-up takes the median pass's scale.
    """
    scales = [host_scale(p) for p in passes]

    def median(key: str) -> float:
        return statistics.median(p[key] * k for p, k in zip(passes, scales))

    return {
        "wall_s": median("wall_s"),
        "setup_s": statistics.median(setup_samples) * statistics.median(scales),
        "cpu_s": median("cpu_s"),
        "parallel_efficiency": statistics.median(
            parallel_efficiency(p["compute_s"], p["wall_s"], p["workers"])
            for p in passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
