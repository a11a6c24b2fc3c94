"""One executor, from one spec to many hosts.

:func:`run_experiment` runs the trials of one spec that
:func:`shard_trials` deals to its ``shard=(index, count)``; the default
``(0, 1)`` is the whole grid.  A call takes four steps:

1. :func:`shard_trials` chunks the FULL trial grid (n-major,
   seed-minor order) into per-``(spec, n)`` dispatch chunks and deals
   the chunks round-robin onto ``count`` shards — a pure function of
   ``(spec, index, count, batch_size)``, so every host given the same
   experiment grid and shard count derives the same slice;
2. the slice's trial keys are looked up in the cache;
3. each chunk's missing trials go to the worker pool as ONE task (one
   result pickle per chunk a helper runs, not per trial), and each
   chunk's fresh records are stored as it arrives;
4. a whole-grid run folds its records into the sweep
   (:func:`~repro.analysis.sweep.aggregate_points`); a slice holds only
   part of the grid, so its report has none.

Shard results come home one way, through the trial cache: union the
shards' cache roots (:meth:`~repro.engine.cache.TrialCache.merge`) and
replay the grid with :func:`run_experiment`, which is pure cache hits
when the shards covered the grid and yields an :class:`EngineReport`
bit-identical to a single-host run, in whatever order the shards ran
and on whatever mix of processes.

The chunk — not the trial — stays the unit of scheduling.  In every
process that runs chunks, :func:`execute_trial_batch` runs a chunk
through the runtime's one trial executor,
:class:`~repro.runtime.driver.TrialBatch`, memoized per process over
one process-wide :class:`~repro.runtime.driver.InstanceCache`, across
the chunks of every spec the process runs: families with
seed-independent topology rebuild only identifiers/inputs/rng on a
shared frozen graph, which on the vector backend keeps one vector
verifier per problem; a seeded instance (the random cubic hard
inputs) is built once per (family, n, seed) and handed, with a fresh
``NodeRng``, to every spec and solver that runs on it.  At any worker
count this process runs chunks itself, so its cache carries over from
spec to spec, and the pool helpers a dispatch forks start with
everything it holds; what a helper builds dies with it at the end of
its spec.  Records stay bit-identical at every worker count, batch
size, and shard count, and on either kernel backend, so aggregation —
a pure function of the ordered record list — cannot tell the
difference.  Which backend runs is the platform's choice
(:data:`repro.kernels.DEFAULT_BACKEND`), not the run's: nothing here
takes or reports one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import kernels as kernel_layer
from repro.analysis.sweep import Sweep, aggregate_points
from repro.engine.cache import TrialCache
from repro.engine.pool import run_task_batches
from repro.engine.spec import ExperimentSpec, TrialSpec
from repro.obs import get_telemetry, merge_snapshots
from repro.runtime.driver import InstanceCache, TrialBatch

_LOG = logging.getLogger("repro.engine")

__all__ = [
    "EngineReport",
    "execute_trial_batch",
    "run_experiment",
    "shard_trials",
]

# The default chunk never holds more trials than this: it bounds both
# the result pickle and how stale the streaming progress can get.  An
# explicit ``batch_size`` may exceed it (chunks still never span two
# grid sizes, so len(spec.seeds) remains the effective ceiling then).
MAX_BATCH_SIZE = 64


@dataclass
class EngineReport:
    """One run's records plus run accounting: a whole grid's, with its
    aggregated sweep, or one shard's slice of the grid."""

    spec: ExperimentSpec
    #: The grid's aggregated sweep; None for a slice, which holds only
    #: part of the grid.
    sweep: Sweep | None
    #: The run's records in grid order: the whole grid's, or the
    #: slice's, in the order of :func:`shard_trials`.
    records: list[dict[str, Any]]
    trials_total: int
    cache_hits: int
    computed: int
    #: Wall clock of the whole ``run_experiment`` call.
    elapsed: float
    workers: int
    #: Worker dispatch accounting: how many chunks the missing trials
    #: were grouped into (0 = nothing was dispatched), and the per-chunk
    #: trial cap — the ``batch_size`` the caller pinned, else the spec's
    #: seed count capped at ``MAX_BATCH_SIZE``.
    batches: int
    batch_size: int
    #: Merged telemetry snapshot (see :mod:`repro.obs`) of this call
    #: alone; None when the producing run had telemetry disabled.
    telemetry: dict[str, Any] | None
    #: ``(index, count)``: the run was shard ``index`` of ``count``;
    #: ``(0, 1)`` is the whole grid.
    shard: tuple[int, int]

    def summary(self) -> str:
        dispatch = ""
        if self.batches:
            dispatch = f" in {self.batches} chunk(s) of <= {self.batch_size}"
        index, count = self.shard
        # 0-based, like --shard parsing and the status table.
        where = "" if self.sweep is not None else f" [shard {index}/{count}]"
        return (
            f"{self.spec.name}{where}: {self.trials_total} trials "
            f"({self.cache_hits} cached, {self.computed} computed{dispatch}) "
            f"on {self.workers} worker(s) in {self.elapsed:.2f}s"
        )

    def as_dict(self) -> dict[str, Any]:
        """The JSON form: a whole grid's carries its solver and sweep
        points, a slice's its records paired with their grid indices."""
        index, count = self.shard
        payload: dict[str, Any] = {
            "experiment": self.spec.name,
            "shard_index": index,
            "num_shards": count,
            "workers": self.workers,
            "trials_total": self.trials_total,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "elapsed_s": round(self.elapsed, 4),
            "telemetry": self.telemetry,
        }
        if self.sweep is None:
            chunks = shard_trials(self.spec, index, count, self.batch_size)
            indices = (i for chunk in chunks for i in chunk)
            payload["records"] = [
                [i, record] for i, record in zip(indices, self.records)
            ]
            return payload
        payload["solver"] = self.sweep.solver_name
        payload["points"] = [
            {
                "n": p.n,
                "trials": p.trials,
                "rounds_mean": p.rounds_mean,
                "rounds_max": p.rounds_max,
                "rounds_min": p.rounds_min,
            }
            for p in self.sweep.points
        ]
        return payload


def _json_safe_extras(extras: dict) -> dict[str, Any]:
    return {
        key: value
        for key, value in extras.items()
        if isinstance(key, str) and isinstance(value, (bool, int, float, str))
    }


# -- per-process execution state ------------------------------------------
#
# Module globals live once per process, so chunks run by the same
# process share one instance cache — cores, their kept vector verifiers
# and seeded instances — and one TrialBatch per (problem, solver,
# family).  A forked pool helper starts with a copy of the
# dispatching process's.

_INSTANCES: InstanceCache | None = None
_BATCHES: dict[tuple[str, str, str], TrialBatch] = {}


def _instances() -> InstanceCache:
    global _INSTANCES
    if _INSTANCES is None:
        _INSTANCES = InstanceCache()
    return _INSTANCES


def _batch(trial: TrialSpec) -> TrialBatch:
    key = (trial.problem, trial.solver, trial.generator)
    batch = _BATCHES.get(key)
    if batch is None:
        # Specs may name any triple (corruption probes included); the
        # verifier, not the soundness declarations, judges the outputs.
        batch = TrialBatch(
            trial.problem,
            trial.solver,
            trial.generator,
            check_sound=False,
            instances=_instances(),
        )
        _BATCHES[key] = batch
    return batch


def execute_trial_batch(trials: Sequence[TrialSpec]) -> list[dict[str, Any]]:
    """Run a chunk of same-spec trials and return their JSON-safe records.

    All trials must name the same (problem, solver, generator) triple
    (they come from one spec).  A rejected output raises
    ``AssertionError`` with the verifier's message plus the trial's n
    and seed.
    """
    if not trials:
        return []
    head = trials[0]
    triple = (head.problem, head.solver, head.generator)
    if any((t.problem, t.solver, t.generator) != triple for t in trials):
        raise ValueError(
            "a trial batch must share one (problem, solver, generator) triple"
        )
    batch = _batch(head)
    records = []
    for trial in trials:
        record = batch.run_one(trial.n, trial.seed)
        if not record.verified:
            raise AssertionError(
                f"{record.rejection} (n={trial.n}, seed={trial.seed})"
            )
        records.append(
            {
                "n": trial.n,
                "actual_n": record.actual_n,
                "seed": trial.seed,
                "rounds": record.rounds,
                "extras": _json_safe_extras(record.extras),
            }
        )
    return records


def _execute_batch_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Module-level pool target: chunk payload in, records + telemetry out.

    The telemetry delta of the process that ran the chunk piggybacks on
    the result — one ``{"counters", "spans"}`` map per chunk, no new
    IPC round trips.  The delta snapshot (``reset=True``) drains
    everything this process accrued since its previous snapshot, so the
    chunks the dispatching process runs itself (all of them on the
    serial path) partition its totals across the chunk boundaries, and
    every increment lands in exactly one delta, which
    :func:`run_experiment` adds into the report's sum once.
    """
    records = execute_trial_batch(
        [TrialSpec.from_payload(entry) for entry in payload["trials"]]
    )
    return {
        "records": records,
        "telemetry": get_telemetry().snapshot(reset=True),
    }


def _chunk_missing(
    trials: Sequence[TrialSpec], missing: Sequence[int], batch_size: int
) -> list[list[int]]:
    """Group missing trial indices into per-n chunks of <= batch_size.

    ``missing`` is in grid (n-major, seed-minor) order; a chunk never
    spans two sizes, so every chunk is a run of seeds over one frozen
    topology.
    """
    chunks: list[list[int]] = []
    current: list[int] = []
    current_n: int | None = None
    for i in missing:
        n = trials[i].n
        if current and (n != current_n or len(current) >= batch_size):
            chunks.append(current)
            current = []
        current_n = n
        current.append(i)
    if current:
        chunks.append(current)
    return chunks


def _chunk_cap(spec: ExperimentSpec, batch_size: int | None) -> int:
    """The per-chunk trial cap: ``batch_size``, else the spec's seed
    count up to ``MAX_BATCH_SIZE``, so a full seed group shares one
    chunk's topology reuse whenever it fits."""
    if batch_size is None:
        return min(MAX_BATCH_SIZE, len(spec.seeds))
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    return batch_size


def shard_trials(
    spec: ExperimentSpec, index: int, count: int, batch_size: int | None = None
) -> list[list[int]]:
    """The dispatch chunks shard ``index`` of ``count`` runs, as global
    trial indices into ``spec.trials()``.

    A pure function of its arguments: the chunking always covers the
    FULL grid — never the cache-missing subset, which would differ per
    host — so every host, at any cache state, derives the same shards.
    A chunk never spans two sizes and never exceeds the cap (see
    ``batch_size`` in :func:`run_experiment`), and chunk ``c`` of the
    grid goes to shard ``c % count``: round-robin, so the per-size
    chunk runs (which grow with ``n``) spread evenly instead of piling
    the largest sizes onto the last shard.  ``(0, 1)`` owns the whole
    grid in grid order.
    """
    if count < 1:
        raise ValueError(f"a run needs >= 1 shard, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index {index} out of range for {count} shard(s) "
            "(indices are 0-based)"
        )
    trials = spec.trials()
    chunks = _chunk_missing(trials, range(len(trials)), _chunk_cap(spec, batch_size))
    return chunks[index::count]


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    cache: TrialCache | None = None,
    batch_size: int | None = None,
    on_record: Callable[[dict[str, Any]], None] | None = None,
    shard: tuple[int, int] = (0, 1),
) -> EngineReport:
    """Run (or replay) shard ``shard = (index, count)`` of one spec.

    The run owns the trials :func:`shard_trials` deals to that shard;
    the default ``(0, 1)`` is the whole grid, whose report carries the
    aggregated sweep.  Replaying a sharded run is a whole-grid call
    against the merged cache: pure hits when the shards covered the
    grid, exactly the remainder computed otherwise.  ``batch_size``
    caps how many trials travel in one worker dispatch chunk (None =
    the spec's seed count, up to ``MAX_BATCH_SIZE``); chunks never span
    two grid sizes.  Give each shard its own cache root
    (``TrialCache(root, isolation=...)``) when several run concurrently
    on one filesystem, and merge the roots afterward: the cache is how
    a shard's records come home.

    Cache-held trials replay without dispatch; the missing remainder
    re-packs into dispatch chunks that still never mix sizes or exceed
    the cap — scattered misses after a partial merge travel a few full
    chunks, not many one-trial pickles.  ``on_record`` streams the
    run's records: cache hits first (in grid order), then computed
    records, still in grid order at any worker count.

    With ``workers > 1`` and more than one missing chunk, the pool gets
    the chunks largest-first (by n times trials, ties in grid order),
    so the biggest chunk does not start last while the other workers
    idle; its ``workers - 1`` helpers take chunks from the large end
    and this process runs the small end itself (see
    :mod:`repro.engine.pool`).  Each chunk is stored in the cache as
    soon as it arrives, and a chunk that arrives ahead of an earlier
    one streams through ``on_record`` once that one is in.  This
    process loads the vector backend (:func:`repro.kernels.preload`)
    before the dispatch: the helpers fork before its first trial, so
    they inherit the loaded backend instead of each importing it again
    inside its first solve or verify.  The serial path runs and streams
    the chunks in grid order.

    The report's ``telemetry`` is this call's alone.  The call first
    drains what the process accrued before it, then sums delta
    snapshots: one per dispatched chunk (piggybacked on the chunk
    result by the worker that ran it) plus this process's own deltas
    after the lookup phase and at the very end, after the sweep.

    Payloads carry trial specs only: whichever process runs a chunk
    builds a missing frozen core on the chunk's first trial and shares
    it across seeds through its process-wide
    :class:`~repro.runtime.driver.InstanceCache`, which also keeps
    every seeded instance it builds for the process's later trials on
    it.
    """
    start = time.perf_counter()
    telemetry = get_telemetry()
    # What the process accrued before this call is not this report's.
    telemetry.snapshot(reset=True)
    snapshots: list[dict[str, Any]] = []
    index, count = shard
    batch_size = _chunk_cap(spec, batch_size)
    trials = spec.trials()
    indices = [
        i for chunk in shard_trials(spec, index, count, batch_size) for i in chunk
    ]
    got: dict[int, dict[str, Any]] = {}
    missing: set[int] = set()
    with telemetry.span("shard.lookup"):
        if cache is not None:
            for i in indices:
                record = cache.get(trials[i].key())
                if record is None:
                    missing.add(i)
                else:
                    got[i] = record
        else:
            missing = set(indices)
    if on_record is not None:
        for i in indices:
            if i in got:
                on_record(got[i])
    # Drain the lookup-phase delta now: in serial fallback the chunks
    # below execute in this same process, and their piggybacked deltas
    # must not scoop the parent-side counters accrued so far.
    snapshots.append(telemetry.snapshot(reset=True))

    # Re-pack the missing trials with the same chunker shard_trials
    # uses: on a cold run this reproduces its chunks exactly (they
    # are already maximal per size), and on a partially warm cache it
    # packs the remnants the way the pre-shard runner packed its
    # missing subset, instead of shipping many underfull chunks.
    missing_in_order = [i for i in indices if i in missing]
    chunks = _chunk_missing(trials, missing_in_order, batch_size)
    if chunks:
        # The grid position of each submitted chunk: largest-first for
        # a pool (longest-processing-time-first), since a chunk's cost
        # roughly doubles per size step.
        order = list(range(len(chunks)))
        if workers > 1 and len(chunks) > 1:
            order.sort(
                key=lambda pos: (-trials[chunks[pos][0]].n * len(chunks[pos]), pos)
            )
            kernel_layer.preload()
        payloads = [
            {"trials": [trials[i].to_payload() for i in chunks[pos]]}
            for pos in order
        ]
        streamed = 0

        def deliver(submitted: int, result: dict[str, Any]) -> None:
            nonlocal streamed
            chunk_pos = order[submitted]
            chunk = chunks[chunk_pos]
            chunk_records = result["records"]
            if result.get("telemetry"):
                snapshots.append(result["telemetry"])
            if len(chunk_records) != len(chunk):
                raise ValueError(
                    f"chunk {chunk_pos} returned {len(chunk_records)} records "
                    f"for {len(chunk)} trials"
                )
            for i, record in zip(chunk, chunk_records):
                got[i] = record
            # Store per chunk, as it arrives, not after the whole
            # dispatch: a shard killed mid-run (or a WorkerCrashed or
            # task exception escaping below) keeps every completed
            # chunk durable, so a retry recomputes only the chunks that
            # were actually lost.
            if cache is not None:
                with telemetry.span("shard.store"):
                    cache.put_many((trials[i].key(), got[i]) for i in chunk)
            # Stream in grid order: records of a chunk that arrives
            # ahead of an earlier one wait until that one is in.
            if on_record is not None:
                while (
                    streamed < len(missing_in_order)
                    and missing_in_order[streamed] in got
                ):
                    on_record(got[missing_in_order[streamed]])
                    streamed += 1

        run_task_batches(
            _execute_batch_payload,
            payloads,
            workers=workers,
            on_result=deliver,
        )

    records = [got[i] for i in indices]
    sweep = None
    if count == 1:
        sweep = Sweep(
            solver_name=spec.solver_display_name(),
            points=aggregate_points(spec.ns, spec.seeds, records),
        )
    # The store-phase delta (plus pool dispatch accounting), taken
    # after everything else the call does, the sweep included.
    snapshots.append(telemetry.snapshot(reset=True))
    report = EngineReport(
        spec=spec,
        sweep=sweep,
        records=records,
        trials_total=len(indices),
        cache_hits=len(indices) - len(missing),
        computed=len(missing),
        elapsed=time.perf_counter() - start,
        workers=workers,
        batches=len(chunks),
        batch_size=batch_size,
        telemetry=merge_snapshots(snapshots) if telemetry.enabled else None,
        shard=shard,
    )
    _LOG.info("%s", report.summary())
    return report
