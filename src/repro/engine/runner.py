"""Plan -> shard -> chunk execution, from one spec to many hosts.

The pipeline has two stages, each its own function, and
``run_experiment`` is their single-shard composition plus the sweep
aggregation:

1. :func:`plan_experiment` expands the spec into its trial grid
   (n-major, seed-minor order), chunks the FULL grid into per-``(spec,
   n)`` dispatch chunks, and deals the chunks onto K shards — a pure
   function of ``(spec, num_shards, batch_size)``, so every host given
   the same experiment grid and shard count derives the same shards;
2. :func:`run_shard` executes shard ``i`` of a
   :class:`~repro.engine.shard.ShardPlan`: look the shard's trial keys
   up in the cache, hand each chunk's missing trials to the worker
   pool as ONE task (one result pickle per chunk a helper runs, not
   per trial), store the fresh records.

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
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import kernels as kernel_layer
from repro.analysis.sweep import Sweep, aggregate_points
from repro.engine.cache import TrialCache
from repro.engine.pool import run_task_batches
from repro.engine.shard import ShardPlan
from repro.engine.spec import ExperimentSpec, TrialSpec
from repro.obs import get_telemetry, merge_snapshots
from repro.runtime.driver import InstanceCache, TrialBatch

_LOG = logging.getLogger("repro.engine")

__all__ = [
    "EngineReport",
    "ShardReport",
    "execute_trial_batch",
    "plan_experiment",
    "run_experiment",
    "run_shard",
]

# The default chunk never holds more trials than this: it bounds both
# the result pickle and how stale the streaming progress can get.  An
# explicit ``batch_size`` may exceed it (chunks still never span two
# grid sizes, so len(spec.seeds) remains the effective ceiling then).
MAX_BATCH_SIZE = 64


@dataclass
class EngineReport:
    """One experiment's aggregated results plus run accounting."""

    spec: ExperimentSpec
    sweep: Sweep
    records: list[dict[str, Any]]
    trials_total: int
    cache_hits: int
    computed: int
    #: Wall clock of the whole ``run_experiment`` call.
    elapsed: float
    workers: int
    #: Worker dispatch accounting: how many chunks the missing trials
    #: were grouped into, and the plan's per-chunk trial cap — the
    #: ``batch_size`` the caller pinned, else the spec's seed count
    #: capped at ``MAX_BATCH_SIZE`` (0 = nothing was dispatched).
    batches: int = 0
    batch_size: int = 0
    #: Merged telemetry snapshot (see :mod:`repro.obs`); None when the
    #: producing run had telemetry disabled.
    telemetry: dict[str, Any] | None = None

    def summary(self) -> str:
        dispatch = ""
        if self.batches:
            dispatch = f" in {self.batches} chunk(s) of <= {self.batch_size}"
        return (
            f"{self.spec.name}: {self.trials_total} trials "
            f"({self.cache_hits} cached, {self.computed} computed{dispatch}) "
            f"on {self.workers} worker(s) in {self.elapsed:.2f}s"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.spec.name,
            "solver": self.sweep.solver_name,
            "workers": self.workers,
            "trials_total": self.trials_total,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "elapsed_s": round(self.elapsed, 4),
            "telemetry": self.telemetry,
            "points": [
                {
                    "n": p.n,
                    "trials": p.trials,
                    "rounds_mean": p.rounds_mean,
                    "rounds_max": p.rounds_max,
                    "rounds_min": p.rounds_min,
                }
                for p in self.sweep.points
            ],
        }


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
    every increment lands in exactly one delta, which ``run_shard``
    adds into the report's sum once.
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


def plan_experiment(
    spec: ExperimentSpec,
    num_shards: int = 1,
    batch_size: int | None = None,
) -> ShardPlan:
    """Cut a spec's full trial grid into a deterministic shard plan.

    The plan is a pure function of ``(spec, num_shards, batch_size)``:
    chunking always covers the FULL grid — never the cache-missing
    subset, which would differ per host — so planning anywhere, at any
    cache state, yields identical shards.  ``batch_size=None`` takes
    one chunk per size (``len(spec.seeds)`` trials) up to
    ``MAX_BATCH_SIZE``, so a full seed group shares one chunk's topology
    reuse whenever it fits.

    Invalid ``num_shards``/``batch_size`` values are rejected by
    ``ShardPlan.__post_init__`` — one copy of each guard.
    """
    trials = spec.trials()
    if batch_size is None:
        batch_size = min(MAX_BATCH_SIZE, len(spec.seeds))
    chunks = _chunk_missing(trials, range(len(trials)), batch_size)
    return ShardPlan(
        spec=spec,
        num_shards=num_shards,
        batch_size=batch_size,
        chunks=tuple(tuple(chunk) for chunk in chunks),
    )


@dataclass
class ShardReport:
    """Shard ``shard_index`` of ``plan``: its records and run accounting.

    ``records`` pairs each *global* trial index (into the spec's grid)
    with its JSON-safe record, in shard execution order.  A shard holds
    only a slice of the grid; the whole grid's report comes from the
    cache, once the shards' roots are merged (:func:`run_experiment`).
    """

    plan: ShardPlan
    shard_index: int
    records: list[tuple[int, dict[str, Any]]]
    trials_total: int
    cache_hits: int
    computed: int
    elapsed: float
    workers: int
    batches: int
    batch_size: int
    #: This shard's merged telemetry snapshot (parent deltas + one
    #: piggybacked delta per dispatched chunk); None with telemetry
    #: disabled.
    telemetry: dict[str, Any] | None = field(default=None)

    def summary(self) -> str:
        dispatch = ""
        if self.batches:
            dispatch = f" in {self.batches} chunk(s) of <= {self.batch_size}"
        return (
            f"{self.plan.spec.name} "
            # 0-based, like --shard parsing and the status table.
            f"[shard {self.shard_index}/{self.plan.num_shards}]: "
            f"{self.trials_total} trials ({self.cache_hits} cached, "
            f"{self.computed} computed{dispatch}) on {self.workers} worker(s) "
            f"in {self.elapsed:.2f}s"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.plan.spec.name,
            "shard_index": self.shard_index,
            "num_shards": self.plan.num_shards,
            "records": [[i, record] for i, record in self.records],
            "trials_total": self.trials_total,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "elapsed_s": round(self.elapsed, 4),
            "workers": self.workers,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "telemetry": self.telemetry,
        }


def run_shard(
    plan: ShardPlan,
    shard_index: int,
    workers: int = 1,
    cache: TrialCache | None = None,
    on_record: Callable[[dict[str, Any]], None] | None = None,
) -> ShardReport:
    """Execute shard ``shard_index`` of ``plan``: its chunks, nothing else.

    Cache-held trials replay without dispatch; the missing remainder
    re-packs into dispatch chunks that still never mix sizes or exceed
    the plan's ``batch_size`` — scattered misses after a partial merge
    travel a few full chunks, not many one-trial pickles.  ``on_record``
    streams the shard's records: cache hits first (in shard grid
    order), then computed records, still in grid order.  Give each
    shard its own cache root (``TrialCache(root, isolation=...)``) when
    several run concurrently on one filesystem, and merge the roots
    afterward: the cache is how a shard's records come home.

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

    The report's ``telemetry`` block is assembled from delta snapshots:
    one per dispatched chunk (piggybacked on the chunk result by the
    worker that ran it) plus this process's own deltas around the
    lookup and store phases.  Deltas drain everything accrued since the
    previous snapshot, so telemetry recorded between two ``run_shard``
    calls in one process is attributed to the later shard's report —
    every increment lands in exactly one report, at any worker count.

    Payloads carry trial specs only: whichever process runs a chunk
    builds a missing frozen core on the chunk's first trial and shares
    it across seeds through its process-wide
    :class:`~repro.runtime.driver.InstanceCache`, which also keeps
    every seeded instance it builds for the process's later trials on
    it.
    """
    telemetry = get_telemetry()
    snapshots: list[dict[str, Any]] = []
    start = time.perf_counter()
    spec = plan.spec
    trials = spec.trials()
    indices = plan.trial_indices(shard_index)
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

    # Re-pack the shard's missing trials with the same chunker the plan
    # used: on a cold run this reproduces the plan chunks exactly (they
    # are already maximal per size), and on a partially warm cache it
    # packs the remnants the way the pre-shard runner packed its
    # missing subset, instead of shipping many underfull chunks.
    missing_in_order = [i for i in indices if i in missing]
    chunks = _chunk_missing(trials, missing_in_order, plan.batch_size)
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
            pool_seed=zlib.crc32(spec.name.encode()),
            on_result=deliver,
        )
    # The store-phase delta (plus pool dispatch accounting).
    snapshots.append(telemetry.snapshot(reset=True))

    report = ShardReport(
        plan=plan,
        shard_index=shard_index,
        records=[(i, got[i]) for i in indices],
        trials_total=len(indices),
        cache_hits=len(indices) - len(missing),
        computed=len(missing),
        elapsed=time.perf_counter() - start,
        workers=workers,
        batches=len(chunks),
        batch_size=plan.batch_size,
        telemetry=merge_snapshots(snapshots) if telemetry.enabled else None,
    )
    _LOG.info("%s", report.summary())
    return report


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    cache: TrialCache | None = None,
    batch_size: int | None = None,
    on_record: Callable[[dict[str, Any]], None] | None = None,
) -> EngineReport:
    """Run (or replay) one experiment spec and aggregate its sweep.

    This is the single-shard special case of the general pipeline —
    literally ``plan_experiment(num_shards=1)`` + :func:`run_shard`,
    whose one shard owns the whole grid in grid order, then
    :func:`~repro.analysis.sweep.aggregate_points`; there is no second
    code path.  Replaying a sharded run is the same call against the
    merged cache: pure hits when the shards covered the grid, exactly
    the remainder computed otherwise.  ``batch_size`` caps how many
    trials travel in one worker dispatch chunk (None = the spec's seed
    count, up to ``MAX_BATCH_SIZE``); chunks never span two grid sizes.
    ``on_record`` streams results: it fires once per record —
    immediately (in grid order) for cache hits, then for computed
    chunks, in grid order at any worker count (see :func:`run_shard`).
    """
    start = time.perf_counter()
    plan = plan_experiment(spec, num_shards=1, batch_size=batch_size)
    shard = run_shard(plan, 0, workers=workers, cache=cache, on_record=on_record)
    records = [record for _, record in shard.records]
    return EngineReport(
        spec=spec,
        sweep=Sweep(
            solver_name=spec.solver_display_name(),
            points=aggregate_points(spec.ns, spec.seeds, records),
        ),
        records=records,
        trials_total=shard.trials_total,
        cache_hits=shard.cache_hits,
        computed=shard.computed,
        elapsed=time.perf_counter() - start,
        workers=workers,
        batches=shard.batches,
        batch_size=shard.batch_size if shard.batches else 0,
        telemetry=shard.telemetry,
    )
