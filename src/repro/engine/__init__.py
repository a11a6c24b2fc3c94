"""Parallel, cached experiment orchestration.

The engine turns the repo's ad-hoc measurement loops into declarative
experiment runs: an :class:`ExperimentSpec` names a registered problem,
solver, and family plus the (n, seed) grid; the runner expands it into
content-hashed trials, replays whatever the on-disk cache already
holds, dispatches the delta to a process pool, and folds the records
into the same ``Sweep``/``SweepPoint`` shapes the analysis layer has
always used.  The same pipeline scales out: a
:class:`ShardPlan` deals a spec's dispatch chunks onto K serializable
:class:`ShardManifest` shards that run anywhere
(:func:`run_shard`) and merge back bit-identically
(:func:`merge_shard_reports` + cache union).  ``python -m
repro.engine`` exposes the named experiments of
:mod:`repro.engine.experiments` and the
``plan``/``run-shard``/``merge`` flow from the shell.

On top of the shard layer sits the fault-tolerant fabric
(:func:`run_fabric`): a launcher that drives every shard as a
supervised subprocess with persisted leases, heartbeat liveness,
retry with exponential backoff, and graceful degradation to a gap
manifest — plus the seeded fault-injection harness
(:mod:`repro.engine.faults`) that makes each failure mode a
deterministic test case.
"""

from repro.engine.cache import DEFAULT_CACHE_DIR, CacheStats, TrialCache
from repro.engine.experiments import EXPERIMENTS, build_experiment
from repro.engine.fabric import (
    BackoffPolicy,
    FabricResult,
    Lease,
    LeaseBoard,
    run_fabric,
)
from repro.engine.faults import FaultInjector, FaultSpec, parse_fault_specs
from repro.engine.pool import WorkerCrashed, default_workers, run_task_batches
from repro.engine.runner import (
    EngineReport,
    ShardReport,
    auto_batch_size,
    execute_trial_batch,
    merge_shard_reports,
    plan_experiment,
    run_experiment,
    run_shard,
)
from repro.engine.shard import ShardManifest, ShardPlan
from repro.engine.spec import (
    CACHE_VERSION,
    ExperimentSpec,
    TrialSpec,
    grid,
    seed_grid,
)

__all__ = [
    "BackoffPolicy",
    "CACHE_VERSION",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "EXPERIMENTS",
    "EngineReport",
    "ExperimentSpec",
    "FabricResult",
    "FaultInjector",
    "FaultSpec",
    "Lease",
    "LeaseBoard",
    "ShardManifest",
    "ShardPlan",
    "ShardReport",
    "TrialCache",
    "TrialSpec",
    "WorkerCrashed",
    "auto_batch_size",
    "build_experiment",
    "default_workers",
    "execute_trial_batch",
    "grid",
    "merge_shard_reports",
    "parse_fault_specs",
    "plan_experiment",
    "run_experiment",
    "run_fabric",
    "run_shard",
    "run_task_batches",
    "seed_grid",
]
