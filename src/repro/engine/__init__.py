"""Parallel, cached experiment orchestration.

The engine turns the repo's ad-hoc measurement loops into declarative
experiment runs: an :class:`ExperimentSpec` names a registered problem,
solver, and family plus the (n, seed) grid; the runner expands it into
content-hashed trials, replays whatever the on-disk cache already
holds, dispatches the delta to a process pool, and folds the records
into the same ``Sweep``/``SweepPoint`` shapes the analysis layer has
always used.  The same pipeline scales out: a :class:`ShardPlan` deals
a spec's dispatch chunks onto K shards that run anywhere
(:func:`run_shard`), and their records come home through the cache —
union the shards' roots with :meth:`TrialCache.merge`, then replay the
grid with :func:`run_experiment`, bit-identically to a single-host
run.  A plan is a pure function of the spec, the shard count and the
chunk size, so no plan travels between hosts: ``python -m
repro.engine`` exposes the named experiments of
:mod:`repro.engine.experiments`, ``run-shard --shard I/K`` runs a shard
of one from its grid flags, and ``run --from ROOT...`` unions the
shard roots and replays.  Any launcher can run the shards and restart
one that dies: ``run_shard`` stores each chunk as it arrives, so a
rerun recomputes only what was lost.
"""

from repro.engine.cache import DEFAULT_CACHE_DIR, TrialCache
from repro.engine.experiments import EXPERIMENTS, build_experiment
from repro.engine.pool import WorkerCrashed, default_workers, run_task_batches
from repro.engine.runner import (
    EngineReport,
    ShardReport,
    execute_trial_batch,
    plan_experiment,
    run_experiment,
    run_shard,
)
from repro.engine.shard import ShardPlan
from repro.engine.spec import CACHE_VERSION, ExperimentSpec, TrialSpec

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "EXPERIMENTS",
    "EngineReport",
    "ExperimentSpec",
    "ShardPlan",
    "ShardReport",
    "TrialCache",
    "TrialSpec",
    "WorkerCrashed",
    "build_experiment",
    "default_workers",
    "execute_trial_batch",
    "plan_experiment",
    "run_experiment",
    "run_shard",
    "run_task_batches",
]
