"""Parallel, cached experiment orchestration.

The engine turns the repo's ad-hoc measurement loops into declarative
experiment runs: an :class:`ExperimentSpec` names a registered problem,
solver, and family plus the (n, seed) grid; the runner expands it into
content-hashed trials, replays whatever the on-disk cache already
holds, dispatches the delta to a process pool, and folds the records
into the same ``Sweep``/``SweepPoint`` shapes the analysis layer has
always used.  The same executor scales out: ``run_experiment(spec,
shard=(i, K))`` runs the dispatch chunks that :func:`shard_trials`
deals to shard ``i`` of ``K``, anywhere, and their records come home
through the cache — union the shards' roots with
:meth:`TrialCache.merge`, then replay the grid with
:func:`run_experiment`, bit-identically to a single-host run.  The
deal is a pure function of the spec, the shard count and the chunk
size, so nothing travels between hosts but the grid flags: ``python -m
repro.engine`` exposes the named experiments of
:mod:`repro.engine.experiments`, ``run-shard --shard I/K`` runs a shard
of one from its grid flags, and ``run --from ROOT...`` unions the
shard roots and replays.  Any launcher can run the shards and restart
one that dies: a run stores each chunk as it arrives, so a rerun
recomputes only what was lost.  Records are the same on either kernel
backend, so no run, shard or report names one: every trial runs on the
platform's (:data:`repro.kernels.DEFAULT_BACKEND`).
"""

from repro.engine.cache import DEFAULT_CACHE_DIR, TrialCache
from repro.engine.experiments import EXPERIMENTS, build_experiment
from repro.engine.pool import WorkerCrashed, default_workers, run_task_batches
from repro.engine.runner import (
    EngineReport,
    execute_trial_batch,
    run_experiment,
    shard_trials,
)
from repro.engine.spec import CACHE_VERSION, ExperimentSpec, TrialSpec

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "EXPERIMENTS",
    "EngineReport",
    "ExperimentSpec",
    "TrialCache",
    "TrialSpec",
    "WorkerCrashed",
    "build_experiment",
    "default_workers",
    "execute_trial_batch",
    "run_experiment",
    "run_task_batches",
    "shard_trials",
]
