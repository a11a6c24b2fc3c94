"""Shards: a deterministic K-way deal of one spec's chunk plan.

A shard is the unit of *distribution* the way a chunk is the unit of
*scheduling*: a :class:`ShardPlan` fixes how one spec's full (n, seed)
trial grid is cut into worker-dispatch chunks and how those chunks are
dealt onto K shards.  Shard ``i`` of a plan is nothing more than
``(plan, i)``, and the content-addressed trial cache is how its
records come home — a plain key union of the shards' roots followed by
a replay of the grid.

Two properties carry the whole design:

* **determinism** — the plan is a pure function of ``(spec, num_shards,
  batch_size)``; it chunks the *full* grid, never the cache-missing
  subset, and its default chunk size depends on the spec alone, so
  every host that is given the same experiment grid and shard count
  derives the same shards, at any cache state and CPU count;
* **chunk alignment** — shards are built from whole chunks (chunk ``i``
  goes to shard ``i % K``), so a shard never splits a same-size seed
  run and the per-worker topology/verifier memos keep their hit rates.

This module is pure data; the execution half (``plan_experiment``,
``run_shard``) lives in :mod:`repro.engine.runner`.  Running the
shards is left to any launcher (a shell loop, ``xargs -P``, a batch
scheduler), which restarts a shard that dies; :func:`shard_coverage`
is what ``status`` reports per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.spec import ExperimentSpec

__all__ = ["ShardPlan", "shard_coverage"]


@dataclass(frozen=True)
class ShardPlan:
    """One spec's full-grid chunking plus its K-way shard partition.

    ``chunks`` indexes into ``spec.trials()`` (grid order) and covers
    the whole grid; every chunk respects the runner's invariants (never
    spans two sizes, never exceeds ``batch_size``).  Shard ``s`` owns
    ``chunks[s::num_shards]`` — round-robin by chunk index, so the
    per-size chunk runs (which grow with ``n``) spread evenly instead
    of piling the largest sizes onto the last shard.
    """

    spec: ExperimentSpec
    num_shards: int
    batch_size: int
    chunks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"a plan needs >= 1 shard, got {self.num_shards}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")

    def trial_count(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def shard_chunks(self, shard_index: int) -> tuple[tuple[int, ...], ...]:
        """The chunks shard ``shard_index`` owns (round-robin deal)."""
        if not 0 <= shard_index < self.num_shards:
            raise ValueError(
                f"shard index {shard_index} out of range for a "
                f"{self.num_shards}-shard plan"
            )
        return self.chunks[shard_index :: self.num_shards]

    def trial_indices(self, shard_index: int) -> list[int]:
        """Shard ``shard_index``'s global trial indices, in execution order."""
        return [i for chunk in self.shard_chunks(shard_index) for i in chunk]


def shard_coverage(
    plans: Sequence[ShardPlan], shard_index: int, contains: Callable[[str], bool]
) -> tuple[int, int]:
    """``(owed, missing)``: how many trials shard ``shard_index`` owes
    across ``plans``, and how many of them ``contains`` does not hold.

    ``contains`` is typically ``TrialCache.contains``; because trial
    keys are content hashes, the probe is exact regardless of which
    host computed what.  ``status`` prints it per shard, so a launcher
    can tell which shards still need a run.
    """
    owed = missing = 0
    for plan in plans:
        trials = plan.spec.trials()
        for i in plan.trial_indices(shard_index):
            owed += 1
            if not contains(trials[i].key()):
                missing += 1
    return owed, missing
