"""Shards: content-addressed slices of an experiment's chunk plan.

A shard is the unit of *distribution* the way a chunk is the unit of
*scheduling*: a :class:`ShardPlan` fixes — once, deterministically —
how one spec's full (n, seed) trial grid is cut into worker-dispatch
chunks and how those chunks are dealt onto K shards.  Shard ``i`` of a
plan is nothing more than ``(plan, i)``: a host holding the plan file
reconstructs the exact trials it owns, and the content-addressed trial
cache is how their records come home — the merge step is a plain key
union followed by a replay of the plan.

Three properties carry the whole design:

* **determinism** — the plan is a pure function of ``(spec, num_shards,
  batch_size)``; it chunks the *full* grid, never the cache-missing
  subset, so re-planning on any host at any cache state yields
  byte-identical shards;
* **chunk alignment** — shards are built from whole chunks (chunk ``i``
  goes to shard ``i % K``), so a shard never splits a same-size seed
  run and the per-worker topology/verifier memos keep their hit rates;
* **content addressing** — :meth:`ShardPlan.key` hashes everything that
  determines the partition, so a plan file that was edited or written
  by an incompatible build is refused on load.

This module is pure data; the execution half (``plan_experiment``,
``run_shard``) lives in :mod:`repro.engine.runner`.  Running the
shards is left to any launcher (a shell loop, ``xargs -P``, a batch
scheduler), which restarts a shard that dies; :func:`shard_coverage`
is what ``status`` reports per shard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.spec import CACHE_VERSION, ExperimentSpec

__all__ = [
    "PLAN_VERSION",
    "ShardPlan",
    "dump_plan_file",
    "load_plan_file",
    "shard_coverage",
    "spec_from_payload",
    "spec_payload",
]

# Bump when the plan layout changes; a loader seeing a foreign version
# must refuse rather than misread shard boundaries.
PLAN_VERSION = 2


def spec_payload(spec: ExperimentSpec) -> dict[str, Any]:
    """A JSON-safe dict that round-trips an :class:`ExperimentSpec`."""
    return {
        "name": spec.name,
        "problem": spec.problem,
        "solver": spec.solver,
        "generator": spec.generator,
        "ns": list(spec.ns),
        "seeds": list(spec.seeds),
    }


def spec_from_payload(payload: dict[str, Any]) -> ExperimentSpec:
    return ExperimentSpec(
        name=payload["name"],
        problem=payload["problem"],
        solver=payload["solver"],
        generator=payload["generator"],
        ns=tuple(payload["ns"]),
        seeds=tuple(payload["seeds"]),
    )


def _as_chunk_tuple(chunks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i) for i in chunk) for chunk in chunks)


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
        object.__setattr__(self, "chunks", _as_chunk_tuple(self.chunks))
        if self.num_shards < 1:
            raise ValueError(f"a plan needs >= 1 shard, got {self.num_shards}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        covered = [i for chunk in self.chunks for i in chunk]
        total = len(self.spec.ns) * len(self.spec.seeds)
        if sorted(covered) != list(range(total)):
            # Also catches truncated plan files whose optional
            # plan_key went missing along with the tail chunks.
            raise ValueError(
                f"plan chunks must cover the full {total}-trial grid "
                f"exactly once (got {len(covered)} indices over "
                f"{self.spec.name!r})"
            )

    def trial_count(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def key(self) -> str:
        """Content hash of everything that determines the partition.

        Memoized (plans are frozen): every shard report of the plan
        carries it, and hashing re-serializes the whole chunk list.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        payload = json.dumps(
            {
                "v": PLAN_VERSION,
                "cache_v": CACHE_VERSION,
                "spec": spec_payload(self.spec),
                "num_shards": self.num_shards,
                "batch_size": self.batch_size,
                "chunks": [list(chunk) for chunk in self.chunks],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.sha256(payload.encode()).hexdigest()
        object.__setattr__(self, "_key", key)
        return key

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

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": PLAN_VERSION,
            "spec": spec_payload(self.spec),
            "num_shards": self.num_shards,
            "batch_size": self.batch_size,
            "chunks": [list(chunk) for chunk in self.chunks],
            "plan_key": self.key(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardPlan":
        if payload.get("version") != PLAN_VERSION:
            raise ValueError(
                f"unsupported plan version {payload.get('version')!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        plan = cls(
            spec=spec_from_payload(payload["spec"]),
            num_shards=int(payload["num_shards"]),
            batch_size=int(payload["batch_size"]),
            chunks=_as_chunk_tuple(payload["chunks"]),
        )
        stored = payload.get("plan_key")
        if stored is not None and stored != plan.key():
            raise ValueError(
                f"plan for {plan.spec.name!r} fails its content hash "
                "(edited by hand, or written by an incompatible build?)"
            )
        return plan


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


# -- plan files ---------------------------------------------------------
#
# One plan file covers one *experiment* (possibly many specs — the
# landscape is 62 of them); every spec is planned with the same shard
# count, and shard i of the file means shard i of every spec.


def dump_plan_file(experiment: str, plans: Sequence[ShardPlan]) -> dict[str, Any]:
    """The JSON document ``python -m repro.engine plan`` writes."""
    if not plans:
        raise ValueError("a plan file needs at least one spec plan")
    shard_counts = {plan.num_shards for plan in plans}
    if len(shard_counts) != 1:
        raise ValueError(f"mixed shard counts in one plan file: {shard_counts}")
    return {
        "version": PLAN_VERSION,
        "experiment": experiment,
        "num_shards": plans[0].num_shards,
        "trials_total": sum(plan.trial_count() for plan in plans),
        "specs": [plan.as_dict() for plan in plans],
    }


def load_plan_file(payload: Any) -> tuple[str, list[ShardPlan]]:
    """Invert :func:`dump_plan_file`, revalidating every spec plan.

    Whatever is wrong with the document — a foreign version, a failed
    content hash, a missing field, a value of the wrong type — raises
    ``ValueError``, so the CLI reports it as one setup-error line.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"a plan file holds one JSON object, not {type(payload).__name__}"
        )
    if payload.get("version") != PLAN_VERSION:
        raise ValueError(
            f"unsupported plan-file version {payload.get('version')!r} "
            f"(this build reads version {PLAN_VERSION})"
        )
    specs = payload.get("specs")
    if not isinstance(specs, list) or not specs:
        raise ValueError("plan file contains no spec plans")
    try:
        plans = [ShardPlan.from_dict(entry) for entry in specs]
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"malformed spec plan in plan file: {err!r}") from err
    declared = payload.get("num_shards")
    if declared is not None and any(p.num_shards != declared for p in plans):
        raise ValueError("plan file's num_shards disagrees with its specs")
    return payload.get("experiment", ""), plans
