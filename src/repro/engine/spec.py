"""Declarative experiment specifications.

An :class:`ExperimentSpec` names everything one sweep needs by its
registry names — the problem, the solver, the instance family
(``generator``), the size grid, the seed grid — rather than holding
live objects.  That buys two properties at once:

* **picklability** — a spec travels to worker processes as a handful
  of strings and ints, so the pool never depends on closures or open
  file handles surviving a fork/spawn;
* **content addressing** — every :class:`TrialSpec` hashes to a stable
  key derived purely from the fields that determine its result, so the
  cache can replay identical trials across runs and worker counts.

The names are looked up in :mod:`repro.runtime.registry` when a trial
runs, not when the spec is built, so a spec naming an unknown entry
fails its run rather than its construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CACHE_VERSION",
    "ExperimentSpec",
    "TrialSpec",
]

# Bump when the trial record layout or the key payload changes; stale
# cache shards are then simply never hit instead of being misread.
CACHE_VERSION = 2

_TRIAL_FIELDS = ("problem", "solver", "generator", "n", "seed")


@dataclass(frozen=True)
class TrialSpec:
    """One deterministic unit of work: (problem, solver, family, n, seed).

    Two trials with equal fields produce bit-identical results, so the
    sha256 of the canonical field encoding is a safe cache key.
    """

    problem: str
    solver: str
    generator: str
    n: int
    seed: int

    def key(self) -> str:
        # Memoized: the shard pipeline keys the same TrialSpec several
        # times (missing pre-scan, shard lookup, store), and the hash
        # is a pure function of the frozen fields.
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        payload = json.dumps(
            {"v": CACHE_VERSION, **self.to_payload()},
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.sha256(payload.encode()).hexdigest()
        object.__setattr__(self, "_key", key)
        return key

    def to_payload(self) -> dict[str, Any]:
        """A plain-dict form that survives pickling to any start method."""
        return {name: getattr(self, name) for name in _TRIAL_FIELDS}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TrialSpec":
        return cls(**{name: payload[name] for name in _TRIAL_FIELDS})


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep: one registered solver across an n-grid and a seed-grid."""

    name: str
    problem: str
    solver: str
    generator: str
    ns: tuple[int, ...]
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", tuple(self.ns))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.ns:
            raise ValueError(f"experiment {self.name!r} has an empty n-grid")
        if not self.seeds:
            raise ValueError(f"experiment {self.name!r} has an empty seed-grid")

    def trials(self) -> list[TrialSpec]:
        """The full trial grid, in deterministic (n-major, seed-minor) order.

        Memoized per spec (specs are immutable): planning, shard
        execution, and the warm-cache pre-scan all walk the same grid,
        and sharing one TrialSpec list also shares the per-trial key
        memos.  Callers get a fresh list object each time, so mutating
        the returned list cannot poison the memo.
        """
        cached = self.__dict__.get("_trials")
        if cached is None:
            cached = tuple(
                TrialSpec(self.problem, self.solver, self.generator, n, seed)
                for n in self.ns
                for seed in self.seeds
            )
            object.__setattr__(self, "_trials", cached)
        return list(cached)

    def solver_display_name(self) -> str:
        """The ``.name`` the spec's solver objects carry, without building
        one when the catalog can answer (see
        :func:`repro.runtime.registry.solver_display_name`), so a
        warm-cache replay never constructs a solver just to label its
        sweep."""
        from repro.runtime import registry

        return registry.solver_display_name(self.solver)
