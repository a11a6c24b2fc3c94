"""Unique identifier assignments from {1, ..., poly(n)}.

In the LOCAL model nodes carry unique identifiers from a polynomial
range (paper, Section 1).  Deterministic algorithms may use them for
symmetry breaking; the choice of assignment is part of the (worst-case)
input.
"""

from __future__ import annotations

import random
from typing import Sequence

__all__ = ["IdAssignment", "sequential_ids", "random_ids"]


class IdAssignment:
    """An injective map from node indices to positive identifiers."""

    def __init__(self, ids: Sequence[int]):
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("identifiers must be unique")
        if any(i <= 0 for i in ids):
            raise ValueError("identifiers must be positive")
        self._ids = ids
        self._max_id = max(ids, default=0)

    def __len__(self) -> int:
        return len(self._ids)

    def of(self, v: int) -> int:
        """The identifier of node ``v``."""
        return self._ids[v]

    def max_id(self) -> int:
        return self._max_id

    def as_list(self) -> list[int]:
        return list(self._ids)


def sequential_ids(n: int) -> IdAssignment:
    """Node ``v`` gets identifier ``v + 1``."""
    return IdAssignment(range(1, n + 1))


def random_ids(n: int, rng: random.Random) -> IdAssignment:
    """A uniform injective assignment into {1, ..., n**2}: the usual
    poly(n) identifier space."""
    return IdAssignment(rng.sample(range(1, n * n + 1), n))
