"""Closed-form complexity predictions (Theorems 1 and 11).

These functions state what the paper proves, so that the measurement
harness can print paper-vs-measured side by side:

* Pi_i has deterministic complexity Theta(log^i n) and randomized
  complexity Theta(log^{i-1} n * log log n) (Theorem 11), stated once
  as :data:`PI_PLACEMENTS`;
* padding with a (d, Delta)-family multiplies both complexities by
  Theta(d(n)) (Theorem 1 with f(x) = floor(sqrt(x)));
* the paper's closing observation: every known gap satisfies
  D(n)/R(n) = Theta(log n / log log n).
"""

from __future__ import annotations

import math

from repro.util.logmath import GROWTH_FUNCTIONS, Placement, log, loglog

__all__ = [
    "PI_PLACEMENTS",
    "deterministic_prediction",
    "randomized_prediction",
    "gap_ratio_prediction",
    "theorem1_upper",
    "theorem1_lower",
]

#: Theorem 11: level i -> Pi_i's (deterministic, randomized) placement.
#: Pi_1 is sinkless orientation; the registry's ``sinkless-orientation``
#: and ``padded-sinkless`` entries read levels 1 and 2 from here.
PI_PLACEMENTS: dict[int, tuple[Placement, Placement]] = {
    1: (Placement("Theta", "log"), Placement("Theta", "loglog")),
    2: (Placement("Theta", "log^2"), Placement("Theta", "log loglog")),
    3: (Placement("Theta", "log^3"), Placement("Theta", "log^2 loglog")),
}


def _level(level: int) -> tuple[Placement, Placement]:
    if level not in PI_PLACEMENTS:
        raise ValueError(f"levels are 1-based, and Pi_1 to Pi_3 are stated; got {level}")
    return PI_PLACEMENTS[level]


def deterministic_prediction(level: int, n: int) -> float:
    """Theta(log^i n) for Pi_i (up to the hidden constant)."""
    return GROWTH_FUNCTIONS[_level(level)[0].growth](n)


def randomized_prediction(level: int, n: int) -> float:
    """Theta(log^{i-1} n * log log n) for Pi_i."""
    return GROWTH_FUNCTIONS[_level(level)[1].growth](n)


def gap_ratio_prediction(n: int) -> float:
    """D(n) / R(n) = Theta(log n / log log n), independent of the level."""
    return log(n) / loglog(n)


def theorem1_upper(base_rounds: float, n: int) -> float:
    """O(T(Pi, n) * d(n)) with d = log (Theorem 1, upper bound shape)."""
    return base_rounds * log(n)


def theorem1_lower(base_rounds_at_sqrt: float, n: int) -> float:
    """Omega(T(Pi, sqrt(n)) * d(sqrt(n))) with f(x) = floor(sqrt(x))."""
    return base_rounds_at_sqrt * log(math.isqrt(max(n, 1)))
