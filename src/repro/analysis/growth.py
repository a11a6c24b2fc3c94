"""Growth-shape fitting: which Theta-class do measured rounds follow?

The paper's results are asymptotic; the reproduction measures round
counts over an ``n``-sweep and asks which growth function from the
landscape's dictionary (Figure 1's axes) explains them best.  Each
candidate ``g`` is fitted as ``rounds ~ a * g(n) + b`` by least
squares; candidates are ranked by RMSE on the normalized series, so
slowly and quickly growing shapes compete fairly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.util.logmath import GROWTH_FUNCTIONS

__all__ = [
    "GROWTH_FUNCTIONS",
    "GrowthFit",
    "fit_growth",
    "best_fit",
    "growth_rank",
    "ratio_series",
]


@dataclass
class GrowthFit:
    name: str
    scale: float  # a in rounds ~ a * g(n) + b
    offset: float
    rmse: float  # on the normalized series

    def predict(self, n: float) -> float:
        return self.scale * GROWTH_FUNCTIONS[self.name](n) + self.offset

    def __str__(self) -> str:
        return f"{self.scale:.2f} * {self.name}(n) + {self.offset:.2f} (rmse {self.rmse:.3f})"


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        return 0.0, mean_y
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    a = cov / var_x
    return a, mean_y - a * mean_x


def fit_growth(
    ns: Sequence[int],
    rounds: Sequence[float],
    candidates: Sequence[str] | None = None,
) -> list[GrowthFit]:
    """All candidate fits, best first."""
    if len(ns) != len(rounds) or len(ns) < 3:
        raise ValueError("need at least three (n, rounds) points")
    if candidates is None:
        candidates = list(GROWTH_FUNCTIONS)
    spread = max(rounds) - min(rounds)
    scale_norm = spread if spread > 0 else max(max(rounds), 1.0)
    fits = []
    for name in candidates:
        g = GROWTH_FUNCTIONS[name]
        xs = [g(n) for n in ns]
        a, b = _least_squares(xs, rounds)
        if a < 0:
            # decreasing fits are clamped: growth classes only
            a, b = 0.0, sum(rounds) / len(rounds)
        residuals = [
            (a * x + b - y) / scale_norm for x, y in zip(xs, rounds)
        ]
        rmse = math.sqrt(sum(r * r for r in residuals) / len(residuals))
        fits.append(GrowthFit(name, a, b, rmse))
    fits.sort(key=lambda fit: fit.rmse)
    return fits


def best_fit(
    ns: Sequence[int],
    rounds: Sequence[float],
    candidates: Sequence[str] | None = None,
) -> GrowthFit:
    return fit_growth(ns, rounds, candidates)[0]


# GROWTH_FUNCTIONS is declared slowest-growing first, so its insertion
# order doubles as the asymptotic ordering of the candidate classes.
_GROWTH_ORDER = {name: rank for rank, name in enumerate(GROWTH_FUNCTIONS)}


def growth_rank(name: str) -> int:
    """Position of a growth class in the slowest-to-fastest ordering.

    Lower is asymptotically smaller; use it to compare fitted classes
    (e.g. pick the solver with the smallest measured growth for a
    landscape cell).  Unknown class names raise ``KeyError``.
    """
    return _GROWTH_ORDER[name]


def ratio_series(
    ns: Sequence[int], det: Sequence[float], rand: Sequence[float]
) -> list[tuple[int, float]]:
    """The D(n)/R(n) series the paper's discussion section studies."""
    return [
        (n, d / max(r, 1e-9)) for n, d, r in zip(ns, det, rand)
    ]
