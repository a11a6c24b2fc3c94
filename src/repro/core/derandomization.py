"""The derandomization connection (paper, "Discussion and open questions").

Ghaffari, Harris and Kuhn [12] show that for LCLs any randomized
algorithm with complexity R(n) yields a deterministic one with

    D(n) = O( R(n) * ND(n) + R(n) * log^2 n ),

where ND(n) is the deterministic complexity of computing a
(log n, log n)-network decomposition.  Two consequences the paper
draws, both made computable here:

* with the best known bound ND(n) = 2^O(sqrt(log n)) (Panconesi and
  Srinivasan [21]), every gap D/R is capped at 2^O(sqrt(log n));
* conversely, any LCL with D(n)/R(n) = omega(log^2 n) would imply a
  superlogarithmic lower bound for network decomposition — the open
  question the paper closes with.

``implied_nd_lower_bound`` turns a measured (D, R) pair into the
network-decomposition lower bound it would certify; the family of this
paper sits safely below the threshold (ratio Theta(log / loglog)), and
the tests pin that down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.logmath import log

__all__ = [
    "ghk_deterministic_upper",
    "panconesi_srinivasan_nd",
    "implied_nd_lower_bound",
    "GapClassification",
    "classify_gap",
]


def panconesi_srinivasan_nd(n: int, constant: float = 1.0) -> float:
    """The best known deterministic network-decomposition bound,
    2^(c * sqrt(log n)) [21]."""
    return 2.0 ** (constant * math.sqrt(log(n)))


def ghk_deterministic_upper(
    rand_rounds: float, n: int, nd_rounds: float | None = None
) -> float:
    """D(n) = O(R * ND + R * log^2 n) [12]; ND defaults to [21]."""
    if nd_rounds is None:
        nd_rounds = panconesi_srinivasan_nd(n)
    return rand_rounds * nd_rounds + rand_rounds * log(n) ** 2


def implied_nd_lower_bound(det_rounds: float, rand_rounds: float, n: int) -> float:
    """The ND(n) lower bound a measured (D, R) pair would certify.

    Rearranging D <= c (R * ND + R log^2 n):  ND >= D/R - log^2 n (up
    to constants).  Non-positive values mean the gap is too small to
    say anything about network decomposition — which is exactly where
    the problems constructed in this paper live.
    """
    if rand_rounds <= 0:
        raise ValueError("rand_rounds must be positive")
    return det_rounds / rand_rounds - log(n) ** 2


@dataclass(frozen=True)
class GapClassification:
    ratio: float
    reference_log: float
    reference_log_squared: float
    kind: str  # "none" | "subexponential" | "superlog2" | "exponential-scale"

    def implies_nd_bound(self) -> bool:
        return self.kind in ("superlog2", "exponential-scale")


def classify_gap(det_rounds: float, rand_rounds: float, n: int) -> GapClassification:
    """Place a measured gap on the paper's map.

    * ``none`` — ratio O(1): randomness does not help;
    * ``subexponential`` — ratio grows but stays O(log^2 n): the regime
      this paper populates (its family sits at Theta(log/loglog));
    * ``superlog2`` — ratio omega(log^2 n): would give a new network
      decomposition lower bound (open);
    * ``exponential-scale`` — ratio around 2^Theta(sqrt(log n)) or
      beyond: the sinkless-orientation-style exponential regime.
    """
    if rand_rounds <= 0:
        raise ValueError("rand_rounds must be positive")
    ratio = det_rounds / rand_rounds
    log_n = log(n)
    if ratio <= 2.0:
        kind = "none"
    elif ratio <= log_n**2:
        kind = "subexponential"
    elif ratio < panconesi_srinivasan_nd(n, constant=2.0):
        kind = "superlog2"
    else:
        kind = "exponential-scale"
    return GapClassification(
        ratio=ratio,
        reference_log=log_n,
        reference_log_squared=log_n**2,
        kind=kind,
    )
