"""Logarithm helpers and the growth vocabulary of the paper's claims.

The paper states all bounds in terms of ``log n``, ``log log n`` and
``log* n``.  This module holds exact integer versions for round
accounting, one clamped float ``log``/``loglog`` pair for predictions,
and the growth classes every claim and fit is written in:
:data:`GROWTH_FUNCTIONS` names them, and a :class:`Placement` states a
claim as a bound on one of them.  It imports nothing from the rest of
the package, so registering modules can state their claims with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "GROWTH_FUNCTIONS",
    "Placement",
    "ceil_log2",
    "floor_log2",
    "log",
    "log_star",
    "loglog",
]


def floor_log2(x: int) -> int:
    """Return ``floor(log2(x))`` for a positive integer ``x``."""
    if x <= 0:
        raise ValueError(f"floor_log2 requires a positive integer, got {x}")
    return x.bit_length() - 1


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer ``x``."""
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive integer, got {x}")
    return (x - 1).bit_length()


def log_star(x: float) -> int:
    """Return ``log* x``: the number of times ``log2`` must be applied
    before the value drops to at most 1."""
    count = 0
    value = float(x)
    while value > 1.0:
        value = math.log2(value)
        count += 1
        if count > 64:  # unreachable for sane inputs; guards bad floats
            raise OverflowError(f"log_star did not converge for {x!r}")
    return count


def log(n: float) -> float:
    """``log2 n``, clamped to 1 below ``n = 2``."""
    return math.log2(max(n, 2.0))


def loglog(n: float) -> float:
    """``log2 log2 n``, clamped to 1 below ``n = 4``."""
    return math.log2(max(log(n), 2.0))


#: The growth classes of Figure 1's axes, by name, declared
#: slowest-growing first (:func:`repro.analysis.growth.growth_rank`
#: reads that order).
GROWTH_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "1": lambda n: 1.0,
    "log*": lambda n: float(log_star(n)),
    "loglog": loglog,
    "log": log,
    "log loglog": lambda n: log(n) * loglog(n),
    "log^2": lambda n: log(n) ** 2,
    "log^2 loglog": lambda n: log(n) ** 2 * loglog(n),
    "log^3": lambda n: log(n) ** 3,
    "sqrt": lambda n: math.sqrt(n),
    "n": lambda n: float(n),
}


@dataclass(frozen=True)
class Placement:
    """A claim about one complexity: ``bound`` (``"Theta"`` or ``"O"``)
    of the growth class ``growth``, a key of :data:`GROWTH_FUNCTIONS`.

    ``str()`` writes each factor over ``n``: ``Placement("Theta",
    "log loglog")`` is ``Theta(log n loglog n)``, and ``Placement("O",
    "1")`` is ``O(1)``.
    """

    bound: str
    growth: str

    def __post_init__(self) -> None:
        if self.bound not in ("Theta", "O"):
            raise ValueError(f"bound must be 'Theta' or 'O', not {self.bound!r}")
        if self.growth not in GROWTH_FUNCTIONS:
            raise ValueError(f"unknown growth class {self.growth!r}")

    def __str__(self) -> str:
        factors = " ".join(
            factor if factor in ("1", "n") else f"{factor} n"
            for factor in self.growth.split()
        )
        return f"{self.bound}({factors})"
