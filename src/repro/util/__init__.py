"""Small shared utilities: log helpers, seeded randomness, safe file IO."""

from repro.util.fsio import atomic_write_text
from repro.util.logmath import (
    ceil_log2,
    floor_log2,
    log_star,
)
from repro.util.rng import NodeRng, fork_rng

__all__ = [
    "atomic_write_text",
    "ceil_log2",
    "floor_log2",
    "log_star",
    "NodeRng",
    "fork_rng",
]
