"""Observability: spans and counters across the engine stack.

A lightweight, stdlib-only telemetry layer: process-local accumulation
(:class:`~repro.obs.telemetry.Telemetry`), delta snapshots that each
hold one additive ``{"counters", "spans"}`` map, and
:func:`~repro.obs.telemetry.merge_snapshots`, which sums them — so the
telemetry of every chunk, in whichever process ran it, adds up to one
map per report.  The engine threads it through every layer (trial
phase spans in the drivers, cache hit/miss counters, per-chunk worker
snapshots piggybacked on batch results, merged ``telemetry`` blocks on
reports); ``python -m repro.engine stats`` and ``--trace PATH`` expose
it from the shell.

Telemetry is provably inert: nothing in this package touches records,
RNG, or cache contents, so runs are bit-identical with it enabled or
disabled.
"""

from repro.obs.telemetry import (
    Telemetry,
    aggregate,
    get_telemetry,
    merge_snapshots,
    set_enabled,
)
from repro.obs.trace import TraceSink
from repro.obs.render import format_telemetry

__all__ = [
    "Telemetry",
    "TraceSink",
    "aggregate",
    "format_telemetry",
    "get_telemetry",
    "merge_snapshots",
    "set_enabled",
]
