"""Observability: spans, counters, and events across the engine stack.

A lightweight, stdlib-only telemetry layer with the same merge algebra
as the trial store: process-local accumulation
(:class:`~repro.obs.telemetry.Telemetry`), delta snapshots keyed by
unique origins, and an idempotent + commutative
:func:`~repro.obs.telemetry.merge_snapshots` union — so worker and
shard telemetry reduce across processes and hosts exactly like trial
records do.  The engine threads it through every layer (trial phase
spans in the drivers, cache hit/miss counters, per-chunk worker
snapshots piggybacked on batch results, merged ``telemetry`` blocks on
reports); ``python -m repro.engine stats`` and ``--trace PATH`` expose
it from the shell.

Telemetry is provably inert: nothing in this package touches records,
RNG, or cache contents, so runs are bit-identical with it enabled or
disabled.
"""

from repro.obs.telemetry import (
    SNAPSHOT_VERSION,
    Telemetry,
    aggregate,
    get_telemetry,
    merge_snapshots,
    set_enabled,
)
from repro.obs.trace import TraceSink
from repro.obs.render import format_telemetry

__all__ = [
    "SNAPSHOT_VERSION",
    "Telemetry",
    "TraceSink",
    "aggregate",
    "format_telemetry",
    "get_telemetry",
    "merge_snapshots",
    "set_enabled",
]
