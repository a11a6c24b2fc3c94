"""Process-local telemetry: spans and counters, snapshot and summed.

One :class:`Telemetry` object per process accumulates two primitive
kinds of signal:

* **spans** — named, nestable, monotonic-clock timed sections.  Each
  distinct span *path* (names of enclosing spans joined with ``/``)
  aggregates to ``(count, total_s, min_s, max_s)``; the raw intervals
  also stream to an attached trace sink, when one is attached.
* **counters** — monotonic non-negative integers (cache hits, core
  reuses, chunks dispatched).

The layer is deliberately passive: nothing here ever touches trial
records, RNG state, or the cache contents, so enabling or disabling
telemetry cannot change what an experiment computes.

Snapshots
---------

A :meth:`Telemetry.snapshot` is one JSON-safe, additive map::

    {"counters": {name: int},
     "spans": {path: {"count", "total_s", "min_s", "max_s"}}}

``snapshot(reset=True)`` drains the registry, so a process's successive
snapshots are disjoint deltas.  :func:`merge_snapshots` sums them:
counters and span ``count``/``total_s`` add and ``min_s``/``max_s``
combine, in any order (float totals up to rounding).  A sum counts
every snapshot it is given, so each delta is merged once: the runner
takes one per cache lookup, per chunk and per store phase.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "Telemetry",
    "aggregate",
    "get_telemetry",
    "merge_snapshots",
    "set_enabled",
]

_SPAN_ZERO = (0, 0.0, float("inf"), 0.0)  # count, total, min, max


class _Span:
    """One timed section; re-entrant via fresh objects, thread-aware."""

    __slots__ = ("_telemetry", "_name", "_path", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name
        self._path = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        stack = self._telemetry._stack()
        if stack:
            self._path = f"{stack[-1]}/{self._name}"
        stack.append(self._path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        stack = self._telemetry._stack()
        if stack and stack[-1] == self._path:
            stack.pop()
        self._telemetry._record_span(self._path, elapsed, len(stack))


class _NullSpan:
    """The disabled-telemetry span: one shared no-op object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """One process's live telemetry registry.

    Thread-safe for counters and span recording (one lock, held only
    for dict updates); the span nesting stack is thread-local, so
    concurrent threads nest independently.  ``enabled=False`` turns
    every primitive into a near-free no-op — the records an experiment
    produces are identical either way, only the accounting disappears.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._spans: dict[str, tuple[int, float, float, float]] = {}
        self._local = threading.local()
        self._sink: Any = None  # duck-typed: .emit(dict), .close()

    # -- internals -----------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_span(self, path: str, elapsed: float, depth: int) -> None:
        with self._lock:
            count, total, lo, hi = self._spans.get(path, _SPAN_ZERO)
            self._spans[path] = (
                count + 1,
                total + elapsed,
                min(lo, elapsed),
                max(hi, elapsed),
            )
        sink = self._sink
        if sink is not None:
            sink.emit(
                {"kind": "span", "name": path, "depth": depth, "dur_s": elapsed}
            )

    # -- primitives ----------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a monotonic counter (created at zero)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def span(self, name: str):
        """A context manager timing one named, nestable section."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- trace sink ----------------------------------------------------

    def attach_sink(self, sink: Any) -> None:
        """Stream closed spans to ``sink`` (anything with ``emit(dict)``)."""
        self._sink = sink

    def detach_sink(self) -> Any:
        """Detach and return the current sink (None when absent)."""
        sink, self._sink = self._sink, None
        return sink

    # -- snapshot / reset ----------------------------------------------

    def reset(self) -> None:
        """Drop everything accrued (worker processes reset after fork)."""
        with self._lock:
            self._counters.clear()
            self._spans.clear()

    def snapshot(self, reset: bool = False) -> dict:
        """A JSON-safe copy of everything accrued, as one additive map.

        ``reset=True`` drains the registry in the same step, which makes
        the snapshot a delta that no later snapshot repeats.
        """
        with self._lock:
            snap = {
                "counters": dict(self._counters),
                "spans": {
                    path: _span_dict(stat) for path, stat in self._spans.items()
                },
            }
            if reset:
                self._counters.clear()
                self._spans.clear()
        return snap


def _span_dict(stat: Sequence[float]) -> dict[str, float]:
    count, total, lo, hi = stat
    return {"count": count, "total_s": total, "min_s": lo, "max_s": hi}


def merge_snapshots(snapshots: Iterable[Mapping | None]) -> dict:
    """The sum of ``snapshots``, with counters and span paths key-sorted.

    Counters and span ``count``/``total_s`` add; ``min_s``/``max_s``
    combine.  ``None`` adds nothing (a report whose producer had
    telemetry disabled).
    """
    counters: dict[str, int] = {}
    spans: dict[str, dict[str, float]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + int(value)
        for path, stat in snap["spans"].items():
            into = spans.get(path)
            if into is None:
                spans[path] = dict(stat)
            else:
                into["count"] += stat["count"]
                into["total_s"] += stat["total_s"]
                into["min_s"] = min(into["min_s"], stat["min_s"])
                into["max_s"] = max(into["max_s"], stat["max_s"])
    return {
        "counters": dict(sorted(counters.items())),
        "spans": dict(sorted(spans.items())),
    }


def aggregate(snapshot: Mapping | None) -> dict[str, dict]:
    """One snapshot's key-sorted copy (empty maps for ``None``)."""
    return merge_snapshots([snapshot])


# -- the process-default registry ---------------------------------------
#
# Library code records into one shared per-process Telemetry; the
# runner drains it into reports via delta snapshots.  Worker processes
# reset it right after fork (see repro.engine.pool) so inherited parent
# state is never double-counted.

_DEFAULT = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-default telemetry registry."""
    return _DEFAULT


def set_enabled(enabled: bool) -> bool:
    """Toggle the default registry; returns the previous state."""
    previous = _DEFAULT.enabled
    _DEFAULT.enabled = enabled
    return previous
