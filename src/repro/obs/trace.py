"""JSONL trace sink: span intervals as an append-only stream.

The sink is the *offline* half of the telemetry layer: attach one to a
:class:`~repro.obs.telemetry.Telemetry` and every closed span appends
one JSON line — ``{"t": wall-clock, "pid": ..., "kind": "span",
"name": path, "depth": ..., "dur_s": ...}`` — suitable for grep,
pandas, or a trace viewer.  It is off by default (``--trace PATH`` on
the CLI turns it on) and stays out of the hot path entirely when
detached: the only cost without a sink is one attribute test per span
close.

Tracing is parent-process only: pool helpers detach any inherited sink
when they initialize (one writer per file, no interleaved lines), so a
parallel run's trace holds the dispatching process's spans, including
those of the chunks it runs itself.
Lines flush on every emit, so a killed run leaves at worst one torn
trailing line — the same failure mode the trial cache already
tolerates everywhere.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, TextIO

__all__ = ["TraceSink"]


class TraceSink:
    """Append telemetry records to a JSONL file, one line per record."""

    def __init__(self, path: str):
        self.path = path
        self._handle: TextIO | None = open(path, "a", encoding="utf-8")
        self._pid = os.getpid()

    def emit(self, record: dict[str, Any]) -> None:
        handle = self._handle
        if handle is None:
            return
        line = json.dumps(
            {"t": time.time(), "pid": self._pid, **record}, sort_keys=True
        )
        try:
            handle.write(line + "\n")
            handle.flush()
        except OSError:
            # A full disk must not take the experiment down with it;
            # drop the sink and keep computing.
            self.close()

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
