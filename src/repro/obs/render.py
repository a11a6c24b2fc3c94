"""Human-readable rendering of telemetry snapshots.

``format_telemetry`` turns a (merged) snapshot into the same
fixed-width tables the benchmark suite and CLI already print: one
phase-breakdown table for spans — with each span's share of the total
span time, which is what finally answers "where does the time go?" —
and one table for counters.  The CLI's ``stats`` subcommand and
``cache --status`` both come here.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.telemetry import aggregate

__all__ = ["format_telemetry"]


def _render_table(headers, rows, title):
    # Lazy import: repro.analysis pulls in the local and runtime layers,
    # which import this package, and the obs layer must stay importable
    # from anywhere.
    from repro.analysis import render_table

    return render_table(headers, rows, title=title)


def format_telemetry(
    snapshot: Mapping | None,
    title: str = "telemetry",
    counter_prefix: str = "",
) -> str:
    """Render a snapshot as phase/counter tables (or an honest 'empty').

    ``counter_prefix`` filters the counter table (e.g. ``"cache."`` for
    ``cache --status``); spans are always shown in full.  Accepts raw
    and merged snapshots alike — anything :func:`repro.obs.aggregate`
    reads.
    """
    view = aggregate(snapshot)
    spans = view["spans"]
    counters = {
        name: value
        for name, value in view["counters"].items()
        if name.startswith(counter_prefix)
    }
    blocks = []
    if spans:
        # Share of the *top-level* span time: nested spans re-count
        # their parents' time, so the denominator only sums roots.
        root_total = sum(
            stat["total_s"] for path, stat in spans.items() if "/" not in path
        )
        rows = []
        for path, stat in spans.items():
            mean_ms = stat["total_s"] / stat["count"] * 1e3 if stat["count"] else 0.0
            share = (
                f"{stat['total_s'] / root_total * 100:.1f}%"
                if "/" not in path and root_total > 0
                else "-"
            )
            rows.append(
                [
                    path,
                    stat["count"],
                    round(stat["total_s"], 4),
                    round(mean_ms, 3),
                    round(stat["max_s"] * 1e3, 3),
                    share,
                ]
            )
        blocks.append(
            _render_table(
                ["span", "count", "total s", "mean ms", "max ms", "share"],
                rows,
                title=f"{title}: phases",
            )
        )
    if counters:
        blocks.append(
            _render_table(
                ["counter", "value"],
                [[name, value] for name, value in counters.items()],
                title=f"{title}: counters",
            )
        )
    if not blocks:
        return f"{title}: no telemetry recorded"
    return "\n\n".join(blocks)
