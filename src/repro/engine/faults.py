"""Seeded fault injection: every failure mode a deterministic test case.

The fabric's failure handling is only trustworthy if each failure mode
can be reproduced on demand, at an exact point in an exact process.
This module provides that: a :class:`FaultSpec` names *what* breaks
(``kill``/``hang``/``delay``/``corrupt``), *where* (a shard index),
*when* (the k-th completed trial of the shard run, or the k-th record
line of its written root), and *on which attempts* — so a chaos test
states "shard 2 is SIGKILLed after its first trial, on attempt 1 only"
and gets precisely that, every run.

Activation is explicit and external: specs arrive via the
``run-shard --inject`` flag or the ``REPRO_FAULTS`` environment
variable (how the fabric launcher forwards them to shard
subprocesses), and the launcher stamps each attempt's number into
``REPRO_FABRIC_ATTEMPT`` so faults default to firing on the first
attempt and letting retries succeed.  Without either, the injector is
inert and costs one integer increment per trial.  Every fault fires
inside the shard process (:class:`FaultInjector`).

Spec string format (``;``-separable for the env var)::

    kill@1              SIGKILL shard 1 after its 1st completed trial
    kill@1:at=3         ... after its 3rd
    hang@2:at=1         shard 2 stops making progress (sleeps) after trial 1
    delay@0:at=2,secs=0.5   shard 0 stalls 0.5s once, then continues
    corrupt@3:at=2      garble the 2nd record line of shard 3's written root
    kill@1:attempts=1+2     fire on attempts 1 AND 2 (default: 1 only)
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass
from typing import Sequence

from repro.util.fsio import atomic_write_text

__all__ = [
    "ENV_ATTEMPT",
    "ENV_FAULTS",
    "FaultInjector",
    "FaultSpec",
    "corrupt_jsonl",
    "parse_fault_specs",
]

_LOG = logging.getLogger("repro.engine")

#: ``;``-joined spec strings; how the launcher arms shard subprocesses.
ENV_FAULTS = "REPRO_FAULTS"
#: 1-based attempt number the launcher stamps on each spawn.
ENV_ATTEMPT = "REPRO_FABRIC_ATTEMPT"

MODES = ("kill", "hang", "delay", "corrupt")

# A hang must outlive any sane heartbeat timeout without wedging a
# run-away test forever if nothing kills the process.
_DEFAULT_HANG_SECONDS = 600.0


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: mode, target shard, trigger point."""

    mode: str
    shard: int
    #: 1-based: the k-th completed trial (kill/hang/delay) or the k-th
    #: record line of the shard's written cache root (corrupt).
    at: int = 1
    #: Attempt numbers this fault fires on (1-based).  Defaulting to
    #: the first attempt is what makes retries recover: the injected
    #: failure happens once, the reassigned lease runs clean.
    attempts: tuple[int, ...] = (1,)
    #: Sleep length for ``hang``/``delay``.
    seconds: float = _DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r} (choose from {', '.join(MODES)})"
            )
        if self.shard < 0:
            raise ValueError(f"fault shard index must be >= 0, got {self.shard}")
        if self.at < 1:
            raise ValueError(f"fault trigger point 'at' is 1-based, got {self.at}")
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ValueError(f"fault attempts are 1-based, got {self.attempts}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``mode@shard[:key=value,...]`` (see module docstring)."""
        head, _, options = text.strip().partition(":")
        mode, sep, shard_text = head.partition("@")
        if not sep or not shard_text:
            raise ValueError(
                f"fault spec {text!r} is not of the form 'mode@shard[:opts]'"
            )
        fields: dict[str, object] = {"mode": mode, "shard": int(shard_text)}
        for option in filter(None, options.split(",")):
            key, sep, value = option.partition("=")
            if not sep:
                raise ValueError(f"fault option {option!r} is not 'key=value'")
            if key == "at":
                fields["at"] = int(value)
            elif key == "attempts":
                fields["attempts"] = tuple(int(a) for a in value.split("+"))
            elif key == "secs":
                fields["seconds"] = float(value)
            else:
                raise ValueError(
                    f"unknown fault option {key!r} (know: at, attempts, secs)"
                )
        return cls(**fields)  # type: ignore[arg-type]

    def spec_string(self) -> str:
        """The canonical string form; ``parse`` round-trips it."""
        options = [f"at={self.at}"]
        if self.attempts != (1,):
            options.append("attempts=" + "+".join(str(a) for a in self.attempts))
        if self.seconds != _DEFAULT_HANG_SECONDS:
            options.append(f"secs={self.seconds:g}")
        return f"{self.mode}@{self.shard}:" + ",".join(options)


def parse_fault_specs(text: str | None) -> list[FaultSpec]:
    """Parse a ``;``-joined spec list (the ``REPRO_FAULTS`` format)."""
    if not text:
        return []
    return [FaultSpec.parse(part) for part in text.split(";") if part.strip()]


def corrupt_jsonl(root: str, at: int) -> bool:
    """Garble the ``at``-th (1-based) record line under a cache root.

    Walks the root's ``*.jsonl`` files in sorted name order and
    overwrites the chosen line with same-length garbage — invalid JSON
    that keeps every other line's byte offsets intact, exactly the
    mid-file damage a torn disk write or truncated transfer leaves.
    Returns whether a line was corrupted (False: fewer than ``at``
    lines exist).
    """
    seen = 0
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return False
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(root, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            continue
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            seen += 1
            if seen == at:
                lines[i] = "x" * max(1, len(line.rstrip("\n"))) + "\n"
                atomic_write_text(path, "".join(lines))
                _LOG.warning(
                    "fault injection: corrupted record line %d in %s", at, path
                )
                return True
    return False


class FaultInjector:
    """The in-process half: counts trials, fires armed faults.

    Constructed once per shard run from whatever specs target *this*
    shard on *this* attempt; everything else filters out up front so
    the per-trial hook is an increment and a tuple scan.  ``kill``
    SIGKILLs the process (no cleanup, no atexit — the hard death the
    fabric must survive), ``hang`` stops progress without exiting (the
    heartbeat-timeout case), ``delay`` stalls once and continues (the
    slow-worker case), and ``corrupt`` damages the written cache root
    after the run (the torn-export case, applied via :meth:`on_exit`).
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        shard_index: int,
        attempt: int = 1,
    ):
        self.shard_index = shard_index
        self.attempt = attempt
        self._armed = tuple(
            spec
            for spec in specs
            if spec.shard == shard_index and attempt in spec.attempts
        )
        self._trials = 0
        self._fired: set[FaultSpec] = set()

    @property
    def active(self) -> bool:
        return bool(self._armed)

    def on_trial(self) -> None:
        """Hook after each completed trial (cache hits included)."""
        if not self._armed:
            return
        self._trials += 1
        for spec in self._armed:
            if spec.mode == "corrupt" or spec in self._fired:
                continue
            if self._trials != spec.at:
                continue
            self._fired.add(spec)
            _LOG.warning(
                "fault injection: %s on shard %d at trial %d (attempt %d)",
                spec.mode, self.shard_index, self._trials, self.attempt,
            )
            if spec.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.mode in ("hang", "delay"):
                time.sleep(spec.seconds)

    def on_exit(self, roots: Sequence[str]) -> None:
        """Hook after the shard run wrote its roots: apply corruption."""
        for spec in self._armed:
            if spec.mode != "corrupt" or spec in self._fired:
                continue
            self._fired.add(spec)
            for root in roots:
                if corrupt_jsonl(root, spec.at):
                    break
