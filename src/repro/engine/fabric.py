"""The fault-tolerant shard fabric: leases, retries, liveness, degradation.

PR 5 made shards mergeable; this module makes them *survivable*.  A
:func:`run_fabric` call drives every shard of a plan file across real
``run-shard`` subprocesses and owns the whole failure surface:

* **leases** — a :class:`LeaseBoard` persisted as JSON next to the
  plan records, per shard, who is running it, which attempt, and until
  when.  Every transition is written atomically, so a launcher that
  dies mid-run restarts from the board: finished shards stay finished,
  expired leases are reclaimed, and nothing runs twice by accident.
  (Running twice is *safe* — trials are content-hashed and the merge
  is idempotent — the lease exists to avoid paying for it.)
* **retry with backoff** — failed attempts reschedule after an
  exponential, jittered delay (:class:`BackoffPolicy`) up to a
  per-shard attempt cap.  Because ``run_shard`` persists each chunk as
  it completes, a retry recomputes only what the previous attempt
  actually lost.
* **liveness** — each shard publishes the PR 6 telemetry heartbeat
  (:mod:`repro.obs.heartbeat`); a shard whose beat stops advancing past
  the timeout is declared hung, its process group killed, its lease
  revoked, and the shard rescheduled like any other failure.
* **verification** — exit 0 is not taken on faith: the launcher probes
  every trial key the shard owed against its written root, so a
  corrupted or truncated export is just another failed attempt.
* **graceful degradation** — when a shard exhausts its attempts the
  fabric still merges every surviving record (including the failed
  shard's durable partial progress), writes a machine-readable **gap
  manifest** naming exactly the missing trial indices per spec, and
  reports failure — never a traceback, never a silent half-result.

The injected-fault counterpart lives in :mod:`repro.engine.faults`;
the CLI front end is ``python -m repro.engine fabric``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import signal
import subprocess
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine.cache import TrialCache
from repro.engine.faults import ENV_ATTEMPT, ENV_FAULTS, FaultSpec
from repro.engine.remote import ExecTarget, assign_targets, shard_context
from repro.engine.runner import EngineReport, run_experiment
from repro.engine.shard import ShardPlan, coverage_gaps, load_plan_file, shard_coverage
from repro.obs import LivenessMonitor, get_telemetry
from repro.util.fsio import atomic_write_text

_LOG = logging.getLogger("repro.engine")

__all__ = [
    "BackoffPolicy",
    "FabricResult",
    "GAP_MANIFEST_VERSION",
    "LEASE_VERSION",
    "Lease",
    "LeaseBoard",
    "ShardOutcome",
    "fabric_key",
    "run_fabric",
]

LEASE_VERSION = 1
GAP_MANIFEST_VERSION = 1

# Lease states.  pending -> leased -> done, or back to pending on a
# retryable failure, or failed once attempts are exhausted.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
_STATES = (PENDING, LEASED, DONE, FAILED)


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with jitter and a per-shard attempt cap.

    ``delay(attempt)`` is the pause after the ``attempt``-th failure
    (1-based): ``base * factor**(attempt-1)`` capped at ``max_delay``,
    stretched by up to ``jitter`` (a fraction) of itself — jitter keeps
    K shards that failed together from re-arriving together.  Pass a
    seeded ``rng`` for reproducible schedules; None means no jitter.
    """

    base: float = 0.5
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1 or self.max_delay < self.base:
            raise ValueError(
                f"backoff needs base > 0, factor >= 1, max_delay >= base "
                f"(got base={self.base}, factor={self.factor}, "
                f"max_delay={self.max_delay})"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter is a fraction in [0, 1], got {self.jitter}")
        if self.max_attempts < 1:
            raise ValueError(f"need >= 1 attempt, got {self.max_attempts}")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        if attempt < 1:
            raise ValueError(f"attempts are 1-based, got {attempt}")
        raw = min(self.max_delay, self.base * self.factor ** (attempt - 1))
        if rng is not None and self.jitter:
            raw *= 1.0 + self.jitter * rng.random()
        return raw

    def schedule(self, rng: random.Random | None = None) -> list[float]:
        """The delays between the ``max_attempts`` attempts, in order."""
        return [self.delay(k, rng) for k in range(1, self.max_attempts)]


@dataclass
class Lease:
    """One shard's slot on the board: state, owner, attempt count, deadline."""

    shard_index: int
    state: str = PENDING
    attempts: int = 0
    owner: str | None = None
    acquired_at: float | None = None
    deadline: float | None = None
    cause: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard_index": self.shard_index,
            "state": self.state,
            "attempts": self.attempts,
            "owner": self.owner,
            "acquired_at": self.acquired_at,
            "deadline": self.deadline,
            "cause": self.cause,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Lease":
        lease = cls(
            shard_index=int(payload["shard_index"]),
            state=payload["state"],
            attempts=int(payload.get("attempts", 0)),
            owner=payload.get("owner"),
            acquired_at=payload.get("acquired_at"),
            deadline=payload.get("deadline"),
            cause=payload.get("cause"),
        )
        if lease.state not in _STATES:
            raise ValueError(f"unknown lease state {lease.state!r}")
        return lease


class LeaseBoard:
    """The persisted shard -> lease map; every transition hits disk.

    One JSON file (atomic replace) next to the plan is the single
    source of truth for "who owns which shard, how many attempts has
    it burned, which shards are finished".  The board is pinned to a
    ``fabric_key`` (a content hash of the plan file's spec plans), so a
    board can never be replayed against a different partition, exactly
    like shard reports refuse foreign ``plan_key``\\ s.

    The wall clock is injectable for tests; deadlines use wall time
    (not monotonic) because expiry must be judged by a *different*
    process after a restart.  One launcher per board at a time is
    assumed — the lease protocol protects work, not the board file.
    """

    def __init__(
        self,
        path: str,
        fabric_key: str,
        num_shards: int,
        clock: Callable[[], float] = time.time,
    ):
        if num_shards < 1:
            raise ValueError(f"a board needs >= 1 shard, got {num_shards}")
        self.path = path
        self.fabric_key = fabric_key
        self.num_shards = num_shards
        self._clock = clock
        self.leases: dict[int, Lease] = {
            i: Lease(shard_index=i) for i in range(num_shards)
        }

    # -- persistence ---------------------------------------------------

    def save(self) -> None:
        payload = {
            "version": LEASE_VERSION,
            "fabric_key": self.fabric_key,
            "num_shards": self.num_shards,
            "updated_at": self._clock(),
            "leases": [
                self.leases[i].as_dict() for i in range(self.num_shards)
            ],
        }
        atomic_write_text(self.path, json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str, clock: Callable[[], float] = time.time) -> "LeaseBoard":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != LEASE_VERSION:
            raise ValueError(
                f"unsupported lease-board version {payload.get('version')!r} "
                f"(this build reads version {LEASE_VERSION})"
            )
        board = cls(
            path,
            payload["fabric_key"],
            int(payload["num_shards"]),
            clock=clock,
        )
        for entry in payload["leases"]:
            lease = Lease.from_dict(entry)
            board.leases[lease.shard_index] = lease
        if sorted(board.leases) != list(range(board.num_shards)):
            raise ValueError(f"lease board {path!r} does not cover its shards")
        return board

    @classmethod
    def load_or_create(
        cls,
        path: str,
        fabric_key: str,
        num_shards: int,
        clock: Callable[[], float] = time.time,
    ) -> "LeaseBoard":
        """Resume an existing board or start a fresh one, pinned to the plan."""
        if os.path.isfile(path):
            board = cls.load(path, clock=clock)
            if board.fabric_key != fabric_key:
                raise ValueError(
                    f"lease board {path!r} belongs to a different plan "
                    "(fabric key mismatch); point --work-dir elsewhere or "
                    "delete the stale board"
                )
            if board.num_shards != num_shards:
                raise ValueError(
                    f"lease board {path!r} has {board.num_shards} shard(s), "
                    f"plan has {num_shards}"
                )
            return board
        board = cls(path, fabric_key, num_shards, clock=clock)
        board.save()
        return board

    # -- transitions ---------------------------------------------------

    def lease(self, shard_index: int) -> Lease:
        return self.leases[shard_index]

    def acquire(self, shard_index: int, owner: str, ttl: float) -> Lease:
        """pending (or expired-leased) -> leased; burns one attempt."""
        lease = self.leases[shard_index]
        now = self._clock()
        if lease.state == DONE:
            raise ValueError(f"shard {shard_index} is already done")
        if (
            lease.state == LEASED
            and lease.deadline is not None
            and lease.deadline > now
        ):
            raise ValueError(
                f"shard {shard_index} is leased to {lease.owner} for another "
                f"{lease.deadline - now:.1f}s"
            )
        lease.state = LEASED
        lease.owner = owner
        lease.attempts += 1
        lease.acquired_at = now
        lease.deadline = now + ttl
        lease.cause = None
        self.save()
        return lease

    def renew(self, shard_index: int, ttl: float) -> None:
        lease = self.leases[shard_index]
        if lease.state != LEASED:
            raise ValueError(f"shard {shard_index} is not leased ({lease.state})")
        lease.deadline = self._clock() + ttl
        self.save()

    def release(self, shard_index: int, outcome: str, cause: str | None = None) -> None:
        """leased -> done | pending (retryable) | failed (exhausted)."""
        lease = self.leases[shard_index]
        if outcome == "done":
            lease.state = DONE
        elif outcome == "retry":
            lease.state = PENDING
        elif outcome == "failed":
            lease.state = FAILED
        else:
            raise ValueError(f"unknown release outcome {outcome!r}")
        lease.owner = None
        lease.deadline = None
        lease.cause = cause
        self.save()

    def reclaim_expired(self) -> list[int]:
        """Expired leases (a dead launcher's) back to pending; attempts kept."""
        now = self._clock()
        reclaimed = []
        for lease in self.leases.values():
            if (
                lease.state == LEASED
                and lease.deadline is not None
                and lease.deadline <= now
            ):
                lease.state = PENDING
                lease.owner = None
                lease.deadline = None
                lease.cause = "lease expired"
                reclaimed.append(lease.shard_index)
        if reclaimed:
            self.save()
            get_telemetry().incr("fabric.leases_reclaimed", len(reclaimed))
        return reclaimed

    def reset_failed(self) -> list[int]:
        """failed -> pending, for an operator-requested retry round."""
        reset = []
        for lease in self.leases.values():
            if lease.state == FAILED:
                lease.state = PENDING
                reset.append(lease.shard_index)
        if reset:
            self.save()
        return reset

    # -- views ---------------------------------------------------------

    def in_state(self, state: str) -> list[int]:
        return sorted(i for i, lease in self.leases.items() if lease.state == state)


def fabric_key(experiment: str, plans: Sequence[ShardPlan]) -> str:
    """Content hash pinning a lease board to one plan file's partition."""
    payload = json.dumps(
        [experiment, [plan.key() for plan in plans]], separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class ShardOutcome:
    shard_index: int
    state: str
    attempts: int
    cause: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard_index": self.shard_index,
            "state": self.state,
            "attempts": self.attempts,
            "cause": self.cause,
        }


@dataclass
class FabricResult:
    """What one launcher invocation did, and what the plan now holds."""

    experiment: str
    fabric_key: str
    num_shards: int
    outcomes: list[ShardOutcome]
    #: Subprocesses started by THIS invocation (0 on a resumed,
    #: already-complete board).
    launched: int
    records_merged: int
    #: Replayed per-spec reports — only when the grid is complete.
    reports: list[EngineReport] | None
    #: The machine-readable hole list — only when it is not.
    gap_manifest: dict[str, Any] | None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.gap_manifest is None

    def summary(self) -> str:
        states: dict[str, int] = {}
        for outcome in self.outcomes:
            states[outcome.state] = states.get(outcome.state, 0) + 1
        state_note = ", ".join(
            f"{count} {state}" for state, count in sorted(states.items())
        )
        tail = "complete"
        if self.gap_manifest is not None:
            tail = (
                f"DEGRADED: {self.gap_manifest['trials_missing']} trial(s) "
                "missing (see gap manifest)"
            )
        return (
            f"fabric {self.experiment}: {self.num_shards} shard(s) "
            f"[{state_note}], {self.launched} launch(es), "
            f"{self.records_merged} record(s) merged in {self.elapsed:.2f}s — "
            f"{tail}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "fabric_key": self.fabric_key,
            "num_shards": self.num_shards,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "launched": self.launched,
            "records_merged": self.records_merged,
            "ok": self.ok,
            "gap_manifest": self.gap_manifest,
            "elapsed_s": round(self.elapsed, 4),
            "reports": (
                [report.as_dict() for report in self.reports]
                if self.reports is not None
                else None
            ),
        }


@dataclass
class _ShardProc:
    """Launcher-side state for one running shard subprocess."""

    shard_index: int
    attempt: int
    proc: subprocess.Popen
    heartbeat_path: str
    log_path: str
    root: str
    target: ExecTarget | None = None
    started: float = field(default=0.0)
    last_renew: float = field(default=0.0)


def _kill_tree(proc: subprocess.Popen) -> None:
    """SIGKILL the shard's whole process group (it may have pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.kill()
        except OSError:
            pass
    try:
        proc.wait(timeout=10.0)
    except (subprocess.TimeoutExpired, OSError):  # pragma: no cover - defensive
        pass


def _cause_from_log(log_path: str, returncode: int) -> str:
    """A one-line failure cause: the shard's structured error if it left one.

    ``run-shard --json-errors`` prints a final ``{"error": ...}`` line;
    a process that died before reaching its error handler (SIGKILL)
    leaves none, so the exit status is the fallback.
    """
    fallback = (
        f"killed by signal {-returncode}" if returncode < 0
        else f"exit code {returncode}"
    )
    try:
        with open(log_path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError:
        return fallback
    for line in reversed(lines):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and "error" in payload:
            error = payload["error"]
            detail = " ".join(
                f"{key}={error[key]}"
                for key in ("experiment", "shard", "cause", "message")
                if key in error
            )
            return detail or fallback
    return fallback


def _gap_manifest(
    experiment: str,
    key: str,
    board: LeaseBoard,
    plans: Sequence[ShardPlan],
    probe: TrialCache,
) -> dict[str, Any] | None:
    """The machine-readable hole list, or None when the grid is whole."""
    trials_total, trials_missing, specs = coverage_gaps(plans, probe.contains)
    if not trials_missing:
        return None
    return {
        "version": GAP_MANIFEST_VERSION,
        "experiment": experiment,
        "fabric_key": key,
        "num_shards": board.num_shards,
        "trials_total": trials_total,
        "trials_present": trials_total - trials_missing,
        "trials_missing": trials_missing,
        "failed_shards": [
            {
                "shard_index": i,
                "attempts": board.lease(i).attempts,
                "cause": board.lease(i).cause,
            }
            for i in board.in_state(FAILED)
        ],
        "specs": specs,
    }


def run_fabric(
    plan_path: str,
    cache_dir: str,
    work_dir: str | None = None,
    shard_workers: int = 1,
    max_parallel: int | None = None,
    heartbeat_timeout: float = 30.0,
    poll_interval: float = 0.1,
    backoff: BackoffPolicy | None = None,
    faults: Sequence[FaultSpec | str] = (),
    retry_failed: bool = False,
    python: str | None = None,
    targets: Sequence[ExecTarget | str] = (),
    kernels: str = "auto",
) -> FabricResult:
    """Drive every shard of a plan file to completion, or degrade loudly.

    The launcher loop: lease the next pending shard, spawn its
    :class:`~repro.engine.remote.ExecTarget` command for it (default
    ``local://``, i.e. ``python -m repro.engine run-shard`` with a
    private ``--cache-out`` root, heartbeat file, structured errors),
    watch heartbeats and exit codes, verify each "successful" shard
    actually wrote every trial it owed, and reschedule failures with
    exponential backoff until done or out of attempts.  State lives in
    ``work_dir`` (default: ``<plan_path>.fabric/``): the lease board,
    per-shard cache roots, heartbeat files, and per-attempt logs — a
    restarted launcher resumes from the board and relaunches nothing
    that finished.

    ``targets`` deals shards round-robin onto exec targets
    (:func:`~repro.engine.remote.assign_targets`); leases, heartbeat
    liveness, verification, and gap accounting are identical across
    targets, with two target-local additions: a target's
    ``concurrency`` caps its simultaneous shards under the global
    ``max_parallel``, and its ``timeout`` wall-clock-kills an attempt
    that outstays it (the hung-wrapper case a heartbeat may not catch
    when the wrapper never starts the shard at all).

    Afterward every shard root that exists — including a failed
    shard's partial output — merges into ``cache_dir``.  A complete
    grid replays into per-spec reports bit-identical to a single-host
    run; an incomplete one yields a gap manifest (also written to
    ``work_dir/gaps.json``) and ``result.ok == False``.

    ``faults`` forwards :mod:`repro.engine.faults` specs to every
    shard subprocess via the environment; the spec's shard index and
    the stamped attempt number decide where they fire.  Whenever a
    shard dies without exiting cleanly, the launcher kills its whole
    process group, so none of its pool workers outlive it.
    """
    if max_parallel is not None and max_parallel < 1:
        raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")
    start = time.perf_counter()
    telemetry = get_telemetry()
    with open(plan_path, "r", encoding="utf-8") as handle:
        experiment, plans = load_plan_file(json.load(handle))
    num_shards = plans[0].num_shards
    target_by_shard = assign_targets(num_shards, targets)
    if work_dir is None:
        work_dir = plan_path + ".fabric"
    os.makedirs(work_dir, exist_ok=True)
    key = fabric_key(experiment, plans)
    board = LeaseBoard.load_or_create(
        os.path.join(work_dir, "leases.json"), key, num_shards
    )
    reclaimed = board.reclaim_expired()
    if reclaimed:
        _LOG.warning(
            "reclaimed %d expired lease(s) from a previous launcher: %s",
            len(reclaimed), reclaimed,
        )
    if retry_failed:
        reset = board.reset_failed()
        if reset:
            _LOG.info("retrying previously failed shard(s): %s", reset)

    if backoff is None:
        backoff = BackoffPolicy()
    if max_parallel is None:
        max_parallel = min(num_shards, max(1, (os.cpu_count() or 2) // 2))
    lease_ttl = max(2.0 * heartbeat_timeout, 10.0)
    owner = f"fabric-{os.getpid()}"
    rng = random.Random(zlib.crc32(key.encode()))
    monitor = LivenessMonitor(heartbeat_timeout)
    fault_strings = [
        spec.spec_string() if isinstance(spec, FaultSpec) else str(spec)
        for spec in faults
    ]

    def shard_root(i: int) -> str:
        return os.path.join(work_dir, f"shard-{i}")

    def spawn(i: int, attempt: int) -> _ShardProc:
        target = target_by_shard[i]
        ctx = shard_context(
            plan_path,
            i,
            num_shards,
            cache_dir,
            work_dir,
            shard_workers=shard_workers,
            kernels=kernels,
            attempt=attempt,
            python=python,
        )
        heartbeat_path = ctx["heartbeat"]
        try:
            # A stale beat from a previous attempt must not look live.
            os.unlink(heartbeat_path)
        except OSError:
            pass
        log_path = os.path.join(work_dir, f"shard-{i}.attempt-{attempt}.log")
        cmd = target.command(ctx)
        env = os.environ.copy()
        env[ENV_ATTEMPT] = str(attempt)
        if fault_strings:
            env[ENV_FAULTS] = ";".join(fault_strings)
        # The shard must import the same repro tree the launcher runs.
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                cmd,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,  # its pool workers die with it
            )
        _LOG.info(
            "shard %d attempt %d: pid %d on %s", i, attempt, proc.pid, target.uri
        )
        return _ShardProc(
            shard_index=i,
            attempt=attempt,
            proc=proc,
            heartbeat_path=heartbeat_path,
            log_path=log_path,
            root=shard_root(i),
            target=target,
            started=time.monotonic(),
        )

    running: dict[int, _ShardProc] = {}
    not_before: dict[int, float] = {}
    launched = 0

    def attempt_failed(i: int, cause: str) -> None:
        attempts = board.lease(i).attempts
        if attempts >= backoff.max_attempts:
            board.release(i, "failed", cause)
            telemetry.incr("fabric.shards_failed")
            _LOG.error(
                "shard %d FAILED after %d attempt(s): %s", i, attempts, cause
            )
        else:
            board.release(i, "retry", cause)
            delay = backoff.delay(attempts, rng)
            not_before[i] = time.monotonic() + delay
            telemetry.incr("fabric.retries")
            _LOG.warning(
                "shard %d attempt %d failed (%s); retrying in %.2fs",
                i, attempts, cause, delay,
            )

    while True:
        now = time.monotonic()
        # -- reap and health-check running shards ----------------------
        for i, sp in list(running.items()):
            returncode = sp.proc.poll()
            if returncode is None:
                if (
                    sp.target is not None
                    and sp.target.timeout is not None
                    and now - sp.started > sp.target.timeout
                ):
                    _kill_tree(sp.proc)
                    running.pop(i)
                    monitor.forget(i)
                    telemetry.incr("fabric.target_timeouts")
                    attempt_failed(
                        i,
                        f"target timeout: exceeded {sp.target.timeout:.1f}s "
                        f"on {sp.target.uri}",
                    )
                    continue
                monitor.observe(i)
                if monitor.stale(i):
                    _kill_tree(sp.proc)
                    running.pop(i)
                    monitor.forget(i)
                    telemetry.incr("fabric.hangs_detected")
                    attempt_failed(
                        i,
                        f"hung: no heartbeat progress in "
                        f"{heartbeat_timeout:.1f}s",
                    )
                elif now - sp.last_renew > lease_ttl / 4.0:
                    board.renew(i, lease_ttl)
                    sp.last_renew = now
                continue
            running.pop(i)
            monitor.forget(i)
            if returncode == 0:
                # Probe the overlay the shard ran with (shared root +
                # private isolation root): trials it replayed from the
                # shared cache, and so never re-wrote, count as present.
                probe = TrialCache(cache_dir, isolation=sp.root)
                _owed, missing = shard_coverage(plans, i, probe.contains)
                if missing == 0:
                    board.release(i, "done")
                    telemetry.incr("fabric.shards_done")
                    _LOG.info(
                        "shard %d done (attempt %d)", i, sp.attempt
                    )
                else:
                    attempt_failed(
                        i,
                        f"incomplete export: {missing} trial(s) missing "
                        "after exit 0 (corrupt or torn output)",
                    )
            else:
                # Any death but a clean exit can leave the shard's pool
                # workers and resource tracker idling in its process
                # group.
                _kill_tree(sp.proc)
                attempt_failed(i, _cause_from_log(sp.log_path, returncode))
        # -- launch what's eligible ------------------------------------
        now = time.monotonic()
        for i in board.in_state(PENDING):
            if len(running) >= max_parallel:
                break
            if not_before.get(i, float("-inf")) > now:
                continue
            target = target_by_shard[i]
            if target.concurrency is not None:
                on_target = sum(
                    1
                    for sp in running.values()
                    if target_by_shard[sp.shard_index] is target
                )
                if on_target >= target.concurrency:
                    continue
            lease = board.acquire(i, owner, lease_ttl)
            sp = spawn(i, lease.attempts)
            launched += 1
            telemetry.incr("fabric.spawns")
            running[i] = sp
            monitor.watch(i, sp.heartbeat_path)
        if not running:
            pending = board.in_state(PENDING)
            if not pending:
                break  # every shard is done or failed
            # All pending shards are in their backoff window.
            wake = min(not_before.get(i, now) for i in pending)
            time.sleep(max(poll_interval, min(wake - now, 1.0)))
            continue
        time.sleep(poll_interval)

    # -- merge what survived -------------------------------------------
    destination = TrialCache(cache_dir)
    records_merged = 0
    for i in range(num_shards):
        root = shard_root(i)
        if os.path.isdir(root):
            records_merged += destination.merge(root)
    gap = _gap_manifest(experiment, key, board, plans, destination)
    reports: list[EngineReport] | None = None
    if gap is None:
        try:
            # A stale manifest from a previously degraded run must not
            # outlive the resume that filled its gaps.
            os.unlink(os.path.join(work_dir, "gaps.json"))
        except OSError:
            pass
        # Complete: the replay is pure cache hits, bit-identical to the
        # single-host run by the shard layer's merge theorem.
        reports = [
            run_experiment(
                plan.spec,
                workers=1,
                cache=destination,
                batch_size=plan.batch_size,
            )
            for plan in plans
        ]
    else:
        atomic_write_text(
            os.path.join(work_dir, "gaps.json"),
            json.dumps(gap, indent=2, sort_keys=True),
        )

    result = FabricResult(
        experiment=experiment,
        fabric_key=key,
        num_shards=num_shards,
        outcomes=[
            ShardOutcome(
                shard_index=i,
                state=board.lease(i).state,
                attempts=board.lease(i).attempts,
                cause=board.lease(i).cause,
            )
            for i in range(num_shards)
        ],
        launched=launched,
        records_merged=records_merged,
        reports=reports,
        gap_manifest=gap,
        elapsed=time.perf_counter() - start,
    )
    _LOG.info("%s", result.summary())
    return result
