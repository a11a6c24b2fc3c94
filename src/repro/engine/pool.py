"""Batch dispatch in which the caller is one of the workers, with a
guaranteed serial fallback.

:func:`run_task_batches` maps a top-level function over a list of
picklable batch payloads and streams results back **in batch order**,
so downstream aggregation sees results in task order regardless of
worker count — that is what makes ``workers=1`` and ``workers=4``
bit-identical.

The caller is one of the ``workers``.  Each dispatch starts
``min(workers, len(batches)) - 1`` helper processes, forked where the
platform supports it (``spawn`` elsewhere), and all of them share one
lock-guarded window ``[lo, hi)`` of unclaimed batch indices: helpers
claim from the front, the caller from the back.  Callers order their
batches largest-first, so the caller runs the smallest ones itself,
reading each helper's one-way result pipe between them.  Only results
cross a pipe, one per batch a helper runs.  Since the caller keeps its
process-wide state from one dispatch to the next, as a serial run
does, a forked helper starts with everything the caller holds so far
(copy-on-write), and caches warmed by earlier dispatches are warm
in every helper.  Inheriting the caller's pages also makes them count
in each helper's RSS, which is why the caller takes the small batches:
the large ones are built and solved in helpers, and the instances a
helper builds reach the caller only inside its results (the engine's
chunk results carry them home).

Every helper runs :func:`_worker_init` first.  It reseeds the global
``random`` module from a per-helper derivation of the pool seed.  Trial
determinism never relies on that — each trial carries its own seed and
builds its own generators — but it closes the classic fork bug where
all children inherit one duplicated global RNG state.  It also starts a
watcher thread that ends the helper as soon as its parent is gone, so a
parent killed by SIGKILL does not leave its helpers running, and makes
the helper ignore SIGINT: an interrupt is the caller's to handle.  On
every way out of a dispatch — return, exception, interrupt — the caller
kills each helper still alive and joins them all, so no helper outlives
the call, and ``RUSAGE_CHILDREN`` counts every helper's CPU time and
peak RSS.

When ``workers <= 1``, there is only one batch, or the platform cannot
run helpers (no named semaphores for the window's lock, unpicklable
payloads), execution degrades to a plain serial loop with identical
semantics.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import random
import signal
import threading
import traceback
from multiprocessing.connection import wait as wait_for
from typing import Any, Callable, Sequence

from repro.obs import get_telemetry

__all__ = ["WorkerCrashed", "default_workers", "run_task_batches"]

_LOG = logging.getLogger("repro.engine")

# Derivation salt for per-worker global-RNG reseeding (mirrors
# repro.util.rng's golden-ratio mixing).
_WORKER_SALT = 0x9E3779B97F4A7C15

#: How long the caller waits for the window's lock, or for a result,
#: before it checks whether a helper died holding the lock.  A claim
#: holds the lock for a few bytecodes, so only a dead holder keeps it.
_LOCK_PATIENCE_S = 1.0

#: Stands in for a batch whose helper died before sending its result.
_LOST = object()


class WorkerCrashed(RuntimeError):
    """A helper process died mid-batch (signal, OOM kill, hard exit).

    Distinct from a task *raising*: an exception propagates as itself,
    while a vanished process can only be observed from the outside.  A
    dead helper loses only the batch it held: the caller and the other
    helpers run the rest, and every batch that completed was streamed
    through ``on_result`` first, in order.  ``chunk_indices`` are the
    batch positions whose results were lost, so a caller that persists
    results as they arrive retries exactly the lost chunks.
    """

    def __init__(self, chunk_indices: Sequence[int], message: str | None = None):
        self.chunk_indices = tuple(int(i) for i in chunk_indices)
        super().__init__(
            message
            or (
                f"a worker process died; {len(self.chunk_indices)} "
                f"chunk(s) lost: {list(self.chunk_indices)}"
            )
        )


def default_workers() -> int:
    """A conservative worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _context() -> multiprocessing.context.BaseContext:
    """The start method helpers use: fork where available, else spawn."""
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )


def _exit_with(
    parent: multiprocessing.process.BaseProcess,
) -> None:  # pragma: no cover - runs in child
    parent.join()  # returns once the parent process is gone
    os._exit(1)


def _worker_init(pool_seed: int) -> None:  # pragma: no cover - runs in child
    # A parent killed outright never ends its helpers itself, and a
    # helper would run its batch and then send into a pipe nobody reads.
    threading.Thread(
        target=_exit_with, args=(multiprocessing.parent_process(),), daemon=True
    ).start()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    mixed = (pool_seed * 0x100000001B3 + os.getpid() * _WORKER_SALT)
    mixed &= 0xFFFFFFFFFFFFFFFF
    random.seed(mixed ^ (mixed >> 33))
    # A forked helper inherits the caller's accrued telemetry and any
    # open trace sink.  Drop both: the caller snapshots its own deltas
    # itself (inheriting them here would double-count on merge), and a
    # trace file gets exactly one writer.
    telemetry = get_telemetry()
    telemetry.detach_sink()
    telemetry.reset()


def _claim_front(lock: Any, window: Any) -> int | None:  # pragma: no cover - runs in child
    """A helper's claim: the lowest unclaimed index, or None when done."""
    with lock:
        lo, hi = window
        if lo >= hi:
            return None
        window[0] = lo + 1
        return lo


def _portable(err: Exception) -> Exception:  # pragma: no cover - runs in child
    """``err`` if it survives a pickle round trip, else a RuntimeError
    with its type and message (an exception whose ``__init__`` takes
    other arguments than its ``args`` cannot be rebuilt by the caller)."""
    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
    return err


class _RemoteTraceback(Exception):
    """A helper's formatted traceback, chained as the cause of the
    exception it sent back (a pickled exception loses its own)."""


def _helper(
    fn: Callable[[Any], Any],
    batches: Sequence[Any],
    lock: Any,
    window: Any,
    conn: Any,
    pool_seed: int,
) -> None:  # pragma: no cover - runs in child
    """Claim batches from the front of the window until it is empty,
    sending ``(index, False, result)`` or ``(index, True, (exception,
    traceback text))`` for each."""
    _worker_init(pool_seed)
    with conn:
        while (index := _claim_front(lock, window)) is not None:
            try:
                conn.send((index, False, fn(batches[index])))
            except Exception as err:  # the task raised, or its result does not pickle
                # Nothing past a failure is delivered, so nobody claims it.
                with lock:
                    window[1] = min(window[1], index)
                conn.send((index, True, (_portable(err), traceback.format_exc())))


def _serial_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    out = []
    for i, task in enumerate(tasks):
        result = fn(task)
        out.append(result)
        if on_result is not None:
            on_result(i, result)
    return out


def _parallel_viable(fn: Callable[[Any], Any], probe: Any) -> bool:
    try:
        pickle.dumps(fn)
        pickle.dumps(probe)
    except Exception:
        return False
    return True


def _end(procs: Sequence[multiprocessing.process.BaseProcess]) -> None:
    """Kill every helper still alive, then join them all."""
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    for proc in procs:
        proc.join()


def run_task_batches(
    fn: Callable[[Any], Any],
    batches: Sequence[Any],
    workers: int = 1,
    pool_seed: int = 0,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Apply ``fn`` to coarse batch payloads, streaming completions.

    The batch entry point for callers that already grouped their work
    into chunks: each batch a helper runs is one result sent back (no
    second-level chunking on top of the caller's), and results stream
    in ascending batch order, so ``on_result(index, result)`` fires as
    each batch is in instead of after the whole map.  The returned list
    is in batch order at any worker count.  This process runs batches
    too, claiming from the back, so hand the batches over largest-first.
    The parallel path needs an importable module-level ``fn`` and
    picklable batches; anything else, like a platform without named
    semaphores, degrades to a serial loop where ``on_result`` fires
    after each batch just the same.

    Failure semantics are typed.  A *task exception* (a verifier
    rejecting, a solver crashing) propagates as itself, at the point
    the failed batch would have been delivered, after every earlier
    batch; no batch past it is started once it is seen.  A *helper
    process dying* (SIGKILL, OOM) loses only the batch it held: the
    rest still run and are delivered through ``on_result``, in order,
    and then :class:`WorkerCrashed` names exactly the lost batch
    indices, so callers persisting as they go only ever retry the lost
    chunks.
    """
    batches = list(batches)
    telemetry = get_telemetry()
    telemetry.incr("pool.batches_dispatched", len(batches))
    if workers <= 1 or len(batches) <= 1:
        return _serial_map(fn, batches, on_result)
    if not _parallel_viable(fn, batches[0]):
        telemetry.incr("pool.serial_fallbacks")
        return _serial_map(fn, batches, on_result)
    ctx = _context()
    try:
        lock = ctx.Lock()
        window = ctx.RawArray("q", [0, len(batches)])
    except (ImportError, NotImplementedError, OSError):
        # No named semaphores on this platform (ImportError from
        # multiprocessing.synchronize, or a failing sem_open).
        telemetry.incr("pool.serial_fallbacks")
        _LOG.debug("no process helpers here; %d batch(es) run serially", len(batches))
        return _serial_map(fn, batches, on_result)
    out, lost = _dispatch(
        ctx, lock, window, fn, batches, min(workers, len(batches)) - 1,
        pool_seed, on_result,
    )
    if lost:
        telemetry.incr("pool.worker_crashes")
        telemetry.incr("pool.chunks_lost", len(lost))
        _LOG.warning(
            "worker process died: %d/%d batch(es) lost (%s)",
            len(lost), len(batches), lost,
        )
        raise WorkerCrashed(lost)
    return out


def _dispatch(
    ctx: multiprocessing.context.BaseContext,
    lock: Any,
    window: Any,
    fn: Callable[[Any], Any],
    batches: list[Any],
    helpers: int,
    pool_seed: int,
    on_result: Callable[[int, Any], None] | None,
) -> tuple[list[Any], list[int]]:
    """Run ``batches`` on ``helpers`` helper processes and this one;
    returns the results delivered, in batch order, and the indices lost
    to dead helpers.  Raises a task exception at its batch's turn, and
    ends every helper on the way out."""
    procs: list[multiprocessing.process.BaseProcess] = []
    readers: list[Any] = []
    # index -> (failed, result or exception), or _LOST
    results: dict[int, Any] = {}
    out: list[Any] = []
    delivered = 0
    lock_lost = False

    def claim_back() -> int | None:
        # The caller's claim: the highest unclaimed index, or None.
        nonlocal lock_lost
        held = False
        while not (held or lock_lost):
            held = lock.acquire(timeout=_LOCK_PATIENCE_S)
            if not held and any(proc.exitcode not in (None, 0) for proc in procs):
                # A helper killed inside its claim took the lock with
                # it, and the other helpers wait on it forever: end
                # them all and finish the window alone.
                _LOG.warning("a pool helper died holding the batch lock")
                _end(procs)
                lock_lost = True
        try:
            lo, hi = window
            if lo >= hi:
                return None
            window[1] = hi - 1
            return hi - 1
        finally:
            if held:
                lock.release()

    def drain(timeout: float) -> bool:
        # Store what the helpers sent; False if nothing came in time.
        ready = wait_for(readers, timeout)
        came = bool(ready)
        while ready:
            for reader in ready:
                try:
                    index, failed, value = reader.recv()
                except EOFError:  # the helper is gone
                    readers.remove(reader)
                    reader.close()
                    continue
                if failed:
                    value, remote = value
                    value.__cause__ = _RemoteTraceback(remote)
                results[index] = (failed, value)
            ready = wait_for(readers, 0)
        return came

    def deliver() -> None:
        nonlocal delivered
        while delivered in results:
            entry = results.pop(delivered)
            if entry is not _LOST:
                failed, value = entry
                if failed:
                    raise value
                out.append(value)
                if on_result is not None:
                    on_result(delivered, value)
            delivered += 1

    try:
        for _ in range(helpers):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            with writer:  # the helper holds the only write end
                proc = ctx.Process(
                    target=_helper,
                    args=(fn, batches, lock, window, writer, pool_seed),
                )
                proc.start()
            procs.append(proc)
        while (index := claim_back()) is not None:
            try:
                results[index] = (False, fn(batches[index]))
            except Exception as err:
                results[index] = (True, err)
            drain(0)
            deliver()
        while readers:
            if not drain(_LOCK_PATIENCE_S):
                claim_back()  # ends the helpers if the lock died with one
            deliver()
        # Every helper is gone: what never came back was lost (or is
        # past a failure, which deliver() raises at first).
        lost = [i for i in range(delivered, len(batches)) if i not in results]
        for i in lost:
            results[i] = _LOST
        deliver()
        return out, lost
    finally:
        _end(procs)
        for reader in readers:
            reader.close()
