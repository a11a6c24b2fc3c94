"""Process-pool batch dispatch with a guaranteed serial fallback.

:func:`run_task_batches` maps a top-level function over a list of
picklable batch payloads, one pickle/IPC round-trip per batch, and
streams results back **in batch order**, so downstream aggregation
sees results in task order regardless of worker count — that is what
makes ``workers=1`` and ``workers=4`` bit-identical.

Workers are forked where the platform supports it (``spawn``
elsewhere).  Every worker runs an initializer that reseeds the global
``random`` module from a per-worker derivation of the pool seed.
Trial determinism never relies on that — each trial carries its own
seed and builds its own generators — but it closes the classic fork
bug where all children inherit one duplicated global RNG state.  The
initializer also starts a watcher thread that ends the worker as soon
as its parent is gone, so a parent killed by SIGKILL does not leave
its workers running.

When ``workers <= 1``, there is only one batch, or the platform cannot
deliver a working process pool (no ``fork``/``spawn``, sandboxed
semaphores, unpicklable payloads), execution degrades to a plain
serial loop with identical semantics.
"""

from __future__ import annotations

import concurrent.futures
import logging
import multiprocessing
import os
import pickle
import random
import threading
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.obs import get_telemetry

__all__ = ["WorkerCrashed", "default_workers", "run_task_batches"]

_LOG = logging.getLogger("repro.engine")

# Derivation salt for per-worker global-RNG reseeding (mirrors
# repro.util.rng's golden-ratio mixing).
_WORKER_SALT = 0x9E3779B97F4A7C15


class WorkerCrashed(RuntimeError):
    """A pool worker process died mid-batch (signal, OOM kill, hard exit).

    Distinct from a task *raising*: an exception propagates as itself,
    while a vanished process can only be observed from the outside.
    ``chunk_indices`` are the batch positions whose results were lost;
    batches that completed before the crash were already streamed
    through ``on_result`` (and are not listed), so a caller that
    persists results as they arrive retries exactly the lost chunks.
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


def _exit_with(
    parent: multiprocessing.process.BaseProcess,
) -> None:  # pragma: no cover - runs in child
    parent.join()  # returns once the parent process is gone
    os._exit(1)


def _worker_init(pool_seed: int) -> None:  # pragma: no cover - runs in child
    # A parent killed outright never shuts its pool down, and a worker
    # would finish its chunk and then block on the call queue forever.
    threading.Thread(
        target=_exit_with, args=(multiprocessing.parent_process(),), daemon=True
    ).start()
    mixed = (pool_seed * 0x100000001B3 + os.getpid() * _WORKER_SALT)
    mixed &= 0xFFFFFFFFFFFFFFFF
    random.seed(mixed ^ (mixed >> 33))
    # A forked worker inherits the parent's accrued telemetry and any
    # open trace sink.  Drop both: the parent snapshots its own deltas
    # itself (inheriting them here would double-count on merge), and a
    # trace file gets exactly one writer.
    telemetry = get_telemetry()
    telemetry.detach_sink()
    telemetry.reset()


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


def _make_executor(workers: int, num_tasks: int, pool_seed: int):
    """A process-pool executor, or None when the platform has none.

    Only executor *creation* may trigger the serial fallback: an
    exception raised by a task itself must propagate, not cause a
    silent re-run.  ``concurrent.futures`` detects a worker process
    dying (it breaks the pool and fails pending futures), which is
    what lets :func:`run_task_batches` raise :class:`WorkerCrashed`.
    """
    try:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, num_tasks),
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(pool_seed,),
        )
    except (OSError, ValueError, NotImplementedError):
        # NotImplementedError: no named semaphores on this platform.
        return None


def run_task_batches(
    fn: Callable[[Any], Any],
    batches: Sequence[Any],
    workers: int = 1,
    pool_seed: int = 0,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Apply ``fn`` to coarse batch payloads, streaming completions.

    The batch entry point for callers that already grouped their work
    into chunks: each batch is exactly one pickle/IPC round-trip (no
    second-level chunking on top of the caller's), and results stream
    back in ascending batch order, so ``on_result(index, result)``
    fires as each batch completes instead of after the whole map.  The
    returned list is in batch order at any worker count.  The parallel
    path needs an importable module-level ``fn`` and picklable batches;
    anything else, like a platform without a working pool, degrades to
    a serial loop where ``on_result`` fires after each batch just the
    same.

    Failure semantics are typed.  A *task exception* (a verifier
    rejecting, a solver crashing) propagates as itself, at the point
    the failed batch would have been delivered.  A *worker process
    dying* (SIGKILL, OOM) raises :class:`WorkerCrashed` naming exactly
    the lost batch indices — results that finished before the crash
    are still delivered through ``on_result`` first, in order, so
    callers persisting as they go only ever retry the lost chunks.
    """
    batches = list(batches)
    telemetry = get_telemetry()
    telemetry.incr("pool.batches_dispatched", len(batches))
    if workers <= 1 or len(batches) <= 1:
        return _serial_map(fn, batches, on_result)
    if not _parallel_viable(fn, batches[0]):
        telemetry.incr("pool.serial_fallbacks")
        return _serial_map(fn, batches, on_result)
    executor = _make_executor(workers, len(batches), pool_seed)
    if executor is None:
        telemetry.incr("pool.serial_fallbacks")
        _LOG.debug("process pool unavailable; %d batch(es) run serially", len(batches))
        return _serial_map(fn, batches, on_result)
    out = []
    lost: list[int] = []
    with executor:
        futures = [executor.submit(fn, batch) for batch in batches]
        try:
            for i, future in enumerate(futures):
                try:
                    result = future.result()
                except (BrokenProcessPool, concurrent.futures.CancelledError):
                    # The pool broke under this future: its worker (or
                    # a sibling whose death tore down the pool)
                    # vanished.  Keep draining — later futures may
                    # have completed before the break, and salvaging
                    # them keeps the retry surface minimal.
                    lost.append(i)
                    continue
                out.append(result)
                if on_result is not None:
                    on_result(i, result)
        except BaseException:
            # A task raised (or the caller's on_result did): don't
            # compute the rest of the map just to discard it.
            executor.shutdown(wait=False, cancel_futures=True)
            raise
    if lost:
        telemetry.incr("pool.worker_crashes")
        telemetry.incr("pool.chunks_lost", len(lost))
        _LOG.warning(
            "worker process died: %d/%d batch(es) lost (%s)",
            len(lost), len(batches), lost,
        )
        raise WorkerCrashed(lost)
    return out
