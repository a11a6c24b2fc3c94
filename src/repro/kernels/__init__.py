"""Backend selection for the vectorized kernel layer.

The kernel layer gives the hot loops over the frozen CSR tables —
the ne-LCL verifier passes, whole SyncEngine rounds of node programs
that ship an array twin, and every anchor scan of the deterministic
sinkless solver as one batched pass — a second, numpy-backed
implementation that works array-at-a-time instead of one Python index
at a time.  The object-layer implementations stay exactly
as they were and remain the differential-testing oracle: for every
kernel, ``vector`` and ``object`` produce bit-identical results (the
property suite in ``tests/test_kernels.py`` pins this on random
multigraphs including self-loops and parallel edges).

Selection is *ambient*: call sites check :func:`vector_enabled` and the
trial drivers establish the backend with :func:`active` around each
trial's solve+verify, after resolving the user-facing mode with
:func:`select_backend`:

* ``object`` — always the pure-Python object layer;
* ``vector`` — the numpy kernels whenever numpy is importable;
* ``auto`` (the default) — the same as ``vector``, at every instance
  size: whole trials (solve and verify) of the canonical cells run
  faster on the vector kernels even at 64 and 128 nodes (the
  ``small_trials`` rows of ``benchmarks/bench_vector_kernels.py``).

numpy is an optional extra (``pip install -e .[fast]``).  Without it,
every mode degrades to the object layer — only an explicit ``vector``
request logs a one-time warning — so a stdlib-only install stays fully
functional.
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "BACKENDS",
    "HAVE_NUMPY",
    "active",
    "current_backend",
    "ensure_mode",
    "preload",
    "prepared_verify",
    "select_backend",
    "vector_enabled",
]

_LOG = logging.getLogger("repro.kernels")

try:  # pragma: no cover - exercised via both CI environments
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except Exception:  # pragma: no cover
    HAVE_NUMPY = False

#: The user-facing kernel modes, in CLI order.
BACKENDS = ("auto", "vector", "object")

_STATE = threading.local()
_WARNED_NO_NUMPY = False


def ensure_mode(mode: str) -> str:
    """Validate a user-facing kernel mode, returning it unchanged."""
    if mode not in BACKENDS:
        raise ValueError(
            f"unknown kernels mode {mode!r} (choose from {', '.join(BACKENDS)})"
        )
    return mode


def preload(mode: str) -> None:
    """Import the vector backend now, so processes forked later inherit it.

    A dispatch forks its pool helpers before the dispatching process
    runs its own first trial, so without this every forked helper pays
    these imports again inside its first solve or verify.  ``numpy.ma``
    is listed because numpy imports it lazily, on the first
    ``np.unique`` call without index outputs.  A no-op for ``object``
    and when numpy is absent.
    """
    if ensure_mode(mode) == "object" or not HAVE_NUMPY:
        return
    import numpy.ma  # noqa: F401

    from repro.kernels import engine, programs, vector, verifier  # noqa: F401


def current_backend() -> str:
    """The ambient backend of this thread: ``object`` unless a driver
    established ``vector`` via :func:`active`."""
    return getattr(_STATE, "backend", "object")


@contextmanager
def active(backend: str) -> Iterator[None]:
    """Establish a concrete backend for the dynamic extent of a trial.

    ``backend`` must be concrete (``object`` or ``vector``) — resolve
    ``auto`` with :func:`select_backend` first.  The previous backend is
    restored on exit, so nested trials compose.
    """
    if backend not in ("object", "vector"):
        raise ValueError(f"active() needs a concrete backend, not {backend!r}")
    previous = current_backend()
    _STATE.backend = backend
    try:
        yield
    finally:
        _STATE.backend = previous


def select_backend(mode: str) -> str:
    """Resolve a user-facing mode to the concrete backend for one trial.

    ``object`` stays ``object``; ``vector`` and ``auto`` resolve to
    ``vector`` whenever numpy is importable and to ``object`` otherwise.
    Only an explicit ``vector`` request warns (once per process) that it
    was degraded.
    """
    global _WARNED_NO_NUMPY
    if ensure_mode(mode) == "object":
        return "object"
    if HAVE_NUMPY:
        return "vector"
    if mode == "vector" and not _WARNED_NO_NUMPY:
        _WARNED_NO_NUMPY = True
        _LOG.warning(
            "numpy is not importable; kernels degrade to the object "
            "layer (install the [fast] extra for vectorized kernels)"
        )
    return "object"


def vector_enabled() -> bool:
    """True when call sites should dispatch to the vector kernels.

    This is the one check every dispatch prologue performs; it is
    deliberately just the ambient flag plus the import guard, so the
    per-call cost on the object path stays at two attribute reads.
    """
    return HAVE_NUMPY and current_backend() == "vector"


def prepared_verify(prepared: Any, outputs: Any):
    """``prepared.verify(outputs)`` on a kept
    :class:`~repro.kernels.verifier.VectorPreparedVerifier`: the trial
    driver's one call into it, which ``perfbench/layers.py`` times."""
    return prepared.verify(outputs)
