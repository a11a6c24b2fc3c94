"""Backend selection for the vectorized kernel layer.

The kernel layer gives the hot loops over the frozen CSR tables —
BFS/distances, the ne-LCL verifier passes, whole SyncEngine rounds of
node programs that ship an array twin, and every anchor scan of the
deterministic sinkless solver as one batched pass — a second,
numpy-backed implementation that works array-at-a-time instead of one
Python index at a time.  The object-layer implementations stay exactly
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
* ``auto`` — vector when numpy is importable *and* the instance clears
  :data:`AUTO_THRESHOLD` nodes (below that, per-call numpy overhead
  beats the win).

numpy is an optional extra (``pip install -e .[fast]``).  Without it,
every mode degrades to the object layer — ``vector`` logs a one-time
warning — so a stdlib-only install stays fully functional.
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "AUTO_THRESHOLD",
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

#: ``auto`` picks the vector backend at or above this many nodes.  The
#: crossover is flat and forgiving: numpy per-call overhead is ~tens of
#: microseconds, object-layer loops are ~100ns/element, so anywhere in
#: the few-hundreds is fine.
AUTO_THRESHOLD = 256

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

    A parent that only dispatches chunks never runs a trial, so without
    this every forked worker pays these imports again inside its first
    solve or verify.  ``numpy.ma`` is listed because numpy imports it
    lazily, on the first ``np.unique`` call without index outputs.  A
    no-op for ``object`` and when numpy is absent.
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


def select_backend(mode: str, graph: Any = None) -> str:
    """Resolve a user-facing mode to the concrete backend for one trial.

    ``graph`` feeds the ``auto`` size threshold; pass None to make
    ``auto`` decide on numpy availability alone.
    """
    global _WARNED_NO_NUMPY
    ensure_mode(mode)
    if mode == "object":
        return "object"
    if not HAVE_NUMPY:
        if not _WARNED_NO_NUMPY:
            _WARNED_NO_NUMPY = True
            _LOG.warning(
                "numpy is not importable; kernels degrade to the object "
                "layer (install the [fast] extra for vectorized kernels)"
            )
        return "object"
    if mode == "vector":
        return "vector"
    if graph is not None and graph.num_nodes < AUTO_THRESHOLD:
        return "object"
    return "vector"


def vector_enabled() -> bool:
    """True when call sites should dispatch to the vector kernels.

    This is the one check every dispatch prologue performs; it is
    deliberately just the ambient flag plus the import guard, so the
    per-call cost on the object path stays at two attribute reads.
    """
    return HAVE_NUMPY and current_backend() == "vector"


def prepared_verify(prepared: Any, outputs: Any):
    """``prepared.verify(outputs)`` through the ambient backend.

    With the vector backend active, a vectorized twin of the
    :class:`~repro.lcl.verifier.PreparedVerifier` skeleton is built
    (and cached on the prepared instance) and evaluated instead; its
    verdict is bit-identical, violations included.
    """
    if vector_enabled():
        from repro.kernels.verifier import vector_prepared

        return vector_prepared(prepared).verify(outputs)
    return prepared.verify(outputs)
