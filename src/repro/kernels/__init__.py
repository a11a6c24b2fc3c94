"""The vectorized kernel layer, and the backend each trial runs on.

The kernel layer gives the hot loops over the frozen CSR tables —
the ne-LCL verifier passes, whole SyncEngine rounds of node programs
run with an array twin, every anchor scan of the deterministic
sinkless solver as one batched pass, and the gadget layer's
structural checks, components and center distances as one pass per
scope (:mod:`repro.kernels.gadgets`) — a second, numpy-backed
implementation that works array-at-a-time instead of one Python index
at a time.  The object-layer implementations stay exactly
as they were and remain the differential-testing oracle: for every
kernel, ``vector`` and ``object`` produce bit-identical results (the
property suite in ``tests/test_kernels.py`` pins this on random
multigraphs including self-loops and parallel edges, and on perturbed
gadgets).

The platform picks the backend.  :data:`BACKENDS` holds the backends
this process can run: ``object`` always, and ``vector`` whenever numpy
imports (the optional ``[fast]`` extra).  Every trial runs on
:data:`DEFAULT_BACKEND` — ``vector`` when it can run, at every
instance size, since whole trials of the canonical cells run faster
on it even at 64 and 128 nodes (the ``small_trials`` rows of
``benchmarks/bench_vector_kernels.py``) — and on ``object`` otherwise,
so a stdlib-only install runs the same records without a word.  Only
tests and benchmarks name a backend: ``TrialBatch(kernels="object")``
runs the oracle.

Selection is *ambient*: call sites check :func:`vector_enabled`, and
the trial driver establishes its backend with :func:`active` around
each trial's solve and verify.  Naming a backend outside
:data:`BACKENDS` is a ``ValueError``: nothing degrades.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "HAVE_NUMPY",
    "active",
    "current_backend",
    "preload",
    "prepared_verify",
    "vector_enabled",
]

try:  # pragma: no cover - exercised via both CI environments
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except Exception:  # pragma: no cover
    HAVE_NUMPY = False

#: The backends this process can run.
BACKENDS = ("object", "vector") if HAVE_NUMPY else ("object",)
#: The backend every trial runs on unless a test names the oracle.
DEFAULT_BACKEND = "vector" if HAVE_NUMPY else "object"

_STATE = threading.local()


def preload() -> None:
    """Import the vector backend now, so processes forked later inherit it.

    A dispatch forks its pool helpers before the dispatching process
    runs its own first trial, so without this every forked helper pays
    these imports again inside its first solve or verify.  ``numpy.ma``
    is listed because numpy imports it lazily, on the first
    ``np.unique`` call without index outputs.  A no-op when numpy is
    absent.
    """
    if not HAVE_NUMPY:
        return
    import numpy.ma  # noqa: F401

    from repro.kernels import engine, gadgets, programs, vector, verifier  # noqa: F401


def current_backend() -> str:
    """The ambient backend of this thread: ``object`` unless a driver
    established ``vector`` via :func:`active`."""
    return getattr(_STATE, "backend", "object")


@contextmanager
def active(backend: str) -> Iterator[None]:
    """Establish ``backend``, one of :data:`BACKENDS`, for the dynamic
    extent of a trial.  The previous backend is restored on exit, so
    nested trials compose."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend {backend!r} cannot run here (choose from "
            f"{', '.join(BACKENDS)})"
        )
    previous = current_backend()
    _STATE.backend = backend
    try:
        yield
    finally:
        _STATE.backend = previous


def vector_enabled() -> bool:
    """True when call sites should dispatch to the vector kernels.

    This is the one check every dispatch prologue performs; it is
    deliberately just the ambient flag (:func:`active` establishes
    ``vector`` only where numpy imports), so the per-call cost on the
    object path stays at one attribute read.
    """
    return current_backend() == "vector"


def prepared_verify(prepared: Any, outputs: Any):
    """``prepared.verify(outputs)`` on a kept
    :class:`~repro.kernels.verifier.VectorPreparedVerifier`: the trial
    driver's one call into it, which ``perfbench/layers.py`` times."""
    return prepared.verify(outputs)
