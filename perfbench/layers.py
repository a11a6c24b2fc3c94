"""Per-layer probes: time each layer from outside, by wrapping its calls.

:func:`probed` swaps each target function for a timing wrapper in every
``repro`` module that binds it (``from x import f`` copies the binding,
so patching the defining module alone would miss callers), and restores
every binding on exit.  Wrappers record into the program's own
telemetry counters (``perfbench.<layer>.ns`` and ``.calls``), so the
times measured inside pool workers ride back to the parent on the chunk
results the runner already merges into ``EngineReport.telemetry``.
The pool forks its workers, which inherit the wrapped bindings.

A wrapper counts only the outermost call of its layer, so recursion and
layers that call themselves through a second entry point (a cache
``get`` inside ``contains``) are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Any, Callable, Iterator, Mapping

import harness

PREFIX = "perfbench."

#: (layer, module, attribute) — the public functions timed per layer.
#: Several targets may share a layer; their time adds up.
TARGETS = (
    ("problems.linial_params", "repro.problems.linial", "polynomial_family_params"),
    ("core.verify_padded", "repro.core.padded_problem", "verify_padded"),
    ("gadgets.prover", "repro.gadgets.prover", "run_prover"),
    ("generators.build", "repro.runtime.driver", "InstanceCache.build"),
    ("generators.build", "repro.runtime.driver", "InstanceCache.core"),
    ("generators.configuration_model", "repro.generators.regular", "configuration_model"),
    ("generators.random_regular", "repro.generators.regular", "random_regular"),
    ("local.graph_build", "repro.local.graphs", "PortGraph.from_edge_list"),
    ("problems.anchor_scan", "repro.problems.sinkless_solvers", "anchor_scan"),
    ("problems.solve", "repro.runtime.driver", "dispatch_solver"),
    ("local.engine", "repro.local.simulator", "SyncEngine.run"),
    ("lcl.verify", "repro.lcl.verifier", "verify"),
    ("lcl.verify", "repro.kernels", "prepared_verify"),
    ("engine.cache.store", "repro.engine.cache", "TrialCache.put_many"),
    ("engine.cache.lookup", "repro.engine.cache", "TrialCache.get"),
    ("engine.cache.lookup", "repro.engine.cache", "TrialCache.contains"),
)
POOL_TARGET = ("repro.engine.pool", "run_task_batches")

#: Registry solvers whose solve time is also reported on its own.
SOLVERS = (
    "sinkless-det",
    "sinkless-rand",
    "matching-line-coloring",
    "padded-sinkless-det",
    "padded-sinkless-rand",
    "gadget-prover",
)


def _counter_s(counters: Mapping[str, int], layer: str) -> float:
    return counters.get(f"{PREFIX}{layer}.ns", 0) / 1e9


def _calls(counters: Mapping[str, int], layer: str) -> int:
    return counters.get(f"{PREFIX}{layer}.calls", 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(pass_result: Mapping[str, Any]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``."""
    view = pass_result["telemetry"]
    c = view["counters"]
    metrics: dict[str, tuple[float, str]] = {
        "problems.linial_params_s": (_counter_s(c, "problems.linial_params"), "s"),
        "problems.linial_params_calls": (_calls(c, "problems.linial_params"), "count"),
        "core.verify_padded_s": (_counter_s(c, "core.verify_padded"), "s"),
        "gadgets.prover_s": (_counter_s(c, "gadgets.prover"), "s"),
        "generators.build_s": (_counter_s(c, "generators.build"), "s"),
        "generators.configuration_attempts_per_instance": (
            _ratio(
                _calls(c, "generators.configuration_model"),
                _calls(c, "generators.random_regular"),
            ),
            "ratio",
        ),
        "local.graph_build_s": (_counter_s(c, "local.graph_build"), "s"),
        "local.graph_builds": (_calls(c, "local.graph_build"), "count"),
        "problems.anchor_scan_s": (_counter_s(c, "problems.anchor_scan"), "s"),
        "problems.anchor_scan_calls": (_calls(c, "problems.anchor_scan"), "count"),
        "problems.solve_s": (_counter_s(c, "problems.solve"), "s"),
    }
    for solver in SOLVERS:
        metrics[f"problems.solve_s.{solver}"] = (
            _counter_s(c, f"problems.solve.{solver}"),
            "s",
        )
    reused = c.get("instance_cache.core_reused", 0)
    metrics.update(
        {
            "local.engine_s": (_counter_s(c, "local.engine"), "s"),
            "lcl.verify_s": (_counter_s(c, "lcl.verify"), "s"),
            "runtime.core_reuse_ratio": (
                _ratio(
                    reused,
                    reused
                    + c.get("instance_cache.core_built", 0)
                    + c.get("instance_cache.bypassed", 0),
                ),
                "ratio",
            ),
            "kernels.vector_trial_share": (
                _ratio(
                    c.get("kernels.vector_trials", 0),
                    c.get("kernels.vector_trials", 0)
                    + c.get("kernels.object_trials", 0),
                ),
                "ratio",
            ),
            "engine.pool.dispatches": (_calls(c, "engine.pool"), "count"),
            "engine.pool.idle_s": (_counter_s(c, "engine.pool.idle"), "s"),
            "engine.runner.chunks": (c.get("pool.batches_dispatched", 0), "count"),
            "engine.cache.store_s": (_counter_s(c, "engine.cache.store"), "s"),
            "engine.cache.lookup_s": (_counter_s(c, "engine.cache.lookup"), "s"),
            "analysis.figure1_s": (pass_result["figure1_s"], "s"),
        }
    )
    for span in harness.TRIAL_SPANS:
        metrics[f"{span}_s"] = (harness.span_total(view, span), "s")
    return metrics


# -- wrapping --------------------------------------------------------------


def _timed(layer: str, fn: Callable, depth: dict[str, int], label=None) -> Callable:
    """``fn`` timed into ``layer``'s counters, and into ``layer.<label>``
    when ``label(*args)`` names one; nested calls of a layer are not
    counted again."""
    from repro.obs import get_telemetry

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if depth.get(layer):
            return fn(*args, **kwargs)
        depth[layer] = 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            depth[layer] = 0
            telemetry = get_telemetry()
            telemetry.incr(f"{PREFIX}{layer}.ns", elapsed)
            telemetry.incr(f"{PREFIX}{layer}.calls")
            if label is not None:
                name = label(*args, **kwargs)
                if name is not None:
                    telemetry.incr(f"{PREFIX}{layer}.{name}.ns", elapsed)

    return wrapper


def _pool_probe(fn: Callable) -> Callable:
    """Count parallel dispatches and the worker time they left idle.

    Idle is the dispatch's wall time times its pool size, minus the
    trial compute its chunk results report.
    """
    from repro.obs import aggregate, get_telemetry

    @functools.wraps(fn)
    def wrapper(task_fn, batches, workers=1, pool_seed=0, on_result=None):
        batches = list(batches)
        pool_size = min(workers, len(batches))
        if pool_size <= 1:
            return fn(task_fn, batches, workers, pool_seed, on_result)
        compute = 0.0

        def counted(index, result):
            nonlocal compute
            compute += harness.trial_compute_s(aggregate(result.get("telemetry")))
            if on_result is not None:
                on_result(index, result)

        start = time.perf_counter()
        try:
            return fn(task_fn, batches, workers, pool_seed, counted)
        finally:
            idle = (time.perf_counter() - start) * pool_size - compute
            telemetry = get_telemetry()
            telemetry.incr(f"{PREFIX}engine.pool.calls")
            telemetry.incr(f"{PREFIX}engine.pool.idle.ns", max(0, int(idle * 1e9)))

    return wrapper


def _solver_label() -> Callable:
    from repro.runtime import registry

    names = {registry.solver_display_name(name): name for name in SOLVERS}
    return lambda solver_obj, *args, **kwargs: names.get(
        getattr(solver_obj, "name", None)
    )


def _rebind(old: Any, new: Any) -> None:
    """Point every ``repro`` module binding of ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


@contextlib.contextmanager
def probed() -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    depth: dict[str, int] = {}
    swapped_functions: list[tuple[Any, Any]] = []  # (original, wrapper)
    swapped_methods: list[tuple[type, str, Any]] = []  # (class, name, original)
    try:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            label = _solver_label() if layer == "problems.solve" else None
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(_timed(layer, raw.__func__, depth))
                else:
                    new = _timed(layer, raw, depth)
                setattr(owner, method, new)
                swapped_methods.append((owner, method, raw))
            else:
                original = getattr(module, attr)
                wrapper = _timed(layer, original, depth, label)
                _rebind(original, wrapper)
                swapped_functions.append((original, wrapper))
        module_name, attr = POOL_TARGET
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _pool_probe(original)
        _rebind(original, wrapper)
        swapped_functions.append((original, wrapper))
        yield
    finally:
        for original, wrapper in reversed(swapped_functions):
            _rebind(wrapper, original)
        for owner, method, raw in reversed(swapped_methods):
            setattr(owner, method, raw)


def wrapped_bindings() -> list[str]:
    """Every ``repro`` binding that still holds a probe wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if _is_probe(value):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type):
                for method, raw in vars(value).items():
                    if _is_probe(getattr(raw, "__func__", raw)):
                        found.append(f"{name}.{attr}.{method}")
    return found


def _is_probe(fn: Any) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == __file__
