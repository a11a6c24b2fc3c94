"""End-to-end benchmark of the canonical reproduction.

    python3 perfbench/run.py                       # every workload in turn
    python3 perfbench/run.py --workload canonical-w2 --seed 3 --seconds 40
    python3 perfbench/run.py --workload canonical-w1 --trace 1
    python3 perfbench/run.py --workload canonical-w1 --seed 0 --pin

Every pass runs in a fresh process (``one_pass.py``) from fresh, empty
trial caches.  An untraced run repeats passes while another fits in
``--seconds`` (at least one) and prints the end-to-end metrics as
medians over them; ``setup_s`` is the median of at least
``SETUP_SAMPLES`` spawns.  Times are rescaled to a reference host speed
by a calibration walk timed inside each pass (see ``harness``), because
a shared host's speed drifts by a third over minutes.  A traced run
(``--trace 1``) runs one probed pass and prints the per-layer metrics,
and writes the (solver, family) cells ranked by build+solve+verify time
to ``.perfbench_out/``.

Correctness gate: the program's verifier runs on every trial (a spec
that raises counts all its trials as failed); each spec's record digest
must match ``pinned.json`` at the default seed and, at every seed, the
digests earlier runs recorded in the checkout's ledger — which makes
``canonical-w1`` and ``canonical-w2`` (one digest group) check each
other, and a traced run check its untraced twin.  The last stdout line
is one JSON object; the exit code is 0 only when everything was right.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

import harness
import layers

ONE_PASS = os.path.join(harness.HERE, "one_pass.py")
LEDGER = os.path.join(harness.OUT, "ledger.json")
BENCHMARK_JSON = os.path.join(harness.ROOT, "BENCHMARK.json")

SETUP_SAMPLES = 5
#: Every run ends within this many seconds of its start, or fails.
RUN_DEADLINE_S = 170.0
TOP_CELLS = 10
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "parallel_efficiency": "ratio",
    "peak_rss_mb": "MiB",
}


class PassFailed(RuntimeError):
    """A pass process exited non-zero or overran the run's deadline."""


def _load_json(path: str, default: Any) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return default


def _save_json(path: str, value: Any) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(value, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def spawn_pass(
    workload: str, seed: int, deadline: float, trace: bool = False, setup_only: bool = False
) -> dict[str, Any]:
    """Run ``one_pass.py`` in its own process group and return its result."""
    with tempfile.TemporaryDirectory(dir=harness.OUT) as tmp:
        out = os.path.join(tmp, "result.json")
        cmd = [
            sys.executable, ONE_PASS,
            "--workload", workload,
            "--seed", str(seed),
            "--out", out,
            "--cache-dir", os.path.join(tmp, "cache"),
        ]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned_at)],
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{workload} pass overran the run deadline") from None
        finally:
            # The pass's pool workers share its process group: stop any
            # that outlived it (normally none), then reap the pass.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise PassFailed(f"{workload} pass exited with code {code}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


class Gate:
    """Record digests checked against the pinned and ledger references."""

    def __init__(self, workload: harness.Workload, seed: int, pin: bool):
        self.workload = workload
        self.seed = str(seed)
        self.ledger = _load_json(LEDGER, {"digests": {}, "wall_s": {}})
        self.reference = None
        if pin:
            return  # this run's digests become the reference
        if seed == harness.DEFAULT_SEED:
            pinned = _load_json(harness.PINNED, {})
            self.reference = pinned.get(workload.digest_group, {}).get("specs")
        if self.reference is None:
            self.reference = (
                self.ledger["digests"].get(workload.digest_group, {}).get(self.seed)
            )

    def check(self, result: dict[str, Any]) -> None:
        """Fold digest mismatches into the pass's failed count."""
        if self.reference is None:
            if result["failed"] == 0:
                self.reference = result["spec_digests"]
                self.ledger["digests"].setdefault(
                    self.workload.digest_group, {}
                )[self.seed] = self.reference
            return
        failed, errors = harness.mismatched_trials(
            result["spec_digests"], result["spec_trials"], self.reference
        )
        result["failed"] += failed
        result["errors"] += errors

    def untraced_walls(self) -> list[float]:
        """Untraced (rescaled) walls at this seed, else at any seed."""
        walls = self.ledger["wall_s"].get(self.workload.name, {})
        return walls.get(self.seed) or [w for ws in walls.values() for w in ws]

    def record_wall(self, result: dict[str, Any]) -> None:
        walls = self.ledger["wall_s"].setdefault(self.workload.name, {})
        walls.setdefault(self.seed, []).append(
            result["wall_s"] * harness.host_scale(result)
        )

    def save(self) -> None:
        _save_json(LEDGER, self.ledger)


def _passes(name: str, seed: int, gate: Gate, deadline: float, seconds: float, trace: bool):
    """Passes while another fits in ``seconds``: at least one, one if traced."""
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result = spawn_pass(name, seed, deadline, trace=trace)
        gate.check(result)
        passes.append(result)
        took = time.monotonic() - began
        if trace or time.monotonic() - start + took > seconds:
            return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, pin: bool) -> dict:
    """Measure one workload; returns the result object printed last."""
    workload = harness.WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    gate = Gate(workload, seed, pin)
    if trace:
        ran = []
        if not gate.untraced_walls():
            ran += _passes(name, seed, gate, deadline, 0.0, False)
            gate.record_wall(ran[0])
        ran += _passes(name, seed, gate, deadline, 0.0, True)
        passes = ran[-1:]
    else:
        ran = passes = _passes(name, seed, gate, deadline, seconds, False)
        for result in passes:
            gate.record_wall(result)
    attempted = sum(p["attempted"] for p in ran)
    failed = sum(p["failed"] for p in ran)
    for result in ran:
        for error in result["errors"][:20]:
            print(f"FAILED {error}", file=sys.stderr)
    digest = harness.workload_digest(passes[0]["spec_digests"])
    print(
        f"{name} (seed {seed}, workers {workload.workers}): {len(ran)} pass(es)"
        f"{', the last traced' if trace else ''}, {attempted} trials, "
        f"{failed} failed, digest {digest[:16]}"
    )
    if trace:
        traced = passes[0]
        metrics = {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in layers.per_layer(traced).items()
        }
        reference = statistics.median(gate.untraced_walls())
        wall = traced["wall_s"] * harness.host_scale(traced)
        metrics["obs.trace_overhead_frac"] = {
            "value": (wall - reference) / reference,
            "unit": "ratio",
        }
        _write_cells(name, seed, traced["cells"])
    else:
        setup = [p["setup_s"] for p in passes]
        while len(setup) < SETUP_SAMPLES:
            setup.append(spawn_pass(name, seed, deadline, setup_only=True)["setup_s"])
        metrics = {
            key: {"value": value, "unit": UNITS[key]}
            for key, value in harness.end_to_end(passes, setup).items()
        }
    for key, metric in metrics.items():
        print(f"  {key:<48} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        frac = harness.failed_frac(failed, attempted)
        print(f"  {'failed_frac':<48} {frac:.6g} ratio")
        raw = statistics.median(p["wall_s"] for p in passes)
        walk = statistics.median(p["calibration_s"] for p in passes)
        print(
            f"  (times at the reference host speed; measured wall {raw:.4g} s "
            f"with the calibration walk at {1000 * walk:.3g} ms, reference "
            f"{1000 * harness.CAL_REF_S[workload.workers]:g} ms)"
        )
    if pin and failed == 0:
        pinned = _load_json(harness.PINNED, {})
        pinned[workload.digest_group] = {
            "seed": seed,
            "workload_digest": digest,
            "specs": passes[0]["spec_digests"],
        }
        _save_json(harness.PINNED, pinned)
    gate.save()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _write_cells(name: str, seed: int, cells: dict[str, float]) -> None:
    """The (solver, family) cells by build+solve+verify time, top first."""
    ranked = sorted(cells.items(), key=lambda item: (-item[1], item[0]))
    total = sum(cells.values()) or 1.0
    path = os.path.join(harness.OUT, f"cells-{name}-seed{seed}.json")
    _save_json(path, [{"cell": cell, "compute_s": s} for cell, s in ranked])
    print(f"  top {TOP_CELLS} cells by build+solve+verify time (all in {path}):")
    for cell, seconds in ranked[:TOP_CELLS]:
        print(f"    {cell:<44} {seconds:9.3f} s {100 * seconds / total:5.1f}%")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="write this run's record digests to pinned.json",
    )
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"no program source under {harness.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = [w["name"] for w in _load_json(BENCHMARK_JSON, {})["workloads"]]
    elif args.workload in harness.WORKLOADS:
        names = [args.workload]
    else:
        known = ", ".join(sorted(harness.WORKLOADS))
        print(f"unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    os.makedirs(harness.OUT, exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(
                run_workload(name, args.seed, args.seconds, bool(args.trace), args.pin)
            )
    except PassFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{key}": metric
                for name, result in zip(names, results)
                for key, metric in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
