"""E17 — the padded pipeline at ladder scale: a Pi_3 hard instance.

Times the three phases of one Pi_3 trial on the Lemma 5 hard instance
``padded_hard_instance(build_family(3)[2], n, 0)`` — instance build,
the deterministic padded solver, and the padded verifier — and the
peak resident set size they need.  Each run happens in a fresh child
process, so its peak RSS (``ru_maxrss``, interpreter and imports
included) belongs to that one trial alone; the bench reports the
median of its runs and the peak RSS per node.  Every verdict must be
ok.  The kernel backend is the one a trial resolves from ``auto``.

Full mode runs n = 2^16 three times; ``BENCH_QUICK=1`` runs n = 2^14
once.  Results land in ``BENCH_labels.json``.

    PYTHONPATH=src python -m pytest benchmarks/bench_padded_labels.py -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from benchmarks.conftest import report, report_json
from repro.analysis import render_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
N = 2**14 if QUICK else 2**16
RUNS = 1 if QUICK else 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def measure(n: int) -> dict:
    """Build, det-solve and verify one Pi_3 instance in this process."""
    import resource
    import time

    from repro import kernels
    from repro.core.family import build_family
    from repro.generators.hard import padded_hard_instance

    level = build_family(3)[2]
    with kernels.active(kernels.select_backend("auto")):
        start = time.perf_counter()
        instance = padded_hard_instance(level, n, 0)
        built = time.perf_counter()
        result = level.det_solver.solve(instance)
        solved = time.perf_counter()
        verdict = level.problem.verify(instance.graph, instance.inputs, result.outputs)
        verified = time.perf_counter()
    return {
        "n": instance.graph.num_nodes,
        "ok": verdict.ok,
        "rounds": result.rounds,
        "build_s": built - start,
        "solve_s": solved - built,
        "verify_s": verified - solved,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _measure_in_child(n: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(n)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_pi3_hard_instance_build_solve_verify():
    runs = [_measure_in_child(N) for _ in range(RUNS)]
    for run in runs:
        assert run["ok"], "the Pi_3 verifier rejected the det solver's output"
        assert run["n"] == N
    assert len({run["rounds"] for run in runs}) == 1
    summary = {
        key: statistics.median(run[key] for run in runs)
        for key in ("build_s", "solve_s", "verify_s", "peak_rss_mib")
    }
    summary["total_s"] = summary["build_s"] + summary["solve_s"] + summary["verify_s"]
    summary["rss_bytes_per_node"] = summary["peak_rss_mib"] * 2**20 / N
    rows = [
        ["build", f"{summary['build_s']:.2f} s"],
        ["det solve", f"{summary['solve_s']:.2f} s"],
        ["verify", f"{summary['verify_s']:.2f} s"],
        ["total", f"{summary['total_s']:.2f} s"],
        ["peak RSS", f"{summary['peak_rss_mib']:.0f} MiB"],
        ["peak RSS per node", f"{summary['rss_bytes_per_node']:.0f} B"],
    ]
    report(
        render_table(
            ["phase", f"Pi_3 at n={N} (median of {RUNS})"],
            rows,
            title="E17: padded pipeline at ladder scale",
        )
    )
    report_json(
        "pi3_hard_instance",
        {"n": N, "runs": runs, "median": summary, "det_rounds": runs[0]["rounds"]},
        file="BENCH_labels.json",
    )


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))
