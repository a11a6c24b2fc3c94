"""One pass of a workload in a fresh process; ``run.py`` spawns it.

Set-up runs from the parent's spawn time (``--spawned-at``, a
``time.monotonic()`` reading, which is system-wide on Linux) until the
workload's specs are built: interpreter start, imports, registry
registration and ``build_experiment``.  Then the pass runs, traced or
not, and its result is written as JSON to ``--out``.

    python3 perfbench/one_pass.py --workload canonical-w1 --seed 0 \\
        --out result.json --cache-dir cache --spawned-at 0 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import harness

    harness.use_source_tree()
    harness.import_program()
    workload = harness.WORKLOADS[args.workload]
    specs = harness.build_specs(workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        if args.trace:
            import layers

            with layers.probed():
                result.update(harness.run_pass(specs, workload.workers, args.cache_dir))
        else:
            result.update(harness.run_pass(specs, workload.workers, args.cache_dir))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
