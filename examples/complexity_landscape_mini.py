"""A miniature Figure 1: measure the landscape on your laptop.

Sweeps the implemented problems over modest sizes and prints the
best-fit growth class next to the paper's placement.  The full-size
version lives in benchmarks/bench_figure1_landscape.py.

Run:  python examples/complexity_landscape_mini.py
"""

from __future__ import annotations

from repro.analysis import measure_row, render_landscape
from repro.core import build_family
from repro.core.theory import PI_PLACEMENTS
from repro.generators.hard import cubic_instance, padded_hard_instance
from repro.problems import DeterministicSinklessSolver, RandomizedSinklessSolver

NS = [64, 128, 256, 512, 1024, 2048]


def main() -> None:
    rows = [
        measure_row(
            "sinkless orientation",
            *PI_PLACEMENTS[1],
            DeterministicSinklessSolver(),
            RandomizedSinklessSolver(),
            cubic_instance,
            NS,
            seeds=(0,),
            candidates=["1", "log*", "loglog", "log"],
        )
    ]
    pi2 = build_family(2)[1]
    rows.append(
        measure_row(
            "Pi_2 (the paper's new LCL)",
            *PI_PLACEMENTS[pi2.index],
            pi2.det_solver,
            pi2.rand_solver,
            lambda n, s: padded_hard_instance(pi2, n, s),
            [300, 700, 1600, 3600, 8000],
            seeds=(0,),
            candidates=["loglog", "log", "log loglog", "log^2"],
        )
    )
    print(render_landscape(rows))
    print(
        "\nReading: randomness helps sinkless orientation exponentially\n"
        "(log -> loglog) but helps Pi_2 only by one log factor\n"
        "(log^2 -> log loglog) - the paper's subexponential separation."
    )


if __name__ == "__main__":
    main()
