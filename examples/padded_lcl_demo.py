"""The paper's construction end to end: build Pi_2 and solve it.

Pads a small cubic base graph with (log, 3)-gadgets (Definition 3),
solves the padded problem Pi' with the generic Lemma 4 algorithm on top
of both sinkless-orientation solvers, verifies the outputs against the
Section 3.3 constraints, and shows the virtual-graph contraction the
solver discovered.

Run:  python examples/padded_lcl_demo.py
"""

from __future__ import annotations

import random

from repro.analysis import render_table
from repro.core import PaddedProblem, PaddedSolver, decompose, pad_graph
from repro.gadgets import LogGadgetFamily, build_gadget
from repro.generators import random_regular
from repro.local import Instance
from repro.local.identifiers import sequential_ids
from repro.problems import (
    DeterministicSinklessSolver,
    RandomizedSinklessSolver,
    SinklessOrientation,
)
from repro.util.rng import NodeRng


def main() -> None:
    base = random_regular(10, 3, random.Random(1))
    height = 4
    gadgets = [build_gadget(3, height) for _ in base.nodes()]
    padded = pad_graph(base, gadgets)
    print(
        f"padded a {base.num_nodes}-node cubic graph with height-{height} "
        f"gadgets -> {padded.graph.num_nodes} nodes "
        f"({padded.graph.num_edges} edges, {len(padded.port_edges)} port edges)"
    )

    family = LogGadgetFamily(3)
    problem = PaddedProblem(SinklessOrientation().problem(), family)
    instance = Instance(
        padded.graph,
        sequential_ids(padded.graph.num_nodes),
        padded.inputs,
        None,
        NodeRng(7),
    )

    decomposition = decompose(
        padded.graph, padded.inputs, family, instance.ids, instance.n_hint
    )
    virtual = decomposition.analysis.virtual
    print(
        f"contraction: {virtual.num_real()} valid gadgets -> virtual graph "
        f"with {virtual.graph.num_edges} edges (the base graph, recovered)"
    )

    rows = []
    for base_solver in (DeterministicSinklessSolver(), RandomizedSinklessSolver()):
        solver = PaddedSolver(problem, base_solver)
        result = solver.solve(instance)
        verdict = problem.verify(padded.graph, padded.inputs, result.outputs)
        assert verdict.ok, verdict.summary()
        rows.append(
            [
                solver.name,
                result.extras["base_rounds"],
                result.rounds,
                round(result.rounds / max(result.extras["base_rounds"], 1), 1),
                verdict.summary(),
            ]
        )
    print(
        render_table(
            ["solver", "base rounds", "Pi' rounds", "overhead", "verifier"],
            rows,
            title=(
                "Lemma 4: solving Pi' costs base-rounds x gadget-depth "
                f"(port distance 2h = {2 * height})"
            ),
        )
    )


if __name__ == "__main__":
    main()
