"""The problem family Pi_i of Section 5 (Theorem 11).

Pi_1 is sinkless orientation; Pi_{i+1} applies the padding construction
(Theorem 1) with the (log, Delta)-gadget family of Theorem 6.  Each
level carries a deterministic and a randomized solver, built by wrapping
the previous level's solvers in the generic Lemma 4 algorithm, and a
verifier (the ne-LCL verifier at level 1, the Pi' verifier above).

The predicted complexities (:data:`repro.core.theory.PI_PLACEMENTS`) are
deterministic Theta(log^i n) and randomized Theta(log^{i-1} n log log n);
the Theorem 11 benchmark sweeps ``solve_on_hard_instance`` over n and
fits the measured rounds against exactly these shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.padded_problem import PaddedProblem
from repro.core.padded_solver import PaddedSolver
from repro.gadgets.family import LogGadgetFamily
from repro.lcl.assignment import Labeling
from repro.lcl.problem import NeLCL
from repro.lcl.verifier import Verdict
from repro.lcl.verifier import verify as lcl_verify
from repro.local.algorithm import Instance, LocalAlgorithm
from repro.local.graphs import PortGraph
from repro.problems.sinkless import SinklessOrientation
from repro.problems.sinkless_solvers import (
    DeterministicSinklessSolver,
    RandomizedSinklessSolver,
)

__all__ = ["FamilyLevel", "build_family"]


@dataclass
class FamilyLevel:
    """One level Pi_i with its solvers, verifier, and predictions."""

    index: int
    problem: "NeLCL | PaddedProblem"
    det_solver: LocalAlgorithm
    rand_solver: LocalAlgorithm
    family: LogGadgetFamily | None

    @property
    def name(self) -> str:
        return f"Pi_{self.index}"

    def verify(
        self, graph: PortGraph, inputs: Labeling | None, outputs: Labeling
    ) -> Verdict:
        if inputs is None:
            inputs = Labeling(graph)
        if isinstance(self.problem, PaddedProblem):
            return self.problem.verify(graph, inputs, outputs)
        return lcl_verify(self.problem, graph, inputs, outputs)


def build_family(levels: int, delta: int = 3) -> list[FamilyLevel]:
    """Pi_1 .. Pi_levels over (log, .)-gadget families.

    Level 2 pads degree-<=delta base graphs.  Padded graphs themselves
    have maximum degree 5 (an interior sub-gadget node sees Parent,
    Left, Right, LChild, RChild), so levels >= 3 use a Delta >= 5
    family; the degree then stays at 5 for every further level.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    base_problem = SinklessOrientation().problem()
    out = [
        FamilyLevel(
            index=1,
            problem=base_problem,
            det_solver=DeterministicSinklessSolver(),
            rand_solver=RandomizedSinklessSolver(),
            family=None,
        )
    ]
    for i in range(2, levels + 1):
        level_delta = delta if i == 2 else max(delta, 5)
        gadget_family = LogGadgetFamily(level_delta)
        previous = out[-1]
        problem = PaddedProblem(previous.problem, gadget_family)
        out.append(
            FamilyLevel(
                index=i,
                problem=problem,
                det_solver=PaddedSolver(problem, previous.det_solver),
                rand_solver=PaddedSolver(problem, previous.rand_solver),
                family=gadget_family,
            )
        )
    return out


# -- runtime registrations (the Pi_1 and Pi_2 landscape rows) ----------
#
# Both levels' placements are Theorem 11's, read from core.theory; Pi_1
# registers here because repro.core imports repro.problems, so the
# problems package cannot import core.theory.  The padded level
# Pi_2 = pad(sinkless-orientation, log-gadgets) is the paper's headline
# construction; registering it (problem, both solvers, and the
# height-graded instance family) puts the Theorem 1 overhead
# measurement into the same registry-driven cross-product as the base
# problems.  Instances are graded by gadget *height* h, not node count:
# the padded graph on a 16-node cubic base has 16 * (2^(h+1) - 1) + 16
# nodes, so sweeps pass heights and report the true padded sizes.

from repro.core.theory import PI_PLACEMENTS
from repro.runtime.registry import register_family, register_problem, register_solver

register_problem(
    "sinkless-orientation",
    description="orient every edge; nodes of degree >= 3 need an out-edge",
    paper_det=PI_PLACEMENTS[1][0],
    paper_rand=PI_PLACEMENTS[1][1],
)(SinklessOrientation)


@register_problem(
    "padded-sinkless",
    description="Pi_2: sinkless orientation padded with log-gadgets",
    paper_det=PI_PLACEMENTS[2][0],
    paper_rand=PI_PLACEMENTS[2][1],
)
def _padded_sinkless_problem() -> PaddedProblem:
    return PaddedProblem(SinklessOrientation().problem(), LogGadgetFamily(3))


def padded_sinkless_solver() -> PaddedSolver:
    """The registered deterministic Pi_2 solver."""
    return PaddedSolver(_padded_sinkless_problem(), DeterministicSinklessSolver())


register_solver(
    "padded-sinkless-det",
    problem="padded-sinkless",
    families=("padded-sinkless",),
    randomized=False,
    description="the Lemma 4 generic algorithm over the deterministic base",
)(padded_sinkless_solver)

register_solver(
    "padded-sinkless-rand",
    problem="padded-sinkless",
    families=("padded-sinkless",),
    randomized=True,
    description="the Lemma 4 generic algorithm over the randomized base",
)(lambda: PaddedSolver(_padded_sinkless_problem(), RandomizedSinklessSolver()))


# The cubic base graph is sampled from the seed: no topology sharing.
@register_family(
    "padded-sinkless",
    description="16-node cubic base padded with height-h gadgets",
    max_degree=5,
    min_degree=1,
    size_kind="height",
    test_sizes=(2,),
    grid=lambda max_n: tuple(
        h for h in range(2, 8) if 16 * (2 ** (h + 1)) <= max_n
    ),
)
def padded_sinkless_instance(height: int, seed: int):
    """A 16-node cubic base padded with gadgets of the given height."""
    import random as _random

    from repro.core.padding import pad_graph
    from repro.gadgets.build import build_gadget
    from repro.generators.regular import random_regular
    from repro.local.identifiers import sequential_ids
    from repro.util.rng import NodeRng

    base = random_regular(16, 3, _random.Random(2 + seed))
    padded = pad_graph(base, [build_gadget(3, height)] * base.num_nodes)
    return Instance(
        padded.graph,
        sequential_ids(padded.graph.num_nodes),
        padded.inputs,
        None,
        NodeRng(seed),
    )
