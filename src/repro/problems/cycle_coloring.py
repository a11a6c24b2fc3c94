"""3-coloring of cycles: the classic Theta(log* n) LCL (Figure 1).

On graphs of maximum degree 2 (disjoint paths and cycles), computing a
proper 3-coloring takes Theta(log* n) rounds deterministically
(Cole-Vishkin / Linial) and randomness does not help (Naor's Omega(log* n)
randomized lower bound).  The solver here is the Linial reduction
specialized to Delta = 2; the "randomized complexity" of this problem
in the landscape is measured by running the same algorithm, which *is*
the optimal randomized algorithm.

Odd cycles of length 1 or 2 (a self-loop, a parallel pair) degenerate;
the loop-exemption of :class:`VertexColoring` keeps the problem total.
"""

from __future__ import annotations

from repro.lcl.problem import NeLCL
from repro.local.algorithm import Instance, RunResult
from repro.problems.coloring import LinialColoringSolver, VertexColoring
from repro.runtime.registry import register_problem, register_solver
from repro.util.logmath import Placement

__all__ = ["ThreeColoringCycles", "CycleColoringSolver"]


@register_problem(
    "3-coloring-cycles",
    description="proper 3-coloring of paths and cycles",
    max_degree=2,
    paper_det=Placement("Theta", "log*"),
    paper_rand=Placement("Theta", "log*"),
)
class ThreeColoringCycles:
    """Factory for the 3-coloring LCL restricted to degree <= 2 graphs.

    The degree restriction is expressed inside the node constraint:
    configurations of degree >= 3 reject, which encodes the promise-free
    version "color with 3 colors or the graph is not a cycle/path
    collection" used by the landscape experiments.
    """

    def problem(self) -> NeLCL:
        base = VertexColoring(3).problem()

        def node_ok(cfg):
            if cfg.degree > 2:
                return False
            return base.node_constraint(cfg)

        return NeLCL(
            name="3-coloring-cycles",
            node_constraint=node_ok,
            edge_constraint=base.edge_constraint,
            node_outputs=base.node_outputs,
            edge_symmetric=True,
            description="proper 3-coloring of paths and cycles",
            metadata={"max_degree": 2},
        )


@register_solver(
    "cycle-3-coloring",
    problem="3-coloring-cycles",
    families=("cycle", "path"),
    description="Cole-Vishkin / Linial reduction at Delta = 2",
)
class CycleColoringSolver:
    """Linial reduction at Delta = 2, target palette 3."""

    name = "cycle-3-coloring"
    randomized = False

    def solve(self, instance: Instance) -> RunResult:
        if instance.graph.max_degree > 2:
            raise ValueError("cycle coloring requires maximum degree 2")
        return LinialColoringSolver(num_colors=3).solve(instance)
