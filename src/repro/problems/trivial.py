"""Trivial LCLs: the O(1) anchors of the complexity landscape.

Besides the direct :class:`ConstantSolver`, this module registers one
degree-parity solver per LOCAL execution model — a round-based node
program on :class:`~repro.local.simulator.SyncEngine` and a view-based
program metered by :class:`~repro.local.views.ViewOracle` — so both
models run as real catalog entries, each inside its own ``solve``.
"""

from __future__ import annotations

from repro.lcl.assignment import Labeling
from repro.lcl.labels import LabelSet
from repro.lcl.problem import NeLCL
from repro.local.algorithm import Instance, RunResult
from repro.local.simulator import SyncEngine
from repro.local.views import ViewOracle
from repro.runtime.registry import register_problem, register_solver
from repro.util.logmath import Placement

__all__ = [
    "ConstantLabelProblem",
    "ConstantSolver",
    "ParityOfDegreeProblem",
    "ParitySyncSolver",
    "ParityViewSolver",
]

_ALL_FAMILIES = ("cycle", "path", "cubic", "torus", "tree", "high-girth-cubic")


@register_problem(
    "constant",
    description="every node outputs the fixed label 'ok'",
    paper_det=Placement("O", "1"),
    paper_rand=Placement("O", "1"),
)
class ConstantLabelProblem:
    """Every node outputs the fixed label; always satisfiable in 0 rounds."""

    def __init__(self, label: str = "ok"):
        self.label = label

    def problem(self) -> NeLCL:
        label = self.label
        return NeLCL(
            name=f"constant({label})",
            node_constraint=lambda cfg: cfg.node_output == label,
            edge_constraint=lambda cfg: True,
            edge_symmetric=True,
            node_outputs=LabelSet("constant", {label}),
            description="the trivial LCL: output a fixed label",
        )


@register_problem(
    "degree-parity",
    description="label each node with deg(v) mod 2",
    paper_det=Placement("O", "1"),
    paper_rand=Placement("O", "1"),
)
class ParityOfDegreeProblem:
    """Output your degree's parity; a 0-round but non-constant LCL."""

    def problem(self) -> NeLCL:
        return NeLCL(
            name="degree-parity",
            node_constraint=lambda cfg: cfg.node_output == cfg.degree % 2,
            edge_constraint=lambda cfg: True,
            edge_symmetric=True,
            node_outputs=LabelSet("parity", {0, 1}),
            description="label each node with deg(v) mod 2",
        )


@register_solver(
    "constant",
    problem="constant",
    families=_ALL_FAMILIES,
    description="output the fixed label everywhere, zero rounds",
)
class ConstantSolver:
    """Solves both trivial problems in zero rounds."""

    name = "constant"
    randomized = False

    def __init__(self, label: str | None = "ok", parity: bool = False):
        self.label = label
        self.parity = parity

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, graph.degree(v) % 2 if self.parity else self.label)
        return RunResult(outputs=outputs, node_radius=[0] * graph.num_nodes)


register_solver(
    "parity",
    problem="degree-parity",
    families=_ALL_FAMILIES,
    randomized=False,
    description="direct zero-round parity labeling",
)(lambda: ConstantSolver(parity=True))


class _ParityNode:
    """A node program that halts immediately with its parity."""

    def __init__(self, v: int, instance: Instance):
        self.parity = instance.graph.degree(v) % 2

    def outgoing(self, round_index):
        return None  # zero-round algorithm: halt before sending anything

    def receive(self, round_index, inbox):  # pragma: no cover - never called
        raise AssertionError("a halted node receives nothing")

    def result(self):
        return self.parity


def _parity_array_program():
    from repro.kernels.programs import ParityProgram

    return ParityProgram()


@register_solver(
    "parity-sync",
    problem="degree-parity",
    families=_ALL_FAMILIES,
    randomized=False,
    description="parity as a round-based node program (SyncEngine path)",
)
class ParitySyncSolver:
    """Degree parity as a node program on SyncEngine; each node is
    charged the round it halted at."""

    name = "parity-sync"
    randomized = False

    def solve(self, instance: Instance) -> RunResult:
        run = SyncEngine(
            instance, _ParityNode, array_program=_parity_array_program
        ).run()
        outputs = Labeling(instance.graph)
        for v, parity in enumerate(run.results):
            outputs.set_node(v, parity)
        return RunResult(
            outputs=outputs,
            node_radius=run.node_radius(),
            extras={"engine_rounds": run.rounds},
        )


@register_solver(
    "parity-views",
    problem="degree-parity",
    families=_ALL_FAMILIES,
    randomized=False,
    description="parity as a view-based program (ViewOracle path)",
)
class ParityViewSolver:
    """Degree parity from metered views; each node is charged the
    largest radius it consulted."""

    name = "parity-views"
    randomized = False

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        oracle = ViewOracle(graph)
        outputs = Labeling(graph)
        for v in graph.nodes():
            view = oracle.view(v, 0)  # the radius-0 view suffices
            outputs.set_node(v, graph.degree(view.center) % 2)
        return RunResult(
            outputs=outputs,
            node_radius=oracle.node_radii(),
            extras={"view_rounds": oracle.rounds()},
        )
