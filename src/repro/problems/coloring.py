"""Proper vertex coloring: ne-LCL and the deterministic Linial solver.

``VertexColoring(k)`` is the classic (Delta+1)-coloring LCL from the
paper's preliminaries.  The solver runs genuinely round-by-round on the
synchronous engine: identifiers seed the initial proper coloring, each
Linial step shrinks the palette (O(log* n) rounds), and a final
color-class elimination walks the palette down to the target size
(O(Delta^2 polylog Delta) rounds, constant in n).

The elimination phase removes one color class per round, highest
first; each member of the class moves to the smallest target color no
neighbor holds.  The object node program steps those rounds one by one.
The array twin (:class:`repro.kernels.programs.LinialProgram`) computes
them in closed form — one array pass per non-empty class, which is
exact because a class of a proper coloring is an independent set — and
the engine charges every node the same rounds, so rounds, radii and
colors are identical on both backends.
"""

from __future__ import annotations

from repro.lcl.assignment import Labeling
from repro.lcl.labels import LabelSet
from repro.lcl.problem import EdgeConfiguration, NeLCL, NodeConfiguration
from repro.local.algorithm import Instance, RunResult
from repro.local.simulator import SyncEngine
from repro.problems.linial import reduce_color, reduction_schedule
from repro.runtime.registry import register_problem, register_solver
from repro.util.logmath import Placement

__all__ = ["VertexColoring", "LinialColoringSolver", "proper_coloring_labeling"]


class VertexColoring:
    """Factory for the proper k-coloring ne-LCL.

    Self-loops are exempt from the difference constraint (a looped node
    could never be properly colored); parallel edges behave like single
    edges.  This keeps the problem total on the paper's graph class.
    """

    def __init__(self, num_colors: int):
        if num_colors < 1:
            raise ValueError("need at least one color")
        self.num_colors = num_colors

    def problem(self) -> NeLCL:
        palette = LabelSet("colors", frozenset(range(self.num_colors)))

        def node_ok(cfg: NodeConfiguration) -> bool:
            return cfg.node_output in palette

        def edge_ok(cfg: EdgeConfiguration) -> bool:
            if cfg.is_loop:
                return True
            return cfg.node_outputs[0] != cfg.node_outputs[1]

        return NeLCL(
            name=f"{self.num_colors}-coloring",
            node_constraint=node_ok,
            edge_constraint=edge_ok,
            node_outputs=palette,
            edge_symmetric=True,
            description=f"proper vertex coloring with {self.num_colors} colors",
            metadata={"num_colors": self.num_colors},
        )


def proper_coloring_labeling(graph, colors: list[int]) -> Labeling:
    return Labeling(graph).set_node_labels(colors)


class _LinialNode:
    """One node of the engine-based Linial algorithm."""

    def __init__(self, v: int, instance: Instance, schedule, target: int, id_space: int):
        self.v = v
        self.graph = instance.graph
        self.degree = self.graph.degree(v)
        self.color = instance.ids.of(self.v) - 1  # palette [id_space]
        self.schedule = schedule
        self.target = target
        self.palette_after = schedule[-1][0] ** 2 if schedule else id_space
        self.phase_splits = len(schedule)
        self.total_rounds = len(schedule) + max(self.palette_after - target, 0)
        self.round = 0
        self.done = self.total_rounds == 0

    def outgoing(self, round_index):
        if self.done:
            return None
        return [self.color] * self.degree

    def receive(self, round_index, inbox):
        # With multigraphs a node may hear itself through a self-loop;
        # self-colors are ignored (the coloring constraint exempts loops).
        neighbor_colors = [
            c for port, c in enumerate(inbox)
            if c is not None and self.graph.neighbor(self.v, port) != self.v
        ]
        if self.round < self.phase_splits:
            q, d = self.schedule[self.round]
            self.color = reduce_color(self.color, neighbor_colors, q, d)
        else:
            # Eliminate the highest remaining class this round.
            eliminated = self.palette_after - 1 - (self.round - self.phase_splits)
            if self.color == eliminated:
                taken = set(neighbor_colors)
                self.color = min(c for c in range(self.target) if c not in taken)
        self.round += 1
        if self.round >= self.total_rounds:
            self.done = True

    def result(self):
        return self.color


class LinialColoringSolver:
    """Deterministic O(log* n)-round proper coloring on the sync engine."""

    name = "linial-coloring"
    randomized = False

    def __init__(self, num_colors: int | None = None):
        """``num_colors=None`` targets Delta + 1 (computed per instance)."""
        self.num_colors = num_colors

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        delta = max(graph.max_degree, 1)
        target = self.num_colors if self.num_colors is not None else delta + 1
        if target < delta + 1:
            raise ValueError(
                f"{target} colors cannot properly color max degree {delta} "
                "graphs in general"
            )
        id_space = max(instance.ids.max_id(), target)
        schedule = reduction_schedule(id_space, delta)
        # Drop schedule steps that are already at or below the target.
        schedule = [
            (q, d) for q, d in schedule if q * q > target
        ] or schedule[:1] if schedule else []

        def factory(v: int, inst: Instance):
            return _LinialNode(v, inst, schedule, target, id_space)

        def array_program():
            from repro.kernels.programs import LinialProgram

            return LinialProgram(schedule, target, id_space)

        engine = SyncEngine(instance, factory, array_program=array_program)
        run = engine.run()
        outputs = proper_coloring_labeling(graph, run.results)
        return RunResult(
            outputs=outputs,
            node_radius=run.node_radius(),
            extras={
                "linial_rounds": len(schedule),
                "elimination_rounds": run.rounds - len(schedule),
                "palette_after_linial": schedule[-1][0] ** 2 if schedule else id_space,
            },
        )


# The landscape's proper-coloring row: 4 colors cover every registered
# family of maximum degree <= 3; the solver is Linial's reduction with
# the palette pinned at 4.
register_problem(
    "4-coloring",
    description="proper vertex coloring with 4 colors (Delta <= 3)",
    max_degree=3,
    paper_det=Placement("Theta", "log*"),
    paper_rand=Placement("Theta", "log*"),
)(lambda: VertexColoring(4))

register_solver(
    "linial-4-coloring",
    problem="4-coloring",
    families=("cycle", "path", "tree", "cubic", "high-girth-cubic"),
    randomized=False,
    description="Linial color reduction to a fixed 4-color palette",
)(lambda: LinialColoringSolver(num_colors=4))
