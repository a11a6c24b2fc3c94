"""Maximal independent set as an ne-LCL, with two solvers.

The ne-LCL encoding follows the paper's remark that commonly studied
problems become node-edge checkable by replicating constant-radius
information into the output: every half-edge (v, e) carries the pair
``(membership of v, membership of the other endpoint)``.  The edge
constraint forces the two halves to mirror each other and forbids two
adjacent members; the node constraint forces consistency with the
node's own bit and — for non-members — demands a member neighbor
(maximality).

Solvers:

* :class:`ColorClassMisSolver` (deterministic): proper coloring via
  Linial, then one sweep over color classes; O(log* n) + poly(Delta)
  rounds.  On the vector backend the sweep is one array pass per class
  (:func:`repro.kernels.programs.mis_sweep`).
* :class:`LubyMisSolver` (randomized): classic Luby rounds; O(log n)
  w.h.p.  Included as the natural randomized baseline even though
  randomness does not improve over the deterministic complexity here
  (3-coloring lower bounds make MIS Omega(log* n) for both).
"""

from __future__ import annotations

from repro import kernels
from repro.lcl.assignment import Labeling
from repro.lcl.labels import LabelSet
from repro.lcl.problem import EdgeConfiguration, NeLCL, NodeConfiguration
from repro.local.algorithm import Instance, RunResult
from repro.local.graphs import PortGraph
from repro.problems.coloring import LinialColoringSolver
from repro.runtime.registry import register_problem, register_solver
from repro.util.logmath import Placement

__all__ = ["MaximalIndependentSet", "ColorClassMisSolver", "LubyMisSolver", "mis_labeling"]

_MIS_FAMILIES = ("cycle", "path", "cubic", "torus", "tree", "high-girth-cubic")

IN_SET = 1
OUT_SET = 0

_HALF = LabelSet("mis-half", {(a, b) for a in (0, 1) for b in (0, 1)})
_NODE = LabelSet("mis-node", {IN_SET, OUT_SET})


@register_problem(
    "mis",
    description="maximal independent set (independent dominating set)",
    paper_det=Placement("Theta", "log*"),
    paper_rand=Placement("Theta", "log*"),
)
class MaximalIndependentSet:
    """Factory for the MIS ne-LCL."""

    def problem(self) -> NeLCL:
        def node_ok(cfg: NodeConfiguration) -> bool:
            bit = cfg.node_output
            if bit not in (IN_SET, OUT_SET):
                return False
            if not all(half in _HALF for half in cfg.half_outputs):
                return False
            for mine, _theirs in cfg.half_outputs:
                if mine != bit:
                    return False
            if bit == OUT_SET:
                # maximality: some neighbor is in the set.  Isolated
                # non-members are maximality violations by definition,
                # so isolated nodes must join the set.
                return any(theirs == IN_SET for _mine, theirs in cfg.half_outputs)
            return True

        def edge_ok(cfg: EdgeConfiguration) -> bool:
            if not all(half in _HALF for half in cfg.half_outputs):
                return False
            (a_mine, a_theirs), (b_mine, b_theirs) = cfg.half_outputs
            if cfg.is_loop:
                # both halves describe the same node
                return a_mine == a_theirs == b_mine == b_theirs
            if a_mine != b_theirs or b_mine != a_theirs:
                return False
            return not (a_mine == IN_SET and b_mine == IN_SET)

        return NeLCL(
            name="maximal-independent-set",
            node_constraint=node_ok,
            edge_constraint=edge_ok,
            node_outputs=_NODE,
            half_outputs=_HALF,
            edge_symmetric=True,
            description="independent dominating set (MIS)",
        )


def mis_labeling(graph: PortGraph, members: set[int]) -> Labeling:
    """Encode a member set into the ne-LCL output format."""
    bits = [IN_SET if v in members else OUT_SET for v in graph.nodes()]
    off, nbr, _peer, _eids = graph.csr()
    # each half-edge: (own membership, membership across the edge)
    halves = [
        (bits[v], bits[u])
        for v in graph.nodes()
        for u in nbr[off[v] : off[v + 1]].tolist()
    ]
    return Labeling(graph).set_node_labels(bits).set_slot_labels(halves)


@register_solver(
    "mis-color-classes",
    problem="mis",
    families=_MIS_FAMILIES,
    description="Linial coloring followed by a color-class sweep",
)
class ColorClassMisSolver:
    """Deterministic MIS: Linial coloring, then a color-class sweep."""

    name = "mis-color-classes"
    randomized = False

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        coloring_run = LinialColoringSolver().solve(instance)
        colors = coloring_run.outputs.node_labels()
        # one synchronous round per color class; same-class nodes are
        # non-adjacent so their joint decision is conflict-free
        sweep_rounds = max(colors, default=0) + 1
        if kernels.vector_enabled():
            from repro.kernels.programs import mis_sweep

            members = mis_sweep(graph, colors)
        else:
            members = set()
            blocked: set[int] = set()
            for c in range(sweep_rounds):
                for v in graph.nodes():
                    if colors[v] == c and v not in blocked and v not in members:
                        members.add(v)
                        for u in graph.neighbors(v):
                            if u != v:
                                blocked.add(u)
        total = [r + sweep_rounds for r in coloring_run.node_radius]
        return RunResult(
            outputs=mis_labeling(graph, members),
            node_radius=total,
            extras={
                "coloring_rounds": coloring_run.rounds,
                "sweep_rounds": sweep_rounds,
                "set_size": len(members),
            },
        )


@register_solver(
    "mis-luby",
    problem="mis",
    families=_MIS_FAMILIES,
    description="Luby's randomized marking rounds",
)
class LubyMisSolver:
    """Luby's randomized MIS (O(log n) rounds w.h.p.)."""

    name = "mis-luby"
    randomized = True

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        rng = instance.require_rng()
        undecided = set(graph.nodes())
        members: set[int] = set()
        rounds = 0
        node_radius = [0] * graph.num_nodes
        while undecided:
            rounds += 1
            marks = {
                v: rng.for_node(v).random() for v in undecided
            }
            joined = []
            for v in undecided:
                neighbors = [
                    u for u in graph.neighbors(v) if u in undecided and u != v
                ]
                if all(
                    (marks[v], instance.ids.of(v)) < (marks[u], instance.ids.of(u))
                    for u in neighbors
                ):
                    joined.append(v)
            for v in joined:
                members.add(v)
                undecided.discard(v)
                for u in graph.neighbors(v):
                    undecided.discard(u)
            if rounds > 64 * max(graph.num_nodes, 2):
                raise RuntimeError("Luby did not converge")  # pragma: no cover
        for v in graph.nodes():
            node_radius[v] = rounds
        return RunResult(
            outputs=mis_labeling(graph, members),
            node_radius=node_radius,
            extras={"luby_rounds": rounds, "set_size": len(members)},
        )
