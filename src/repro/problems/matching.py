"""Maximal matching as an ne-LCL, with deterministic and randomized solvers.

Half-edge output: ``(edge_matched, i_am_matched, other_is_matched)``.
Edge constraints force the two halves to mirror each other; node
constraints force at most one matched incidence, consistency of the
"am matched" bit, and maximality (an unmatched node sees only matched
neighbors).

The deterministic solver colors the *line graph* with Linial's
algorithm and sweeps color classes (on the vector backend, one array
pass per class: :func:`repro.kernels.programs.matching_sweep`); the
randomized one is a Luby-style proposal scheme on edges.
"""

from __future__ import annotations

from repro import kernels
from repro.lcl.assignment import Labeling
from repro.lcl.labels import LabelSet
from repro.lcl.problem import EdgeConfiguration, NeLCL, NodeConfiguration
from repro.local.algorithm import Instance, RunResult
from repro.local.graphs import PortGraph
from repro.local.identifiers import IdAssignment
from repro.problems.coloring import LinialColoringSolver
from repro.runtime.registry import register_problem, register_solver
from repro.util.logmath import Placement

_MATCHING_FAMILIES = ("cycle", "path", "cubic", "torus", "high-girth-cubic")

__all__ = [
    "MaximalMatching",
    "line_graph",
    "ColorClassMatchingSolver",
    "LubyMatchingSolver",
    "matching_labeling",
]

_BITS = (0, 1)
_HALF = LabelSet(
    "matching-half", {(m, a, b) for m in _BITS for a in _BITS for b in _BITS}
)


@register_problem(
    "maximal-matching",
    description="maximal matching (no two matched edges share a node)",
    paper_det=Placement("Theta", "log*"),
    paper_rand=Placement("Theta", "log*"),
)
class MaximalMatching:
    """Factory for the maximal-matching ne-LCL (loops never matched)."""

    def problem(self) -> NeLCL:
        def node_ok(cfg: NodeConfiguration) -> bool:
            if not all(half in _HALF for half in cfg.half_outputs):
                return False
            matched_ports = [
                p for p in cfg.ports() if cfg.half_outputs[p][0] == 1
            ]
            own = {cfg.half_outputs[p][1] for p in cfg.ports()}
            if len(own) > 1:
                return False
            am_matched = own.pop() if own else 0
            if am_matched != (1 if matched_ports else 0):
                return False
            if len(matched_ports) > 1:
                return False
            if cfg.degree > 0 and am_matched == 0:
                # maximality: every neighbor across a real (non-loop)
                # edge must be matched
                return all(
                    cfg.half_outputs[p][2] == 1
                    for p in cfg.ports()
                    if not cfg.loop_ports[p]
                )
            return True

        def edge_ok(cfg: EdgeConfiguration) -> bool:
            if not all(half in _HALF for half in cfg.half_outputs):
                return False
            (m1, a1, b1), (m2, a2, b2) = cfg.half_outputs
            if m1 != m2:
                return False
            if cfg.is_loop:
                return m1 == 0 and a1 == b1 == a2 == b2
            if a1 != b2 or a2 != b1:
                return False
            if m1 == 1 and not (a1 == 1 and a2 == 1):
                return False
            return True

        return NeLCL(
            name="maximal-matching",
            node_constraint=node_ok,
            edge_constraint=edge_ok,
            half_outputs=_HALF,
            edge_symmetric=True,
            description="maximal matching (no two matched edges share a node)",
        )


def _endpoints(graph: PortGraph) -> tuple[list[int], list[int]]:
    """The ``a``-side and ``b``-side node of every edge, by edge id."""
    nbr = graph.csr()[1]
    ends = graph.edge_slots()
    # the node of one side is the neighbor entry of the other
    return [nbr[b] for b in ends[1::2]], [nbr[a] for a in ends[0::2]]


def matching_labeling(graph: PortGraph, matched_edges: set[int]) -> Labeling:
    """Encode a matching (set of edge ids) into the output format."""
    a_nodes, b_nodes = _endpoints(graph)
    node_matched = [0] * graph.num_nodes
    for eid in matched_edges:
        node_matched[a_nodes[eid]] = 1
        node_matched[b_nodes[eid]] = 1
    off, nbr, _peer, eids = graph.csr()
    # each half-edge: (edge matched, own node matched, far node matched)
    halves = [
        (
            1 if eids[slot] in matched_edges else 0,
            node_matched[v],
            node_matched[nbr[slot]],
        )
        for v in graph.nodes()
        for slot in range(off[v], off[v + 1])
    ]
    return Labeling(graph).set_slot_labels(halves)


def line_graph(graph: PortGraph) -> PortGraph:
    """The line graph: one node per edge, adjacency = shared endpoint.

    Self-loops of the base graph become isolated line-graph nodes (they
    are never matchable); parallel base edges become adjacent line
    nodes.  Each shared endpoint contributes exactly one line edge.
    """
    off, nbr, _peer, eids = graph.csr()
    pairs = []
    for v in graph.nodes():
        # a loop's slots at v point back at v
        incident = sorted(
            {eids[slot] for slot in range(off[v], off[v + 1]) if nbr[slot] != v}
        )
        for i, e1 in enumerate(incident):
            for e2 in incident[i + 1 :]:
                pairs.append((e1, e2))
    return PortGraph.from_edge_list(graph.num_edges, pairs)


@register_solver(
    "matching-line-coloring",
    problem="maximal-matching",
    families=_MATCHING_FAMILIES,
    description="Linial coloring of the line graph, then a class sweep",
)
class ColorClassMatchingSolver:
    """Deterministic maximal matching via line-graph coloring."""

    name = "matching-line-coloring"
    randomized = False

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        if graph.num_edges == 0:
            return RunResult(matching_labeling(graph, set()), [0] * graph.num_nodes)
        lg = line_graph(graph)
        # Identifier of a line node = identifier pair of its endpoints,
        # flattened injectively; communication on the line graph costs a
        # constant factor on the base graph, accounted below.  The k-th
        # parallel copy of an edge (k >= 1, in edge-id order) adds
        # k * base**2, above every simple-graph identifier.
        base = instance.ids.max_id() + 1
        a_nodes, b_nodes = _endpoints(graph)
        line_ids = []
        copies: dict[tuple[int, int], int] = {}
        for u, w in zip(a_nodes, b_nodes):
            lo, hi = sorted((instance.ids.of(u), instance.ids.of(w)))
            k = copies.get((lo, hi), 0)
            copies[(lo, hi)] = k + 1
            line_ids.append(k * base * base + lo * base + hi + 1)
        line_instance = Instance(
            lg, IdAssignment(line_ids), None, None, instance.rng
        )
        coloring_run = LinialColoringSolver().solve(line_instance)
        colors = coloring_run.outputs.node_labels()
        sweep_rounds = max(colors, default=0) + 1
        if kernels.vector_enabled():
            from repro.kernels.programs import matching_sweep

            matched = matching_sweep(graph, colors)
        else:
            matched = set()
            node_matched = [False] * graph.num_nodes
            for c in range(sweep_rounds):
                for eid, (u, w) in enumerate(zip(a_nodes, b_nodes)):
                    if colors[eid] != c or u == w:
                        continue
                    if not node_matched[u] and not node_matched[w]:
                        matched.add(eid)
                        node_matched[u] = True
                        node_matched[w] = True
        line_rounds = coloring_run.rounds
        total_rounds = 2 * line_rounds + sweep_rounds + 1
        return RunResult(
            outputs=matching_labeling(graph, matched),
            node_radius=[total_rounds] * graph.num_nodes,
            extras={
                "line_coloring_rounds": line_rounds,
                "sweep_rounds": sweep_rounds,
                "matching_size": len(matched),
            },
        )


@register_solver(
    "matching-luby",
    problem="maximal-matching",
    families=_MATCHING_FAMILIES,
    description="randomized Luby-style edge proposals",
)
class LubyMatchingSolver:
    """Randomized maximal matching by iterated edge proposals."""

    name = "matching-luby"
    randomized = True

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        rng = instance.require_rng()
        stream = rng.global_stream()
        off, _nbr, _peer, eids = graph.csr()
        a_nodes, b_nodes = _endpoints(graph)
        live = {eid for eid in range(graph.num_edges) if a_nodes[eid] != b_nodes[eid]}
        matched: set[int] = set()
        node_matched = [False] * graph.num_nodes
        rounds = 0
        while live:
            rounds += 1
            marks = {eid: stream.random() for eid in live}
            for eid in sorted(live):
                a, b = a_nodes[eid], b_nodes[eid]
                competitors = set()
                for v in (a, b):
                    for slot in range(off[v], off[v + 1]):
                        other = eids[slot]
                        if other in live and other != eid:
                            competitors.add(other)
                if all(marks[eid] < marks[c] for c in competitors):
                    if not node_matched[a] and not node_matched[b]:
                        matched.add(eid)
                        node_matched[a] = True
                        node_matched[b] = True
            live = {
                eid
                for eid in live
                if eid not in matched
                and not node_matched[a_nodes[eid]]
                and not node_matched[b_nodes[eid]]
            }
            if rounds > 64 * max(graph.num_edges, 2):  # pragma: no cover
                raise RuntimeError("matching proposals did not converge")
        return RunResult(
            outputs=matching_labeling(graph, matched),
            node_radius=[rounds] * graph.num_nodes,
            extras={"proposal_rounds": rounds, "matching_size": len(matched)},
        )
