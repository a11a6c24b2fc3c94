"""The distributed constant-time verifier for ne-LCLs.

``verify`` is the centralized simulation of the local checking
procedure that defines LCLs: every node evaluates its node constraint,
every edge its edge constraint, and the solution is correct iff all
accept.  Violations carry enough context to pinpoint the failing
element, which the test-suite and the corruption experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import kernels
from repro.lcl.assignment import Labeling
from repro.lcl.problem import EdgeConfiguration, NeLCL, NodeConfiguration
from repro.local.graphs import PortGraph

__all__ = [
    "PreparedVerifier",
    "Violation",
    "Verdict",
    "verify",
    "node_configuration",
    "edge_configuration",
]


@dataclass(frozen=True)
class Violation:
    kind: str  # "node" | "edge" | "domain"
    where: object  # node index, edge id, or (element kind, key)
    message: str

    def __str__(self) -> str:
        return f"[{self.kind} @ {self.where}] {self.message}"


@dataclass
class Verdict:
    ok: bool
    violations: list[Violation]

    def __bool__(self) -> bool:
        return self.ok

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def summary(self, limit: int = 5) -> str:
        if self.ok:
            return "accepted"
        lines = [f"rejected with {len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations[:limit]]
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


def node_configuration(
    graph: PortGraph, v: int, inputs: Labeling, outputs: Labeling
) -> NodeConfiguration:
    """Assemble the configuration node ``v`` checks locally.

    Reads topology through the flat incidence core: edge ids come from
    the per-node table, and a port is a loop port exactly when its flat
    neighbor entry is ``v`` itself.  Plain ``(v, p)`` tuples stand in
    for :class:`HalfEdge` keys (NamedTuples compare and hash equal to
    plain tuples).
    """
    eids = graph.incident_edge_ids(v)
    degree = len(eids)
    sides = [(v, p) for p in range(degree)]
    in_edge, out_edge = inputs.edge, outputs.edge
    in_half, out_half = inputs.half, outputs.half
    return NodeConfiguration(
        degree=degree,
        node_input=inputs.node(v),
        node_output=outputs.node(v),
        edge_inputs=tuple(in_edge(e) for e in eids),
        edge_outputs=tuple(out_edge(e) for e in eids),
        half_inputs=tuple(in_half(s) for s in sides),
        half_outputs=tuple(out_half(s) for s in sides),
        loop_ports=tuple(u == v for u in graph.neighbors(v)),
    )


def edge_configuration(
    graph: PortGraph, eid: int, inputs: Labeling, outputs: Labeling
) -> EdgeConfiguration:
    """Assemble the configuration edge ``eid`` checks locally."""
    edge = graph.edge(eid)
    u_side, v_side = edge.a, edge.b
    return EdgeConfiguration(
        node_inputs=(inputs.node(u_side.node), inputs.node(v_side.node)),
        node_outputs=(outputs.node(u_side.node), outputs.node(v_side.node)),
        edge_input=inputs.edge(eid),
        edge_output=outputs.edge(eid),
        half_inputs=(inputs.half(u_side), inputs.half(v_side)),
        half_outputs=(outputs.half(u_side), outputs.half(v_side)),
        is_loop=edge.is_loop,
    )


def _domain_violations(
    problem: NeLCL,
    graph: PortGraph,
    labeling: Labeling,
    direction: str,
    limit: int | None = None,
) -> list[Violation]:
    """Domain-membership violations, stopping once ``limit`` are found."""
    sets = {
        "node": getattr(problem, f"node_{direction}s"),
        "edge": getattr(problem, f"edge_{direction}s"),
        "half": getattr(problem, f"half_{direction}s"),
    }
    out: list[Violation] = []
    if limit is not None and limit <= 0:
        return out
    if sets["node"] is not None:
        for v in graph.nodes():
            if labeling.node(v) not in sets["node"]:
                out.append(
                    Violation(
                        "domain",
                        ("node", v),
                        f"{direction} label {labeling.node(v)!r} not in "
                        f"{sets['node'].name}",
                    )
                )
                if limit is not None and len(out) >= limit:
                    return out
    if sets["edge"] is not None:
        for eid in range(graph.num_edges):
            if labeling.edge(eid) not in sets["edge"]:
                out.append(
                    Violation(
                        "domain",
                        ("edge", eid),
                        f"{direction} label {labeling.edge(eid)!r} not in "
                        f"{sets['edge'].name}",
                    )
                )
                if limit is not None and len(out) >= limit:
                    return out
    if sets["half"] is not None:
        for side in graph.half_edges():
            if labeling.half(side) not in sets["half"]:
                out.append(
                    Violation(
                        "domain",
                        ("half", side),
                        f"{direction} label {labeling.half(side)!r} not in "
                        f"{sets['half'].name}",
                    )
                )
                if limit is not None and len(out) >= limit:
                    return out
    return out


class PreparedVerifier:
    """Repeated verification against one (problem, graph, inputs) triple.

    A batch of trials that shares a frozen graph and one inputs labeling
    (seed-only reruns of a topology-reusable family) re-derives the same
    topology- and input-side configuration fields on every :func:`verify`
    call; only the output-dependent fields actually change between
    trials.  This class computes that invariant skeleton once, on its
    first :meth:`verify`, and then evaluates exactly the constraint
    calls :func:`verify` makes with default options, so
    ``prepared.verify(outputs)`` returns a verdict identical to
    ``verify(problem, graph, inputs, outputs)``.

    The caller is responsible for only reusing an instance against the
    graph and inputs it was prepared with (:attr:`graph` and
    :attr:`inputs_src` expose them for identity checks).
    """

    def __init__(
        self, problem: NeLCL, graph: PortGraph, inputs: Labeling | None = None
    ):
        self.problem = problem
        self.graph = graph
        #: The inputs object handed in (None = "empty labeling"), kept
        #: for identity checks by batch drivers.
        self.inputs_src = inputs
        # Built on the first :meth:`verify`.  The vector twin
        # (``repro.kernels.verifier.vector_prepared``) reads only the
        # three fields above, so a verifier that only runs on the vector
        # backend never builds it.
        self._skeleton: tuple[list, list] | None = None

    def _build_skeleton(self) -> tuple[list, list]:
        """The (node, edge) skeleton: every configuration field that
        does not depend on the outputs."""
        graph = self.graph
        inputs = self.inputs_src
        if inputs is None:
            inputs = Labeling(graph)
        node_skeleton = []
        for v in graph.nodes():
            eids = graph.incident_edge_ids(v)
            sides = [(v, p) for p in range(len(eids))]
            node_skeleton.append(
                (
                    v,
                    len(eids),
                    inputs.node(v),
                    tuple(inputs.edge(e) for e in eids),
                    tuple(inputs.half(s) for s in sides),
                    tuple(u == v for u in graph.neighbors(v)),
                    eids,
                    sides,
                )
            )
        edge_skeleton = []
        for eid in range(graph.num_edges):
            edge = graph.edge(eid)
            u_side, v_side = edge.a, edge.b
            edge_skeleton.append(
                (
                    eid,
                    u_side,
                    v_side,
                    (inputs.node(u_side.node), inputs.node(v_side.node)),
                    inputs.edge(eid),
                    (inputs.half(u_side), inputs.half(v_side)),
                    edge.is_loop,
                )
            )
        return node_skeleton, edge_skeleton

    def verify(self, outputs: Labeling) -> Verdict:
        """The verdict ``verify(problem, graph, inputs, outputs)`` returns."""
        from repro.lcl.labels import EMPTY

        if self._skeleton is None:
            self._skeleton = self._build_skeleton()
        node_skeleton, edge_skeleton = self._skeleton
        problem = self.problem
        violations = _domain_violations(problem, self.graph, outputs, "output")
        # Hot path: labels are read straight off the labeling's sparse
        # maps (same ``get(key, EMPTY)`` the accessors perform), and the
        # configurations are allocated without re-running ``__post_init__``
        # — the skeleton's per-port tuples are length-consistent by
        # construction, so the skipped validation could never fire.
        out_node = outputs._node.get
        out_edge = outputs._edge.get
        out_half = outputs._half.get
        new_node_config = NodeConfiguration.__new__
        new_edge_config = EdgeConfiguration.__new__
        node_constraint = problem.node_constraint
        for v, degree, n_in, e_in, h_in, loops, eids, sides in node_skeleton:
            config = new_node_config(NodeConfiguration)
            config.__dict__.update(
                degree=degree,
                node_input=n_in,
                node_output=out_node(v, EMPTY),
                edge_inputs=e_in,
                edge_outputs=tuple(out_edge(e, EMPTY) for e in eids),
                half_inputs=h_in,
                half_outputs=tuple(out_half(s, EMPTY) for s in sides),
                loop_ports=loops,
            )
            if not node_constraint(config):
                violations.append(
                    Violation("node", v, f"node constraint of {problem.name} failed")
                )
        edge_constraint = problem.edge_constraint
        check_flip = not problem.edge_symmetric
        for eid, u_side, v_side, n_in, e_in, h_in, is_loop in edge_skeleton:
            config = new_edge_config(EdgeConfiguration)
            config.__dict__.update(
                node_inputs=n_in,
                node_outputs=(
                    out_node(u_side.node, EMPTY),
                    out_node(v_side.node, EMPTY),
                ),
                edge_input=e_in,
                edge_output=out_edge(eid, EMPTY),
                half_inputs=h_in,
                half_outputs=(out_half(u_side, EMPTY), out_half(v_side, EMPTY)),
                is_loop=is_loop,
            )
            if not edge_constraint(config):
                violations.append(
                    Violation(
                        "edge", eid, f"edge constraint of {problem.name} failed"
                    )
                )
            elif check_flip and not edge_constraint(config.flipped()):
                violations.append(
                    Violation(
                        "edge",
                        eid,
                        f"edge constraint of {problem.name} is asymmetric "
                        "(accepted one side order, rejected the other)",
                    )
                )
        return Verdict(ok=not violations, violations=violations)


def verify(
    problem: NeLCL,
    graph: PortGraph,
    inputs: Labeling,
    outputs: Labeling,
    check_input_domain: bool = False,
    max_violations: int | None = None,
) -> Verdict:
    """Run the distributed checker and collect violations.

    Edge constraints are evaluated on both side orders; both must
    accept, which makes asymmetric (hence ill-formed) constraints fail
    loudly instead of silently depending on storage order.  Problems
    that declare :attr:`NeLCL.edge_symmetric` vouch for symmetry and
    skip the second evaluation.  ``max_violations`` caps every pass,
    including the domain passes.
    """
    if (
        max_violations is None
        and not check_input_domain
        and kernels.vector_enabled()
    ):
        # Default-option verification has a vectorized twin that checks
        # each *distinct* configuration once; the verdict is identical,
        # violations included.
        from repro.kernels.verifier import vector_verify

        return vector_verify(problem, graph, inputs, outputs)
    violations: list[Violation] = []

    def full() -> bool:
        return max_violations is not None and len(violations) >= max_violations

    def remaining() -> int | None:
        # Budget left for the next pass.  A non-positive cap leaves the
        # domain passes uncapped (historical behavior: ``ok`` still
        # reflects domain validity even with ``max_violations=0``).
        if max_violations is None or max_violations <= 0:
            return None
        return max_violations - len(violations)

    violations.extend(
        _domain_violations(problem, graph, outputs, "output", remaining())
    )
    if check_input_domain and not full():
        violations.extend(
            _domain_violations(problem, graph, inputs, "input", remaining())
        )

    node_constraint = problem.node_constraint
    if not full():
        for v in graph.nodes():
            config = node_configuration(graph, v, inputs, outputs)
            if not node_constraint(config):
                violations.append(
                    Violation("node", v, f"node constraint of {problem.name} failed")
                )
                if full():
                    break
    edge_constraint = problem.edge_constraint
    check_flip = not problem.edge_symmetric
    if not full():
        for eid in range(graph.num_edges):
            config = edge_configuration(graph, eid, inputs, outputs)
            if not edge_constraint(config):
                violations.append(
                    Violation(
                        "edge", eid, f"edge constraint of {problem.name} failed"
                    )
                )
                if full():
                    break
            elif check_flip and not edge_constraint(config.flipped()):
                violations.append(
                    Violation(
                        "edge",
                        eid,
                        f"edge constraint of {problem.name} is asymmetric "
                        "(accepted one side order, rejected the other)",
                    )
                )
                if full():
                    break
    return Verdict(ok=not violations, violations=violations)
