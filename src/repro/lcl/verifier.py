"""The distributed constant-time verifier for ne-LCLs.

``verify`` is the centralized simulation of the local checking
procedure that defines LCLs: every node evaluates its node constraint,
every edge its edge constraint, and the solution is correct iff all
accept.  Violations carry enough context to pinpoint the failing
element, which the test-suite and the corruption experiments rely on.
Its loop is the object layer's one checker, the differential oracle of
the vector layer's (:mod:`repro.kernels.verifier`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import kernels
from repro.lcl.assignment import Labeling
from repro.lcl.problem import EdgeConfiguration, NeLCL, NodeConfiguration
from repro.local.graphs import HalfEdge, PortGraph

__all__ = [
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

    Reads topology through the flat incidence core and labels through
    the labelings' slot lists: node ``v``'s ports are the slots
    ``offsets[v]..offsets[v + 1]``, and a port is a loop port exactly
    when its flat neighbor entry is ``v`` itself.
    """
    off, nbr, _peer, eids = graph.csr()
    start, end = off[v], off[v + 1]
    row = eids[start:end].tolist()
    in_edges, out_edges = inputs.edge_labels(), outputs.edge_labels()
    return NodeConfiguration(
        degree=end - start,
        node_input=inputs.node(v),
        node_output=outputs.node(v),
        edge_inputs=tuple(in_edges[e] for e in row),
        edge_outputs=tuple(out_edges[e] for e in row),
        half_inputs=tuple(inputs.slot_labels()[start:end]),
        half_outputs=tuple(outputs.slot_labels()[start:end]),
        loop_ports=tuple(u == v for u in nbr[start:end].tolist()),
    )


def edge_configuration(
    graph: PortGraph, eid: int, inputs: Labeling, outputs: Labeling
) -> EdgeConfiguration:
    """Assemble the configuration edge ``eid`` checks locally (its ``a``
    side first)."""
    ends = graph.edge_slots()
    nbr = graph.csr()[1]
    a, b = ends[2 * eid], ends[2 * eid + 1]
    u, w = nbr[b], nbr[a]
    in_slots, out_slots = inputs.slot_labels(), outputs.slot_labels()
    return EdgeConfiguration(
        node_inputs=(inputs.node(u), inputs.node(w)),
        node_outputs=(outputs.node(u), outputs.node(w)),
        edge_input=inputs.edge(eid),
        edge_output=outputs.edge(eid),
        half_inputs=(in_slots[a], in_slots[b]),
        half_outputs=(out_slots[a], out_slots[b]),
        is_loop=u == w,
    )


def _domain_violations(
    problem: NeLCL, graph: PortGraph, labeling: Labeling, direction: str
) -> list[Violation]:
    """Domain-membership violations of one labeling.

    Nodes and edges are scanned by index, half-edges edge by edge (a
    side, then b side), the order of :meth:`PortGraph.half_edges`.
    """
    out: list[Violation] = []
    off, nbr, _peer, _eids = graph.csr()
    ends = graph.edge_slots()
    for kind in ("node", "edge", "half"):
        label_set = getattr(problem, f"{kind}_{direction}s")
        if label_set is None:
            continue
        if kind == "half":
            slot_labels = labeling.slot_labels()
            labels = [slot_labels[slot] for slot in ends]
        else:
            labels = getattr(labeling, f"{kind}_labels")()
        for index, label in enumerate(labels):
            if label in label_set:
                continue
            key = index
            if kind == "half":
                node = nbr[ends[index ^ 1]]
                key = HalfEdge(node, ends[index] - off[node])
            out.append(
                Violation(
                    "domain",
                    (kind, key),
                    f"{direction} label {label!r} not in {label_set.name}",
                )
            )
    return out


def verify(
    problem: NeLCL,
    graph: PortGraph,
    inputs: Labeling,
    outputs: Labeling,
    check_input_domain: bool = False,
) -> Verdict:
    """Run the distributed checker and collect violations.

    Edge constraints are evaluated on both side orders; both must
    accept, which makes asymmetric (hence ill-formed) constraints fail
    loudly instead of silently depending on storage order.  Problems
    that declare :attr:`NeLCL.edge_symmetric` vouch for symmetry and
    skip the second evaluation.
    """
    if not check_input_domain and kernels.vector_enabled():
        # Default-option verification has a vectorized twin that checks
        # each *distinct* configuration once; the verdict is identical,
        # violations included.
        from repro.kernels.verifier import vector_verify

        return vector_verify(problem, graph, inputs, outputs)
    violations = _domain_violations(problem, graph, outputs, "output")
    if check_input_domain:
        violations += _domain_violations(problem, graph, inputs, "input")

    node_constraint = problem.node_constraint
    for v in graph.nodes():
        config = node_configuration(graph, v, inputs, outputs)
        if not node_constraint(config):
            violations.append(
                Violation("node", v, f"node constraint of {problem.name} failed")
            )
    edge_constraint = problem.edge_constraint
    check_flip = not problem.edge_symmetric
    for eid in range(graph.num_edges):
        config = edge_configuration(graph, eid, inputs, outputs)
        if not edge_constraint(config):
            violations.append(
                Violation("edge", eid, f"edge constraint of {problem.name} failed")
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
