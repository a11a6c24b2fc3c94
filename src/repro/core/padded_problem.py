"""The padded problem Pi' (paper Section 3.3).

Given a base ne-LCL Pi and a (d, Delta)-gadget family, Pi' asks each
node to either take part in a locally checkable proof that its gadget
is invalid, or to contribute to a solution of Pi on the virtual graph
obtained by contracting the valid gadgets.  Output labels:

* every node: ``PaddedOutput(list=PadList(...), port_err, psi)`` —
  the Sigma_list tuple, the PortErr1/PortErr2/NoPortErr flag, and the
  node's Psi_G output;
* every edge / half-edge: ``BLANK`` on port edges, a Psi_G label on
  gadget edges (``GADOK`` or an error marker / pointer replication).

``verify_padded`` implements constraints 1-6 of Section 3.3 verbatim,
with two documented interpretive choices:

* Psi_G is checked in its constant-radius node-output form (Section
  4.4); the node-edge lowering of Section 4.6 lives in
  ``repro.gadgets.ne_encoding`` and is exercised separately.
* In constraint 6, the cross-edge comparisons for a port edge apply
  when the respective port indices are in the endpoints' S-sets (the
  paper's alpha-notation presumes this; when a port is not in S,
  constraints 3-5 already pin the inconsistency down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple

from repro.core.projection import pi_part
from repro.core.virtual_graph import (
    GADGET_EDGE,
    PORT_EDGE,
    PORT_ERR1,
    PORT_ERR2,
    PORT_OK,
    UNTAGGED_EDGE,
    GadgetAnalysis,
    gadget_analysis,
)
from repro.gadgets.family import GadgetFamily
from repro.gadgets.labels import GADOK, Port
from repro.gadgets.psi import verify_psi
from repro.lcl.assignment import Labeling
from repro.lcl.labels import BLANK, EMPTY
from repro.lcl.problem import NeLCL
from repro.lcl.verifier import Verdict, Violation
from repro.lcl.verifier import verify as lcl_verify
from repro.local.graphs import PortGraph

__all__ = ["PadList", "PaddedOutput", "ERRMARK", "PaddedProblem", "verify_padded"]

#: the Sigma^G_E,out marker for gadget edges inside invalid gadgets
ERRMARK = "PsiErr"


class PadList(NamedTuple):
    """The Sigma_list part of a node's output (Section 3.3).

    ``ports`` is the set S of valid port indices (1-based).  The iota
    fields copy the Pi-inputs of the gadget's interface (node input of
    Port_1, edge and half-edge inputs of the port edges); the ``o``
    fields carry the virtual node's Pi-outputs.  Arrays are indexed by
    port index - 1 and have length Delta.
    """

    ports: frozenset
    iota_v: Hashable
    iota_e: tuple
    iota_b: tuple
    o_v: Hashable
    o_e: tuple
    o_b: tuple


class PaddedOutput(NamedTuple):
    list: PadList
    port_err: str  # PortErr1 | PortErr2 | NoPortErr
    psi: Hashable  # GADOK | ERROR | Pointer


#: The labels outside L_Err (see ``_is_lerr``).
_NOT_LERR = (GADOK, BLANK, EMPTY)


def _is_lerr(label: Hashable) -> bool:
    """Is this element output from L_Err (an error label of Psi_G)?"""
    return label not in _NOT_LERR


def empty_pad_list(delta: int) -> PadList:
    return PadList(
        ports=frozenset(),
        iota_v=EMPTY,
        iota_e=(EMPTY,) * delta,
        iota_b=(EMPTY,) * delta,
        o_v=EMPTY,
        o_e=(EMPTY,) * delta,
        o_b=(EMPTY,) * delta,
    )


@dataclass
class PaddedProblem:
    """Pi' = pad(Pi, G).  Carries the base problem and the family.

    ``base`` is either an ne-LCL or another :class:`PaddedProblem`
    (the Section 5 recursion).
    """

    base: "NeLCL | PaddedProblem"
    family: GadgetFamily
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"padded({self.base.name}, {self.family.name})"

    @property
    def delta(self) -> int:
        return self.family.delta

    def empty_list(self) -> PadList:
        return empty_pad_list(self.delta)

    def verify(
        self, graph: PortGraph, inputs: Labeling, outputs: Labeling
    ) -> Verdict:
        return verify_padded(self, graph, inputs, outputs)


def _psi_outputs_of_component(
    outputs: list, component: list[int]
) -> dict[int, Hashable]:
    result = {}
    for v in component:
        label = outputs[v]
        result[v] = label.psi if isinstance(label, PaddedOutput) else None
    return result


def verify_padded(
    problem: PaddedProblem,
    graph: PortGraph,
    inputs: Labeling,
    outputs: Labeling,
) -> Verdict:
    """Check constraints 1-6 of Section 3.3.

    Every constraint is checked on ``outputs`` here; what is read about
    the input comes from the instance's shared
    :func:`~repro.core.virtual_graph.gadget_analysis` (the scope and its
    structural verdicts, the components, the port edges and the virtual
    graph), which the solver usually built already.
    """
    delta = problem.delta
    violations: list[Violation] = []

    def add(kind: str, where, message: str) -> None:
        violations.append(Violation(kind, where, message))

    out_nodes = outputs.node_labels()
    out_edges = outputs.edge_labels()
    out_slots = outputs.slot_labels()

    # --- output shape -------------------------------------------------------
    for v, label in enumerate(out_nodes):
        if not isinstance(label, PaddedOutput) or not isinstance(label.list, PadList):
            add("domain", ("node", v), f"node output {label!r} is not a PaddedOutput")
            return Verdict(False, violations)
        if label.port_err not in (PORT_OK, PORT_ERR1, PORT_ERR2):
            add("domain", ("node", v), f"bad port flag {label.port_err!r}")
        pad = label.list
        if not (
            len(pad.iota_e) == len(pad.iota_b) == len(pad.o_e) == len(pad.o_b) == delta
        ):
            add("domain", ("node", v), "Sigma_list arrays must have length delta")

    analysis = gadget_analysis(graph, inputs, problem.family)
    scope, kinds = analysis.scope, analysis.edge_kinds
    off, nbr, _peer, eids = graph.csr()
    ends = graph.edge_slots()

    # --- constraint 1: port edges blank, gadget edges Psi-labeled ---------
    for eid, kind in enumerate(kinds):
        label = out_edges[eid]
        halves = (out_slots[ends[2 * eid]], out_slots[ends[2 * eid + 1]])
        if kind == PORT_EDGE:
            if label is not BLANK:
                add("edge", eid, "port edge must output BLANK")
            for side_label in halves:
                if side_label is not BLANK:
                    add("edge", eid, "port half-edge must output BLANK")
        else:
            # GadEdge (or malformed tag, treated as gadget edge)
            if label is BLANK:
                add("edge", eid, "gadget edge must carry a Psi_G label")
            for side_label in halves:
                if side_label is BLANK:
                    add("edge", eid, "gadget half-edge must carry a Psi_G label")

    # --- constraint 2: Psi_G holds on every gadget component ---------------
    for index in range(analysis.num_components):
        component = analysis.nodes_of(index)
        psi_outputs = _psi_outputs_of_component(out_nodes, component)
        for violation in verify_psi(scope, component, psi_outputs, delta):
            add("node", violation.node, f"Psi_G: {violation.message}")
        # replication: a gadget half-edge carries its node's Psi label;
        # a gadget edge is GadOk exactly when both endpoints are
        for v in component:
            psi = psi_outputs[v]
            for slot in range(off[v], off[v + 1]):
                eid = eids[slot]
                if kinds[eid] == PORT_EDGE:
                    continue
                half_label = out_slots[slot]
                if half_label != psi:
                    add(
                        "node",
                        v,
                        "gadget half-edge must replicate the node's Psi label "
                        f"({half_label!r} vs {psi!r})",
                    )
                if ends[2 * eid] != slot:
                    continue  # each edge once, from side a (a loop's lower port)
                expected_ok = psi == GADOK and psi_outputs.get(nbr[slot]) == GADOK
                if expected_ok != (out_edges[eid] == GADOK):
                    add(
                        "edge",
                        eid,
                        "gadget edge must be GadOk iff both endpoints are GadOk",
                    )

    # --- constraints 3 and 4: port flags ------------------------------------
    port_status = analysis.port_status
    for v, label in enumerate(out_nodes):
        must_err2 = port_status.get(v) == PORT_ERR2
        if must_err2 != (label.port_err == PORT_ERR2):
            n_port_edges = sum(
                1 for slot in range(off[v], off[v + 1]) if kinds[eids[slot]] == PORT_EDGE
            )
            add(
                "node",
                v,
                f"constraint 3: PortErr2 iff a port with {n_port_edges} port edges",
            )

    port_tag_of = scope.port_tag
    for eid in analysis.port_edges:
        a_node, b_node = nbr[ends[2 * eid + 1]], nbr[ends[2 * eid]]
        for u, far_node in ((a_node, b_node), (b_node, a_node)):
            if not isinstance(port_tag_of(u), Port):
                continue
            u_out: PaddedOutput = out_nodes[u]
            far_out: PaddedOutput = out_nodes[far_node]
            both_ports = isinstance(port_tag_of(far_node), Port)
            both_gadok = u_out.psi == GADOK and far_out.psi == GADOK
            if both_ports and both_gadok:
                if u_out.port_err == PORT_ERR1:
                    add("edge", eid, "constraint 4: PortErr1 between GadOk ports")
            if (not both_ports) or _is_lerr(u_out.psi) or _is_lerr(far_out.psi):
                if u_out.port_err == PORT_OK:
                    add(
                        "edge",
                        eid,
                        "constraint 4: NoPortErr despite a NoPort/LErr far side",
                    )

    # --- constraint 5 (label level): S and the iota copies ------------------
    # Only a Port node has anything to check past the LErr escape.
    in_edges, in_slots = inputs.edge_labels(), inputs.slot_labels()
    for v, port_slots in analysis.port_edge_slots.items():
        label = out_nodes[v]
        # LErr escape: any incident element (node psi, incident gadget
        # edges/halves) with an error label satisfies the node for free.
        incident_labels = [label.psi]
        for slot in range(off[v], off[v + 1]):
            incident_labels.append(out_edges[eids[slot]])
            incident_labels.append(out_slots[slot])
        if any(_is_lerr(x) for x in incident_labels):
            continue
        pad: PadList = label.list
        i = port_tag_of(v).i
        in_s = i in pad.ports
        if in_s != (label.port_err == PORT_OK):
            add("node", v, "constraint 5: Port_i in S iff NoPortErr")
        if i == 1 and pad.iota_v != pi_part(inputs.node(v)):
            add("node", v, "constraint 5: iota_V must copy Port_1's Pi input")
        if in_s:
            for slot in port_slots:
                if pad.iota_e[i - 1] != pi_part(in_edges[eids[slot]]):
                    add("node", v, "constraint 5: iota_E must copy the port edge input")
                if pad.iota_b[i - 1] != pi_part(in_slots[slot]):
                    add("node", v, "constraint 5: iota_B must copy the half input")

    # --- constraint 6 (label level): list agreement --------------------------
    for eid, kind in enumerate(kinds):
        if kind == UNTAGGED_EDGE:
            continue
        a, b = ends[2 * eid], ends[2 * eid + 1]
        u_out: PaddedOutput = out_nodes[nbr[b]]
        w_out: PaddedOutput = out_nodes[nbr[a]]
        if (
            u_out.psi not in _NOT_LERR
            or w_out.psi not in _NOT_LERR
            or out_edges[eid] not in _NOT_LERR
            or out_slots[a] not in _NOT_LERR
            or out_slots[b] not in _NOT_LERR
        ):
            continue
        if kind == GADGET_EDGE:
            if u_out.list != w_out.list:
                add("edge", eid, "constraint 6: Sigma_list differs inside a gadget")
            continue
        u_tag, w_tag = port_tag_of(nbr[b]), port_tag_of(nbr[a])
        if not (isinstance(u_tag, Port) and isinstance(w_tag, Port)):
            continue
        i, j = u_tag.i, w_tag.i
        u_pad, w_pad = u_out.list, w_out.list
        if i not in u_pad.ports or j not in w_pad.ports:
            continue  # pinned down by constraints 3-5 (see module docstring)
        if u_pad.iota_e[i - 1] != w_pad.iota_e[j - 1]:
            add("edge", eid, "constraint 6: iota_E disagrees across the port edge")
        if u_pad.o_e[i - 1] != w_pad.o_e[j - 1]:
            add("edge", eid, "constraint 6: o_E disagrees across the port edge")
        if u_pad.o_b[i - 1] is EMPTY and i in u_pad.ports:
            add("edge", eid, "constraint 6: missing o_B on a valid port")

    # --- constraints 5/6 (solution level): Pi holds on the contraction ------
    violations.extend(_verify_contraction(problem, analysis, outputs))

    return Verdict(ok=not violations, violations=violations)


def _verify_contraction(
    problem: PaddedProblem,
    analysis: GadgetAnalysis,
    outputs: Labeling,
) -> list[Violation]:
    """Check that the Sigma_list outputs solve Pi on the virtual graph.

    This is the semantic reading of the last bullets of constraints 5
    and 6: take the virtual graph the analysis contracted from the
    valid gadgets, read the virtual solution out of the Sigma_list
    labels, and run the base problem's verifier on it.  For an ne-LCL
    base this is equivalent to evaluating the hypothetical node and
    edge configurations the paper writes down; for a padded base it is
    the recursion that makes Pi_3 and beyond checkable (the virtual
    inputs belong to this analysis, so the base level's analysis is
    shared with the base solver the same way).

    Dummy stubs standing in for dangling port edges are exempt (their
    Pi'-edge constraints are satisfied through the LErr escape on the
    far side), so violations located at them are filtered out.
    """
    virtual = analysis.virtual
    vg = virtual.graph
    v_off, _nbr, _peer, v_eids = vg.csr()
    out_nodes = outputs.node_labels()
    virtual_outputs = Labeling(vg)
    for a in vg.nodes():
        comp_index = virtual.component_of_virtual[a]
        if comp_index is None:
            continue
        first = analysis.component_nodes[analysis.component_start[comp_index]]
        rep = out_nodes[first]
        if not isinstance(rep, PaddedOutput):
            continue
        pad = rep.list
        virtual_outputs.set_node(a, pad.o_v)
        ranked = virtual.alpha[a] or []
        for rank, i in enumerate(ranked):
            if i - 1 < len(pad.o_e):
                virtual_outputs.set_edge(v_eids[v_off[a] + rank], pad.o_e[i - 1])
                virtual_outputs.set_slot(v_off[a] + rank, pad.o_b[i - 1])

    dummies = {
        a for a in vg.nodes() if virtual.component_of_virtual[a] is None
    }
    dangling_eids = {v_eids[v_off[a]] for a in dummies}

    def located_at_exempt(violation: Violation) -> bool:
        where = violation.where
        if violation.kind == "node" and where in dummies:
            return True
        if violation.kind == "edge" and where in dangling_eids:
            return True
        if violation.kind == "domain" and isinstance(where, tuple):
            kind, key = where
            if kind == "node" and key in dummies:
                return True
            if kind == "edge" and key in dangling_eids:
                return True
            if kind == "half" and getattr(key, "node", None) in dummies:
                return True
        return False

    base = problem.base
    if isinstance(base, PaddedProblem):
        verdict = base.verify(vg, virtual.inputs, virtual_outputs)
    else:
        verdict = lcl_verify(base, vg, virtual.inputs, virtual_outputs)
    out = []
    for violation in verdict.violations:
        if located_at_exempt(violation):
            continue
        out.append(
            Violation(
                "virtual",
                violation.where,
                f"contraction violates {base.name}: {violation.message}",
            )
        )
    return out
