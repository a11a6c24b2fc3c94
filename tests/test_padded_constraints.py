"""Targeted tests: each Section 3.3 constraint of Pi', violated in turn.

The solver round-trip tests prove the verifier accepts honest outputs;
these tests prove it *rejects* every individual way of cheating, which
is what makes Pi' an LCL rather than a promise problem.
"""

from __future__ import annotations

import pytest

from repro.core import (
    GADEDGE,
    PORT_ERR1,
    PORT_ERR2,
    PORT_OK,
    PaddedOutput,
    PaddedProblem,
    PaddedSolver,
    pad_graph,
)
from repro.core.padded_problem import ERRMARK, PadList
from repro.gadgets import GADOK, LogGadgetFamily, build_gadget
from repro.generators import complete, cycle
from repro.lcl.labels import BLANK, EMPTY
from repro.local import HalfEdge, Instance
from repro.local.identifiers import sequential_ids
from repro.problems import DeterministicSinklessSolver, SinklessOrientation


@pytest.fixture(scope="module")
def honest():
    """A verified honest solution to mutate."""
    base = complete(4)
    gadgets = [build_gadget(3, 3) for _ in base.nodes()]
    padded = pad_graph(base, gadgets)
    family = LogGadgetFamily(3)
    problem = PaddedProblem(SinklessOrientation().problem(), family)
    instance = Instance(
        padded.graph, sequential_ids(padded.graph.num_nodes), padded.inputs
    )
    result = PaddedSolver(problem, DeterministicSinklessSolver()).solve(instance)
    verdict = problem.verify(padded.graph, padded.inputs, result.outputs)
    assert verdict.ok
    return padded, problem, result


def _mutated(honest, mutate):
    padded, problem, result = honest
    outputs = result.outputs.copy()
    mutate(padded, outputs)
    return problem.verify(padded.graph, padded.inputs, outputs)


class TestConstraint1:
    def test_port_edge_must_be_blank(self, honest):
        def mutate(padded, outputs):
            outputs.set_edge(padded.port_edges[0], GADOK)

        verdict = _mutated(honest, mutate)
        assert any("BLANK" in str(v) for v in verdict.violations)

    def test_port_half_must_be_blank(self, honest):
        def mutate(padded, outputs):
            edge = padded.graph.edge(padded.port_edges[0])
            outputs.set_half(edge.a, GADOK)

        assert not _mutated(honest, mutate).ok

    def test_gadget_edge_needs_psi_label(self, honest):
        def mutate(padded, outputs):
            for eid in range(padded.graph.num_edges):
                if padded.edge_tag(eid) == GADEDGE:
                    outputs.set_edge(eid, BLANK)
                    break

        assert not _mutated(honest, mutate).ok


class TestConstraint2:
    def test_psi_must_hold_per_component(self, honest):
        def mutate(padded, outputs):
            v = padded.padded_node(0, padded.gadget_of[0].center)
            out = outputs.node(v)
            from repro.gadgets import ERROR

            outputs.set_node(v, PaddedOutput(out.list, out.port_err, ERROR))
            # keep replication so the violation is Psi's, not the mirror's
            for port in range(padded.graph.degree(v)):
                outputs.set_half(HalfEdge(v, port), ERROR)

        verdict = _mutated(honest, mutate)
        assert any("Psi_G" in str(v) for v in verdict.violations)

    def test_half_replication_enforced(self, honest):
        def mutate(padded, outputs):
            v = padded.padded_node(1, padded.gadget_of[1].center)
            outputs.set_half(HalfEdge(v, 0), ERRMARK)

        assert not _mutated(honest, mutate).ok

    def test_mislabeled_gadget_edge_reported_once(self):
        from repro.core.projection import edge_tag
        from repro.runtime import registry
        from repro.runtime.driver import dispatch_solver

        instance = registry.family("padded-sinkless").builder(2, 0)
        result = dispatch_solver(
            registry.solver("padded-sinkless-det").factory(), instance
        )
        eid = next(
            e
            for e in range(instance.graph.num_edges)
            if edge_tag(instance.inputs, e) == GADEDGE
        )
        outputs = result.outputs.copy()
        outputs.set_edge(eid, ERRMARK)
        problem = registry.problem("padded-sinkless").factory()
        verdict = problem.verify(instance.graph, instance.inputs, outputs)
        assert [(v.kind, v.where) for v in verdict.violations] == [("edge", eid)]
        assert "GadOk iff both endpoints" in verdict.violations[0].message

    def test_mislabeled_gadget_self_loop_reported_once(self):
        # A lone node with a GadEdge self-loop and no gadget labels: its
        # Psi output is rightly Error, so a GadOk on the loop is the one
        # violation -- seen from both of the loop's ports, reported once.
        from repro.core.padding import PaddedInput
        from repro.core.padded_problem import empty_pad_list
        from repro.gadgets import ERROR
        from repro.lcl import Labeling
        from repro.local import PortGraph

        graph = PortGraph.from_edge_list(1, [(0, 0)])
        inputs = Labeling(graph)
        inputs.set_edge(0, PaddedInput(EMPTY, GADEDGE))
        outputs = Labeling(graph)
        outputs.set_node(0, PaddedOutput(empty_pad_list(3), PORT_OK, ERROR))
        outputs.set_edge(0, GADOK)
        outputs.set_half(HalfEdge(0, 0), ERROR)
        outputs.set_half(HalfEdge(0, 1), ERROR)
        problem = PaddedProblem(SinklessOrientation().problem(), LogGadgetFamily(3))
        verdict = problem.verify(graph, inputs, outputs)
        assert [(v.kind, v.where) for v in verdict.violations] == [("edge", 0)]


class TestConstraint3:
    def test_port_err2_cannot_be_dropped(self, honest):
        def mutate(padded, outputs):
            # every gadget has 3 ports but base degree 3 uses all; use a
            # NoPort node claiming PortErr2 instead
            v = padded.padded_node(0, padded.gadget_of[0].center)
            out = outputs.node(v)
            outputs.set_node(v, PaddedOutput(out.list, PORT_ERR2, out.psi))

        verdict = _mutated(honest, mutate)
        assert any("constraint 3" in str(v) for v in verdict.violations)

    def test_port_err2_forced_on_unconnected_port(self):
        """A degree-2 base node leaves one port dangling: PortErr2."""
        base = cycle(3)
        gadgets = [build_gadget(3, 3) for _ in base.nodes()]
        padded = pad_graph(base, gadgets)
        family = LogGadgetFamily(3)
        problem = PaddedProblem(SinklessOrientation().problem(), family)
        instance = Instance(
            padded.graph, sequential_ids(padded.graph.num_nodes), padded.inputs
        )
        result = PaddedSolver(problem, DeterministicSinklessSolver()).solve(instance)
        assert problem.verify(padded.graph, padded.inputs, result.outputs).ok
        # break it: claim the unused Port_3 is fine
        outputs = result.outputs.copy()
        v = padded.padded_node(0, gadgets[0].ports[2])
        out = outputs.node(v)
        outputs.set_node(v, PaddedOutput(out.list, PORT_OK, out.psi))
        assert not problem.verify(padded.graph, padded.inputs, outputs).ok


class TestConstraint4:
    def test_port_err1_between_healthy_gadgets_rejected(self, honest):
        def mutate(padded, outputs):
            v = padded.padded_node(0, padded.gadget_of[0].ports[0])
            out = outputs.node(v)
            pad = out.list._replace(
                ports=out.list.ports - {1}
            )  # keep constraint 5 consistent with the flag
            outputs.set_node(v, PaddedOutput(pad, PORT_ERR1, out.psi))

        verdict = _mutated(honest, mutate)
        assert any("constraint 4" in str(v) for v in verdict.violations)


class TestConstraint5:
    def test_s_must_match_no_port_err(self, honest):
        def mutate(padded, outputs):
            v = padded.padded_node(0, padded.gadget_of[0].ports[0])
            out = outputs.node(v)
            pad = out.list._replace(ports=out.list.ports - {1})
            outputs.set_node(v, PaddedOutput(pad, out.port_err, out.psi))

        verdict = _mutated(honest, mutate)
        assert any("constraint 5" in str(v) or "constraint 6" in str(v) for v in verdict.violations)

    def test_iota_must_copy_inputs(self, honest):
        def mutate(padded, outputs):
            v = padded.padded_node(2, padded.gadget_of[2].ports[0])
            out = outputs.node(v)
            iota_e = list(out.list.iota_e)
            iota_e[0] = "forged"
            pad = out.list._replace(iota_e=tuple(iota_e))
            outputs.set_node(v, PaddedOutput(pad, out.port_err, out.psi))

        verdict = _mutated(honest, mutate)
        assert any("iota_E" in str(v) for v in verdict.violations)


class TestConstraint6:
    def test_lists_must_agree_inside_gadget(self, honest):
        def mutate(padded, outputs):
            v = padded.padded_node(3, padded.gadget_of[3].center)
            out = outputs.node(v)
            pad = out.list._replace(iota_v="divergent")
            outputs.set_node(v, PaddedOutput(pad, out.port_err, out.psi))

        verdict = _mutated(honest, mutate)
        assert any("Sigma_list differs" in str(v) for v in verdict.violations)

    def test_contraction_must_solve_base(self, honest):
        def mutate(padded, outputs):
            # orient one virtual half-edge inconsistently everywhere in
            # one gadget (keeping intra-gadget equality)
            from repro.problems import IN, OUT

            target = 0
            rep = outputs.node(padded.padded_node(target, 0))
            o_b = list(rep.list.o_b)
            for i, value in enumerate(o_b):
                if value in (IN, OUT):
                    o_b[i] = IN if value == OUT else OUT
                    break
            pad = rep.list._replace(o_b=tuple(o_b))
            for v in padded.gadget_nodes(target):
                out = outputs.node(v)
                outputs.set_node(v, PaddedOutput(pad, out.port_err, out.psi))

        verdict = _mutated(honest, mutate)
        assert any(v.kind == "virtual" or "constraint 6" in str(v) for v in verdict.violations)


class TestOutputShape:
    def test_non_padded_output_rejected(self, honest):
        def mutate(padded, outputs):
            outputs.set_node(0, "garbage")

        verdict = _mutated(honest, mutate)
        assert any(v.kind == "domain" for v in verdict.violations)

    def test_bad_port_flag_rejected(self, honest):
        def mutate(padded, outputs):
            out = outputs.node(0)
            outputs.set_node(0, PaddedOutput(out.list, "MaybeErr", out.psi))

        assert not _mutated(honest, mutate).ok

    def test_wrong_arity_lists_rejected(self, honest):
        def mutate(padded, outputs):
            out = outputs.node(0)
            pad = PadList(
                ports=frozenset(),
                iota_v=EMPTY,
                iota_e=(EMPTY,),  # wrong arity
                iota_b=(EMPTY,),
                o_v=EMPTY,
                o_e=(EMPTY,),
                o_b=(EMPTY,),
            )
            outputs.set_node(0, PaddedOutput(pad, out.port_err, out.psi))

        assert not _mutated(honest, mutate).ok
