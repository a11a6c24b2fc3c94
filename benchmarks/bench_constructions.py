"""E9-E12 — the paper's construction figures, rebuilt and validated.

* Figure 3: sinkless orientation in the node-edge-pair formalism;
* Figure 4: the valid-port subset S and the alpha mapping when an
  invalid gadget hangs off a port;
* Figures 5/6: sub-gadget and gadget structure metrics;
* Figures 7/8: the node-edge-checkable error proofs of Section 4.6.
"""

from __future__ import annotations

import random

from benchmarks.conftest import report
from repro.analysis import render_table
from repro.core import PORT_ERR1, PORT_OK, PaddedInput, decompose, pad_graph
from repro.gadgets import (
    GadgetScope,
    LogGadgetFamily,
    build_gadget,
    corrupt,
    gadget_size,
    run_prover,
)
from repro.gadgets.labels import GadgetNodeInput, NOPORT
from repro.gadgets.ne_encoding import compile_ne_proof, verify_ne_proof
from repro.generators import cycle, path
from repro.lcl import Labeling, verify
from repro.local import Instance, bfs_distances, diameter
from repro.local.identifiers import sequential_ids
from repro.problems import (
    DeterministicSinklessSolver,
    Orientation,
    SinklessOrientation,
)


def test_figure3_ne_formalism(benchmark):
    graph = cycle(6)
    problem = SinklessOrientation(exempt_below=0).problem()
    instance = Instance.simple(graph)
    result = DeterministicSinklessSolver(exempt_below=0).solve(instance)
    verdict = verify(problem, graph, Labeling(graph), result.outputs)
    assert verdict.ok
    orientation = Orientation.from_labeling(graph, result.outputs)
    out_degrees = [orientation.out_degree(v) for v in graph.nodes()]
    report(
        render_table(
            ["node", "out-degree"],
            [[v, d] for v, d in enumerate(out_degrees)],
            title=(
                "E9  Figure 3: sinkless orientation on a 6-cycle via "
                "half-edge labels (every node has an out-edge)"
            ),
        )
    )
    assert all(d >= 1 for d in out_degrees)
    benchmark(lambda: verify(problem, graph, Labeling(graph), result.outputs))


def test_figure4_port_mapping(benchmark):
    """Port_1 faces an invalid gadget: S = {2, 3}, alpha maps 2->1, 3->2."""
    base = path(4)  # node 1 has degree 2; node 0's gadget will be broken
    gadgets = [build_gadget(3, 3) for _ in base.nodes()]
    padded = pad_graph(base, gadgets)
    inputs = padded.inputs.copy()
    victim = padded.padded_node(0, gadgets[0].ports[0])
    old = inputs.node(victim)
    inputs.set_node(
        victim,
        PaddedInput(old.pi, GadgetNodeInput(old.gadget.role, NOPORT, old.gadget.color)),
    )
    family = LogGadgetFamily(3)
    decomposition = benchmark.pedantic(
        lambda: decompose(
            padded.graph,
            inputs,
            family,
            sequential_ids(padded.graph.num_nodes),
            padded.graph.num_nodes,
        ),
        rounds=1,
        iterations=1,
    )
    # node 1's gadget: its Port_1 edge goes to the broken gadget 0
    analysis = decomposition.analysis
    comp_of_node1 = analysis.component_of[padded.padded_node(1, gadgets[1].center)]
    virtual = analysis.virtual
    a = virtual.virtual_of_component[comp_of_node1]
    alpha = virtual.alpha[a]
    rows = []
    for i in (1, 2, 3):
        port_node = padded.padded_node(1, gadgets[1].ports[i - 1])
        status = analysis.port_status.get(port_node, "-")
        mapped = alpha.index(i) + 1 if i in alpha else "invalid"
        rows.append([f"Port_{i}", status, mapped])
    report(
        render_table(
            ["port", "status", "alpha maps to"],
            rows,
            title="E10  Figure 4: port mapping around an invalid neighbor",
        )
    )
    assert analysis.port_status[
        padded.padded_node(1, gadgets[1].ports[0])
    ] == PORT_ERR1
    assert alpha == [2]
    # note: Port_3 of a degree-2 base node has no port edge at all


def test_figures_5_6_gadget_metrics(benchmark):
    family = LogGadgetFamily(3)
    rows = []
    for height in (2, 4, 6, 8):
        built = build_gadget(3, height)
        dist = bfs_distances(built.graph, built.ports[0])
        port_dist = dist[built.ports[1]]
        rows.append(
            [
                height,
                built.num_nodes,
                gadget_size(3, height),
                diameter(built.graph),
                port_dist,
                2 * height,
            ]
        )
    report(
        render_table(
            ["height", "nodes", "formula", "diameter", "port dist", "2h"],
            rows,
            title="E11  Figures 5/6: gadget structure (sizes and distances)",
        )
    )
    for row in rows:
        assert row[1] == row[2]
        assert row[4] == row[5]
    benchmark(lambda: build_gadget(3, 6))


def test_figures_7_8_ne_proofs(benchmark):
    rows = []
    for name in ("color-clash", "swapped-children", "dropped-horizontal"):
        built = build_gadget(3, 4)
        corruption = corrupt(built, name)
        scope = GadgetScope(corruption.graph, corruption.inputs)
        component = sorted(corruption.graph.nodes())
        prover = run_prover(scope, component, 3, corruption.graph.num_nodes)
        node_out, half_out = compile_ne_proof(scope, component, prover.outputs)
        violations = verify_ne_proof(scope, component, node_out, half_out)
        witnesses = sum(1 for o in node_out.values() if o.dup_color is not None)
        chains = len({t.color for o in node_out.values() for t in o.tokens})
        rows.append(
            [
                name,
                witnesses,
                chains,
                "accepted" if not violations else "REJECTED",
            ]
        )
        assert not violations
    report(
        render_table(
            ["corruption", "Fig.7 witnesses", "Fig.8 chains", "ne-verdict"],
            rows,
            title=(
                "E12  Figures 7/8: node-edge-checkable proofs "
                "(duplicate colors and A-E chains)"
            ),
        )
    )
    built = build_gadget(3, 4)
    corruption = corrupt(built, "color-clash")
    scope = GadgetScope(corruption.graph, corruption.inputs)
    component = sorted(corruption.graph.nodes())
    prover = run_prover(scope, component, 3, corruption.graph.num_nodes)
    benchmark(lambda: compile_ne_proof(scope, component, prover.outputs))
