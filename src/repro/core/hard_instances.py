"""Hard instances for Pi' (Lemma 5) and the simulation reduction.

The lower-bound proof of Lemma 5 takes a worst-case base graph H with
``f(n)`` nodes, pads every node with the *same* gadget of ~``n/f(n)``
nodes, and tops the result up with isolated nodes to exactly ``n``.
With the paper's choice ``f(x) = floor(sqrt(x))`` (Section 5), both
factors of the ``T * d`` product are maximized simultaneously.

``simulate_padded_algorithm`` is the executable version of the
reduction inside the proof: it turns any solver for Pi' into a solver
for Pi by padding the input, running the Pi' solver, and reading the
virtual solution back off the port lists — with the round cost scaled
down by the measured gadget depth.  Tests use it to confirm the
transfer argument end-to-end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.padded_problem import PaddedOutput, PaddedProblem
from repro.core.padding import PaddedGraph, pad_graph
from repro.gadgets.family import LogGadgetFamily
from repro.lcl.assignment import Labeling
from repro.local.algorithm import Instance, LocalAlgorithm, RunResult
from repro.local.graphs import PortGraph
from repro.local.identifiers import IdAssignment

__all__ = ["paper_f", "HardInstance", "hard_instance", "simulate_padded_algorithm"]


def paper_f(x: int) -> int:
    """The balance function f(x) = floor(sqrt(x)) of Section 5."""
    if x < 0:
        raise ValueError("x must be non-negative")
    return math.isqrt(x)


@dataclass
class HardInstance:
    """A Lemma 5 instance: padded worst case plus isolated filler."""

    padded: PaddedGraph
    graph: PortGraph  # padded graph including the isolated filler nodes
    inputs: Labeling
    base_graph: PortGraph
    gadget_height: int
    target_n: int

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


def hard_instance(
    base_graph: PortGraph,
    family: LogGadgetFamily,
    target_n: int,
    base_inputs: Labeling | None = None,
) -> HardInstance:
    """Pad a worst-case base graph per the Lemma 5 recipe.

    ``base_graph`` plays H (it should have ~``f(target_n)`` nodes and be
    hard for the base problem); each node receives the largest
    equal-height gadget that keeps the total within ``target_n``;
    isolated nodes pad the count to exactly ``target_n``.
    """
    if base_graph.num_nodes == 0:
        raise ValueError("the base graph must be non-empty")
    if base_graph.max_degree > family.delta:
        raise ValueError("base degree exceeds the family's Delta")
    budget = target_n // base_graph.num_nodes
    if budget < family.min_size():
        raise ValueError(
            f"target_n={target_n} leaves only {budget} nodes per gadget; "
            f"the family needs at least {family.min_size()}"
        )
    from repro.gadgets.build import gadget_size

    height = family.height_for(budget)
    while height > 2 and gadget_size(family.delta, height) > budget:
        height -= 1
    gadget = family.member_with_height(height)
    padded = pad_graph(
        base_graph, [gadget] * base_graph.num_nodes, base_inputs
    )
    filler = target_n - padded.graph.num_nodes
    if filler < 0:
        raise AssertionError("gadget sizing must fit in the budget")
    full_graph = padded.graph.with_isolated_nodes(filler)
    return HardInstance(
        padded=padded,
        graph=full_graph,
        inputs=padded.inputs.extended_to(full_graph),
        base_graph=base_graph,
        gadget_height=height,
        target_n=target_n,
    )


def simulate_padded_algorithm(
    padded_problem: PaddedProblem,
    padded_solver: LocalAlgorithm,
    family: LogGadgetFamily,
    base_instance: Instance,
    target_n: int,
) -> tuple[RunResult, RunResult]:
    """The Lemma 5 reduction, executably.

    Runs the Pi' solver on the padded version of ``base_instance`` and
    projects the solution back to the base graph.  Returns
    ``(base_result, padded_result)``; the base result's per-node radius
    is the padded radius divided by the gadget depth (the simulation
    overhead), rounded up.
    """
    instance = hard_instance(
        base_instance.graph, family, target_n, base_instance.inputs
    )
    padded = instance.padded
    ids = _lifted_ids(base_instance.ids, instance)
    padded_instance = Instance(
        graph=instance.graph,
        ids=ids,
        inputs=instance.inputs,
        n_hint=target_n,
        rng=base_instance.rng,
    )
    padded_result = padded_solver.solve(padded_instance)

    base_graph = base_instance.graph
    outputs = Labeling(base_graph)
    depth = 2 * instance.gadget_height
    base_radius = [0] * base_graph.num_nodes
    off, _nbr, _peer, eids = base_graph.csr()
    for v in base_graph.nodes():
        rep = padded_result.outputs.node(instance.padded.node_offset[v])
        if not isinstance(rep, PaddedOutput):
            raise ValueError("padded solver did not produce Pi' outputs")
        pad = rep.list
        outputs.set_node(v, pad.o_v)
        for port in range(base_graph.degree(v)):
            i = port + 1  # base port p attaches to gadget Port_{p+1}
            if i - 1 < len(pad.o_e):
                outputs.set_edge(eids[off[v] + port], pad.o_e[i - 1])
                outputs.set_slot(off[v] + port, pad.o_b[i - 1])
        padded_nodes = instance.padded.gadget_nodes(v)
        worst = max(padded_result.node_radius[x] for x in padded_nodes)
        base_radius[v] = -(-worst // max(depth, 1))  # ceil division
    base_result = RunResult(
        outputs=outputs,
        node_radius=base_radius,
        extras={"padded_rounds": padded_result.rounds, "depth": depth},
    )
    return base_result, padded_result


def _lifted_ids(base_ids: IdAssignment, instance: HardInstance) -> IdAssignment:
    """Unique padded ids such that each gadget's minimum sits at its
    base node's id (so virtual ids equal base ids)."""
    n = instance.graph.num_nodes
    base_n = instance.base_graph.num_nodes
    stride = n + 1
    first_free = base_ids.max_id() + 1
    ids = [0] * n
    for v in instance.base_graph.nodes():
        nodes = instance.padded.gadget_nodes(v)
        ids[nodes[0]] = base_ids.of(v)
        for offset, x in enumerate(nodes[1:], start=1):
            ids[x] = first_free + (v * stride + offset)
    filler_start = instance.padded.graph.num_nodes
    tail = first_free + base_n * stride + 1
    for x in range(filler_start, n):
        ids[x] = tail
        tail += 1
    return IdAssignment(ids)
