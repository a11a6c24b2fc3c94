"""The generic upper-bound algorithm for Pi' (Lemma 4).

The solver follows the paper's proof step by step:

1. run the prover V on every gadget component (O(d(n)) rounds);
2. derive the PortErr1/PortErr2/NoPortErr flags (constant extra radius);
3. contract the valid gadgets into the virtual graph and run the base
   solver for Pi on it, with the size hint ``n`` of the *padded* graph
   (the simulation argument of the proof);
4. translate the virtual solution back into the Sigma_list outputs and
   complete invalid gadgets with their proofs of error.

Radius accounting mirrors the simulation: a node ``x`` in a valid
gadget ``A`` is charged ``dist(x, center_A) + sim_radius(A)`` where
``sim_radius(A)`` bounds the physical radius needed to reconstruct the
virtual ball that the base algorithm consulted, computed from the real
center-to-center distances through the padding (the Theta(T * d)
dilation of Theorem 1, measured rather than assumed).
"""

from __future__ import annotations

import heapq
from typing import Hashable

from repro.core.padded_problem import (
    ERRMARK,
    PaddedOutput,
    PaddedProblem,
    PadList,
)
from repro.core.virtual_graph import (
    PORT_EDGE,
    PORT_OK,
    GadgetAnalysis,
    decompose,
)
from repro.gadgets.labels import GADOK
from repro.lcl.assignment import Labeling
from repro.lcl.labels import BLANK, EMPTY
from repro.local.algorithm import Instance, LocalAlgorithm, RunResult

__all__ = ["PaddedSolver"]


class PaddedSolver:
    """Solve Pi' given any solver for the base problem Pi."""

    def __init__(self, problem: PaddedProblem, base_solver: LocalAlgorithm):
        self.problem = problem
        self.base_solver = base_solver
        self.name = f"padded[{base_solver.name}]"
        self.randomized = base_solver.randomized

    # -- helpers ------------------------------------------------------------

    def _simulation_radii(
        self, analysis: GadgetAnalysis, base_result: RunResult
    ) -> dict[int, int]:
        """Physical radius bound per *virtual* node (see module docstring)."""
        virtual = analysis.virtual
        center_dist, eccs = analysis.center_dist, analysis.ecc
        vg = virtual.graph
        v_off, v_nbr, _peer, v_eids = vg.csr()
        v_ends = vg.edge_slots()
        # weighted center-to-center distances through the padding
        weights: list[int] = []
        for eid in range(vg.num_edges):
            total = 1
            for slot in (v_ends[2 * eid], v_ends[2 * eid + 1]):
                att = virtual.attachment[slot]
                if att is None:
                    continue  # dummy side: weight 1 covers the hop
                port_node, _port_slot = att
                total += center_dist[port_node]
            weights.append(total)

        sim_radius: dict[int, int] = {}
        for a in vg.nodes():
            comp_a = virtual.component_of_virtual[a]
            if comp_a is None:
                continue
            hops = max(base_result.node_radius[a], 1)
            # hop-limited Dijkstra over (node, hop) states
            best: dict[int, tuple[int, int]] = {a: (0, 0)}  # node -> (w, h)
            heap = [(0, 0, a)]
            reach = 0
            while heap:
                w, h, x = heapq.heappop(heap)
                if best.get(x, (1 << 60, 0))[0] < w:
                    continue
                comp_x = virtual.component_of_virtual[x]
                ecc = eccs.get(comp_x, 0) if comp_x is not None else 0
                reach = max(reach, w + ecc + 1)
                if h >= hops:
                    continue
                for slot in range(v_off[x], v_off[x + 1]):
                    y = v_nbr[slot]
                    nw = w + weights[v_eids[slot]]
                    if nw < best.get(y, (1 << 60, 0))[0]:
                        best[y] = (nw, h + 1)
                        heapq.heappush(heap, (nw, h + 1, y))
            sim_radius[a] = reach
        return sim_radius

    # -- main ----------------------------------------------------------------

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        inputs = instance.inputs
        if inputs is None:
            raise ValueError("Pi' instances carry structured inputs")
        problem = self.problem
        delta = problem.delta

        decomposition = decompose(
            graph, inputs, problem.family, instance.ids, instance.n_hint
        )
        analysis = decomposition.analysis
        virtual = analysis.virtual

        base_instance = Instance(
            graph=virtual.graph,
            ids=decomposition.virtual_ids,
            inputs=virtual.inputs,
            n_hint=instance.n_hint,
            rng=instance.rng,
        )
        base_result = self.base_solver.solve(base_instance)

        # gadget-layer outputs: Psi labels on nodes/halves/edges, blanks
        # on port edges (constraints 1 and 2); a gadget edge is GadOk
        # exactly when both endpoints are
        psi_of = analysis.psi
        kinds = analysis.edge_kinds
        off, _nbr, _peer, eids = graph.csr()
        ends = graph.edge_slots()
        edge_labels: list[Hashable] = [GADOK] * graph.num_edges
        for v, psi in enumerate(psi_of):
            if psi != GADOK:
                for slot in range(off[v], off[v + 1]):
                    eid = eids[slot]
                    if kinds[eid] != PORT_EDGE:
                        edge_labels[eid] = ERRMARK
        slot_labels = [
            psi for psi, degree in zip(psi_of, graph.degrees) for _ in range(degree)
        ]
        for eid in analysis.port_edges:
            edge_labels[eid] = BLANK
            slot_labels[ends[2 * eid]] = slot_labels[ends[2 * eid + 1]] = BLANK

        # Sigma_list per valid gadget (constraints 5 and 6); the iota
        # fields are the virtual inputs the contraction recovered
        empty = problem.empty_list()
        v_inputs = virtual.inputs
        v_in_edges, v_in_slots = v_inputs.edge_labels(), v_inputs.slot_labels()
        v_off, _nbr, _peer, v_eids = virtual.graph.csr()
        base_outputs = base_result.outputs
        base_slots = base_outputs.slot_labels()
        pad_of_component: list[PadList] = [empty] * analysis.num_components
        for a, comp_index in enumerate(virtual.component_of_virtual):
            if comp_index is None:
                continue
            ranked = virtual.alpha[a] or []
            iota_e = [EMPTY] * delta
            iota_b = [EMPTY] * delta
            o_e = [EMPTY] * delta
            o_b = [EMPTY] * delta
            for rank, i in enumerate(ranked):
                v_slot = v_off[a] + rank
                v_eid = v_eids[v_slot]
                iota_e[i - 1] = v_in_edges[v_eid]
                iota_b[i - 1] = v_in_slots[v_slot]
                o_e[i - 1] = base_outputs.edge(v_eid)
                o_b[i - 1] = base_slots[v_slot]
            pad_of_component[comp_index] = PadList(
                ports=frozenset(ranked),
                iota_v=v_inputs.node(a),
                iota_e=tuple(iota_e),
                iota_b=tuple(iota_b),
                o_v=base_outputs.node(a),
                o_e=tuple(o_e),
                o_b=tuple(o_b),
            )

        # one shared PaddedOutput per distinct (component, flag, psi)
        shared: dict[tuple, PaddedOutput] = {}
        node_labels = []
        port_status = analysis.port_status
        for v, comp_index in enumerate(analysis.component_of):
            port_err = port_status.get(v, PORT_OK)
            key = (comp_index, port_err, psi_of[v])
            label = shared.get(key)
            if label is None:
                label = shared[key] = PaddedOutput(
                    pad_of_component[comp_index], port_err, psi_of[v]
                )
            node_labels.append(label)
        outputs = (
            Labeling(graph)
            .set_node_labels(node_labels)
            .set_edge_labels(edge_labels)
            .set_slot_labels(slot_labels)
        )

        # --- radius accounting ---------------------------------------------
        # V's charge, raised on each valid gadget to the distance to its
        # center plus the simulated base algorithm's physical reach
        sim_radius = self._simulation_radii(analysis, base_result)
        node_radius = decomposition.prover_radii()
        center_dist = analysis.center_dist
        for a, comp_index in enumerate(virtual.component_of_virtual):
            if comp_index is None:
                continue
            reach = sim_radius.get(a, 0)
            for v in analysis.nodes_of(comp_index):
                node_radius[v] = max(node_radius[v], center_dist[v] + reach)

        return RunResult(
            outputs=outputs,
            node_radius=node_radius,
            extras={
                "base_rounds": base_result.rounds,
                "base_extras": base_result.extras,
                "virtual_nodes": virtual.num_real(),
                "virtual_edges": virtual.graph.num_edges,
                "invalid_gadgets": analysis.num_components - sum(analysis.valid),
                "max_gadget_ecc": max(analysis.ecc.values(), default=0),
            },
        )
