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
from collections import deque
from typing import Hashable

from repro.core.padded_problem import (
    ERRMARK,
    PaddedOutput,
    PaddedProblem,
    PadList,
)
from repro.core.projection import pi_part
from repro.core.virtual_graph import PORT_OK, Decomposition, decompose
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

    def _center_distances(
        self, decomposition: Decomposition
    ) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
        """Per valid component: BFS distances from the center, and ecc."""
        dist_maps: dict[int, dict[int, int]] = {}
        eccs: dict[int, int] = {}
        scope = decomposition.scope
        for component in decomposition.components:
            if not component.is_valid or component.center is None:
                continue
            dist = {component.center: 0}
            frontier = deque([component.center])
            while frontier:
                x = frontier.popleft()
                for _p, _e, other, _l in scope.incidences(x):
                    if other not in dist:
                        dist[other] = dist[x] + 1
                        frontier.append(other)
            dist_maps[component.index] = dist
            eccs[component.index] = max(dist.values())
        return dist_maps, eccs

    def _simulation_radii(
        self,
        decomposition: Decomposition,
        base_result: RunResult,
        dist_maps: dict[int, dict[int, int]],
        eccs: dict[int, int],
    ) -> dict[int, int]:
        """Physical radius bound per *virtual* node (see module docstring)."""
        virtual = decomposition.virtual
        vg = virtual.graph
        v_off, v_nbr, _peer, v_eids = vg.csr()
        v_ends = vg.edge_slots()
        # weighted center-to-center distances through the padding
        weights: list[int] = []
        for eid in range(vg.num_edges):
            total = 1
            a, b = v_ends[2 * eid], v_ends[2 * eid + 1]
            # the node of one side is the neighbor entry of the other
            for slot, node in ((a, v_nbr[b]), (b, v_nbr[a])):
                att = virtual.attachment[slot]
                if att is None:
                    continue  # dummy side: weight 1 covers the hop
                port_node, _port_slot = att
                comp_index = virtual.component_of_virtual[node]
                total += dist_maps[comp_index].get(port_node, 0)
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
        virtual = decomposition.virtual

        base_instance = Instance(
            graph=virtual.graph,
            ids=virtual.ids,
            inputs=virtual.inputs,
            n_hint=instance.n_hint,
            rng=instance.rng,
        )
        base_result = self.base_solver.solve(base_instance)

        # gadget-layer outputs: Psi labels on nodes/halves/edges, blanks
        # on port edges (constraints 1 and 2)
        psi_of: list[Hashable] = [None] * graph.num_nodes
        for component in decomposition.components:
            for v in component.nodes:
                psi_of[v] = component.prover.outputs[v]
        in_scope = decomposition.scope.in_scope
        off, nbr, _peer, eids = graph.csr()
        ends = graph.edge_slots()
        edge_labels = []
        for eid in range(graph.num_edges):
            a, b = ends[2 * eid], ends[2 * eid + 1]
            if in_scope(eid):
                ok = psi_of[nbr[b]] == GADOK and psi_of[nbr[a]] == GADOK
                edge_labels.append(GADOK if ok else ERRMARK)
            else:
                edge_labels.append(BLANK)
        slot_labels = [
            psi_of[v] if in_scope(eids[slot]) else BLANK
            for v in graph.nodes()
            for slot in range(off[v], off[v + 1])
        ]

        # Sigma_list per component (constraints 5 and 6)
        empty = problem.empty_list()
        in_edges, in_slots = inputs.edge_labels(), inputs.slot_labels()
        v_off, _nbr, _peer, v_eids = virtual.graph.csr()
        base_outputs = base_result.outputs
        base_slots = base_outputs.slot_labels()
        pad_of_component: dict[int, PadList] = {}
        for component in decomposition.components:
            if not component.is_valid:
                pad_of_component[component.index] = empty
                continue
            a = virtual.virtual_of_component[component.index]
            ranked = virtual.alpha[a] or []
            iota_e = [EMPTY] * delta
            iota_b = [EMPTY] * delta
            o_e = [EMPTY] * delta
            o_b = [EMPTY] * delta
            for rank, i in enumerate(ranked):
                v_slot = v_off[a] + rank
                _port_node, slot = virtual.attachment[v_slot]
                iota_e[i - 1] = pi_part(in_edges[eids[slot]])
                iota_b[i - 1] = pi_part(in_slots[slot])
                o_e[i - 1] = base_outputs.edge(v_eids[v_slot])
                o_b[i - 1] = base_slots[v_slot]
            port1 = component.port_nodes.get(1)
            iota_v = pi_part(inputs.node(port1)) if port1 is not None else EMPTY
            pad_of_component[component.index] = PadList(
                ports=frozenset(ranked),
                iota_v=iota_v,
                iota_e=tuple(iota_e),
                iota_b=tuple(iota_b),
                o_v=base_outputs.node(a),
                o_e=tuple(o_e),
                o_b=tuple(o_b),
            )

        # one shared PaddedOutput per distinct (component, flag, psi)
        shared: dict[tuple, PaddedOutput] = {}
        node_labels = []
        for v in graph.nodes():
            comp_index = decomposition.component_of_node[v]
            port_err = decomposition.port_status.get(v, PORT_OK)
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
        dist_maps, eccs = self._center_distances(decomposition)
        sim_radius = self._simulation_radii(
            decomposition, base_result, dist_maps, eccs
        )
        node_radius = [0] * graph.num_nodes
        for component in decomposition.components:
            for v in component.nodes:
                node_radius[v] = component.prover.node_radius[v]
        for component in decomposition.components:
            if not component.is_valid:
                continue
            a = virtual.virtual_of_component[component.index]
            reach = sim_radius.get(a, 0)
            dist = dist_maps[component.index]
            for v in component.nodes:
                node_radius[v] = max(node_radius[v], dist.get(v, 0) + reach)

        return RunResult(
            outputs=outputs,
            node_radius=node_radius,
            extras={
                "base_rounds": base_result.rounds,
                "base_extras": base_result.extras,
                "virtual_nodes": virtual.num_real(),
                "virtual_edges": virtual.graph.num_edges,
                "invalid_gadgets": sum(
                    1 for c in decomposition.components if not c.is_valid
                ),
                "max_gadget_ecc": max(eccs.values(), default=0),
            },
        )
