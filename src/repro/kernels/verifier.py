"""Batched ne-LCL verification: one constraint call per *distinct* config.

Import only behind the numpy guard (see :mod:`repro.kernels`).

The object-layer verifier allocates a configuration object and calls
the constraint predicate once per node and once per edge.  On the
instances this repo runs, configurations repeat massively (a 3-regular
graph has a handful of distinct node configurations, not ``n``), and
LCL constraints are by definition pure functions of the configuration
value.  The vector pass exploits exactly that:

1. intern every label to a small integer code (one shared interner per
   verifier, so codes are stable across calls);
2. lay each element's configuration out as one row of an int64 matrix
   (per degree class for nodes — rows must be rectangular);
3. dedupe the rows and evaluate the Python predicate once per distinct
   row, on a genuine configuration object built for a representative
   element (so the constraint sees exactly what the object layer shows
   it).  Deduping packs each row into a single int64 key by
   mixed-radix accumulation over the per-column value ranges (one
   1-D sort) — the ``np.unique(axis=0)`` row-sort it replaces is an
   order of magnitude slower and only kept as the overflow fallback;
4. scatter the verdicts back through the dedupe's inverse index.

Verdicts are bit-identical to the object layer, violations included:
same ordering (domain pass, then nodes ascending, then edges
ascending), same messages, same ``Violation`` values.

Caveat shared with the whole label machinery: labels that compare equal
are treated as the same label (``1 == True == 1.0`` would share a
code), which matches how ``LabelSet`` membership and the shared labels
of ``pad_graph`` and ``build_gadget`` already behave everywhere else.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

import numpy as np

from repro.lcl.assignment import Labeling
from repro.lcl.labels import EMPTY
from repro.lcl.verifier import (
    Verdict,
    Violation,
    edge_configuration,
    node_configuration,
)
from repro.local.graphs import HalfEdge

__all__ = ["VectorPreparedVerifier", "vector_verify"]

_I64 = np.int64


def _dedupe_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of an int64 matrix.

    ``first[k]`` is the row index of the first occurrence of the k-th
    distinct row; ``inverse[i]`` maps row ``i`` to its distinct-row
    index.  Entries are non-negative label codes, so each row packs
    into one int64 by mixed-radix accumulation over the per-column
    value ranges — a single 1-D sort instead of the lexicographic
    row-sort ``np.unique(axis=0)`` pays.  Falls back to the row-sort
    in the (pathological: ~2**63 distinct configurations) case where
    the radix product would overflow.
    """
    maxes = rows.max(axis=0).tolist() if rows.size else []
    span = 1
    for m in maxes:
        span *= m + 1
    if 0 < span < 2**63:
        keys = rows[:, 0].copy()
        for j in range(1, rows.shape[1]):
            keys *= maxes[j] + 1
            keys += rows[:, j]
        _, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
    else:
        _, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
    return first, np.asarray(inverse).reshape(-1)


class VectorPreparedVerifier:
    """The vector layer's ne-LCL checker for one (problem, graph, inputs).

    Precomputes, once: the label interner seeded with every input-side
    label, the flat slot geometry, the per-degree-class slot/eid
    matrices, and the input-side column blocks.  Each :meth:`verify`
    call then only interns the output labels and runs the unique-row
    passes.  Constraint verdicts are additionally memoized by row bytes
    across calls, so a seed sweep on a kept instance (one per shared
    core and problem, see :class:`repro.runtime.driver.InstanceCache`)
    evaluates each distinct configuration exactly once ever.
    """

    def __init__(self, problem: Any, graph: Any, inputs: Labeling | None = None):
        from repro.kernels.vector import csr_arrays

        self.problem = problem
        self.graph = graph
        self.inputs_src = inputs
        self._inputs = inputs if inputs is not None else Labeling(graph)
        off, nbr, _, eids = csr_arrays(graph)
        num_nodes = graph.num_nodes
        num_edges = graph.num_edges
        self._num_nodes = num_nodes
        self._num_edges = num_edges
        self._off = off
        total = int(off[num_nodes]) if off.size else 0
        counts = np.diff(off)
        slot_node = np.repeat(np.arange(num_nodes, dtype=_I64), counts)
        slot_port = np.arange(total, dtype=_I64) - off[slot_node]
        self._slot_node = slot_node
        self._slot_port = slot_port
        loop_flat = (nbr == slot_node).astype(_I64)
        # Label interner: code 0 is EMPTY (the labelings' fill value),
        # and the decode table mirrors it for message formatting.
        self._codes: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []
        self._intern(EMPTY)
        inp = self._inputs
        in_node = self._code_array(inp.node_labels())
        in_edge = self._code_array(inp.edge_labels())
        in_half = self._code_array(inp.slot_labels())
        self._in_node, self._in_edge, self._in_half = in_node, in_edge, in_half
        # Edge sides: the canonical ``a`` slot and the ``b`` slot of
        # every edge, by edge id.
        ends = np.frombuffer(graph.edge_slots(), dtype=_I64)
        self._a_slot = ends[0::2]
        self._b_slot = ends[1::2]
        self._a_node = slot_node[self._a_slot]
        self._b_node = slot_node[self._b_slot]
        self._edge_fixed = (
            np.stack(
                [
                    in_node[self._a_node],
                    in_node[self._b_node],
                    in_edge,
                    in_half[self._a_slot],
                    in_half[self._b_slot],
                    (self._a_node == self._b_node).astype(_I64),
                ],
                axis=1,
            )
            if num_edges
            else np.zeros((0, 6), dtype=_I64)
        )
        # Degree classes: rectangular (member, port) matrices per degree.
        classes = []
        for degree in np.unique(counts).tolist() if num_nodes else []:
            members = np.flatnonzero(counts == degree)
            slots = off[members][:, None] + np.arange(degree, dtype=_I64)[None, :]
            class_eids = eids[slots]
            fixed = np.concatenate(
                [
                    in_node[members][:, None],
                    in_edge[class_eids],
                    in_half[slots],
                    loop_flat[slots],
                ],
                axis=1,
            )
            classes.append((degree, members, slots, class_eids, fixed))
        self._classes = classes
        self._node_memo: dict[tuple[int, bytes], bool] = {}
        self._edge_memo: dict[bytes, int] = {}

    # -- label coding -----------------------------------------------------

    def _intern(self, label: Hashable) -> int:
        code = self._codes.get(label)
        if code is None:
            code = len(self._labels)
            self._codes[label] = code
            self._labels.append(label)
        return code

    def _code_list(self, labels: Iterable[Hashable]) -> list[int]:
        # Fast path: every label already interned (true for all calls
        # after the first on a given output alphabet) — a bare dict
        # lookup per label, no per-label function call.
        codes = self._codes
        try:
            return [codes[label] for label in labels]
        except KeyError:
            intern = self._intern
            return [intern(label) for label in labels]

    def _code_array(self, labels: list[Hashable]) -> np.ndarray:
        """The code of every label of a labeling's node, edge or slot list."""
        return np.fromiter(self._code_list(labels), dtype=_I64, count=len(labels))

    # -- the passes -------------------------------------------------------

    def _bad_codes(self, codes: np.ndarray, label_set: Any) -> np.ndarray:
        labels = self._labels
        bad = [
            code
            for code in np.unique(codes).tolist()
            if labels[code] not in label_set
        ]
        return np.asarray(bad, dtype=_I64)

    def _domain_violations(
        self,
        out_node: np.ndarray,
        out_edge: np.ndarray,
        out_half: np.ndarray,
    ) -> list[Violation]:
        problem = self.problem
        labels = self._labels
        violations: list[Violation] = []
        node_set = problem.node_outputs
        if node_set is not None:
            bad = self._bad_codes(out_node, node_set)
            if bad.size:
                for v in np.flatnonzero(np.isin(out_node, bad)).tolist():
                    violations.append(
                        Violation(
                            "domain",
                            ("node", v),
                            f"output label {labels[out_node[v]]!r} not in "
                            f"{node_set.name}",
                        )
                    )
        edge_set = problem.edge_outputs
        if edge_set is not None:
            bad = self._bad_codes(out_edge, edge_set)
            if bad.size:
                for eid in np.flatnonzero(np.isin(out_edge, bad)).tolist():
                    violations.append(
                        Violation(
                            "domain",
                            ("edge", eid),
                            f"output label {labels[out_edge[eid]]!r} not in "
                            f"{edge_set.name}",
                        )
                    )
        half_set = problem.half_outputs
        if half_set is not None and self._num_edges:
            # half_edges() iterates edge-major (a side then b side).
            slots = np.empty(2 * self._num_edges, dtype=_I64)
            slots[0::2] = self._a_slot
            slots[1::2] = self._b_slot
            bad = self._bad_codes(out_half, half_set)
            if bad.size:
                codes = out_half[slots]
                for i in np.flatnonzero(np.isin(codes, bad)).tolist():
                    slot = int(slots[i])
                    side = HalfEdge(
                        int(self._slot_node[slot]), int(self._slot_port[slot])
                    )
                    violations.append(
                        Violation(
                            "domain",
                            ("half", side),
                            f"output label {labels[codes[i]]!r} not in "
                            f"{half_set.name}",
                        )
                    )
        return violations

    def verify(self, outputs: Labeling) -> Verdict:
        """The verdict the object layer returns, bit for bit."""
        problem = self.problem
        out_node = self._code_array(outputs.node_labels())
        out_edge = self._code_array(outputs.edge_labels())
        out_half = self._code_array(outputs.slot_labels())
        violations = self._domain_violations(out_node, out_edge, out_half)

        node_constraint = problem.node_constraint
        failed_nodes: list[int] = []
        for degree, members, slots, class_eids, fixed in self._classes:
            rows = np.concatenate(
                [
                    fixed,
                    out_node[members][:, None],
                    out_edge[class_eids],
                    out_half[slots],
                ],
                axis=1,
            )
            first, inverse = _dedupe_rows(rows)
            verdicts = np.empty(len(first), dtype=bool)
            for k, row_index in enumerate(first.tolist()):
                key = (degree, rows[row_index].tobytes())
                cached = self._node_memo.get(key)
                if cached is None:
                    representative = int(members[row_index])
                    config = node_configuration(
                        self.graph, representative, self._inputs, outputs
                    )
                    cached = bool(node_constraint(config))
                    self._node_memo[key] = cached
                verdicts[k] = cached
            failed_nodes.extend(members[~verdicts[inverse]].tolist())
        failed_nodes.sort()
        for v in failed_nodes:
            violations.append(
                Violation("node", v, f"node constraint of {problem.name} failed")
            )

        if self._num_edges:
            edge_constraint = problem.edge_constraint
            check_flip = not problem.edge_symmetric
            rows = np.concatenate(
                [
                    self._edge_fixed,
                    np.stack(
                        [
                            out_node[self._a_node],
                            out_node[self._b_node],
                            out_edge,
                            out_half[self._a_slot],
                            out_half[self._b_slot],
                        ],
                        axis=1,
                    ),
                ],
                axis=1,
            )
            first, inverse = _dedupe_rows(rows)
            verdicts = np.empty(len(first), dtype=np.int8)
            for k, row_index in enumerate(first.tolist()):
                key = rows[row_index].tobytes()
                cached = self._edge_memo.get(key)
                if cached is None:
                    representative = row_index
                    config = edge_configuration(
                        self.graph, representative, self._inputs, outputs
                    )
                    if not edge_constraint(config):
                        cached = 1
                    elif check_flip and not edge_constraint(config.flipped()):
                        cached = 2
                    else:
                        cached = 0
                    self._edge_memo[key] = cached
                verdicts[k] = cached
            per_edge = verdicts[inverse]
            for eid in np.flatnonzero(per_edge != 0).tolist():
                if per_edge[eid] == 1:
                    violations.append(
                        Violation(
                            "edge",
                            eid,
                            f"edge constraint of {problem.name} failed",
                        )
                    )
                else:
                    violations.append(
                        Violation(
                            "edge",
                            eid,
                            f"edge constraint of {problem.name} is asymmetric "
                            "(accepted one side order, rejected the other)",
                        )
                    )
        return Verdict(ok=not violations, violations=violations)


def vector_verify(
    problem: Any, graph: Any, inputs: Labeling | None, outputs: Labeling
) -> Verdict:
    """One-shot vectorized ``verify(problem, graph, inputs, outputs)``
    with default options (no input-domain pass)."""
    return VectorPreparedVerifier(problem, graph, inputs).verify(outputs)
