"""Solvers for sinkless orientation.

Two algorithms reproduce the base-problem separation of the paper
(deterministic Theta(log n) vs randomized Theta(log log n), see
Figure 1 and Section 5):

* :class:`DeterministicSinklessSolver` — every constrained node scans
  its neighborhood until it can certify an *anchor* (the first full
  cycle contained in its ball, or a nearer exempt low-degree node) and
  claims its first edge toward the anchor.  On locally tree-like
  instances the anchor radius is Theta(log n): balls of radius r are
  trees while 2^r << n, so no cycle closes earlier.
* :class:`RandomizedSinklessSolver` — one round of independent coin
  flips per edge, then the shattering repair: each residual sink finds
  the nearest donor through a backward search.  The backward tree of a
  sink grows exponentially while donors appear with constant density,
  so the maximal repair distance over all sinks concentrates at
  Theta(log log n).

Both algorithms delegate correctness to the shared augmenting-path
fixer, so they are total on every multigraph: self-loops, parallel
edges, disconnected inputs, and arbitrary degree patterns are all
handled (degree < exempt_below nodes are exempt but still orient their
edges consistently).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import kernels
from repro.local.algorithm import Instance, RunResult
from repro.local.graphs import HalfEdge, PortGraph
from repro.problems.orientation import Orientation, fix_deficient
from repro.runtime.registry import register_solver
from repro.util.rng import fork_rng

_SINKLESS_FAMILIES = ("cubic", "high-girth-cubic", "torus")

__all__ = [
    "DeterministicSinklessSolver",
    "RandomizedSinklessSolver",
    "AnchorScan",
    "anchor_scan",
]


@dataclass
class AnchorScan:
    """Result of one node's anchor search.

    ``radius`` is the view radius the node needed; ``claim_eid`` the
    edge the node wants to orient outward (None when no claim is made,
    e.g. the anchor is a self-loop at the node itself).
    """

    radius: int
    kind: str  # "exempt" | "cycle" | "loop"
    claim_eid: int | None
    claim_tail: HalfEdge | None


def anchor_scan(graph: PortGraph, ids, v: int, exempt_below: int) -> AnchorScan:
    """Scan outward from ``v`` until an anchor certifies an out-edge.

    The scan explores neighbors in increasing-identifier order so the
    outcome is a deterministic function of the view, independent of
    internal storage order.  Anchors, in order of discovery:

    * an *exempt* node (degree < exempt_below) — claim the first edge of
      the backtracked shortest path toward it;
    * a *self-loop* — by convention a cycle of length 1;
    * a *cycle*, certified by the first non-tree edge whose endpoints
      are both explored — claim the first edge toward the endpoint that
      was discovered first (or the non-tree edge itself if that endpoint
      is ``v``).

    This per-node scan is the oracle of the batched vector kernel
    :func:`repro.kernels.vector.anchor_scans`, and the solver's path
    without numpy.
    """
    # parent[x] = (predecessor node, eid used, slot it left through);
    # center marked specially
    off, nbr, peer, eids = graph.csr()
    parent: dict[int, tuple[int, int, int]] = {v: (-2, -1, -1)}
    depth = {v: 0}
    queue = deque([v])

    def side_at_v(slot: int) -> HalfEdge:
        return HalfEdge(v, slot - off[v])

    def claim_toward(target: int) -> tuple[int | None, HalfEdge | None]:
        if target == v:
            return None, None
        node = target
        while True:
            pred, eid, slot = parent[node]
            if pred == v:
                return eid, side_at_v(slot)
            node = pred

    while queue:
        x = queue.popleft()
        d = depth[x]
        if graph.degree(x) < exempt_below and x != v:
            eid, tail = claim_toward(x)
            return AnchorScan(radius=d, kind="exempt", claim_eid=eid, claim_tail=tail)
        # scan x's ports in increasing neighbor-id order (then port)
        slots = sorted(
            range(off[x], off[x + 1]), key=lambda slot: (ids.of(nbr[slot]), slot)
        )
        for slot in slots:
            u = nbr[slot]
            eid = eids[slot]
            if u == x:
                # self-loop: a cycle at distance d
                if x == v:
                    lower = min(slot, off[x] + peer[slot])  # the loop's a side
                    return AnchorScan(d, "loop", eid, side_at_v(lower))
                claim, tail = claim_toward(x)
                return AnchorScan(d, "loop", claim, tail)
            if u not in depth:
                depth[u] = d + 1
                parent[u] = (x, eid, slot)
                queue.append(u)
            elif parent[x][1] != eid and parent[u][1] != eid:
                # non-tree edge: a cycle is contained in the ball of
                # radius max(depth[x], depth[u])
                radius = max(d, depth[u])
                closer = x if depth[x] <= depth[u] else u
                if closer == v:
                    # v's side of the edge: this slot, or the far one
                    # when v is the neighbor u
                    at_v = slot if x == v else off[u] + peer[slot]
                    return AnchorScan(radius, "cycle", eid, side_at_v(at_v))
                claim, tail = claim_toward(closer)
                return AnchorScan(radius, "cycle", claim, tail)
    # no anchor: the component is a tree whose nodes all have degree
    # >= exempt_below at v's side -- impossible for finite graphs, but
    # a component that is a single high-degree star of constrained
    # nodes cannot happen either; reaching here means the component has
    # no cycle and no exempt node, i.e. it is a tree of min degree >= 3,
    # which cannot exist.  Guard loudly.
    raise RuntimeError(
        f"node {v}: component has neither a cycle nor an exempt node; "
        "such a finite graph cannot exist"
    )


def _object_scans(
    graph: PortGraph, ids, exempt_below: int
) -> list[tuple[int, int | None, HalfEdge | None] | None]:
    """``(radius, claim_eid, claim_tail)`` of every scanned node (degree at
    least ``max(exempt_below, 1)``), None elsewhere: one
    :func:`anchor_scan` per node, in node order."""
    scans: list[tuple[int, int | None, HalfEdge | None] | None] = []
    for v in graph.nodes():
        if graph.degree(v) < max(exempt_below, 1):
            scans.append(None)
            continue
        scan = anchor_scan(graph, ids, v, exempt_below)
        scans.append((scan.radius, scan.claim_eid, scan.claim_tail))
    return scans


@register_solver(
    "sinkless-det",
    problem="sinkless-orientation",
    families=_SINKLESS_FAMILIES,
    description="anchor scan + augmenting-path fixer, Theta(log n)",
)
class DeterministicSinklessSolver:
    """Anchor-claim deterministic algorithm (measured Theta(log n))."""

    name = "sinkless-det-anchor"
    randomized = False

    def __init__(self, exempt_below: int = 3):
        self.exempt_below = exempt_below

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        ids = instance.ids
        node_radius = [0] * graph.num_nodes
        claims: dict[int, HalfEdge] = {}  # eid -> desired tail
        conflicts = 0
        if kernels.vector_enabled():
            from repro.kernels import vector

            scans = vector.anchor_scans(graph, ids, self.exempt_below)
        else:
            scans = _object_scans(graph, ids, self.exempt_below)
        for v in graph.nodes():
            if graph.degree(v) == 0:
                continue
            node_radius[v] = 1  # everyone at least exchanges orientations
            if scans[v] is None:
                continue
            radius, claim_eid, tail = scans[v]
            node_radius[v] = max(node_radius[v], radius + 1)
            if claim_eid is None:
                continue
            previous = claims.get(claim_eid)
            if previous is None:
                claims[claim_eid] = tail
            elif previous != tail:
                conflicts += 1
                # the smaller-identifier claimant wins
                if ids.of(tail.node) < ids.of(previous.node):
                    claims[claim_eid] = tail
        off, nbr, _peer, _eids = graph.csr()
        ends = graph.edge_slots()
        tails = []
        for eid in range(graph.num_edges):
            claimed = claims.get(eid)
            a, b = ends[2 * eid], ends[2 * eid + 1]
            if claimed is not None:
                tails.append(off[claimed.node] + claimed.port)
            else:
                u, w = nbr[b], nbr[a]
                tails.append(a if u == w or ids.of(u) < ids.of(w) else b)
        orientation = Orientation.from_tail_slots(graph, tails)
        report = fix_deficient(
            graph,
            orientation,
            exempt_below=self.exempt_below,
            priority=lambda v: ids.of(v),
            rng=None,
        )
        for node, radius in report.touched.items():
            node_radius[node] = max(node_radius[node], radius)
        return RunResult(
            outputs=orientation.to_labeling(),
            node_radius=node_radius,
            extras={
                "claim_conflicts": conflicts,
                "fixer_batches": report.batches,
                "fixer_paths": report.paths_reversed,
                "fixer_max_path": report.max_path_length,
            },
        )


@register_solver(
    "sinkless-rand",
    problem="sinkless-orientation",
    families=_SINKLESS_FAMILIES,
    description="per-edge coin flips + shattering repair, Theta(loglog n)",
)
class RandomizedSinklessSolver:
    """Coin flips + shattering repair (measured Theta(log log n))."""

    name = "sinkless-rand-shatter"
    randomized = True

    def __init__(self, exempt_below: int = 3):
        self.exempt_below = exempt_below

    def solve(self, instance: Instance) -> RunResult:
        graph = instance.graph
        ids = instance.ids
        rng = instance.require_rng()
        # Per-edge fair coins: each edge uses its own forked stream so the
        # outcome does not depend on iteration order.  Each stream is
        # drawn once, so it is forked and dropped, not kept in ``rng``.
        ends = graph.edge_slots()
        first = graph.num_nodes
        tails = [
            ends[2 * eid]
            if fork_rng(rng.seed, first + eid).random() < 0.5
            else ends[2 * eid + 1]
            for eid in range(graph.num_edges)
        ]
        orientation = Orientation.from_tail_slots(graph, tails)
        node_radius = [1 if graph.degree(v) > 0 else 0 for v in graph.nodes()]
        report = fix_deficient(
            graph,
            orientation,
            exempt_below=self.exempt_below,
            priority=lambda v: ids.of(v),
            rng=rng.global_stream(),
        )
        for node, radius in report.touched.items():
            node_radius[node] = max(node_radius[node], radius)
        return RunResult(
            outputs=orientation.to_labeling(),
            node_radius=node_radius,
            extras={
                "fixer_batches": report.batches,
                "fixer_paths": report.paths_reversed,
                "fixer_max_path": report.max_path_length,
            },
        )
