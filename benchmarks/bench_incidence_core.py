"""E14 — incidence-core microbenchmarks: flat CSR tables vs the object API.

Times the same topology queries through both access layers of
:class:`PortGraph` — the pre-existing ``Edge``/``HalfEdge`` object path
and the flat CSR tables added by the incidence core — on the three
graph families the reproduction leans on (cycles, random cubic graphs,
the paper's gadgets).  Results land both in the human-readable table
(``report``) and in ``BENCH_incidence.json`` (``report_json``) so the
trajectory is tracked across PRs.

A second table times graph construction on the same graphs: the flat
fill of ``from_edge_list`` on the cubic pairs, ``GraphBuilder.build``
on the gadget, and ``high_girth_cubic_instance``'s ``lift_girth``
surgery, each against a bench-local copy of the constructor that built
the object layer eagerly and of the surgery that rebuilt the graph
after every swap.  Those rows land under ``construction``.

Set ``BENCH_QUICK=1`` to run with few repetitions (CI smoke mode).
"""

from __future__ import annotations

import os
import random
import time
from array import array

from benchmarks.conftest import report, report_json
from repro.analysis import render_table
from repro.gadgets.build import build_gadget
from repro.generators import cycle, lift_girth, random_regular
from repro.local import GraphBuilder, bfs_distances, girth
from repro.local.graphs import Edge, HalfEdge, PortGraph

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
REPS = 1 if QUICK else 5


# -- the two access paths -----------------------------------------------------


def _endpoint_sweep_object(graph: PortGraph) -> int:
    """Visit every half-edge via edge objects (the pre-flat-core path)."""
    total = 0
    for v in graph.nodes():
        for port in range(graph.degree(v)):
            edge = graph.edge_at(v, port)
            total += edge.other_side(HalfEdge(v, port)).node
    return total


def _endpoint_sweep_flat(graph: PortGraph) -> int:
    """Visit every half-edge through the CSR tables."""
    off, nbr, _, _ = graph.csr()
    total = 0
    for v in graph.nodes():
        for u in nbr[off[v] : off[v + 1]]:
            total += u
    return total


def _bfs_object(graph: PortGraph, source: int) -> dict[int, int]:
    """Full BFS via edge objects (the pre-flat-core bfs_distances)."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        d = dist[v]
        for port in range(graph.degree(v)):
            edge = graph.edge_at(v, port)
            u = edge.other_side(HalfEdge(v, port)).node
            if u not in dist:
                dist[u] = d + 1
                queue.append(u)
    return dist


def _time(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _graphs() -> list[tuple[str, PortGraph]]:
    size = 512 if QUICK else 4096
    cubic = 256 if QUICK else 2048
    return [
        (f"cycle-{size}", cycle(size)),
        (f"cubic-{cubic}", random_regular(cubic, 3, random.Random(0))),
        ("gadget-d3-h5", build_gadget(3, 5).graph),
    ]


def test_incidence_core_old_vs_new():
    rows = []
    results: dict[str, dict] = {}
    for name, graph in _graphs():
        assert _endpoint_sweep_object(graph) == _endpoint_sweep_flat(graph)
        assert _bfs_object(graph, 0) == bfs_distances(graph, 0)
        sweep_obj = _time(_endpoint_sweep_object, graph)
        sweep_flat = _time(_endpoint_sweep_flat, graph)
        bfs_obj = _time(_bfs_object, graph, 0)
        bfs_flat = _time(bfs_distances, graph, 0)
        results[name] = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "endpoint_sweep": {
                "object_s": sweep_obj,
                "flat_s": sweep_flat,
                "speedup": round(sweep_obj / sweep_flat, 2),
            },
            "bfs_full": {
                "object_s": bfs_obj,
                "flat_s": bfs_flat,
                "speedup": round(bfs_obj / bfs_flat, 2),
            },
        }
        rows.append(
            [
                name,
                f"{sweep_obj * 1e3:.2f}ms",
                f"{sweep_flat * 1e3:.2f}ms",
                f"{sweep_obj / sweep_flat:.1f}x",
                f"{bfs_obj * 1e3:.2f}ms",
                f"{bfs_flat * 1e3:.2f}ms",
                f"{bfs_obj / bfs_flat:.1f}x",
            ]
        )
        # The perf claim this PR ships: flat reads beat object hops.
        # Only asserted in thorough mode — a single quick-mode sample on
        # a noisy CI runner is not evidence of a regression.
        if not QUICK:
            assert sweep_flat < sweep_obj
    report_json("incidence_core", {"quick": QUICK, "graphs": results})
    report(
        render_table(
            [
                "graph",
                "sweep(obj)",
                "sweep(flat)",
                "speedup",
                "bfs(obj)",
                "bfs(flat)",
                "speedup",
            ],
            rows,
            title="E14  incidence core: object API vs flat CSR tables",
        )
    )


def test_incidence_core_benchmark_hooks(benchmark):
    """pytest-benchmark visibility for the flat path on the cubic graph."""
    graph = random_regular(256 if QUICK else 2048, 3, random.Random(0))
    result = benchmark(lambda: len(bfs_distances(graph, 0)))
    assert result == graph.num_nodes


# -- construction: flat fill vs the eager object layer ------------------------


class _EagerPortGraph(PortGraph):
    """The constructor that built the object layer eagerly: ``Edge``
    values, per-node port dicts and edge-id lists, then the CSR tables
    from the ``Edge`` list."""

    __slots__ = ()

    def __init__(self, num_nodes, edges):
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._num_nodes = num_nodes
        self._edges = []
        self._adj = [[] for _ in range(num_nodes)]
        occupied = set()
        for eid, (a, b) in enumerate(edges):
            a = HalfEdge(*a)
            b = HalfEdge(*b)
            if a > b:
                a, b = b, a
            for side in (a, b):
                if not 0 <= side.node < num_nodes:
                    raise ValueError(f"edge endpoint {side} out of range")
                if side.port < 0:
                    raise ValueError(f"negative port in {side}")
                if side in occupied:
                    raise ValueError(f"port {side} used by two edges")
                occupied.add(side)
            self._edges.append(Edge(eid, a, b))
        per_node = [dict() for _ in range(num_nodes)]
        for edge in self._edges:
            per_node[edge.a.node][edge.a.port] = edge.eid
            per_node[edge.b.node][edge.b.port] = edge.eid
        for v, ports in enumerate(per_node):
            degree = len(ports)
            if ports and (min(ports) != 0 or max(ports) != degree - 1):
                raise ValueError(f"node {v} has non-contiguous ports {sorted(ports)}")
            self._adj[v] = [ports[p] for p in range(degree)]
        deg = [len(ports) for ports in self._adj]
        off = [0] * (num_nodes + 1)
        for v in range(num_nodes):
            off[v + 1] = off[v] + deg[v]
        total = off[num_nodes]
        nbr = [0] * total
        peer = [0] * total
        eids = [0] * total
        ends = [0] * total
        for edge in self._edges:
            eid = edge.eid
            (a_node, a_port), (b_node, b_port) = edge.a, edge.b
            i = off[a_node] + a_port
            j = off[b_node] + b_port
            nbr[i] = b_node
            peer[i] = b_port
            eids[i] = eid
            nbr[j] = a_node
            peer[j] = a_port
            eids[j] = eid
            ends[2 * eid] = i
            ends[2 * eid + 1] = j
        self._adopt_csr(
            num_nodes,
            len(self._edges),
            *(array("q", table) for table in (off, nbr, peer, eids, ends)),
        )


def _eager_from_edge_list(num_nodes, pairs):
    next_port = [0] * num_nodes
    edges = []
    for u, v in pairs:
        pu = next_port[u]
        next_port[u] += 1
        pv = next_port[v]
        next_port[v] += 1
        edges.append((HalfEdge(u, pu), HalfEdge(v, pv)))
    return _EagerPortGraph(num_nodes, edges)


def _short_cycle_edge_from_0(graph, below):
    """The first short-cycle edge of a BFS from each source in turn."""
    off, nbr, _, eids = graph.csr()
    for source in graph.nodes():
        dist = {source: 0}
        parent = {source: -1}
        queue = [source]
        for v in queue:
            d = dist[v]
            if d * 2 >= below:
                continue
            for slot in range(off[v], off[v + 1]):
                u = nbr[slot]
                eid = eids[slot]
                if u == v:
                    return eid
                if u not in dist:
                    dist[u] = d + 1
                    parent[u] = eid
                    queue.append(u)
                elif parent[v] != eid and dist[u] + d + 1 < below:
                    return eid
    return None


def _rebuilding_lift_girth(graph, min_girth, rng):
    """Girth surgery that rebuilds the graph eagerly after every swap
    and rescans it from node 0 (default budget, no error path)."""
    pairs = [(e.a.node, e.b.node) for e in graph.edges()]
    current = graph
    for _ in range(50 * graph.num_edges + 1000):
        bad_eid = _short_cycle_edge_from_0(current, min_girth)
        if bad_eid is None:
            return current
        other_eid = rng.randrange(len(pairs))
        if other_eid == bad_eid:
            continue
        a, b = pairs[bad_eid]
        c, d = pairs[other_eid]
        if rng.random() < 0.5:
            pairs[bad_eid], pairs[other_eid] = (a, c), (b, d)
        else:
            pairs[bad_eid], pairs[other_eid] = (a, d), (b, c)
        current = _eager_from_edge_list(graph.num_nodes, pairs)
    raise RuntimeError(f"no girth {min_girth} within the budget")


def _tables(graph: PortGraph) -> list[list[int]]:
    return [table.tolist() for table in graph.csr()]


def test_construction_old_vs_new():
    cubic_n = 256 if QUICK else 2048
    rng = random.Random(0)
    cubic = random_regular(cubic_n, 3, rng)
    surgery_state = rng.getstate()
    pairs = [(e.a.node, e.b.node) for e in cubic.edges()]
    gadget = build_gadget(3, 5).graph
    gadget_edges = [(e.a, e.b) for e in gadget.edges()]
    builder = GraphBuilder(gadget.num_nodes)
    for a, b in gadget_edges:
        builder.add_edge(a.node, b.node, a.port, b.port)

    def surgery(lift):
        surgery_rng = random.Random()
        surgery_rng.setstate(surgery_state)
        return lift(cubic, 6, surgery_rng), surgery_rng.getstate()

    cases = [
        (
            f"cubic-{cubic_n} from_edge_list",
            lambda: _eager_from_edge_list(cubic_n, pairs),
            lambda: PortGraph.from_edge_list(cubic_n, pairs),
        ),
        (
            "gadget-d3-h5 GraphBuilder.build",
            lambda: _EagerPortGraph(gadget.num_nodes, gadget_edges),
            builder.build,
        ),
        (
            f"cubic-{cubic_n} lift_girth(6)",
            lambda: surgery(_rebuilding_lift_girth),
            lambda: surgery(lift_girth),
        ),
    ]
    old_lifted, old_state = surgery(_rebuilding_lift_girth)
    new_lifted, new_state = surgery(lift_girth)
    assert _tables(new_lifted) == _tables(old_lifted)
    assert new_state == old_state
    assert girth(new_lifted) >= 6

    rows = []
    results: dict[str, dict] = {}
    for name, old, new in cases:
        built_old, built_new = old(), new()
        if isinstance(built_old, PortGraph):
            assert _tables(built_new) == _tables(built_old)
            assert list(built_new.edges()) == list(built_old.edges())
        old_s = _time(old)
        new_s = _time(new)
        results[name] = {
            "eager_s": old_s,
            "flat_s": new_s,
            "speedup": round(old_s / new_s, 2),
        }
        rows.append(
            [
                name,
                f"{old_s * 1e3:.2f}ms",
                f"{new_s * 1e3:.2f}ms",
                f"{old_s / new_s:.1f}x",
            ]
        )
        if not QUICK:
            assert new_s < old_s
    report_json("construction", {"quick": QUICK, "builds": results})
    report(
        render_table(
            ["construction", "eager", "flat", "speedup"],
            rows,
            title="E14  graph construction: eager object layer vs flat fill",
        )
    )
