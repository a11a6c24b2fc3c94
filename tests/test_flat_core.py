"""Property tests pinning the flat incidence core to the object API.

The CSR tables built at ``PortGraph`` freeze time must agree with the
``Edge``/``HalfEdge`` object layer on every query, including graphs
with self-loops and parallel edges, and every consumer rewired onto
them (BFS, the sync engine, the verifier) must produce results
identical to a reference implementation that only uses the object API.
"""

from __future__ import annotations

import pickle
from collections import deque

import pytest
from hypothesis import given, settings

from repro import kernels
from repro.generators import cycle
from repro.lcl import Labeling, LabelSet, NeLCL, verify
from repro.local import (
    Instance,
    PortGraph,
    SyncEngine,
    ViewOracle,
    bfs_distances,
    connected_components,
    multi_source_bfs,
)
from repro.local.graphs import Edge, HalfEdge
from repro.local.identifiers import sequential_ids
from repro.problems import VertexColoring
from tests.conftest import build_multigraph, edge_plans, multigraphs
from tests.flood_programs import EccFloodProgram, FloodNode


# -- reference implementations through the object layer only -----------------


def _object_endpoint(graph: PortGraph, v: int, port: int) -> HalfEdge:
    """The pre-flat-core endpoint: edge object + other_side."""
    edge = graph.edge_at(v, port)
    return edge.other_side(HalfEdge(v, port))


def _object_bfs(graph: PortGraph, source: int, max_radius=None) -> dict[int, int]:
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        d = dist[v]
        if max_radius is not None and d >= max_radius:
            continue
        for port in range(graph.degree(v)):
            u = _object_endpoint(graph, v, port).node
            if u not in dist:
                dist[u] = d + 1
                frontier.append(u)
    return dist


def _object_engine_run(instance: Instance, node_factory, max_rounds=10_000):
    """A reference SyncEngine.run that delivers via edge objects."""
    graph = instance.graph
    nodes = [node_factory(v, instance) for v in graph.nodes()]
    halted = [False] * graph.num_nodes
    rounds = 0
    for round_index in range(max_rounds):
        outboxes = []
        active = 0
        for v, node in enumerate(nodes):
            if halted[v]:
                outboxes.append(None)
                continue
            out = node.outgoing(round_index)
            if out is None:
                halted[v] = True
                outboxes.append(None)
                continue
            outboxes.append(out)
            active += 1
        if active == 0:
            break
        rounds += 1
        inboxes = [
            None if halted[v] else [None] * graph.degree(v) for v in graph.nodes()
        ]
        for v in graph.nodes():
            out = outboxes[v]
            if out is None:
                continue
            for port in range(graph.degree(v)):
                target = _object_endpoint(graph, v, port)
                inbox = inboxes[target.node]
                if inbox is not None:
                    inbox[target.port] = out[port]
        for v, node in enumerate(nodes):
            if not halted[v]:
                node.receive(round_index, inboxes[v])
    return [node.result() for node in nodes], rounds


# -- table structure ----------------------------------------------------------


class TestFlatTables:
    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_csr_matches_object_layer(self, graph: PortGraph):
        off, nbr, peer, eids = graph.csr()
        assert off[0] == 0
        assert off[-1] == 2 * graph.num_edges
        for v in graph.nodes():
            base = off[v]
            assert off[v + 1] - base == graph.degree(v)
            for port in range(graph.degree(v)):
                other = _object_endpoint(graph, v, port)
                slot = base + port
                assert nbr[slot] == other.node
                assert peer[slot] == other.port
                assert eids[slot] == graph.edge_id_at(v, port)
                assert graph.endpoint(v, port) == other
                assert graph.neighbor(v, port) == other.node

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_neighbors_and_degrees(self, graph: PortGraph):
        degrees = graph.degrees
        for v in graph.nodes():
            expected = [
                _object_endpoint(graph, v, p).node for p in range(graph.degree(v))
            ]
            assert graph.neighbors(v) == expected
            assert degrees[v] == graph.degree(v)
            assert graph.incident_edge_ids(v) == [
                graph.edge_id_at(v, p) for p in range(graph.degree(v))
            ]
        if graph.num_nodes:
            assert graph.max_degree == max(degrees)
            assert graph.min_degree == min(degrees)

    def test_self_loop_slots_point_at_each_other(self):
        graph = build_multigraph(2, [(0, 0), (0, 1), (1, 1)])
        off, nbr, peer, eids = graph.csr()
        # loop on node 0 occupies ports 0 and 1
        assert nbr[off[0] + 0] == 0 and peer[off[0] + 0] == 1
        assert nbr[off[0] + 1] == 0 and peer[off[0] + 1] == 0
        assert eids[off[0]] == eids[off[0] + 1]
        assert graph.endpoint(0, 0) == HalfEdge(0, 1)
        assert graph.endpoint(0, 1) == HalfEdge(0, 0)

    def test_parallel_edges_keep_distinct_eids(self):
        graph = build_multigraph(2, [(0, 1), (0, 1)])
        _, nbr, _, eids = graph.csr()
        assert graph.neighbors(0) == [1, 1]
        assert eids[0] != eids[1]
        assert graph.endpoint(0, 0) == HalfEdge(1, 0)
        assert graph.endpoint(0, 1) == HalfEdge(1, 1)

    def test_out_of_range_port_raises(self):
        graph = cycle(4)
        with pytest.raises(IndexError):
            graph.endpoint(0, 2)
        with pytest.raises(IndexError):
            graph.neighbor(0, 5)
        # negative ports keep list indexing semantics
        assert graph.endpoint(0, -1) == graph.endpoint(0, 1)


# -- construction routes ------------------------------------------------------


def _reference_layers(num_nodes, pairs):
    """Both layers of the graph on ``pairs`` with ports in input order,
    derived from the edge list alone: ``(csr lists, edges, rows)``, where
    ``rows[v]`` lists the edge ids at ``v`` in port order."""
    rows = [[] for _ in range(num_nodes)]
    for eid, (u, v) in enumerate(pairs):
        rows[u].append(eid)
        rows[v].append(eid)
    sides = [[] for _ in pairs]
    for v, row in enumerate(rows):
        for port, eid in enumerate(row):
            sides[eid].append(HalfEdge(v, port))
    edges = [Edge(eid, *sorted(pair)) for eid, pair in enumerate(sides)]
    off, nbr, peer, eids = [0], [], [], []
    for v, row in enumerate(rows):
        for port, eid in enumerate(row):
            edge = edges[eid]
            other = edge.b if edge.a == (v, port) else edge.a
            nbr.append(other.node)
            peer.append(other.port)
            eids.append(eid)
        off.append(len(eids))
    return [off, nbr, peer, eids], edges, rows


def _input_order_ports(pairs):
    """``(u, v)`` pairs as half-edge pairs, ports numbered in input order."""
    next_port: dict[int, int] = {}
    edges = []
    for u, v in pairs:
        sides = []
        for node in (u, v):
            port = next_port.get(node, 0)
            next_port[node] = port + 1
            sides.append(HalfEdge(node, port))
        edges.append(tuple(sides))
    return edges


def _slot_unset(graph: PortGraph, slot: str) -> bool:
    """Whether ``slot`` holds no value, read through the slot descriptor
    so that ``__getattr__`` does not fill it."""
    try:
        PortGraph.__dict__[slot].__get__(graph, PortGraph)
    except AttributeError:
        return True
    return False


class TestConstructionRoutes:
    """``PortGraph(n, edges)``, ``GraphBuilder.build()`` and
    ``from_edge_list`` fill the same tables and lazy object layer."""

    @staticmethod
    def _routes(num_nodes, pairs):
        return {
            "constructor": PortGraph(num_nodes, _input_order_ports(pairs)),
            "builder": build_multigraph(num_nodes, pairs),
            "from_edge_list": PortGraph.from_edge_list(num_nodes, pairs),
        }

    @given(edge_plans())
    @settings(max_examples=80, deadline=None)
    def test_routes_match_reference(self, plan):
        num_nodes, pairs = plan
        tables, edges, rows = _reference_layers(num_nodes, pairs)
        halves = [side for edge in edges for side in (edge.a, edge.b)]
        for route, graph in self._routes(num_nodes, pairs).items():
            assert [t.tolist() for t in graph.csr()] == tables, route
            assert graph.num_edges == len(pairs)
            assert list(graph.edges()) == edges, route
            assert list(graph.half_edges()) == halves, route
            for v in graph.nodes():
                assert graph.incident_edge_ids(v) == rows[v], route
                for port, eid in enumerate(rows[v]):
                    edge = edges[eid]
                    assert graph.edge_at(v, port) == edge
                    other = edge.b if edge.a == (v, port) else edge.a
                    assert graph.endpoint(v, port) == other

    @given(edge_plans())
    @settings(max_examples=30, deadline=None)
    def test_object_layer_is_born_on_first_read(self, plan):
        for graph in self._routes(*plan).values():
            graph.csr()
            for v in graph.nodes():
                graph.neighbors(v)
                for port in range(graph.degree(v)):
                    graph.endpoint(v, port)
            assert _slot_unset(graph, "_edges") and _slot_unset(graph, "_adj")
            list(graph.edges())
            assert not _slot_unset(graph, "_edges")
            assert not _slot_unset(graph, "_adj")

    @given(multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_pickle_round_trip_keeps_both_layers(self, graph: PortGraph):
        clone = pickle.loads(pickle.dumps(graph))
        assert _slot_unset(clone, "_edges") and _slot_unset(clone, "_adj")
        assert [t.tolist() for t in clone.csr()] == [t.tolist() for t in graph.csr()]
        assert list(clone.edges()) == list(graph.edges())
        assert [clone.incident_edge_ids(v) for v in clone.nodes()] == [
            graph.incident_edge_ids(v) for v in graph.nodes()
        ]
        assert clone.degrees == graph.degrees


# -- rewired consumers agree with object-layer references ---------------------


class TestRewiredConsumers:
    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_bfs_matches_object_reference(self, graph: PortGraph):
        for source in range(min(graph.num_nodes, 4)):
            assert bfs_distances(graph, source) == _object_bfs(graph, source)
            assert bfs_distances(graph, source, max_radius=2) == _object_bfs(
                graph, source, max_radius=2
            )

    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_components_and_multi_source(self, graph: PortGraph):
        comps = connected_components(graph)
        assert sorted(v for comp in comps for v in comp) == list(graph.nodes())
        for comp in comps:
            reach = set(_object_bfs(graph, comp[0]))
            assert set(comp) == reach
        dist, parent = multi_source_bfs(graph, [0])
        assert dist == _object_bfs(graph, 0)
        for v, eid in parent.items():
            edge = graph.edge(eid)
            other = edge.a.node if edge.b.node == v else edge.b.node
            assert dist[other] == dist[v] - 1

    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_views_match_object_reference(self, graph: PortGraph):
        oracle = ViewOracle(graph)
        for radius in (0, 1, 3, 2):  # shrinking request exercises the trim
            view = oracle.view(0, radius)
            reference = {
                u: d
                for u, d in _object_bfs(graph, 0, max_radius=radius).items()
                if d <= radius
            }
            assert view.dist == reference
            assert view.nodes() == sorted(reference)
            assert view.boundary() == sorted(
                u for u, d in reference.items() if d == radius
            )

    @given(multigraphs())
    @settings(max_examples=20, deadline=None)
    def test_engine_matches_object_reference(self, graph: PortGraph):
        instance = Instance(graph, sequential_ids(graph.num_nodes))
        try:
            expected, expected_rounds = _object_engine_run(
                instance, FloodNode, max_rounds=64
            )
        except Exception:  # disconnected graphs never converge; skip those
            return
        if None in expected:
            return
        result = SyncEngine(instance, FloodNode).run(max_rounds=64)
        assert result.results == expected
        assert result.rounds == expected_rounds

    @given(multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_verifier_matches_unflagged_problem(self, graph: PortGraph):
        problem = VertexColoring(3).problem()
        assert problem.edge_symmetric
        unflagged = VertexColoring(3).problem()
        unflagged.edge_symmetric = False
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, v % 3)
        inputs = Labeling(graph)
        fast = verify(problem, graph, inputs, outputs)
        slow = verify(unflagged, graph, inputs, outputs)
        assert fast.ok == slow.ok
        assert fast.violations == slow.violations


# -- vector kernels vs the object oracle --------------------------------------

needs_numpy = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="vector kernels need numpy"
)


@needs_numpy
class TestVectorKernelsDifferential:
    """Every vectorized kernel against the object layer it shadows.

    The object implementations are the oracle; under
    ``kernels.active("vector")`` the same public entry points dispatch
    to the vector backend and must return *bit-identical* results —
    same values, same ordering — on random multigraphs with self-loops
    and parallel edges.
    """

    @given(multigraphs())
    @settings(max_examples=20, deadline=None)
    def test_engine_delivery_matches_object_backend(self, graph: PortGraph):
        # Given its array twin, FloodNode takes the batched path under
        # the vector backend; without one, the object round loop runs
        # under the vector backend on the same graphs and must agree
        # with both.
        instance = Instance(graph, sequential_ids(graph.num_nodes))
        try:
            expected = SyncEngine(instance, FloodNode).run(max_rounds=64)
        except Exception:
            return  # disconnected graphs never converge; skip those
        with kernels.active("vector"):
            plan = SyncEngine(instance, FloodNode).run(max_rounds=64)
            batched = SyncEngine(
                instance, FloodNode, array_program=EccFloodProgram
            ).run(max_rounds=64)
        for got in (plan, batched):
            assert got.results == expected.results
            assert got.rounds == expected.rounds
            assert got.halt_rounds == expected.halt_rounds
            assert got.trace == expected.trace

    @given(multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_verifier_matches_object_backend(self, graph: PortGraph):
        problem = VertexColoring(3).problem()
        inputs = Labeling(graph)
        # v % 3 colors adjacent nodes equal often enough to exercise
        # the violation path; the occasional out-of-domain label
        # exercises the domain pass.
        outputs = Labeling(graph)
        for v in graph.nodes():
            outputs.set_node(v, "junk" if v % 7 == 6 else v % 3)
        expected = verify(problem, graph, inputs, outputs)
        with kernels.active("vector"):
            got = verify(problem, graph, inputs, outputs)
        assert got.ok == expected.ok
        assert got.violations == expected.violations


class TestReadonlyCore:
    """Satellite regression: csr() views and the degree table are
    frozen against callers (graphs are shared across trials)."""

    def test_caller_mutation_cannot_corrupt_csr(self):
        graph = cycle(8)
        off, nbr, peer, eids = graph.csr()
        for view in (off, nbr, peer, eids, graph.degrees):
            with pytest.raises(TypeError):
                view[0] = 99
        assert graph.degree(0) == 2
        # still intact afterwards
        assert bfs_distances(graph, 0) == _object_bfs(graph, 0)

    @needs_numpy
    def test_numpy_wrap_inherits_readonly(self):
        import numpy as np

        graph = cycle(8)
        for view in graph.csr():
            arr = np.frombuffer(view, dtype=np.int64)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 99


# -- satellite regressions ----------------------------------------------------


class TestViewCaching:
    def test_view_dist_isolated_from_later_growth(self):
        graph = cycle(12)
        oracle = ViewOracle(graph)
        small = oracle.view(0, 1)
        before = dict(small.dist)
        oracle.view(0, 4)  # grows the shared BFS state
        assert small.dist == before

    def test_nodes_and_boundary_are_cached(self):
        graph = cycle(8)
        view = ViewOracle(graph).view(0, 2)
        assert view.nodes() is view.nodes()
        assert view.boundary() is view.boundary()


class TestVerifierReport:
    """The verifier reports every violation, the domain pass first, and
    the vector backend reports the same list."""

    @staticmethod
    def _verified(problem, graph, outputs):
        verdict = verify(problem, graph, Labeling(graph), outputs)
        if kernels.HAVE_NUMPY:
            with kernels.active("vector"):
                twin = verify(problem, graph, Labeling(graph), outputs)
            assert twin.ok == verdict.ok
            assert twin.violations == verdict.violations
        return verdict

    def test_domain_pass_reports_every_node(self):
        graph = cycle(64)
        problem = VertexColoring(3).problem()
        outputs = Labeling(graph).fill_nodes("not-a-color")
        verdict = self._verified(problem, graph, outputs)
        assert not verdict.ok
        domain = verdict.violations[: graph.num_nodes]
        assert [(v.kind, v.where) for v in domain] == [
            ("domain", ("node", v)) for v in graph.nodes()
        ]
        rest = verdict.violations[graph.num_nodes :]
        assert all(v.kind != "domain" for v in rest)

    def test_out_of_domain_labeling_is_never_valid(self):
        # Constraints that accept everything cannot make an
        # out-of-domain labeling valid: the domain pass rejects it alone.
        graph = cycle(4)
        problem = NeLCL(
            "anything-goes",
            lambda cfg: True,
            lambda cfg: True,
            node_outputs=LabelSet("colors", {0, 1, 2}),
        )
        outputs = Labeling(graph).fill_nodes("not-a-color")
        verdict = self._verified(problem, graph, outputs)
        assert not verdict.ok
        assert [v.where for v in verdict.violations] == [
            ("node", v) for v in graph.nodes()
        ]

    def test_domain_violations_precede_constraint_violations(self):
        graph = cycle(6)
        problem = VertexColoring(2).problem()
        outputs = Labeling(graph)
        for v in graph.nodes():
            # nodes 0..2 break the domain, the rest break edges (same color)
            outputs.set_node(v, "bad" if v < 3 else 0)
        verdict = self._verified(problem, graph, outputs)
        assert [(v.kind, v.where) for v in verdict.violations] == [
            ("domain", ("node", 0)),
            ("domain", ("node", 1)),
            ("domain", ("node", 2)),
            ("node", 0),
            ("node", 1),
            ("node", 2),
            ("edge", 0),
            ("edge", 1),
            ("edge", 3),
            ("edge", 4),
        ]

