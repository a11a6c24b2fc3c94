"""Port-numbered multigraphs for the LOCAL model.

The paper (Section 2) works with graphs that may be disconnected and may
contain self-loops and parallel edges, where every node numbers its
incident edges with ports ``1..deg(v)``.  ``PortGraph`` is an immutable
representation of exactly that object:

* A **half-edge** is a pair ``(node, port)``.  Half-edges are the set
  ``B`` of incident node-edge pairs from the paper's ne-LCL formalism;
  with parallel edges the pair ``(node, edge)`` would be ambiguous, the
  pair ``(node, port)`` never is.
* An **edge** joins two half-edges.  A self-loop joins two distinct ports
  of the same node and therefore still contributes two half-edges.

Ports are 0-based in code (the paper's ``Port_1..Port_d`` maps to ports
``0..d-1``); all public formatting uses the 0-based convention
consistently.

Two access layers
-----------------

``PortGraph`` exposes the same immutable topology through two layers:

* The **flat incidence core** — CSR-style arrays filled once at
  construction and returned by :meth:`PortGraph.csr` (per-port
  neighbor, peer port, and edge-id tables with per-node offsets, plus
  the cached :attr:`PortGraph.degrees` tuple) and by
  :meth:`PortGraph.edge_slots` (the two port slots of every edge) —
  backs ``endpoint``, ``neighbor``, ``neighbors``, and every hot loop
  with O(1) index reads and no per-lookup object allocation.  Both
  constructors write it directly.  Labelings
  (:class:`repro.lcl.assignment.Labeling`) store half-edge labels by
  the same port slots, and every solver, verifier and instance builder
  of the canonical reproduction reads only this layer.
* The **object layer** — :class:`Edge` / :class:`HalfEdge` values from
  ``edge``, ``edges``, ``incident_edges``, and the per-node edge-id
  lists of ``incident_edge_ids`` — is the readable API for formatting,
  tests, the graph generators' and corruptions' off-path rebuilds,
  networkx interop, and the differential oracle the flat core is
  checked against.  It is built from the tables on its first read, the
  same way for every graph (constructed or unpickled), so graphs whose
  callers only read the tables never pay for it.

The object layer is derived from the frozen tables, so self-loops and
parallel edges behave identically through either.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import sub
from typing import Iterator, NamedTuple, Sequence

__all__ = ["HalfEdge", "Edge", "PortGraph"]

# CSR tables are stored as signed 64-bit typed arrays ("q") and exposed
# as read-only memoryviews: the buffer protocol makes them zero-copy
# consumable by numpy kernels, and the read-only view makes the "must
# not be mutated" contract enforceable.
_CSR_TYPECODE = "q"


def _readonly_q(buf: array) -> memoryview:
    """A read-only memoryview over an int64 (``"q"``) typed array."""
    return memoryview(buf).toreadonly()


class HalfEdge(NamedTuple):
    """One side of an edge: a (node, port) incidence."""

    node: int
    port: int


class Edge(NamedTuple):
    """An undirected edge joining two half-edges.

    ``a`` and ``b`` are stored in a canonical order (smaller endpoint
    first) but carry no orientation; orientations are outputs of
    algorithms, never part of the graph.
    """

    eid: int
    a: HalfEdge
    b: HalfEdge

    @property
    def is_loop(self) -> bool:
        return self.a.node == self.b.node

    def nodes(self) -> tuple[int, int]:
        return (self.a.node, self.b.node)

    def other_side(self, side: HalfEdge) -> HalfEdge:
        """Return the opposite half-edge of ``side`` on this edge."""
        if side == self.a:
            return self.b
        if side == self.b:
            return self.a
        raise ValueError(f"{side} is not an endpoint of edge {self.eid}")


def _csr_tables(
    deg: list[int], halves: list[tuple[int, int, int, int]]
) -> tuple[array, array, array, array, array]:
    """The flat incidence tables ``(off, nbr, peer, eids, ends)`` of the
    edges ``halves`` (``(a_node, a_port, b_node, b_port)`` per edge id),
    whose ports are already validated against the per-node degrees
    ``deg``.

    Port slot ``(v, p)`` lives at flat index ``off[v] + p``; ``nbr``
    holds the node across the edge, ``peer`` the port it arrives on,
    ``eids`` the edge id.  ``ends[2 * eid]`` and ``ends[2 * eid + 1]``
    are the two slots of edge ``eid``, the smaller first.  A self-loop
    on ports p, q of v fills both slots pointing at each other, so the
    tables keep exact multigraph semantics.
    """
    off = [0, *accumulate(deg)]
    total = off[-1]
    nbr = [0] * total
    peer = [0] * total
    eids = [0] * total
    ends = [0] * total
    for eid, (a_node, a_port, b_node, b_port) in enumerate(halves):
        i = off[a_node] + a_port
        j = off[b_node] + b_port
        nbr[i] = b_node
        peer[i] = b_port
        eids[i] = eid
        nbr[j] = a_node
        peer[j] = a_port
        eids[j] = eid
        if i < j:
            ends[2 * eid] = i
            ends[2 * eid + 1] = j
        else:
            ends[2 * eid] = j
            ends[2 * eid + 1] = i
    return tuple(
        array(_CSR_TYPECODE, table) for table in (off, nbr, peer, eids, ends)
    )


def _numbered(pairs: Sequence[tuple[int, int]]) -> list[tuple[HalfEdge, HalfEdge]]:
    """(u, v) pairs as half-edge pairs, ports numbered in input order."""
    next_port: dict[int, int] = {}
    edges = []
    for u, v in pairs:
        pu = next_port.get(u, 0)
        next_port[u] = pu + 1
        pv = next_port.get(v, 0)
        next_port[v] = pv + 1
        edges.append((HalfEdge(u, pu), HalfEdge(v, pv)))
    return edges


class PortGraph:
    """An immutable port-numbered multigraph.

    Construct instances with :class:`repro.local.builder.GraphBuilder` or
    the convenience classmethod :meth:`from_edge_list`.  Both fill the
    flat CSR tables only; the ``Edge``/``HalfEdge`` object layer is
    built from those tables on first touch.
    """

    __slots__ = (
        "_num_nodes",
        "_num_edges",
        "_edges",
        "_adj",
        "_frozen",
        "_deg",
        "_off",
        "_nbr",
        "_peer",
        "_eids",
        "_ends",
        "_min_degree",
        "_max_degree",
    )

    def __init__(self, num_nodes: int, edges: Sequence[tuple[HalfEdge, HalfEdge]]):
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        # Validate every half-edge in edge order, the smaller side of each
        # edge first.
        halves: list[tuple[int, int, int, int]] = []
        occupied: set[tuple[int, int]] = set()
        deg = [0] * num_nodes
        top = [-1] * num_nodes
        for a, b in edges:
            a = tuple(a)
            b = tuple(b)
            if a > b:
                a, b = b, a
            for side in (a, b):
                node, port = side
                if not 0 <= node < num_nodes:
                    raise ValueError(f"edge endpoint {HalfEdge(*side)} out of range")
                if port < 0:
                    raise ValueError(f"negative port in {HalfEdge(*side)}")
                if side in occupied:
                    raise ValueError(f"port {HalfEdge(*side)} used by two edges")
                occupied.add(side)
                deg[node] += 1
                if port > top[node]:
                    top[node] = port
            halves.append((*a, *b))
        # Ports are distinct and non-negative, so they form the contiguous
        # range 0..deg-1 exactly when the highest one is deg-1.
        for v in range(num_nodes):
            if top[v] != deg[v] - 1:
                ports = sorted(port for node, port in occupied if node == v)
                raise ValueError(f"node {v} has non-contiguous ports {ports}")
        self._adopt_csr(num_nodes, len(halves), *_csr_tables(deg, halves))

    # -- construction helpers -------------------------------------------------

    def _adopt_csr(self, num_nodes, num_edges, off, nbr, peer, eids, ends) -> None:
        self._num_nodes = int(num_nodes)
        self._num_edges = int(num_edges)
        self._off = _readonly_q(off)
        self._nbr = _readonly_q(nbr)
        self._peer = _readonly_q(peer)
        self._eids = _readonly_q(eids)
        self._ends = _readonly_q(ends)
        deg = tuple(map(sub, off[1:], off))
        self._deg = deg
        self._min_degree = min(deg, default=0)
        self._max_degree = max(deg, default=0)
        self._frozen = True
        # _edges and _adj are deliberately left unset; __getattr__
        # materializes them from the flat tables on first touch.

    def __getattr__(self, name: str):
        # Only reachable when a slot is unset: the lazy object layer.
        # Both halves materialize together.
        if name in ("_edges", "_adj"):
            edges, adj = self._materialize_object_layer()
            self._edges = edges
            self._adj = adj
            return edges if name == "_edges" else adj
        raise AttributeError(name)

    def _materialize_object_layer(self) -> tuple[list[Edge], list[list[int]]]:
        """Rebuild Edge values and per-node edge-id lists from the CSR
        tables.  Flat slots are scanned in (node, port) order, so the
        first slot of each edge id is its canonical ``a`` side."""
        off, eids = self._off, self._eids
        first: list[HalfEdge | None] = [None] * self._num_edges
        edges: list[Edge | None] = [None] * self._num_edges
        adj: list[list[int]] = []
        for v in range(self._num_nodes):
            base = off[v]
            row = eids[base : off[v + 1]].tolist()
            adj.append(row)
            for port, eid in enumerate(row):
                side = HalfEdge(v, port)
                if first[eid] is None:
                    first[eid] = side
                else:
                    edges[eid] = Edge(eid, first[eid], side)
        return edges, adj

    # -- pickling --------------------------------------------------------------
    #
    # Memoryviews are not picklable, so state travels as the raw table
    # bytes; the receiving side re-adopts them (object layer lazy again).
    # This also keeps pickles small: no Edge/HalfEdge object graph.

    def __getstate__(self) -> dict:
        return {
            "num_nodes": self._num_nodes,
            "num_edges": self._num_edges,
            "off": self._off.tobytes(),
            "nbr": self._nbr.tobytes(),
            "peer": self._peer.tobytes(),
            "eids": self._eids.tobytes(),
            "ends": self._ends.tobytes(),
        }

    def __setstate__(self, state: dict) -> None:
        tables = []
        for key in ("off", "nbr", "peer", "eids", "ends"):
            buf = array(_CSR_TYPECODE)
            buf.frombytes(state[key])
            tables.append(buf)
        self._adopt_csr(state["num_nodes"], state["num_edges"], *tables)

    @classmethod
    def from_edge_list(
        cls, num_nodes: int, pairs: Sequence[tuple[int, int]]
    ) -> "PortGraph":
        """Build a graph from (u, v) pairs, assigning ports in input order.

        Edge ``i`` joins the endpoints of ``pairs[i]``; each node numbers
        its ports in the order the pairs list it, and a self-loop takes
        two consecutive ports.  Ports numbered this way are distinct and
        contiguous, so only the endpoint range needs checking.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        halves: list[tuple[int, int, int, int]] = []
        deg = [0] * num_nodes
        for u, v in pairs:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                # The validating constructor raises its error naming
                # the out-of-range endpoint.
                return cls(num_nodes, _numbered(pairs))
            pu = deg[u]
            deg[u] = pu + 1
            pv = deg[v]
            deg[v] = pv + 1
            halves.append((u, pu, v, pv))
        graph = cls.__new__(cls)
        graph._adopt_csr(num_nodes, len(halves), *_csr_tables(deg, halves))
        return graph

    # -- basic size queries ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def degree(self, v: int) -> int:
        return self._deg[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        """Per-node degree table (shared and immutable, like the CSR
        tables)."""
        return self._deg

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def min_degree(self) -> int:
        """Minimum degree (0 for the empty graph)."""
        return self._min_degree

    # -- flat incidence core -----------------------------------------------------

    def csr(self) -> tuple[memoryview, memoryview, memoryview, memoryview]:
        """The flat incidence tables ``(offsets, neighbors, peer_ports,
        edge_ids)``.

        Port slot ``(v, p)`` lives at flat index ``offsets[v] + p``;
        ``offsets[num_nodes]`` equals ``2 * num_edges``.  The tables are
        **read-only** int64 memoryviews over the graph's frozen typed
        arrays: mutation attempts raise ``TypeError``, and the buffer
        protocol lets numpy kernels consume them zero-copy
        (``np.frombuffer(view, dtype=np.int64)``).  Hot
        loops unpack them into locals; everything else should prefer the
        object API.
        """
        return self._off, self._nbr, self._peer, self._eids

    def edge_slots(self) -> memoryview:
        """The flat slots of every edge's two sides, edge-major: edge
        ``eid`` joins slots ``slots[2 * eid]`` (its canonical ``a``
        side, the smaller slot) and ``slots[2 * eid + 1]`` (``b``).

        A read-only int64 memoryview like the :meth:`csr` tables.  The
        node of a side is the neighbor entry of the other side:
        ``a`` sits at node ``neighbors[slots[2 * eid + 1]]``.
        """
        return self._ends

    def with_isolated_nodes(self, count: int) -> "PortGraph":
        """This graph plus ``count`` isolated nodes numbered after its
        own.  Isolated nodes own no port slots, so only the offsets
        table grows; the other tables are shared with this graph."""
        if count < 0:
            raise ValueError("count must be non-negative")
        off = array(_CSR_TYPECODE, self._off)
        off.extend([off[-1]] * count)
        graph = PortGraph.__new__(PortGraph)
        graph._adopt_csr(
            self._num_nodes + count,
            self._num_edges,
            off,
            self._nbr,
            self._peer,
            self._eids,
            self._ends,
        )
        return graph

    def incident_edge_ids(self, v: int) -> list[int]:
        """Edge ids at ``v`` in port order (shared, frozen — do not
        mutate); a self-loop appears twice."""
        return self._adj[v]

    # -- iteration ---------------------------------------------------------------

    def nodes(self) -> range:
        return range(self._num_nodes)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def half_edges(self) -> Iterator[HalfEdge]:
        """All half-edges of the graph (the set B of the paper)."""
        for edge in self._edges:
            yield edge.a
            yield edge.b

    # -- incidence queries ---------------------------------------------------------

    def edge(self, eid: int) -> Edge:
        return self._edges[eid]

    def edge_id_at(self, v: int, port: int) -> int:
        return self._adj[v][port]

    def edge_at(self, v: int, port: int) -> Edge:
        return self._edges[self._adj[v][port]]

    def endpoint(self, v: int, port: int) -> HalfEdge:
        """The half-edge reached by leaving ``v`` through ``port``.

        For a self-loop on ports ``p`` and ``q`` of ``v``,
        ``endpoint(v, p)`` is ``HalfEdge(v, q)``.
        """
        degree = self._deg[v]
        if port < 0:
            port += degree
        if not 0 <= port < degree:
            raise IndexError("list index out of range")
        i = self._off[v] + port
        return HalfEdge(self._nbr[i], self._peer[i])

    def neighbor(self, v: int, port: int) -> int:
        degree = self._deg[v]
        if port < 0:
            port += degree
        if not 0 <= port < degree:
            raise IndexError("list index out of range")
        return self._nbr[self._off[v] + port]

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of ``v`` with multiplicity, in port order."""
        return self._nbr[self._off[v] : self._off[v + 1]].tolist()

    def incident_edges(self, v: int) -> list[Edge]:
        """Incident edges in port order; a self-loop appears twice."""
        edges = self._edges
        return [edges[eid] for eid in self._adj[v]]

    def half_edge_of_edge(self, v: int, eid: int) -> HalfEdge:
        """The half-edge of ``eid`` at node ``v`` (first port for loops)."""
        edge = self._edges[eid]
        if edge.a.node == v:
            return edge.a
        if edge.b.node == v:
            return edge.b
        raise ValueError(f"node {v} is not an endpoint of edge {eid}")

    # -- structural predicates -------------------------------------------------------

    def has_self_loop(self) -> bool:
        return any(edge.is_loop for edge in self._edges)

    def has_parallel_edges(self) -> bool:
        seen: set[tuple[int, int]] = set()
        for edge in self._edges:
            if edge.is_loop:
                continue
            key = (edge.a.node, edge.b.node)
            if key in seen:
                return True
            seen.add(key)
        return False

    def is_simple(self) -> bool:
        return not self.has_self_loop() and not self.has_parallel_edges()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PortGraph(n={self._num_nodes}, m={self.num_edges})"
