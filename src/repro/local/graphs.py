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

* The **object layer** — :class:`Edge` / :class:`HalfEdge` values from
  ``edge``, ``edges``, ``incident_edges`` — is the readable API for
  construction, formatting, and anything off the hot path.
* The **flat incidence core** — CSR-style arrays built once at freeze
  time and returned by :meth:`PortGraph.csr` (per-port neighbor, peer
  port, and edge-id tables with per-node offsets, plus the cached
  :attr:`PortGraph.degrees` list) — backs ``endpoint``, ``neighbor``,
  ``neighbors``, and every hot loop in the simulator, BFS, and verifier
  with O(1) index reads and no per-lookup object allocation.

Both layers are views of the same frozen arrays, so self-loops and
parallel edges behave identically through either.
"""

from __future__ import annotations

import warnings
from array import array
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


class _DeprecatedCallableInt(int):
    """Shim for ``PortGraph.min_degree`` callers from before it became a
    property: the value still answers ``()`` (with a DeprecationWarning)."""

    __slots__ = ()

    def __call__(self) -> int:
        warnings.warn(
            "PortGraph.min_degree is now a property; use `graph.min_degree` "
            "instead of `graph.min_degree()`",
            DeprecationWarning,
            stacklevel=2,
        )
        return int(self)


class PortGraph:
    """An immutable port-numbered multigraph.

    Construct instances with :class:`repro.local.builder.GraphBuilder` or
    the convenience classmethod :meth:`from_edge_list`.
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
        "_min_degree",
        "_max_degree",
    )

    def __init__(self, num_nodes: int, edges: Sequence[tuple[HalfEdge, HalfEdge]]):
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._num_nodes = num_nodes
        self._edges: list[Edge] = []
        # _adj[v][p] = eid of the edge attached to port p of node v
        self._adj: list[list[int]] = [[] for _ in range(num_nodes)]
        occupied: set[HalfEdge] = set()
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
            if a == b:
                raise ValueError("an edge must join two distinct half-edges")
            self._edges.append(Edge(eid, a, b))
        # Materialize adjacency; ports must form a contiguous 0..deg-1 range.
        per_node: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
        for edge in self._edges:
            per_node[edge.a.node][edge.a.port] = edge.eid
            per_node[edge.b.node][edge.b.port] = edge.eid
        for v, ports in enumerate(per_node):
            degree = len(ports)
            if ports and (min(ports) != 0 or max(ports) != degree - 1):
                raise ValueError(
                    f"node {v} has non-contiguous ports {sorted(ports)}"
                )
            self._adj[v] = [ports[p] for p in range(degree)]
        # Flat incidence core (CSR layout): port slot (v, p) lives at flat
        # index _off[v] + p; _nbr holds the node across the edge, _peer the
        # port it arrives on, _eids the edge id.  A self-loop on ports p, q
        # of v fills both slots pointing at each other, so the tables keep
        # exact multigraph semantics.
        deg = [len(ports) for ports in self._adj]
        off = [0] * (num_nodes + 1)
        for v in range(num_nodes):
            off[v + 1] = off[v] + deg[v]
        total = off[num_nodes]
        nbr = [0] * total
        peer = [0] * total
        eids = [0] * total
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
        self._deg = deg
        self._num_edges = len(self._edges)
        self._off = _readonly_q(array(_CSR_TYPECODE, off))
        self._nbr = _readonly_q(array(_CSR_TYPECODE, nbr))
        self._peer = _readonly_q(array(_CSR_TYPECODE, peer))
        self._eids = _readonly_q(array(_CSR_TYPECODE, eids))
        self._min_degree = _DeprecatedCallableInt(min(deg, default=0))
        self._max_degree = max(deg, default=0)
        self._frozen = True

    # -- construction helpers -------------------------------------------------

    def _adopt_csr(self, num_nodes, num_edges, off, nbr, peer, eids) -> None:
        self._num_nodes = int(num_nodes)
        self._num_edges = int(num_edges)
        self._off = _readonly_q(off)
        self._nbr = _readonly_q(nbr)
        self._peer = _readonly_q(peer)
        self._eids = _readonly_q(eids)
        off_view = self._off
        deg = [off_view[v + 1] - off_view[v] for v in range(self._num_nodes)]
        self._deg = deg
        self._min_degree = _DeprecatedCallableInt(min(deg, default=0))
        self._max_degree = max(deg, default=0)
        self._frozen = True
        # _edges and _adj are deliberately left unset; __getattr__
        # materializes them from the flat tables on first touch.

    def __getattr__(self, name: str):
        # Only reachable when a slot is unset: the lazy object layer of
        # an unpickled graph.  Both halves materialize together.
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
        }

    def __setstate__(self, state: dict) -> None:
        tables = []
        for key in ("off", "nbr", "peer", "eids"):
            buf = array(_CSR_TYPECODE)
            buf.frombytes(state[key])
            tables.append(buf)
        self._adopt_csr(state["num_nodes"], state["num_edges"], *tables)

    @classmethod
    def from_edge_list(
        cls, num_nodes: int, pairs: Sequence[tuple[int, int]]
    ) -> "PortGraph":
        """Build a graph from (u, v) pairs, assigning ports in input order."""
        next_port = [0] * num_nodes
        edges = []
        for u, v in pairs:
            pu = next_port[u]
            next_port[u] += 1
            pv = next_port[v]
            next_port[v] += 1
            edges.append((HalfEdge(u, pu), HalfEdge(v, pv)))
        return cls(num_nodes, edges)

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
    def degrees(self) -> list[int]:
        """Per-node degree table (shared, frozen — do not mutate)."""
        return self._deg

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def min_degree(self) -> int:
        """Minimum degree (0 for the empty graph).

        The value tolerates the legacy ``graph.min_degree()`` call form
        with a DeprecationWarning.
        """
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

    def half_edges_of(self, v: int) -> Iterator[HalfEdge]:
        for port in range(self._deg[v]):
            yield HalfEdge(v, port)

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
