"""Radius-metered local views.

In the LOCAL model, a T-round algorithm is exactly a function of each
node's radius-T view (paper, Section 2).  :class:`ViewOracle` serves
balls around nodes through an incremental BFS and records the largest
radius each node ever consulted; that record *is* the empirical round
complexity reported by the harness.

Solvers that compute global structure directly (for speed) instead call
:meth:`charge` to account the radius a distributed implementation would
have needed; either way the number lands in the same meter.
"""

from __future__ import annotations

from repro.local.distances import induced_subgraph
from repro.local.graphs import PortGraph

__all__ = ["ViewOracle", "View"]


class View:
    """A radius-``r`` view around ``center``: nodes, distances, subgraph.

    ``subgraph()`` materializes the induced subgraph on demand (with a
    mapping back to original node indices) for algorithms that want to
    run offline computations on the view.
    """

    def __init__(self, graph: PortGraph, center: int, radius: int, dist: dict[int, int]):
        self._graph = graph
        self.center = center
        self.radius = radius
        self.dist = dist
        self._nodes: list[int] | None = None
        self._boundary: list[int] | None = None

    def __contains__(self, v: int) -> bool:
        return v in self.dist

    def nodes(self) -> list[int]:
        """Sorted view nodes (cached — treat the list as read-only)."""
        if self._nodes is None:
            self._nodes = sorted(self.dist)
        return self._nodes

    def boundary(self) -> list[int]:
        """Nodes at exactly the view radius (where knowledge ends).

        Cached like :meth:`nodes`; treat the list as read-only.
        """
        if self._boundary is None:
            radius = self.radius
            self._boundary = sorted(
                v for v, d in self.dist.items() if d == radius
            )
        return self._boundary

    def subgraph(self) -> tuple[PortGraph, dict[int, int]]:
        return induced_subgraph(self._graph, self.dist)


class ViewOracle:
    """Serves views and meters the maximum radius used per node."""

    def __init__(self, graph: PortGraph):
        self.graph = graph
        self._radius_used = [0] * graph.num_nodes
        # Incremental BFS state per node: (dist map, current frontier,
        # depth the BFS has been grown to)
        self._state: dict[int, tuple[dict[int, int], list[int], int]] = {}

    # -- metering ------------------------------------------------------------

    def charge(self, v: int, radius: int) -> None:
        """Record that node ``v`` needed a view of at least ``radius``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if radius > self._radius_used[v]:
            self._radius_used[v] = radius

    def radius_used(self, v: int) -> int:
        return self._radius_used[v]

    def node_radii(self) -> list[int]:
        return list(self._radius_used)

    def rounds(self) -> int:
        """The empirical round complexity: max radius over all nodes."""
        return max(self._radius_used, default=0)

    # -- view service -----------------------------------------------------------

    def _grow_to(self, v: int, radius: int) -> tuple[dict[int, int], int]:
        """Grow the cached BFS of ``v`` to ``radius``.

        Returns ``(dist, grown)`` where ``grown`` is the BFS depth the
        cache actually reached (every entry of ``dist`` is at distance
        ``<= grown``; ``grown`` may exceed ``radius`` when a previous,
        larger request already expanded the ball).
        """
        state = self._state.get(v)
        if state is None:
            state = ({v: 0}, [v], 0)
            self._state[v] = state
        dist, frontier, current = state
        off, nbr, _, _ = self.graph.csr()
        while current < radius and frontier:
            next_frontier = []
            push = next_frontier.append
            for x in frontier:
                for u in nbr[off[x] : off[x + 1]]:
                    if u not in dist:
                        dist[u] = current + 1
                        push(u)
            frontier = next_frontier
            current += 1
        self._state[v] = (dist, frontier, current)
        return dist, current

    def view(self, v: int, radius: int) -> View:
        """The radius-``radius`` view of ``v``; meters the access."""
        self.charge(v, radius)
        dist, grown = self._grow_to(v, radius)
        if grown > radius:
            # The cached ball is bigger than the request: filter it down.
            trimmed = {u: d for u, d in dist.items() if d <= radius}
        else:
            # Everything cached is within the request; a plain copy keeps
            # the View isolated from later growth of the shared BFS state.
            trimmed = dict(dist)
        return View(self.graph, v, radius, trimmed)
