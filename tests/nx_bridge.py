"""Conversions between :class:`PortGraph` and networkx multigraphs.

Test-only: networkx cross-checks the library's structural computations
(``tests/test_distances.py``).  The library itself never imports
networkx.
"""

from __future__ import annotations

import networkx as nx

from repro.local.graphs import PortGraph


def to_networkx(graph: PortGraph) -> nx.MultiGraph:
    """Convert to an ``nx.MultiGraph`` preserving edge ids and ports."""
    out = nx.MultiGraph()
    out.add_nodes_from(graph.nodes())
    for edge in graph.edges():
        out.add_edge(
            edge.a.node,
            edge.b.node,
            key=edge.eid,
            ports=(edge.a.port, edge.b.port),
        )
    return out


def from_networkx(nxgraph: nx.Graph) -> tuple[PortGraph, dict]:
    """Convert any networkx (multi)graph to a :class:`PortGraph`.

    Node labels are mapped to 0..n-1 in sorted order when sortable, else
    in insertion order.  Returns ``(graph, node_mapping)`` where
    ``node_mapping[original_label] = index``.
    """
    try:
        ordered = sorted(nxgraph.nodes())
    except TypeError:
        ordered = list(nxgraph.nodes())
    mapping = {label: i for i, label in enumerate(ordered)}
    pairs = []
    if nxgraph.is_multigraph():
        edge_iter = ((u, v) for u, v, _ in nxgraph.edges(keys=True))
    else:
        edge_iter = iter(nxgraph.edges())
    for u, v in edge_iter:
        pairs.append((mapping[u], mapping[v]))
    return PortGraph.from_edge_list(len(ordered), pairs), mapping
