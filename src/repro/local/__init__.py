"""The LOCAL model substrate: port multigraphs, views, engines."""

from repro.local.algorithm import Instance, LocalAlgorithm, RunResult
from repro.local.builder import GraphBuilder
from repro.local.distances import (
    bfs_distances,
    connected_components,
    cycle_containment_radius,
    diameter,
    eccentricity,
    girth,
    induced_subgraph,
    multi_source_bfs,
)
from repro.local.graphs import Edge, HalfEdge, PortGraph
from repro.local.identifiers import (
    IdAssignment,
    random_ids,
    sequential_ids,
)
from repro.local.simulator import ConvergenceError, EngineResult, SyncEngine
from repro.local.views import View, ViewOracle

__all__ = [
    "Instance",
    "LocalAlgorithm",
    "RunResult",
    "GraphBuilder",
    "bfs_distances",
    "connected_components",
    "cycle_containment_radius",
    "diameter",
    "eccentricity",
    "girth",
    "induced_subgraph",
    "multi_source_bfs",
    "Edge",
    "HalfEdge",
    "PortGraph",
    "IdAssignment",
    "random_ids",
    "sequential_ids",
    "ConvergenceError",
    "EngineResult",
    "SyncEngine",
    "View",
    "ViewOracle",
]
