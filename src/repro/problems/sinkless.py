"""Sinkless orientation as an ne-LCL (paper Figure 3).

Each node labels every incident half-edge ``out`` or ``in``.  The node
constraint demands an ``out`` among the incident half-edges; the edge
constraint demands that the two sides of an edge carry complementary
labels, so the half-edge labels describe a consistent orientation.

Nodes of degree below ``exempt_below`` (default 3) are exempt from the
out-edge requirement: the problem is non-trivial only at minimum degree
3 (a cycle could otherwise not be oriented at all and an isolated node
never could), and the paper's hard instances as well as the Lemma 5
construction (which adds isolated nodes) rely on low-degree nodes being
unconstrained.
"""

from __future__ import annotations

from repro.lcl.labels import EMPTY, LabelSet
from repro.lcl.problem import EdgeConfiguration, NeLCL, NodeConfiguration
from repro.problems.orientation import IN, OUT

__all__ = ["SinklessOrientation"]

_HALF_OUTPUTS = LabelSet("orientation", {OUT, IN})
_SILENT = LabelSet("silent", {EMPTY})


class SinklessOrientation:
    """Factory for the sinkless-orientation ne-LCL.

    :mod:`repro.core.family` registers it as Pi_1, with Theorem 11's
    placement.
    """

    def __init__(self, exempt_below: int = 3):
        if exempt_below < 0:
            raise ValueError("exempt_below must be non-negative")
        self.exempt_below = exempt_below

    def problem(self) -> NeLCL:
        exempt_below = self.exempt_below

        def node_ok(cfg: NodeConfiguration) -> bool:
            if cfg.node_output is not EMPTY:
                return False
            if any(h not in (OUT, IN) for h in cfg.half_outputs):
                return False
            if cfg.degree < exempt_below:
                return True
            return OUT in cfg.half_outputs

        def edge_ok(cfg: EdgeConfiguration) -> bool:
            return set(cfg.half_outputs) == {OUT, IN}

        return NeLCL(
            name=f"sinkless-orientation(exempt<{exempt_below})",
            node_constraint=node_ok,
            edge_constraint=edge_ok,
            node_outputs=_SILENT,
            edge_outputs=_SILENT,
            half_outputs=_HALF_OUTPUTS,
            edge_symmetric=True,
            description=(
                "orient every edge so that every node of degree >= "
                f"{exempt_below} has an outgoing edge"
            ),
            metadata={"exempt_below": exempt_below},
        )
