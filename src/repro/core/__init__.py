"""The paper's contribution: padded LCLs (Sections 3 and 5)."""

from repro.core.derandomization import (
    classify_gap,
    ghk_deterministic_upper,
    implied_nd_lower_bound,
    panconesi_srinivasan_nd,
)
from repro.core.family import FamilyLevel, build_family
from repro.core.hard_instances import (
    HardInstance,
    hard_instance,
    paper_f,
    simulate_padded_algorithm,
)
from repro.core.padded_problem import (
    ERRMARK,
    PaddedOutput,
    PaddedProblem,
    PadList,
    verify_padded,
)
from repro.core.padded_solver import PaddedSolver
from repro.core.padding import GADEDGE, PORTEDGE, PaddedGraph, PaddedInput, pad_graph
from repro.core.projection import GadgetProjection, edge_tag, gadget_part, pi_part
from repro.core.theory import (
    deterministic_prediction,
    gap_ratio_prediction,
    randomized_prediction,
    theorem1_lower,
    theorem1_upper,
)
from repro.core.virtual_graph import (
    PORT_ERR1,
    PORT_ERR2,
    PORT_OK,
    Decomposition,
    GadgetAnalysis,
    VirtualGraph,
    decompose,
    gadget_analysis,
)

__all__ = [
    "classify_gap",
    "ghk_deterministic_upper",
    "implied_nd_lower_bound",
    "panconesi_srinivasan_nd",
    "FamilyLevel",
    "build_family",
    "HardInstance",
    "hard_instance",
    "paper_f",
    "simulate_padded_algorithm",
    "ERRMARK",
    "PaddedOutput",
    "PaddedProblem",
    "PadList",
    "verify_padded",
    "PaddedSolver",
    "GADEDGE",
    "PORTEDGE",
    "PaddedGraph",
    "PaddedInput",
    "pad_graph",
    "GadgetProjection",
    "edge_tag",
    "gadget_part",
    "pi_part",
    "deterministic_prediction",
    "gap_ratio_prediction",
    "randomized_prediction",
    "theorem1_lower",
    "theorem1_upper",
    "PORT_ERR1",
    "PORT_ERR2",
    "PORT_OK",
    "Decomposition",
    "GadgetAnalysis",
    "VirtualGraph",
    "decompose",
    "gadget_analysis",
]
