"""The (log, Delta)-gadget family of Section 4."""

from repro.gadgets.build import BuiltGadget, build_gadget, gadget_size, subgadget_size
from repro.gadgets.checker import (
    StructuralViolation,
    check_component,
)
from repro.gadgets.corruptions import CORRUPTIONS, Corruption, all_corruptions, corrupt
from repro.gadgets.family import GadgetFamily, LogGadgetFamily
from repro.gadgets.labels import (
    CENTER,
    Down,
    ERROR,
    GADOK,
    GadgetHalfInput,
    GadgetNodeInput,
    Index,
    LCHILD,
    LEFT,
    NOPORT,
    PARENT,
    Pointer,
    Port,
    RCHILD,
    RIGHT,
    TREE_LABELS,
    UP,
)
from repro.gadgets.prover import ProverResult, error_radius, run_prover
from repro.gadgets.psi import PsiViolation, verify_psi
from repro.gadgets.scope import GadgetScope

__all__ = [
    "BuiltGadget",
    "build_gadget",
    "gadget_size",
    "subgadget_size",
    "StructuralViolation",
    "check_component",
    "CORRUPTIONS",
    "Corruption",
    "all_corruptions",
    "corrupt",
    "GadgetFamily",
    "LogGadgetFamily",
    "CENTER",
    "Down",
    "ERROR",
    "GADOK",
    "GadgetHalfInput",
    "GadgetNodeInput",
    "Index",
    "LCHILD",
    "LEFT",
    "NOPORT",
    "PARENT",
    "Pointer",
    "Port",
    "RCHILD",
    "RIGHT",
    "TREE_LABELS",
    "UP",
    "ProverResult",
    "error_radius",
    "run_prover",
    "PsiViolation",
    "verify_psi",
    "GadgetScope",
]
