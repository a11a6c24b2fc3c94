"""The paper's claims as typed placements over one growth vocabulary.

Every registered placement names a class of ``GROWTH_FUNCTIONS``,
prints the text the catalog has always printed, and Theorem 11's levels
come from one table that the predictions evaluate bit for bit like the
closed forms they replace.
"""

from __future__ import annotations

import ast
import math
import pathlib

import pytest

from repro.core.theory import (
    PI_PLACEMENTS,
    deterministic_prediction,
    gap_ratio_prediction,
    randomized_prediction,
)
from repro.runtime import registry
from repro.util import logmath
from repro.util.logmath import GROWTH_FUNCTIONS, Placement

#: Each problem's (det, rand) text as ``list`` and ``describe`` print it.
CATALOG_TEXT = {
    "3-coloring-cycles": ("Theta(log* n)", "Theta(log* n)"),
    "4-coloring": ("Theta(log* n)", "Theta(log* n)"),
    "constant": ("O(1)", "O(1)"),
    "degree-parity": ("O(1)", "O(1)"),
    "gadget-proof": ("O(log n)", "O(log n)"),
    "maximal-matching": ("Theta(log* n)", "Theta(log* n)"),
    "mis": ("Theta(log* n)", "Theta(log* n)"),
    "padded-sinkless": ("Theta(log^2 n)", "Theta(log n loglog n)"),
    "sinkless-orientation": ("Theta(log n)", "Theta(loglog n)"),
}

#: n from 2^4 to 2^64: the powers of two and their odd neighbours.
NS = sorted({2**k + d for k in range(4, 65) for d in (-1, 0, 1)})


def _closed_log(n):
    return math.log2(max(n, 2.0))


def _closed_loglog(n):
    return math.log2(max(_closed_log(n), 2.0))


def test_every_registered_placement_names_a_growth_class():
    for name, info in registry.problems().items():
        for placement in (info.paper_det, info.paper_rand):
            assert isinstance(placement, Placement), name
            assert placement.growth in GROWTH_FUNCTIONS, name


def test_catalog_text_is_pinned():
    assert {
        name: (str(info.paper_det), str(info.paper_rand))
        for name, info in registry.problems().items()
    } == CATALOG_TEXT


def test_pi1_and_pi2_registrations_are_theorem_11():
    for level, name in ((1, "sinkless-orientation"), (2, "padded-sinkless")):
        info = registry.problem(name)
        assert (info.paper_det, info.paper_rand) == PI_PLACEMENTS[level]


def test_predictions_equal_the_closed_forms_bit_for_bit():
    for n in NS:
        for level in (1, 2, 3):
            assert deterministic_prediction(level, n) == _closed_log(n) ** level
            assert randomized_prediction(level, n) == (
                _closed_log(n) ** (level - 1) * _closed_loglog(n)
            )
        assert gap_ratio_prediction(n) == _closed_log(n) / _closed_loglog(n)


@pytest.mark.parametrize("level", [0, 4])
def test_unstated_levels_raise(level):
    with pytest.raises(ValueError, match="1-based"):
        deterministic_prediction(level, 100)
    with pytest.raises(ValueError, match="1-based"):
        randomized_prediction(level, 100)


def test_placement_rejects_unknown_bound_and_growth():
    with pytest.raises(ValueError, match="bound"):
        Placement("Omega", "log")
    with pytest.raises(ValueError, match="growth"):
        Placement("Theta", "log n")
    assert str(Placement("O", "n")) == "O(n)"
    assert str(Placement("Theta", "log^2 loglog")) == "Theta(log^2 n loglog n)"


def test_vocabulary_module_is_a_leaf():
    """Registering modules import it, so it imports nothing of repro."""
    tree = ast.parse(pathlib.Path(logmath.__file__).read_text())
    modules = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(module.startswith("repro") for module in modules), modules
