"""Instance generators: classic families, regular graphs, padded graphs."""

from repro.generators.classic import (
    complete,
    complete_binary_tree,
    cycle,
    cycle_instance,
    disjoint_union,
    path,
    path_instance,
    star,
    torus_grid,
    torus_instance,
    tree_instance,
)
from repro.generators.hard import (
    cubic_instance,
    padded_hard_instance,
)
from repro.generators.regular import (
    configuration_model,
    high_girth_cubic_instance,
    lift_girth,
    random_regular,
)

__all__ = [
    "cubic_instance",
    "padded_hard_instance",
    "complete",
    "complete_binary_tree",
    "cycle",
    "cycle_instance",
    "disjoint_union",
    "path",
    "path_instance",
    "star",
    "torus_grid",
    "torus_instance",
    "tree_instance",
    "configuration_model",
    "high_girth_cubic_instance",
    "lift_girth",
    "random_regular",
]
