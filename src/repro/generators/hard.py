"""Instance factories for the complexity sweeps.

The hard inputs of the paper's base problem are locally tree-like
min-degree-3 graphs; random cubic graphs provide them at every size.
``padded_hard_instance`` follows the Lemma 5 recipe to produce the
hard inputs of the padded levels.
"""

from __future__ import annotations

import random

from repro.core.family import FamilyLevel
from repro.core.hard_instances import _lifted_ids, hard_instance, paper_f
from repro.generators.regular import random_regular
from repro.local.algorithm import Instance
from repro.local.identifiers import random_ids
from repro.runtime.registry import register_family
from repro.util.rng import NodeRng

__all__ = ["cubic_instance", "padded_hard_instance"]


# The seed picks the regular graph itself: no topology sharing.
@register_family(
    "cubic",
    description="random 3-regular graphs (locally tree-like hard inputs)",
    max_degree=3,
    min_degree=3,
    test_sizes=(16, 30),
)
def cubic_instance(n: int, seed: int) -> Instance:
    """A random 3-regular instance with random identifiers."""
    n = n if n % 2 == 0 else n + 1
    rng = random.Random(0xABCDEF ^ (n * 1_000_003) ^ seed)
    graph = random_regular(n, 3, rng)
    ids = random_ids(n, rng)
    return Instance(graph, ids, None, None, NodeRng(seed))


def padded_hard_instance(
    level: FamilyLevel, target_n: int, seed: int
) -> Instance:
    """A Lemma 5 hard instance for Pi_i, padded i-1 times.

    The innermost base graph is a random cubic graph on
    ``f^(i-1)(target_n)`` nodes with f(x) = floor(sqrt(x)).
    """
    sizes = [target_n]
    for _ in range(level.index - 1):
        sizes.append(max(paper_f(sizes[-1]), 6))
    instance = cubic_instance(sizes[-1], seed)
    if level.index == 1:
        return instance
    from repro.core.family import build_family

    chain = build_family(level.index)
    for depth, target in enumerate(reversed(sizes[:-1]), start=1):
        layer = chain[depth]
        family = layer.family
        assert family is not None
        hard = hard_instance(instance.graph, family, target, instance.inputs)
        instance = Instance(
            graph=hard.graph,
            ids=_lifted_ids(instance.ids, hard),
            inputs=hard.inputs,
            n_hint=target,
            rng=NodeRng(seed),
        )
    return instance
