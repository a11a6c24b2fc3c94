"""Corruption families as registered *unsound* probe targets.

Each targeted corruption of :mod:`repro.gadgets.corruptions` becomes a
catalog family ``corrupt-<name>``: one valid (log, 3)-gadget of the
requested height with exactly that constraint class violated.  The
gadget prover V is declared *unsound* on all of them — these are the
negative triples of the landscape: the driver runs them only through
``check_sound=False``, and the verifier (which demands V accept) must
REJECT every one, certifying that the Section 4.2/4.3 checker actually
fires on each violation class, not just on valid members.

Registration makes the probes first-class: ``python -m repro.engine
list``/``describe`` expose them, and the conformance suite
(``tests/test_runtime_registry.py``) exercises the full unsound path
via :func:`repro.runtime.registry.unsound_triples`.
"""

from __future__ import annotations

from repro.gadgets.corruptions import CORRUPTIONS
from repro.runtime.registry import register_family

__all__ = ["PROBE_FAMILIES"]

# Interior-node corruptions need height >= 4 (a height-3 subgadget has
# no node with both children and a guaranteed horizontal Right edge).
_MIN_HEIGHT = 4


def _register_probe(name: str) -> str:
    family_name = f"corrupt-{name}"

    def topology(height: int):
        """The frozen core: one corrupted gadget (graph + inputs).

        Deterministic per height — the underlying gadget is the
        canonical valid member and every corruption targets a
        canonical node — so, like the valid ``gadget`` family, the
        seed only names the trial.
        """
        from repro.gadgets.corruptions import corrupt
        from repro.gadgets.family import LogGadgetFamily

        return corrupt(LogGadgetFamily(3).member_with_height(height), name)

    def dress(bad, height: int, seed: int):
        del height, seed  # deterministic per height, see topology()
        from repro.local.algorithm import Instance
        from repro.local.identifiers import sequential_ids

        return Instance(
            bad.graph, sequential_ids(bad.graph.num_nodes), bad.inputs
        )

    def build(height: int, seed: int):
        # One recipe for both paths: the per-trial builder composes
        # the same closures the batched topology/dress split uses.
        return dress(topology(height), height, seed)

    register_family(
        family_name,
        description=(
            f"height-h gadget with the '{name}' corruption applied "
            "(verifier must reject)"
        ),
        size_kind="height",
        test_sizes=(_MIN_HEIGHT,),
        grid=lambda max_n: tuple(
            h for h in range(_MIN_HEIGHT, 11) if 2 ** (h + 1) <= max_n
        ),
        topology=topology,
        dress=dress,
    )(build)
    return family_name


PROBE_FAMILIES: tuple[str, ...] = tuple(
    _register_probe(name) for name in CORRUPTIONS
)
