"""The gadget-membership proof as a runtime catalog entry.

Lemma 10's measurement — the distributed prover V certifying valid
gadgets within O(log n) radius — becomes a registered (problem,
solver, family) triple here, so the registry cross-product covers the
gadget layer alongside the classic LCLs.  The "problem" is acceptance
of the proof: on a valid member every node must output GadOk, checked
by a custom verifier reading the prover's ``all_ok`` flag.
"""

from __future__ import annotations

from repro.gadgets.corruptions import CORRUPTIONS as _CORRUPTION_NAMES
from repro.runtime.registry import register_family, register_problem, register_solver
from repro.util.logmath import Placement

__all__ = ["GadgetProverSolver", "gadget_instance", "verify_prover_ok"]


def verify_prover_ok(instance, result) -> None:
    """The registered check: V accepted the (valid) member."""
    assert result.extras["all_ok"], "prover flagged a valid gadget"


register_problem(
    "gadget-proof",
    description="certify membership in the (log, 3)-gadget family",
    paper_det=Placement("O", "log"),
    paper_rand=Placement("O", "log"),
    verifier=verify_prover_ok,
)(lambda: None)  # proof acceptance has no ne-LCL object; the verifier is custom


@register_solver(
    "gadget-prover",
    problem="gadget-proof",
    families=("gadget",),
    randomized=False,
    description="the distributed prover V of Definition 2",
    # Negative probes: on every registered corruption family the
    # verifier must reject (V proves the error instead of accepting).
    # Names only — repro.gadgets.probes registers the families.
    unsound_families=tuple(f"corrupt-{name}" for name in _CORRUPTION_NAMES),
)
class GadgetProverSolver:
    """Adapter: the distributed prover V as a ``LocalAlgorithm``."""

    name = "gadget-prover-V"
    randomized = False

    def solve(self, instance):
        from repro.gadgets.prover import run_prover
        from repro.local.algorithm import RunResult

        graph, inputs = instance.graph, instance.inputs
        if inputs.graph is graph:
            scope = inputs.derived(
                ("checked-gadget-scope", _DELTA), lambda: _checked_scope(graph, inputs)
            )
        else:
            scope = _checked_scope(graph, inputs)
        component = list(graph.nodes())
        result = run_prover(scope, component, _DELTA, instance.n_hint)
        return RunResult(
            outputs=result.outputs,
            node_radius=[result.node_radius[v] for v in component],
            extras={"all_ok": result.all_ok(), "is_valid": result.is_valid},
        )


#: The gadget family's degree: V runs on (log, 3)-gadgets.
_DELTA = 3


def _checked_scope(graph, inputs):
    """The instance's whole-graph scope with every node's structural
    verdict, and no navigation table kept: what every trial of V on the
    instance shares (a padded instance shares its
    :func:`repro.core.virtual_graph.gadget_analysis` the same way).  On
    the vector backend the scope also keeps the numpy pass's center
    distances, which V reads on every trial, and builds no navigation
    table at all when every node is sound."""
    from repro.gadgets.checker import node_verdict
    from repro.gadgets.scope import GadgetScope

    scope = GadgetScope(graph, inputs)
    for v in graph.nodes():
        node_verdict(scope, v, _DELTA)
    scope.drop_navigation()
    return scope


def _gadget_topology(height: int):
    """The frozen core: one built gadget (graph + membership inputs)."""
    from repro.gadgets.family import LogGadgetFamily

    return LogGadgetFamily(3).member_with_height(height)


def _gadget_dress(built, height: int, seed: int):
    del height, seed  # the gadget family is deterministic per height
    from repro.local.algorithm import Instance
    from repro.local.identifiers import sequential_ids

    return Instance(
        built.graph, sequential_ids(built.graph.num_nodes), built.inputs
    )


@register_family(
    "gadget",
    description="one valid (log, 3)-gadget of height h (size ~3 * 2^h)",
    max_degree=5,
    min_degree=1,
    size_kind="height",
    test_sizes=(3,),
    grid=lambda max_n: tuple(h for h in range(3, 11) if 2 ** (h + 1) <= max_n),
    topology=_gadget_topology,
    dress=_gadget_dress,
)
def gadget_instance(height: int, seed: int):
    """One valid gadget of the family, as a prover instance."""
    return _gadget_dress(_gadget_topology(height), height, seed)
