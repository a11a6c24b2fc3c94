"""Solving and verifying a trial leaves its instance as it found it.

``InstanceCache`` hands one built instance to every trial on its
(family, n, seed), across specs and solvers, and one frozen core to
every seed of a reusable-topology family.  Both rest on this contract,
checked here for every sound registered triple at its family's test
sizes and every ``corrupt-*`` probe, on every kernel backend this
process can run (``kernels.BACKENDS``): the graph's CSR tables and
degree table, the identifiers, and the inputs labeling's labels and
written-flags are the same after the solver and the verifier ran as
before.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import kernels as kernel_layer
from repro.runtime import registry
from repro.runtime.driver import dispatch_solver, verifier_for
from repro.util.rng import NodeRng

SEED = 1

CASES = [
    (problem, solver, family, n)
    for problem, solver, family in registry.sound_triples()
    for n in family.test_sizes
] + [
    (problem, solver, family, n)
    for problem, solver, family in registry.unsound_triples()
    if family.name.startswith("corrupt-")
    for n in family.test_sizes
]


def fingerprint(instance) -> tuple:
    """Everything of an instance a shared build hands to the next trial."""
    graph = instance.graph
    inputs = instance.inputs
    labels = None
    if inputs is not None:
        # Labels are hashable values; items() carries the written-flags.
        labels = (
            list(inputs.node_labels()),
            list(inputs.edge_labels()),
            list(inputs.slot_labels()),
            list(inputs.items()),
        )
    return (
        graph.num_nodes,
        graph.num_edges,
        tuple(view.tobytes() for view in (*graph.csr(), graph.edge_slots())),
        tuple(graph.degrees),
        instance.ids.as_list(),
        instance.n_hint,
        labels,
    )


@pytest.mark.parametrize(
    "problem,solver,family,n",
    CASES,
    ids=[f"{s.name}@{f.name}-{n}" for _p, s, f, n in CASES],
)
def test_solve_and_verify_leave_the_instance_unchanged(problem, solver, family, n):
    instance = family.builder(n, SEED)
    parts = (instance.graph, instance.ids, instance.inputs)
    before = fingerprint(instance)
    for backend in kernel_layer.BACKENDS:
        # Each run gets its own rng, as InstanceCache hands it out.
        trial = replace(
            instance, rng=None if instance.rng is None else NodeRng(SEED)
        )
        with kernel_layer.active(backend):
            result = dispatch_solver(solver.factory(), trial)
            try:
                verifier_for(problem)(trial, result)
            except AssertionError:
                pass  # probes are rejected; purity is what is checked
        assert (trial.graph, trial.ids, trial.inputs) == parts
        assert fingerprint(instance) == before, (
            f"{solver.name} on {backend} changed its {family.name} instance"
        )
