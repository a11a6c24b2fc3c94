"""Tests for the instance generators (regular graphs, girth surgery)."""

from __future__ import annotations

import random

import pytest

from repro.generators import (
    configuration_model,
    cubic_instance,
    lift_girth,
    padded_hard_instance,
    random_regular,
)
from repro.local import GraphBuilder, PortGraph, girth
from repro.obs import get_telemetry


def _reference_random_regular(n, d, rng, max_tries=200):
    """Sample ``configuration_model`` until it is simple; also return
    how many samples that took."""
    for samples in range(1, max_tries + 1):
        graph = configuration_model(n, d, rng)
        if graph.is_simple():
            return graph, samples
    raise AssertionError("no simple sample within max_tries")


def _reference_short_cycle_edge(graph, below):
    """(eid, length) of the first short-cycle edge of a BFS from each
    source in turn, reading the graph's own port order."""
    off, nbr, _, eids = graph.csr()
    for source in graph.nodes():
        dist = {source: 0}
        parent = {source: -1}
        queue = [source]
        for v in queue:
            d = dist[v]
            if d * 2 >= below:
                continue
            for slot in range(off[v], off[v + 1]):
                u = nbr[slot]
                eid = eids[slot]
                if u == v:
                    return eid, 1
                if u not in dist:
                    dist[u] = d + 1
                    parent[u] = eid
                    queue.append(u)
                elif parent[v] != eid:
                    length = dist[u] + d + 1
                    if length < below:
                        return eid, length
    return None


def _reference_lift_girth(graph, min_girth, rng, max_swaps=None):
    """Girth surgery that rebuilds the graph after every swap and
    rescans it from node 0."""
    if max_swaps is None:
        max_swaps = 50 * graph.num_edges + 1000
    pairs = [(e.a.node, e.b.node) for e in graph.edges()]
    n = graph.num_nodes
    current = graph
    for _ in range(max_swaps):
        found = _reference_short_cycle_edge(current, min_girth)
        if found is None:
            return current
        bad_eid, _length = found
        other_eid = rng.randrange(len(pairs))
        if other_eid == bad_eid:
            continue
        a, b = pairs[bad_eid]
        c, d = pairs[other_eid]
        if rng.random() < 0.5:
            new_pairs = [(a, c), (b, d)]
        else:
            new_pairs = [(a, d), (b, c)]
        pairs[bad_eid] = new_pairs[0]
        pairs[other_eid] = new_pairs[1]
        current = PortGraph.from_edge_list(n, pairs)
    g = girth(current)
    raise RuntimeError(
        f"girth surgery did not reach girth {min_girth} (currently {g}); "
        "the target is likely infeasible at this size"
    )


def _surgery_outcome(lift, graph, min_girth, seed, max_swaps):
    rng = random.Random(seed)
    try:
        lifted = lift(graph, min_girth, rng, max_swaps)
    except RuntimeError as err:
        return "raised", str(err), rng.getstate()
    tables = [t.tolist() for t in lifted.csr()]
    return "lifted", tables, list(lifted.edges()), rng.getstate()


def _same_surgery(graph, min_girth, seed, max_swaps=None):
    """Run both surgeries from the same seed, require identical outcomes,
    and return how the reference ended (``"lifted"`` or ``"raised"``)."""
    args = (graph, min_girth, seed, max_swaps)
    expected = _surgery_outcome(_reference_lift_girth, *args)
    assert _surgery_outcome(lift_girth, *args) == expected
    return expected[0]


def _ports_out_of_edge_order(graph, seed):
    """The same edges, each node's ports permuted, through GraphBuilder."""
    rng = random.Random(seed)
    perm = [rng.sample(range(graph.degree(v)), graph.degree(v)) for v in graph.nodes()]
    builder = GraphBuilder(graph.num_nodes)
    for edge in graph.edges():
        builder.add_edge(
            edge.a.node,
            edge.b.node,
            perm[edge.a.node][edge.a.port],
            perm[edge.b.node][edge.b.port],
        )
    return builder.build()


class TestRegularGraphs:
    @pytest.mark.parametrize("n,d", [(10, 3), (20, 4), (16, 3)])
    def test_random_regular_degrees(self, n, d):
        graph = random_regular(n, d, random.Random(0))
        assert all(graph.degree(v) == d for v in graph.nodes())
        assert graph.is_simple()

    @pytest.mark.parametrize("sample", [configuration_model, random_regular])
    def test_odd_product_rejected(self, sample):
        with pytest.raises(ValueError):
            sample(5, 3, random.Random(0))

    @pytest.mark.parametrize(
        "n,d,seed",
        [(10, 3, 0), (16, 3, 1), (20, 4, 2), (64, 3, 3), (1024, 3, 0), (1024, 4, 1)],
    )
    def test_random_regular_matches_reference_sampling(self, n, d, seed):
        twin = random.Random(seed)
        expected, _samples = _reference_random_regular(n, d, twin)
        rng = random.Random(seed)
        graph = random_regular(n, d, rng)
        assert [t.tolist() for t in graph.csr()] == [
            t.tolist() for t in expected.csr()
        ]
        assert rng.getstate() == twin.getstate()

    def test_configuration_attempts_counted_per_sample(self):
        _graph, samples = _reference_random_regular(64, 3, random.Random(3))
        assert samples > 1
        before = get_telemetry().snapshot()["counters"].get("generators.configuration_attempts", 0)
        random_regular(64, 3, random.Random(3))
        after = get_telemetry().snapshot()["counters"].get("generators.configuration_attempts", 0)
        assert after - before == samples

    def test_configuration_model_allows_multigraph(self):
        graph = configuration_model(4, 3, random.Random(2))
        assert all(graph.degree(v) == 3 for v in graph.nodes())

    def test_lift_girth_removes_short_cycles(self):
        rng = random.Random(4)
        graph = random_regular(64, 3, rng)
        lifted = lift_girth(graph, 6, rng)
        assert girth(lifted) >= 6
        assert all(lifted.degree(v) == 3 for v in lifted.nodes())

    def test_lift_girth_noop_when_already_high(self):
        from repro.generators import cycle

        graph = cycle(12)
        lifted = lift_girth(graph, 5, random.Random(0))
        assert girth(lifted) == 12


class TestLiftGirthDifferential:
    """In-place surgery against the rebuild-per-swap reference: same
    tables, edges, RNG state, and budget error."""

    @pytest.mark.parametrize("min_girth", [4, 5, 6, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [16, 24, 40, 64, 256, 1024])
    def test_random_regular_inputs(self, n, seed, min_girth):
        graph = random_regular(n, 3, random.Random(seed))
        # Small graphs miss the higher targets; a short budget keeps the
        # reference's rebuild per swap cheap.
        _same_surgery(graph, min_girth, seed, 300 if n <= 40 else None)

    @pytest.mark.parametrize(
        "n,d,seed", [(16, 3, 0), (16, 4, 1), (40, 3, 2), (64, 4, 3)]
    )
    def test_configuration_model_inputs(self, n, d, seed):
        graph = configuration_model(n, d, random.Random(seed))
        assert not graph.is_simple()
        for min_girth in (3, 5):
            _same_surgery(graph, min_girth, seed, 400)

    @pytest.mark.parametrize(
        "sample,n,seed,min_girth",
        [
            (configuration_model, 24, 0, 5),
            (configuration_model, 24, 1, 5),
            (configuration_model, 24, 2, 5),
            # the first swap's rescan from node 0 changes the result here
            (random_regular, 16, 2, 5),
            (random_regular, 48, 11, 5),
            (random_regular, 64, 3, 6),
        ],
    )
    def test_ports_out_of_edge_id_order(self, sample, n, seed, min_girth):
        graph = _ports_out_of_edge_order(sample(n, 3, random.Random(seed)), seed)
        rows = [graph.incident_edge_ids(v) for v in graph.nodes()]
        assert any(row != sorted(row) for row in rows)
        _same_surgery(graph, min_girth, seed, 300)

    @pytest.mark.parametrize("max_swaps", [0, 1, 5, 40])
    def test_budget_runs_out(self, max_swaps):
        graph = random_regular(16, 3, random.Random(5))
        assert _same_surgery(graph, 7, 5, max_swaps) == "raised"

    def test_one_graph_built_per_call(self, monkeypatch):
        built = []
        from_edge_list = PortGraph.from_edge_list.__func__

        def counting(cls, num_nodes, pairs):
            built.append(num_nodes)
            return from_edge_list(cls, num_nodes, pairs)

        graph = random_regular(256, 3, random.Random(1))
        monkeypatch.setattr(PortGraph, "from_edge_list", classmethod(counting))
        rng = random.Random(1)
        lifted = lift_girth(graph, 6, rng)
        assert lifted is not graph
        assert girth(lifted) >= 6
        assert built == [256]

    def test_input_meeting_target_comes_back_unbuilt(self, monkeypatch):
        graph = random_regular(64, 3, random.Random(0))
        lifted = lift_girth(graph, 6, random.Random(0))
        built = []
        monkeypatch.setattr(
            PortGraph, "from_edge_list", classmethod(lambda *args: built.append(args))
        )
        assert lift_girth(lifted, 6, random.Random(9)) is lifted
        assert built == []


class TestInstanceFactories:
    def test_cubic_instance_shape(self):
        instance = cubic_instance(33, seed=1)  # odd n rounds up
        assert instance.graph.num_nodes == 34
        assert instance.graph.max_degree == 3
        assert instance.rng is not None

    def test_cubic_instance_seeded(self):
        a = cubic_instance(32, seed=5)
        b = cubic_instance(32, seed=5)
        assert [a.ids.of(v) for v in a.graph.nodes()] == [
            b.ids.of(v) for v in b.graph.nodes()
        ]

    def test_padded_hard_instance_level1_passthrough(self):
        from repro.core import build_family

        pi1 = build_family(1)[0]
        instance = padded_hard_instance(pi1, 64, 0)
        assert instance.graph.num_nodes == 64
        assert instance.inputs is None
