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
from repro.local import girth
from repro.obs import get_telemetry


def _reference_random_regular(n, d, rng, max_tries=200):
    """Sample ``configuration_model`` until it is simple; also return
    how many samples that took."""
    for samples in range(1, max_tries + 1):
        graph = configuration_model(n, d, rng)
        if graph.is_simple():
            return graph, samples
    raise AssertionError("no simple sample within max_tries")


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
        before = get_telemetry().counters().get("generators.configuration_attempts", 0)
        random_regular(64, 3, random.Random(3))
        after = get_telemetry().counters().get("generators.configuration_attempts", 0)
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
