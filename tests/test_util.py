"""Tests for logarithm helpers and per-node randomness."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import NodeRng, ceil_log2, floor_log2, fork_rng, log_star


class TestLogMath:
    def test_floor_log2_exact_powers(self):
        for k in range(20):
            assert floor_log2(2**k) == k
            assert ceil_log2(2**k) == k

    def test_floor_and_ceil_straddle(self):
        for x in range(3, 1000):
            assert 2 ** floor_log2(x) <= x < 2 ** (floor_log2(x) + 1)
            assert 2 ** ceil_log2(x) >= x

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            floor_log2(0)
        with pytest.raises(ValueError):
            ceil_log2(-3)

    def test_log_star_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(2.0**65536 if False else 10**9) == 5

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=50)
    def test_log_star_monotone_vs_loglog(self, x):
        assert log_star(x) <= math.log2(math.log2(x) + 1) + 3


class TestRng:
    def test_fork_reproducible(self):
        a = fork_rng(42, 7).random()
        b = fork_rng(42, 7).random()
        assert a == b

    def test_fork_independent_across_nodes(self):
        values = {fork_rng(42, node).random() for node in range(100)}
        assert len(values) == 100

    def test_fork_independent_across_seeds(self):
        assert fork_rng(1, 0).random() != fork_rng(2, 0).random()

    def test_node_rng_caches_stream(self):
        rng = NodeRng(9)
        first = rng.for_node(3)
        again = rng.for_node(3)
        assert first is again

    def test_node_rng_global_stream(self):
        rng = NodeRng(9)
        assert rng.global_stream() is rng.for_node(-1)
