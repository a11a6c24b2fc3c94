"""Linial's color reduction via polynomial cover-free families.

The deterministic O(log* n) algorithms (3-coloring cycles, (Delta+1)
coloring of bounded-degree graphs) rest on one primitive: given a
proper k-coloring, compute a proper coloring with a much smaller
palette in a single communication round.

Linial's construction uses a *Delta-cover-free family*: sets
``S(0..k-1)`` over a ground set ``[q^2]`` such that no set is covered
by the union of any ``Delta`` others.  With ``S(c)`` the graph of a
degree-``d`` polynomial over GF(q) (q prime, q > Delta * d), two
distinct polynomials intersect in at most ``d`` points, so a node with
color ``c`` can always pick a point of ``S(c)`` hit by none of its
neighbors' sets.  One round reduces ``k`` colors to ``q^2 =
O((Delta log k)^2)`` colors; iterating reaches a palette of size
poly(Delta) in ``O(log* k)`` rounds.
"""

from __future__ import annotations

from repro.util.logmath import ceil_log2

__all__ = [
    "is_prime",
    "next_prime",
    "polynomial_family_params",
    "polynomial_set",
    "reduce_color",
    "reduction_schedule",
]


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(x: int) -> int:
    """The smallest prime >= x."""
    candidate = max(x, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _ceil_root(k: int, e: int) -> int:
    """The smallest integer ``r >= 1`` with ``r**e >= k``, exactly.

    Newton's iteration on integers, started above the root, descends to
    ``floor(k ** (1/e))`` without floating point, so it is exact for
    ``k`` of any size.
    """
    r = 1 << -(-k.bit_length() // e)
    while True:
        below = ((e - 1) * r + k // r ** (e - 1)) // e
        if below >= r:
            break
        r = below
    return r if r**e >= k else r + 1


def polynomial_family_params(k: int, delta: int) -> tuple[int, int]:
    """Choose ``(q, d)`` for a Delta-cover-free family of size >= k.

    Requirements: ``q`` prime, ``q**(d+1) >= k`` (one polynomial per
    color) and ``q > delta * d`` (cover-freeness).  The search minimizes
    the new palette size ``q**2``.

    Both requirements are lower bounds on ``q``, so for each ``d`` the
    search starts at the largest of ``delta * d + 1``, 2 and the exact
    ``(d+1)``-th root of ``k`` rounded up, and takes the first prime
    from there with one :func:`next_prime` call.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if delta < 1:
        raise ValueError("delta must be positive")
    best: tuple[int, int] | None = None
    # d up to log2 k suffices: q >= 2 gives q**(d+1) >= 2**(d+1).
    for d in range(1, ceil_log2(max(k, 2)) + 2):
        # smallest prime q satisfying both constraints
        q = next_prime(max(delta * d + 1, 2, _ceil_root(k, d + 1)))
        if best is None or q * q < best[0] ** 2:
            best = (q, d)
    assert best is not None
    return best


def polynomial_set(color: int, q: int, d: int) -> list[int]:
    """The set S(color): the graph of the color's polynomial over GF(q).

    The color index written base q gives the d+1 coefficients; the set
    contains ``x * q + p(x)`` for every ``x`` in GF(q).
    """
    coefficients = []
    value = color
    for _ in range(d + 1):
        coefficients.append(value % q)
        value //= q
    points = []
    for x in range(q):
        acc = 0
        power = 1
        for coefficient in coefficients:
            acc = (acc + coefficient * power) % q
            power = (power * x) % q
        points.append(x * q + acc)
    return points


def reduce_color(color: int, neighbor_colors: list[int], q: int, d: int) -> int:
    """One Linial step: a palette-[q^2] color distinct from all neighbors'.

    Correct whenever the input coloring is proper, the neighbor count is
    at most ``(q - 1) // d``, and all colors are below ``q**(d+1)``.
    """
    own = polynomial_set(color, q, d)
    blocked: set[int] = set()
    for other in neighbor_colors:
        if other == color:
            raise ValueError("reduce_color requires a proper input coloring")
        blocked.update(polynomial_set(other, q, d))
    for point in own:
        if point not in blocked:
            return point
    raise ValueError(
        f"cover-freeness violated: q={q}, d={d}, "
        f"{len(neighbor_colors)} neighbors"
    )


def reduction_schedule(k: int, delta: int) -> list[tuple[int, int]]:
    """The (q, d) parameters of each round until the palette stabilizes.

    Returns the list of per-round parameters; the final palette size is
    ``schedule[-1][0] ** 2``.  Its length is O(log* k), which the tests
    check against ``log_star``.
    """
    schedule: list[tuple[int, int]] = []
    palette = k
    for _ in range(64):
        q, d = polynomial_family_params(palette, delta)
        new_palette = q * q
        if new_palette >= palette:
            break
        schedule.append((q, d))
        palette = new_palette
    return schedule
