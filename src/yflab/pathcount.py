"""Counting saturated descending paths between lattice words.

Two independent routes are provided.  The first is a frontier DP walking the
graph down from y one rank at a time; d_paths_dp and descent_counts share it.
The second is the closed formula

    d(x, y) = sum over i = 0..rank(x) of
              f(x, i, h(x, y)) * product over j of (g(y, j) - i)

with h(x, y) the length of the longest common suffix.  The formula runs in
plain ints: f(x, i, h) vanishes unless x has a suffix of rank i, and
harmonic._f_splits gives rank(x)! * f(x, i, h) at each of those splits from
the product form C(rank(x), i) prod |g(x, j) - i| of its base value and the
integer unwind of the recursion.  The sum is divided by rank(x)! once, with
the division asserted exact.  The DP shares no code with it and stays the
independent route.  The two must agree everywhere; tests enforce this.
All counts are exact arbitrary-precision integers (n! overflows 64 bits at
n = 21).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Iterator

from .harmonic import _f_splits, g_all
from .words import YFWord, common_suffix_len, down_neighbors


def _frontiers(y: YFWord) -> Iterator[dict[YFWord, int]]:
    """The maps {z: d(z, y)} over rank(y), rank(y) - 1, ..., 0, computed lazily."""
    frontier = {YFWord(y): 1}
    yield frontier
    for _ in range(sum(y)):
        nxt: dict[YFWord, int] = {}
        for w, c in frontier.items():
            for z in down_neighbors(w):
                nxt[z] = nxt.get(z, 0) + c
        frontier = nxt
        yield frontier


def d_paths_dp(x: YFWord, y: YFWord) -> int:
    """Number of saturated descending paths from y to x, by frontier DP."""
    steps = sum(y) - sum(x)
    if steps < 0:
        return 0
    # islice stops the DP at rank(x); the frontiers further down are never built
    return next(islice(_frontiers(y), steps, None)).get(YFWord(x), 0)


def descent_counts(y: YFWord) -> dict[YFWord, int]:
    """d(x, y) for every x below y, as one map; a single DP sweep from y."""
    out: dict[YFWord, int] = {}
    for frontier in _frontiers(y):
        out.update(frontier)
    return out


def d_paths_formula(x: YFWord, y: YFWord) -> int:
    """The closed-form path count; equals d_paths_dp(x, y)."""
    if sum(y) < sum(x):
        raise ValueError("formula requires rank(y) >= rank(x)")
    gs = g_all(y)
    total = 0
    for i, term in _f_splits(x, common_suffix_len(x, y)):
        for G in gs:
            term *= G - i
        total += term
    fac = factorial(sum(x))
    count, remainder = divmod(total, fac)
    assert remainder == 0, f"path count d({x}, {y}) is not an integer"
    return count


def d_from_empty(y: YFWord) -> int:
    """d(empty, y) = product of the g-values of y; empty product 1."""
    prod = 1
    for G in g_all(y):
        prod *= G
    return prod


def plancherel(n: int, v: YFWord) -> Fraction:
    """Plancherel weight d(empty, v)^2 / n! of a rank-n word."""
    if sum(v) != n:
        raise ValueError(f"word has rank {sum(v)}, expected {n}")
    return Fraction(d_from_empty(v) ** 2, factorial(n))
