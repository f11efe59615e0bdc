"""Counting saturated descending paths between lattice words.

Two independent routes are provided.  The first is a frontier DP walking the
graph down from y one rank at a time; d_paths_dp and descent_counts share it.
The second is the closed formula

    d(x, y) = sum over i = 0..rank(x) of
              f(x, i, h(x, y)) * product over j of (g(y, j) - i)

with h(x, y) the length of the longest common suffix.  The formula runs in
plain ints: harmonic._f_row(x, h) is the row of rank(x)! * f(x, i, h) for
i = 0..rank(x), built from the product form C(rank(x), i) prod |g(x, j) - i|
of its base values and the integer unwind of the recursion; it vanishes
unless x has a suffix of rank i.  The sum is divided by rank(x)! once, with
the division asserted exact.

x enters the formula only through that row, so _formula_rows keeps the rows
in one memo keyed by (x, h) and bounded at 4,096 entries.  y enters only
through the vector P_y[i] = prod_j (g(y, j) - i), which harmonic._g_products
builds once per (y, rank(y)) in its own memo, also bounded by count.  A pair
is then the dot product of x's row with P_y, and the exact division.  The
memos serve single pairs, not a batch form: every caller (dcount, the
all-pairs acceptance check, the oracles benchmark) asks for one pair at a
time, so a batch form would serve none of them, while across an all-pairs
loop the same (x, h) and the same y recur (12,672 calls for 898 keys (x, h)
and 143 words y to rank 9).

The DP reads each word's covers from one memo, _covers, which holds
down_neighbors(w) as a tuple and is bounded at 4,096 entries like the
formula's memos: an all-pairs loop expands the same words again and again
(2,211 expansions of 142 words to rank 9), while one DP from a rank-37 y
visits 60,451 words, so an unbounded memo would grow with the largest y seen.
The DP still shares no code with the formula and stays the independent route.
The two must agree everywhere; tests enforce this.
All counts are exact arbitrary-precision integers (n! overflows 64 bits at
n = 21).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial
from operator import mul
from typing import Iterator

from .harmonic import _f_row, _g_products, g_all
from .words import YFWord, common_suffix_len, down_neighbors


@lru_cache(maxsize=4096)
def _covers(w: YFWord) -> tuple[YFWord, ...]:
    """The words covered by w, built once per word; the DP's only memo."""
    return tuple(down_neighbors(w))


def _frontiers(y: YFWord) -> Iterator[dict[YFWord, int]]:
    """The maps {z: d(z, y)} over rank(y), rank(y) - 1, ..., 0, computed lazily."""
    frontier = {YFWord(y): 1}
    yield frontier
    for _ in range(sum(y)):
        nxt: dict[YFWord, int] = {}
        for w, c in frontier.items():
            for z in _covers(w):
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


# the rows are only read, never changed, so the memo may hand out the same list
_formula_rows = lru_cache(maxsize=4096)(_f_row)


def d_paths_formula(x: YFWord, y: YFWord) -> int:
    """The closed-form path count; equals d_paths_dp(x, y)."""
    rank_x, rank_y = sum(x), sum(y)
    if rank_y < rank_x:
        raise ValueError("formula requires rank(y) >= rank(x)")
    row = _formula_rows(x, common_suffix_len(x, y))
    total = sum(map(mul, row, _g_products(y, rank_y)))
    count, remainder = divmod(total, factorial(rank_x))
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
