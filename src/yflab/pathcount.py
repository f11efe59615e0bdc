"""Counting saturated descending paths between lattice words.

Two independent routes are provided.  The first is a frontier DP walking the
graph down from y one rank at a time; d_paths_dp and descent_counts share it.
The second is the closed formula

    d(x, y) = sum over i = 0..rank(x) of
              f(x, i, h(x, y)) * product over j of (g(y, j) - i)

with h(x, y) the length of the longest common suffix.  The formula runs in
plain ints: row h of harmonic._f_rows(x, length(x)) holds rank(x)! *
f(x, i, h) for i = 0..rank(x), built from the product form
C(rank(x), i) prod |g(x, j) - i| of its base values and one integer walk of
the recursion per suffix split, which serves every h at once; it vanishes
unless x has a suffix of rank i.  The sum is divided by rank(x)! once, with
the division asserted exact.

x enters the formula only through those rows, so _x_memo keeps, per word x,
(rank(x), rank(x)!, its rows, its suffix key); y enters only through rank(y)
and the vector P_y[i] = prod_j (g(y, j) - i) of harmonic._g_products, so
_y_memo keeps (rank(y), P_y, its suffix key) per word y.  The suffix keys
(words._suffix_key) give h(x, y): the lowest set bit of their XOR d, d & -d,
is bit 2h or 2h + 1, or d == 0 when x == y and h = length(x).  x's rows
are held by that bit, so the row at h is one dict read with no index to
compute.  A pair is then two memo reads, one XOR, one row read, the dot
product with P_y and the exact division; the rank check and the exactness
assert run on every call.  The memos are plain dicts read inline, as
memo.get(x) or a build, because an lru_cache hit also packs an argument
tuple and relinks the LRU list.  They serve single
pairs, not a batch form: every caller (dcount, the all-pairs acceptance
check, the oracles benchmark) asks for one pair at a time, so a batch form
would serve none of them, while across an all-pairs loop the same x and the
same y recur (12,672 calls for 143 words x and 143 words y to rank 9).  The
x memo is bounded at 512 words and the y memo at 4,096; a build that takes
one past its bound drops its oldest entry (insertion order).  Like an LRU,
this misses on every call of an all-pairs loop that cycles through more
words than the memo holds: the loops to rank 9 (143 words) and rank 11 (376,
the acceptance check) fit.  An x entry holds up to (length + 1) (rank + 1)
ints and a dict of 2 length + 3 keys; measured with tracemalloc on CPython
3.11, the entries of the 609 words of rank <= 12 take 2.2 MiB together, and
1^40's, the largest measured, takes 52.2 KiB, so 512 entries of rank 40 stay
under 27 MiB.

The DP reads each word's covers from one memo, _covers, which holds
down_neighbors(w) as a tuple and is bounded at 4,096 words: an all-pairs
loop expands the same words again and again (2,211 expansions of 142 words
to rank 9).  One DP expands each word it visits once, so a DP that visits
more words than the memo holds would pay a miss and an eviction per word and
get no hit back (a DP from a rank-37 y visits 60,451 words).  Each DP
therefore consults _covers only while the words it has expanded fit in it,
and calls down_neighbors directly past that.
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

from .harmonic import _f_rows, _g_products, g_all
from .words import YFWord, _suffix_key, down_neighbors


_COVERS_WORDS = 4096


@lru_cache(maxsize=_COVERS_WORDS)
def _covers(w: YFWord) -> tuple[YFWord, ...]:
    """The words covered by w, built once per word; the DP's only memo."""
    return tuple(down_neighbors(w))


def _frontiers(y: YFWord) -> Iterator[dict[YFWord, int]]:
    """The maps {z: d(z, y)} over rank(y), rank(y) - 1, ..., 0, computed lazily."""
    frontier = {YFWord(y): 1}
    yield frontier
    expanded = 0
    for _ in range(sum(y)):
        expanded += len(frontier)
        # once this DP has expanded more words than _covers holds, it would only evict
        covers = _covers if expanded <= _COVERS_WORDS else down_neighbors
        nxt: dict[YFWord, int] = {}
        for w, c in frontier.items():
            for z in covers(w):
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


_X_WORDS = 512
_Y_WORDS = 4096
_x_memo: dict[YFWord, tuple[int, int, dict[int, list[int]], int]] = {}
_y_memo: dict[YFWord, tuple[int, tuple[int, ...], int]] = {}


def _x_entry(x: YFWord) -> tuple[int, int, dict[int, list[int]], int]:
    """Build and memoize (rank(x), rank(x)!, x's rows by suffix bit, _suffix_key(x)): row z
    under 1 << 2z and 2 << 2z, row length(x) also under 0; the rows are only read, never changed."""
    rank, rows = sum(x), _f_rows(x, len(x))
    by_bit = {0: rows[-1]}
    for z, row in enumerate(rows):
        by_bit[1 << 2 * z] = by_bit[2 << 2 * z] = row
    entry = _x_memo[x] = rank, factorial(rank), by_bit, _suffix_key(x)
    if len(_x_memo) > _X_WORDS:
        del _x_memo[next(iter(_x_memo))]
    return entry


def _y_entry(y: YFWord) -> tuple[int, tuple[int, ...], int]:
    """Build and memoize (rank(y), _g_products(y, rank(y)), _suffix_key(y))."""
    rank = sum(y)
    entry = _y_memo[y] = rank, _g_products(y, rank), _suffix_key(y)
    if len(_y_memo) > _Y_WORDS:
        del _y_memo[next(iter(_y_memo))]
    return entry


def d_paths_formula(x: YFWord, y: YFWord) -> int:
    """The closed-form path count; equals d_paths_dp(x, y)."""
    rank_x, fac, rows, key_x = _x_memo.get(x) or _x_entry(x)
    rank_y, products, key_y = _y_memo.get(y) or _y_entry(y)
    if rank_y < rank_x:
        raise ValueError("formula requires rank(y) >= rank(x)")
    d = key_x ^ key_y  # its lowest set bit is in the digit pair at h = common_suffix_len(x, y)
    count, remainder = divmod(sum(map(mul, rows[d & -d], products)), fac)
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
