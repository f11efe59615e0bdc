"""The scalar functions of the lattice: f, g, q, the beta polynomial, and pi.

All values are exact rationals (``fractions.Fraction``).  The central object
is the three-argument function f(x, y, z), defined for a word x, a rank
0 <= y <= rank(x) and a count 0 <= z <= length(x):

At z = 0, f(x, y, 0) is nonzero iff x splits as head + tail with
rank(tail) == y, and then equals

    1 / (product over the tail digits, left to right from the split, of the
         *negated* running digit sums)
    * 1 / (product over the head digits, right to left from the split, of
           the running digit sums),

with empty products equal to 1.  At z > 0 it is defined by recursion on the
last digit of x:

    f(x+1, 0, z) = f(x+1, 0, 0)
    f(x+1, y, z) = f(x+1, y, 0) + f(x, y-1, z-1)        for y > 0
    f(x+2, y, z) = f(x+11, y, z+1) / (1 - y)            for y != 1
    f(x+2, 1, z) = 0

where x+d denotes appending digit d.  The recursion terminates because the
2-rule hands off to a word ending in 11 whose 1-rules strictly shrink the
word.  Each rule makes at most one call other than a z = 0 base value, so
the recursion is a chain, and f follows it in a loop rather than by Python
recursion, whatever the length of x.

The loop runs in integers scaled by rank(x)!.  Its start is the Goodman-Kerov
product form of the base value (J. Algebraic Combin. 11, 2000): for the split
at suffix rank y of a word x of rank R with g-values g_1, ..., g_k,

    R! f(x, y, 0) = (-1)^length(tail) * C(R, y) * prod_j |g_j - y|,

because the tail's prefix ranks are 1..y less the rank y - g of each 2 in
the tail, and the head's suffix ranks are 1..R-y less the rank g - y of each
2 in the head (``_base``).  ``_unwind``, the one chain walker, carries that
value down the chain: a 1-step multiplies it by y and a 2-step divides it by
y - 1, exactly, since R! / H is a multiple of y! and P divides y!; the
(1 - y) divisors are divided out at each reading, also exactly.  The steps of
the walk do not depend on z, which only decides where the walk for z stops,
and that is the first new maximum of (1-steps less 2-steps) equal to z, or
y = 0.  So one walk per split, read at each new maximum, gives the entry of
every z at once (``_unwind`` shows why).  ``_f_columns(x, top)`` walks each
suffix split of x once, with no factorial and no per-entry split search, and
is the one source of the rows [R! f(x, y, z) for y = 0..R]: ``_f_rows(x, top)``
transposes its columns into the rows z = 0..top (at top = 0 no walk runs),
and ``_f_row(x, z)`` reads entry z of each column.  They serve ``d_beta``
(z = 0), the kernel d'_beta (z = h, through ``_f_row``), the path-count formula
(every z, through a bounded memo per word in ``pathcount``), the walk and
the identity suite (every z, one build per word), but not the measure's
levels or the sweeps (``boundary``).  ``_scaled_f`` is the single-entry path,
the walk's entry at its own z.
``_g_products(u, top)`` is the one builder of the vector
prod_j (g(u, j) - i), i = 0..top: pathcount's y memo reads it once per y, and
the kernel d'_beta and the measure's weights read it for the core of w.  It is
memoized per (u, top), bounded at 4,096 entries.  Only the public ``f``,
memoized per triple in a memo perfbench reads, and ``d_beta``, one per
coefficient, make Fractions from f; ``pi`` and ``pi_k`` make one each from
the int products of ``_g_ratio_parts``.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import mul
from typing import Optional, Sequence, Union

from .words import YFWord, _Frozen, split_by_rank, suffix_ranks


def _digits_of(x) -> tuple[int, ...]:
    # accepts a finite word or anything carrying a finite `core` of digits
    # (an infinite tail of 1s contributes no 2s, so g/pi see only the core)
    return tuple(getattr(x, "core", x))


def _base(rank: int, y: int, gs: Sequence[int]) -> int:
    """|rank! f(x, y, 0)| = rank! / (H P) = C(rank, y) prod |g - y| for the split of
    x at suffix rank y, with gs = g_all(x) (module docstring)."""
    value = comb(rank, y)
    for G in gs:
        value *= G - y if G > y else y - G
    return value


def _unwind(x: Sequence[int], y: int, top: int, base: int) -> list[int]:
    """[rank(x)! f(x, y, z) for z = 0..top] from base = rank(x)! f(x, y, 0), for x
    with a suffix of rank y: one walk down the recursion chain serves every z.

    The chain rewrites only the right end of the tail, so the current word is
    head + x[s:j] + 1^t with rank(tail) == y throughout, and each step changes
    P, the product of the tail's prefix ranks, by one factor.  Which step comes
    next depends only on (j, t), never on z; z only decides where the walk
    stops.  With c the number of 1-steps less the number of 2-steps so far, the
    walk for z stops the first time c reaches z, or at y = 0.  As c moves by
    +-1, it first reaches z at a new maximum equal to z, so the entry for z is
    read at that maximum.  Every z past the last maximum gets the value at
    y = 0, which is the last reading: a 2-step needs y >= 2 and leaves two 1s
    that the next two steps take, so the walk ends on a 1-step to a new
    maximum.  The (1 - y) divisors of the 2-steps are collected in mden, by which
    acc is multiplied as they come, and divided out at each reading.  The
    quotient is exact: f(x, y, z) = f(tail, y, z) / H, y! f(tail, y, z) is an
    integer by induction on y (each 2-step's sum is a multiple of y - 1), and
    so is rank(x)! / (H y!).
    """
    j, t = len(x), 0
    acc, mden = 0, 1
    out, c = [base], 0
    while y and len(out) <= top:
        if t or x[j - 1] == 1:
            # f(u+1, y, z) = f(u+1, y, 0) + f(u, y-1, z-1); rank(u+1) = y is P's last factor
            acc += base
            base *= -y
            if t:
                t -= 1
            else:
                j -= 1
            y -= 1
            c += 1
            if c == len(out):
                value, remainder = divmod(acc + base, mden)
                assert remainder == 0, f"scaled f of {x} is not an integer"
                out.append(value)
        else:
            # f(u+2, y, z) = f(u+11, y, z+1) / (1 - y) with y >= 2; P gains the factor y - 1
            acc *= 1 - y
            mden *= 1 - y
            base, remainder = divmod(base, 1 - y)  # exact: y! divides rank! / H, P divides y!
            assert remainder == 0, f"base of {x} at rank {y} is not divisible by {y - 1}"
            j -= 1
            t += 2
            c -= 1
    # at y == 0 the tail is empty and f(head, 0, z) = f(head, 0, 0): a trailing 2
    # becomes 11 with divisor 1 - 0 and the same head product.  A walk that reached
    # y == 0 took no step or ended on a 1-step to a new maximum of c, so its last
    # reading is the value there.
    out += out[-1:] * (top + 1 - len(out))
    return out


def _scaled_f(x: Sequence[int], y: int, z: int) -> int:
    """rank(x)! f(x, y, z) as an exact int: zero unless x has a suffix of rank y."""
    s, total = len(x), 0
    while total < y:
        s -= 1
        total += x[s]
    if total != y:
        return 0
    base = _base(sum(x), y, g_all(x))
    return _unwind(x, y, z, -base if (len(x) - s) % 2 else base)[z]


def _f_columns(x: Sequence[int], top: int) -> list[Sequence[int]]:
    """[[rank(x)! f(x, y, z) for z = 0..top] for y = 0..rank(x)] as exact ints, from
    one walk per suffix split of x; f vanishes at every other y."""
    gs, rank = g_all(x), sum(x)
    columns = [(0,) * (top + 1)] * (rank + 1)
    columns[0] = (_base(rank, 0, gs),) * (top + 1)
    y, sign = 0, 1
    for digit in reversed(x):
        y += digit
        sign = -sign  # each tail digit negates its running sum
        base = sign * _base(rank, y, gs)
        columns[y] = _unwind(x, y, top, base) if top else (base,)
    return columns


def _f_rows(x: Sequence[int], top: int) -> list[list[int]]:
    """[[rank(x)! f(x, y, z) for y = 0..rank(x)] for z = 0..top], the rows of
    _f_columns(x, top); at top = 0 the one row holds the coefficients of
    d_beta(x) over rank(x)! (Goodman-Kerov's product formula)."""
    return [list(row) for row in zip(*_f_columns(x, top))]


def _f_row(x: Sequence[int], z: int) -> list[int]:
    """[rank(x)! f(x, y, z) for y = 0..rank(x)], entry z of each column of _f_columns(x, z)."""
    return [column[z] for column in _f_columns(x, z)]


@lru_cache(maxsize=None)
def _f(x: tuple[int, ...], y: int, z: int) -> Fraction:
    return Fraction(_scaled_f(x, y, z), factorial(sum(x)))


def f(x: YFWord, y: int, z: int) -> Fraction:
    """Evaluate f(x, y, z); see the module docstring for the definition."""
    if not 0 <= y <= sum(x):
        raise ValueError(f"y={y} out of range 0..{sum(x)}")
    if not 0 <= z <= len(x):
        raise ValueError(f"z={z} out of range 0..{len(x)}")
    return _f(tuple(x), y, z)


def g_all(x) -> tuple[int, ...]:
    """All values g(x, 1), ..., g(x, twos(x)).

    With beta_i the lengths of the maximal 1-runs between 2s counted from
    the right, g(x, j) = beta_0 + ... + beta_{j-1} + 2j - 1.  Equivalently,
    and as computed here: the rank of the suffix of x up to and including
    the j-th 2 from the right, minus 1 (checked against the runs formula by
    tests/test_harmonic.py::test_g_all_matches_runs_formula).
    """
    digits = _digits_of(x)
    out = []
    total = 0
    for k in range(len(digits) - 1, -1, -1):
        total += digits[k]
        if digits[k] == 2:
            out.append(total - 1)
    return tuple(out)


@lru_cache(maxsize=4096)
def _g_products(u: tuple[int, ...], top: int) -> tuple[int, ...]:
    """(prod_j (g(u, j) - i) for i = 0..top), the one g-product vector of a word u.

    The path-count formula's y memo reads it at top = rank(y); the kernel d'_beta,
    the measure's weights, the table class pass and the sweeps read it for the
    core of w at the rank asked for.  The vector starts as 1s and takes one
    entrywise product with G, G - 1, ..., G - top per g-value G.  The memo is
    bounded by entry count; each entry is top + 1 ints."""
    vec = [1] * (top + 1)
    for G in g_all(u):
        vec = list(map(mul, vec, range(G, G - top - 1, -1)))
    return tuple(vec)


def g(x, j: int) -> int:
    """The j-th g-value of x, 1 <= j <= twos(x)."""
    values = g_all(x)
    if not 1 <= j <= len(values):
        raise ValueError(f"index {j} out of range 1..{len(values)}")
    return values[j - 1]


def q(x: YFWord) -> Fraction:
    """1 / (product of the ranks of all nonempty suffixes of x)."""
    den = 1
    for r in suffix_ranks(x):
        den *= r
    return Fraction(1, den)


def _g_ratio_parts(x, k: int) -> tuple[int, int]:
    """(product of G - k, product of G) over the g-values G of x exceeding k."""
    gs = [G for G in g_all(x) if G > k]
    return prod(G - k for G in gs), prod(gs)


def pi(x) -> Fraction:
    """Product of (g-1)/g over the g-values of x exceeding 1; empty product 1."""
    return Fraction(*_g_ratio_parts(x, 1))


def pi_k(x, k: int) -> Fraction:
    """Product of (g-k)/g over the g-values of x exceeding k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return Fraction(*_g_ratio_parts(x, k))


def pi_split(v: YFWord, y: int) -> Optional[tuple[Fraction, Fraction]]:
    """The factorization pi(v) = pi(head + 1^y) * pi(tail) across a rank-y split.

    Returns (head_part, tail_part), or None when v has no suffix of rank y.
    """
    parts = split_by_rank(v, y)
    if parts is None:
        return None
    head, tail = parts
    return pi(head + (1,) * y), pi(tail)


class BetaPolynomial(_Frozen):
    """A polynomial in beta with exact rational coefficients c0, c1, ...

    Trailing zero coefficients are trimmed; evaluation at a rational point
    is exact.
    """

    def __init__(self, coeffs: Sequence[Union[Fraction, int]]):
        c = tuple(Fraction(v) for v in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def __call__(self, beta: Union[Fraction, int]) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * beta + c
        return acc

    def __repr__(self) -> str:
        return f"BetaPolynomial({[str(c) for c in self.coeffs]})"


def d_beta(x: YFWord) -> BetaPolynomial:
    """The polynomial sum over i of f(x, i, 0) * beta^i."""
    fac = factorial(sum(x))
    return BetaPolynomial(tuple(Fraction(c, fac) for c in _f_rows(x, 0)[0]))


def check_beta(beta: Fraction, text: Optional[str] = None) -> Fraction:
    """beta, refused unless 0 < beta <= 1; the error shows text, as typed, if given."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta if text is None else text}")
    return beta


def d_beta_eval(x: YFWord, beta: Fraction) -> Fraction:
    """Exact value of the beta polynomial of x at a rational beta in (0, 1]."""
    return d_beta(x)(check_beta(beta))


def format_rational(value: Fraction) -> str:
    """Render as 'p/q' in lowest terms, or a bare integer when q == 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _csv_rows(rows: Sequence[Sequence[str]]) -> str:
    """The rows as CSV text, one line each, ending in newlines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or an integer string into an exact rational; no decimal, exponent or space."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?", text):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)
