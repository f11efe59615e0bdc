"""Magic tables: the nonnegative matrices dominating a boundary measure.

For parameters (w, beta, n) the table assigns to a rank-n word v and a
column 0 <= y <= n the entry

    T(v, y) = d(empty, v) * q(head) * d'_1(tail, w) * beta^y * (1 - beta^2)^length(head)

when v splits as head + tail with rank(tail) == y, and 0 otherwise.  Row
sums dominate the measure masses; column sums have a closed product form.

Only the last two factors depend on beta, so a table is built once per
(w, n) as a FactoredTable of integer cells over den = n! D1, with D1 =
prod_j g(w, j).  With S(tail) = y! D1 d'_1(tail, w), the sum of the
beta-free int kernel coefficients of boundary._kernel_terms, and H(head) =
1 / q(head), the cell of split (head, tail) is

    C = d(empty, v) * S(tail) * n! / (H(head) * y!).

By the product form d(empty, x) = rank(x)! q(x) (Goodman-Kerov),
H(head) = (n - y)! / d(empty, head), so C = C(n, y) d(empty, v)
d(empty, head) S(tail): a product of ints, with no division.
factored_table reads d(empty, t) and S(t) of every word t of rank <= n from
one pass over the class words (boundary._class_words, in _class_pass): for t
of rank r with state vector X, S(t) = sum_i C(r, i) P_i X[i] / d(empty, t)
with P = harmonic._g_products(core, n), a division asserted exact.  Entries
i <= r of X and of P do not depend on the pass's top rank, so one pass at a
top rank serves the tables of every rank up to it: factored_table runs one at
n and assembles the cells (_assemble_table), the identity suite one per core
at its top rank for all its tables.

At beta = p/q the entry is C (p q)^y (q^2 - p^2)^k q^(2(n-y-k)) / (den q^(2n))
with k = length(head), so the column sums, row sums and totals at any beta
are ints over one denominator, and build_table makes one Fraction per cell.
Beta enters as (p q)^y and boundary._powers(q^2 - p^2, q^2, n - y), as
1 - beta^2 = (q^2 - p^2) / q^2 in lowest terms.  symbolic_entry and magic_entry
compute one cell on their own, magic_entry from the pointwise kernel of
boundary._kernel_terms; they are the oracle the tests compare the tables
with, so the comparison crosses two engines.

As polynomials in (1 - beta^2), times beta^y, the column sums of every w
and their closed form have int coefficients over den and over (n - y)!
(FactoredTable.columns, column_closed_form_coeffs); the identity suite
decides the column law on the coefficients of their int difference.  The
row, column and total bounds are inequalities and are checked at each beta,
the column bound as the int pair of _column_bound_parts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, prod
from operator import mul
from typing import Iterator, NamedTuple, Optional

from .boundary import TailOnesWord, _class_words, _mass_coefficients, _powers, d1_prime
from .harmonic import _csv_rows, _g_products, check_beta, format_rational, q
from .pathcount import d_from_empty
from .words import (Level, YFWord, _Frozen, check_level_rank, enumerate_level, split_by_rank,
                    suffix_ranks)


class SymbolicCell(NamedTuple):
    """A nonzero entry in factored form: coeff * d'_1(tail, w) * beta^be * (1-beta^2)^qe."""

    coeff: Fraction          # d(empty, v) * q(head)
    tail: YFWord             # argument of d'_1
    beta_exp: int            # y
    one_minus_beta2_exp: int  # length(head)


def symbolic_entry(n: int, v: YFWord, y: int) -> Optional[SymbolicCell]:
    """The factored form of entry (v, y), independent of w and beta; None when zero."""
    if sum(v) != n:
        raise ValueError(f"word has rank {sum(v)}, expected {n}")
    if not 0 <= y <= n:
        raise ValueError(f"column {y} out of range 0..{n}")
    parts = split_by_rank(v, y)
    if parts is None:
        return None
    head, tail = parts
    return SymbolicCell(d_from_empty(v) * q(head), tail, y, len(head))


def magic_entry(w: TailOnesWord, beta: Fraction, n: int, v: YFWord, y: int) -> Fraction:
    """The numeric entry T(v, y) for parameters (w, beta, n)."""
    check_beta(beta)
    cell = symbolic_entry(n, v, y)
    if cell is None:
        return Fraction(0)
    return (cell.coeff * d1_prime(cell.tail, w)
            * beta ** cell.beta_exp
            * (1 - beta * beta) ** cell.one_minus_beta2_exp)


def _splits(v) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """(k, tail, H) for each suffix split v = head + tail: k = length(head) and
    H = the product of the head's suffix ranks, so that q(head) = 1 / H."""
    for k in range(len(v) + 1):
        yield k, tuple(v[k:]), prod(suffix_ranks(v[:k]))


class MagicTable(NamedTuple):
    """Dense table over (rank-n words in level order) x (columns 0..n)."""

    w: TailOnesWord
    beta: Fraction
    n: int
    level: Level
    entries: tuple[tuple[Fraction, ...], ...]

    def column_sum(self, y: int) -> Fraction:
        """Sum of column y.

        It equals column_sum_closed_form(beta, n, y), the sum over rank-(n-y)
        words x' of q(x') * d(empty, x' + 1^y) * beta^y * (1 - beta^2)^length(x');
        the identity suite checks this as `sum`.
        """
        if not 0 <= y <= self.n:
            raise ValueError(f"column {y} out of range 0..{self.n}")
        return sum((row[y] for row in self.entries), Fraction(0))

    def total(self) -> Fraction:
        """Sum of all entries; at most 1 + 1/beta (identity `lehamed`)."""
        return sum((sum(row, Fraction(0)) for row in self.entries), Fraction(0))

    def to_csv(self) -> str:
        """CSV with header word,0..n; cells as exact rationals."""
        return _csv_rows([["word"] + [str(y) for y in range(self.n + 1)]]
                         + [[v.text or "eps"] + [format_rational(c) for c in row]
                            for v, row in zip(self.level.words, self.entries)])


def symbolic_csv(n: int) -> str:
    """The rank-n table in factored form as CSV with header word,0..n: nonzero
    cells render as symbolic_entry's (coeff;tail;beta_exp;one_minus_beta2_exp)
    and zero cells are empty.  The cells depend on neither w nor beta, so no
    kernel or table is built; each row takes one pass over its splits."""
    rows = [["word"] + [str(y) for y in range(n + 1)]]
    for v in enumerate_level(n):
        row = [""] * (n + 1)
        d_eps = d_from_empty(v)
        for k, tail, head_product in _splits(v):
            y = sum(tail)
            row[y] = (f"({format_rational(Fraction(d_eps, head_product))};"
                      f"{YFWord(tail).text or 'eps'};{y};{k})")
        rows.append([v.text or "eps"] + row)
    return _csv_rows(rows)


class FactoredTable(_Frozen):
    """The table for (w, n) before beta is chosen: integer cells over one denominator.

    rows[r] holds one cell (y, k, C) per suffix split v = head + tail of the
    r-th rank-n word v in level order, with y = rank(tail), k = length(head)
    and C the int of the module docstring.  The cell's entry is
    C / den * beta^y * (1 - beta^2)^k, with den = n! * prod_j g(w, j).
    """

    def __init__(self, w: TailOnesWord, n: int, level: Level, den: int, rows: tuple):
        object.__setattr__(self, "w", w)  # in __dict__, beside the cached columns
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.w, self.n, self.level, self.den, self.rows) == (other.w, other.n, other.level,
                                                                   other.den, other.rows)

    def __hash__(self):
        return hash((self.w, self.n, self.level, self.den, self.rows))

    def __repr__(self) -> str:
        return (f"FactoredTable(w={self.w!r}, n={self.n!r}, level={self.level!r}, den={self.den!r}, "
                f"rows={self.rows!r})")

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """columns[y][k] is the sum of C over the cells (y, k, C), k = 0..n-y, so that
        column y sums to beta^y * sum_k columns[y][k] * (1 - beta^2)^k / den."""
        out = [[0] * (self.n - y + 1) for y in range(self.n + 1)]
        for cells in self.rows:
            for y, k, C in cells:
                out[y][k] += C
        return tuple(tuple(column) for column in out)

    def _beta_factors(self, beta: Fraction) -> tuple[list[int], list[tuple[int, ...]], int]:
        """((p q)^y, T_y = _powers(q^2 - p^2, q^2, n - y)) per column y, and S = den q^(2n), at
        beta = p/q: the cell (y, k, C) has the entry C (p q)^y T_y[k] / S (module docstring)."""
        p, q, n = beta.numerator, beta.denominator, self.n
        return ([(p * q) ** y for y in range(n + 1)],
                [_powers(q * q - p * p, q * q, n - y) for y in range(n + 1)], self.den * q ** (2 * n))

    def column_sums(self, beta: Fraction) -> tuple[list[int], int]:
        """The column sums at beta as ints over the shared denominator den q^(2n)."""
        heads, tails, S = self._beta_factors(beta)
        return [h * sum(map(mul, column, t)) for h, t, column in zip(heads, tails, self.columns)], S

    def row_sums(self, beta: Fraction) -> tuple[list[int], int]:
        """The row sums at beta, in level order, as ints over the shared denominator den q^(2n)."""
        heads, tails, S = self._beta_factors(beta)
        factors = [[head * t for t in tail] for head, tail in zip(heads, tails)]  # per cell (y, k)
        return [sum(C * factors[y][k] for y, k, C in cells) for cells in self.rows], S

    def evaluate(self, beta: Fraction) -> MagicTable:
        """The dense table at beta: one Fraction per nonzero-split cell."""
        heads, tails, S = self._beta_factors(beta)
        rows = []
        for cells in self.rows:
            row = [Fraction(0)] * (self.n + 1)
            for y, k, C in cells:
                row[y] = Fraction(C * heads[y] * tails[y][k], S)
            rows.append(tuple(row))
        return MagicTable(self.w, beta, self.n, self.level, tuple(rows))


def _class_pass(w: TailOnesWord, top: int) -> tuple[dict[tuple[int, ...], tuple[int, int]], int]:
    """({word: (d(empty, word), S(word))} over the words of rank <= top, and
    D1 = prod_j g(w, j)), from one pass over the class words; it serves the
    table of every rank up to top (see the module docstring)."""
    products = _g_products(w.core, top)
    scaled = [_mass_coefficients(products, r)[0] for r in range(top + 1)]
    known = {}
    for digits, (r, vec, d, _) in _class_words(w, top):
        S, remainder = divmod(sum(map(mul, scaled[r], vec)), d)
        assert remainder == 0, f"kernel sum of {digits} for {w} is inexact"
        known[digits] = d, S
    return known, products[0]


def _assemble_table(w: TailOnesWord, n: int, known: dict[tuple[int, ...], tuple[int, int]],
                    d1: int) -> FactoredTable:
    """The factored table for (w, n) from a _class_pass(w, top >= n): each cell the int
    product C(n, y) d(empty, v) d(empty, head) S(tail)."""
    level = enumerate_level(n)
    binom = [comb(n, y) for y in range(n + 1)]
    rows = []
    for v in level:
        d_v, y = known[v][0], n
        cells = []
        for k in range(len(v) + 1):
            cells.append((y, k, binom[y] * d_v * known[v[:k]][0] * known[v[k:]][1]))
            if k < len(v):
                y -= v[k]
        rows.append(tuple(cells))
    return FactoredTable(w, n, level, factorial(n) * d1, tuple(rows))


def factored_table(w: TailOnesWord, n: int) -> FactoredTable:
    """The factored table for (w, n): one class pass at rank n, then its cells.  A
    negative rank, or one with more words than a tuple holds, is refused first."""
    check_level_rank(n)
    return _assemble_table(w, n, *_class_pass(w, n))


def build_table(w: TailOnesWord, beta: Fraction, n: int) -> MagicTable:
    """Construct the full table for (w, beta, n), rows in level order.

    It is factored_table(w, n) evaluated at beta, and equals magic_entry
    cell for cell.
    """
    check_beta(beta)
    return factored_table(w, n).evaluate(Fraction(beta))


def column_closed_form_coeffs(n: int, y: int) -> tuple[int, ...]:
    """Ints b_0..b_(n-y) with the closed column form equal to
    beta^y * sum_k b_k (1 - beta^2)^k / (n - y)!: b_k is the sum over rank-(n-y)
    words x' of length k of (n - y)! q(x') d(empty, x' + 1^y).  Each term is an
    int, since 1 / q(x') is a product of distinct ints in 1..n-y."""
    fac = factorial(n - y)
    coeffs = [0] * (n - y + 1)
    for xp in enumerate_level(n - y):
        coeffs[len(xp)] += fac // prod(suffix_ranks(xp)) * d_from_empty(xp + (1,) * y)
    return tuple(coeffs)


def column_sum_closed_form(beta: Fraction, n: int, y: int) -> Fraction:
    """Sum over rank-(n-y) words x' of q(x') d(empty, x'+1^y) beta^y (1-beta^2)^length(x')."""
    one_minus_beta2 = 1 - beta * beta
    return beta ** y * sum((b * one_minus_beta2 ** k
                            for k, b in enumerate(column_closed_form_coeffs(n, y))),
                           Fraction(0)) / factorial(n - y)


def level_product(n: int, y: int) -> Fraction:
    """The product over i = 1..floor((n-y)/2) of (2i + y) / (2i).

    It equals the beta-free part of the column bound: the sum over
    rank-(n-y) words x' of q(x') * d(empty, x' + 1^y).
    """
    out = Fraction(1)
    for i in range(1, (n - y) // 2 + 1):
        out *= Fraction(2 * i + y, 2 * i)
    return out


def _column_bound_parts(beta: Fraction, n: int, y: int) -> tuple[int, int]:
    """column_bound(beta, n, y) as an unreduced int pair (num, den): with beta = p/q
    and k = floor((n - y)/2), num = prod_{i=1..k} (2i + y) * p^y (q^2 - p^2)^k and
    den = 2^k k! q^(y + 2k)."""
    p, q = beta.numerator, beta.denominator
    k = (n - y) // 2
    return (prod(range(y + 2, y + 2 * k + 1, 2)) * p ** y * (q * q - p * p) ** k,
            2 ** k * factorial(k) * q ** (y + 2 * k))


def column_bound(beta: Fraction, n: int, y: int) -> Fraction:
    """Upper bound for a column sum: level_product * beta^y * (1-beta^2)^floor((n-y)/2)."""
    return Fraction(*_column_bound_parts(beta, n, y))
