"""Magic tables: the nonnegative matrices dominating a boundary measure.

For parameters (w, beta, n) the table assigns to a rank-n word v and a
column 0 <= y <= n the entry

    T(v, y) = d(empty, v) * q(head) * d'_1(tail, w) * beta^y * (1 - beta^2)^length(head)

when v splits as head + tail with rank(tail) == y, and 0 otherwise.  Row
sums dominate the measure masses; column sums have a closed product form.

A row has at most length(v) + 1 nonzero cells, one per suffix split, so
build_table fills each row in one pass over its splits, with d(empty, v)
computed once per row and beta^y and (1 - beta^2)^k once per table.
symbolic_entry and magic_entry compute one cell on their own and are the
pointwise oracle the tests compare the tables with.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Optional

from .boundary import TailOnesWord, d1_prime
from .harmonic import format_rational, q
from .pathcount import d_from_empty
from .words import Level, YFWord, enumerate_level, split_by_rank, suffix_ranks


@dataclass(frozen=True)
class SymbolicCell:
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
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    cell = symbolic_entry(n, v, y)
    if cell is None:
        return Fraction(0)
    return (cell.coeff * d1_prime(cell.tail, w)
            * beta ** cell.beta_exp
            * (1 - beta * beta) ** cell.one_minus_beta2_exp)


def _row_cells(v: YFWord) -> Iterator[SymbolicCell]:
    """The nonzero cells of row v in factored form, one per suffix split."""
    d_eps = d_from_empty(v)
    for k in range(len(v) + 1):
        tail = YFWord(v[k:])
        # d(empty, v) * q(head), with q(head) = 1 / prod of the head's suffix ranks
        yield SymbolicCell(Fraction(d_eps, prod(suffix_ranks(v[:k]))), tail, sum(tail), k)


@dataclass(frozen=True)
class MagicTable:
    """Dense table over (rank-n words in level order) x (columns 0..n)."""

    w: TailOnesWord
    beta: Fraction
    n: int
    level: Level
    entries: tuple[tuple[Fraction, ...], ...]

    def entry(self, v: YFWord, y: int) -> Fraction:
        return self.entries[self.level.words.index(v)][y]

    def row_sum(self, v: YFWord) -> Fraction:
        return sum(self.entries[self.level.words.index(v)], Fraction(0))

    def column_sum(self, y: int) -> Fraction:
        """Sum of column y; asserted equal to its closed single-level form.

        The closed form is the sum over rank-(n-y) words x' of
        q(x') * d(empty, x' + 1^y) * beta^y * (1 - beta^2)^length(x').
        """
        if not 0 <= y <= self.n:
            raise ValueError(f"column {y} out of range 0..{self.n}")
        total = sum((row[y] for row in self.entries), Fraction(0))
        closed = column_sum_closed_form(self.beta, self.n, y)
        assert total == closed, f"column {y}: {total} != {closed}"
        return total

    def total(self) -> Fraction:
        """Sum of all entries; at most 1 + 1/beta."""
        value = sum((sum(row, Fraction(0)) for row in self.entries), Fraction(0))
        assert value <= 1 + 1 / self.beta
        return value

    def to_csv(self, symbolic: bool = False) -> str:
        """CSV with header word,0..n; cells as exact rationals.

        In symbolic mode nonzero cells render as
        (coeff;tail;beta_exp;one_minus_beta2_exp) and zero cells are empty.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["word"] + [str(y) for y in range(self.n + 1)])
        for i, v in enumerate(self.level.words):
            if symbolic:
                row = [""] * (self.n + 1)
                for cell in _row_cells(v):
                    tail = cell.tail.text if len(cell.tail) else "eps"
                    row[cell.beta_exp] = (f"({format_rational(cell.coeff)};{tail};"
                                          f"{cell.beta_exp};{cell.one_minus_beta2_exp})")
            else:
                row = [format_rational(c) for c in self.entries[i]]
            writer.writerow([v.text if len(v) else "eps"] + row)
        return buf.getvalue()


def build_table(w: TailOnesWord, beta: Fraction, n: int) -> MagicTable:
    """Construct the full table for (w, beta, n), rows in level order.

    Each row is filled in one pass over its suffix splits; it equals
    magic_entry cell for cell.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    beta = Fraction(beta)
    level = enumerate_level(n)
    beta_pow = [beta ** y for y in range(n + 1)]
    one_minus_beta2_pow = [(1 - beta * beta) ** k for k in range(n + 1)]
    rows = []
    for v in level:
        row = [Fraction(0)] * (n + 1)
        for cell in _row_cells(v):
            row[cell.beta_exp] = (cell.coeff * d1_prime(cell.tail, w)
                                  * beta_pow[cell.beta_exp]
                                  * one_minus_beta2_pow[cell.one_minus_beta2_exp])
        rows.append(tuple(row))
    return MagicTable(w, beta, n, level, tuple(rows))


def column_sum_closed_form(beta: Fraction, n: int, y: int) -> Fraction:
    """Sum over rank-(n-y) words x' of q(x') d(empty, x'+1^y) beta^y (1-beta^2)^length(x')."""
    total = Fraction(0)
    for xp in enumerate_level(n - y):
        total += (q(xp) * d_from_empty(xp + (1,) * y)
                  * beta ** y * (1 - beta * beta) ** len(xp))
    return total


def level_product(n: int, y: int) -> Fraction:
    """The product over i = 1..floor((n-y)/2) of (2i + y) / (2i).

    It equals the beta-free part of the column bound: the sum over
    rank-(n-y) words x' of q(x') * d(empty, x' + 1^y).
    """
    out = Fraction(1)
    for i in range(1, (n - y) // 2 + 1):
        out *= Fraction(2 * i + y, 2 * i)
    return out


def column_bound(beta: Fraction, n: int, y: int) -> Fraction:
    """Upper bound for a column sum: level_product * beta^y * (1-beta^2)^floor((n-y)/2)."""
    return level_product(n, y) * beta ** y * (1 - beta * beta) ** ((n - y) // 2)
