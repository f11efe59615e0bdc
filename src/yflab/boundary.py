"""Infinite tail-ones words, the kernels d'_beta, and the boundary measures.

An infinite word is modeled as 1^inf followed by a finite core that does
not itself begin with 1 (leading 1s are absorbed into the tail).  Such a
word has finitely many 2s, so every g-product below is finite and every
value exact.  The boundary measure with parameters (w, beta) assigns to a
word v the mass

    mu_{w,beta}(v) = d(empty, v) * d'_beta(v, w),

where

    d'_beta(x, w) = sum over i = 0..rank(x) of
        beta^i * f(x, i, h(x, w)) * product over j of (g(w,j) - i) / g(w,j).

Masses over one rank always sum to exactly 1.

The kernel is one polynomial in beta, built without beta by _kernel_terms:
int coefficients T_i = rank(x)! f(x, i, h) prod_j (g(w, j) - i), with
rank(x)! f(x, i, h) the row harmonic._f_row(x, h), over rank(x)! prod_j g(w, j).
d_beta_prime evaluates it at beta = p/q in ints (_scaled_value) and builds
one Fraction; d1_prime sums it.  Nothing here is memoized: the identity
suite holds one kernel per (x, w) for a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence

from .harmonic import _f_row, g_all
from .pathcount import d_from_empty, d_paths_dp
from .words import EPSILON, YFWord, enumerate_level


@dataclass(frozen=True)
class TailOnesWord:
    """The infinite word 1^inf + core, with a canonical core.

    The core is empty (the all-ones word) or begins with a 2; parse() and
    from_core() canonicalize by stripping leading 1s.
    """

    core: YFWord

    def __post_init__(self):
        if len(self.core) > 0 and self.core[0] == 1:
            raise ValueError("core must not begin with 1 (absorb leading 1s into the tail)")

    @classmethod
    def from_core(cls, core: YFWord) -> "TailOnesWord":
        i = 0
        while i < len(core) and core[i] == 1:
            i += 1
        return cls(YFWord(core[i:]))

    @classmethod
    def parse(cls, text: str) -> "TailOnesWord":
        """Parse a core string; 'eps' or '' denotes the all-ones word."""
        if text in ("eps", ""):
            return cls(EPSILON)
        return cls.from_core(YFWord.from_text(text))

    @property
    def twos(self) -> int:
        return self.core.twos

    def digit_from_right(self, k: int) -> int:
        """The k-th digit counted from the right, 0-based; 1 beyond the core."""
        if k < len(self.core):
            return self.core[len(self.core) - 1 - k]
        return 1

    def __repr__(self) -> str:
        return f"TailOnesWord({self.core.text!r})"


def suffix_of_infinite(w: TailOnesWord, m: int) -> YFWord:
    """The last m digits of w: 1^(m - len(core)) + core, truncated to the core for small m."""
    if m < 0:
        raise ValueError("suffix length must be nonnegative")
    c = len(w.core)
    if m <= c:
        return YFWord(w.core[c - m:])
    return YFWord((1,) * (m - c) + tuple(w.core))


class CommonSuffix(NamedTuple):
    length: int
    rank: int


def h_infinite(x: YFWord, w: TailOnesWord) -> CommonSuffix:
    """Length and rank of the longest common suffix of a finite word with w."""
    length = 0
    rank = 0
    for k in range(len(x)):
        d = x[len(x) - 1 - k]
        if d != w.digit_from_right(k):
            break
        length += 1
        rank += d
    return CommonSuffix(length, rank)


def mass_weights(w: TailOnesWord, beta: Fraction, top: int) -> tuple[list[int], int]:
    """Integer weights over one shared denominator, for i = 0..top.

    For beta = p/q returns (W, D) with W[i] = p^i q^(top-i) prod_j (g(w,j) - i)
    and D = q^top prod_j g(w,j), so W[i] / D = beta^i prod_j (g(w,j) - i)/g(w,j).
    """
    p, q = beta.numerator, beta.denominator
    gs = g_all(w.core)
    den = q ** top
    for G in gs:
        den *= G
    out = []
    for i in range(top + 1):
        weight = p ** i * q ** (top - i)
        for G in gs:
            weight *= G - i
        out.append(weight)
    return out, den


def _kernel_terms(x, w: TailOnesWord, f_row=_f_row) -> tuple[list[int], int]:
    """The int coefficients T_0..T_rank of d'_beta(x, w) as a polynomial in beta, and
    their shared denominator: the row f_row(x, h) (harmonic._f_row or a memo of
    it) times the weights of mass_weights at beta = 1, over rank! times theirs."""
    rank = sum(x)
    weights, den = mass_weights(w, Fraction(1), rank)
    row = f_row(x, h_infinite(x, w).length)
    return [F * weight for F, weight in zip(row, weights)], factorial(rank) * den


def _scaled_value(coeffs: Sequence[int], t: Fraction, degree: int) -> int:
    """q^degree * sum_i coeffs[i] t^i as an int, for t = p/q and degree >= len(coeffs) - 1;
    it vanishes iff the polynomial does at t."""
    p, q = t.numerator, t.denominator
    total, q_power = 0, q ** (degree - len(coeffs) + 1)
    for c in reversed(coeffs):
        total = total * p + c * q_power
        q_power *= q
    return total


def d_beta_prime(x: YFWord, w: TailOnesWord, beta: Fraction) -> Fraction:
    """The kernel d'_beta(x, w); see the module docstring."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    terms, den = _kernel_terms(x, w)
    beta, rank = Fraction(beta), len(terms) - 1
    return Fraction(_scaled_value(terms, beta, rank), den * beta.denominator ** rank)


def d1_prime(x: YFWord, w: TailOnesWord) -> Fraction:
    """d'_1(x, w), the exact limit of d(x, w_m) / d(empty, w_m)."""
    terms, den = _kernel_terms(x, w)
    return Fraction(sum(terms), den)


def mu(w: TailOnesWord, beta: Fraction, v: YFWord) -> Fraction:
    """Boundary-measure mass d(empty, v) * d'_beta(v, w); always >= 0."""
    return d_from_empty(v) * d_beta_prime(v, w, beta)


def mu_prelimit(wseq_m: YFWord, v: YFWord) -> Fraction:
    """Pre-limit mass d(empty, v) * d(v, wseq_m) / d(empty, wseq_m)."""
    return Fraction(d_from_empty(v) * d_paths_dp(v, wseq_m), d_from_empty(wseq_m))


@dataclass(frozen=True)
class LevelDistribution:
    """The boundary measure restricted to one rank; masses sum to exactly 1."""

    n: int
    w: TailOnesWord
    beta: Fraction
    masses: dict[YFWord, Fraction]

    def __post_init__(self):
        total = sum(self.masses.values(), Fraction(0))
        if total != 1:
            raise AssertionError(f"masses sum to {total}, not 1")
        if any(m < 0 for m in self.masses.values()):
            raise AssertionError("negative mass")


def level_distribution(w: TailOnesWord, beta: Fraction, n: int) -> LevelDistribution:
    """Masses mu_{w,beta}(v) over all rank-n words, in level order."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if n < 0:
        raise ValueError("rank must be nonnegative")
    masses = {v: mu(w, beta, v) for v in enumerate_level(n)}
    return LevelDistribution(n, w, Fraction(beta), masses)
