"""Concentration sets, measure sweeps, and the exhaustive identity suite.

Sweeps over large ranks use a left-extension walk of the level: levels are
generated by prepending a digit, and the whole vector f(v, i, h(v, w)) for
i = 0..rank(v) transforms under prepending by a single exact division per
entry, because f(x, y, z) = f(ax, y, z) * (rank(ax) - y) whenever y and z
stay inside the shorter word's ranges.  Prepending a 2 additionally sets
the entry at rank(x)+1 to zero.  The entry at the top of the new vector is
filled by harmonic._scaled_f, the integer unwind of the recursion along the
right end of the word that f itself uses.  Only when the common suffix
with w grows (the current word is a full suffix of w and the prepended
digit matches) is the vector recomputed from scratch; at most one word per
level is affected.  The walk is validated against the direct formulas in
the test suite.

The walk runs in plain ints.  A node stores F_i = rank! * f(v, i, h), an
integer (see harmonic._scaled_f): prepending alpha to a rank-r word maps
F_i to F_i * (r+1)...(r+alpha) / (r+alpha-i), and every such division is
asserted exact.  For beta = p/q the masses use the integer weights of
boundary.mass_weights over their shared denominator D = q^n prod_j g(w, j),
so node_mass is the int n! * D * mu(v), a sweep sums ints, asserts each
rank's total to be n! * D, and builds one Fraction per (beta, bin, rank).

One traversal (`_iter_nodes`) yields both the leaves and the subtree roots
handed to the workers.  A sweep sums masses into one flat list of bins, and
a call with jobs > 1 opens one fork pool of min(jobs, os.cpu_count())
workers for all its ranks.

The identity suite checks every identity exhaustively over the beta grid
and the cores, and counts one instance per (word or table, beta).  Every
polynomial it decides is one int coefficient list, compared exactly or
evaluated at each beta (boundary._scaled_value).  The d_beta identities and
kusok's head factors use the row R(x) = [rank(x)! f(x, i, 0)] of
_d_beta_row and its quotient by (1 - beta)^length(x) (_div_one_minus_beta).
kusok's two sides differ by one int polynomial per (x, w) in beta, the
column law sum's by one per (w, n, y) in (1 - beta^2), from a magic table
built once per (w, n) as integer cells (magic.FactoredTable).  stolb,
lehamed and zabe are decided at each beta on ints over one denominator.
A _SuiteContext holds, for one suite run, the kernel coefficients per
(x, w) (the package's only kernel cache), the factored tables, the closed
column coefficients, and each word's row and quotient.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from typing import Callable, Iterable, Optional, Sequence, Union

from . import harmonic
from .boundary import TailOnesWord, _kernel_terms, _scaled_value, h_infinite, mass_weights
from .harmonic import format_rational, pi, pi_split, q
from .magic import (FactoredTable, column_bound, column_closed_form_coeffs, factored_table,
                    level_product)
from .pathcount import d_from_empty
from .words import YFWord, enumerate_level, prefix, suffix, suffix_ranks

Mode = str  # "suffix" | "pi"
Param = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Concentration sets
# ---------------------------------------------------------------------------

def q_sets(w: TailOnesWord, n: int, l: int) -> tuple[set[YFWord], set[YFWord]]:
    """Partition rank-n words by common-suffix rank with w: >= l versus < l."""
    if n < 0 or l < 0:
        raise ValueError("n and l must be nonnegative")
    inside, outside = set(), set()
    for v in enumerate_level(n):
        (inside if h_infinite(v, w).rank >= l else outside).add(v)
    return inside, outside


def r_sets(w: TailOnesWord, beta: Fraction, n: int,
           eps: Fraction) -> tuple[set[YFWord], set[YFWord]]:
    """Partition rank-n words by whether pi(v) lies in the open interval
    (pi(w) (beta - eps), pi(w) (beta + eps))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    piw = pi(w)
    lo, hi = piw * (beta - eps), piw * (beta + eps)
    inside, outside = set(), set()
    for v in enumerate_level(n):
        (inside if lo < pi(v) < hi else outside).add(v)
    return inside, outside


# ---------------------------------------------------------------------------
# Fast level walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Node:
    """Walk state for one word: the word, its scaled f-vector at z = h, and carried scalars."""

    digits: tuple[int, ...]
    rank: int
    fvec: tuple[int, ...]  # fvec[i] = rank! * f(digits, i, h) for i = 0..rank
    h: int                 # common suffix length with w
    h_rank: int            # common suffix rank with w
    d_eps: int             # d(empty, digits) = product of the g-values
    pi_num: int            # pi(digits) * d_eps = product of (g - 1) over g-values > 1


_ROOT = _Node((), 0, (1,), 0, 0, 1, 1)  # the empty word


def _child(node: _Node, alpha: int, w: TailOnesWord) -> _Node:
    """The walk state for alpha + word, built from the state for word."""
    digits = (alpha,) + node.digits
    r = node.rank
    top = r + alpha
    fac = factorial(top)
    grows = node.h == len(node.digits) and w.digit_from_right(len(node.digits)) == alpha
    if grows:
        h = node.h + 1
        fvec = tuple(harmonic._scaled_f(digits, i, h, fac) for i in range(top + 1))
    else:
        h = node.h
        up = r + 1 if alpha == 1 else (r + 1) * (r + 2)  # top! / r!
        vals = []
        for i, Fi in enumerate(node.fvec):
            value, remainder = divmod(Fi * up, top - i)
            assert remainder == 0, f"prepend {alpha} to {node.digits}: inexact at i={i}"
            vals.append(value)
        if alpha == 2:
            vals.append(0)  # f(2x, rank(x)+1, z) = 0
        vals.append(harmonic._scaled_f(digits, top, h, fac))
        fvec = tuple(vals)
    h_rank = node.h_rank + (alpha if grows else 0)
    if alpha == 1:
        return _Node(digits, top, fvec, h, h_rank, node.d_eps, node.pi_num)
    G = r + 1  # the g-value contributed by the new leftmost 2
    pi_num = node.pi_num * (G - 1) if G > 1 else node.pi_num
    return _Node(digits, top, fvec, h, h_rank, node.d_eps * G, pi_num)


def _iter_nodes(node: _Node, stop: int, n: int, w: TailOnesWord) -> Iterable[_Node]:
    """Nodes below node at the first rank >= stop (<= n); their subtrees partition
    the rank-n words below node, and stop = n yields those words."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.rank >= stop:
            yield cur
            continue
        if cur.rank + 2 <= n:
            stack.append(_child(cur, 2, w))
        stack.append(_child(cur, 1, w))


def walk_level_masses(w: TailOnesWord, beta: Fraction, n: int) -> dict[YFWord, Fraction]:
    """All masses of one rank via the left-extension walk (exact)."""
    weights, den = mass_weights(w, beta, n)
    scale = factorial(n) * den
    return {YFWord(leaf.digits): Fraction(node_mass(leaf, weights), scale)
            for leaf in _iter_nodes(_ROOT, n, n, w)}


def node_mass(leaf: _Node, weights: Sequence[int]) -> int:
    """n! * D * mu(v) for a rank-n leaf v, as the int d(empty, v) * sum of fvec[i] * weights[i].

    weights and their shared denominator D come from mass_weights(w, beta, n).
    """
    total = 0
    for Fi, Wi in zip(leaf.fvec, weights):
        if Fi:
            total += Fi * Wi
    return leaf.d_eps * total


# ---------------------------------------------------------------------------
# Concentration sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    tail: Fraction
    head: Fraction


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-rank tail masses of a boundary measure outside a concentration set."""

    mode: Mode                # "suffix" (common-suffix rank < l) or "pi" (pi(v) outside interval)
    w: TailOnesWord
    beta: Fraction
    parameter: Param          # l for suffix mode, eps for pi mode
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["mode", "core", "beta", "param", "n", "tail", "head", "arithmetic"])
        core = self.w.core.text if len(self.w.core) else "eps"
        for row in self.rows:
            writer.writerow([self.mode, core, format_rational(self.beta), str(self.parameter),
                             str(row.n), format_rational(row.tail), format_rational(row.head),
                             "exact"])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"mode={self.mode} core={self.w.core.text or 'eps'} "
                 f"beta={format_rational(self.beta)} param={self.parameter}"]
        for row in self.rows:
            lines.append(f"  n={row.n}: tail={format_rational(row.tail)} (~{float(row.tail):.6g})")
        return "\n".join(lines) + "\n"


def _accumulate(w: TailOnesWord, n: int, start: _Node, weight_sets: Sequence[Sequence[int]],
                bins: Sequence[tuple[int, str, object]]) -> list[int]:
    """Sums of node_mass with weight_sets[b] over the rank-n words below start, one
    per bin (b, kind, param): every word for "total", common-suffix rank < param
    for "suffix", pi outside the open interval (lo_num/lo_den, hi_num/hi_den) for
    "pi" with param = (lo_num, lo_den, hi_num, hi_den).
    """
    sums = [0] * len(bins)
    for leaf in _iter_nodes(start, n, n, w):
        masses = [node_mass(leaf, weights) for weights in weight_sets]
        for k, (b, kind, param) in enumerate(bins):
            if kind == "suffix":
                if leaf.h_rank >= param:
                    continue
            elif kind == "pi":
                # pi(leaf) = pi_num / d_eps; both denominators are positive
                lo_num, lo_den, hi_num, hi_den = param
                if (lo_num * leaf.d_eps < leaf.pi_num * lo_den
                        and leaf.pi_num * hi_den < hi_num * leaf.d_eps):
                    continue
            sums[k] += masses[b]
    return sums


_SPLIT_RANK = 8


def sweep_many(w: TailOnesWord, n_list: Sequence[int],
               suffix_params: Sequence[tuple[Fraction, int]] = (),
               pi_params: Sequence[tuple[Fraction, Fraction]] = (),
               jobs: int = 1) -> dict[tuple[Mode, Fraction, Param, int], Fraction]:
    """Tail masses for many (mode, beta, parameter) pairs in one walk per rank.

    Returns a map (mode, beta, parameter, n) -> tail mass.  The walk sums
    integers over n! * D_b (D_b the shared weight denominator of beta b); each
    rank's total is asserted to equal n! * D_b exactly, and each tail becomes one
    Fraction.  jobs is clamped to the CPU count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if any(n < 0 for n in n_list):
        raise ValueError(f"ranks must be nonnegative, got {list(n_list)}")
    betas: list[Fraction] = []
    for beta, _ in tuple(suffix_params) + tuple(pi_params):
        if not 0 < beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        if beta not in betas:
            betas.append(beta)
    piw = pi(w)
    # One total bin per beta first, then one bin per requested tail.
    bins = [(b, "total", None) for b in range(len(betas))]
    keys = []
    for beta, l in suffix_params:
        bins.append((betas.index(beta), "suffix", l))
        keys.append(("suffix", beta, l))
    for beta, e in pi_params:
        lo, hi = piw * (beta - e), piw * (beta + e)
        bins.append((betas.index(beta), "pi",
                     (lo.numerator, lo.denominator, hi.numerator, hi.denominator)))
        keys.append(("pi", beta, e))
    workers = min(jobs, os.cpu_count() or 1)
    pooled = [n for n in n_list if n >= _SPLIT_RANK + 2] if workers > 1 else []
    results: dict[tuple[Mode, Fraction, Param, int], Fraction] = {}
    with multiprocessing.get_context("fork").Pool(workers) if pooled else nullcontext() as pool:
        for n in n_list:
            weights = [mass_weights(w, beta, n) for beta in betas]
            vectors = [vector for vector, _ in weights]
            if n in pooled:
                roots = _iter_nodes(_ROOT, _SPLIT_RANK, n, w)
                parts = pool.starmap(_accumulate, [(w, n, node, vectors, bins) for node in roots])
            else:
                parts = [_accumulate(w, n, _ROOT, vectors, bins)]
            sums = [sum(column) for column in zip(*parts)]
            scales = [factorial(n) * den for _, den in weights]
            assert sums[:len(betas)] == scales, f"level {n} masses do not sum to 1"
            for key, (b, _, _), total in zip(keys, bins[len(betas):], sums[len(betas):]):
                results[key + (n,)] = Fraction(total, scales[b])
    return results


def concentration_sweep(mode: Mode, w: TailOnesWord, beta: Fraction, parameter: Param,
                        n_list: Sequence[int], jobs: int = 1) -> ConcentrationReport:
    """Exact tail mass outside the concentration set, for each rank in n_list."""
    if mode not in ("suffix", "pi"):
        raise ValueError(f"unknown mode {mode!r}")
    n_list = list(n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be nonempty and strictly ascending")
    if mode == "suffix":
        if int(parameter) < 0:
            raise ValueError("l must be nonnegative")
        tails = sweep_many(w, n_list, suffix_params=[(beta, int(parameter))], jobs=jobs)
        key = ("suffix", beta, int(parameter))
    else:
        eps = Fraction(parameter)
        if eps <= 0:
            raise ValueError("eps must be positive")
        tails = sweep_many(w, n_list, pi_params=[(beta, eps)], jobs=jobs)
        key = ("pi", beta, eps)
    rows = tuple(SweepRow(n, tails[key + (n,)], 1 - tails[key + (n,)]) for n in n_list)
    return ConcentrationReport(mode, w, Fraction(beta), key[2], rows)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityResult:
    name: str
    instances: int
    failures: int
    first_counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SuiteReport:
    max_rank: int
    results: tuple[IdentityResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity", "instances", "status", "first_counterexample"])
        for r in self.results:
            writer.writerow([r.name, str(r.instances), "pass" if r.passed else "FAIL",
                             r.first_counterexample or ""])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            extra = "" if r.passed else f"  first counterexample: {r.first_counterexample}"
            lines.append(f"{r.name:<14} {r.instances:>7} instances  {status}{extra}")
        verdict = "ALL IDENTITIES PASS" if self.all_passed else "IDENTITY FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


class _Recorder:
    def __init__(self):
        self.instances = 0
        self.failures = 0
        self.first: Optional[str] = None

    def check(self, ok: bool, witness: Callable[[], str]):
        self.instances += 1
        if not ok:
            self.failures += 1
            if self.first is None:
                self.first = witness()

    def result(self, name: str) -> IdentityResult:
        return IdentityResult(name, self.instances, self.failures, self.first)


def _all_words(max_rank: int):
    for n in range(max_rank + 1):
        yield from enumerate_level(n)


DEFAULT_BETA_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
DEFAULT_CORES = ("eps", "2", "22", "212")
MAX_SUITE_RANK = 12


def _check_evtuh5(ctx, rec):
    """sum over i of f(x, i, 0) vanishes for every nonempty x."""
    for x in _all_words(ctx.max_rank):
        if len(x) == 0:
            continue
        total = sum(ctx.f(x, i, 0) for i in range(sum(x) + 1))
        rec.check(total == 0, lambda x=x, t=total: f"x={x.text}: sum={t}")


def _check_evtuh7(ctx, rec):
    """f(x, y, z) = f(ax, y, z) * (rank(ax) - y) for a prepended digit a."""
    for alpha in (1, 2):
        for x in _all_words(ctx.max_rank - alpha):
            ax = YFWord((alpha,) + tuple(x))
            for y in range(sum(x) + 1):
                for z in range(len(x) + 1):
                    lhs = ctx.f(x, y, z)
                    rhs = ctx.f(ax, y, z) * (sum(ax) - y)
                    rec.check(lhs == rhs,
                              lambda x=x, a=alpha, y=y, z=z: f"a={a} x={x.text} y={y} z={z}")


def _check_evtuh11(ctx, rec):
    """-y * f(x+1, y, 0) = f(x, y-1, 0) for appended 1 and y >= 1."""
    for x in _all_words(ctx.max_rank - 1):
        x1 = YFWord(tuple(x) + (1,))
        for y in range(1, sum(x1) + 1):
            rec.check(-y * ctx.f(x1, y, 0) == ctx.f(x, y - 1, 0),
                      lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh12(ctx, rec):
    """(1 - y) * f(x+11, y, 0) = f(x+2, y, 0)."""
    for x in _all_words(ctx.max_rank - 2):
        x11 = YFWord(tuple(x) + (1, 1))
        x2 = YFWord(tuple(x) + (2,))
        for y in range(sum(x2) + 1):
            rec.check((1 - y) * ctx.f(x11, y, 0) == ctx.f(x2, y, 0),
                      lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh91(ctx, rec):
    """f(2x, y, length(x)) = f(2x, y, length(2x)) over the full y range."""
    for x in _all_words(ctx.max_rank - 2):
        ax = YFWord((2,) + tuple(x))
        for y in range(sum(ax) + 1):
            rec.check(ctx.f(ax, y, len(x)) == ctx.f(ax, y, len(ax)),
                      lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh92(ctx, rec):
    """f(1x, y, length(x)) = f(1x, y, length(1x)) for y <= rank(x)."""
    for x in _all_words(ctx.max_rank - 1):
        ax = YFWord((1,) + tuple(x))
        for y in range(sum(x) + 1):
            rec.check(ctx.f(ax, y, len(x)) == ctx.f(ax, y, len(ax)),
                      lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh93(ctx, rec):
    """f(2x, rank(x) + 1, z) = 0 for every valid z."""
    for x in _all_words(ctx.max_rank - 2):
        ax = YFWord((2,) + tuple(x))
        for z in range(len(ax) + 1):
            rec.check(ctx.f(ax, sum(x) + 1, z) == 0,
                      lambda x=x, z=z: f"x={x.text} z={z}")


def _check_q_recurrence(ctx, rec):
    """q(x') = rank(x) * q(x) when x = a + x'."""
    for x in _all_words(ctx.max_rank):
        if len(x) == 0:
            continue
        xp = YFWord(x[1:])
        rec.check(q(xp) == sum(x) * q(x), lambda x=x: f"x={x.text}")


def _check_odnoitozhe(ctx, rec):
    """q(x) = f(x, 0, 0)."""
    for x in _all_words(ctx.max_rank):
        rec.check(q(x) == ctx.f(x, 0, 0), lambda x=x: f"x={x.text}")


def _check_kusok(ctx, rec):
    """d'_beta(x, w) decomposes over suffix splits of x through d_beta and d'_1.

    Over the kernel denominator rank(x)! D1 of boundary._kernel_terms, the
    split into head (rank r - y) and tail (rank y) contributes
    C(r, y) R(head)[k] * sum(T(tail)) to the coefficient of beta^(y+k), with
    R the row of _d_beta_row and sum(T(tail)) / (y! D1) = d'_1(tail, w).
    The int difference of the two sides is formed once per (x, w) and
    evaluated at each beta.
    """
    for x in _all_words(ctx.max_rank):
        r = sum(x)
        splits = [(suffix(x, i), ctx.row(prefix(x, i))) for i in range(len(x) + 1)]
        for w in ctx.ws:
            diff = list(ctx.kernel_terms(x, w)[0])
            for tail, row in splits:
                y = sum(tail)
                tail_sum = comb(r, y) * sum(ctx.kernel_terms(tail, w)[0])
                for k, c in enumerate(row):
                    if c:
                        diff[y + k] -= c * tail_sum
            for beta in ctx.betas:
                rec.check(_scaled_value(diff, beta, r) == 0,
                          lambda x=x, w=w, b=beta: f"x={x.text} core={w.core.text or 'eps'} beta={b}")


def _check_razbivaem(ctx, rec):
    """d(empty, head + tail) = d(empty, tail) * d(empty, head + 1^rank(tail))."""
    for x in _all_words(ctx.max_rank):
        for i in range(len(x) + 1):
            head, tail = prefix(x, i), suffix(x, i)
            lhs = d_from_empty(x)
            rhs = d_from_empty(tail) * d_from_empty(head + (1,) * sum(tail))
            rec.check(lhs == rhs, lambda x=x, i=i: f"x={x.text} split={i}")


def _check_meexy(ctx, rec):
    """pi factors across every rank split: pi(v) = pi(head + 1^y) * pi(tail)."""
    for v in _all_words(ctx.max_rank):
        for y in range(sum(v) + 1):
            parts = pi_split(v, y)
            if parts is None:
                continue
            head_part, tail_part = parts
            rec.check(pi(v) == head_part * tail_part, lambda v=v, y=y: f"v={v.text} y={y}")


def _d_beta_row(x: YFWord) -> list[int]:
    """R(x) = [rank(x)! f(x, i, 0) for i = 0..rank(x)], the int coefficients of
    d_beta(x) over rank(x)! (Goodman-Kerov's product formula at z = 0)."""
    fac = factorial(sum(x))
    return [harmonic._scaled_f(x, i, 0, fac) for i in range(sum(x) + 1)]


def _div_one_minus_beta(coeffs: Sequence[int]) -> tuple[list[int], int]:
    """(Q, r) with p(beta) = (1 - beta) Q(beta) + r for p = sum_i coeffs[i] beta^i:
    r = p(1) is the coefficient sum and Q_j the prefix sum to j, minus r."""
    prefix_sums, total = [], 0
    for c in coeffs:
        total += c
        prefix_sums.append(total)
    return [s - total for s in prefix_sums[:-1]], total


def _binomial_sums(row: Sequence[int], m: int) -> list[int]:
    """sum_{j <= i} row[j] C(m - 1 + i - j, m - 1) for i < len(row) and m >= 1, the
    power-series coefficients of row(beta) / (1 - beta)^m.  For R(x) and
    m = length(x) these are rank(x)! times the binomial partial sums of x."""
    return [sum(c * comb(m - 1 + i - j, m - 1) for j, c in enumerate(row[:i + 1]))
            for i in range(len(row))]


def _check_delitsa(ctx, rec):
    """The beta polynomial divides by (1 - beta) exactly length(x) times, no more."""
    for x in _all_words(ctx.max_rank):
        quotient = ctx.row_quotient(x)
        rec.check(quotient is not None and sum(quotient) != 0, lambda x=x: f"x={x.text}")


def _check_binomische1(ctx, rec):
    """The binomial partial sums vanish for rank(x) - length(x) < i <= rank(x)."""
    for x in _all_words(ctx.max_rank):
        if len(x) == 0:
            continue
        start = sum(x) - len(x) + 1
        for i, total in enumerate(_binomial_sums(ctx.row(x), len(x))[start:], start):
            rec.check(total == 0, lambda x=x, i=i: f"x={x.text} i={i}")


def _check_binomische2(ctx, rec):
    """The quotient by (1-beta)^length(x) equals the binomial partial-sum polynomial."""
    for x in _all_words(ctx.max_rank):
        if len(x) == 0:
            continue
        partial = _binomial_sums(ctx.row(x), len(x))[:sum(x) - len(x) + 1]
        rec.check(ctx.row_quotient(x) == partial, lambda x=x: f"x={x.text}")


def _check_schyot(ctx, rec):
    """The two-sided recomposition of the binomial partial sums, length(x) >= 2."""
    for x in _all_words(ctx.max_rank):
        L, R = len(x), sum(x)
        if L < 2:
            continue
        row = ctx.row(x)
        partial = _binomial_sums(row, L)
        second = _binomial_sums([(R - j) * c for j, c in enumerate(row)], L - 1)
        for i in range(1, R + 1):
            rec.check(partial[i] * (R - i) == partial[i - 1] * (R - i - L + 1) + second[i],
                      lambda x=x, i=i: f"x={x.text} i={i}")


def _check_binom1(ctx, rec):
    """Binomial partial sums are bounded by q(x) * C(length(x), i) for i <= length(x)."""
    for x in _all_words(ctx.max_rank):
        L = len(x)
        if L == 0:
            continue
        scaled_q = factorial(sum(x)) // prod(suffix_ranks(x))  # rank(x)! q(x)
        for i, total in enumerate(_binomial_sums(ctx.row(x), L)[:L + 1]):
            rec.check(total <= scaled_q * comb(L, i), lambda x=x, i=i: f"x={x.text} i={i}")


def _check_mamka2(ctx, rec):
    """d_beta(x) <= q(x) * (1 - beta^2)^length(x) on the beta grid, decided at
    beta = p/q on rank(x)! q^(2 rank(x)) times both sides."""
    for x in _all_words(ctx.max_rank):
        L, r = len(x), sum(x)
        scaled_q = factorial(r) // prod(suffix_ranks(x))
        for beta in ctx.betas:
            p, den = beta.numerator, beta.denominator
            rhs = scaled_q * (den * den - p * p) ** L * den ** (2 * r - 2 * L)
            rec.check(_scaled_value(ctx.row(x), beta, 2 * r) <= rhs,
                      lambda x=x, b=beta: f"x={x.text} beta={b}")


def _check_dostalo(ctx, rec):
    """Sum over rank-(n-y) words of q * d(empty, word + 1^y) equals the closed product;
    the sum is taken from the int closed column coefficients that sum uses too."""
    for n in range(ctx.max_rank + 1):
        for y in range(n + 1):
            rec.check(sum(ctx.closed_columns[n, y]) == level_product(n, y) * factorial(n - y),
                      lambda n=n, y=y: f"n={n} y={y}")


def _table_witness(w: TailOnesWord, beta: Fraction, n: int) -> str:
    return f"core={w.core.text or 'eps'} beta={beta} n={n}"


def _check_sum(ctx, rec):
    """Every table column sums to its closed single-level form.

    Both sides of column y are beta^y times a polynomial in (1 - beta^2):
    the table's coefficients are FactoredTable.columns[y] over its den, the
    closed form's are column_closed_form_coeffs(n, y) over (n - y)!, the same
    for every w.  Their difference over den (n - y)! is formed once per
    (w, n, y) and evaluated at 1 - beta^2 for each beta.
    """
    diffs = {}
    for (w, n), table in ctx.tables.items():
        for y, column in enumerate(table.columns):
            fac = factorial(n - y)
            diffs[w, n, y] = [c * fac - b * table.den
                              for c, b in zip(column, ctx.closed_columns[n, y])]
    for w in ctx.ws:
        for beta in ctx.betas:
            for n in range(ctx.max_rank + 1):
                for y in range(n + 1):
                    rec.check(_scaled_value(diffs[w, n, y], 1 - beta * beta, n - y) == 0,
                              lambda w=w, b=beta, n=n, y=y: f"{_table_witness(w, b, n)} y={y}")


def _check_stolb(ctx, rec):
    """Every column sum respects the product bound."""
    for w in ctx.ws:
        for beta in ctx.betas:
            for n in range(ctx.max_rank + 1):
                sums, den = ctx.tables[w, n].column_sums(beta)
                for y, total in enumerate(sums):
                    rec.check(Fraction(total, den) <= column_bound(beta, n, y),
                              lambda w=w, b=beta, n=n, y=y: f"{_table_witness(w, b, n)} y={y}")


def _check_lehamed(ctx, rec):
    """Column bounds sum to at most 1 + 1/beta; so does the whole table."""
    for beta in ctx.betas:
        for n in range(ctx.max_rank + 1):
            bound_total = sum((column_bound(beta, n, y) for y in range(n + 1)), Fraction(0))
            rec.check(bound_total <= 1 + 1 / beta, lambda b=beta, n=n: f"beta={b} n={n}")
    for w in ctx.ws:
        for beta in ctx.betas:
            for n in range(ctx.max_rank + 1):
                sums, den = ctx.tables[w, n].column_sums(beta)
                rec.check(Fraction(sum(sums), den) <= 1 + 1 / beta,
                          lambda w=w, b=beta, n=n: _table_witness(w, b, n))


def _check_zabe(ctx, rec):
    """Row sums dominate the measure: mu_{w,beta}(v) <= sum of row v.

    At beta = p/q, q^(2n) * mu_{w,beta}(v) is d(empty, v) * sum_i T_i p^i q^(2n-i)
    over the denominator of T, with T_i the kernel coefficients of
    boundary._kernel_terms that kusok uses too.  The row sums come from the
    factored table over its den * q^(2n), so both sides stay ints until the
    comparison.
    """
    for w in ctx.ws:
        for beta in ctx.betas:
            for n in range(ctx.max_rank + 1):
                table = ctx.tables[w, n]
                rows, _ = table.row_sums(beta)
                for v, row in zip(table.level.words, rows):
                    terms, den = ctx.kernel_terms(v, w)
                    mass = d_from_empty(v) * _scaled_value(terms, beta, 2 * n)
                    rec.check(mass * table.den <= row * den,
                              lambda w=w, b=beta, n=n, v=v: f"{_table_witness(w, b, n)} v={v.text}")


IDENTITY_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("evtuh5", _check_evtuh5),
    ("evtuh7", _check_evtuh7),
    ("evtuh11", _check_evtuh11),
    ("evtuh12", _check_evtuh12),
    ("evtuh91", _check_evtuh91),
    ("evtuh92", _check_evtuh92),
    ("evtuh93", _check_evtuh93),
    ("q_recurrence", _check_q_recurrence),
    ("odnoitozhe", _check_odnoitozhe),
    ("kusok", _check_kusok),
    ("razbivaem", _check_razbivaem),
    ("meexy", _check_meexy),
    ("delitsa", _check_delitsa),
    ("binomische1", _check_binomische1),
    ("binomische2", _check_binomische2),
    ("schyot", _check_schyot),
    ("binom1", _check_binom1),
    ("mamka2", _check_mamka2),
    ("dostalo", _check_dostalo),
    ("sum", _check_sum),
    ("stolb", _check_stolb),
    ("lehamed", _check_lehamed),
    ("zabe", _check_zabe),
)


@dataclass(frozen=True)
class _SuiteContext:
    max_rank: int
    betas: tuple[Fraction, ...]
    ws: tuple[TailOnesWord, ...]
    f: Callable

    @cached_property
    def kernel_terms(self) -> Callable[[YFWord, TailOnesWord], tuple[list[int], int]]:
        """boundary._kernel_terms, one result per (x, w), held for this suite run;
        kusok, the tables and zabe share it."""
        return lru_cache(maxsize=None)(_kernel_terms)

    @cached_property
    def tables(self) -> dict[tuple[TailOnesWord, int], FactoredTable]:
        """One factored table per (w, n), built on first use and held for this suite run."""
        return {(w, n): factored_table(w, n, self.kernel_terms)
                for w in self.ws for n in range(self.max_rank + 1)}

    @cached_property
    def closed_columns(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """column_closed_form_coeffs(n, y) for every column up to max_rank, held for this
        suite run; dostalo and sum share it."""
        return {(n, y): column_closed_form_coeffs(n, y)
                for n in range(self.max_rank + 1) for y in range(n + 1)}

    @cached_property
    def row(self) -> Callable[[YFWord], list[int]]:
        """_d_beta_row, one int row per word, held for this suite run; kusok's heads
        and every d_beta identity share it."""
        return lru_cache(maxsize=None)(_d_beta_row)

    @cached_property
    def row_quotient(self) -> Callable[[YFWord], Optional[list[int]]]:
        """self.row(x) divided by (1 - beta) length(x) times, or None when a division
        leaves a remainder; one per word, held for this suite run."""
        def divide(x: YFWord) -> Optional[list[int]]:
            coeffs = self.row(x)
            for _ in range(len(x)):
                coeffs, remainder = _div_one_minus_beta(coeffs)
                if remainder:
                    return None
            return coeffs
        return lru_cache(maxsize=None)(divide)


def identity_suite(max_rank: int,
                   beta_grid: Sequence[Fraction] = DEFAULT_BETA_GRID,
                   w_list: Sequence[TailOnesWord] = None,
                   f_impl: Callable = harmonic.f) -> SuiteReport:
    """Run every identity exhaustively up to max_rank over the beta/w grids.

    Failures become report rows, not exceptions.  f_impl exists as a test
    hook: substituting a corrupted f must make the identities that evaluate f
    pointwise (evtuh5, evtuh7, evtuh11, evtuh12, evtuh91-93, odnoitozhe) fail
    with a concrete witness.  It does not reach the identities decided on the
    int rows of _d_beta_row (kusok and the d_beta family delitsa through
    mamka2), which come from harmonic._scaled_f directly.
    """
    if not 0 <= max_rank <= MAX_SUITE_RANK:
        raise ValueError(f"max_rank must lie in 0..{MAX_SUITE_RANK}, got {max_rank}")
    if w_list is None:
        w_list = tuple(TailOnesWord.parse(c) for c in DEFAULT_CORES)
    ctx = _SuiteContext(max_rank, tuple(beta_grid), tuple(w_list), f_impl)
    results = []
    for name, check in IDENTITY_CHECKS:
        rec = _Recorder()
        check(ctx, rec)
        results.append(rec.result(name))
    return SuiteReport(max_rank, tuple(results))
