"""Concentration sets, measure sweeps, and the exhaustive identity suite.

The left-extension walk computes the mass of each word of a level by
itself: levels are generated by prepending a digit, and the vector
F_i = rank! f(v, i, h(v, w)) for i = 0..rank(v) transforms under prepending
by one exact division per entry, because f(x, y, z) = f(ax, y, z) *
(rank(ax) - y) whenever y and z stay inside the shorter word's ranges.
Prepending a 2 also sets the entry at rank(x)+1 to zero, and the new top
entry comes from harmonic._scaled_f; the vector is the row harmonic._f_row
when the common suffix with w grows.  node_mass is then the int n! D mu(v)
over the shared denominator D of boundary.mass_weights (weights W_i).  The
walk visits all Fib(n + 1) words of rank n; it is the oracle the tests
check sweeps against, and it shares one stack loop (_prepend) with them.

Sweeps sum whole classes of words instead, from the class engine of
boundary (its docstring defines the vectors X, the 2-factors Y_u, the class
roots b_L and the chain law).  A class never straddles a suffix bin
(common-suffix rank < l), and its X sum is X(b_L)[i] S_i(rank(b_L)), with
S_i(r) the sum of Y_u[i] over the u of rank n - r; split by u's last digit,

    S_i(n) = S_i(n - 1) = 1,  S_i(r) = S_i(r + 1) + G (G - i) S_i(r + 2),  G = r + 1,

one pass of O(n^2) int products per rank for all classes (_class_masses).

Pi tails need every word, as pi(v) is almost unique per word: the split
engine (_split_sums) cuts each rank-n word as v = u + b, b its shortest
suffix of rank >= k = n // 2 that contains its class root (b = v for the
chain node of rank n).  The right halves b are grown from the roots and held
in memory; the left halves u are streamed, Y_u grown from all ones.  A pi bin
outside (lo, hi) sorts the b of each rank by pi(b), adds each Y_u to the
bucket of the number of keys at most lo / pi(u) and of the number below
hi / pi(u), and dots each bucket with the running X sum of the keys below
it, in one pass over the keys.  This costs about Fib(n / 2) vectors per side.

The engines divide only where the chain is built (boundary), each division
asserted exact.  Every sum is an int over n! D; sweep_many asserts each
engine's total to be n! D at every rank and builds one Fraction per
(beta, bin, rank).  With pi bins and jobs > 1 it opens one fork pool of
min(jobs, os.cpu_count()) workers from rank _POOL_RANK on, each worker
taking a share of the left halves.

The identity suite checks every identity exhaustively over the beta grid
and the cores, and counts one instance per (word or table, beta).  It reads
f only from one memo of harmonic._f_rows(x, length(x)), one build per word
with every row z = 0..length(x), as evtuh7 and evtuh91-93 read every z of
every word anyway: the f identities compare row entries, the kernels read
rows at z = h, and kusok's heads and the d_beta identities the rows R(x) at
z = 0 and their quotients by (1 - beta)^length(x) (_div_one_minus_beta).
Every polynomial it decides is one int coefficient list, compared exactly or
evaluated at each beta (boundary._scaled_value).  kusok's two sides differ
by one int polynomial per (x, w) in beta, the column law sum's by one per
(w, n, y) in (1 - beta^2), from a magic table built once per (w, n) as
integer cells (magic.FactoredTable) from the class engine.  stolb, lehamed
and zabe are decided at each beta on ints over one denominator; zabe
compares the table's row sums with masses from the pointwise kernel of
boundary._kernel_terms, so it checks two engines against each other, and
takes d(empty, v) once per word.  A _SuiteContext holds, for one suite run,
the rows, the kernel coefficients per (x, w) (the package's only kernel
cache), the factored tables, their column sums at each beta, the closed
column coefficients, the column bounds, and each word's quotient.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache, partial
from math import comb, factorial, gcd, prod
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .boundary import (TailOnesWord, _State, _classes, _g_factors, _grow, _kernel_terms, _prepend,
                       _roots_at, _scaled_value, h_infinite, mass_weights)
from .harmonic import (_csv_rows, _f_row, _f_rows, _g_ratio_parts, _scaled_f, format_rational,
                       pi, q)
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
    l = _suffix_rank(l)
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
# Left-extension walk
# ---------------------------------------------------------------------------

class _Node(NamedTuple):
    """Walk state for one word: its rank, digits, scaled f-vector at z = h, and carried scalars."""

    rank: int
    digits: tuple[int, ...]
    fvec: tuple[int, ...]  # fvec[i] = rank! * f(digits, i, h) for i = 0..rank
    h: int                 # common suffix length with w
    h_rank: int            # common suffix rank with w
    d_eps: int             # d(empty, digits) = product of the g-values
    pi_num: int            # pi(digits) * d_eps = product of (g - 1) over g-values > 1


_ROOT = _Node(0, (), (1,), 0, 0, 1, 1)  # the empty word


def _child(node: _Node, alpha: int, w: TailOnesWord) -> _Node:
    """The walk state for alpha + word, built from the state for word."""
    digits = (alpha,) + node.digits
    r = node.rank
    top = r + alpha
    grows = node.h == len(node.digits) and w.digit_from_right(len(node.digits)) == alpha
    if grows:
        h = node.h + 1
        fvec = tuple(_f_row(digits, h))
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
        vals.append(_scaled_f(digits, top, h))
        fvec = tuple(vals)
    h_rank = node.h_rank + (alpha if grows else 0)
    if alpha == 1:
        return _Node(top, digits, fvec, h, h_rank, node.d_eps, node.pi_num)
    G = r + 1  # the g-value contributed by the new leftmost 2
    pi_num = node.pi_num * (G - 1) if G > 1 else node.pi_num
    return _Node(top, digits, fvec, h, h_rank, node.d_eps * G, pi_num)


def _iter_nodes(n: int, w: TailOnesWord) -> Iterable[_Node]:
    """The walk states of the rank-n words."""
    return _prepend(_ROOT, n, n, lambda node, digit: _child(node, digit, w))


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
# Class sums and the split-sum engine
# ---------------------------------------------------------------------------

def _class_masses(roots: Sequence[tuple[int, _State]], n: int, scaled: Sequence[Sequence[int]],
                  factors: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """(common-suffix rank, [n! D_b mu(class) for each beta b]) per class of roots,
    scaled[b][i] = C(n, i) W_i: a root (r, X) gives sum_i scaled[b][i] X[i] S_i(r),
    S_i(r) the sum of Y_u[i] over the u of rank n - r.  Split by u's last digit,

        S_i(n) = S_i(n - 1) = 1,  S_i(r) = S_i(r + 1) + G (G - i) S_i(r + 2),  G = r + 1,

    so one pass of O(n^2) int products serves every class of the rank; factors is
    _g_factors(top) for some top >= n."""
    sums = [[0] * (n + 1), [1] * (n + 1)]  # S(n + 1) = 0 and S(n), then S(r) down to S(0)
    for G in range(n, 0, -1):
        sums.append([a + c * b for a, b, c in zip(sums[-1], sums[-2], factors[G])])
    return [(h_rank, [_dot(cw, vec, sums[n + 1 - r]) for cw in scaled])
            for h_rank, (r, vec, _, _) in roots]


def _add_into(groups: dict, key, vec: list[int]) -> None:
    """groups[key] += vec entrywise; a vector is never changed in place, so one
    may be shared by several states and groups."""
    acc = groups.get(key)
    groups[key] = vec if acc is None else [a + v for a, v in zip(acc, vec)]


def _left_sums(lefts: Iterable[_State], n: int, keys: Sequence[tuple[int, int]],
               cuts: Sequence[tuple[int, Fraction, Fraction]]) -> tuple[list[int], list[tuple[dict, dict]]]:
    """Sums over the left-half states lefts (all of one right-half rank): of their
    vectors, and for each cut (b, lo, hi) of pi(v), two dicts m -> sum of the
    vectors of the u with m right-half keys (the ascending pi keys) at most
    lo / pi(u), or below hi / pi(u), respectively."""
    total = [0] * (n + 1)
    buckets = [({}, {}) for _ in cuts]
    for _, vec, d, pi_num in lefts:
        total = [a + v for a, v in zip(total, vec)]
        for (_, lo, hi), (at_most, below) in zip(cuts, buckets):
            # pi(b) <= lo / pi(u) = tn / td iff pi_b.num * td - tn * pi_b.den <= 0
            tn, td = lo.numerator * d, lo.denominator * pi_num
            _add_into(at_most, bisect_right(keys, 0, key=lambda b: b[0] * td - tn * b[1]), vec)
            tn, td = hi.numerator * d, hi.denominator * pi_num
            _add_into(below, bisect_left(keys, 0, key=lambda b: b[0] * td - tn * b[1]), vec)
    return total, buckets


def _dot(*vectors: Sequence[int]) -> int:
    """sum_i of the product of the vectors' entries i."""
    return sum(map(prod, zip(*vectors)))


# A sweep with pi bins and jobs > 1 sums ranks >= _POOL_RANK in its pool:
# worker p of P grows the right halves from the class roots it is sent and
# takes the left halves above the states _TASK_DEPTH above each right half
# whose index is p mod P.  Pi-only sweeps of cores eps, 22 and 212 over the
# two pi pairs of criterion 8, medians of 7 alternated runs on a 2-vCPU VM
# (Python 3.11), serial against 2 workers: 0.21 / 0.22 s at rank 28, 0.36 /
# 0.34 s at 30, 0.68 / 0.52 s at 32 and 1.03 / 0.84 s at 34.
_POOL_RANK = 32
_TASK_DEPTH = 6


def _split_sums(roots: Sequence[tuple[int, _State]], n: int, scaled: Sequence[Sequence[int]],
                factors: Sequence[Sequence[int]], cuts: Sequence[tuple[int, Fraction, Fraction]],
                share: tuple[int, int] = (0, 1), split: Optional[int] = None) -> list[int]:
    """Sums of n! D_b mu(v) over the rank-n words v, scaled[b][i] = C(n, i) W_i: all
    words, one sum per beta b, then per cut (b, lo, hi) those with pi(v) outside
    the open interval (lo, hi).  Right halves grow from the class roots to rank
    split (default n // 2), as in the module docstring; share = (p, P) keeps
    part p of P of the left halves, and the P parts add up to the whole; factors
    is _g_factors(top) for some top >= n."""
    k = n // 2 if split is None else split
    grow = partial(_grow, factors=factors)
    right: dict[int, dict] = {}  # r -> X sums by pi key, pi(b) = pi_num / d in lowest terms
    for _, root in roots:
        for r, vec, d, pi_num in _prepend(root, k, n, grow):
            g = gcd(pi_num, d)
            _add_into(right.setdefault(r, {}), (pi_num // g, d // g), vec)
    part, parts = share
    sums = [0] * (len(scaled) + len(cuts))
    for r, by_pi in right.items():
        keys = sorted(by_pi, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
        tasks = _prepend((r, [1] * (n + 1), 1, 1), min(r + _TASK_DEPTH, n), n, grow)
        lefts = (state for i, task in enumerate(tasks) if i % parts == part
                 for state in _prepend(task, n, n, grow))
        total, buckets = _left_sums(lefts, n, keys, cuts)
        # outside (lo, hi): the keys at most lo / pi(u), and all but those below
        # hi / pi(u); running is the sum over the m smallest keys when bucket m is dotted
        running = [0] * (n + 1)
        for m in range(len(keys) + 1):
            if m:
                running = [a + v for a, v in zip(running, by_pi[keys[m - 1]])]
            for j, ((b, _, _), (at_most, below)) in enumerate(zip(cuts, buckets), len(scaled)):
                if m in at_most:
                    sums[j] += _dot(scaled[b], running, at_most[m])
                if m in below:
                    sums[j] -= _dot(scaled[b], running, below[m])
        for j, b in enumerate([*range(len(scaled)), *(b for b, _, _ in cuts)]):
            sums[j] += _dot(scaled[b], running, total)
    return sums


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
        core = self.w.core.text if len(self.w.core) else "eps"
        return _csv_rows([["mode", "core", "beta", "param", "n", "tail", "head", "arithmetic"]]
                         + [[self.mode, core, format_rational(self.beta), str(self.parameter),
                             str(row.n), format_rational(row.tail), format_rational(row.head),
                             "exact"] for row in self.rows])

    def to_text(self) -> str:
        lines = [f"mode={self.mode} core={self.w.core.text or 'eps'} "
                 f"beta={format_rational(self.beta)} param={self.parameter}"]
        for row in self.rows:
            lines.append(f"  n={row.n}: tail={format_rational(row.tail)} (~{float(row.tail):.6g})")
        return "\n".join(lines) + "\n"


def _suffix_rank(l: Param) -> int:
    """A suffix sweep's common-suffix rank l as an int, refused unless it is one and >= 0."""
    if l != int(l):
        raise ValueError(f"l must be an integer, got {l}")
    if l < 0:
        raise ValueError("l must be nonnegative")
    return int(l)


def sweep_many(w: TailOnesWord, n_list: Sequence[int],
               suffix_params: Sequence[tuple[Fraction, int]] = (),
               pi_params: Sequence[tuple[Fraction, Fraction]] = (),
               jobs: int = 1) -> dict[tuple[Mode, Fraction, Param, int], Fraction]:
    """Tail masses for many (mode, beta, parameter) pairs, one pass per engine and rank.

    Returns a map (mode, beta, parameter, n) -> tail mass.  One chain of class
    roots is built per call, at the top rank (_classes), and each rank takes its
    roots from it (_roots_at).  Each rank's sums are ints over n! * D_b (D_b the
    shared weight denominator of beta b): suffix tails from the class masses
    (_class_masses), pi tails from _split_sums.  The total of each engine used
    is asserted to equal n! * D_b at every rank, and each tail becomes one
    Fraction.  jobs is clamped to the CPU count.  With pi parameters and more
    than one worker, one fork pool opens when some rank is at least _POOL_RANK
    (32) and shares those ranks' left halves among its workers; suffix tails,
    lower ranks and one CPU run in-process.  Results are identical for every jobs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if any(n < 0 for n in n_list):
        raise ValueError(f"ranks must be nonnegative, got {list(n_list)}")
    betas = list(dict.fromkeys(beta for beta, _ in (*suffix_params, *pi_params)))
    for beta in betas:
        if not 0 < beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
    suffix_params = [(beta, _suffix_rank(l)) for beta, l in suffix_params]
    if any(e <= 0 for _, e in pi_params):
        raise ValueError("eps must be positive")
    piw = pi(w)
    cuts = [(betas.index(beta), piw * (beta - e), piw * (beta + e)) for beta, e in pi_params]
    workers = min(jobs, os.cpu_count() or 1)
    pooled = [n for n in n_list if n >= _POOL_RANK] if workers > 1 and cuts else []
    results: dict[tuple[Mode, Fraction, Param, int], Fraction] = {}
    top = max(n_list, default=0)
    classes, factors = _classes(w, top), _g_factors(top)
    if pooled:
        import multiprocessing  # only pooled pi sweeps need it; every command's start-up skips it
    with multiprocessing.get_context("fork").Pool(workers) if pooled else nullcontext() as pool:
        for n in n_list:
            weights = [mass_weights(w, beta, n) for beta in betas]
            scaled = [[comb(n, i) * W for i, W in enumerate(vector)] for vector, _ in weights]
            scales = [factorial(n) * den for _, den in weights]
            roots = _roots_at(classes, n)
            masses = _class_masses(roots, n, scaled, factors)
            assert [sum(column) for column in zip(*(m for _, m in masses))] == scales, \
                f"level {n} class masses do not sum to 1"
            for beta, l in suffix_params:
                b = betas.index(beta)
                results["suffix", beta, l, n] = Fraction(sum(m[b] for h, m in masses if h < l),
                                                         scales[b])
            if not cuts:
                continue
            if n in pooled:
                parts = pool.starmap(_split_sums, [(roots, n, scaled, factors, cuts, (p, workers))
                                                   for p in range(workers)])
            else:
                parts = [_split_sums(roots, n, scaled, factors, cuts)]
            sums = [sum(column) for column in zip(*parts)]
            assert sums[:len(betas)] == scales, f"level {n} split masses do not sum to 1"
            for (beta, e), (b, _, _), total in zip(pi_params, cuts, sums[len(betas):]):
                results["pi", beta, e, n] = Fraction(total, scales[b])
    return results


def concentration_sweep(mode: Mode, w: TailOnesWord, beta: Fraction, parameter: Param,
                        n_list: Sequence[int], jobs: int = 1) -> ConcentrationReport:
    """Exact tail mass outside the concentration set, for each rank in n_list.

    jobs is passed to sweep_many: it changes no result, and only pi sweeps use a
    pool, from rank 32 on.
    """
    if mode not in ("suffix", "pi"):
        raise ValueError(f"unknown mode {mode!r}")
    n_list = list(n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be nonempty and strictly ascending")
    param = _suffix_rank(parameter) if mode == "suffix" else Fraction(parameter)
    tails = sweep_many(w, n_list, jobs=jobs, **{f"{mode}_params": [(beta, param)]})
    key = (mode, beta, param)
    rows = tuple(SweepRow(n, tails[key + (n,)], 1 - tails[key + (n,)]) for n in n_list)
    return ConcentrationReport(mode, w, Fraction(beta), param, rows)


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
        return _csv_rows([["identity", "instances", "status", "first_counterexample"]]
                         + [[r.name, str(r.instances), "pass" if r.passed else "FAIL",
                             r.first_counterexample or ""] for r in self.results])

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
        total = sum(ctx.row(x, 0))
        rec.check(total == 0, lambda x=x, t=total: f"x={x.text}: sum={Fraction(t, factorial(sum(x)))}")


def _check_evtuh7(ctx, rec):
    """f(x, y, z) = f(ax, y, z) * (rank(ax) - y) for a prepended digit a (the walk's
    prepend law), the row of x raised to rank(ax)!."""
    for alpha in (1, 2):
        for x in _all_words(ctx.max_rank - alpha):
            ax, r = (alpha,) + x, sum(x)
            up = factorial(r + alpha) // factorial(r)
            rows = [(ctx.row(x, z), ctx.row(ax, z)) for z in range(len(x) + 1)]
            for y in range(r + 1):
                for z, (fx, fax) in enumerate(rows):
                    rec.check(fx[y] * up == fax[y] * (r + alpha - y),
                              lambda x=x, a=alpha, y=y, z=z: f"a={a} x={x.text} y={y} z={z}")


def _check_evtuh11(ctx, rec):
    """-y * f(x+1, y, 0) = f(x, y-1, 0) for appended 1 and y >= 1."""
    for x in _all_words(ctx.max_rank - 1):
        r = sum(x)
        fx, fx1 = ctx.row(x, 0), ctx.row(x + (1,), 0)
        for y in range(1, r + 2):
            rec.check(-y * fx1[y] == fx[y - 1] * (r + 1), lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh12(ctx, rec):
    """(1 - y) * f(x+11, y, 0) = f(x+2, y, 0)."""
    for x in _all_words(ctx.max_rank - 2):
        f11, f2 = ctx.row(x + (1, 1), 0), ctx.row(x + (2,), 0)
        for y in range(sum(x) + 3):
            rec.check((1 - y) * f11[y] == f2[y], lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh91(ctx, rec):
    """f(2x, y, length(x)) = f(2x, y, length(2x)) over the full y range."""
    for x in _all_words(ctx.max_rank - 2):
        ax = (2,) + x
        short, full = ctx.row(ax, len(x)), ctx.row(ax, len(ax))
        for y in range(sum(ax) + 1):
            rec.check(short[y] == full[y], lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh92(ctx, rec):
    """f(1x, y, length(x)) = f(1x, y, length(1x)) for y <= rank(x)."""
    for x in _all_words(ctx.max_rank - 1):
        ax = (1,) + x
        short, full = ctx.row(ax, len(x)), ctx.row(ax, len(ax))
        for y in range(sum(x) + 1):
            rec.check(short[y] == full[y], lambda x=x, y=y: f"x={x.text} y={y}")


def _check_evtuh93(ctx, rec):
    """f(2x, rank(x) + 1, z) = 0 for every valid z."""
    for x in _all_words(ctx.max_rank - 2):
        ax = (2,) + x
        for z in range(len(ax) + 1):
            rec.check(ctx.row(ax, z)[sum(x) + 1] == 0, lambda x=x, z=z: f"x={x.text} z={z}")


def _check_q_recurrence(ctx, rec):
    """q(x') = rank(x) * q(x) when x = a + x'."""
    for x in _all_words(ctx.max_rank):
        if len(x) == 0:
            continue
        xp = YFWord(x[1:])
        rec.check(q(xp) == sum(x) * q(x), lambda x=x: f"x={x.text}")


def _check_odnoitozhe(ctx, rec):
    """q(x) = f(x, 0, 0), decided on rank(x)! times both sides."""
    for x in _all_words(ctx.max_rank):
        fac = factorial(sum(x))
        rec.check(fac // prod(suffix_ranks(x)) == ctx.row(x, 0)[0], lambda x=x: f"x={x.text}")


def _check_kusok(ctx, rec):
    """d'_beta(x, w) decomposes over suffix splits of x through d_beta and d'_1.

    Over the kernel denominator rank(x)! D1 of boundary._kernel_terms, the
    split into head (rank r - y) and tail (rank y) contributes
    C(r, y) R(head)[k] * sum(T(tail)) to the coefficient of beta^(y+k), with
    R the z = 0 row of the suite's f memo and sum(T(tail)) / (y! D1) = d'_1(tail, w).
    The int difference of the two sides is formed once per (x, w) and
    evaluated at each beta.
    """
    for x in _all_words(ctx.max_rank):
        r = sum(x)
        splits = [(suffix(x, i), ctx.row(prefix(x, i), 0)) for i in range(len(x) + 1)]
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
        lhs = d_from_empty(x)
        for i in range(len(x) + 1):
            head, tail = prefix(x, i), suffix(x, i)
            rhs = d_from_empty(tail) * d_from_empty(head + (1,) * sum(tail))
            rec.check(lhs == rhs, lambda x=x, i=i: f"x={x.text} split={i}")


def _check_meexy(ctx, rec):
    """pi(v) = pi(head + 1^y) * pi(tail) across every rank split, cross-multiplied on
    harmonic._g_ratio_parts."""
    for v in _all_words(ctx.max_rank):
        num, den = _g_ratio_parts(v, 1)
        for i in range(len(v) + 1):
            head, tail = prefix(v, i), suffix(v, i)
            y = sum(tail)
            head_num, head_den = _g_ratio_parts(head + (1,) * y, 1)
            tail_num, tail_den = _g_ratio_parts(tail, 1)
            rec.check(num * head_den * tail_den == head_num * tail_num * den,
                      lambda v=v, y=y: f"v={v.text} y={y}")


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
        for i, total in enumerate(_binomial_sums(ctx.row(x, 0), len(x))[start:], start):
            rec.check(total == 0, lambda x=x, i=i: f"x={x.text} i={i}")


def _check_binomische2(ctx, rec):
    """The quotient by (1-beta)^length(x) equals the binomial partial-sum polynomial."""
    for x in _all_words(ctx.max_rank):
        if len(x) == 0:
            continue
        partial = _binomial_sums(ctx.row(x, 0), len(x))[:sum(x) - len(x) + 1]
        rec.check(ctx.row_quotient(x) == partial, lambda x=x: f"x={x.text}")


def _check_schyot(ctx, rec):
    """The two-sided recomposition of the binomial partial sums, length(x) >= 2."""
    for x in _all_words(ctx.max_rank):
        L, R = len(x), sum(x)
        if L < 2:
            continue
        row = ctx.row(x, 0)
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
        for i, total in enumerate(_binomial_sums(ctx.row(x, 0), L)[:L + 1]):
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
            rec.check(_scaled_value(ctx.row(x, 0), beta, 2 * r) <= rhs,
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
    """Every column sum respects the product bound, compared as ints: total / den <= b
    iff total * b.denominator <= b.numerator * den."""
    for w in ctx.ws:
        for beta in ctx.betas:
            for n in range(ctx.max_rank + 1):
                sums, den = ctx.column_sums[w, beta, n]
                for y, total in enumerate(sums):
                    bound = ctx.column_bounds[beta, n, y]
                    rec.check(total * bound.denominator <= bound.numerator * den,
                              lambda w=w, b=beta, n=n, y=y: f"{_table_witness(w, b, n)} y={y}")


def _check_lehamed(ctx, rec):
    """Column bounds sum to at most 1 + 1/beta; so does the whole table, whose total
    sum / den at beta = p/q is compared as sum * p <= (p + q) * den."""
    for beta in ctx.betas:
        for n in range(ctx.max_rank + 1):
            bound_total = sum((ctx.column_bounds[beta, n, y] for y in range(n + 1)), Fraction(0))
            rec.check(bound_total <= 1 + 1 / beta, lambda b=beta, n=n: f"beta={b} n={n}")
    for w in ctx.ws:
        for beta in ctx.betas:
            p, q = beta.numerator, beta.denominator
            for n in range(ctx.max_rank + 1):
                sums, den = ctx.column_sums[w, beta, n]
                rec.check(sum(sums) * p <= (p + q) * den,
                          lambda w=w, b=beta, n=n: _table_witness(w, b, n))


def _check_zabe(ctx, rec):
    """Row sums dominate the measure: mu_{w,beta}(v) <= sum of row v.

    At beta = p/q, q^(2n) * mu_{w,beta}(v) is d(empty, v) * sum_i T_i p^i q^(2n-i)
    over the denominator of T, with T_i the kernel coefficients of
    boundary._kernel_terms that kusok uses too.  The row sums come from the
    factored table over its den * q^(2n), built by the class engine, so the
    check compares two engines and both sides stay ints until the comparison.
    """
    d_eps = {v: d_from_empty(v) for v in _all_words(ctx.max_rank)}
    for w in ctx.ws:
        for beta in ctx.betas:
            for n in range(ctx.max_rank + 1):
                table = ctx.tables[w, n]
                rows, _ = table.row_sums(beta)
                for v, row in zip(table.level.words, rows):
                    terms, den = ctx.kernel_terms(v, w)
                    mass = d_eps[v] * _scaled_value(terms, beta, 2 * n)
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

    @cached_property
    def rows(self) -> Callable[[Sequence[int]], list[list[int]]]:
        """harmonic._f_rows(x, length(x)), every int row of a word, built once per word
        and held for this suite run; the suite's only f source."""
        return lru_cache(maxsize=None)(lambda x: _f_rows(x, len(x)))

    def row(self, x: Sequence[int], z: int) -> list[int]:
        """The row [rank(x)! f(x, y, z) for y = 0..rank(x)], read from self.rows."""
        return self.rows(x)[z]

    @cached_property
    def kernel_terms(self) -> Callable[[YFWord, TailOnesWord], tuple[list[int], int]]:
        """boundary._kernel_terms on self.row, one result per (x, w), held for this
        suite run; kusok and zabe share it."""
        return lru_cache(maxsize=None)(lambda x, w: _kernel_terms(x, w, self.row))

    @cached_property
    def tables(self) -> dict[tuple[TailOnesWord, int], FactoredTable]:
        """One factored table per (w, n), from the class engine (magic.factored_table),
        built on first use and held for this suite run."""
        return {(w, n): factored_table(w, n) for w in self.ws for n in range(self.max_rank + 1)}

    @cached_property
    def column_sums(self) -> dict[tuple[TailOnesWord, Fraction, int], tuple[list[int], int]]:
        """FactoredTable.column_sums(beta) of every table at every beta, held for this
        suite run; stolb and lehamed share it."""
        return {(w, beta, n): self.tables[w, n].column_sums(beta)
                for w in self.ws for beta in self.betas for n in range(self.max_rank + 1)}

    @cached_property
    def closed_columns(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """column_closed_form_coeffs(n, y) for every column up to max_rank, held for this
        suite run; dostalo and sum share it."""
        return {(n, y): column_closed_form_coeffs(n, y)
                for n in range(self.max_rank + 1) for y in range(n + 1)}

    @cached_property
    def column_bounds(self) -> dict[tuple[Fraction, int, int], Fraction]:
        """column_bound(beta, n, y) for every beta and column up to max_rank, held for
        this suite run; stolb and lehamed share it for every core."""
        return {(beta, n, y): column_bound(beta, n, y)
                for beta in self.betas for n in range(self.max_rank + 1) for y in range(n + 1)}

    @cached_property
    def row_quotient(self) -> Callable[[YFWord], Optional[list[int]]]:
        """self.row(x, 0) divided by (1 - beta) length(x) times, or None when a division
        leaves a remainder; one per word, held for this suite run."""
        def divide(x: YFWord) -> Optional[list[int]]:
            coeffs = self.row(x, 0)
            for _ in range(len(x)):
                coeffs, remainder = _div_one_minus_beta(coeffs)
                if remainder:
                    return None
            return coeffs
        return lru_cache(maxsize=None)(divide)


def identity_suite(max_rank: int) -> SuiteReport:
    """Run every identity exhaustively up to max_rank over DEFAULT_BETA_GRID and
    the tail-ones words of DEFAULT_CORES.

    Failures become report rows, not exceptions, each with a concrete witness.
    Every f value comes from one memo of harmonic._f_rows per run, one build per
    word with every row z: the f identities compare its entries, the kernels read
    it at z = h, and kusok and the d_beta identities at z = 0.
    """
    if not 0 <= max_rank <= MAX_SUITE_RANK:
        raise ValueError(f"max_rank must lie in 0..{MAX_SUITE_RANK}, got {max_rank}")
    ctx = _SuiteContext(max_rank, DEFAULT_BETA_GRID,
                        tuple(TailOnesWord.parse(c) for c in DEFAULT_CORES))
    results = []
    for name, check in IDENTITY_CHECKS:
        rec = _Recorder()
        check(ctx, rec)
        results.append(rec.result(name))
    return SuiteReport(max_rank, tuple(results))
