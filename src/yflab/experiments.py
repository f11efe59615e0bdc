"""Concentration sets, measure sweeps, and the exhaustive identity suite.

The left-extension walk computes the mass of each word of a level by
itself: levels are generated by prepending a digit, and the vector
F_i = rank! f(v, i, h(v, w)) for i = 0..rank(v) transforms under prepending
by one exact division per entry, because f(x, y, z) = f(ax, y, z) *
(rank(ax) - y) whenever y and z stay inside the shorter word's ranges.
Prepending a 2 also sets the entry at rank(x)+1 to zero, and the new top
entry comes from harmonic._scaled_f; the vector is the row harmonic._f_row
when the common suffix with w grows.  node_mass is then the int n! D mu(v)
over D = q^n P_0 at beta = p/q, given the weights p^i q^(n-i) P_i.  The
walk visits all Fib(n + 1) words of rank n; it is the oracle the tests
check sweeps against, and its stack loop (boundary._prepend) is not theirs.

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
chain node of rank n).  One walker (_halves) grows both halves with the int
key K = pi n! of pi = pi_num / d (_pi_key): the g-values G <= n of a half's
2s are distinct, so d divides n!, and a prepended 2 turns K into K (G - 1) / G
if G > 1.  The b go into one dict per rank r, keyed by Kb, and the u of
rank n - r, Y_u grown from all ones, are sorted by Ku.  Outside (lo, hi),
lo = num / den, the number m of Kb with Kb (den Ku) at most num n!^2 (below
it, for hi) cannot rise with Ku: one scalar pass per bound bisects the Ku for
the runs of equal m, and one vector pass sums the Y_u (_left_groups).  Each run is
multiplied by the running X sum of the m smallest b: about Fib(n / 2)
vectors per side, and one vector add per u.

No beta enters either engine: each sums X vectors of n + 1 ints, per class
or per pi bin, and divides only where the chain is built (boundary), each
division asserted exact.  With c_i = C(n, i) P_i (boundary._mass_coefficients)
and P = harmonic._g_products(core, n), the mass of a bin at beta is
sum_i c_i bin_i beta^i / (n! P_0).  sweep_many asserts c times each engine's
total to be (n! P_0, 0, ..., 0) at every rank, so the masses sum to 1 at
every beta, and builds one Fraction per (beta, bin, rank).  With pi bins and
jobs > 1 it opens one fork pool of min(jobs, os.cpu_count()) workers from
rank _POOL_RANK on, each worker taking a share of the left halves.

The identity suite checks every identity exhaustively over the beta grid and
the cores, and counts one instance per (word or table, beta).  A check counts
its instances in bulk (_Recorder.count) and, where a whole vector decides
them, decides it at once (one list comparison, any or map); it builds a
witness string only for a failing instance (_Recorder.fail), in instance
order, so its counts and first witness are those of a loop over single
instances.  It reads f only from one memo of harmonic._f_rows(x, length(x)),
one build per word with every row z = 0..length(x), as evtuh7 and evtuh91-93
read every z of every word anyway: the f identities compare row entries, the
kernels read rows at z = h, and kusok's heads and the d_beta identities the
rows R(x) at z = 0 and their quotients by (1 - beta)^length(x)
(_div_one_minus_beta).  After evtuh93 the memo keeps only the rows at z = 0
and z = h(x, w).  Every polynomial it decides is one int coefficient list,
compared exactly or evaluated at each beta (boundary._scaled_value).  kusok's
two sides are one int polynomial each per (x, w) in beta, the column law sum's
differ by one per (w, n, y) in (1 - beta^2); each is decided once on its
coefficients, so an instance holds for every beta in (0, 1], and a nonzero
difference fails at every grid point, also where it vanishes.  The magic
tables are integer cells (magic.FactoredTable), all ranks of a core assembled
from one class pass at the top rank (magic._class_pass).  stolb, lehamed and
zabe are decided at each beta on ints: stolb and lehamed read each column
bound as an int pair (num, den), zabe compares the table's row sums with
masses from the pointwise kernel of boundary._kernel_terms, so it checks two
engines against each other, in one pass per table for every beta.  The splits
of kusok, razbivaem and meexy are plain digit tuples.  A _SuiteContext holds,
for one suite run, the rows; each word's d(empty, x) and pi(x) as (num, den),
one pathcount.d_from_empty and one harmonic._g_ratio_parts call per word of
rank <= max_rank, which every split of razbivaem and meexy and every zabe mass
read; the kernel coefficients per (x, w) (the package's only kernel cache);
the factored tables, their column sums at each beta and the column bounds
(lists by rank, fetched once per (w, beta) or beta, so no Fraction is hashed
per column), the closed column coefficients, and each word's quotient and
binomial partial sums.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import nullcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, factorial, lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .boundary import (TailOnesWord, _State, _classes, _g_factors, _kernel_terms,
                       _mass_coefficients, _prepend, _roots_at, _scaled_value, h_infinite)
from .harmonic import (_csv_rows, _f_row, _f_rows, _g_products, _g_ratio_parts, _scaled_f,
                       check_beta, format_rational, pi)
from .magic import (FactoredTable, _assemble_table, _class_pass, _column_bound_parts,
                    column_closed_form_coeffs, level_product)
from .pathcount import d_from_empty
from .words import YFWord, _Frozen, enumerate_level, suffix_ranks

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
    check_beta(beta)
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
    """n! D mu(v) for a rank-n leaf v, as the int d(empty, v) * sum of fvec[i] * weights[i],
    with weights p^i q^(n-i) P_i over D = q^n P_0 at beta = p/q, P = _g_products(core, n)."""
    total = 0
    for Fi, Wi in zip(leaf.fvec, weights):
        if Fi:
            total += Fi * Wi
    return leaf.d_eps * total


# ---------------------------------------------------------------------------
# Class sums and the split-sum engine
# ---------------------------------------------------------------------------

def _class_masses(roots: Sequence[tuple[int, _State]], n: int,
                  factors: Sequence[Sequence[int]]) -> Iterator[tuple[int, list[int]]]:
    """(common-suffix rank, the X sum of the class) for each class of roots, one at a
    time: a root (r, X) gives X[i] S_i(r), S_i(r) the sum of Y_u[i] over the u of
    rank n - r.  Split by u's last digit,

        S_i(n) = S_i(n - 1) = 1,  S_i(r) = S_i(r + 1) + G (G - i) S_i(r + 2),  G = r + 1,

    so one pass of O(n^2) int products serves every class of the rank; factors is
    _g_factors(top) for some top >= n.  No beta enters (see sweep_many)."""
    sums = [[0] * (n + 1), [1] * (n + 1)]  # S(n + 1) = 0 and S(n), then S(r) down to S(0)
    for G in range(n, 0, -1):
        sums.append(list(map(add, sums[-1], map(mul, factors[G], sums[-2]))))
    return ((h_rank, list(map(mul, vec, sums[n + 1 - r]))) for h_rank, (r, vec, _, _) in roots)


def _pi_key(state: _State, fac: int) -> int:
    """pi n! of a half-word state as the int pi_num (n! / d), fac = n! (module docstring)."""
    cofactor, remainder = divmod(fac, state[2])
    assert remainder == 0, f"d = {state[2]} does not divide {fac}"
    return state[3] * cofactor


def _halves(start: tuple[int, list[int], int], stop: int, n: int,
            factors: Sequence[Sequence[int]]) -> Iterator[tuple[int, list[int], int]]:
    """The states (rank, X, K) that _prepend with _grow yields from start, in order, with
    K = pi n! (_pi_key): a prepended 2 of g-value G multiplies X by factors[G] and, if
    G > 1, K by (G - 1) / G, exactly, as d G divides n!.  Vectors are shared, never changed."""
    stack = [start]
    while stack:
        rank, vec, key = state = stack.pop()
        if rank >= stop:
            yield state
            continue
        if rank < n - 1:
            two, remainder = divmod(key * rank, rank + 1) if rank else (key, 0)  # G = rank + 1
            assert remainder == 0, f"g-value {rank + 1} does not divide {key}"
            stack.append((rank + 2, list(map(mul, vec, factors[rank + 1])), two))
        stack.append((rank + 1, vec, key))


def _left_groups(lefts: Sequence[tuple[int, list[int], int]], n: int, keys: Sequence[int],
                 bounds: Sequence[tuple[int, int]]) -> tuple[list[int], list[tuple[dict, dict]]]:
    """The sum of the vectors of lefts (the (rank, Y_u, Ku) of the left halves of one
    right-half rank, ascending in Ku) and, per cut (lo, hi) of pi(v), two dicts m -> the
    sum over the u with m keys Kb (ascending) at most lo / pi(u), or below hi / pi(u);
    bounds holds (den, num n!^2 + 1) at lo and (den, num n!^2) at hi, bound = num / den,
    the least Kb (den Ku) that drops b.  One scalar pass per bound finds the runs of equal
    m, bisecting the Ku for the first to drop keys[m - 1]; one vector pass keeps the running
    sum at the runs' ends, by column sums between them, and a run's sum is a difference."""
    ukeys, runs = [key for _, _, key in lefts], []  # per bound, (m, start, stop) per run
    for den, least in bounds:
        m, start, side = len(keys), 0, []
        while m:  # the first u past start with keys[m - 1] den Ku >= least, by bisection
            i = bisect_left(ukeys, -(-least // (den * keys[m - 1])), start)
            if i == len(ukeys):
                break
            side.append((m, start, i))
            scaled, start = den * ukeys[i], i
            m -= 1
            while m and keys[m - 1] * scaled >= least:
                m -= 1
        side.append((m, start, len(lefts)))
        runs.append(side)
    kept, start = {0: [0] * (n + 1)}, 0  # the running sum of the vectors at each run's ends
    for stop in sorted(({stop for side in runs for _, _, stop in side} | {len(lefts)}) - {0}):
        columns = zip(*[vec for _, vec, _ in lefts[start:stop]])
        kept[stop] = list(map(add, kept[start], map(sum, columns)))
        start = stop
    groups = [{m: list(map(sub, kept[b], kept[a])) if a else kept[b] for m, a, b in side} for side in runs]
    return kept[len(lefts)], list(zip(groups[::2], groups[1::2]))


# A sweep with pi bins and jobs > 1 sums ranks >= _POOL_RANK in its pool:
# worker p of P grows the right halves from the class roots it is sent and
# takes the left halves above the states _TASK_DEPTH above each right half
# whose index is p mod P.  Pi-only sweeps of cores eps, 22 and 212 over the
# two pi pairs of criterion 8, medians of 7 alternated fresh processes on a
# 2-vCPU VM (Python 3.11), serial against 2 workers: 0.21 / 0.24 s at rank
# 34, 0.36 / 0.34 s at 36, 0.66 / 0.61 s at 38 (peak RSS 46 / 35 MiB),
# 1.27 / 1.13 s at 40 and 2.08 / 1.70 s at 42; the pool won 1 of 7 pairs at
# 34, 7 of 7 at 36 (4 to 7 of 7 in earlier runs), 5 of 7 at 38 and 7 of 7
# from 40 on.  A one-pair CLI sweep of core 22 was slower with 2 workers at
# 36 and 38 in earlier runs: the two disagree, so 38 stays.
_POOL_RANK = 38
_TASK_DEPTH = 6


def _split_sums(roots: Sequence[tuple[int, _State]], n: int, factors: Sequence[Sequence[int]],
                cuts: Sequence[tuple[Fraction, Fraction]], share: tuple[int, int] = (0, 1),
                split: Optional[int] = None) -> list[list[int]]:
    """Sums of X(v) over the rank-n words v: all words, then per cut (lo, hi) those
    with pi(v) outside the open interval (lo, hi); no beta enters, as in
    _class_masses.  Right halves grow from the class roots to rank split (default
    n // 2); both halves come keyed by the int pi n! from _halves and sort as ints,
    as in the module docstring, and each cut's bounds are read once per call;
    share = (p, P) keeps and sorts part p of P of the left halves, and the P parts
    add up to the whole; factors is _g_factors(top) for some top >= n.  A cut with
    lo >= hi is refused: its buckets would overlap."""
    if any(lo >= hi for lo, hi in cuts):
        raise ValueError(f"every cut needs lo < hi, got {cuts!r}")
    k = n // 2 if split is None else split
    fac = factorial(n)
    bounds = [(bound.denominator, bound.numerator * fac * fac + least)
              for lo, hi in cuts for bound, least in ((lo, 1), (hi, 0))]
    right: dict[int, dict] = {}  # r -> X sums by the key pi(b) n!
    for _, root in roots:
        for r, vec, key in _halves((root[0], root[1], _pi_key(root, fac)), k, n, factors):
            by_pi = right.setdefault(r, {})
            by_pi[key] = list(map(add, by_pi[key], vec)) if key in by_pi else vec
    part, parts = share
    whole, outside = [0] * (n + 1), [[0] * (n + 1) for _ in cuts]
    for r, by_pi in right.items():
        keys = sorted(by_pi)
        tasks = _halves((r, [1] * (n + 1), fac), min(r + _TASK_DEPTH, n), n, factors)
        lefts = sorted((state for i, task in enumerate(tasks) if i % parts == part
                        for state in _halves(task, n, n, factors)), key=itemgetter(2))
        total, buckets = _left_groups(lefts, n, keys, bounds)
        # outside (lo, hi): every pair, plus the keys at most lo / pi(u), less those below
        # hi / pi(u); running is the sum over the m smallest keys, zero at m = 0
        running, j = [0] * (n + 1), 0
        for m in sorted({m for pair in buckets for groups in pair for m in groups} - {0}):
            for key in keys[j:m]:
                running = list(map(add, running, by_pi[key]))
            j = m
            for c, (at_most, below) in enumerate(buckets):
                if m in at_most:
                    outside[c] = list(map(add, outside[c], map(mul, running, at_most[m])))
                if m in below:
                    outside[c] = list(map(sub, outside[c], map(mul, running, below[m])))
        for key in keys[j:]:
            running = list(map(add, running, by_pi[key]))
        whole = list(map(add, whole, map(mul, running, total)))
    return [whole] + [list(map(add, whole, vector)) for vector in outside]


# ---------------------------------------------------------------------------
# Concentration sweeps
# ---------------------------------------------------------------------------

class SweepRow(NamedTuple):
    n: int
    tail: Fraction
    head: Fraction


class ConcentrationReport(NamedTuple):
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
    roots from it (_roots_at).  Each bin of a rank is one beta-free int vector,
    suffix bins from _class_masses, pi bins from _split_sums; c times each
    engine's total is asserted to be (n! P_0, 0, ..., 0), and each (bin, beta)
    becomes one Fraction over n! P_0 q^n (see the module docstring).  jobs is
    clamped to the CPU count.  With pi parameters and more than one worker, one
    fork pool opens when some rank is at least _POOL_RANK (38) and shares those
    ranks' left halves among its workers; suffix tails, lower ranks and one CPU
    run in-process.  Results are identical for every jobs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if any(n < 0 for n in n_list):
        raise ValueError(f"ranks must be nonnegative, got {list(n_list)}")
    for beta, _ in (*suffix_params, *pi_params):
        check_beta(beta)
    suffix_params = [(beta, _suffix_rank(l)) for beta, l in suffix_params]
    if any(e <= 0 for _, e in pi_params):
        raise ValueError("eps must be positive")
    piw = pi(w)
    cuts = [(piw * (beta - e), piw * (beta + e)) for beta, e in pi_params]
    workers = min(jobs, os.cpu_count() or 1)
    pooled = [n for n in n_list if n >= _POOL_RANK] if workers > 1 and cuts else []
    results: dict[tuple[Mode, Fraction, Param, int], Fraction] = {}
    top = max(n_list, default=0)
    classes, factors, products = _classes(w, top), _g_factors(top), _g_products(w.core, top)
    if pooled:
        import multiprocessing  # only pooled pi sweeps need it; every command's start-up skips it
    with multiprocessing.get_context("fork").Pool(workers) if pooled else nullcontext() as pool:
        for n in n_list:
            coeffs, den = _mass_coefficients(products, n)
            unit = [den] + [0] * n  # 1 as a polynomial over n! P_0
            roots = _roots_at(classes, n)
            total, below = [0] * (n + 1), {l: [0] * (n + 1) for _, l in suffix_params}
            for h, vector in _class_masses(roots, n, factors):  # one class vector held at a time
                total = list(map(add, total, vector))
                below = {l: list(map(add, acc, vector)) if h < l else acc for l, acc in below.items()}
            totals = {"class": total}
            bins = [("suffix", beta, l, below[l]) for beta, l in suffix_params]  # no Fraction hashed
            if cuts:
                parts = (pool.starmap(_split_sums, [(roots, n, factors, cuts, (p, workers))
                                                    for p in range(workers)])
                         if n in pooled else [_split_sums(roots, n, factors, cuts)])
                totals["split"], *outside = [list(map(sum, zip(*shares))) for shares in zip(*parts)]
                bins += [("pi", beta, e, vector) for (beta, e), vector in zip(pi_params, outside)]
            for engine, total in totals.items():
                assert list(map(mul, coeffs, total)) == unit, f"level {n} {engine} masses do not sum to 1"
            for mode, beta, param, vector in bins:
                value = _scaled_value(list(map(mul, coeffs, vector)), beta, n)
                results[mode, beta, param, n] = Fraction(value, unit[0] * beta.denominator ** n)
    return results


def concentration_sweep(mode: Mode, w: TailOnesWord, beta: Fraction, parameter: Param,
                        n_list: Sequence[int], jobs: int = 1) -> ConcentrationReport:
    """Exact tail mass outside the concentration set, for each rank in n_list.

    jobs is passed to sweep_many: it changes no result, and only pi sweeps use a
    pool, from rank 38 on.
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

class IdentityResult(NamedTuple):
    name: str
    instances: int
    failures: int
    first_counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


class SuiteReport(NamedTuple):
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
    """Instance and failure counts of one identity: a check counts its instances in
    bulk and reports its failing instances in instance order, the first one's
    witness kept."""

    def __init__(self):
        self.instances = 0
        self.failures = 0
        self.first: Optional[str] = None

    def count(self, k: int) -> None:
        self.instances += k

    def fail(self, witness: str, k: int = 1) -> None:
        """k counted instances fail, the first of them witnessed by witness."""
        self.failures += k
        if self.first is None:
            self.first = witness

    def result(self, name: str) -> IdentityResult:
        return IdentityResult(name, self.instances, self.failures, self.first)


def _all_words(max_rank: int, min_rank: int = 0):
    for n in range(min_rank, max_rank + 1):
        yield from enumerate_level(n)


def _mismatches(lhs: Sequence[int], rhs: Sequence[int], start: int = 0) -> list[int]:
    """The indices, counted from start, where two equal-length vectors differ; none
    are looked for when the vectors are equal."""
    if lhs == rhs:
        return []
    return [i for i, a, b in zip(range(start, start + len(lhs)), lhs, rhs) if a != b]


DEFAULT_BETA_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
DEFAULT_CORES = ("eps", "2", "22", "212")
MAX_SUITE_RANK = 16


def _check_evtuh5(ctx, rec):
    """sum over i of f(x, i, 0) vanishes for every nonempty x."""
    for n in range(1, ctx.max_rank + 1):  # every nonempty word
        level = enumerate_level(n)
        rec.count(len(level))
        for x in level:
            total = sum(ctx.row(x, 0))
            if total:
                rec.fail(f"x={x.text}: sum={Fraction(total, factorial(n))}")


def _check_evtuh7(ctx, rec):
    """f(x, y, z) = f(ax, y, z) * (rank(ax) - y) for a prepended digit a (the walk's
    prepend law), the row of x raised to rank(ax)!."""
    for alpha in (1, 2):
        for x in _all_words(ctx.max_rank - alpha):
            ax, r = (alpha,) + x, sum(x)
            up = factorial(r + alpha) // factorial(r)
            scale = range(r + alpha, alpha - 1, -1)  # rank(ax) - y for y = 0..r
            sides = [([c * up for c in ctx.row(x, z)], list(map(mul, ctx.row(ax, z), scale)))
                     for z in range(len(x) + 1)]
            rec.count((r + 1) * len(sides))
            if any(lhs != rhs for lhs, rhs in sides):
                for y in range(r + 1):
                    for z, (lhs, rhs) in enumerate(sides):
                        if lhs[y] != rhs[y]:
                            rec.fail(f"a={alpha} x={x.text} y={y} z={z}")


def _check_evtuh11(ctx, rec):
    """-y * f(x+1, y, 0) = f(x, y-1, 0) for appended 1 and y >= 1."""
    for x in _all_words(ctx.max_rank - 1):
        r = sum(x)
        lhs = list(map(mul, ctx.row(x + (1,), 0)[1:], range(-1, -r - 2, -1)))
        rec.count(r + 1)
        for y in _mismatches(lhs, [c * (r + 1) for c in ctx.row(x, 0)], 1):
            rec.fail(f"x={x.text} y={y}")


def _check_evtuh12(ctx, rec):
    """(1 - y) * f(x+11, y, 0) = f(x+2, y, 0)."""
    for x in _all_words(ctx.max_rank - 2):
        r = sum(x)
        lhs = list(map(mul, ctx.row(x + (1, 1), 0), range(1, -r - 2, -1)))
        rec.count(r + 3)
        for y in _mismatches(lhs, ctx.row(x + (2,), 0)):
            rec.fail(f"x={x.text} y={y}")


def _check_evtuh91(ctx, rec):
    """f(2x, y, length(x)) = f(2x, y, length(2x)) over the full y range."""
    for x in _all_words(ctx.max_rank - 2):
        ax = (2,) + x
        rec.count(sum(ax) + 1)
        for y in _mismatches(ctx.row(ax, len(x)), ctx.row(ax, len(ax))):
            rec.fail(f"x={x.text} y={y}")


def _check_evtuh92(ctx, rec):
    """f(1x, y, length(x)) = f(1x, y, length(1x)) for y <= rank(x)."""
    for x in _all_words(ctx.max_rank - 1):
        ax, r = (1,) + x, sum(x)
        rec.count(r + 1)
        for y in _mismatches(ctx.row(ax, len(x))[:r + 1], ctx.row(ax, len(ax))[:r + 1]):
            rec.fail(f"x={x.text} y={y}")


def _check_evtuh93(ctx, rec):
    """f(2x, rank(x) + 1, z) = 0 for every valid z."""
    for x in _all_words(ctx.max_rank - 2):
        ax, y = (2,) + x, sum(x) + 1
        rec.count(len(ax) + 1)
        for z in range(len(ax) + 1):
            if ctx.row(ax, z)[y]:
                rec.fail(f"x={x.text} z={z}")


def _check_q_recurrence(ctx, rec):
    """q(x') = rank(x) * q(x) when x = a + x', decided on the reciprocals as ints:
    prod(suffix_ranks(x)) = rank(x) * prod(suffix_ranks(x'))."""
    for n in range(1, ctx.max_rank + 1):  # every nonempty word
        level = enumerate_level(n)
        rec.count(len(level))
        for x in level:
            if prod(suffix_ranks(x)) != n * prod(suffix_ranks(x[1:])):
                rec.fail(f"x={x.text}")


def _check_odnoitozhe(ctx, rec):
    """q(x) = f(x, 0, 0), decided on rank(x)! times both sides."""
    for n in range(ctx.max_rank + 1):
        level, fac = enumerate_level(n), factorial(n)
        rec.count(len(level))
        for x in level:
            if fac // prod(suffix_ranks(x)) != ctx.row(x, 0)[0]:
                rec.fail(f"x={x.text}")


def _check_kusok(ctx, rec):
    """d'_beta(x, w) decomposes over suffix splits of x through d_beta and d'_1.

    Over the kernel denominator rank(x)! D1 of boundary._kernel_terms, the
    split into head (rank r - y) and tail (rank y) contributes
    C(r, y) R(head)[k] * sum(T(tail)) to the coefficient of beta^(y+k), with
    R the z = 0 row of the suite's f memo and sum(T(tail)) / (y! D1) = d'_1(tail, w),
    summed once per (tail, w).  So coefficient k of the right side is the dot
    product of column k, the C(r, y) R(head)[k - y] of the splits with y <= k
    (the same for every w), with the tails' kernel sums.  The two int coefficient
    lists are compared once per (x, w); its len(betas) instances (x, w, beta)
    hold iff they are equal, so for every beta in (0, 1], and fail together.
    """
    sums = {(x, w): sum(ctx.kernel_terms(x, w)[0]) for x in _all_words(ctx.max_rank) for w in ctx.ws}
    for x in _all_words(ctx.max_rank):
        r, L = sum(x), len(x)
        tails = [x[L - i:] for i in range(L + 1)]
        heads = [(sum(tail), ctx.row(x[:L - i], 0)) for i, tail in enumerate(tails)]
        columns = [[comb(r, y) * row[k - y] for y, row in heads if y <= k] for k in range(r + 1)]
        rec.count(len(ctx.ws) * len(ctx.betas))
        for w in ctx.ws:
            tail_sums = [sums[tail, w] for tail in tails]
            if ctx.kernel_terms(x, w)[0] != [sum(map(mul, column, tail_sums)) for column in columns]:
                rec.fail(f"x={x.text} core={w.core.text or 'eps'} beta={ctx.betas[0]}", len(ctx.betas))


def _check_razbivaem(ctx, rec):
    """d(empty, head + tail) = d(empty, tail) * d(empty, head + 1^rank(tail)), every
    factor read from _SuiteContext.d_eps."""
    d_eps = ctx.d_eps
    for x in _all_words(ctx.max_rank):
        lhs = d_eps[x]
        rec.count(len(x) + 1)
        for i in range(len(x) + 1):  # i = length(tail)
            head, tail = x[:len(x) - i], x[len(x) - i:]
            if lhs != d_eps[tail] * d_eps[head + (1,) * sum(tail)]:
                rec.fail(f"x={x.text} split={i}")


def _check_meexy(ctx, rec):
    """pi(v) = pi(head + 1^y) * pi(tail) across every rank split, cross-multiplied on
    harmonic._g_ratio_parts, read from _SuiteContext.pi_parts."""
    pi_parts = ctx.pi_parts
    for v in _all_words(ctx.max_rank):
        num, den = pi_parts[v]
        rec.count(len(v) + 1)
        for i in range(len(v) + 1):  # i = length(tail)
            head, tail = v[:len(v) - i], v[len(v) - i:]
            y = sum(tail)
            head_num, head_den = pi_parts[head + (1,) * y]
            tail_num, tail_den = pi_parts[tail]
            if num * head_den * tail_den != head_num * tail_num * den:
                rec.fail(f"v={v.text} y={y}")


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
    power-series coefficients of row(beta) / (1 - beta)^m, as m prefix sums in turn
    (1 / (1 - beta) sums a prefix).  For R(x) and m = length(x) these are rank(x)!
    times the binomial partial sums of x."""
    for _ in range(m):
        row = list(accumulate(row))
    return row


def _check_delitsa(ctx, rec):
    """The beta polynomial divides by (1 - beta) exactly length(x) times, no more."""
    for n in range(ctx.max_rank + 1):
        level = enumerate_level(n)
        rec.count(len(level))
        for x in level:
            quotient = ctx.row_quotient(x)
            if quotient is None or sum(quotient) == 0:
                rec.fail(f"x={x.text}")


def _check_binomische1(ctx, rec):
    """The binomial partial sums vanish for rank(x) - length(x) < i <= rank(x)."""
    for x in _all_words(ctx.max_rank, 1):  # every nonempty word
        start = sum(x) - len(x) + 1
        tail = ctx.binomial_sums(x)[start:]
        rec.count(len(tail))
        if any(tail):
            for i, total in enumerate(tail, start):
                if total:
                    rec.fail(f"x={x.text} i={i}")


def _check_binomische2(ctx, rec):
    """The quotient by (1-beta)^length(x) equals the binomial partial-sum polynomial."""
    for n in range(1, ctx.max_rank + 1):  # every nonempty word
        level = enumerate_level(n)
        rec.count(len(level))
        for x in level:
            if ctx.row_quotient(x) != ctx.binomial_sums(x)[:n - len(x) + 1]:
                rec.fail(f"x={x.text}")


def _check_schyot(ctx, rec):
    """The two-sided recomposition of the binomial partial sums, length(x) >= 2."""
    for x in _all_words(ctx.max_rank):
        L, R = len(x), sum(x)
        if L < 2:
            continue
        row, partial = ctx.row(x, 0), ctx.binomial_sums(x)
        second = _binomial_sums(list(map(mul, row, range(R, -1, -1))), L - 1)  # (R - j) row[j]
        # partial[i] (R - i) against partial[i - 1] (R - i - L + 1) + second[i], i = 1..R
        lhs = list(map(mul, partial[1:], range(R - 1, -1, -1)))
        rhs = list(map(add, map(mul, partial, range(R - L, -L, -1)), second[1:]))
        rec.count(R)
        for i in _mismatches(lhs, rhs, 1):
            rec.fail(f"x={x.text} i={i}")


def _check_binom1(ctx, rec):
    """Binomial partial sums are bounded by q(x) * C(length(x), i) for i <= length(x)."""
    for x in _all_words(ctx.max_rank, 1):  # every nonempty word
        L = len(x)
        scaled_q = factorial(sum(x)) // prod(suffix_ranks(x))  # rank(x)! q(x)
        rec.count(L + 1)
        for i, total in enumerate(ctx.binomial_sums(x)[:L + 1]):
            if total > scaled_q * comb(L, i):
                rec.fail(f"x={x.text} i={i}")


def _check_mamka2(ctx, rec):
    """d_beta(x) <= q(x) * (1 - beta^2)^length(x) on the beta grid, decided at
    beta = p/q on rank(x)! q^(2 rank(x)) times both sides."""
    for x in _all_words(ctx.max_rank):
        L, r = len(x), sum(x)
        scaled_q = factorial(r) // prod(suffix_ranks(x))
        rec.count(len(ctx.betas))
        for beta in ctx.betas:
            p, den = beta.numerator, beta.denominator
            rhs = scaled_q * (den * den - p * p) ** L * den ** (2 * r - 2 * L)
            if _scaled_value(ctx.row(x, 0), beta, 2 * r) > rhs:
                rec.fail(f"x={x.text} beta={beta}")


def _check_dostalo(ctx, rec):
    """Sum over rank-(n-y) words of q * d(empty, word + 1^y) equals the closed product;
    the sum is taken from the int closed column coefficients that sum uses too."""
    for n in range(ctx.max_rank + 1):
        rec.count(n + 1)
        for y in range(n + 1):
            if sum(ctx.closed_columns[n, y]) != level_product(n, y) * factorial(n - y):
                rec.fail(f"n={n} y={y}")


def _table_witness(w: TailOnesWord, beta: Fraction, n: int) -> str:
    return f"core={w.core.text or 'eps'} beta={beta} n={n}"


def _check_sum(ctx, rec):
    """Every table column sums to its closed single-level form.

    Both sides of column y are beta^y times a polynomial in (1 - beta^2):
    the table's coefficients are FactoredTable.columns[y] over its den, the
    closed form's are column_closed_form_coeffs(n, y) over (n - y)!, the same
    for every w.  Their difference over den (n - y)! is formed once per
    (w, n, y); its len(betas) instances (w, beta, n, y) hold iff no coefficient
    is nonzero.  Instances run over w, beta, n, y in turn, so a core's first
    failure is at the first beta, and each failing column fails at every beta.
    """
    for w in ctx.ws:
        for n in range(ctx.max_rank + 1):
            table = ctx.tables[w, n]
            rec.count(len(ctx.betas) * len(table.columns))
            for y, column in enumerate(table.columns):
                fac = factorial(n - y)
                if any(c * fac != b * table.den for c, b in zip(column, ctx.closed_columns[n, y])):
                    rec.fail(f"{_table_witness(w, ctx.betas[0], n)} y={y}", len(ctx.betas))


def _check_stolb(ctx, rec):
    """Every column sum respects the product bound, compared as ints: total / den <=
    num / bound_den iff total * bound_den <= num * den."""
    for w in ctx.ws:
        for beta in ctx.betas:
            column_sums, column_bounds = ctx.column_sums[w, beta], ctx.column_bounds[beta]
            for n in range(ctx.max_rank + 1):
                sums, den = column_sums[n]
                rec.count(len(sums))
                for y, (total, (num, bound_den)) in enumerate(zip(sums, column_bounds[n])):
                    if total * bound_den > num * den:
                        rec.fail(f"{_table_witness(w, beta, n)} y={y}")


def _check_lehamed(ctx, rec):
    """Column bounds sum to at most 1 + 1/beta; so does the whole table.  At beta = p/q
    both totals are ints over one denominator D and compared as total * p <= (p + q) * D:
    the bounds over the lcm of their denominators, the table over its den."""
    rec.count(len(ctx.betas) * (ctx.max_rank + 1))
    for beta in ctx.betas:
        p, q = beta.numerator, beta.denominator
        for n, bounds in enumerate(ctx.column_bounds[beta]):
            den = lcm(*(bound_den for _, bound_den in bounds))
            bound_total = sum(num * (den // bound_den) for num, bound_den in bounds)
            if bound_total * p > (p + q) * den:
                rec.fail(f"beta={beta} n={n}")
    rec.count(len(ctx.ws) * len(ctx.betas) * (ctx.max_rank + 1))
    for w in ctx.ws:
        for beta in ctx.betas:
            p, q = beta.numerator, beta.denominator
            for n, (sums, den) in enumerate(ctx.column_sums[w, beta]):
                if sum(sums) * p > (p + q) * den:
                    rec.fail(_table_witness(w, beta, n))


def _check_zabe(ctx, rec):
    """Row sums dominate the measure: mu_{w,beta}(v) <= sum of row v.

    At beta = p/q, q^(2n) * mu_{w,beta}(v) is d(empty, v) * sum_i T_i p^i q^(2n-i)
    over the denominator of T, with T_i the kernel coefficients of
    boundary._kernel_terms that kusok uses too, and d(empty, v) read from
    _SuiteContext.d_eps.  The row sums come from the factored table over its
    den * q^(2n), built by the class engine, so the check compares two engines
    and both sides stay ints until the comparison.  One pass per table reads each
    word's kernel and d(empty, v) once for every beta; a core's failures are then
    reported in instance order (beta, n, v).
    """
    d_eps, betas = ctx.d_eps, ctx.betas
    for w in ctx.ws:
        failures = []  # (beta index, n, word index, word) per failing instance
        for n in range(ctx.max_rank + 1):
            table = ctx.tables[w, n]
            rows = [table.row_sums(beta)[0] for beta in betas]
            rec.count(len(betas) * len(table.level))
            for i, v in enumerate(table.level.words):
                terms, den = ctx.kernel_terms(v, w)
                scale = d_eps[v] * table.den
                for j, beta in enumerate(betas):
                    if scale * _scaled_value(terms, beta, 2 * n) > rows[j][i] * den:
                        failures.append((j, n, i, v))
        for j, n, _, v in sorted(failures):
            rec.fail(f"{_table_witness(w, betas[j], n)} v={v.text}")


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


class _SuiteContext(_Frozen):
    def __init__(self, max_rank: int, betas: tuple[Fraction, ...], ws: tuple[TailOnesWord, ...]):
        # beside the cached properties; rows maps each word to its rows by z
        vars(self).update(max_rank=max_rank, betas=betas, ws=ws, rows={})

    def row(self, x: Sequence[int], z: int) -> list[int]:
        """The row [rank(x)! f(x, y, z) for y = 0..rank(x)], read from self.rows: the
        suite's only f source, harmonic._f_rows(x, length(x)) built once per word on
        first use, every row z, until cut_rows keeps fewer."""
        rows = self.rows.get(x)
        if rows is None:
            rows = self.rows[x] = _f_rows(x, len(x))
        return rows[z]

    def cut_rows(self) -> None:
        """Keep each held word's rows at z = 0 and z = h(x, w) for each core, and drop the
        rest.  Only evtuh7 and evtuh91-93 read rows at other z; every later check reads
        z = 0 (kusok's heads, odnoitozhe and the d_beta identities) or z = h (the
        kernels), so a later read of a dropped row is a KeyError."""
        for x, rows in self.rows.items():
            self.rows[x] = {z: rows[z] for z in {0, *(h_infinite(x, w).length for w in self.ws)}}

    @cached_property
    def kernel_terms(self) -> Callable[[YFWord, TailOnesWord], tuple[list[int], int]]:
        """boundary._kernel_terms on self.row, one result per (x, w), held for this
        suite run; kusok and zabe share it."""
        return lru_cache(maxsize=None)(lambda x, w: _kernel_terms(x, w, self.row))

    @cached_property
    def d_eps(self) -> dict[YFWord, int]:
        """d(empty, x) for every word of rank <= max_rank, one d_from_empty call each:
        razbivaem's factors and zabe's masses."""
        return {x: d_from_empty(x) for x in _all_words(self.max_rank)}

    @cached_property
    def pi_parts(self) -> dict[YFWord, tuple[int, int]]:
        """harmonic._g_ratio_parts(x, 1), pi(x) as (num, den), for every word of rank <=
        max_rank, one call each: meexy's factors."""
        return {x: _g_ratio_parts(x, 1) for x in _all_words(self.max_rank)}

    @cached_property
    def tables(self) -> dict[tuple[TailOnesWord, int], FactoredTable]:
        """One factored table per (w, n), built on first use and held for this suite run:
        one class pass per core at max_rank (magic._class_pass) serves the tables of
        every rank up to it."""
        tables = {}
        for w in self.ws:
            known, d1 = _class_pass(w, self.max_rank)
            for n in range(self.max_rank + 1):
                tables[w, n] = _assemble_table(w, n, known, d1)
        return tables

    @cached_property
    def column_sums(self) -> dict[tuple[TailOnesWord, Fraction], list[tuple[list[int], int]]]:
        """FactoredTable.column_sums(beta) of every table at every beta, a list by rank n
        per (w, beta), held for this suite run; stolb and lehamed share it."""
        return {(w, beta): [self.tables[w, n].column_sums(beta) for n in range(self.max_rank + 1)]
                for w in self.ws for beta in self.betas}

    @cached_property
    def closed_columns(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """column_closed_form_coeffs(n, y) for every column up to max_rank, held for this
        suite run; dostalo and sum share it."""
        return {(n, y): column_closed_form_coeffs(n, y)
                for n in range(self.max_rank + 1) for y in range(n + 1)}

    @cached_property
    def column_bounds(self) -> dict[Fraction, list[list[tuple[int, int]]]]:
        """magic.column_bound(beta, n, y) as its int pair (num, den) for every beta and
        column up to max_rank, a list indexed [n][y] per beta, held for this suite run;
        stolb and lehamed share it for every core."""
        return {beta: [[_column_bound_parts(beta, n, y) for y in range(n + 1)]
                       for n in range(self.max_rank + 1)] for beta in self.betas}

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

    @cached_property
    def binomial_sums(self) -> Callable[[YFWord], list[int]]:
        """_binomial_sums(self.row(x, 0), length(x)) for a nonempty x, one per word for this
        suite run; binomische1, binomische2, schyot and binom1 share it."""
        return lru_cache(maxsize=None)(lambda x: _binomial_sums(self.row(x, 0), len(x)))


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
        if name == "evtuh93":  # the last f identity that reads rows at every z
            ctx.cut_rows()
    return SuiteReport(max_rank, tuple(results))
