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
int coefficients T_i = rank(x)! f(x, i, h) P_i, with rank(x)! f(x, i, h) the
row harmonic._f_row(x, h) and P_i = prod_j (g(w, j) - i) the shared vector
harmonic._g_products(core, rank(x)), over rank(x)! P_0.  So every x of one
rank reads one vector, held in that function's bounded memo.  d_beta_prime
evaluates the kernel at beta = p/q in ints (_scaled_value) and builds one
Fraction; d1_prime sums it.  mu and d_beta_prime stay the pointwise route.
mass_weights scales the same vector by the powers of p and q: (W, D), one
pair per level.  No kernel is memoized here: the identity suite holds one
kernel per (x, w) for a run.

The class engine gives the masses of whole levels.  Let s_L be the chain
node suffix_of_infinite(w, L).  Fix z = L and give a word v = x + s_L of rank
R <= n the vector of n + 1 ints

    X[i] = d(empty, v) i! (n - i)! f(1^(n - R) + v, i, L),    i = 0..n,

d(empty, v) i! (R - i)! f(v, i, L) for i <= R; by the prepend law no X[i]
depends on n, so one chain built at a top rank serves every rank up to it,
cut to n + 1 entries (_roots_at).  A word v of rank n with h(v, w) = L is
x + s_L, and n! D mu(v) is sum_i C(n, i) W_i X[i].  Prepending a 1 leaves X
unchanged, as the padded word stays the same, and prepending a 2 of g-value
G = R + 1 multiplies X[i] by G (G - i) (_grow): below R + 1 by the
left-extension law, and above because the unwind of f(1^j + 2 + v, i, L)
never reaches the 2 and its base values are -(i - R - 1) times those of
1^(j + 2) + v.  So if v = u + b with h(v, w) = h(b), then
X(v)[i] = X(b)[i] Y_u[i] with

    Y_u[i] = prod over the 2s of u of G (G - i),  G = rank(b) + sigma - 1,

sigma the rank of the suffix of u that starts at the 2; likewise
d(empty, v) = d(empty, b) e_u, with e_u the product of the G, and
pi(v) = pi(b) prod (G - 1)/G over the G > 1.  A state (_State) carries
X with the products of the G and of the G - 1.

The classes (_classes): with b_L = (3 - w.digit_from_right(L)) + s_L, every
rank-n word but the chain node of rank n is u + b_L for exactly one L (b_L is
its shortest suffix that is not a chain node), and class L is every such
u + b_L.  Its words all have h(v, w) = L and common-suffix rank rank(s_L), and
the chain node of rank n is a class alone.  _class_words yields the state
of every word of rank <= top once, each chain node alone and each u + b_L
grown from its root, one int product per prepended 2.  level_distribution
keeps the words of rank n, one dot product each; magic.factored_table reads
every word's d(empty, v) and kernel sum from them (for a word t of rank r,
sum_i C(r, i) P_i X[i] = d(empty, t) sum_i r! f(t, i, h) P_i, the sum of
_kernel_terms(t, w) times d(empty, t)).  The sweeps of experiments sum
whole classes.

The chain (_classes) starts at the empty word, of state (0, [(-1)^i], 1, 1)
as X[i] = i! (n - i)! f(1^n, i, 0) = (-1)^i, and takes s_{L+1} from s_L by
the digit it prepends.  Let rho = rank(s_L), d = d(empty, s_L) and p the
padded word of s_{L+1}, read at z = L + 1.  A 2: _grow gives the vector of p
at z = L, and f(p, i, L + 1) = f(p, i, L).  For i <= rho + 2 that is evtuh91,
f(2x, y, length(x)) = f(2x, y, length(2x)), carried to p by the prepend law.
For i = rho + y, y >= 3, the unwinds at z = L + 1 and at z = L take the same
steps through s_L and end at f(1^k + 2, y, 1) = (f(1^(k+2), y, 0) +
f(1^(k+1), y-1, 0) + f(1^k, y-2, 0)) / (1 - y) = (-1)^(y-1) (y - 1) /
(y! (k + 2 - y)!) and at f(1^k + 2, y, 0), which is the same.  A 1: p is
s_L's padded word and only z moves, so the node follows by a closed-form
correction (_next_chain_state).  With t the number of 2s of s_L and r_2, for
each 2, the rank of s_L from its left end through that 2,

    X_{L+1}[i] = X_L[i]                                                 for i <= rho,
    X_{L+1}[rho+1+j] = X_L[rho+1+j] + d (-1)^(j+t) (rho+1+j)! / (j! prod_2 (j + r_2)).

The first line is the prepend law with f(1x, y, length(x)) =
f(1x, y, length(1x)) for y <= rank(x) (evtuh7 and evtuh92).  For the second,
i = rho + 1 + j: the prepend law leaves i! f(1^(j+1) + s_L, i, z), and its
unwinds at z = L + 1 and at z = L take the same steps through s_L.  At
z = L + 1 one step remains, f(1^(j+1), j+1, 1) = f(1^(j+1), j+1, 0) +
f(1^j, j, 0), so the two differ by (-1)^j / j! over the 2-step divisors
1 - (j + 1 + r_2), one per 2.  Of the factors j + 1..j + rho + 1 of
(rho+1+j)! / j!, the j + r_2 are distinct, so each correction is an int; its
running quotient is asserted exact.  A chain to top rank n costs O(n^2) int
steps; test_classes_equal_the_padded_rows checks every node against its row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .harmonic import _f_row, _g_products
from .pathcount import d_from_empty, d_paths_dp
from .words import EPSILON, YFWord, _Frozen, check_level_rank


class TailOnesWord(_Frozen):
    """The infinite word 1^inf + core, with a canonical core.

    The core is empty (the all-ones word) or begins with a 2; parse() and
    from_core() canonicalize by stripping leading 1s.
    """

    __slots__ = ("core", "_hash")

    def __init__(self, core: YFWord):
        if core.__class__ is not YFWord:  # from_core and parse pass YFWords; refuse other digits
            core = YFWord(core)
        if len(core) > 0 and core[0] == 1:
            raise ValueError("core must not begin with 1 (absorb leading 1s into the tail)")
        object.__setattr__(self, "core", core)

    def __eq__(self, other):
        return self.core == other.core if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):  # hash((core,)), cached on first use: w is a memo and dict key everywhere
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.core,)))
        return self._hash

    def __reduce__(self):
        return TailOnesWord, (self.core,)

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
    and D = q^top prod_j g(w,j), so W[i] / D = beta^i prod_j (g(w,j) - i)/g(w,j);
    the products are the vector harmonic._g_products(core, top).
    """
    p, q = beta.numerator, beta.denominator
    products = _g_products(w.core, top)
    return [p ** i * q ** (top - i) * P for i, P in enumerate(products)], q ** top * products[0]


def _kernel_terms(x, w: TailOnesWord, f_row=_f_row) -> tuple[list[int], int]:
    """The int coefficients T_0..T_rank of d'_beta(x, w) as a polynomial in beta, and
    their shared denominator: the row f_row(x, h) (harmonic._f_row, or the
    identity suite's reader of its per-word rows) times the g-products of w's
    core, over rank! prod_j g(w, j)."""
    rank = sum(x)
    products = _g_products(w.core, rank)
    row = f_row(x, h_infinite(x, w).length)
    return [F * P for F, P in zip(row, products)], factorial(rank) * products[0]


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


# A class root or half-word state (rank, X, d, pi_num): the rank the word has
# reached, its vector X of n + 1 ints, and the products of G and of G - 1 over
# the g-values G > 1 of the 2s that X carries.
_State = tuple[int, list[int], int, int]


@lru_cache(maxsize=1)
def _g_factors(n: int) -> tuple[tuple[int, ...], ...]:
    """Row G is (G (G - i) for i = 0..n): a prepended 2 of g-value G multiplies
    entry i of a half-word vector by it.  One table, built at a sweep's top
    rank (a level's rank), serves every rank of the sweep: its consumers read
    a row through zip with a shorter vector, which truncates it."""
    return tuple(tuple(G * (G - i) for i in range(n + 1)) for G in range(n + 1))


def _grow(state: _State, digit: int, factors: Sequence[Sequence[int]]) -> _State:
    """The state of digit + word from that of word: a 1 changes nothing but the
    rank; a 2 has g-value G = rank + 1.  factors is _g_factors(top), top >= G."""
    rank, vec, d, pi_num = state
    if digit == 1:
        return rank + 1, vec, d, pi_num
    G = rank + 1
    return (rank + 2, [v * c for v, c in zip(vec, factors[G])], d * G,
            pi_num * (G - 1) if G > 1 else pi_num)


def _prepend(start, stop: int, n: int, grow: Callable) -> Iterable:
    """The states grow makes of x + start over the words x with rank(x + start) the
    first rank >= stop (and <= n) met while prepending digits; stop = n gives
    every x with rank(x + start) = n.  A state's rank is its first field: the
    walk prepends its nodes, the split engine its states with _grow."""
    stack = [start]
    while stack:
        state = stack.pop()
        if state[0] >= stop:
            yield state
            continue
        if state[0] + 2 <= n:
            stack.append(grow(state, 2))
        stack.append(grow(state, 1))


def _next_chain_state(state: _State, s: tuple[int, ...]) -> _State:
    """The state of the chain node 1 + s from that of s = s_L by the law of the module
    docstring: entries above rho = rank(s) gain d (-1)^(j+t) Q_j, with
    Q_j = (rho+1+j)! / (j! prod_2 (j + r_2)) stepped in j, each quotient asserted exact."""
    rho, vec, d, pi_num = state
    r2 = [r for r, digit in zip(accumulate(s), s) if digit == 2]
    below = prod(r2)
    Q, remainder = divmod(factorial(rho + 1), below)
    assert remainder == 0, f"chain node 1 + {s}: inexact at j=0"
    out = vec[:rho + 1]
    step = -d if len(r2) % 2 else d  # d (-1)^(j+t) at j = 0
    for j, X in enumerate(vec[rho + 1:]):
        out.append(X + step * Q)
        step = -step
        above = prod(j + 1 + r for r in r2)
        Q, remainder = divmod(Q * (j + rho + 2) * below, (j + 1) * above)
        assert remainder == 0, f"chain node 1 + {s}: inexact at j={j + 1}"
        below = above
    return rho + 1, out, d, pi_num


def _classes(w: TailOnesWord, top: int) -> list[tuple[int, _State]]:
    """(common-suffix rank, root state) for every chain node s_L and every b_L =
    mismatched digit + s_L of rank <= top, with top + 1 entries: one chain serves
    every rank up to top (_roots_at).  Each node comes from the one before, starting
    at the empty word: by _grow for a 2, by _next_chain_state for a 1."""
    roots, s = [], ()  # s = s_L, the last L = len(s) digits of w
    factors = _g_factors(top)
    chain = 0, [(-1) ** i for i in range(top + 1)], 1, 1  # s_0, the empty word
    while True:
        roots.append((chain[0], chain))
        digit = w.digit_from_right(len(s))
        if chain[0] + 3 - digit <= top:
            roots.append((chain[0], _grow(chain, 3 - digit, factors)))
        if chain[0] + digit > top:
            return roots
        chain = _grow(chain, 2, factors) if digit == 2 else _next_chain_state(chain, s)
        s = (digit,) + s


def _roots_at(classes: Sequence[tuple[int, _State]], n: int) -> list[tuple[int, _State]]:
    """The rank-n class roots in _classes(w, top >= n): the chain node of rank n (its rank
    is its common-suffix rank) and every b_L of rank <= n, vectors cut to n + 1 entries."""
    return [(h, (r, vec[:n + 1], d, pi_num)) for h, (r, vec, d, pi_num) in classes
            if r == n or h < r <= n]


def _class_words(w: TailOnesWord, top: int) -> Iterator[tuple[tuple[int, ...], _State]]:
    """(digits, state) for every word of rank <= top, each once, its vector of top + 1
    ints from _classes(w, top): each chain node s_L alone, and each u + b_L grown from
    its root b_L by _grow, one prepended digit at a time."""
    chain, s = {0: ()}, ()  # common-suffix rank -> the chain node s_L of that rank
    while sum(s) < top:
        s = (w.digit_from_right(len(s)),) + s
        chain[sum(s)] = s
    factors = _g_factors(top)
    for h, root in _classes(w, top):
        if root[0] == h:
            yield chain[h], root
            continue
        stack = [((root[0] - h,) + chain[h], root)]
        while stack:
            digits, state = stack.pop()
            yield digits, state
            if state[0] + 2 <= top:
                stack.append(((2,) + digits, _grow(state, 2, factors)))
            if state[0] < top:
                stack.append(((1,) + digits, _grow(state, 1, factors)))


class LevelDistribution(_Frozen):
    """The boundary measure restricted to one rank; masses sum to exactly 1."""

    def __init__(self, n: int, w: TailOnesWord, beta: Fraction, masses: dict[YFWord, Fraction]):
        den = lcm(*(m.denominator for m in masses.values()))
        total = sum(m.numerator * (den // m.denominator) for m in masses.values())
        if total != den:
            raise AssertionError(f"masses sum to {Fraction(total, den)}, not 1")
        if any(m.numerator < 0 for m in masses.values()):
            raise AssertionError("negative mass")
        vars(self).update(n=n, w=w, beta=beta, masses=masses)

    def __eq__(self, other):  # and no __hash__: masses is a dict
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.w, self.beta, self.masses) == (other.n, other.w, other.beta, other.masses)

    def __repr__(self) -> str:
        return f"LevelDistribution(n={self.n!r}, w={self.w!r}, beta={self.beta!r}, masses={self.masses!r})"


def level_distribution(w: TailOnesWord, beta: Fraction, n: int) -> LevelDistribution:
    """Masses mu_{w,beta}(v) over all rank-n words, in level order, read from the
    rank-n states of _class_words(w, n): n! D mu(v) is sum_i C(n, i) W_i X[i] for
    (W, D) = mass_weights(w, beta, n).  The ints are asserted to sum to n! D before
    one Fraction is built per word.  Words of one rank sort as tuples in level
    order, so no level is enumerated or cached."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    check_level_rank(n)
    weights, den = mass_weights(w, Fraction(beta), n)
    den *= factorial(n)
    scaled = [comb(n, i) * W for i, W in enumerate(weights)]
    items = [(tuple.__new__(YFWord, digits), sum(map(mul, scaled, vec)))  # only 1s and 2s
             for digits, (r, vec, _, _) in _class_words(w, n) if r == n]
    assert sum(mass for _, mass in items) == den, f"level {n} masses do not sum to 1"
    items.sort(reverse=True)
    masses = {}
    while items:  # each int is dropped as its Fraction is made
        v, mass = items.pop()
        masses[v] = Fraction(mass, den)
    return LevelDistribution(n, w, Fraction(beta), masses)
