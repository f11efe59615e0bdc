"""Frozen reference values for the f tables and the rank-5 dominating table.

F_TABLE_21221 holds f('21221', y, 0) for y = 0..8.  F_TABLES holds the
complete grid f(x, y, z) for every word of rank at most 4, indexed by word
text, as rows z = 0..length(x) of columns y = 0..rank(x).  MAGIC5 holds the
factored cells of the rank-5 table: word -> list over y = 0..5 of either
None (no suffix of that rank) or (coeff, tail_text, beta_exp,
one_minus_beta2_exp), with coeff = d(empty, word) * q(head) in lowest
terms.  f_by_recursion transcribes the definition of f literally, as an
oracle independent of the library's integer unwind, and level_by_recursion
the definition of a level's order, as an oracle independent of the library's
successor rule.  classes_by_padded_row builds every chain node of a sweep from
its own padded f row, as an oracle independent of the chain law by which the
library takes each node from the one before.  factored_table_by_kernels
builds a factored table the way the library did before its tables came from
the class engine: one pointwise kernel per tail and one exact division per
cell.  mass_weights_by_loop multiplies out the weights p^i q^(n-i) P_i of a
level at beta = p/q over the g-values of w, for the walk's node_mass.
"""

from fractions import Fraction as Fr
from functools import lru_cache
from math import comb, factorial, prod

from yflab.boundary import _g_factors, _grow, _kernel_terms
from yflab.harmonic import _base, _f_row, _g_ratio_parts, g_all
from yflab.magic import FactoredTable
from yflab.pathcount import d_from_empty
from yflab.words import enumerate_level, suffix_ranks


def mass_weights_by_loop(w, beta, top):
    """(W, D) with W[i] = p^i q^(top - i) prod_j (g(w, j) - i) and D = q^top prod_j g(w, j),
    so that W[i] / D = beta^i prod_j (g(w, j) - i) / g(w, j), for beta = p/q."""
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


@lru_cache(maxsize=None)
def f_by_recursion(x: tuple, y: int, z: int) -> Fr:
    """f(x, y, z) by the base formula and the recursion on the last digit."""
    if z == 0:
        # nonzero iff x = head + tail with rank(tail) == y
        s, total = len(x), 0
        while total < y:
            s -= 1
            total += x[s]
        if total != y:
            return Fr(0)
        value, run = Fr(1), 0
        for d in x[s:]:
            run += d
            value /= -run
        run = 0
        for d in reversed(x[:s]):
            run += d
            value /= run
        return value
    if x[-1] == 1:
        if y == 0:
            return f_by_recursion(x, 0, 0)
        return f_by_recursion(x, y, 0) + f_by_recursion(x[:-1], y - 1, z - 1)
    if y == 1:
        return Fr(0)
    return f_by_recursion(x[:-1] + (1, 1), y, z + 1) / (1 - y)


@lru_cache(maxsize=None)
def level_by_recursion(n: int) -> tuple:
    """The rank-n words as digit tuples, 1-branch before 2-branch: 1 + each word
    of rank n - 1, then 2 + each word of rank n - 2."""
    if n < 2:
        return ((1,) * n,)
    return (tuple((1,) + w for w in level_by_recursion(n - 1))
            + tuple((2,) + w for w in level_by_recursion(n - 2)))


def classes_by_padded_row(w, top: int) -> list:
    """boundary._classes(w, top), each chain node s = s_L of rank rho from the row
    _f_row(1^(top - rho) + s, L) divided by C(top, i), whatever L is."""
    roots, L, s = [], 0, ()
    factors = _g_factors(top)
    while sum(s) <= top:
        rho, (pi_num, d) = sum(s), _g_ratio_parts(s, 1)
        vec = []
        for i, F in enumerate(_f_row((1,) * (top - rho) + s, L)):
            value, remainder = divmod(F, comb(top, i))
            assert remainder == 0, (s, i)
            vec.append(d * value)
        chain = (rho, vec, d, pi_num)
        roots.append((rho, chain))
        digit = 3 - w.digit_from_right(L)
        if rho + digit <= top:
            roots.append((rho, _grow(chain, digit, factors)))
        s = (w.digit_from_right(L),) + s
        L += 1
    return roots


def factored_table_by_kernels(w, n: int) -> FactoredTable:
    """magic.factored_table(w, n) with each cell d(empty, v) S(tail) n! / (H(head) y!)
    divided out, S(tail) the sum of _kernel_terms(tail, w) over its y! prod g(w, j)
    and H(head) the product of the head's suffix ranks."""
    level = enumerate_level(n)
    den = factorial(n) * prod(g_all(w.core))
    rows = []
    for v in level:
        cells = []
        for k in range(len(v) + 1):
            terms, kernel_den = _kernel_terms(v[k:], w)
            C, remainder = divmod(d_from_empty(v) * sum(terms) * den,
                                  prod(suffix_ranks(v[:k])) * kernel_den)
            assert remainder == 0, (w, n, v, k)
            cells.append((sum(v[k:]), k, C))
        rows.append(tuple(cells))
    return FactoredTable(w, n, level, den, tuple(rows))


F_TABLE_21221 = [Fr(1, 720), Fr(-1, 280), Fr(0), Fr(1, 180), Fr(0),
                 Fr(-1, 120), Fr(1, 180), Fr(0), Fr(-1, 1680)]

F_TABLES = {
    "": [[Fr(1)]],
    "1": [[Fr(1), Fr(-1)],
          [Fr(1), Fr(0)]],
    "2": [[Fr(1, 2), Fr(0), Fr(-1, 2)],
          [Fr(1, 2), Fr(0), Fr(-1, 2)]],
    "11": [[Fr(1, 2), Fr(-1), Fr(1, 2)],
           [Fr(1, 2), Fr(0), Fr(-1, 2)],
           [Fr(1, 2), Fr(0), Fr(1, 2)]],
    "12": [[Fr(1, 6), Fr(0), Fr(-1, 2), Fr(1, 3)],
           [Fr(1, 6), Fr(0), Fr(-1, 2), Fr(1, 3)],
           [Fr(1, 6), Fr(0), Fr(-1, 2), Fr(-1, 6)]],
    "21": [[Fr(1, 3), Fr(-1, 2), Fr(0), Fr(1, 6)],
           [Fr(1, 3), Fr(0), Fr(0), Fr(-1, 3)],
           [Fr(1, 3), Fr(0), Fr(0), Fr(-1, 3)]],
    "111": [[Fr(1, 6), Fr(-1, 2), Fr(1, 2), Fr(-1, 6)],
            [Fr(1, 6), Fr(0), Fr(-1, 2), Fr(1, 3)],
            [Fr(1, 6), Fr(0), Fr(1, 2), Fr(-2, 3)],
            [Fr(1, 6), Fr(0), Fr(1, 2), Fr(1, 3)]],
    "112": [[Fr(1, 24), Fr(0), Fr(-1, 4), Fr(1, 3), Fr(-1, 8)],
            [Fr(1, 24), Fr(0), Fr(-1, 4), Fr(1, 3), Fr(-1, 8)],
            [Fr(1, 24), Fr(0), Fr(-1, 4), Fr(-1, 6), Fr(5, 24)],
            [Fr(1, 24), Fr(0), Fr(-1, 4), Fr(-1, 6), Fr(-1, 8)]],
    "22": [[Fr(1, 8), Fr(0), Fr(-1, 4), Fr(0), Fr(1, 8)],
           [Fr(1, 8), Fr(0), Fr(-1, 4), Fr(0), Fr(1, 8)],
           [Fr(1, 8), Fr(0), Fr(-1, 4), Fr(0), Fr(1, 8)]],
    "121": [[Fr(1, 12), Fr(-1, 6), Fr(0), Fr(1, 6), Fr(-1, 12)],
            [Fr(1, 12), Fr(0), Fr(0), Fr(-1, 3), Fr(1, 4)],
            [Fr(1, 12), Fr(0), Fr(0), Fr(-1, 3), Fr(1, 4)],
            [Fr(1, 12), Fr(0), Fr(0), Fr(-1, 3), Fr(-1, 4)]],
    "211": [[Fr(1, 8), Fr(-1, 3), Fr(1, 4), Fr(0), Fr(-1, 24)],
            [Fr(1, 8), Fr(0), Fr(-1, 4), Fr(0), Fr(1, 8)],
            [Fr(1, 8), Fr(0), Fr(1, 4), Fr(0), Fr(-3, 8)],
            [Fr(1, 8), Fr(0), Fr(1, 4), Fr(0), Fr(-3, 8)]],
    "1111": [[Fr(1, 24), Fr(-1, 6), Fr(1, 4), Fr(-1, 6), Fr(1, 24)],
             [Fr(1, 24), Fr(0), Fr(-1, 4), Fr(1, 3), Fr(-1, 8)],
             [Fr(1, 24), Fr(0), Fr(1, 4), Fr(-2, 3), Fr(3, 8)],
             [Fr(1, 24), Fr(0), Fr(1, 4), Fr(1, 3), Fr(-5, 8)],
             [Fr(1, 24), Fr(0), Fr(1, 4), Fr(1, 3), Fr(3, 8)]],
}

MAGIC5 = {
    "122": [(Fr(3, 40), "", 0, 3), None, (Fr(3, 6), "2", 2, 2), None,
            (Fr(3, 1), "22", 4, 1), (Fr(3, 1), "122", 5, 0)],
    "212": [(Fr(4, 30), "", 0, 3), None, (Fr(4, 3), "2", 2, 2),
            (Fr(4, 2), "12", 3, 1), None, (Fr(4, 1), "212", 5, 0)],
    "1112": [(Fr(1, 120), "", 0, 4), None, (Fr(1, 6), "2", 2, 3),
             (Fr(1, 2), "12", 3, 2), (Fr(1, 1), "112", 4, 1),
             (Fr(1, 1), "1112", 5, 0)],
    "221": [(Fr(8, 15), "", 0, 3), (Fr(8, 8), "1", 1, 2), None,
            (Fr(8, 2), "21", 3, 1), None, (Fr(8, 1), "221", 5, 0)],
    "1121": [(Fr(2, 60), "", 0, 4), (Fr(2, 24), "1", 1, 3), None,
             (Fr(2, 2), "21", 3, 2), (Fr(2, 1), "121", 4, 1),
             (Fr(2, 1), "1121", 5, 0)],
    "1211": [(Fr(3, 40), "", 0, 4), (Fr(3, 12), "1", 1, 3),
             (Fr(3, 6), "11", 2, 2), None, (Fr(3, 1), "211", 4, 1),
             (Fr(3, 1), "1211", 5, 0)],
    "2111": [(Fr(4, 30), "", 0, 4), (Fr(4, 8), "1", 1, 3),
             (Fr(4, 3), "11", 2, 2), (Fr(4, 2), "111", 3, 1), None,
             (Fr(4, 1), "2111", 5, 0)],
    "11111": [(Fr(1, 120), "", 0, 5), (Fr(1, 24), "1", 1, 4),
              (Fr(1, 6), "11", 2, 3), (Fr(1, 2), "111", 3, 2),
              (Fr(1, 1), "1111", 4, 1), (Fr(1, 1), "11111", 5, 0)],
}


def _unwind_to(x: tuple, y: int, z: int, base: int) -> int:
    """rank(x)! f(x, y, z) from base = rank(x)! f(x, y, 0), walking the recursion
    chain of the split at suffix rank y until z is used up or y reaches 0."""
    j, t = len(x), 0
    acc, mden = 0, 1
    while z and y:
        if t or x[j - 1] == 1:
            acc += base
            base *= -y
            if t:
                t -= 1
            else:
                j -= 1
            y -= 1
            z -= 1
        else:
            acc *= 1 - y
            mden *= 1 - y
            base, remainder = divmod(base, 1 - y)
            assert remainder == 0, (x, y)
            j -= 1
            t += 2
            z += 1
    value, remainder = divmod(acc + base, mden)
    assert remainder == 0, x
    return value


def f_row_by_unwind(x: tuple, z: int) -> list:
    """[rank(x)! f(x, y, z) for y = 0..rank(x)], one chain walk per split at this z."""
    gs, rank = g_all(x), sum(x)
    row = [0] * (rank + 1)
    row[0] = _base(rank, 0, gs)
    y, sign = 0, 1
    for digit in reversed(x):
        y += digit
        sign = -sign
        base = sign * _base(rank, y, gs)
        row[y] = _unwind_to(x, y, z, base) if z else base
    return row
