from fractions import Fraction as Fr
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from yflab.harmonic import (
    BetaPolynomial,
    _f_row,
    _f_rows,
    _g_products,
    d_beta,
    d_beta_eval,
    f,
    format_rational,
    g,
    g_all,
    parse_rational,
    pi,
    pi_k,
    pi_split,
    q,
)
from yflab.experiments import _div_one_minus_beta
from yflab.words import EPSILON, YFWord, enumerate_level, parse, suffix_ranks

from reference_values import F_TABLE_21221, F_TABLES, f_by_recursion, f_row_by_unwind

def all_words(max_rank):
    for n in range(max_rank + 1):
        yield from enumerate_level(n)


def test_f_values_for_21221():
    x = parse("21221")
    for y, expected in enumerate(F_TABLE_21221):
        assert f(x, y, 0) == expected


def test_f_full_tables_to_rank_4():
    for text, table in F_TABLES.items():
        x = parse(text)
        assert len(table) == x.length + 1
        for z, row in enumerate(table):
            assert len(row) == x.rank + 1
            for y, expected in enumerate(row):
                assert f(x, y, z) == expected


def test_f_empty_word():
    assert f(EPSILON, 0, 0) == 1


def test_f_rejects_out_of_range():
    x = parse("21")
    with pytest.raises(ValueError):
        f(x, 4, 0)
    with pytest.raises(ValueError):
        f(x, 0, 3)
    with pytest.raises(ValueError):
        f(x, -1, 0)


def test_f_matches_recursive_definition_to_rank_10():
    # the integer unwind of f against a literal transcription of its recursion;
    # d_beta, built from the integer row it shares with the identity suite,
    # must give the trimmed z = 0 column of the same recursion
    for x in all_words(10):
        for y in range(x.rank + 1):
            for z in range(x.length + 1):
                assert f(x, y, z) == f_by_recursion(tuple(x), y, z), (x.text, y, z)
        column = [f_by_recursion(tuple(x), i, 0) for i in range(x.rank + 1)]
        while column and column[-1] == 0:
            column.pop()
        assert d_beta(x).coeffs == tuple(column), x.text


def test_f_row_matches_recursive_definition_to_rank_10():
    # the product-form builder against the literal recursion: one build gives every
    # row z = 0..length(x), _f_row(x, z) is its row z, and the zeros sit exactly
    # off the suffix ranks (y = 0 is the empty suffix)
    for x in all_words(10):
        fac, digits = factorial(x.rank), tuple(x)
        ranks = {0, *suffix_ranks(x)}
        rows = _f_rows(digits, x.length)
        assert rows == [[fac * f_by_recursion(digits, y, z) for y in range(x.rank + 1)]
                        for z in range(x.length + 1)], x.text
        for z, row in enumerate(rows):
            assert _f_row(digits, z) == row, (x.text, z)
            assert all(type(v) is int for v in row)
            assert {y for y, v in enumerate(row) if v} <= ranks, (x.text, z)
        assert {y for y, v in enumerate(rows[0]) if v} == ranks, x.text


# words past rank 12 whose chains run long: all 1s, a 2 at the right end, and
# long common suffixes of the kind the path-count formula reads at z = h
LONG_WORDS = ("1" * 20, "1" * 14 + "2", "2" * 8, "12" * 6, "21" * 6 + "2",
              "1111221111", "21211121111221111", "22122111", "21122222122111")


def test_f_rows_match_the_per_z_builder_to_rank_12():
    # every top <= length(x) gives the first top + 1 rows of the reference builder,
    # which walks each split's chain again for each z and stops it at z
    words = [tuple(x) for x in all_words(12)] + [tuple(parse(t)) for t in LONG_WORDS]
    assert any(x and set(x) == {1} for x in words)
    assert any(x and x[-1] == 2 for x in words)
    for x in words:
        expected = [f_row_by_unwind(x, z) for z in range(len(x) + 1)]
        for top in range(len(x) + 1):
            assert _f_rows(x, top) == expected[:top + 1], (x, top)


def test_scaled_f_is_integral_to_rank_12():
    # rank(x)! * f(x, y, z) is an integer (see harmonic._scaled_f): f and the
    # sweep walk compute these integers and assert every division exact.
    triples = 0
    for x in all_words(12):
        fac = factorial(x.rank)
        for y in range(x.rank + 1):
            for z in range(x.length + 1):
                assert (fac * f(x, y, z)).denominator == 1, (x.text, y, z)
                triples += 1
    assert triples == 61825


def test_f_of_all_ones_matches_closed_form():
    # f(1^m, y, z) = sum over k = 0..min(z, y) of (-1)^(y-k) / ((y-k)! (m-y)!),
    # including chains far longer than the interpreter's recursion limit.
    def closed(m, y, z):
        return sum((Fr((-1) ** (y - k), factorial(y - k) * factorial(m - y))
                    for k in range(min(z, y) + 1)), Fr(0))

    for m in range(16):
        for y in range(m + 1):
            for z in range(m + 1):
                assert f(YFWord((1,) * m), y, z) == closed(m, y, z)
    assert f(YFWord((1,) * 1200), 1100, 1150) == closed(1200, 1100, 1150)


def test_row_sums_vanish_to_rank_12():
    # sum over i of f(x, i, 0) = 0 for every nonempty x
    for x in all_words(12):
        if x.length == 0:
            continue
        assert sum(f(x, i, 0) for i in range(x.rank + 1)) == 0


def test_g_values():
    x = parse("21221")
    assert g_all(x) == (2, 4, 7)
    assert g(x, 1) == 2
    assert g(x, 3) == 7
    assert g(parse("12"), 1) == 1
    with pytest.raises(ValueError):
        g(x, 4)
    with pytest.raises(ValueError):
        g(x, 0)


@settings(derandomize=True)
@given(st.lists(st.sampled_from([1, 2]), max_size=30).map(YFWord))
def test_g_all_matches_runs_formula(x):
    # runs[k]: length of the maximal run of 1s just right of the (k+1)-th 2 from the right
    runs = [len(run) for run in reversed(x.text.split("2"))][:x.count(2)]
    assert g_all(x) == tuple(sum(runs[:j]) + 2 * j - 1 for j in range(1, len(runs) + 1))


def test_g_products_equal_the_direct_loop():
    # the one g-product vector against prod_j (g(u, j) - i), multiplied out factor by factor
    cores = [parse(c) for c in ("", "2", "22", "212", "2122")]
    for u in [*cores, *all_words(12)]:
        expected = []
        for i in range(21):
            value = 1
            for G in g_all(u):
                value *= G - i
            expected.append(value)
        for top in range(21):
            assert _g_products(u, top) == tuple(expected[:top + 1]), (u, top)
    assert _g_products.cache_info().maxsize is not None


def test_g_accepts_tail_ones_words():
    from yflab.boundary import TailOnesWord
    w = TailOnesWord.parse("212")
    assert g_all(w) == g_all(parse("212"))


def test_q_values():
    assert q(EPSILON) == 1
    assert q(parse("122")) == Fr(1, 40)
    assert q(parse("21")) == Fr(1, 3)


def test_q_equals_f_at_origin_to_rank_12():
    for x in all_words(12):
        assert q(x) == f(x, 0, 0)


def test_d_beta_small():
    assert d_beta(EPSILON).coeffs == (Fr(1),)
    assert d_beta(parse("1")).coeffs == (Fr(1), Fr(-1))
    assert d_beta(parse("2")).coeffs == (Fr(1, 2), Fr(0), Fr(-1, 2))
    assert d_beta_eval(parse("1"), Fr(1, 3)) == Fr(2, 3)


def test_d_beta_eval_range():
    with pytest.raises(ValueError):
        d_beta_eval(parse("1"), Fr(0))
    with pytest.raises(ValueError):
        d_beta_eval(parse("1"), Fr(3, 2))


def test_beta_polynomial_trims_and_evaluates():
    p = BetaPolynomial((Fr(1), Fr(2), Fr(0), Fr(0)))
    assert p.coeffs == (Fr(1), Fr(2))
    assert p.degree == 1
    assert p(Fr(1, 2)) == 2
    assert BetaPolynomial(()).degree == -1
    untrimmed = BetaPolynomial((Fr(1), Fr(2), Fr(0)))
    assert p == untrimmed and hash(p) == hash(untrimmed)
    assert p != BetaPolynomial((Fr(1), Fr(3)))
    assert len({p, untrimmed, BetaPolynomial((1, 2))}) == 1


@given(st.lists(st.integers(-10**6, 10**6), max_size=8))
def test_division_by_one_minus_beta_reconstructs(coeffs):
    def value(cs, t):
        return sum((c * t ** i for i, c in enumerate(cs)), Fr(0))

    quotient, remainder = _div_one_minus_beta(coeffs)
    assert all(isinstance(c, int) for c in quotient) and isinstance(remainder, int)
    assert len(quotient) == max(len(coeffs) - 1, 0)
    assert remainder == value(coeffs, 1)
    for point in (Fr(0), Fr(1, 3), Fr(2), Fr(-1)):
        assert value(coeffs, point) == (1 - point) * value(quotient, point) + remainder


def test_pi_values():
    assert pi(parse("12")) == 1
    assert pi(parse("21")) == Fr(1, 2)
    assert pi(parse("221")) == Fr(3, 8)
    assert pi(EPSILON) == 1


def test_pi_k_values():
    assert pi_k(parse("221"), 2) == Fr(1, 2)   # only g=4 exceeds 2
    assert pi_k(parse("221"), 4) == 1
    with pytest.raises(ValueError):
        pi_k(parse("221"), 1)


def test_pi_split():
    v = parse("21221")
    head_part, tail_part = pi_split(v, 3)
    assert head_part * tail_part == pi(v)
    assert pi_split(v, 0) == (pi(v), Fr(1))
    assert pi_split(v, 2) is None
    with pytest.raises(ValueError):
        pi_split(v, 9)


def test_pi_split_factors_everywhere():
    for v in all_words(9):
        for y in range(v.rank + 1):
            parts = pi_split(v, y)
            if parts is not None:
                assert parts[0] * parts[1] == pi(v)


def test_rational_formatting():
    assert format_rational(Fr(3, 6)) == "1/2"
    assert format_rational(Fr(4, 2)) == "2"
    assert format_rational(Fr(0)) == "0"
    assert parse_rational("3/4") == Fr(3, 4)
    assert parse_rational("-7") == Fr(-7)
    # rationals are p/q or integers: decimals, exponents and spaces are refused
    for bad in ("0.5x", "0.25", "1e-3", "1/2 ", " 1/2", "1_000", "1/0", ""):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(bad)
