from fractions import Fraction as Fr
from math import factorial, prod

import pytest

from yflab.harmonic import _g_products
from yflab.pathcount import (
    _covers,
    _formula_rows,
    d_from_empty,
    d_paths_dp,
    d_paths_formula,
    descent_counts,
    plancherel,
)
from yflab.words import (EPSILON, YFWord, down_neighbors, enumerate_level, ones_word, parse, prefix,
                         suffix, suffix_ranks)


def enumerate_paths(x, y):
    """Every saturated descending path from y to x, as a vertex list (oracle)."""
    if y.rank < x.rank:
        return []
    if y.rank == x.rank:
        return [[y]] if y == x else []
    paths = []
    for z in sorted(down_neighbors(y)):
        for tail in enumerate_paths(x, z):
            paths.append([y] + tail)
    return paths


def test_explicit_paths_from_21():
    paths = enumerate_paths(EPSILON, parse("21"))
    as_text = sorted(tuple(v.text for v in p) for p in paths)
    assert as_text == [("21", "11", "1", ""), ("21", "2", "1", "")]
    assert d_paths_dp(EPSILON, parse("21")) == 2


def test_dp_against_path_enumeration():
    for ny in range(7):
        for y in enumerate_level(ny):
            for nx in range(ny + 1):
                for x in enumerate_level(nx):
                    assert d_paths_dp(x, y) == len(enumerate_paths(x, y))


def test_dp_basic():
    assert d_paths_dp(parse("212"), parse("212")) == 1
    assert d_paths_dp(parse("21"), parse("2")) == 0


def test_formula_requires_rank_order():
    with pytest.raises(ValueError):
        d_paths_formula(parse("21"), parse("2"))


def test_formula_examples():
    assert d_paths_formula(EPSILON, parse("21221")) == 56
    assert type(d_paths_formula(parse("21"), parse("21221"))) is int
    assert d_paths_formula(EPSILON, parse("12")) == 1
    assert d_paths_formula(parse("21"), parse("21221")) == d_paths_dp(parse("21"), parse("21221"))


def all_pairs(rank):
    """Every (x, y) with rank(x) <= rank(y) <= rank, y-major as the acceptance check walks them."""
    for ny in range(rank + 1):
        for y in enumerate_level(ny):
            for nx in range(ny + 1):
                for x in enumerate_level(nx):
                    yield x, y


def test_formula_equals_dp_to_rank_8():
    # acceptance pushes this to rank 11; keep the unit version quick.  The first
    # pass starts from empty f-row and g-product memos, the second reads every
    # row and every vector from them.
    counts = {y: descent_counts(y) for n in range(9) for y in enumerate_level(n)}
    _formula_rows.cache_clear()
    _g_products.cache_clear()
    for _ in ("cold", "warm"):
        for x, y in all_pairs(8):
            assert d_paths_formula(x, y) == counts[y].get(x, 0)
    assert _formula_rows.cache_info().hits > 0
    assert _g_products.cache_info().hits > 0


def test_split_memo_stays_bounded():
    for x, y in all_pairs(10):
        d_paths_formula(x, y)
    info = _formula_rows.cache_info()
    assert info.maxsize is not None
    assert 0 < info.currsize <= info.maxsize


def test_descent_counts_match_a_literal_frontier_dp_to_rank_10():
    def reference(y):
        counts, frontier = {y: 1}, {y: 1}
        while frontier:
            nxt = {}
            for w, c in frontier.items():
                for z in down_neighbors(w):
                    nxt[z] = nxt.get(z, 0) + c
            counts.update(nxt)
            frontier = nxt
        return counts

    expected = {y: reference(y) for n in range(11) for y in enumerate_level(n)}
    _covers.cache_clear()
    for _ in ("cold", "warm"):
        for y, counts in expected.items():
            got = descent_counts(y)
            assert got == counts
            assert all(type(x) is YFWord for x in got)
    assert _covers.cache_info().hits > 0


def test_covers_memo_stays_bounded():
    for n in range(11):
        for y in enumerate_level(n):
            descent_counts(y)
    info = _covers.cache_info()
    assert info.maxsize is not None
    assert 0 < info.currsize <= info.maxsize


def test_formula_takes_plain_tuples():
    # a plain tuple and the equal YFWord share one memo key and one count, in either order
    pairs = [(parse("21"), parse("21221")), (EPSILON, parse("2212")),
             (parse("121"), parse("22121")), (parse("2"), parse("1112"))]
    for forms in ((tuple, YFWord), (YFWord, tuple)):
        _formula_rows.cache_clear()
        for x, y in pairs:
            expected = d_paths_dp(x, y)
            for form in forms:
                assert d_paths_formula(form(x), y) == expected


def test_d_from_empty():
    assert d_from_empty(EPSILON) == 1
    assert d_from_empty(parse("221")) == 8
    for k in range(6):
        assert d_from_empty(ones_word(k)) == 1


def test_d_from_empty_equals_dp_to_rank_12():
    for n in range(13):
        for y in enumerate_level(n):
            assert d_from_empty(y) == descent_counts(y).get(EPSILON, 0)


def test_d_from_empty_is_rank_factorial_times_q_to_rank_16():
    # the product form d(empty, x) = rank(x)! q(x), q(x) = 1 / prod of x's suffix
    # ranks, by which a magic table cell needs no division
    for n in range(17):
        for x in enumerate_level(n):
            assert d_from_empty(x) * prod(suffix_ranks(x)) == factorial(n), x


def test_plancherel():
    assert plancherel(0, EPSILON) == 1
    weights = {v: plancherel(3, v) for v in enumerate_level(3)}
    assert weights[parse("21")] == Fr(4, 6)
    assert sorted(weights.values()) == [Fr(1, 6), Fr(1, 6), Fr(4, 6)]
    assert sum(weights.values()) == 1
    with pytest.raises(ValueError):
        plancherel(4, parse("21"))


def test_plancherel_normalization_to_rank_10():
    for n in range(11):
        assert sum(d_from_empty(v) ** 2 for v in enumerate_level(n)) == factorial(n)


def test_path_count_splits_along_suffixes_to_rank_11():
    # d(empty, head + tail) = d(empty, tail) * d(empty, head + 1^rank(tail))
    for n in range(12):
        for x in enumerate_level(n):
            for i in range(x.length + 1):
                head, tail = prefix(x, i), suffix(x, i)
                assert d_from_empty(x) == d_from_empty(tail) * d_from_empty(
                    head + (1,) * tail.rank)
