from fractions import Fraction as Fr
from math import factorial

import pytest

from yflab.pathcount import (
    d_from_empty,
    d_paths_dp,
    d_paths_formula,
    descent_counts,
    plancherel,
)
from yflab.words import EPSILON, down_neighbors, enumerate_level, ones_word, parse, prefix, suffix


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


def test_formula_equals_dp_to_rank_8():
    # acceptance pushes this to rank 11; keep the unit version quick
    for ny in range(9):
        for y in enumerate_level(ny):
            counts = descent_counts(y)
            for nx in range(ny + 1):
                for x in enumerate_level(nx):
                    assert d_paths_formula(x, y) == counts.get(x, 0)


def test_d_from_empty():
    assert d_from_empty(EPSILON) == 1
    assert d_from_empty(parse("221")) == 8
    for k in range(6):
        assert d_from_empty(ones_word(k)) == 1


def test_d_from_empty_equals_dp_to_rank_12():
    for n in range(13):
        for y in enumerate_level(n):
            assert d_from_empty(y) == descent_counts(y).get(EPSILON, 0)


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
