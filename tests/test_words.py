import pytest
from hypothesis import given, strategies as st

from reference_values import level_by_recursion
from yflab.words import (
    EPSILON,
    YFWord,
    common_suffix_len,
    common_suffix_rank,
    down_neighbors,
    enumerate_level,
    fibonacci,
    parse,
    prefix,
    split_by_rank,
    suffix,
    suffix_ranks,
    up_neighbors,
)

words_st = st.lists(st.sampled_from([1, 2]), max_size=12).map(YFWord)


def test_parse_counts():
    x = parse("21221")
    assert tuple(x) == (2, 1, 2, 2, 1)
    assert x.rank == 8
    assert x.length == 5
    assert x.ones == 2
    assert x.twos == 3


def test_parse_empty():
    assert parse("") == EPSILON
    assert EPSILON.rank == 0


def test_parse_rejects_other_characters():
    with pytest.raises(ValueError):
        parse("13")
    with pytest.raises(ValueError):
        YFWord((1, 3))
    for digit in (0, 3, "1", None, 1.5):
        with pytest.raises(ValueError):
            YFWord((2, digit, 1))
        with pytest.raises(ValueError):
            YFWord((digit,))


@given(words_st)
def test_parse_render_roundtrip(x):
    assert parse(x.text) == x


@given(words_st)
def test_rank_identities(x):
    assert x.rank == x.ones + 2 * x.twos
    assert x.length == x.ones + x.twos
    assert x.rank == x.length + x.twos


def test_suffix_prefix_basic():
    x = parse("21221")
    assert suffix(x, 2) == parse("21")
    assert prefix(x, 2) == parse("212")
    assert suffix(x, 0) == EPSILON
    assert prefix(x, x.length) == EPSILON
    with pytest.raises(ValueError):
        suffix(x, 6)
    with pytest.raises(ValueError):
        prefix(x, -1)


@given(words_st, st.integers(0, 12))
def test_prefix_suffix_concat(x, a):
    a = min(a, x.length)
    assert prefix(x, a) + suffix(x, a) == x


@given(words_st, st.sampled_from([1, 2]), st.integers(0, 12))
def test_prefix_commutes_with_prepending(x, alpha, a):
    a = min(a, x.length)
    ax = YFWord((alpha,) + tuple(x))
    assert prefix(ax, a) == YFWord((alpha,)) + prefix(x, a)
    assert suffix(ax, a) == suffix(x, a)


def test_split_by_rank():
    x = parse("21221")
    assert split_by_rank(x, 3) == (parse("212"), parse("21"))
    assert split_by_rank(x, 2) is None  # a 2 straddles rank 2
    assert split_by_rank(x, 0) == (x, EPSILON)
    with pytest.raises(ValueError):
        split_by_rank(x, 9)


@given(words_st, st.integers(0, 24))
def test_split_by_rank_characterization(v, y):
    y = min(y, v.rank)
    parts = split_by_rank(v, y)
    if parts is None:
        assert y not in (0,) + suffix_ranks(v)
    else:
        head, tail = parts
        assert head + tail == v
        assert tail.rank == y
        assert head.rank + tail.rank == v.rank


def test_common_suffix():
    assert common_suffix_len(parse("21221"), parse("1221")) == 4
    assert common_suffix_rank(parse("21221"), parse("1221")) == 6
    x = parse("2122")
    assert common_suffix_len(x, x) == x.length
    assert common_suffix_len(parse("2"), parse("1")) == 0
    assert common_suffix_rank(parse("2"), parse("1")) == 0


def test_common_suffix_matches_a_reversed_zip_to_rank_7():
    def reference(x, y):
        common = []
        for a, b in zip(reversed(x), reversed(y)):
            if a != b:
                break
            common.append(a)
        return len(common), sum(common)

    words = [v for n in range(8) for v in enumerate_level(n)]
    assert words[0] == EPSILON
    for x in words:
        for y in words:
            expected = reference(x, y)
            for form in (YFWord, tuple):
                assert (common_suffix_len(form(x), form(y)),
                        common_suffix_rank(form(x), form(y))) == expected
        assert (common_suffix_len(x, x), common_suffix_rank(x, x)) == (len(x), sum(x))
        assert common_suffix_len(x, tuple(x)) == len(x)


@given(words_st, words_st)
def test_common_suffix_symmetric(x, y):
    assert common_suffix_len(x, y) == common_suffix_len(y, x)
    assert common_suffix_rank(x, y) == common_suffix_rank(y, x)


def test_up_neighbors_examples():
    assert up_neighbors(parse("2")) == {parse("12"), parse("21")}
    assert up_neighbors(parse("11")) == {parse("21"), parse("111")}
    assert up_neighbors(EPSILON) == {parse("1")}


def test_down_neighbors_examples():
    assert down_neighbors(parse("21221")) == {parse("11221"), parse("2221")}
    assert down_neighbors(parse("221")) == {parse("121"), parse("211"), parse("22")}
    assert down_neighbors(EPSILON) == set()


def test_down_neighbors_inverts_up_neighbors():
    # brute-force inversion oracle over whole levels
    for n in range(9):
        level_n = set(enumerate_level(n))
        for y in enumerate_level(n + 1):
            inverted = {x for x in level_n if y in up_neighbors(x)}
            assert down_neighbors(y) == inverted


def test_up_down_consistency_to_rank_20():
    for n in range(20):
        level_n = set(enumerate_level(n))
        level_n1 = set(enumerate_level(n + 1))
        for y in enumerate_level(n + 1):
            for x in down_neighbors(y):
                assert x in level_n
                assert y in up_neighbors(x)
        for x in enumerate_level(n):
            for y in up_neighbors(x):
                assert y in level_n1
                assert x in down_neighbors(y)


def test_enumerate_level_small():
    assert list(enumerate_level(0)) == [EPSILON]
    assert list(enumerate_level(2)) == [parse("11"), parse("2")]
    assert len(enumerate_level(5)) == 8


def test_enumerate_level_follows_the_recursive_definition_to_rank_20():
    # the successor rule against the 1-branch-before-2-branch definition, word by word
    for n in range(21):
        assert enumerate_level(n).words == level_by_recursion(n), n


def test_level_sizes_are_fibonacci():
    for n in range(26):
        assert len(enumerate_level(n)) == fibonacci(n + 1)


def test_rank_is_constant_on_levels():
    for n in range(12):
        assert all(v.rank == n for v in enumerate_level(n))
