from fractions import Fraction as Fr
from math import factorial, inf, prod

import pytest

from yflab import pathcount
from yflab.harmonic import _g_products
from yflab.pathcount import (
    _covers,
    d_from_empty,
    d_paths_dp,
    d_paths_formula,
    descent_counts,
    plancherel,
)
from yflab.words import (EPSILON, YFWord, _suffix_key, common_suffix_len, down_neighbors,
                         enumerate_level, ones_word, parse, prefix, suffix, suffix_ranks)


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


def counting_builders(monkeypatch):
    """Wrap the formula's two entry builders so that each build is recorded; returns
    the list of (memo, word) built, in build order."""
    built = []
    for name, memo in (("_x_entry", "x"), ("_y_entry", "y")):
        build = getattr(pathcount, name)
        monkeypatch.setattr(pathcount, name, lambda w, build=build, memo=memo: built.append((memo, w)) or build(w))
    return built


def clear_formula_memos():
    pathcount._x_memo.clear()
    pathcount._y_memo.clear()


def test_formula_equals_dp_to_rank_8(monkeypatch):
    # acceptance pushes this to rank 11; keep the unit version quick.  The first
    # pass starts from empty x and y memos and builds each of the 88 words of
    # rank <= 8 once in each; the second reads every row and every vector from them.
    counts = {y: descent_counts(y) for n in range(9) for y in enumerate_level(n)}
    clear_formula_memos()
    _g_products.cache_clear()
    built = counting_builders(monkeypatch)
    for run in ("cold", "warm"):
        for x, y in all_pairs(8):
            assert d_paths_formula(x, y) == counts[y].get(x, 0)
        assert sorted(built) == sorted((memo, w) for memo in "xy" for w in counts), run


def test_formula_memo_holds_one_entry_per_word_to_rank_9(monkeypatch):
    # the x memo is keyed by x alone and the y memo by y alone: each of the 143
    # words of rank <= 9 is built once in each, the x entry with every row
    # z = 0..length(x), the y entry with its g-product vector, and every other
    # pair reads both from the memos
    clear_formula_memos()
    built = counting_builders(monkeypatch)
    pairs = list(all_pairs(9))
    for x, y in pairs:
        d_paths_formula(x, y)
    assert len(pairs) == 12_672
    for memo, bound in (("x", pathcount._X_WORDS), ("y", pathcount._Y_WORDS)):
        words = [w for m, w in built if m == memo]
        assert len(words) == len(set(words)) == 143
        assert len(getattr(pathcount, f"_{memo}_memo")) == 143 <= bound


def test_split_memo_stays_bounded(monkeypatch):
    # the bounds hold at 512 x-words and 4,096 y-words; lowered to 16 and 24 here, two
    # all-pairs loops over the 54 words of rank <= 7 cycle past both.  A build past the
    # bound drops the oldest entry, so each memo holds the last words it built, in order.
    assert (pathcount._X_WORDS, pathcount._Y_WORDS) == (512, 4096)
    counts = {y: descent_counts(y) for n in range(8) for y in enumerate_level(n)}
    clear_formula_memos()
    monkeypatch.setattr(pathcount, "_X_WORDS", 16)
    monkeypatch.setattr(pathcount, "_Y_WORDS", 24)
    built = counting_builders(monkeypatch)
    for x, y in [*all_pairs(7), *all_pairs(7)]:
        assert d_paths_formula(x, y) == counts[y].get(x, 0)
        assert 0 < len(pathcount._x_memo) <= 16 and 0 < len(pathcount._y_memo) <= 24
    for memo, bound in (("x", 16), ("y", 24)):
        words = [w for m, w in built if m == memo]
        assert len(words) > len(set(words)) == len(counts)
        assert list(getattr(pathcount, f"_{memo}_memo")) == words[-bound:]


def suffix_lens_read_by_the_formula(monkeypatch, pairs):
    """The row of x's entry at which d_paths_formula reads, for each pair.

    _f_rows is replaced by rows that hold their own index z, factorial by 1 and
    the y builder by one that keeps each word's real suffix key but gives an
    unbounded rank and the g vector (1,).  x's entries come from the real builder
    into an empty memo, so the formula's count is the index of the row it read."""
    monkeypatch.setattr(pathcount, "_f_rows", lambda x, top: [[z] for z in range(top + 1)])
    monkeypatch.setattr(pathcount, "factorial", lambda rank: 1)
    monkeypatch.setattr(pathcount, "_x_memo", {})
    monkeypatch.setattr(pathcount, "_y_memo", {})
    monkeypatch.setattr(pathcount, "_y_entry", lambda y: (inf, (1,), _suffix_key(y)))
    return [d_paths_formula(x, y) for x, y in pairs]


def long_pairs():
    """Pairs sharing a tail of 31-33 or 63-66 digits (common suffixes up to 68 digits), so that
    the keys pass 64 and 128 bits."""
    for length in (31, 32, 33, 63, 64, 65, 66):
        s = YFWord((1, 2, 2, 1, 1)[k % 5] for k in range(length))
        for a, b in (("1", "2"), ("", "2"), ("2", ""), ("", ""), ("21", "11"), ("12", "1212"),
                     ("221", "1")):
            yield parse(a) + s, parse(b) + s


def test_suffix_keys_give_the_common_suffix_len(monkeypatch):
    assert (_suffix_key(EPSILON), _suffix_key(parse("1")), _suffix_key(parse("21"))) == (0, 1, 0b1001)
    words = [y for n in range(10) for y in enumerate_level(n)]
    pairs = [(x, y) for x in words for y in words]  # every ordered pair to rank 9, equal words too
    pairs += [(EPSILON, EPSILON), (EPSILON, parse("212")), (parse("212"), EPSILON),
              (parse("12"), parse("2212")), (parse("2212"), parse("12")), (parse("1"), parse("1"))]
    pairs += long_pairs()
    expected = [common_suffix_len(x, y) for x, y in pairs]
    assert max(expected) == 68
    assert suffix_lens_read_by_the_formula(monkeypatch, pairs) == expected


def test_formula_equals_dp_past_64_bit_keys():
    for x, y in long_pairs():
        if x.rank <= y.rank:
            assert d_paths_formula(x, y) == d_paths_dp(x, y), (x, y)


def literal_descent_counts(y):
    """descent_counts(y) by a frontier DP on down_neighbors, with no memo (oracle)."""
    counts, frontier = {y: 1}, {y: 1}
    while frontier:
        nxt = {}
        for w, c in frontier.items():
            for z in down_neighbors(w):
                nxt[z] = nxt.get(z, 0) + c
        counts.update(nxt)
        frontier = nxt
    return counts


def test_descent_counts_match_a_literal_frontier_dp_to_rank_10():
    expected = {y: literal_descent_counts(y) for n in range(11) for y in enumerate_level(n)}
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


def test_a_dp_past_the_covers_memo_evicts_nothing():
    # the DP from 2^12 visits 8,191 words, twice what _covers holds; it consults the
    # memo only while the words it has expanded fit there, so it neither evicts the
    # rank-9 loop's entries nor misses more often than the memo has room
    ys = [y for n in range(10) for y in enumerate_level(n)]
    _covers.cache_clear()
    for y in ys:
        descent_counts(y)
    warm = _covers.cache_info()
    big = parse("2" * 12)
    assert descent_counts(big) == literal_descent_counts(big)
    after_big = _covers.cache_info()
    assert 0 < after_big.misses - warm.misses <= after_big.maxsize
    assert after_big.currsize <= after_big.maxsize
    for y in ys:
        descent_counts(y)
    assert _covers.cache_info().misses == after_big.misses


def test_formula_takes_plain_tuples():
    # a plain tuple and the equal YFWord share one memo key and one count, in either
    # order, for x and for y
    pairs = [(parse("21"), parse("21221")), (EPSILON, parse("2212")),
             (parse("121"), parse("22121")), (parse("2"), parse("1112"))]
    for forms in ((tuple, YFWord), (YFWord, tuple)):
        clear_formula_memos()
        for x, y in pairs:
            expected = d_paths_dp(x, y)
            for form_x in forms:
                for form_y in forms:
                    assert d_paths_formula(form_x(x), form_y(y)) == expected
        assert len(pathcount._x_memo) == len(pathcount._y_memo) == len(pairs)


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
