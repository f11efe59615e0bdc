import multiprocessing
import multiprocessing.pool
import os
import random
from collections import Counter
from fractions import Fraction as Fr
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from yflab import boundary, experiments, harmonic, magic, pathcount
from yflab.boundary import (
    TailOnesWord,
    level_distribution,
    mu,
)
from yflab.experiments import (
    concentration_sweep,
    identity_suite,
    q_sets,
    r_sets,
    sweep_many,
)
from yflab.harmonic import d_beta, f, pi, q
from yflab.magic import FactoredTable, column_sum_closed_form, factored_table, magic_entry
from yflab.words import YFWord, enumerate_level, fibonacci, ones_word, parse, prefix, suffix, suffix_ranks

from reference_values import f_by_recursion, left_groups_by_pointers, mass_weights_by_loop

CORES = [TailOnesWord.parse(c) for c in ("eps", "2", "22", "212")]
ALL_ONES = TailOnesWord.parse("eps")


def test_q_sets_trivial_threshold():
    inside, outside = q_sets(CORES[2], 6, 0)
    assert outside == set()
    assert inside == set(enumerate_level(6))


def test_q_sets_all_ones():
    inside, outside = q_sets(ALL_ONES, 2, 1)
    assert inside == {parse("11")}
    assert outside == {parse("2")}


def test_q_sets_refuses_a_non_integral_l():
    for l in (Fr(5, 2), 2.9):  # h.rank >= l would read either as l = 3
        with pytest.raises(ValueError, match="l must be an integer"):
            q_sets(CORES[2], 8, l)
    for n, l in ((-1, 2), (8, -1), (8, Fr(-5, 2))):
        with pytest.raises(ValueError, match="n and l must be nonnegative"):
            q_sets(CORES[2], n, l)
    assert q_sets(CORES[2], 8, Fr(3)) == q_sets(CORES[2], 8, 3)


def test_q_sets_partition_sizes():
    for w in CORES:
        for n in range(8):
            for l in (0, 1, 2, 3):
                inside, outside = q_sets(w, n, l)
                assert len(inside) + len(outside) == fibonacci(n + 1)
                assert inside.isdisjoint(outside)


def test_r_sets_interval_covering_one():
    # pi(1^n) = 1; an interval containing 1 puts the all-ones word inside
    inside, _ = r_sets(ALL_ONES, Fr(1), 5, Fr(1, 2))
    assert ones_word(5) in inside
    assert inside == {v for v in enumerate_level(5) if Fr(1, 2) < pi(v) < Fr(3, 2)}


def test_r_sets_interval_below_all_values():
    w = TailOnesWord.parse("22")
    inside, outside = r_sets(w, Fr(1, 100), 3, Fr(1, 200))
    assert inside == set()
    assert outside == set(enumerate_level(3))


def test_r_sets_validation():
    with pytest.raises(ValueError):
        r_sets(ALL_ONES, Fr(1), 3, Fr(0))
    with pytest.raises(ValueError):
        r_sets(ALL_ONES, Fr(2), 3, Fr(1, 4))


def test_right_end_unwind_matches_f_at_full_rank():
    # the walk's top entry: the integer unwind against the literal recursion
    for n in range(9):
        for x in enumerate_level(n):
            for z in range(x.length + 1):
                scaled = harmonic._scaled_f(tuple(x), n, z)
                assert type(scaled) is int
                assert scaled == factorial(n) * f_by_recursion(tuple(x), n, z)


def test_walk_matches_direct_measure():
    for w in CORES:
        for beta in (Fr(1, 2), Fr(1)):
            for n in range(9):
                weights, den = mass_weights_by_loop(w, beta, n)
                walked = {YFWord(leaf.digits): Fr(experiments.node_mass(leaf, weights),
                                                  factorial(n) * den)
                          for leaf in experiments._iter_nodes(n, w)}
                assert walked == level_distribution(w, beta, n).masses


@st.composite
def words_of_rank(draw, lo: int, hi: int) -> YFWord:
    remaining = draw(st.integers(lo, hi))
    digits = []
    while remaining:
        digit = 1 if remaining == 1 else draw(st.sampled_from([1, 2]))
        digits.append(digit)
        remaining -= digit
    return YFWord(tuple(digits))


@settings(derandomize=True, deadline=None)
@given(words_of_rank(14, 20))
def test_walk_masses_match_direct_measure_at_high_rank(v):
    # Walk the path of v alone (prepending its digits right to left), then compare
    # the integer mass over n! * D with the direct kernel mu for each core and beta.
    for core in ("eps", "22", "212"):
        w = TailOnesWord.parse(core)
        node = experiments._ROOT
        for digit in reversed(v):
            node = experiments._child(node, digit, w)
        assert node.digits == tuple(v)
        for beta in (Fr(1, 2), Fr(3, 7), Fr(1)):
            weights, den = mass_weights_by_loop(w, beta, v.rank)
            walked = Fr(experiments.node_mass(node, weights), factorial(v.rank) * den)
            assert walked == mu(w, beta, v), (v.text, core, beta)


def _walk_vector(leaf):
    """X(v)[i] = d(empty, v) i! (n - i)! f(v, i, h) of a rank-n leaf v, from its walk
    state: fvec[i] = n! f(v, i, h), so X[i] = d(empty, v) fvec[i] / C(n, i), exactly."""
    vector = []
    for i, F in enumerate(leaf.fvec):
        X, remainder = divmod(leaf.d_eps * F, comb(leaf.rank, i))
        assert remainder == 0
        vector.append(X)
    return vector


def _walk_sums(w, n, cuts):
    """Word by word over the walk: the X sums of each common-suffix rank, and the
    sums of _split_sums (every word, then the words with pi(v) outside each cut
    (lo, hi))."""
    by_h_rank = {}
    sums = [[0] * (n + 1) for _ in range(len(cuts) + 1)]
    for leaf in experiments._iter_nodes(n, w):
        vector, pi_v = _walk_vector(leaf), Fr(leaf.pi_num, leaf.d_eps)
        targets = [by_h_rank.setdefault(leaf.h_rank, [0] * (n + 1)), sums[0]]
        targets += [acc for acc, (lo, hi) in zip(sums[1:], cuts) if not lo < pi_v < hi]
        for acc in targets:
            acc[:] = [a + x for a, x in zip(acc, vector)]
    return by_h_rank, sums


def _vector_sum(vectors):
    return [sum(column) for column in zip(*vectors)]


def _unit(w, n):
    """c = (C(n, i) P_i) and the vector (n! P_0, 0, ..., 0) that c times a level's X
    sum must equal: the masses sum to 1 at every beta."""
    products = harmonic._g_products(w.core, n)
    c = [comb(n, i) * P for i, P in enumerate(products)]
    return c, [factorial(n) * products[0]] + [0] * n


def _gate_cuts(w, betas):
    piw = pi(w)
    return [(piw * (beta - eps), piw * (beta + eps)) for beta in betas for eps in (Fr(1, 4), Fr(1, 10))]


def test_split_sums_equal_the_walk():
    # the class sums per common-suffix rank, and the split sums at every split
    # rank k up to rank 10 and the default split up to rank 18, as X vectors
    # against the walk's; every rank's roots are cut from one chain built at rank
    # 18, and every rank reads the rank-18 factor table
    betas = (Fr(1, 2), Fr(3, 7), Fr(1))
    for core in ("eps", "2", "22", "212", "2122"):
        w = TailOnesWord.parse(core)
        cuts = _gate_cuts(w, betas)
        classes, factors = experiments._classes(w, 18), experiments._g_factors(18)
        for n in range(19):
            by_h_rank, expected = _walk_sums(w, n, cuts)
            c, unit = _unit(w, n)
            assert [a * b for a, b in zip(c, expected[0])] == unit, (core, n)
            roots = experiments._roots_at(classes, n)
            summed = {}
            for h_rank, vector in experiments._class_masses(roots, n, factors):
                acc = summed.setdefault(h_rank, [0] * (n + 1))
                acc[:] = [a + x for a, x in zip(acc, vector)]
            assert summed == by_h_rank, (core, n)
            splits = range(n + 1) if n <= 10 else [None]
            for k in splits:
                assert experiments._split_sums(roots, n, factors, cuts, split=k) == expected, (core, n, k)


def test_split_sums_refuse_a_cut_with_lo_not_below_hi():
    # the rank-0 word has pi 1: outside (1, 1) it lies in both the <= lo bucket and
    # the >= hi one, and was counted twice; such a cut is refused before any work
    w = TailOnesWord.parse("eps")
    roots, factors = experiments._roots_at(experiments._classes(w, 0), 0), experiments._g_factors(0)
    good = [(Fr(0), Fr(2))]
    _, expected = _walk_sums(w, 0, good)
    assert experiments._split_sums(roots, 0, factors, good) == expected == [[1], [0]]
    for lo, hi in ((Fr(1), Fr(1)), (Fr(2), Fr(1))):
        with pytest.raises(ValueError, match="lo < hi"):
            experiments._split_sums(roots, 0, factors, good + [(lo, hi)])


def test_split_sums_keep_exact_ties_and_shares_add_up():
    # cuts at the exact pi(v) of rank-n words: a value many words share, the
    # smallest and the largest, with lo <= 0 and hi > 1; a word with pi(v) == lo
    # or pi(v) == hi lies outside, so both <= at lo and < at hi are exercised
    # (the engine takes lo < hi, as every sweep's cut does)
    for core in ("eps", "22", "2122"):
        w = TailOnesWord.parse(core)
        classes, factors = experiments._classes(w, 14), experiments._g_factors(14)
        for n in range(15):
            counts = Counter(Fr(leaf.pi_num, leaf.d_eps) for leaf in experiments._iter_nodes(n, w))
            shared = max(counts, key=lambda value: (counts[value], value))
            least, most = min(counts), max(counts)
            cuts = [(lo, hi) for lo, hi in [(shared, most), (least, shared), (Fr(-1), shared),
                                            (Fr(0), least), (shared, Fr(3, 2)), (least, most)]
                    if lo < hi]
            if n >= 6:
                assert counts[shared] > 1, (core, n)
            _, expected = _walk_sums(w, n, cuts)
            roots = experiments._roots_at(classes, n)
            assert experiments._split_sums(roots, n, factors, cuts) == expected, (core, n)
            for parts in (2, 3):
                shares = [experiments._split_sums(roots, n, factors, cuts, (p, parts))
                          for p in range(parts)]
                assert [_vector_sum(vectors) for vectors in zip(*shares)] == expected, (core, n, parts)


def test_pi_keys_are_exact_ints_over_n_factorial():
    # every right half (grown from the class roots to rank n // 2) and every left
    # half (grown from all ones above each right-half rank, through the task layer)
    # of a rank-n word: d divides n!, and its key is pi n! exactly, so the keys sort
    # and tie as pi; the engine's walker yields the states of _prepend with _grow,
    # in order, with equal vectors and the _pi_key of each
    for core in ("eps", "2", "22", "212", "2122"):
        w = TailOnesWord.parse(core)
        classes, factors = experiments._classes(w, 20), experiments._g_factors(20)
        grow = lambda state, digit: boundary._grow(state, digit, factors)
        for n in range(21):
            fac = factorial(n)
            walked = lambda states: [(state[0], state[1], experiments._pi_key(state, fac)) for state in states]
            roots = [root for _, root in experiments._roots_at(classes, n)]
            rights = [state for root in roots for state in boundary._prepend(root, n // 2, n, grow)]
            assert [half for root in roots for half in experiments._halves(
                (root[0], root[1], experiments._pi_key(root, fac)), n // 2, n, factors)] == walked(rights)
            lefts = []
            for r in sorted({state[0] for state in rights}):
                depth = min(r + experiments._TASK_DEPTH, n)
                tasks = list(boundary._prepend((r, [1] * (n + 1), 1, 1), depth, n, grow))
                halves = list(experiments._halves((r, [1] * (n + 1), fac), depth, n, factors))
                assert halves == walked(tasks), (core, n, r)
                grown = [state for task in tasks for state in boundary._prepend(task, n, n, grow)]
                assert [state for half in halves for state in experiments._halves(half, n, n, factors)] \
                    == walked(grown), (core, n, r)
                lefts += grown
            for states in (rights, lefts):
                pis = [Fr(pi_num, d) for _, _, d, pi_num in states]
                keys = [experiments._pi_key(state, fac) for state in states]
                assert all(fac % d == 0 for _, _, d, _ in states), (core, n)
                assert [Fr(key, fac) for key in keys] == pis, (core, n)
                order = sorted(range(len(states)), key=pis.__getitem__)
                assert sorted(range(len(states)), key=keys.__getitem__) == order, (core, n)
                assert len(set(keys)) == len(set(pis)), (core, n)


def _bounds(cuts, n):
    """The (den, least) of the lo and the hi of each cut, as _split_sums hoists them:
    a right half drops at lo once Kb (den Ku) > num n!^2, at hi once it is >= num n!^2."""
    scale = factorial(n) ** 2
    return [(bound.denominator, bound.numerator * scale + least)
            for lo, hi in cuts for bound, least in ((lo, 1), (hi, 0))]


def test_left_groups_put_a_product_equal_to_lo_or_hi_outside():
    # one left half u (key 4 at n = 3, pi(u) = 2/3) and one right half b (key 3,
    # pi(b) = 1/2) planted with pi(u) pi(b) = 1/3: at lo = 1/3 the key counts as
    # at most lo / pi(u), at hi = 1/3 it does not count as below hi / pi(u), so v
    # lies outside both cuts, and inside the control cut (1/4, 1/2)
    n, vec, xb = 3, [1, 2, 3, 5], [7, 11, 13, 17]
    cuts = [(Fr(1, 3), Fr(1)), (Fr(1, 4), Fr(1, 3)), (Fr(1, 4), Fr(1, 2))]
    total, buckets = experiments._left_groups([(n, vec, 4)], n, [3], _bounds(cuts, n))
    zero = [0] * (n + 1)
    assert total == vec
    assert buckets == [({1: vec}, {1: vec}), ({1: zero, 0: vec}, {1: zero, 0: vec}),
                       ({1: zero, 0: vec}, {1: vec})]
    # the outside sum: each bucket m times the X sum of the m smallest keys, plus all keys times total
    running = {0: zero, 1: xb}
    outside = [[sum(running[m][i] * (at_most.get(m, zero)[i] - below.get(m, zero)[i]) for m in running)
                + xb[i] * total[i] for i in range(n + 1)] for at_most, below in buckets]
    product = [a * b for a, b in zip(xb, vec)]
    assert outside == [product, product, zero]


def test_left_groups_equal_the_one_pointer_loop():
    # random sorted keys with ties on both sides, 0 to 3 cuts, bounds at or below 0
    # (a cut with beta <= eps) and empty left lists: the two passes (one bisecting
    # scalar pass per bound, one vector pass) give the groups of the loop that moves
    # one pointer per bound over every left half
    rng = random.Random(20)
    for case in range(400):
        n = rng.randrange(4)
        keys = sorted(rng.choices(range(1, 13), k=rng.randrange(6)))
        lefts = sorted(((n, [rng.randrange(-9, 10) for _ in range(n + 1)], rng.randrange(1, 13))
                        for _ in range(rng.randrange(1, 8) if case % 4 else 0)), key=lambda state: state[2])
        bounds = [(rng.randrange(1, 4), rng.randrange(-20, 300)) for _ in range(2 * rng.randrange(4))]
        assert experiments._left_groups(lefts, n, keys, bounds) == \
            left_groups_by_pointers(lefts, n, keys, bounds), (case, lefts, keys, bounds)


def _cores_up_to(length):
    """eps and every canonical core (first digit 2) of at most length digits."""
    cores, frontier = ["eps"], ["2"]
    for _ in range(length):
        cores += frontier
        frontier = [core + digit for core in frontier for digit in "12"]
    return [TailOnesWord.parse(core) for core in cores]


def test_engine_totals_are_one_as_polynomials():
    # c times each engine's total is (n! P_0, 0, ..., 0): the masses of every level
    # sum to 1 at every beta, for eps and every core of length <= 5
    cores = _cores_up_to(5)
    assert len(cores) == 32
    for w in cores:
        classes, factors = experiments._classes(w, 20), experiments._g_factors(20)
        for n in range(21):
            c, unit = _unit(w, n)
            roots = experiments._roots_at(classes, n)
            total = _vector_sum(m for _, m in experiments._class_masses(roots, n, factors))
            assert [a * b for a, b in zip(c, total)] == unit, (w, n)
            if n <= 14:
                (total,) = experiments._split_sums(roots, n, factors, [])
                assert [a * b for a, b in zip(c, total)] == unit, (w, n)


def test_total_assert_sees_what_the_grid_betas_cannot(monkeypatch):
    # a class vector raised by Delta with c * Delta = m (1, -3, 2, 0, ...), the
    # coefficients of (2 beta - 1)(beta - 1): the total at the swept betas 1/2
    # and 1 does not move, so only the polynomial assert sees the change
    w, n, l = ALL_ONES, 8, 2
    c, _ = _unit(w, n)  # C(n, i): eps has no g-values
    m = c[1] * c[2]
    delta = [m // c[0], -3 * m // c[1], 2 * m // c[2]] + [0] * (n - 2)
    planted = [a * b for a, b in zip(c, delta)]
    assert planted[:3] == [m, -3 * m, 2 * m]
    for beta in (Fr(1, 2), Fr(1)):
        assert boundary._scaled_value(planted, beta, n) == 0
    original = experiments._class_masses

    def perturbed(roots, n, factors):
        (h_rank, vector), *rest = original(roots, n, factors)
        return [(h_rank, [a + b for a, b in zip(vector, delta)]), *rest]

    params = dict(suffix_params=[(Fr(1, 2), l), (Fr(1), l)])
    assert sweep_many(w, [n], **params)
    monkeypatch.setattr(experiments, "_class_masses", perturbed)
    with pytest.raises(AssertionError, match="class masses do not sum to 1"):
        sweep_many(w, [n], **params)


def test_sweep_at_rank_40():
    # sweep_many asserts that the rank's masses sum to exactly 1 at every beta
    tails = sweep_many(CORES[2], [40], suffix_params=[(Fr(1, 2), 2)],
                       pi_params=[(Fr(3, 7), Fr(1, 4))])
    assert all(0 < tail < 1 for tail in tails.values())


def test_sweep_matches_brute_force():
    w = CORES[2]
    beta = Fr(1, 2)
    for l in (1, 2):
        report = concentration_sweep("suffix", w, beta, l, [4, 6, 8])
        for row in report.rows:
            _, outside = q_sets(w, row.n, l)
            expected = sum(mu(w, beta, v) for v in outside)
            assert row.tail == expected
            assert row.tail + row.head == 1
    eps = Fr(1, 4)
    report = concentration_sweep("pi", w, beta, eps, [4, 6, 8])
    for row in report.rows:
        _, outside = r_sets(w, beta, row.n, eps)
        assert row.tail == sum(mu(w, beta, v) for v in outside)


def test_sweep_zero_threshold_gives_zero_tail():
    report = concentration_sweep("suffix", CORES[1], Fr(1, 2), 0, [3, 5])
    assert all(row.tail == 0 for row in report.rows)


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        concentration_sweep("suffix", CORES[0], Fr(1, 2), 1, [])
    with pytest.raises(ValueError):
        concentration_sweep("suffix", CORES[0], Fr(1, 2), 1, [4, 4])
    with pytest.raises(ValueError):
        concentration_sweep("nope", CORES[0], Fr(1, 2), 1, [4])
    with pytest.raises(ValueError):
        concentration_sweep("pi", CORES[0], Fr(1, 2), Fr(0), [4])
    with pytest.raises(ValueError):
        concentration_sweep("suffix", CORES[0], Fr(1, 2), 1, [-1])
    with pytest.raises(ValueError, match="l must be nonnegative"):
        concentration_sweep("suffix", CORES[0], Fr(1, 2), -1, [4])
    with pytest.raises(ValueError, match="l must be nonnegative"):
        sweep_many(CORES[2], [6], suffix_params=[(Fr(1, 2), -1)])
    for l in (Fr(5, 2), 2.9):  # int() would truncate either to 2
        with pytest.raises(ValueError, match="l must be an integer"):
            concentration_sweep("suffix", CORES[2], Fr(1, 2), l, [10])
        with pytest.raises(ValueError, match="l must be an integer"):
            sweep_many(CORES[2], [10], suffix_params=[(Fr(1, 2), l)])
    for eps in (Fr(0), Fr(-1, 4)):
        with pytest.raises(ValueError):
            sweep_many(CORES[2], [4], pi_params=[(Fr(1, 2), eps)])


def test_sweep_many_agrees_with_single_sweeps(monkeypatch):
    w = CORES[3]
    combos = sweep_many(w, [5, 7],
                        suffix_params=[(Fr(1, 2), 1), (Fr(1), 2)],
                        pi_params=[(Fr(1, 2), Fr(1, 4))])
    for beta, l in [(Fr(1, 2), 1), (Fr(1), 2)]:
        single = concentration_sweep("suffix", w, beta, l, [5, 7])
        for row in single.rows:
            assert combos[("suffix", beta, l, row.n)] == row.tail
    single = concentration_sweep("pi", w, Fr(1, 2), Fr(1, 4), [5, 7])
    for row in single.rows:
        assert combos[("pi", Fr(1, 2), Fr(1, 4), row.n)] == row.tail
    # a suffix-only sweep cuts every rank's roots from one chain built at its top rank
    ranks, params = [8, 60, 100], dict(suffix_params=[(Fr(1, 2), 2), (Fr(3, 7), 5)])
    singles = {}
    for n in ranks:
        singles.update(sweep_many(w, [n], **params))
    calls = []
    original = experiments._classes

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "_classes", counting)
    assert sweep_many(w, ranks, **params) == singles
    assert len(calls) == 1
    assert sweep_many(w, []) == {}


def test_sweep_many_keeps_one_factor_table():
    # every rank reads the one table built at the sweep's top rank
    params = dict(suffix_params=[(Fr(1, 2), 2)], pi_params=[(Fr(1, 2), Fr(1, 4))])
    experiments._g_factors.cache_clear()
    sweep_many(CORES[2], [10, 14, 18, 22], **params)
    info = experiments._g_factors.cache_info()
    assert info.currsize <= 1
    assert info.misses == 1


def test_suffix_sweep_at_rank_100():
    # sweep_many asserts that the class masses sum to exactly 1 at every beta
    tails = sweep_many(CORES[2], [100], suffix_params=[(Fr(1, 2), 2), (Fr(3, 7), 0)])
    assert tails["suffix", Fr(3, 7), 0, 100] == 0
    assert 0 < tails["suffix", Fr(1, 2), 2, 100] < 1


def test_suffix_sweep_splits_no_word_and_opens_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suffix-only sweep split words or opened a pool")

    ranks = [experiments._POOL_RANK, experiments._POOL_RANK + 2]
    params = dict(suffix_params=[(Fr(1, 2), 2), (Fr(3, 7), 3)])
    expected = sweep_many(CORES[3], ranks, **params)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    monkeypatch.setattr(experiments, "_split_sums", refuse)
    assert sweep_many(CORES[3], ranks, jobs=2, **params) == expected


def test_parallel_sweep_matches_serial(monkeypatch):
    monkeypatch.setattr(experiments, "_POOL_RANK", 10)  # rank 11 takes the pooled path
    w = CORES[2]
    serial = concentration_sweep("pi", w, Fr(1, 2), Fr(1, 4), [11], jobs=1)
    parallel = concentration_sweep("pi", w, Fr(1, 2), Fr(1, 4), [11], jobs=2)
    assert serial.rows == parallel.rows


def test_parallel_sweep_opens_one_pool_per_call(monkeypatch):
    started = []
    original = multiprocessing.pool.Pool.__init__

    def counting(self, *args, **kwargs):
        started.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting)
    monkeypatch.setattr(experiments, "_POOL_RANK", 10)  # both ranks take the pooled path
    params = dict(suffix_params=[(Fr(1, 2), 2)], pi_params=[(Fr(1), Fr(1, 4))])
    parallel = sweep_many(CORES[2], [10, 11], jobs=2, **params)
    assert len(started) == 1
    assert parallel == sweep_many(CORES[2], [10, 11], jobs=1, **params)


def test_jobs_clamped_to_cpu_count(monkeypatch):
    def no_pool(method=None):
        raise AssertionError("no pool may start on one CPU")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(experiments, "_POOL_RANK", 10)  # rank 10 would take the pooled path
    params = dict(suffix_params=[(Fr(1, 2), 2)], pi_params=[(Fr(1, 2), Fr(1, 4))])
    assert sweep_many(CORES[2], [10], jobs=2, **params) == sweep_many(CORES[2], [10], **params)


def test_report_csv_shape():
    report = concentration_sweep("suffix", CORES[1], Fr(1, 2), 1, [3, 5])
    lines = report.to_csv().splitlines()
    assert lines[0] == "mode,core,beta,param,n,tail,head,arithmetic"
    assert len(lines) == 3
    assert lines[1].startswith("suffix,2,1/2,1,3,")


def test_identity_suite_green_at_rank_6():
    report = identity_suite(6)
    assert report.all_passed
    failures = [r.name for r in report.results if not r.passed]
    assert failures == []
    by_name = {r.name: r for r in report.results}
    expected_names = {
        "evtuh5", "evtuh7", "evtuh11", "evtuh12", "evtuh91", "evtuh92",
        "evtuh93", "q_recurrence", "odnoitozhe", "kusok", "razbivaem",
        "meexy", "delitsa", "binomische1", "binomische2", "schyot",
        "binom1", "mamka2", "dostalo", "sum", "stolb", "lehamed", "zabe",
    }
    assert set(by_name) == expected_names
    assert by_name["evtuh5"].instances == sum(fibonacci(n + 1) for n in range(1, 7))


def test_identity_suite_rank_cap():
    for max_rank in (17, -1):
        with pytest.raises(ValueError):
            identity_suite(max_rank)


def test_identity_suite_builds_each_table_once(monkeypatch):
    passes, tables = [], []
    original_pass, original_assemble = experiments._class_pass, experiments._assemble_table

    def counting_pass(w, top):
        passes.append((w, top))
        return original_pass(w, top)

    def counting_assemble(w, n, known, d1):
        tables.append((w, n))
        return original_assemble(w, n, known, d1)

    monkeypatch.setattr(experiments, "_class_pass", counting_pass)
    monkeypatch.setattr(experiments, "_assemble_table", counting_assemble)
    assert identity_suite(3).all_passed
    # one class pass per core at the suite's top rank serves the tables of every
    # rank; each table is assembled once and serves every beta
    assert passes == [(w, 3) for w in CORES]
    assert len(tables) == 4 * 4  # cores x ranks 0..3
    assert set(tables) == {(w, n) for w in CORES for n in range(4)}


def test_suite_tables_equal_single_table_builds():
    # the suite assembles ranks 0..max_rank from one class pass per core at
    # max_rank; each table must equal the one built at its own rank
    ctx = experiments._SuiteContext(8, experiments.DEFAULT_BETA_GRID, tuple(CORES))
    assert set(ctx.tables) == {(w, n) for w in CORES for n in range(9)}
    for (w, n), table in ctx.tables.items():
        assert table == factored_table(w, n), (w, n)


def test_identity_suite_cuts_the_row_memo_after_the_f_identities(monkeypatch):
    # after evtuh93, each word keeps its rows at z = 0 and z = h(x, w) for each
    # core; no later check reads another row, and none is rebuilt
    contexts, held_at_cut = [], []

    class Recording(experiments._SuiteContext):
        def cut_rows(self):
            contexts.append(self)
            super().cut_rows()
            held_at_cut.append({x: set(rows) for x, rows in self.rows.items()})

    monkeypatch.setattr(experiments, "_SuiteContext", Recording)
    assert identity_suite(6).all_passed
    (ctx,) = contexts
    expected = {x: {0} | {boundary.h_infinite(x, w).length for w in CORES}
                for n in range(7) for x in enumerate_level(n)}
    assert held_at_cut == [expected]
    assert {x: set(rows) for x, rows in ctx.rows.items()} == expected


def _rows_with_f_21_0_0_raised(x, top):
    """experiments._f_rows(x, top), with f(21, 0, 0) raised by 1 in the z = 0 row."""
    rows = harmonic._f_rows(x, top)
    if tuple(x) == (2, 1):
        rows[0] = [rows[0][0] + factorial(sum(x))] + rows[0][1:]
    return rows


def test_corrupted_f_is_caught_with_a_witness(monkeypatch):
    # f(21, 0, 0) + 1 through the suite's one f seam, its memo of _f_rows: the
    # f identities must fail with a witness, and the corruption reaches kusok
    # and the d_beta identities, which read the same rows
    monkeypatch.setattr(experiments, "_f_rows", _rows_with_f_21_0_0_raised)
    report = identity_suite(4)
    assert not report.all_passed
    by_name = {r.name: r for r in report.results}
    assert by_name["evtuh5"].failures > 0
    assert "21" in by_name["evtuh5"].first_counterexample
    for name in ("kusok", "delitsa", "binomische1", "binomische2", "binom1", "mamka2"):
        assert not by_name[name].passed, name
        assert "x=21" in by_name[name].first_counterexample, name
    assert "FAIL" in report.to_csv()


def test_identity_suite_builds_each_f_row_once(monkeypatch):
    rows, unwinds = [], []
    original_rows, original_unwind = experiments._f_rows, harmonic._scaled_f

    def counting_rows(x, top):
        rows.append((tuple(x), top))
        return original_rows(x, top)

    def counting_unwind(x, y, z):
        unwinds.append((tuple(x), y, z))
        return original_unwind(x, y, z)

    monkeypatch.setattr(experiments, "_f_rows", counting_rows)
    monkeypatch.setattr(experiments, "_scaled_f", counting_unwind)
    monkeypatch.setattr(harmonic, "_scaled_f", counting_unwind)
    assert identity_suite(5).all_passed
    # one build per word of rank 0..5, every row z = 0..length at once, shared by
    # the f identities, the kernels, kusok's heads and the d_beta identities; the
    # rows come from one chain walk per suffix split, not from single entries
    assert len(set(rows)) == len(rows)
    assert set(rows) == {(tuple(x), len(x)) for n in range(6) for x in enumerate_level(n)}
    assert unwinds == []


def test_identity_suite_leaves_the_f_memo_empty():
    harmonic._f.cache_clear()
    assert identity_suite(8).all_passed
    assert harmonic._f.cache_info().currsize == 0


def test_identity_suite_builds_each_kernel_once(monkeypatch):
    calls = []
    original = experiments._kernel_terms

    def counting(x, w, f_row):
        calls.append((tuple(x), w))
        return original(x, w, f_row)

    monkeypatch.setattr(experiments, "_kernel_terms", counting)
    monkeypatch.setattr(boundary, "_kernel_terms", counting)
    assert identity_suite(5).all_passed
    # one kernel per (x, w): cores x words of rank 0..5, shared by kusok and zabe (the
    # tables read no kernel: they come from the class engine)
    assert len(calls) == 4 * sum(fibonacci(n + 1) for n in range(6))
    assert len(set(calls)) == len(calls)


def test_identity_suite_reads_d_and_pi_once_per_word(monkeypatch):
    calls = Counter()

    def counting(name, function):
        def count(x, *args):
            calls[name, tuple(x), args] += 1
            return function(x, *args)
        return count

    monkeypatch.setattr(experiments, "d_from_empty", counting("d", experiments.d_from_empty))
    monkeypatch.setattr(experiments, "_g_ratio_parts", counting("pi", experiments._g_ratio_parts))
    assert identity_suite(6).all_passed
    # one d(empty, x) and one pi(x) per word of rank 0..6, shared by every split of
    # razbivaem and meexy and by zabe's masses
    words = [tuple(x) for n in range(7) for x in enumerate_level(n)]
    assert calls == Counter({**{("d", x, ()): 1 for x in words}, **{("pi", x, (1,)): 1 for x in words}})


def test_kusok_failures_match_pointwise_reference(monkeypatch):
    # kusok decides the int difference of its two sides on its coefficients; a
    # kernel raised by a constant on the word 21 must give the failures and the
    # witness of the literal pointwise check, which uses the perturbed kernel
    # wherever it enters and decides each (x, w) at rank(x) + 1 distinct betas,
    # enough for two sides of degree at most rank(x)
    original = experiments._kernel_terms

    def perturbed(x, w, *f_row):
        terms, den = original(x, w, *f_row)
        return ([terms[0] + den] + terms[1:], den) if tuple(x) == (2, 1) else (terms, den)

    def kernel(x, w, beta):
        terms, den = perturbed(x, w)
        return sum(t * beta ** i for i, t in enumerate(terms)) / den

    def differs(x, w, beta):
        rhs = sum(beta ** sum(suffix(x, i)) * d_beta(prefix(x, i))(beta)
                  * kernel(suffix(x, i), w, Fr(1)) for i in range(len(x) + 1))
        return kernel(x, w, beta) != rhs

    monkeypatch.setattr(experiments, "_kernel_terms", perturbed)
    grid_failures, failing_pairs, first = 0, [], None
    for n in range(6):
        for x in enumerate_level(n):
            for w in CORES:
                grid_failures += sum(differs(x, w, beta) for beta in experiments.DEFAULT_BETA_GRID)
                if any(differs(x, w, Fr(k, n + 1)) for k in range(1, n + 2)):
                    failing_pairs.append((x, w))
                    first = first or f"x={x.text} core={w.core.text or 'eps'} beta=1/4"
    # at beta = 1 the constant enters both sides of x = 21, and d_beta(head)
    # vanishes for a nonempty head, so some grid points of a failing (x, w)
    # pass pointwise; decided on coefficients, it fails at every beta
    assert 0 < grid_failures < 4 * len(failing_pairs)
    kusok = {r.name: r for r in identity_suite(5).results}["kusok"]
    assert kusok.instances == sum(fibonacci(n + 1) for n in range(6)) * 4 * 4
    assert (kusok.failures, kusok.first_counterexample) == (4 * len(failing_pairs), first)


def test_d_beta_identities_match_fraction_reference(monkeypatch):
    # the d_beta identities decide on the z = 0 int rows of the suite's _f_rows
    # memo and on their quotients by (1 - beta)^length(x); the row of the word 21
    # raised by rank! at beta^0, i.e. f(21, 0, 0) + 1, must give the failures and
    # the witness of the literal Fraction checks of their docstrings under the
    # same perturbation
    def coeffs(x):
        return [f(x, i, 0) + (1 if (tuple(x), i) == ((2, 1), 0) else 0)
                for i in range(sum(x) + 1)]

    def value(cs, t):
        return sum((c * t ** i for i, c in enumerate(cs)), Fr(0))

    def quotient(x):
        # long division by (1 - beta) from the top: c_d = -Q_(d-1), c_k = Q_k - Q_(k-1)
        cs = coeffs(x)
        for _ in range(len(x)):
            qs = [Fr(0)] * (len(cs) - 1)
            for k in range(len(cs) - 1, 0, -1):
                qs[k - 1] = (qs[k] if k < len(qs) else 0) - cs[k]
            if cs[0] - (qs[0] if qs else 0) != 0:
                return None
            cs = qs
        return cs

    def partial(x, i, m, weight=lambda j: 1):
        return sum((weight(j) * c * comb(m - 1 + i - j, m - 1)
                    for j, c in enumerate(coeffs(x)) if j <= i), Fr(0))

    expected = {}

    def check(name, ok, witness):
        entry = expected.setdefault(name, [0, 0, None])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or witness

    for n in range(6):
        for x in enumerate_level(n):
            L, R, Q = len(x), n, quotient(x)
            check("delitsa", Q is not None and value(Q, 1) != 0, f"x={x.text}")
            if L > 0:
                for i in range(R - L + 1, R + 1):
                    check("binomische1", partial(x, i, L) == 0, f"x={x.text} i={i}")
                check("binomische2", Q == [partial(x, i, L) for i in range(R - L + 1)],
                      f"x={x.text}")
            if L >= 2:
                for i in range(1, R + 1):
                    second = partial(x, i, L - 1, weight=lambda j: R - j)
                    check("schyot", partial(x, i, L) * (R - i)
                          == partial(x, i - 1, L) * (R - i - L + 1) + second, f"x={x.text} i={i}")
            if L > 0:
                for i in range(L + 1):
                    check("binom1", partial(x, i, L) <= q(x) * comb(L, i), f"x={x.text} i={i}")
            for beta in experiments.DEFAULT_BETA_GRID:
                check("mamka2", value(coeffs(x), beta) <= q(x) * (1 - beta * beta) ** L,
                      f"x={x.text} beta={beta}")
    assert {name: failures for name, (_, failures, _) in expected.items()} == {
        "delitsa": 1, "binomische1": 2, "binomische2": 1, "schyot": 0, "binom1": 3, "mamka2": 4}
    monkeypatch.setattr(experiments, "_f_rows", _rows_with_f_21_0_0_raised)
    report = {r.name: r for r in identity_suite(5).results}
    assert {name: (report[name].instances, report[name].failures,
                   report[name].first_counterexample) for name in expected} == {
        name: tuple(entry) for name, entry in expected.items()}


def test_sum_failures_match_pointwise_reference(monkeypatch):
    # sum decides each column on its coefficients in (1 - beta^2); a perturbed
    # factored cell must fail at every beta of its column, with the witness of
    # the literal pointwise column check
    w22, v, split = CORES[2], parse("2111"), 1  # head 2, tail 111
    original = experiments._assemble_table
    perturbation = {}

    def perturbed(w, n, known, d1):
        table = original(w, n, known, d1)
        if (w, n) != (w22, 5):
            return table
        rows = [list(cells) for cells in table.rows]
        r = table.level.words.index(v)
        y, k, c = rows[r][split]
        rows[r][split] = (y, k, c + 1)
        perturbation.update(y=y, k=k, den=table.den)
        return FactoredTable(table.w, table.n, table.level, table.den, tuple(tuple(cells) for cells in rows))

    monkeypatch.setattr(experiments, "_assemble_table", perturbed)
    report = {r.name: r for r in identity_suite(5).results}
    y, k = perturbation["y"], perturbation["k"]
    failures, first = 0, None
    for w in CORES:
        for beta in experiments.DEFAULT_BETA_GRID:
            for n in range(6):
                for col in range(n + 1):
                    column = sum(magic_entry(w, beta, n, word, col) for word in enumerate_level(n))
                    if (w, n, col) == (w22, 5, y):
                        column += Fr(1, perturbation["den"]) * beta ** y * (1 - beta * beta) ** k
                    if column != column_sum_closed_form(beta, n, col):
                        failures += 1
                        first = first or f"core={w.core.text or 'eps'} beta={beta} n={n} y={col}"
    # the head is nonempty, so at beta = 1 the perturbation vanishes and that
    # grid point passes pointwise; the nonzero coefficient fails it too
    assert (y, k) == (3, 1) and failures == 3
    assert report["sum"].instances == 4 * 4 * sum(n + 1 for n in range(6))
    assert (report["sum"].failures, report["sum"].first_counterexample) == (failures + 1, first)


def test_planted_differences_vanishing_on_the_grid_are_reported(monkeypatch):
    # differences that vanish at the four grid betas but are not the zero
    # polynomial: kusok's of one (x, w) has the coefficients of
    # (4b - 1)(2b - 1)(4b - 3)(b - 1) in b = beta, and sum's of one closed
    # column those of t (4t - 3)(16t - 7)(16t - 15) in t = 1 - beta^2; a check
    # at the grid points passes both, the coefficient check fails each at
    # every beta
    in_beta, in_t = [3, -25, 70, -80, 32], [0, -315, 1476, -2176, 1024]
    for beta in experiments.DEFAULT_BETA_GRID:
        assert boundary._scaled_value(in_beta, beta, 4) == 0
        assert boundary._scaled_value(in_t, 1 - beta * beta, 4) == 0
    x0, w0 = parse("2111"), CORES[2]  # its coefficients sum to 0: no tail of a longer x moves
    original_terms, original_columns = experiments._kernel_terms, experiments.column_closed_form_coeffs

    def planted_terms(x, w, *f_row):
        terms, den = original_terms(x, w, *f_row)
        if (tuple(x), w) == (tuple(x0), w0):
            terms = [t + c for t, c in zip(terms, in_beta + [0] * len(terms))]
        return terms, den

    def planted_columns(n, y):
        coeffs = original_columns(n, y)
        return tuple(b + c for b, c in zip(coeffs, in_t + [0] * len(coeffs))) if (n, y) == (5, 0) else coeffs

    monkeypatch.setattr(experiments, "_kernel_terms", planted_terms)
    monkeypatch.setattr(experiments, "column_closed_form_coeffs", planted_columns)
    report = {r.name: r for r in identity_suite(5).results}
    assert (report["kusok"].failures, report["kusok"].first_counterexample) == (4, "x=2111 core=22 beta=1/4")
    assert (report["sum"].failures, report["sum"].first_counterexample) == (4 * 4, "core=eps beta=1/4 n=5 y=0")


def _per_instance(instances):
    """(instances, failures, first witness) of a literal loop over (holds, witness) pairs."""
    failing = [witness for holds, witness in instances if not holds]
    return len(instances), len(failing), failing[0] if failing else None


def _suite_result(name):
    """(instances, failures, first witness) of one identity of identity_suite(5)."""
    result = {r.name: r for r in identity_suite(5).results}[name]
    return result.instances, result.failures, result.first_counterexample


def test_razbivaem_failures_match_per_instance_reference(monkeypatch):
    # d(empty, 21) raised by 1 through the suite's d(empty, .) seam, its per-word map:
    # razbivaem must give the failures and the witness of the literal per-split check
    def d(x):
        return pathcount.d_from_empty(x) + (tuple(x) == (2, 1))

    expected = _per_instance([
        (d(x) == d(suffix(x, i)) * d(prefix(x, i) + ones_word(sum(suffix(x, i)))), f"x={x.text} split={i}")
        for n in range(6) for x in enumerate_level(n) for i in range(len(x) + 1)])
    assert expected[1] > 0
    monkeypatch.setattr(experiments, "d_from_empty", d)
    assert _suite_result("razbivaem") == expected


def test_meexy_failures_match_per_instance_reference(monkeypatch):
    # pi(21) raised by 1 through the suite's pi seam, harmonic._g_ratio_parts read once
    # per word: meexy must give the failures and the witness of the literal Fraction check
    def parts(x, k):
        num, den = harmonic._g_ratio_parts(x, k)
        return (num + den, den) if tuple(x) == (2, 1) else (num, den)

    def pi_(x):
        return Fr(*parts(x, 1))

    expected = _per_instance([
        (pi_(v) == pi_(prefix(v, i) + ones_word(sum(suffix(v, i)))) * pi_(suffix(v, i)),
         f"v={v.text} y={sum(suffix(v, i))}")
        for n in range(6) for v in enumerate_level(n) for i in range(len(v) + 1)])
    assert expected[1] > 0
    monkeypatch.setattr(experiments, "_g_ratio_parts", parts)
    assert _suite_result("meexy") == expected


def test_evtuh7_failures_match_per_instance_reference(monkeypatch):
    # f(211, 1, 2) + 1 and f(211, 2, 1) + 1 in the suite's row memo, rows at z > 0 that
    # only the f identities read: evtuh7 must give the failures and the witness of the
    # literal Fraction check of the prepend law, instance by instance in (a, x, y, z)
    # order, y before z
    planted = {((2, 1, 1), 1, 2), ((2, 1, 1), 2, 1)}

    def rows(x, top):
        out = harmonic._f_rows(x, top)
        for word, y, z in planted:
            if tuple(x) == word:
                out[z][y] += factorial(sum(x))
        return out

    def fv(x, y, z):
        return f(x, y, z) + ((tuple(x), y, z) in planted)

    expected = _per_instance([
        (fv(x, y, z) == fv(YFWord((a,) + x), y, z) * (n + a - y), f"a={a} x={x.text} y={y} z={z}")
        for a in (1, 2) for n in range(6 - a) for x in enumerate_level(n)
        for y in range(n + 1) for z in range(len(x) + 1)])
    assert expected[1:] == (4, "a=1 x=211 y=1 z=2")
    monkeypatch.setattr(experiments, "_f_rows", rows)
    assert _suite_result("evtuh7") == expected


def test_stolb_failures_match_per_instance_reference(monkeypatch):
    # the bound of column 1 of rank 4 at beta = 1/2 planted as 0: stolb must give the
    # failures and the witness of the literal check of each Fraction column sum
    def bound_parts(beta, n, y):
        return (0, 1) if (beta, n, y) == (Fr(1, 2), 4, 1) else magic._column_bound_parts(beta, n, y)

    expected = _per_instance([
        (sum(magic_entry(w, beta, n, v, y) for v in enumerate_level(n)) <= Fr(*bound_parts(beta, n, y)),
         f"core={w.core.text or 'eps'} beta={beta} n={n} y={y}")
        for w in CORES for beta in experiments.DEFAULT_BETA_GRID for n in range(6) for y in range(n + 1)])
    assert expected[1] > 0
    monkeypatch.setattr(experiments, "_column_bound_parts", bound_parts)
    assert _suite_result("stolb") == expected


def test_zabe_failures_match_per_instance_reference(monkeypatch):
    # d(empty, 21) planted at 10 times its value through the suite's d(empty, .) seam:
    # zabe must give the failures and the witness of the literal check of each
    # Fraction mass d(empty, v) d'_beta(v, w) against its Fraction row sum
    def d(x):
        return pathcount.d_from_empty(x) * (10 if tuple(x) == (2, 1) else 1)

    expected = _per_instance([
        (d(v) * boundary.d_beta_prime(v, w, beta) <= sum(magic_entry(w, beta, n, v, y) for y in range(n + 1)),
         f"core={w.core.text or 'eps'} beta={beta} n={n} v={v.text}")
        for w in CORES for beta in experiments.DEFAULT_BETA_GRID for n in range(6) for v in enumerate_level(n)])
    assert expected[1] > 0
    monkeypatch.setattr(experiments, "d_from_empty", d)
    assert _suite_result("zabe") == expected


def test_zabe_reports_failures_in_instance_order(monkeypatch):
    # the kernel values of 21 and 221 for core 22 (no other word of their rank has the
    # same kernel coefficients for any core) raised at beta 3/4 and degree 6 (rank 3) and
    # at beta 1/4 and degree 10 (rank 5): zabe decides every beta in one pass per table,
    # and only the (core, beta, rank, word) order of a per-instance loop gives its first
    # witness
    w22, original = CORES[2], experiments._scaled_value
    targets = {(tuple(boundary._kernel_terms(parse(v), w22)[0]), beta, 2 * sum(parse(v)))
               for v, beta in (("21", Fr(3, 4)), ("221", Fr(1, 4)))}

    def planted(coeffs, t, degree):
        return original(coeffs, t, degree) + 10 ** 30 * ((tuple(coeffs), t, degree) in targets)

    def mass(v, w, beta, n):
        terms, den = boundary._kernel_terms(v, w)
        return pathcount.d_from_empty(v) * Fr(planted(terms, beta, 2 * n), den * beta.denominator ** (2 * n))

    expected = _per_instance([
        (mass(v, w, beta, n) <= sum(magic_entry(w, beta, n, v, y) for y in range(n + 1)),
         f"core={w.core.text or 'eps'} beta={beta} n={n} v={v.text}")
        for w in CORES for beta in experiments.DEFAULT_BETA_GRID for n in range(6) for v in enumerate_level(n)])
    assert expected[1:] == (2, "core=22 beta=1/4 n=5 v=221")
    monkeypatch.setattr(experiments, "_scaled_value", planted)
    assert _suite_result("zabe") == expected


def test_q_recurrence_failures_match_per_instance_reference(monkeypatch):
    # the suffix ranks of 21 planted at twice their product through the suite's seam,
    # so q(21) halves: q_recurrence must give the failures and the witness of the
    # literal Fraction check on harmonic.q
    def ranks(x):
        out = suffix_ranks(x)
        return (2 * out[0],) + out[1:] if tuple(x) == (2, 1) else out

    def q_(x):
        return q(x) / 2 if tuple(x) == (2, 1) else q(x)

    expected = _per_instance([(q_(YFWord(x[1:])) == n * q_(x), f"x={x.text}")
                              for n in range(1, 6) for x in enumerate_level(n)])
    assert expected[1:] == (3, "x=21")  # 21, and 121 and 221 whose x' is 21
    monkeypatch.setattr(experiments, "suffix_ranks", ranks)
    assert _suite_result("q_recurrence") == expected


def test_kusok_and_sum_decide_zero_differences_without_evaluation(monkeypatch):
    # kusok and sum decide every difference once on its coefficients; no check
    # evaluates one at a beta
    calls, current = Counter(), [None]
    original = experiments._scaled_value

    def counting(coeffs, t, degree):
        calls[current[0]] += 1
        return original(coeffs, t, degree)

    def tagged(name, check):
        def run(ctx, rec):
            current[0] = name
            check(ctx, rec)
        return run

    monkeypatch.setattr(experiments, "_scaled_value", counting)
    monkeypatch.setattr(experiments, "IDENTITY_CHECKS",
                        tuple((name, tagged(name, check)) for name, check in experiments.IDENTITY_CHECKS))
    assert identity_suite(5).all_passed
    assert calls["kusok"] == calls["sum"] == 0
    assert calls["mamka2"] > 0 and calls["zabe"] > 0  # the counter sees the other callers


def test_suite_report_formats():
    report = identity_suite(3)
    text = report.to_text()
    assert "ALL IDENTITIES PASS" in text
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "identity,instances,status,first_counterexample"
