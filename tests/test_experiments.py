import dataclasses
import multiprocessing
import multiprocessing.pool
import os
from fractions import Fraction as Fr
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from yflab import boundary, experiments, harmonic
from yflab.boundary import (
    TailOnesWord,
    level_distribution,
    mass_weights,
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
from yflab.magic import column_sum_closed_form, magic_entry
from yflab.words import YFWord, enumerate_level, fibonacci, ones_word, parse, prefix, suffix

from reference_values import f_by_recursion

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
                weights, den = mass_weights(w, beta, n)
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
            weights, den = mass_weights(w, beta, v.rank)
            walked = Fr(experiments.node_mass(node, weights), factorial(v.rank) * den)
            assert walked == mu(w, beta, v), (v.text, core, beta)


def _walk_sums(w, n, weights, cuts):
    """Word by word over the walk, with node_mass: the masses of each common-suffix
    rank (one per beta), and the sums of _split_sums (every word, one per beta,
    then the words with pi(v) outside each cut (b, lo, hi))."""
    by_h_rank = {}
    sums = [0] * (len(weights) + len(cuts))
    for leaf in experiments._iter_nodes(n, w):
        masses = [experiments.node_mass(leaf, vector) for vector in weights]
        acc = by_h_rank.setdefault(leaf.h_rank, [0] * len(weights))
        for b, mass in enumerate(masses):
            acc[b] += mass
            sums[b] += mass
        for j, (b, lo, hi) in enumerate(cuts, len(weights)):
            if not lo < Fr(leaf.pi_num, leaf.d_eps) < hi:
                sums[j] += masses[b]
    return by_h_rank, sums


def _gate_cuts(w, betas):
    piw = pi(w)
    return [(b, piw * (beta - eps), piw * (beta + eps))
            for b, beta in enumerate(betas) for eps in (Fr(1, 4), Fr(1, 10))]


def test_split_sums_equal_the_walk():
    # the class masses per common-suffix rank, and the split sums at every split
    # rank k up to rank 10 and the default split up to rank 18; every rank's roots
    # are cut from one chain built at rank 18, and every rank reads the rank-18 factor table
    betas = (Fr(1, 2), Fr(3, 7), Fr(1))
    for core in ("eps", "2", "22", "212", "2122"):
        w = TailOnesWord.parse(core)
        cuts = _gate_cuts(w, betas)
        classes, factors = experiments._classes(w, 18), experiments._g_factors(18)
        for n in range(19):
            weights = [mass_weights(w, beta, n) for beta in betas]
            scaled = [[comb(n, i) * W for i, W in enumerate(vector)] for vector, _ in weights]
            by_h_rank, expected = _walk_sums(w, n, [vector for vector, _ in weights], cuts)
            assert expected[:len(betas)] == [factorial(n) * den for _, den in weights]
            roots = experiments._roots_at(classes, n)
            summed = {}
            for h_rank, masses in experiments._class_masses(roots, n, scaled, factors):
                acc = summed.setdefault(h_rank, [0] * len(betas))
                for b, mass in enumerate(masses):
                    acc[b] += mass
            assert summed == by_h_rank, (core, n)
            splits = range(n + 1) if n <= 10 else [None]
            for k in splits:
                assert experiments._split_sums(roots, n, scaled, factors, cuts, split=k) == expected, (core, n, k)


def test_sweep_at_rank_40():
    # sweep_many asserts that the rank's masses sum to exactly 1 at each beta
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
    # sweep_many asserts that the class masses sum to exactly 1 at each beta
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
    for max_rank in (13, -1):
        with pytest.raises(ValueError):
            identity_suite(max_rank)


def test_identity_suite_builds_each_table_once(monkeypatch):
    calls = []
    original = experiments.factored_table

    def counting(w, n):
        calls.append((w, n))
        return original(w, n)

    monkeypatch.setattr(experiments, "factored_table", counting)
    assert identity_suite(3).all_passed
    assert len(calls) == 4 * 4  # cores x ranks 0..3; each table serves every beta
    assert len(set(calls)) == len(calls)


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


def test_kusok_failures_match_pointwise_reference(monkeypatch):
    # kusok evaluates the int difference of its two sides at each beta; a
    # kernel raised by a constant on the word 21 must give the failures and
    # the witness of the literal pointwise check, which uses the perturbed
    # kernel wherever it enters
    original = experiments._kernel_terms

    def perturbed(x, w, *f_row):
        terms, den = original(x, w, *f_row)
        return ([terms[0] + den] + terms[1:], den) if tuple(x) == (2, 1) else (terms, den)

    def kernel(x, w, beta):
        terms, den = perturbed(x, w)
        return sum(t * beta ** i for i, t in enumerate(terms)) / den

    monkeypatch.setattr(experiments, "_kernel_terms", perturbed)
    failures, first, failing_pairs = 0, None, set()
    for n in range(6):
        for x in enumerate_level(n):
            for w in CORES:
                for beta in experiments.DEFAULT_BETA_GRID:
                    lhs = kernel(x, w, beta)
                    rhs = sum(beta ** sum(suffix(x, i)) * d_beta(prefix(x, i))(beta)
                              * kernel(suffix(x, i), w, Fr(1)) for i in range(len(x) + 1))
                    if lhs != rhs:
                        failures += 1
                        failing_pairs.add((x, w))
                        first = first or f"x={x.text} core={w.core.text or 'eps'} beta={beta}"
    # at beta = 1 the constant enters both sides of x = 21, and d_beta(head)
    # vanishes for a nonempty head, so some grid points of a failing (x, w) pass
    assert 0 < failures < 4 * len(failing_pairs)
    kusok = {r.name: r for r in identity_suite(5).results}["kusok"]
    assert kusok.instances == sum(fibonacci(n + 1) for n in range(6)) * 4 * 4
    assert (kusok.failures, kusok.first_counterexample) == (failures, first)


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
    # sum compares column coefficients in (1 - beta^2) and falls back to single
    # points only when they differ; a perturbed factored cell must give the
    # failures and the witness of the literal pointwise column check
    w22, v, split = CORES[2], parse("2111"), 1  # head 2, tail 111
    original = experiments.factored_table
    perturbation = {}

    def perturbed(w, n):
        table = original(w, n)
        if (w, n) != (w22, 5):
            return table
        rows = [list(cells) for cells in table.rows]
        r = table.level.words.index(v)
        y, k, c = rows[r][split]
        rows[r][split] = (y, k, c + 1)
        perturbation.update(y=y, k=k, den=table.den)
        return dataclasses.replace(table, rows=tuple(tuple(cells) for cells in rows))

    monkeypatch.setattr(experiments, "factored_table", perturbed)
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
    # grid point still passes
    assert (y, k) == (3, 1) and failures == 3
    assert report["sum"].instances == 4 * 4 * sum(n + 1 for n in range(6))
    assert (report["sum"].failures, report["sum"].first_counterexample) == (failures, first)


def test_suite_report_formats():
    report = identity_suite(3)
    text = report.to_text()
    assert "ALL IDENTITIES PASS" in text
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "identity,instances,status,first_counterexample"
