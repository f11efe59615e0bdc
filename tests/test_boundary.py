from fractions import Fraction as Fr

import pytest

from yflab.boundary import (
    LevelDistribution,
    TailOnesWord,
    d1_prime,
    d_beta_prime,
    h_infinite,
    level_distribution,
    mass_weights,
    mu,
    mu_prelimit,
    suffix_of_infinite,
)
from yflab.harmonic import _g_products, d_beta, f, g_all
from yflab.magic import build_table
from yflab.pathcount import d_from_empty, descent_counts
from yflab.words import EPSILON, enumerate_level, parse, prefix, suffix

from reference_values import f_by_recursion

CORES = [TailOnesWord.parse(c) for c in ("eps", "2", "22", "212")]
BETAS = [Fr(1, 4), Fr(1, 2), Fr(3, 4), Fr(1)]


def test_canonicalization():
    assert TailOnesWord.parse("1122").core == parse("22")
    assert TailOnesWord.parse("eps").core == EPSILON
    assert TailOnesWord.parse("").core == EPSILON
    assert TailOnesWord.parse("1111").core == EPSILON
    with pytest.raises(ValueError):
        TailOnesWord(parse("12"))


def test_suffix_of_infinite():
    w = TailOnesWord.parse("21")
    assert suffix_of_infinite(w, 1) == parse("1")
    assert suffix_of_infinite(w, 2) == parse("21")
    assert suffix_of_infinite(w, 5) == parse("11121")
    assert suffix_of_infinite(w, 0) == EPSILON
    with pytest.raises(ValueError):
        suffix_of_infinite(w, -1)


def test_h_infinite():
    w21 = TailOnesWord.parse("21")
    assert h_infinite(parse("1121"), w21) == (4, 5)
    assert h_infinite(parse("2"), w21) == (0, 0)
    assert h_infinite(parse("121"), TailOnesWord.parse("eps")) == (1, 1)
    assert h_infinite(EPSILON, w21) == (0, 0)


def test_d1_prime_empty_word():
    for w in CORES:
        assert d1_prime(EPSILON, w) == 1


def test_d1_prime_is_stable_path_ratio():
    # d(x, w_m) / d(empty, w_m) is already exact at m = max(core length, word length)
    for w in CORES:
        for n in range(7):
            for x in enumerate_level(n):
                m0 = max(len(w.core), x.length)
                for m in (m0, m0 + 1, m0 + 3):
                    wm = suffix_of_infinite(w, m)
                    ratio = Fr(descent_counts(wm).get(x, 0), d_from_empty(wm))
                    assert ratio == d1_prime(x, w)


def test_d1_prime_all_ones_reduces_to_row_sums():
    w = TailOnesWord.parse("eps")
    for x in enumerate_level(5):
        h = h_infinite(x, w).length
        expected = sum(f(x, i, h) for i in range(x.rank + 1))
        assert d1_prime(x, w) == expected


def test_d_beta_prime_matches_literal_definition_to_rank_8():
    # The kernel sums rank! * f as ints over the weights' shared denominator and
    # never calls f; here it meets the definition term by term, in Fractions,
    # with f taken from the literal recursion rather than the library's unwind.
    for w in CORES:
        gs = g_all(w.core)
        for beta in (Fr(1, 4), Fr(1, 2), Fr(3, 7), Fr(1)):
            for n in range(9):
                for x in enumerate_level(n):
                    h = h_infinite(x, w).length
                    expected = Fr(0)
                    for i in range(n + 1):
                        term = beta ** i * f_by_recursion(tuple(x), i, h)
                        for G in gs:
                            term *= Fr(G - i, G)
                        expected += term
                    assert d_beta_prime(x, w, beta) == expected, (x, w, beta)


def test_d_beta_prime_basics():
    w = TailOnesWord.parse("22")
    assert d_beta_prime(EPSILON, w, Fr(1, 3)) == 1
    x = parse("212")
    assert d_beta_prime(x, w, Fr(1)) == d1_prime(x, w)
    with pytest.raises(ValueError):
        d_beta_prime(x, w, Fr(0))
    with pytest.raises(ValueError):
        d_beta_prime(x, w, Fr(5, 4))


def test_d_beta_prime_suffix_decomposition():
    # spot checks; the identity suite covers the full grid
    for w in CORES:
        for beta in (Fr(1, 2), Fr(1)):
            for x in (parse("212"), parse("1121"), parse("22")):
                rhs = sum(
                    beta ** suffix(x, i).rank
                    * d_beta(prefix(x, i))(beta)
                    * d1_prime(suffix(x, i), w)
                    for i in range(x.length + 1))
                assert d_beta_prime(x, w, beta) == rhs


def test_mu_empty_word_and_nonnegativity():
    for w in CORES:
        for beta in BETAS:
            assert mu(w, beta, EPSILON) == 1
            for n in range(7):
                for v in enumerate_level(n):
                    assert mu(w, beta, v) >= 0


def test_mu_at_beta_one_is_prelimit():
    for w in CORES:
        for n in range(7):
            for v in enumerate_level(n):
                m = max(len(w.core), v.length)
                wm = suffix_of_infinite(w, m)
                assert mu(w, Fr(1), v) == mu_prelimit(wm, v)


def test_mu_prelimit():
    y = parse("21221")
    assert mu_prelimit(y, EPSILON) == 1
    assert mu_prelimit(y, y) == 1
    for n in range(6):
        assert sum(mu_prelimit(y, v) for v in enumerate_level(n)) == 1


def test_level_distribution_small():
    w = TailOnesWord.parse("22")
    assert level_distribution(w, Fr(1, 2), 0).masses == {EPSILON: Fr(1)}
    assert level_distribution(w, Fr(1, 2), 1).masses == {parse("1"): Fr(1)}


def test_level_distribution_sums_to_one():
    for w in CORES:
        for beta in (Fr(1, 2), Fr(1)):
            for n in range(9):
                dist = level_distribution(w, beta, n)
                assert sum(dist.masses.values()) == 1
                assert all(m >= 0 for m in dist.masses.values())


def test_level_distribution_equals_pointwise_mu():
    # the level's one shared weight vector against the pointwise kernel, word by word
    for w in CORES:
        for beta in (Fr(1, 2), Fr(3, 7), Fr(1)):
            for n in range(11):
                masses = level_distribution(w, beta, n).masses
                assert list(masses) == list(enumerate_level(n))
                for v, mass in masses.items():
                    assert mass == mu(w, beta, v), (w, beta, v)


def test_level_distribution_beta_one_is_point_mass():
    # A word beginning with 1 has one lower cover, so at beta = 1 every level
    # of mu_w carries all its mass on 1^(n - rank(core)) + core.
    for w in CORES:
        for n in range(w.core.rank, 13):
            v_star = suffix_of_infinite(w, n - w.twos)
            masses = level_distribution(w, Fr(1), n).masses
            assert masses[v_star] == 1
            assert all(m == 0 for v, m in masses.items() if v != v_star)


def test_level_distribution_rejects_bad_beta():
    with pytest.raises(ValueError):
        level_distribution(CORES[0], Fr(2), 3)


def test_level_distribution_invariant_enforced():
    with pytest.raises(AssertionError):
        LevelDistribution(1, CORES[0], Fr(1, 2), {parse("1"): Fr(1, 2)})


def mass_weights_by_loop(w, beta, top):
    """(W, D) of mass_weights, each weight multiplied out over the g-values of w."""
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


def test_mass_weights_equal_the_loop():
    for w in [*CORES, TailOnesWord.parse("2122")]:
        for beta in (Fr(1, 2), Fr(3, 7), Fr(5, 7), Fr(1)):
            for top in range(21):
                assert mass_weights(w, beta, top) == mass_weights_by_loop(w, beta, top)


def test_table_builds_one_g_product_vector_per_rank():
    # the kernel of every tail of one rank reads one vector of w's g-products
    _g_products.cache_clear()
    build_table(TailOnesWord.parse("22"), Fr(3, 7), 12)
    assert _g_products.cache_info().misses <= 13
