from fractions import Fraction as Fr

import pytest

from yflab.boundary import TailOnesWord, d1_prime, mu
from yflab.magic import (
    _column_bound_parts,
    build_table,
    column_bound,
    column_sum_closed_form,
    factored_table,
    level_product,
    magic_entry,
    symbolic_csv,
    symbolic_entry,
)
from yflab.pathcount import d_from_empty
from yflab.words import EPSILON, enumerate_level, parse, split_by_rank

from reference_values import MAGIC5, factored_table_by_kernels

W2 = TailOnesWord.parse("2")
W22 = TailOnesWord.parse("22")
HALF = Fr(1, 2)


def test_symbolic_cells_match_reference_at_rank_5():
    seen = set()
    for v in enumerate_level(5):
        expected_row = MAGIC5[v.text]
        seen.add(v.text)
        for y in range(6):
            cell = symbolic_entry(5, v, y)
            expected = expected_row[y]
            if expected is None:
                assert cell is None
            else:
                coeff, tail_text, beta_exp, omb2_exp = expected
                assert cell.coeff == coeff
                assert cell.tail == parse(tail_text)
                assert cell.beta_exp == beta_exp
                assert cell.one_minus_beta2_exp == omb2_exp
    assert seen == set(MAGIC5)


def test_numeric_entries_factor_through_symbolic_cells():
    for v in enumerate_level(5):
        for y in range(6):
            cell = symbolic_entry(5, v, y)
            value = magic_entry(W2, HALF, 5, v, y)
            if cell is None:
                assert value == 0
            else:
                assert value == (cell.coeff * d1_prime(cell.tail, W2)
                                 * HALF ** cell.beta_exp
                                 * Fr(3, 4) ** cell.one_minus_beta2_exp)


def test_entry_examples_for_122():
    v = parse("122")
    beta = Fr(1, 3)
    omb2 = 1 - beta * beta
    for w in (W2, W22, TailOnesWord.parse("eps")):
        assert magic_entry(w, beta, 5, v, 0) == Fr(3, 40) * omb2 ** 3
        assert magic_entry(w, beta, 5, v, 1) == 0
        assert magic_entry(w, beta, 5, v, 2) == Fr(3, 6) * d1_prime(parse("2"), w) * beta ** 2 * omb2 ** 2


def test_entry_preconditions():
    with pytest.raises(ValueError):
        magic_entry(W2, Fr(1, 2), 5, parse("21"), 0)
    with pytest.raises(ValueError):
        magic_entry(W2, Fr(1, 2), 5, parse("122"), 6)
    with pytest.raises(ValueError):
        magic_entry(W2, Fr(2), 5, parse("122"), 0)


def test_table_shape_and_trivial_table():
    table = build_table(W22, HALF, 5)
    assert len(table.entries) == 8
    assert all(len(row) == 6 for row in table.entries)
    t0 = build_table(W22, HALF, 0)
    assert t0.entries == ((Fr(1),),)


def test_negative_rank_is_refused_before_the_class_pass():
    for build in (lambda: build_table(W22, HALF, -1), lambda: factored_table(W22, -1)):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            build()


def test_rows_dominate_the_measure():
    for w in (W2, W22):
        for beta in (Fr(1, 4), HALF, Fr(1)):
            table = build_table(w, beta, 6)
            for i, v in enumerate(table.level.words):
                assert mu(w, beta, v) <= sum(table.entries[i], Fr(0))


def test_column_sums():
    for w in (W2, W22):
        for n in range(7):
            table = build_table(w, HALF, n)
            assert table.column_sum(n) == HALF ** n
            for y in range(n + 1):
                total = table.column_sum(y)
                assert total == column_sum_closed_form(HALF, n, y)
                assert total <= column_bound(HALF, n, y)


def test_column_closed_form_is_w_independent():
    for n in range(7):
        for y in range(n + 1):
            reference = column_sum_closed_form(HALF, n, y)
            for w in (W2, W22):
                table = build_table(w, HALF, n)
                assert sum(row[y] for row in table.entries) == reference


def test_level_product_equality_to_rank_14():
    from yflab.harmonic import q
    for n in range(15):
        for y in range(n + 1):
            total = sum(q(xp) * d_from_empty(xp + (1,) * y)
                        for xp in enumerate_level(n - y))
            assert total == level_product(n, y)


def test_table_total_bound():
    for w in (W2, W22):
        for beta in (Fr(1, 4), HALF, Fr(3, 4)):
            for n in range(7):
                table = build_table(w, beta, n)
                total = table.total()
                assert total <= 1 + 1 / beta
                assert total == sum(table.column_sum(y) for y in range(n + 1))
                assert total >= table.column_sum(0)


def test_zero_pattern():
    # absent split forces a zero entry; a present split gives zero exactly
    # when the kernel value of the tail vanishes or beta = 1 kills the
    # (1 - beta^2) factor of a nonempty head
    for w in (W2, W22):
        for beta in (HALF, Fr(1)):
            for n in range(7):
                table = build_table(w, beta, n)
                for i, v in enumerate(table.level.words):
                    for y in range(n + 1):
                        parts = split_by_rank(v, y)
                        value = table.entries[i][y]
                        if parts is None:
                            assert value == 0
                        else:
                            head, tail = parts
                            should_vanish = (d1_prime(tail, w) == 0
                                             or (beta == 1 and head.length > 0))
                            assert (value == 0) == should_vanish


def test_csv_export():
    table = build_table(W22, HALF, 3)
    numeric = table.to_csv()
    lines = numeric.splitlines()
    assert lines[0] == "word,0,1,2,3"
    assert len(lines) == 4
    assert table.to_csv() == numeric  # deterministic
    symbolic = symbolic_csv(5)
    row122 = next(line for line in symbolic.splitlines() if line.startswith("122,"))
    assert "(3/40;eps;0;3)" in row122
    assert "(1/2;2;2;2)" in row122  # 3/6 in lowest terms


def test_table_rows_match_pointwise_entries_to_rank_10():
    # build_table fills each row in one pass over its splits; magic_entry
    # computes every cell on its own and is the oracle
    for core in ("eps", "2", "22", "212"):
        w = TailOnesWord.parse(core)
        for beta in (Fr(1, 4), Fr(3, 7), Fr(1)):
            for n in range(11):
                table = build_table(w, beta, n)
                for v, row in zip(table.level.words, table.entries):
                    assert row == tuple(magic_entry(w, beta, n, v, y) for y in range(n + 1)), \
                        (core, beta, n, v)


def test_factored_table_matches_pointwise_entries_on_suite_grid():
    # the identity suite builds one factored table per (w, n) and evaluates it
    # at every beta of its grid; cells, column sums and row sums must equal
    # the pointwise oracle's, also at 6/7 and 996/997 (off the grid, large q)
    for core in ("eps", "2", "22", "212"):
        w = TailOnesWord.parse(core)
        for n in range(9):
            table = factored_table(w, n)
            for beta in (Fr(1, 4), HALF, Fr(3, 4), Fr(1), Fr(6, 7), Fr(996, 997)):
                rows = [tuple(magic_entry(w, beta, n, v, y) for y in range(n + 1))
                        for v in table.level.words]
                assert table.evaluate(beta).entries == tuple(rows), (core, n, beta)
                columns, den = table.column_sums(beta)
                assert [Fr(c, den) for c in columns] == [sum(col) for col in zip(*rows)]
                row_sums, den = table.row_sums(beta)
                assert [Fr(r, den) for r in row_sums] == [sum(row) for row in rows]


def test_int_column_bound_equals_the_fraction_product():
    # the identity suite compares column sums with the int pair; it must equal
    # level_product * beta^y * (1 - beta^2)^floor((n - y)/2) on the suite's grid
    for beta in (Fr(1, 4), HALF, Fr(3, 4), Fr(1)):
        for n in range(13):
            for y in range(n + 1):
                num, den = _column_bound_parts(beta, n, y)
                expected = level_product(n, y) * beta ** y * (1 - beta * beta) ** ((n - y) // 2)
                assert Fr(num, den) == expected == column_bound(beta, n, y), (beta, n, y)


def test_factored_table_equals_the_kernel_reference():
    # the class-engine table against one built from a pointwise kernel per tail with
    # one division per cell; 221 ends in 1 and 2122 has a 1 inside the core after a 2
    for core in ("eps", "2", "22", "212", "221", "2122"):
        w = TailOnesWord.parse(core)
        for n in range(13):
            assert factored_table(w, n) == factored_table_by_kernels(w, n), (core, n)


# `yflab magic --w 2 --beta 1/2 --n 5` with and without --symbolic, as
# printed by the per-cell table build that the row pass replaced
CSV_W2_HALF_5 = (
    'word,0,1,2,3,4,5\n'
    '11111,81/40960,27/4096,0,0,0,0\n'
    '1112,27/10240,0,9/512,9/256,3/64,1/32\n'
    '1121,27/2560,9/512,0,0,0,0\n'
    '1211,243/10240,27/512,0,0,0,0\n'
    '122,81/2560,0,9/128,0,0,0\n'
    '2111,27/640,27/256,0,0,0,0\n'
    '212,9/160,0,3/16,3/16,0,0\n'
    '221,9/40,9/32,0,0,0,0\n'
)
SYMBOLIC_CSV_W2_HALF_5 = (
    'word,0,1,2,3,4,5\n'
    '11111,(1/120;eps;0;5),(1/24;1;1;4),(1/6;11;2;3),(1/2;111;3;2),(1;1111;4;1),(1;11111;5;0)\n'
    '1112,(1/120;eps;0;4),,(1/6;2;2;3),(1/2;12;3;2),(1;112;4;1),(1;1112;5;0)\n'
    '1121,(1/30;eps;0;4),(1/12;1;1;3),,(1;21;3;2),(2;121;4;1),(2;1121;5;0)\n'
    '1211,(3/40;eps;0;4),(1/4;1;1;3),(1/2;11;2;2),,(3;211;4;1),(3;1211;5;0)\n'
    '122,(3/40;eps;0;3),,(1/2;2;2;2),,(3;22;4;1),(3;122;5;0)\n'
    '2111,(2/15;eps;0;4),(1/2;1;1;3),(4/3;11;2;2),(2;111;3;1),,(4;2111;5;0)\n'
    '212,(2/15;eps;0;3),,(4/3;2;2;2),(2;12;3;1),,(4;212;5;0)\n'
    '221,(8/15;eps;0;3),(1;1;1;2),,(4;21;3;1),,(8;221;5;0)\n'
)


def test_csv_bytes_unchanged():
    table = build_table(W2, HALF, 5)
    assert table.to_csv() == CSV_W2_HALF_5
    assert symbolic_csv(5) == SYMBOLIC_CSV_W2_HALF_5
