"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Everything is exact rational arithmetic, so every tolerance is exact
equality; runtime budgets are asserted where stated.  Run with
``pytest -v -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction as Fr

import pytest

from yflab import experiments, harmonic
from yflab.boundary import (TailOnesWord, d1_prime, h_infinite, level_distribution, mu,
                            suffix_of_infinite)
from yflab.experiments import identity_suite, sweep_many
from yflab.harmonic import f, pi
from yflab.magic import build_table, symbolic_entry
from yflab.pathcount import d_from_empty, d_paths_formula, descent_counts
from yflab.words import EPSILON, enumerate_level, parse

from reference_values import F_TABLE_21221, F_TABLES, MAGIC5

MEASURE_CORES = ("eps", "2", "22", "212")
BETA_GRID = (Fr(1, 4), Fr(1, 2), Fr(3, 4), Fr(1))
SWEEP_CORES = ("eps", "22", "212")
JOBS = min(4, os.cpu_count() or 1)


def _verdict(num: str, name: str, failures: list, elapsed: float = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"CRITERION {num} [{status}] {name}{timing}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_1_f_table_reproduction():
    """Every reference f value reproduces exactly, from a cold cache, under 1 s."""
    harmonic._f.cache_clear()
    failures = []
    start = time.perf_counter()
    x = parse("21221")
    for y, expected in enumerate(F_TABLE_21221):
        if f(x, y, 0) != expected:
            failures.append(f"f(21221,{y},0)")
    for text, table in F_TABLES.items():
        word = parse(text)
        for z, row in enumerate(table):
            for y, expected in enumerate(row):
                if f(word, y, z) != expected:
                    failures.append(f"f({text or 'eps'},{y},{z})")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("1", "f-table reproduction", failures, elapsed)


def test_criterion_2_oracle_equivalence():
    """Formula equals the DP oracle for every pair with ranks <= 11, under 2 min."""
    failures = []
    start = time.perf_counter()
    for ny in range(12):
        for y in enumerate_level(ny):
            counts = descent_counts(y)
            for nx in range(ny + 1):
                for x in enumerate_level(nx):
                    if d_paths_formula(x, y) != counts.get(x, 0):
                        failures.append(f"d({x.text or 'eps'},{y.text})")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict("2", "path-count oracle equivalence to rank 11", failures, elapsed)


def test_criterion_3_squared_counts_sum_to_factorial():
    """Sum over a level of d(empty, v)^2 equals n! exactly, for n <= 13."""
    import math
    failures = []
    for n in range(14):
        total = sum(d_from_empty(v) ** 2 for v in enumerate_level(n))
        if total != math.factorial(n):
            failures.append(f"n={n}: {total}")
    _verdict("3", "differential-poset normalization to rank 13", failures)


def test_criterion_4_measure_normalization():
    """Masses are nonnegative and sum to exactly 1 for n <= 12 over the full grid."""
    failures = []
    for core in MEASURE_CORES:
        w = TailOnesWord.parse(core)
        for beta in BETA_GRID:
            for n in range(13):
                dist = level_distribution(w, beta, n)
                total = sum(dist.masses.values())
                if total != 1:
                    failures.append(f"core={core} beta={beta} n={n}: sum={total}")
                if any(m < 0 for m in dist.masses.values()):
                    failures.append(f"core={core} beta={beta} n={n}: negative mass")
    _verdict("4", "measure normalization and nonnegativity to rank 12", failures)


def test_criterion_5_exact_stabilization():
    """The pre-limit path ratio equals the beta=1 mass exactly at the stated cutoffs."""
    failures = []
    for core in MEASURE_CORES:
        w = TailOnesWord.parse(core)
        needed: dict[int, list] = {}
        for n in range(9):
            for x in enumerate_level(n):
                m0 = max(len(w.core), x.length)
                for m in (m0, m0 + 3):
                    needed.setdefault(m, []).append(x)
        for m, words in needed.items():
            wm = suffix_of_infinite(w, m)
            counts = descent_counts(wm)
            denom = d_from_empty(wm)
            for x in words:
                prelimit = Fr(d_from_empty(x) * counts.get(x, 0), denom)
                if prelimit != mu(w, Fr(1), x):
                    failures.append(f"core={core} x={x.text or 'eps'} m={m}")
    _verdict("5", "exact stabilization of pre-limit ratios to rank 8", failures)


def test_criterion_6_identity_suite():
    """All 23 identities hold exhaustively at max rank 9 over the beta/w grids, under 5 min."""
    start = time.perf_counter()
    assert (experiments.DEFAULT_BETA_GRID, experiments.DEFAULT_CORES) == (BETA_GRID, MEASURE_CORES)
    report = identity_suite(9)
    elapsed = time.perf_counter() - start
    failures = [f"{r.name}: {r.first_counterexample}" for r in report.results if not r.passed]
    expected = {"evtuh5", "evtuh7", "evtuh11", "evtuh12", "evtuh91", "evtuh92",
                "evtuh93", "q_recurrence", "odnoitozhe", "kusok", "razbivaem",
                "meexy", "delitsa", "binomische1", "binomische2", "schyot",
                "binom1", "mamka2", "dostalo", "sum", "stolb", "lehamed", "zabe"}
    missing = expected - {r.name for r in report.results}
    if missing:
        failures.append(f"missing identities: {missing}")
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _verdict("6", "identity suite green at max rank 9", failures, elapsed)


def test_criterion_7_table_golden():
    """The rank-5 table matches the factored reference cell for cell, and numerically
    at beta = 1/2 with core 2."""
    failures = []
    w2 = TailOnesWord.parse("2")
    half = Fr(1, 2)
    table = build_table(w2, half, 5)
    for i, v in enumerate(table.level.words):
        for y in range(6):
            cell = symbolic_entry(5, v, y)
            expected = MAGIC5[v.text][y]
            if expected is None:
                if cell is not None or table.entries[i][y] != 0:
                    failures.append(f"({v.text},{y}) should vanish")
                continue
            coeff, tail_text, beta_exp, omb2_exp = expected
            if cell is None or (cell.coeff, cell.tail, cell.beta_exp,
                                cell.one_minus_beta2_exp) != (coeff, parse(tail_text),
                                                              beta_exp, omb2_exp):
                failures.append(f"({v.text},{y}) symbolic mismatch")
            numeric = coeff * d1_prime(parse(tail_text), w2) * half ** beta_exp * Fr(3, 4) ** omb2_exp
            if table.entries[i][y] != numeric:
                failures.append(f"({v.text},{y}) numeric mismatch")
    _verdict("7", "rank-5 table golden, symbolic and numeric", failures)


# Exact tail masses pinned from the first run: (core, mode, beta, param, n) -> tail.
PINNED_TAILS = {
    ("eps", "pi", Fr(1, 1), Fr(1, 4), 8): Fr(0),
    ("eps", "pi", Fr(1, 1), Fr(1, 4), 24): Fr(0),
    ("eps", "pi", Fr(1, 2), Fr(1, 4), 8): Fr("594043/5160960"),
    ("eps", "pi", Fr(1, 2), Fr(1, 4), 24): Fr("295909815669025098461795389/7826614174987468010422272000"),
    ("eps", "suffix", Fr(1, 1), 1, 8): Fr(0),
    ("eps", "suffix", Fr(1, 1), 1, 24): Fr(0),
    ("eps", "suffix", Fr(1, 1), 2, 8): Fr(0),
    ("eps", "suffix", Fr(1, 1), 2, 24): Fr(0),
    ("eps", "suffix", Fr(1, 2), 1, 8): Fr("21691/215040"),
    ("eps", "suffix", Fr(1, 2), 1, 24): Fr("5197265500304785223/735879613916758671360"),
    ("eps", "suffix", Fr(1, 2), 2, 8): Fr("46349/215040"),
    ("eps", "suffix", Fr(1, 2), 2, 24): Fr("18112716197465342137/735879613916758671360"),
    ("22", "pi", Fr(1, 1), Fr(1, 4), 8): Fr(0),
    ("22", "pi", Fr(1, 1), Fr(1, 4), 24): Fr(0),
    ("22", "pi", Fr(1, 2), Fr(1, 4), 8): Fr("408263/1720320"),
    ("22", "pi", Fr(1, 2), Fr(1, 4), 24): Fr("17601174330640781238520544479/867449737727777704488468480000"),
    ("22", "suffix", Fr(1, 1), 1, 8): Fr(0),
    ("22", "suffix", Fr(1, 1), 1, 24): Fr(0),
    ("22", "suffix", Fr(1, 1), 2, 8): Fr(0),
    ("22", "suffix", Fr(1, 1), 2, 24): Fr(0),
    ("22", "suffix", Fr(1, 2), 1, 8): Fr("28773/71680"),
    ("22", "suffix", Fr(1, 2), 1, 24): Fr("16431266637221728213/183969903479189667840"),
    ("22", "suffix", Fr(1, 2), 2, 8): Fr("28773/71680"),
    ("22", "suffix", Fr(1, 2), 2, 24): Fr("16431266637221728213/183969903479189667840"),
    ("212", "pi", Fr(1, 1), Fr(1, 4), 8): Fr(0),
    ("212", "pi", Fr(1, 1), Fr(1, 4), 24): Fr(0),
    ("212", "pi", Fr(1, 2), Fr(1, 4), 8): Fr("237101/860160"),
    ("212", "pi", Fr(1, 2), Fr(1, 4), 24): Fr("9138625513982701818615341501/157718134132323218997903360000"),
    ("212", "suffix", Fr(1, 1), 1, 8): Fr(0),
    ("212", "suffix", Fr(1, 1), 1, 24): Fr(0),
    ("212", "suffix", Fr(1, 1), 2, 8): Fr(0),
    ("212", "suffix", Fr(1, 1), 2, 24): Fr(0),
    ("212", "suffix", Fr(1, 2), 1, 8): Fr("152653/430080"),
    ("212", "suffix", Fr(1, 2), 1, 24): Fr("215287915844126080693/2943518455667034685440"),
    ("212", "suffix", Fr(1, 2), 2, 8): Fr("152653/430080"),
    ("212", "suffix", Fr(1, 2), 2, 24): Fr("215287915844126080693/2943518455667034685440"),
}


@pytest.fixture(scope="module")
def sweep_tails():
    """All criterion-8 tail masses, one multi-accumulator walk per core; timed."""
    suffix_params = [(beta, l) for beta in (Fr(1, 2), Fr(1)) for l in (1, 2)]
    pi_params = [(beta, Fr(1, 4)) for beta in (Fr(1, 2), Fr(1))]
    tails = {}
    start = time.perf_counter()
    for core in SWEEP_CORES:
        w = TailOnesWord.parse(core)
        result = sweep_many(w, [8, 24], suffix_params=suffix_params,
                            pi_params=pi_params, jobs=JOBS)
        for (mode, beta, param, n), tail in result.items():
            tails[(core, mode, beta, param, n)] = tail
    return tails, time.perf_counter() - start


def test_criterion_8_pinned_goldens_and_runtime(sweep_tails):
    """Exact tail masses match the pinned first-run goldens; under 10 min with 4 jobs."""
    tails, elapsed = sweep_tails
    failures = []
    for key, expected in PINNED_TAILS.items():
        if tails.get(key) != expected:
            failures.append(f"{key}: {tails.get(key)} != {expected}")
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.1f}s >= 600s")
    _verdict("8", "concentration goldens pinned exactly", failures, elapsed)


def test_criterion_8_trend_beta_half(sweep_tails):
    """tail(24) < tail(8) strictly, in both modes, for beta = 1/2 on every core."""
    tails, _ = sweep_tails
    failures = []
    for core in SWEEP_CORES:
        for mode, param in (("suffix", 1), ("suffix", 2), ("pi", Fr(1, 4))):
            t8 = tails[(core, mode, Fr(1, 2), param, 8)]
            t24 = tails[(core, mode, Fr(1, 2), param, 24)]
            if not t24 < t8:
                failures.append(f"core={core} mode={mode} param={param}: {t24} !< {t8}")
    _verdict("8", "concentration trend at beta=1/2", failures)


def test_criterion_8_trend_beta_one(sweep_tails):
    """At beta = 1 each level's mass sits on one word, so both tails are exactly 0.

    A word that begins with 1 has exactly one lower cover (Goodman-Kerov), so
    every saturated path down from 1^m + core passes through 1^k + core, and
    mu_{w,1} restricted to rank n is the point mass on
    v* = suffix_of_infinite(w, n - twos(w)).  For every core, n in {8, 24} and
    (mode, parameter) case this checks, independently of the walk:
      (a) rank(v*) == n and the direct kernel gives mu(w, 1, v*) == 1, so the
          whole level's mass sits on v*;
      (b) v* lies inside the concentration set (common-suffix rank >= l, or
          pi(w)(1 - eps) < pi(v*) < pi(w)(1 + eps));
    and then (c) that the swept tail at both ranks equals the 0 that (a) and
    (b) imply.  The trend tail(24) <= tail(8) therefore holds with equality:
    full concentration is already reached at rank 8.
    """
    tails, _ = sweep_tails
    beta = Fr(1)
    failures = []
    for core in SWEEP_CORES:
        w = TailOnesWord.parse(core)
        piw = pi(w)
        for n in (8, 24):
            v_star = suffix_of_infinite(w, n - w.twos)
            if v_star.rank != n:
                failures.append(f"core={core} n={n}: rank(v*) = {v_star.rank}")
            mass = mu(w, beta, v_star)
            if mass != 1:
                failures.append(f"core={core} n={n}: mu(w, 1, {v_star.text}) = {mass}")
            for mode, param in (("suffix", 1), ("suffix", 2), ("pi", Fr(1, 4))):
                case = f"core={core} n={n} mode={mode} param={param}"
                if mode == "suffix":
                    inside = h_infinite(v_star, w).rank >= param
                else:
                    inside = piw * (1 - param) < pi(v_star) < piw * (1 + param)
                if not inside:
                    failures.append(f"{case}: v* = {v_star.text} outside the set")
                tail = tails[(core, mode, beta, param, n)]
                if tail != 0:
                    failures.append(f"{case}: tail {tail} != 0")
    _verdict("8", "concentration at beta=1: exact point mass, zero tails", failures)


def test_criterion_9_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical CSV, across processes."""
    failures = []
    invocations = [
        ["measure", "--w", "22", "--beta", "1/2", "--n", "8", "--format", "csv"],
        ["magic", "--w", "2", "--beta", "1/2", "--n", "6", "--format", "csv"],
        ["magic", "--w", "2", "--beta", "1/2", "--n", "5", "--symbolic", "--format", "csv"],
        ["sweep", "--mode", "pi", "--w", "22", "--beta", "1/2", "--eps", "1/4",
         "--n", "4..8..2", "--format", "csv"],
        ["verify", "--max-rank", "4", "--format", "csv"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "yflab.cli"] + argv,
                                  capture_output=True, check=True)
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            failures.append(f"{argv[0]}: outputs differ")
        if not outputs[0]:
            failures.append(f"{argv[0]}: empty output")
    _verdict("9", "byte-identical CLI output", failures)
