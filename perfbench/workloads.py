"""The three benchmark workloads: inputs, timed work and exact output checks.

Each workload has three steps, so that the child process times only `run`
and the self-check can feed `check` a corrupted output:

- `setup(seed, size)` builds the inputs; it is part of setup_s;
- `run(inputs, jobs)` is the timed work, through yflab's public functions;
- `check(inputs, output)` counts attempted and failed exact checks.  An
  output of None (the timed work raised) fails every check.

`run` reaches yflab through module attributes (`experiments.sweep_many`,
not a name imported at load time), so the traced pass sees every call.

`size` is "full" for measurement and "small" for the self-check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from yflab import boundary, cli, experiments, magic, pathcount, words

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


class Checks:
    """Counts exact checks; keeps the first failure as a witness."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None

    def expect(self, ok: bool, witness) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first is None:
                self.first = witness()

    def fail_all(self, count: int, witness: str) -> "Checks":
        self.attempted += count
        self.failed += count
        self.first = self.first or witness
        return self


def level_size(n: int) -> int:
    """Number of rank-n words, Fib(n + 1)."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class Sweep:
    """`sweep_many` over the criterion-8 grid: three cores, ranks 8 and 18, six
    (beta, parameter) pairs, two pool workers.

    The inputs are the paper's fixed grid whatever the seed, because its
    pinned tail masses are the correctness check.
    """

    CORES = ("eps", "22", "212")
    SUFFIX_PARAMS = tuple((beta, l) for beta in (Fraction(1, 2), Fraction(1)) for l in (1, 2))
    PI_PARAMS = tuple((beta, Fraction(1, 4)) for beta in (Fraction(1, 2), Fraction(1)))
    RANKS = {"full": (8, 18), "small": (8, 12)}

    def setup(self, seed: int, size: str) -> dict:
        ranks = self.RANKS[size]
        with open(os.path.join(GOLDENS, "sweep.json")) as handle:
            doc = json.load(handle)
        goldens = {**doc["pinned_by_tests"], **doc["self_pinned"]}
        return {
            "ranks": ranks,
            "ws": [(core, boundary.TailOnesWord.parse(core)) for core in self.CORES],
            "goldens": {key: Fraction(value) for key, value in goldens.items()
                        if int(key.split()[-1]) in ranks},
        }

    def run(self, inputs: dict, jobs: int) -> dict:
        tails = {}
        for core, w in inputs["ws"]:
            result = experiments.sweep_many(w, inputs["ranks"], suffix_params=self.SUFFIX_PARAMS,
                                            pi_params=self.PI_PARAMS, jobs=jobs)
            for (mode, beta, param, n), tail in result.items():
                tails[f"{core} {mode} {beta} {param} {n}"] = tail
        return tails

    def check(self, inputs: dict, output) -> Checks:
        checks = Checks()
        # sweep_many asserts that each (core, rank, beta) total is exactly 1;
        # the run returns only if all of them held.
        totals = len(self.CORES) * len(inputs["ranks"]) * 2
        if output is None:
            return checks.fail_all(totals + 1 + len(inputs["goldens"]), "sweep raised")
        checks.attempted += totals
        checks.expect(len(output) == len(inputs["goldens"]),
                      lambda: f"{len(output)} tails, expected {len(inputs['goldens'])}")
        for key, expected in inputs["goldens"].items():
            checks.expect(output.get(key) == expected,
                          lambda key=key: f"{key}: {output.get(key)} != {expected}")
        return checks

    def items(self, inputs: dict) -> int:
        """Rank-n words whose masses were accumulated, over cores and ranks."""
        return len(self.CORES) * sum(level_size(n) for n in inputs["ranks"])


class Verify:
    """`yflab verify --max-rank 8` in-process; stdout must match the seed's bytes.

    The arguments are fixed whatever the seed, because the seed-commit output
    is the correctness check.
    """

    RANK = {"full": 8, "small": 5}

    def setup(self, seed: int, size: str) -> dict:
        rank = self.RANK[size]
        with open(os.path.join(GOLDENS, f"verify-{rank}.txt"), newline="") as handle:
            expected = handle.read()
        return {"argv": ["verify", "--max-rank", str(rank)], "expected": expected}

    def run(self, inputs: dict, jobs: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(inputs["argv"])
        return status, buf.getvalue()

    def check(self, inputs: dict, output) -> Checks:
        checks = Checks()
        lines = inputs["expected"].splitlines(keepends=True)
        if output is None:
            return checks.fail_all(len(lines) + 2, "verify raised")
        status, text = output
        checks.expect(status == 0, lambda: f"exit status {status}")
        checks.expect(text == inputs["expected"], lambda: "stdout bytes differ")
        got = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            checks.expect(i < len(got) and got[i] == line,
                          lambda i=i: f"line {i + 1}: {got[i] if i < len(got) else '<missing>'!r}")
        return checks

    def items(self, inputs: dict) -> int:
        """Identity instances checked, as the suite prints them."""
        return sum(int(line.split()[1]) for line in inputs["expected"].splitlines()[:-1])


class Oracles:
    """Pointwise exact oracles, as behind `measure`, `magic` and `dcount`.

    One level distribution at rank 15, one table at rank 12, and the path-count
    formula against the DP for every pair up to rank 9.  The seed picks the
    (core, beta) of the measure and of the table from PAIRS, whose rationals
    all have one-digit numerators over 7, so every seed does similar work.
    """

    PAIRS = tuple((core, Fraction(p, 7)) for core in ("22", "212", "221") for p in (3, 4, 5))
    SIZES = {"full": (15, 12, 9), "small": (10, 6, 6)}

    def setup(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        (mcore, mbeta), (tcore, tbeta) = rng.choice(self.PAIRS), rng.choice(self.PAIRS)
        measure_rank, table_rank, pair_rank = self.SIZES[size]
        return {
            "measure": (boundary.TailOnesWord.parse(mcore), mbeta, measure_rank),
            "table": (boundary.TailOnesWord.parse(tcore), tbeta, table_rank),
            "pair_rank": pair_rank,
        }

    def run(self, inputs: dict, jobs: int) -> dict:
        dist = boundary.level_distribution(*inputs["measure"])
        table = magic.build_table(*inputs["table"])
        pairs = []
        for ny in range(inputs["pair_rank"] + 1):
            for y in words.enumerate_level(ny):
                counts = pathcount.descent_counts(y)
                for nx in range(ny + 1):
                    for x in words.enumerate_level(nx):
                        pairs.append((x, y, pathcount.d_paths_formula(x, y), counts.get(x, 0)))
        return {"masses": dist.masses, "table": table, "pairs": pairs}

    def check(self, inputs: dict, output) -> Checks:
        checks = Checks()
        _, _, n = inputs["measure"]
        _, beta, tn = inputs["table"]
        pair_count = self.pair_count(inputs["pair_rank"])
        if output is None:
            return checks.fail_all(3 + tn + 1 + pair_count, "oracles raised")
        masses = output["masses"]
        checks.expect(len(masses) == level_size(n), lambda: f"{len(masses)} masses")
        checks.expect(sum(masses.values(), Fraction(0)) == 1, lambda: "masses do not sum to 1")
        checks.expect(all(m >= 0 for m in masses.values()), lambda: "negative mass")
        table = output["table"]
        for y in range(tn + 1):
            total = sum((row[y] for row in table.entries), Fraction(0))
            checks.expect(total == magic.column_sum_closed_form(beta, tn, y),
                          lambda y=y: f"table column {y}")
        pairs = output["pairs"]
        checks.expect(len(pairs) == pair_count, lambda: f"{len(pairs)} pairs, expected {pair_count}")
        for x, y, formula, dp in pairs:
            checks.expect(formula == dp, lambda x=x, y=y: f"d({x.text or 'eps'},{y.text})")
        return checks

    def items(self, inputs: dict) -> int:
        """Exact values produced: masses, table cells and path-count pairs."""
        _, _, n = inputs["measure"]
        _, _, tn = inputs["table"]
        return level_size(n) + level_size(tn) * (tn + 1) + self.pair_count(inputs["pair_rank"])

    @staticmethod
    def pair_count(rank: int) -> int:
        """Pairs (x, y) with rank(x) <= rank(y) <= rank."""
        return sum(level_size(ny) * sum(level_size(nx) for nx in range(ny + 1))
                   for ny in range(rank + 1))


WORKLOADS = {"sweep": Sweep(), "verify": Verify(), "oracles": Oracles()}
