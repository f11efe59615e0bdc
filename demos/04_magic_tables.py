"""The dominating tables: rows bound the measure, columns sum in closed form.

Each nonzero cell factors as coeff * d'_1(tail, w) * beta^y * (1-beta^2)^e,
where the word splits as head + tail with rank(tail) = y.  Row sums
dominate the measure masses; column sums obey an exact product identity.

Run:  python demos/04_magic_tables.py
"""

from fractions import Fraction as Fr

from yflab import TailOnesWord, build_table, mu, symbolic_entry
from yflab.magic import column_bound, level_product
from yflab.words import enumerate_level

w = TailOnesWord.parse("2")
beta = Fr(1, 2)
n = 5

print(f"Factored cells of the rank-{n} table (independent of w and beta):")
print(f"{'word':>6} | " + " | ".join(f"y={y}" for y in range(n + 1)))
for v in enumerate_level(n):
    cells = []
    for y in range(n + 1):
        cell = symbolic_entry(n, v, y)
        if cell is None:
            cells.append(".")
        else:
            cells.append(f"{cell.coeff} d'({cell.tail.text or 'eps'}) "
                         f"b^{cell.beta_exp} c^{cell.one_minus_beta2_exp}")
    print(f"{v.text:>6} | " + " | ".join(cells))
print("(b = beta, c = 1 - beta^2, d'(t) = d'_1(t, w), . = no split)")

table = build_table(w, beta, n)
print(f"\nNumeric table for core {w.core.text}, beta = {beta}:")
for i, v in enumerate(table.level.words):
    print(f"{v.text:>6} | " + " | ".join(str(c) for c in table.entries[i]))

print("\nRow sums dominate the measure masses:")
for i, v in enumerate(table.level.words):
    row = sum(table.entries[i], Fr(0))
    print(f"  {v.text:>6}: mass {str(mu(w, beta, v)):>10} <= row sum {row}")

print("\nColumn sums, their closed forms, and the product bounds:")
for y in range(n + 1):
    total = table.column_sum(y)  # equals the closed form (identity `sum` of `yflab verify`)
    print(f"  y={y}: sum {str(total):>12} <= bound {column_bound(beta, n, y)}"
          f"   (beta-free part {level_product(n, y)})")

print(f"\nAll entries together: {table.total()} <= 1 + 1/beta = {1 + 1 / beta}")
