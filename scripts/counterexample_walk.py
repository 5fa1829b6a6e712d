"""Walk two point families where the coordinate projections miss what the
four-coordinate membership test sees, then print the boundary witness where
the distinguished-boundary test is strictly stronger than the projection
tests.

Family A sweeps a radius r in (0, 1): its bidisc and pentablock projections
stay interior for every r while the 4-coordinate point is outside.  Family B
is a single rational point whose three projections all land in their
closures.  For each point we print the verdict of the 4-coordinate domain
next to the verdicts of its three projections, plus the defect value q whose
sign is doing the separating.  The run ends with a replay of the
counterexample harness on a finer grid, and exits 1 if that replay fails.
"""

import sys

from mublocks import (be_test, bgamma_test, f_classify, f_relations,
                      g2_classify, penta_classify, q_value, run_counterexamples,
                      shilov_f_test, tetra_classify)

R_GRID = [0.15, 0.3, 0.5, 0.7, 0.85]
# 19 radii from 0.05 to 0.95, bit for bit numpy.linspace(0.05, 0.95, 19)
R_FINE = [0.05 + k * ((0.95 - 0.05) / 18) for k in range(18)] + [0.95]


def walk_point(label, pt):
    rel = f_relations(pt)
    verdict = f_classify(pt)
    print(f"{label}: pt = {pt}")
    print(f"    4-coord verdict : {verdict.region.value:>16}  "
          f"margin {verdict.margin:+.6f}   q = {q_value(pt):+.6f}")
    print(f"    g2 projection   : {g2_classify(rel.g2).region.value}")
    print(f"    tetra projection: {tetra_classify(rel.tetra).region.value}")
    print(f"    penta projection: {penta_classify(rel.penta).region.value}")


print("Family A: (0, 1 - r^2/2, r^2, 0)")
for r in R_GRID:
    pt = (0.0, 1.0 - r * r / 2.0, r * r, 0.0)
    walk_point(f"  r = {r}", pt)
print()

print("Family B: the rational point (0, 1/2, 0, 1)")
walk_point("  B", (0.0, 0.5, 0.0, 1.0))
print()

print("Boundary witness: projections hit their distinguished boundaries, "
      "the 4-coordinate test still says no")
w = (1j, 1.0, 1j, 1.0 - 1j)
rel = f_relations(w)
print(f"  pt = {w}")
print(f"    (x, a, p) on bE     : {be_test(rel.tetra)}")
print(f"    (s, -p) on bGamma   : {bgamma_test((w[3], -w[2]))}")
print(f"    distinguished bdry  : {shilov_f_test(w)}")
print()

print("Harness replay over a finer grid:")
report = run_counterexamples(r_grid=tuple(R_FINE))
for line in report.to_lines():
    print(line)
sys.exit(0 if report.passed else 1)
