"""Walk through the reference triangle, end to end.

The triangle has vertices (-5/6, 5/12), (1/6, -1/12), (0, 1): width 1,
bottom slope -1/2.  Its blow-up's Cox ring is finitely generated exactly in
characteristics 2 and 3, and this script re-derives the evidence: the
combinatorial data, the per-level Euler characteristics, the explicit unit
factorizations, and the vanishing-section windows for p = 5 and 7.

Run:  python3 demos/worked_example.py
"""

from fractions import Fraction as F

from reeslab import (
    FieldSpec,
    SearchBounds,
    cone_tables,
    decide,
    dump_element,
    emu_check,
    normalize_triangle,
    period_data,
    per_level_chi,
    toric_data,
    cohomology_dims,
    factorization_search,
    xi_power,
)
from reeslab.algebra import context_for

VERTICES = [(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1)]


def main():
    tri = normalize_triangle(VERTICES)
    print("== geometry ==")
    print(f"x1 = {tri.x1}, x2 = {tri.x2}, width = {tri.width}")
    print(f"slopes: sbar = {tri.sbar}, tbar = {tri.tbar}, ubar = {tri.ubar}")

    pd = period_data(tri)
    print(f"\ndilation period sigma = {pd.sigma}, split theta = {pd.theta}, "
          f"theta' = {pd.theta_prime}")

    td = toric_data(tri)
    print(f"weights = {td.weights}, class-group torsion = {td.torsion_order} "
          f"(prime ideal: {td.i_is_prime})")
    print(f"determinantal exponents: {td.ideal_matrix}")

    ct = cone_tables(tri)
    emu = emu_check(tri, ct)
    print(f"\ncolumn counts of the companion triangle: {emu.column_counts} "
          f"-> sorted {emu.sorted_counts}, condition holds: {emu.holds}")

    print(f"a(0..10) = {[ct.a(i) for i in range(11)]}")
    print(f"b(0), b(-1), b(-2) = {[ct.b(0), ct.b(-1), ct.b(-2)]}")
    print(f"per-level chi over one period: "
          f"{[per_level_chi(ct, n) for n in range(pd.sigma)]}")

    print("\n== characteristic 2: explicit witness at m = 2 ==")
    ctx2 = context_for(tri, FieldSpec(2))
    print("canonical form of the squared transition unit (alpha n coeff):")
    print(dump_element(xi_power(ctx2, 4, 2)))
    out = factorization_search(ctx2, ct, pd, 2)
    print(f"factorization found: {out.success}")
    print("first-chart unit:")
    print(dump_element(out.unit_a))

    print("\n== characteristic 3: explicit witness at m = 3 ==")
    ctx3 = context_for(tri, FieldSpec(3))
    out = factorization_search(ctx3, ct, pd, 3)
    print(f"factorization found: {out.success} "
          f"(canonical cube: {dump_element(xi_power(ctx3, 6, 3))!r})")

    print("\n== characteristic 5: no witness in the main window ==")
    ctx5 = context_for(tri, FieldSpec(5))
    rep = cohomology_dims(ctx5, ct, pd, 60, 120)
    print(f"window [60, 120): h0 = {rep.h0}, h1 = {rep.h1}, "
          f"rank = {rep.matrix.rank}")
    print(f"pivot gaps: {rep.matrix.pivot_gaps}")

    print("\n== verdicts ==")
    for p in (0, 2, 3, 5, 7):
        verdict = decide(tri, FieldSpec(p), SearchBounds())
        extra = f"  witness: {verdict.witness}" if verdict.witness else ""
        print(f"characteristic {p}: {verdict.status}{extra}")


if __name__ == "__main__":
    main()
