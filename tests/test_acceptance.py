"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS/FAIL line (visible with pytest -s or in captured
output).  Two fragments are marked as strict expected failures because the
reference values they quote are not attainable; see the test
docstrings for the analysis.  Everything else must pass exactly.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from reeslab.algebra import (
    AlgebraContext,
    context_for,
    element_power,
    multiply,
    one,
    w_element,
    x_basis,
    xi_power,
)
from reeslab.cohomology import (
    char0_b2_check,
    cohomology_dims,
    factorization_search,
    per_level_chi,
)
from reeslab.decision import (
    FG_EXACT,
    FG_WITNESS,
    NO_WITNESS_UP_TO_BOUNDS,
    NOT_FG_EXACT,
    SearchBounds,
    decide,
    factorize_integer,
    family_triangle,
    scan_family,
)
from reeslab.fields import RATIONALS, FieldSpec
from reeslab.geometry import (
    cone_tables,
    emu_check,
    normalize_triangle,
    period_data,
    toric_data,
)

from oracles import column_w_element

WORKED = [(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1)]


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, \
                f"runtime {self.elapsed:.2f}s over budget {self.budget}s"
        return False


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS  {detail}")


def test_criterion_01_normalization_and_constants():
    with Stopwatch(0.1) as sw:
        tri = normalize_triangle(WORKED)
        pd = period_data(tri)
        td = toric_data(tri)
        assert (pd.sigma, pd.theta, pd.theta_prime) == (12, 10, 2)
        assert (tri.s2, tri.s3, tri.t, tri.t3, tri.u2, tri.u) == (7, 10, 13, 2, 1, 2)
        assert td.weights == (1, 1, 6)
        assert td.torsion_order == 24
        assert td.i_is_prime is False
        assert td.ideal_matrix == ((7, 2, 1), (11, 1, 10))
    report(1, f"constants exact in {sw.elapsed:.3f}s")


def test_criterion_02_cone_tables():
    with Stopwatch(0.1) as sw:
        ct = cone_tables(normalize_triangle(WORKED))
        assert [ct.a(i) for i in range(11)] == [1, 1, 3, 4, 5, 6, 8, 8, 10, 11, 13]
        assert [ct.b(0), ct.b(-1), ct.b(-2)] == [1, 6, 13]
        for i in range(51):
            assert ct.a(i + 10) == ct.a(i) + 12
            assert ct.b(-i - 2) == ct.b(-i) + 12
    report(2, f"tables and periodicity exact in {sw.elapsed:.3f}s")


SCAN_SET = [F(2), F(9, 4), F(13, 6), F(7, 3), F(12, 5), F(5, 2), F(8, 3),
            F(11, 4), F(3)]


def test_criterion_03_family_scan_interior():
    with Stopwatch(1.0) as sw:
        interior = [g for g in SCAN_SET if F(2) < g < F(3)]
        rows = scan_family(interior, FieldSpec(0))
        for row in rows:
            expected = FG_EXACT if F(7, 3) <= row.g <= F(8, 3) else NOT_FG_EXACT
            assert row.status == expected, f"g={row.g}"
            tri = family_triangle(row.g)
            ct = cone_tables(tri)
            emu = emu_check(tri, ct)
            assert char0_b2_check(tri, emu, ct, period_data(tri)) == emu.holds
    report(3, f"interior family members exact in {sw.elapsed:.3f}s")


@pytest.mark.xfail(
    strict=True,
    reason="The asserted endpoint verdicts are unattainable: at g=2 and g=3 "
    "one outer triangle edge is vertical and the corresponding chart cone "
    "has unbounded columns, so the unit factorization succeeds "
    "unconditionally (the determinantal presentation acquires a unit entry "
    "and the ring is a complete intersection, hence finitely generated). "
    "At g=2 the column-count test also holds (the vertical edge contributes "
    "a 3-point column), so the scanner reports FG there; at g=3 the two "
    "criteria disagree and the runtime equivalence check fires. The "
    "closed-interval characterization [7/3, 8/3] is valid only for 2<g<3.")
def test_criterion_03_family_scan_endpoints():
    rows = scan_family([F(2), F(3)], FieldSpec(0))
    for row in rows:
        assert row.status == NOT_FG_EXACT, f"g={row.g}: {row.status}"


def test_criterion_04_chi_pattern_and_additivity():
    with Stopwatch(1.0) as sw:
        ct = cone_tables(normalize_triangle(WORKED))
        assert [per_level_chi(ct, n) for n in range(12)] == \
            [1, -1, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0]
        for p, rmax in [(2, 2), (3, 1), (5, 1), (7, 0)]:
            for r in range(rmax + 1):
                q = p**r
                total = sum(per_level_chi(ct, n)
                            for n in range(12 * q, 24 * q))
                assert total == -2 * q, (p, r)
    report(4, f"chi pattern and window sums exact in {sw.elapsed:.3f}s")


def test_criterion_05_cech_consistency():
    with Stopwatch(10.0) as sw:
        tri = normalize_triangle(WORKED)
        pd = period_data(tri)
        ct = cone_tables(tri)
        rng = random.Random(20260810)
        fields = [FieldSpec(5), FieldSpec(0), FieldSpec(3)]
        for i in range(25):
            ctx = context_for(tri, fields[i % 3])
            m = rng.randint(0, 4 * pd.sigma)
            l = m + rng.randint(1, 3 * pd.sigma)
            rep = cohomology_dims(ctx, ct, pd, m, l)
            assert rep.h0 - rep.h1 == sum(
                per_level_chi(ct, n) for n in range(m, l))
            flipped = cohomology_dims(ctx, ct, pd, m, l, policy="B")
            assert (rep.h0, rep.h1) == (flipped.h0, flipped.h1)
    report(5, f"25 windows consistent and invariant in {sw.elapsed:.2f}s")


def test_criterion_06_small_characteristic_witnesses():
    with Stopwatch(1.0) as sw:
        tri = normalize_triangle(WORKED)
        pd = period_data(tri)
        ct = cone_tables(tri)

        ctx2 = AlgebraContext(1, 2, FieldSpec(2))
        out2 = factorization_search(ctx2, ct, pd, 2)
        assert out2.success
        vx2 = x_basis(ctx2, 4, 1, 1)
        assert xi_power(ctx2, 4, 2) == \
            one(ctx2, 4) + x_basis(ctx2, 4, 0, 2) - multiply(vx2, vx2)

        ctx3 = AlgebraContext(1, 2, FieldSpec(3))
        out3 = factorization_search(ctx3, ct, pd, 3)
        assert out3.success
        vx3 = x_basis(ctx3, 6, 1, 1)
        assert xi_power(ctx3, 6, 3) == \
            one(ctx3, 6) - x_basis(ctx3, 6, 0, 3) - element_power(vx3, 3)

        assert decide(tri, FieldSpec(2)).status == FG_WITNESS
        assert decide(tri, FieldSpec(3)).status == FG_WITNESS
    report(6, f"char 2 (m=2) and char 3 (m=3) witnesses in {sw.elapsed:.3f}s")


def test_worked_example_mirror_gets_the_same_verdicts():
    # The mirror of the worked example under the lattice automorphism
    # (x, y) -> (-x, x + y), which fixes the apex (0, 1).  It gives the same
    # blown-up surface, so it must get the same answer in every
    # characteristic: not finitely generated in char 0, and the A4
    # witnesses at m = 2 in char 2 and m = 3 in char 3.
    with Stopwatch(2.0) as sw:
        tri = normalize_triangle([(F(-1, 6), F(1, 12)), (F(5, 6), F(-5, 12)), (0, 1)])
        assert decide(tri, RATIONALS).status == NOT_FG_EXACT
        for p, m in [(2, 2), (3, 3)]:
            verdict = decide(tri, FieldSpec(p))
            assert verdict.status == FG_WITNESS
            assert verdict.witness == {"kind": "A4", "m": m}
    report("6'", f"mirrored worked example: char 0, 2, 3 verdicts in {sw.elapsed:.3f}s")


def test_criterion_07_char5_negative_instance():
    with Stopwatch(30.0) as sw:
        tri = normalize_triangle(WORKED)
        ctx = context_for(tri, FieldSpec(5))
        rep = cohomology_dims(ctx, cone_tables(tri), period_data(tri), 60, 120)
        assert (rep.h0, rep.h1, rep.matrix.rank) == (0, 10, 5)
        assert set(rep.matrix.pivot_gaps) == {
            (61, 73), (71, 85), (81, 97), (91, 109), (55, 66)}
        verdict = decide(tri, FieldSpec(5))
        assert verdict.status == NO_WITNESS_UP_TO_BOUNDS
        assert all(p["h0"] == 0 for p in verdict.probes if "h0" in p)
    report(7, f"char 5 window and bounded search in {sw.elapsed:.2f}s")


def test_criterion_08_char7_window_h0():
    with Stopwatch(5.0) as sw:
        tri = normalize_triangle(WORKED)
        ctx = context_for(tri, FieldSpec(7))
        rep = cohomology_dims(ctx, cone_tables(tri), period_data(tri), 12, 24)
        assert rep.h0 == 0
        # The level-20 gap (17, 20) does appear in the obstruction row:
        assert rep.matrix.rows[0].get((17, 20)) == 4
    report(8, f"char 7 window h0 = 0 in {sw.elapsed:.3f}s")


@pytest.mark.xfail(
    strict=True,
    reason="The quoted pivot is unattainable: the single obstruction row of "
    "the [12, 24) window over F_7 is 6*x(11,13) + 4*x(17,20), and the "
    "declared pivot order (level ascending, column ascending) makes "
    "(11, 13) the pivot; 6 is a unit mod 7.  The vanishing family of "
    "(17, 20)-shaped gaps is indexed by k*p + f with f = 0, whose first "
    "member is d = 7, i.e. position (77, 92) in the r = 1 window [84, 168), "
    "not d = 1 in the r = 0 window.  The h0 = 0 half of the criterion holds "
    "and is asserted separately.")
def test_criterion_08_char7_pivot_as_quoted():
    tri = normalize_triangle(WORKED)
    ctx = context_for(tri, FieldSpec(7))
    rep = cohomology_dims(ctx, cone_tables(tri), period_data(tri), 12, 24)
    assert (17, 20) in rep.matrix.pivot_gaps


def test_criterion_09_closed_form_w_powers():
    with Stopwatch(5.0) as sw:
        l = 12
        for field in (RATIONALS, FieldSpec(5)):
            ctx = AlgebraContext(1, 2, field)
            w = w_element(ctx, l)
            for alpha in range(-4, 5):
                for n in (0, 1, 2):
                    wk = one(ctx, l)
                    for k in range(1, 7):
                        wk = multiply(wk, w)
                        assert column_w_element(ctx, l, alpha, n, k) == \
                            multiply(x_basis(ctx, l, alpha, n), wk), (alpha, n, k)
    report(9, f"540 closed-form expansions exact in {sw.elapsed:.2f}s")


def test_criterion_10_arithmetic_facts():
    with Stopwatch(0.1) as sw:
        f1 = factorize_integer(101757)
        assert f1 == {3: 1, 107: 1, 317: 1}
        assert 3 * 107 * 317 == 101757
        f2 = factorize_integer(250258653)
        assert f2 == {3: 5, 23: 1, 44777: 1}
        assert 3**5 * 23 * 44777 == 250258653
    report(10, f"remainder constants factored in {sw.elapsed:.3f}s")


def test_criterion_11_bounded_scope_statement():
    """The full-strength negative claim (no witness for ALL (r, j) at p >= 5)
    is an infinite family and is NOT reproduced at desk scale.  The suite
    substitutes the bounded instances of criteria 7 and 8 plus the structural
    invariants of criterion 5; the decision procedure encodes the same
    honesty by never converting a bounded failed search into a negative."""
    tri = normalize_triangle(WORKED)
    verdict = decide(tri, FieldSpec(5), SearchBounds(r_max=0, j_max=1, m_max=1))
    assert verdict.status == NO_WITNESS_UP_TO_BOUNDS
    assert verdict.status != NOT_FG_EXACT
    assert verdict.finitely_generated is None
    assert verdict.bounds == {"r_max": 0, "j_max": 1, "m_max": 1,
                              "branch_budget": 10000, "policy": "A"}
    report(11, "bounded-search scope stated explicitly; no negative claims "
               "in positive characteristic")


def test_acceptance_json_report_round_trip():
    # Supporting check for the report interface used throughout: canonical
    # serialization is byte-stable under parse + re-serialize.
    from reeslab.cli import canonical_json

    tri = normalize_triangle(WORKED)
    verdict = decide(tri, FieldSpec(5), SearchBounds(r_max=0, j_max=1, m_max=2))
    blob = canonical_json({
        "verdict": verdict.status, "witness": verdict.witness,
        "probes": verdict.probes, "bounds": verdict.bounds,
    })
    assert canonical_json(json.loads(blob)) == blob
