"""Tests for the exact triangle geometry layer."""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reeslab import geometry
from reeslab.algebra import _z_columns, context_for
from reeslab.errors import (
    ClaimViolation,
    DegenerateError,
    LevelError,
    ShapeError,
    SlopeError,
    TriangleFileError,
    WidthError,
)
from reeslab.fields import RATIONALS
from reeslab.geometry import (
    INF,
    cone_tables,
    emu_check,
    normalize_triangle,
    overlaps_and_gaps,
    pa_member,
    parse_rat,
    parse_triangle_text,
    pb_member,
    period_data,
    toric_data,
)

from oracles import cone_periods, delta_prime, first_reaching, slope_laws

WORKED = [(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1)]
UNIT_RIGHT = [(0, 0), (1, 0), (0, 1)]


def emu_of(tri):
    return emu_check(tri, cone_tables(tri))


def family_vertices(g):
    g = F(g)
    return [(g - 3, (3 - g) / 2), (g - 2, (2 - g) / 2), (0, 1)]


# ---------------------------------------------------------------------------
# normalize_triangle


def test_normalize_worked_example():
    tri = normalize_triangle(WORKED)
    assert (tri.x1, tri.x2) == (F(1, 6), F(-5, 6))
    assert tri.ubar == F(-1, 2)
    assert tri.sbar == F(7, 10) and tri.tbar == F(-13, 2)
    assert (tri.s2, tri.s3) == (7, 10)
    assert (tri.t, tri.t3) == (13, 2)
    assert (tri.u2, tri.u) == (1, 2)
    assert (tri.t1, tri.u1) == (11, 1)
    assert tri.width == 1


def test_normalize_unit_right_triangle():
    tri = normalize_triangle(UNIT_RIGHT)
    assert (tri.x1, tri.x2) == (1, 0)
    assert tri.ubar == 0
    assert tri.sbar is None and (tri.s2, tri.s3) == (1, 0)
    assert tri.tbar == -1
    assert (tri.u2, tri.u) == (0, 1)
    assert tri.width == 1


def test_normalize_rejects_bad_apex():
    with pytest.raises(ShapeError):
        normalize_triangle([(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 2)])


def test_normalize_rejects_noncollinear_base():
    with pytest.raises(ShapeError):
        normalize_triangle([(-1, F(1, 2)), (1, F(1, 3)), (0, 1)])


def test_normalize_rejects_wide_triangle():
    with pytest.raises(WidthError):
        normalize_triangle([(-1, F(1, 2)), (1, F(-1, 2)), (0, 1)])


def test_normalize_rejects_steep_bottom():
    with pytest.raises(SlopeError):
        normalize_triangle([(F(-1, 2), F(3, 4)), (F(1, 4), F(-3, 8)), (0, 1)])


def test_normalize_refuses_float_coordinates():
    # The worked example typed as floats: -5/6 is no binary fraction, so the
    # float would give a width just past 1 instead of the triangle meant.
    with pytest.raises(ShapeError, match=r"-0\.8333"):
        period_data(normalize_triangle([(-5 / 6, 5 / 12), (1 / 6, -1 / 12), (0, 1)]))
    with pytest.raises(ShapeError, match=r"0\.5"):
        period_data(normalize_triangle([(F(-1, 2), F(1, 2)), (0.5, F(-1, 2)), (0, 1)]))
    exact = normalize_triangle([("-5/6", "5/12"), ("1/6", "-1/12"), (0, 1)])
    assert period_data(exact).sigma == 12


def test_normalize_refuses_coordinates_that_are_no_rational_number():
    # Fraction's own ValueError would escape as no InputError (exit code 2).
    with pytest.raises(ShapeError, match="'x' is not an exact rational number"):
        normalize_triangle([("x", "1"), (0, 0), (0, 1)])


@pytest.mark.parametrize("vertices, named", [
    ([(0, 0, 0), (1, 0), (0, 1)], r"vertex \(0, 0, 0\)"),
    ([(0,), (1, 0), (0, 1)], r"vertex \(0,\)"),
    ("abc", "vertex 'a'"), ([1, 2, 3], "vertex 1 "), (None, "got None"),
    ([(0, 0), (0, 1)], "expected 3 vertices, got 2"),
    ([(0, 0), (0, 0), (0, 1)], "vertices are not distinct"),
    ([(0, F(1, 2)), (F(1, 2), 0), (0, 1)], r"vertex \(0, 1/2\) is not on a line"),
    ([(F(1, 4), F(-1, 8)), (F(1, 2), F(-1, 4)), (0, 1)], "must straddle the origin")])
def test_normalize_refuses_malformed_vertices(vertices, named):
    # A vertex that is no pair, or no list of vertices at all, would escape
    # as a bare ValueError or TypeError (exit code 2).  Each shape defect
    # after that has its own raise: without it, two vertices or a repeated
    # one would reach another error, and the last two cases would normalize.
    with pytest.raises(ShapeError, match=named):
        normalize_triangle(vertices)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=F(-3, 2), max_value=F(1, 2), max_denominator=8),
       st.one_of(st.just(F(0)), st.fractions(min_value=F(-3, 2), max_value=F(1, 2),
                                             max_denominator=12)),
       st.one_of(st.just(F(1)), st.fractions(min_value=0, max_value=F(3, 2),
                                             max_denominator=12)),
       st.permutations(range(3)))
@example(F(-1, 2), F(0), F(1), [0, 1, 2])
@example(F(-1, 2), F(-1), F(1), [2, 0, 1])
@example(F(0), F(-1, 3), F(1, 3), [1, 2, 0])
def test_normalized_triangles_keep_the_width_and_slope_chain(ubar, x2, width, order):
    # What normalize_triangle returns has 0 < W <= 1 and the slope chain
    # sbar >= ubar + 1, tbar <= ubar - 1 (None for a vertical edge); the
    # shape, width and ubar checks imply both, so no raise restates them.
    x1 = x2 + width
    base = [(x2, ubar * x2), (x1, ubar * x1), (F(0), F(1))]
    try:
        tri = normalize_triangle([base[i] for i in order])
    except (ShapeError, SlopeError, WidthError):
        return
    assert 0 < tri.width <= 1
    assert (tri.sbar is None) == (tri.x2 == 0) and (tri.tbar is None) == (tri.x1 == 0)
    assert tri.sbar is None or tri.sbar >= tri.ubar + 1
    assert tri.tbar is None or tri.tbar <= tri.ubar - 1


def test_family_member_after_affine_map():
    # Oracle: apply the affine normalization map to the raw family triangle
    # (1,0), (0,0), (g,4) by hand and compare vertex sets.
    g = F(5, 2)

    def apply(p):
        x, y = p
        return (F(-2 * x + y, 2) + (g - 2), F(x, 2) + F(2 - g, 2))

    mapped = {apply(p) for p in [(1, 0), (0, 0), (g, 4)]}
    assert mapped == {(F(-1, 2), F(1, 4)), (F(1, 2), F(-1, 4)), (F(0), F(1))}
    tri = normalize_triangle(sorted(mapped))
    assert tri.ubar == F(-1, 2) and tri.width == 1


# ---------------------------------------------------------------------------
# delta_prime


def test_delta_prime_worked_example():
    tri = normalize_triangle(WORKED)
    d = delta_prime(tri)
    assert d == ((0, 0), (2, -1), (F(5, 3), F(7, 6)))
    # Cross-check edge slopes of the companion triangle.
    (o, b, t) = d
    assert F(b[1] - o[1], b[0] - o[0]) == tri.ubar
    assert F(t[1] - o[1], t[0] - o[0]) == tri.sbar
    assert F(t[1] - b[1], t[0] - b[0]) == tri.tbar


def test_delta_prime_family_formula():
    for g in [F(9, 4), F(13, 6), F(5, 2), F(8, 3)]:
        tri = normalize_triangle(family_vertices(g))
        assert delta_prime(tri) == ((0, 0), (2, -1), (6 - 2 * g, g - 1))


def test_delta_prime_unit_right():
    tri = normalize_triangle(UNIT_RIGHT)
    assert delta_prime(tri) == ((0, 0), (1, 0), (0, 1))


# ---------------------------------------------------------------------------
# period_data


def test_period_worked_example():
    pd = period_data(normalize_triangle(WORKED))
    assert (pd.sigma, pd.theta, pd.theta_prime) == (12, 10, 2)


def test_period_unit_right():
    pd = period_data(normalize_triangle(UNIT_RIGHT))
    assert (pd.sigma, pd.theta, pd.theta_prime) == (1, 0, 1)


def test_period_scaled_family_member():
    tri = normalize_triangle([(F(-1, 2), F(1, 4)), (F(1, 2), F(-1, 4)), (0, 1)])
    pd = period_data(tri)
    assert (pd.sigma, pd.theta, pd.theta_prime) == (4, 2, 2)


# ---------------------------------------------------------------------------
# lattice-point oracle


def brute_force_points(polygon, scale):
    """Independent oracle: scan the integer bounding box with exact
    half-plane tests against every edge of the scaled polygon."""
    pts = [(scale * F(x), scale * F(y)) for x, y in polygon]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Orient ccw.
    if cross(pts[0], pts[1], pts[2]) < 0:
        pts = pts[::-1]
    xmin = math.ceil(min(x for x, _ in pts))
    xmax = math.floor(max(x for x, _ in pts))
    ymin = math.ceil(min(y for _, y in pts))
    ymax = math.floor(max(y for _, y in pts))
    out = []
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            q = (F(x), F(y))
            if all(cross(pts[i], pts[(i + 1) % 3], q) >= 0 for i in range(3)):
                out.append((x, y))
    return out


def test_brute_force_companion_triangle():
    dp = delta_prime(normalize_triangle(WORKED))
    assert brute_force_points(dp, 1) == [(0, 0), (1, 0), (2, -1)]


# ---------------------------------------------------------------------------
# EMU condition


def emu_by_column_formula(tri):
    """Second route: exact per-column interval arithmetic on the companion
    triangle, without enumerating points."""
    (o, b, t) = delta_prime(tri)
    counts = []
    for i in range(1, tri.u + 1):
        x = F(i)
        uppers = []
        for p, q in [(o, t), (b, t)]:
            if p[0] == q[0]:
                if p[0] == x:
                    uppers.extend([p[1], q[1]])
                continue
            lo, hi = sorted([p[0], q[0]])
            if lo <= x <= hi:
                uppers.append(p[1] + (q[1] - p[1]) * (x - p[0]) / (q[0] - p[0]))
        upper = max(uppers)
        counts.append(math.floor(upper) - math.ceil(tri.ubar * x) + 1)
    ordered = sorted(counts)
    return all(c >= i for i, c in enumerate(ordered, start=1)), tuple(counts)


def test_emu_worked_example():
    rep = emu_of(normalize_triangle(WORKED))
    assert rep.column_counts == (1, 1)
    assert rep.sorted_counts == (1, 1)
    assert not rep.holds


def test_emu_family_member_five_halves():
    rep = emu_of(normalize_triangle(family_vertices(F(5, 2))))
    assert rep.column_counts == (2, 1)
    assert rep.sorted_counts == (1, 2)
    assert rep.holds


def test_emu_u_equals_one_is_automatic():
    for tri in [normalize_triangle(UNIT_RIGHT),
                normalize_triangle([(F(-1, 2), F(1, 2)), (F(1, 2), F(-1, 2)), (0, 1)])]:
        assert tri.u == 1
        assert emu_of(tri).holds


def test_emu_two_routes_agree_on_family_grid():
    for den in range(1, 13):
        for num in range(2 * den, 3 * den + 1):
            g = F(num, den)
            tri = normalize_triangle(family_vertices(g))
            rep = emu_of(tri)
            holds2, counts2 = emu_by_column_formula(tri)
            assert rep.holds == holds2 and rep.column_counts == counts2


def test_emu_family_interior_interval():
    # On the open family interior the condition holds exactly on [7/3, 8/3].
    for den in range(1, 13):
        for num in range(2 * den + 1, 3 * den):
            g = F(num, den)
            rep = emu_of(normalize_triangle(family_vertices(g)))
            assert rep.holds == (F(7, 3) <= g <= F(8, 3)), f"g={g}"


def test_emu_family_endpoints_are_degenerate():
    # At g=2 / g=3 one outer edge of the triangle is vertical; the sorted
    # column-count test is no longer equivalent to finite generation there
    # (the vertical edge contributes a full column of lattice points at g=2).
    assert emu_of(normalize_triangle(family_vertices(2))).column_counts == (1, 3)
    assert emu_of(normalize_triangle(family_vertices(2))).holds
    assert not emu_of(normalize_triangle(family_vertices(3))).holds


# ---------------------------------------------------------------------------
# cone tables and membership


def test_cone_tables_worked_example():
    tri = normalize_triangle(WORKED)
    ct = cone_tables(tri)
    assert [ct.a(i) for i in range(11)] == [1, 1, 3, 4, 5, 6, 8, 8, 10, 11, 13]
    assert [ct.b(0), ct.b(-1), ct.b(-2)] == [1, 6, 13]
    assert ct.b(1) == 0 and ct.b(5) == 0


def test_cone_tables_periodicity_worked_example():
    tri = normalize_triangle(WORKED)
    pd = period_data(tri)
    ct = cone_tables(tri)
    for i in range(51):
        assert ct.a(i + pd.theta) == ct.a(i) + pd.sigma
        assert ct.b(-i - pd.theta_prime) == ct.b(-i) + pd.sigma


def test_cone_tables_infinite_sentinel():
    ct = cone_tables(normalize_triangle(UNIT_RIGHT))
    assert ct.a(0) is INF and ct.a(7) is INF
    assert ct.b(0) == 1 and ct.b(-3) == 4
    assert INF > 10**100


def test_membership_worked_example():
    tri = normalize_triangle(WORKED)
    ct = cone_tables(tri)
    assert pa_member(ct, 10, 12) and pb_member(ct, 10, 12)
    assert not pa_member(ct, 1, 1) and not pb_member(ct, 1, 1)
    assert not pa_member(ct, -1, 0)
    assert pb_member(ct, -1, 0)


def test_membership_shift_periodicity():
    tri = normalize_triangle(WORKED)
    pd = period_data(tri)
    ct = cone_tables(tri)
    for alpha in range(-6, 25):
        for n in range(0, 30):
            assert pa_member(ct, alpha, n) == pa_member(ct, alpha + pd.theta, n + pd.sigma)
            assert pb_member(ct, alpha, n) == pb_member(ct, alpha + pd.theta, n + pd.sigma)


@st.composite
def width_one_triangles(draw):
    u = draw(st.integers(min_value=1, max_value=5))
    u2 = draw(st.integers(min_value=0, max_value=u))
    if math.gcd(u2, u) != 1:
        u, u2 = 1, 0
    ubar = F(-u2, u)
    x2 = -draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    x1 = x2 + 1
    return normalize_triangle([(x2, ubar * x2), (x1, ubar * x1), (0, 1)])


@settings(max_examples=60, deadline=None)
@given(width_one_triangles())
def test_cone_periodicity_random_width_one(tri):
    pd = period_data(tri)
    ct = cone_tables(tri)
    assert pd.sigma == pd.theta + pd.theta_prime
    if tri.sbar is not None:
        for i in range(0, 5 * max(pd.theta, 1)):
            assert ct.a(i + pd.theta) == ct.a(i) + pd.sigma
    if tri.tbar is not None:
        for i in range(0, 5 * max(pd.theta_prime, 1)):
            assert ct.b(-i - pd.theta_prime) == ct.b(-i) + pd.sigma


@st.composite
def normalized_triangles(draw, max_u=7):
    """Any width in (0, 1], with x2 = 0 or x1 = 0 (a vertical edge) often."""
    u = draw(st.integers(min_value=1, max_value=max_u))
    u2 = draw(st.integers(min_value=0, max_value=u))
    if math.gcd(u2, u) != 1:
        u, u2 = 1, 0
    ubar = F(-u2, u)
    x2 = -draw(st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=1,
                                                        max_denominator=12)))
    x1 = draw(st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=1 + x2,
                                                       max_denominator=12)))
    assume(x1 > x2)
    return normalize_triangle([(x2, ubar * x2), (x1, ubar * x1), (0, 1)])


@settings(max_examples=60, deadline=None)
@given(normalized_triangles())
def test_cone_tables_match_fraction_formula(tri):
    # The Fraction formula of the ConeTables docstring is the oracle for the
    # integer floor divisions.
    ct = cone_tables(tri)
    for i in range(-300, 301):
        if i < 0:
            with pytest.raises(LevelError):
                ct.a(i)
        else:
            want = INF if tri.sbar is None else \
                math.floor(i * tri.sbar) - math.ceil(i * tri.ubar) + 1
            assert ct.a(i) == want
        if i > 0:
            want = 0
        elif tri.tbar is None:
            want = INF
        else:
            want = math.floor(i * tri.tbar) - math.ceil(i * tri.ubar) + 1
        assert ct.b(i) == want


# Facts the code relies on without a runtime check, since its own
# arithmetic guarantees each.

@settings(max_examples=80, deadline=None)
@given(st.one_of(normalized_triangles(), width_one_triangles()))
def test_period_data_needs_no_integrality_check(tri):
    # sigma is the least dilation making the vertices integral, so theta and
    # theta' are ints, and at width 1 they sum to sigma, which u divides.
    pd = period_data(tri)
    coords = [c for v in tri.vertices for c in v]
    assert pd.sigma == next(s for s in range(1, pd.sigma + 1)
                            if all((s * c).denominator == 1 for c in coords))
    assert type(pd.theta) is int and type(pd.theta_prime) is int
    assert (pd.theta, pd.theta_prime) == (-tri.x2 * pd.sigma, tri.x1 * pd.sigma)
    if tri.width == 1:
        assert pd.theta + pd.theta_prime == pd.sigma
        assert pd.sigma % tri.u == 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(normalized_triangles(), width_one_triangles()))
def test_cone_tables_read_the_stored_slope_pairs(tri):
    # The laws from the stored (s2, s3), (t, t3), (u2, u) are the laws of
    # the Fraction slopes, and A + B >= 1 on both: sbar - ubar = 1/|x2| and
    # ubar - tbar = 1/x1 with |x2|, x1 <= 1.
    ct = geometry.ConeTables(tri)
    assert (ct._pa_law, ct._pb_law) == slope_laws(tri)
    for law in (ct._pa_law, ct._pb_law):
        if law is not None:
            (an, ad), (bn, bd) = law
            assert F(an, ad) + F(bn, bd) >= 1


@settings(max_examples=30, deadline=None)
@given(width_one_triangles())
def test_d_set_windows_hold_p_to_the_r_overlaps(tri):
    # d_set's window [sigma*j*q, sigma*(j+1)*q), q = p^r, lists the overlaps
    # k*(theta, sigma) for k in [j*q, (j+1)*q): exactly q of them.
    ct, pd = cone_tables(tri), period_data(tri)
    for p in (2, 3, 5):
        for r in (0, 1):
            q = p**r
            for j in (1, 2, 3):
                ov, _ = overlaps_and_gaps(ct, pd, pd.sigma * j * q, pd.sigma * (j + 1) * q)
                assert ov == [(k * pd.theta, k * pd.sigma) for k in range(j * q, (j + 1) * q)]


@settings(max_examples=60, deadline=None)
@given(normalized_triangles(), st.lists(st.integers(min_value=0, max_value=10**6),
                                        min_size=1, max_size=4))
def test_z_columns_w_exponent_is_never_negative(tri, levels):
    # delta = ceil((alpha0 - n)*ubar) - ceil(alpha0*ubar) >= 0 for n >= 0,
    # since ubar <= 0; the sweep and the search read z at levels n >= 0.
    ctx = context_for(tri, RATIONALS)
    for n in levels + list(range(2 * ctx.u + 1)):
        for alpha0 in range(ctx.u):
            delta = math.ceil((alpha0 - n) * tri.ubar) - math.ceil(alpha0 * tri.ubar)
            assert delta >= 0
            assert _z_columns(ctx, alpha0, n, 1, {})[0] == delta


@settings(max_examples=40, deadline=None)
@given(normalized_triangles(), st.lists(st.integers(min_value=0, max_value=400),
                                        min_size=1, max_size=4))
def test_cone_thresholds_decide_membership(tri, levels):
    # The gap scan, the window sweep and the factorization search classify
    # a column alpha at level n by the two thresholds alone, which needs a
    # and b monotone at every column, not only at the boundary columns that
    # ConeTables certifies.  The search meets negative columns too.
    ct = cone_tables(tri)
    for n in levels + [0, 400]:
        col_a, col_b = ct.min_pa_col(n), ct.max_pb_col(n)
        for alpha in range(-n - 2, 2 * n + 3):
            assert (alpha >= col_a) == pa_member(ct, alpha, n), (alpha, n)
            assert (alpha <= col_b) == pb_member(ct, alpha, n), (alpha, n)


@settings(max_examples=40, deadline=None)
@given(normalized_triangles(), st.randoms(use_true_random=False))
def test_periodic_thresholds_match_the_galloping_search(tri, rng):
    # Each read computes its threshold afresh, so asked in any order, and
    # far up, both thresholds equal the search from scratch.
    ct = cone_tables(tri)
    levels = list(range(401)) + [10**6 - 1, 10**6, 10**6 + 7]
    rng.shuffle(levels)
    for n in levels:
        assert ct.min_pa_col(n) == first_reaching(ct.a, n), n
        assert ct.max_pb_col(n) == n - first_reaching(lambda k: ct.b(-k), n), n


def period_break(threshold, shift, q, levels):
    """The first level n < levels with threshold(n + q) != threshold(n) +
    shift, or None if there is none."""
    return next((n for n in range(levels) if threshold(n + q) != threshold(n) + shift), None)


@settings(max_examples=40, deadline=None)
@given(normalized_triangles())
def test_cone_thresholds_follow_the_period_law(tri):
    # With (P, Q) = cone_periods(tri) for each law, min_pa_col(n+Q) =
    # min_pa_col(n) + P and max_pb_col(n+Q) = max_pb_col(n) + Q - P; an
    # infinite edge has (P, Q) = (0, 1).
    ct = cone_tables(tri)
    (pa, qa), (pb, qb) = cone_periods(tri)
    assert period_break(ct.min_pa_col, pa, qa, 3 * qa) is None
    assert period_break(ct.max_pb_col, qb - pb, qb, 3 * qb) is None


@settings(max_examples=60, deadline=None)
@given(normalized_triangles())
@example(normalize_triangle(UNIT_RIGHT))
@example(normalize_triangle([(-1, 0), (0, 0), (0, 1)]))
def test_each_threshold_read_evaluates_the_count_at_most_twice(tri):
    # Both laws of a normalized triangle have A + B >= 1 (sbar - ubar =
    # 1/|x2|, ubar - tbar = 1/x1), so the walk up from ceil(n/(A+B)) reads
    # the count at most twice per threshold read, and never on a vertical
    # edge; every read locates its threshold once.
    reads, locates = [], []
    count, locate = geometry._count, geometry._locate

    def counting(law, k):
        reads.append(law)
        return count(law, k)

    def locating(law, n):
        before = len(reads)
        k = locate(law, n)
        locates.append((law, len(reads) - before))
        return k

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_count", counting)
        mp.setattr(geometry, "_locate", locating)
        ct = cone_tables(tri)
        for n in range(300):
            ct.min_pa_col(n)
            ct.max_pb_col(n)
    assert len(locates) == 2 * 300
    assert all(evals <= (0 if law is None else 2) for law, evals in locates)


def test_a_negative_level_or_column_is_a_level_error():
    # A bare ValueError would escape the CLI as no InputError (exit code 2),
    # and unguarded, a negative level's threshold would fail its certificate
    # as a ClaimViolation, which reads as a bug.
    ct = cone_tables(normalize_triangle(WORKED))
    for call in (ct.min_pa_col, ct.max_pb_col, ct.a):
        with pytest.raises(LevelError, match="-1"):
            call(-1)


@pytest.mark.parametrize("threshold", ["min_pa_col", "max_pb_col"])
def test_an_off_by_one_threshold_is_not_certified(threshold, monkeypatch):
    # The threshold located at level 5 is one column off, that of level 4 is
    # not; the membership check made on every read rejects the first.
    locate = geometry._locate
    monkeypatch.setattr(geometry, "_locate", lambda law, n: locate(law, n) + (n == 5))
    ct = cone_tables(normalize_triangle(WORKED))
    getattr(ct, threshold)(4)
    with pytest.raises(ClaimViolation, match="not its cone's edge"):
        getattr(ct, threshold)(5)


@pytest.mark.parametrize("vertices, threshold, period, bad", [
    (WORKED, "min_pa_col", (10, 12), (11, 12)),
    (WORKED, "min_pa_col", (10, 12), (10, 11)),
    (WORKED, "max_pb_col", (2, 12), (3, 12)),
    (WORKED, "max_pb_col", (2, 12), (2, 11)),
    ([(-1, 0), (0, 0), (0, 1)], "min_pa_col", (1, 1), (2, 1)),
    (UNIT_RIGHT, "max_pb_col", (1, 1), (2, 1)),
], ids=["worked-a-P", "worked-a-Q", "worked-b-P", "worked-b-Q", "right-a", "right-b"])
def test_a_wrong_period_is_not_certified(vertices, threshold, period, bad):
    # On the worked example a(i+10) = a(i)+12 and b(-i-2) = b(-i)+12; the
    # right triangles have period (1, 1).  The true (P, Q) is the one
    # cone_periods derives and holds at every level of [0, 200); each wrong
    # one fails at some level there.
    tri = normalize_triangle(vertices)
    read = getattr(cone_tables(tri), threshold)
    periods = dict(zip(("min_pa_col", "max_pb_col"), cone_periods(tri)))
    assert periods[threshold] == period

    def breaks(p, q):
        return period_break(read, p if threshold == "min_pa_col" else q - p, q, 200)

    assert breaks(*period) is None
    assert breaks(*bad) is not None


def test_each_threshold_read_costs_one_membership_call(monkeypatch):
    # The gap scan of [60, 120) reads both thresholds at each of its 60
    # levels, and each read makes exactly one membership call, its
    # certificate.
    calls = []
    for name in ("pa_member", "pb_member"):
        member = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *args, member=member: calls.append(1) or member(*args))
    tri = normalize_triangle(WORKED)
    ov, gp = overlaps_and_gaps(cone_tables(tri), period_data(tri), 60, 120)
    assert len(ov) == 5 and len(gp) == 15
    assert len(calls) == 2 * 60


@settings(max_examples=40, deadline=None)
@given(width_one_triangles())
def test_emu_routes_agree_random(tri):
    rep = emu_of(tri)
    holds2, counts2 = emu_by_column_formula(tri)
    assert rep.holds == holds2 and rep.column_counts == counts2


@settings(max_examples=60, deadline=None)
@given(normalized_triangles(max_u=12))
def test_emu_counts_match_brute_force(tri):
    # The cone-table column counts against a half-plane scan of the
    # companion triangle, at any width and with vertical edges.
    pts = brute_force_points(delta_prime(tri), 1)
    want = tuple(sum(1 for a, _ in pts if a == i) for i in range(1, tri.u + 1))
    assert emu_of(tri).column_counts == want


# ---------------------------------------------------------------------------
# overlaps and gaps


def test_overlaps_and_gaps_first_window():
    tri = normalize_triangle(WORKED)
    ov, gp = overlaps_and_gaps(cone_tables(tri), period_data(tri), 0, 12)
    assert ov == [(0, 0)]
    assert gp == [(1, 1), (5, 6), (7, 8)]


def test_overlaps_and_gaps_shifted_window():
    tri = normalize_triangle(WORKED)
    ov, gp = overlaps_and_gaps(cone_tables(tri), period_data(tri), 60, 120)
    assert len(ov) == 5 and len(gp) == 15
    assert ov == [(10 * k, 12 * k) for k in range(5, 10)]
    families = {(10 * d + 1, 12 * d + 1) for d in range(5, 10)}
    families |= {(10 * d + 5, 12 * d + 6) for d in range(5, 10)}
    families |= {(10 * d + 7, 12 * d + 8) for d in range(5, 10)}
    assert set(gp) == families


def test_overlaps_and_gaps_level_zero():
    for verts in [WORKED, UNIT_RIGHT]:
        tri = normalize_triangle(verts)
        ov, gp = overlaps_and_gaps(cone_tables(tri), period_data(tri), 0, 1)
        assert ov == [(0, 0)] and gp == []


def test_claim_violation_on_wrong_period_lattice():
    # Real tables paired with a wrong overlap lattice must be rejected
    # rather than silently accepted.
    from reeslab.geometry import PeriodData

    ct = cone_tables(normalize_triangle(WORKED))
    pd = PeriodData(sigma=11, theta=10, theta_prime=1)
    with pytest.raises(ClaimViolation):
        overlaps_and_gaps(ct, pd, 0, 13)


# ---------------------------------------------------------------------------
# toric data


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


def smith_invariant_factors(rows):
    """Oracle: invariant factors of an integer matrix via determinantal
    divisors; factor k is gcd(k-minors)/gcd((k-1)-minors)."""
    nr, nc = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = math.gcd(g, _det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[k] // divisors[k - 1] for k in range(1, len(divisors)))


def test_toric_worked_example():
    td = toric_data(normalize_triangle(WORKED))
    assert td.weights == (1, 1, 6)
    assert td.torsion_order == 24
    assert not td.i_is_prime
    assert td.torsion_cyclic
    assert td.ideal_matrix == ((7, 2, 1), (11, 1, 10))
    a, b, c = td.weights
    for k in range(2):
        assert a * td.normal_a[k] + b * td.normal_b[k] + c * td.normal_c[k] == 0


def test_toric_standard_projective_plane():
    # Synthetic normals spanning Z^2: weights (1,1,1), trivial torsion.
    assert smith_invariant_factors([[1, 0], [0, 1], [-1, -1]]) == (1, 1)
    tri = normalize_triangle([(-1, 1), (0, 0), (0, 1)])  # ubar=-1 member
    td = toric_data(tri)
    assert all(w > 0 for w in td.weights)


def test_smith_invariant_factors_basics():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert smith_invariant_factors([[7, -10], [-13, -2], [1, 2]]) == (1, 24)
    assert smith_invariant_factors([[2, 0], [0, 2], [0, 0]]) == (2, 2)


@settings(max_examples=80, deadline=None)
@given(normalized_triangles())
def test_torsion_matches_smith_oracle(tri):
    try:
        td = toric_data(tri)
    except DegenerateError:
        assume(False)
    factors = smith_invariant_factors([td.normal_a, td.normal_b, td.normal_c])
    assert td.torsion_invariants == factors
    assert td.torsion_order == factors[0] * factors[1]
    assert td.torsion_cyclic == (factors[0] == 1)
    assert td.i_is_prime == (td.torsion_order == 1)


# ---------------------------------------------------------------------------
# triangle files


def test_parse_rat():
    assert parse_rat(" -5/6 ") == F(-5, 6)
    assert parse_rat("42") == 42
    for bad in ["0.5", "1e3", "5/0.3", "nan", "1/-2/3", "1/0", "0/0"]:
        with pytest.raises(TriangleFileError):
            parse_rat(bad)


@given(st.fractions(max_denominator=1000))
def test_parse_rat_round_trip(q):
    assert parse_rat(str(q)) == q


def test_parse_triangle_text():
    text = """
    # worked example
    v1 = -5/6, 5/12
    v2 = 1/6 , -1/12
    v3=0,1
    """
    pts = parse_triangle_text(text)
    assert pts == ((F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1))
    tri = normalize_triangle(pts)
    assert tri.u == 2


def test_parse_triangle_text_errors():
    with pytest.raises(TriangleFileError):
        parse_triangle_text("v1 = 0,0\nv2 = 1,0")
    with pytest.raises(TriangleFileError):
        parse_triangle_text("v1 = 0,0\nv1 = 1,0\nv3 = 0,1")
    with pytest.raises(TriangleFileError):
        parse_triangle_text("v1 = 0.5, 0\nv2 = 1,0\nv3 = 0,1")
    for text, message in [
            ("v1 = 0,0\nv2 1,0\nv3 = 0,1", "line 2: expected 'key = x, y'"),
            ("v1 = 0,0\nv2 = 1,0\nv4 = 0,1", "line 3: unknown key 'v4'"),
            ("v1 = 0,0,0\nv2 = 1,0\nv3 = 0,1", "line 1: expected two coordinates")]:
        with pytest.raises(TriangleFileError, match=message):
            parse_triangle_text(text)
