"""Tests for the exact triangle geometry layer."""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reeslab import geometry
from reeslab.errors import (
    ClaimViolation,
    DegenerateError,
    LevelError,
    ShapeError,
    SlopeError,
    TriangleFileError,
    WidthError,
)
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

from oracles import delta_prime, first_reaching

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
    ("abc", "vertex 'a'"), ([1, 2, 3], "vertex 1 "), (None, "got None")])
def test_normalize_refuses_malformed_vertices(vertices, named):
    # A vertex that is no pair, or no list of vertices at all, would escape
    # as a bare ValueError or TypeError (exit code 2).
    with pytest.raises(ShapeError, match=named):
        normalize_triangle(vertices)


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
    # Each threshold memo is keyed on the level reduced by its period Q;
    # asked in any order for n up to several periods, both thresholds
    # equal the search from scratch and the memos stay within 2Q entries.
    ct = cone_tables(tri)
    qa, qb = ct._pa_period[1], ct._pb_period[1]
    levels = list(range(4 * max(qa, qb) + 3))
    rng.shuffle(levels)
    for n in levels:
        assert ct.min_pa_col(n) == first_reaching(ct.a, n), n
        assert ct.max_pb_col(n) == n - first_reaching(lambda k: ct.b(-k), n), n
    assert len(ct._pa_cache) <= 2 * qa and len(ct._pb_cache) <= 2 * qb


@settings(max_examples=60, deadline=None)
@given(normalized_triangles())
@example(normalize_triangle(UNIT_RIGHT))
@example(normalize_triangle([(-1, 0), (0, 0), (0, 1)]))
def test_each_threshold_fill_reads_the_count_at_most_twice(tri):
    # Both laws of a normalized triangle have A + B >= 1 (sbar - ubar =
    # 1/|x2|, ubar - tbar = 1/x1), so the walk up from ceil(n/(A+B)) reads
    # the count at most twice per memo entry, and never on a vertical edge.
    reads, fills = [], []
    count, locate = geometry._count, geometry._locate

    def counting(law, k):
        reads.append(law)
        return count(law, k)

    def locating(law, n):
        before = len(reads)
        k = locate(law, n)
        fills.append((law, len(reads) - before))
        return k

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_count", counting)
        mp.setattr(geometry, "_locate", locating)
        ct = cone_tables(tri)
        for n in range(2 * max(ct._pa_period[1], ct._pb_period[1]) + 2):
            ct.min_pa_col(n)
            ct.max_pb_col(n)
    assert len(fills) == len(ct._pa_cache) + len(ct._pb_cache)
    assert all(evals <= (0 if law is None else 2) for law, evals in fills)


def test_a_negative_level_or_column_is_a_level_error():
    # A bare ValueError would escape the CLI as no InputError (exit code 2),
    # and unguarded, a negative level's threshold would fail its certificate
    # as a ClaimViolation, which reads as a bug.
    ct = cone_tables(normalize_triangle(WORKED))
    for call in (ct.min_pa_col, ct.max_pb_col, ct.a):
        with pytest.raises(LevelError, match="-1"):
            call(-1)
    assert not ct._pa_cache and not ct._pb_cache


@pytest.mark.parametrize("threshold", ["min_pa_col", "max_pb_col"])
def test_an_off_by_one_threshold_is_not_certified(threshold, monkeypatch):
    # The memo entry of level 5 is one column off, that of level 4 is not;
    # the boundary check made when an entry is filled rejects the first.
    locate = geometry._locate
    monkeypatch.setattr(geometry, "_locate", lambda law, n: locate(law, n) + (n == 5))
    ct = cone_tables(normalize_triangle(WORKED))
    getattr(ct, threshold)(4)
    with pytest.raises(ClaimViolation, match="not its cone's edge"):
        getattr(ct, threshold)(5)


@pytest.mark.parametrize("vertices, threshold, period, bad", [
    (WORKED, "min_pa_col", "_pa_period", (11, 12)),
    (WORKED, "min_pa_col", "_pa_period", (10, 11)),
    (WORKED, "max_pb_col", "_pb_period", (3, 12)),
    (WORKED, "max_pb_col", "_pb_period", (2, 11)),
    ([(-1, 0), (0, 0), (0, 1)], "min_pa_col", "_pa_period", (2, 1)),
    (UNIT_RIGHT, "max_pb_col", "_pb_period", (2, 1)),
], ids=["worked-a-P", "worked-a-Q", "worked-b-P", "worked-b-Q", "right-a", "right-b"])
def test_a_wrong_period_is_not_certified(vertices, threshold, period, bad):
    # On the worked example a(i+10) = a(i)+12 and b(-i-2) = b(-i)+12; the
    # right triangles have period (1, 1), so only levels 0 and 1 are kept.
    # A level past one period reuses a reduced memo entry, whose fill checks
    # it against the entry one period down.
    ct = cone_tables(normalize_triangle(vertices))
    setattr(ct, period, bad)
    with pytest.raises(ClaimViolation, match="breaks the period"):
        getattr(ct, threshold)(100)


def test_each_threshold_entry_costs_two_membership_calls(monkeypatch):
    # A gap scan over five periods reads membership only when a memo entry
    # is filled, twice per entry.
    calls = []
    for name in ("pa_member", "pb_member"):
        member = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *args, member=member: calls.append(1) or member(*args))
    tri = normalize_triangle(WORKED)
    ct = cone_tables(tri)
    ov, gp = overlaps_and_gaps(ct, period_data(tri), 60, 120)
    assert len(ov) == 5 and len(gp) == 15
    entries = len(ct._pa_cache) + len(ct._pb_cache)
    assert 0 < entries <= 4 * 12
    assert len(calls) == 2 * entries


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
