"""Tests for the two-chart cohomology engine and the factorization search."""

import dataclasses
import hashlib
import json
import math
import random
import signal
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reeslab import algebra, cohomology
from reeslab.algebra import (
    AlgebraContext,
    AlgebraElement,
    OverlapGaps,
    _z_rows_base,
    context_for,
    multiply,
    one,
    subspace_decompose,
    x_basis,
    xi_power,
)
from reeslab.cohomology import (
    _echelon_rank,
    cohomology_dims,
    factorization_search,
    per_level_chi,
)
from reeslab.decision import SearchBounds, d_set, decide
from reeslab.errors import (
    BudgetExceeded,
    ClaimViolation,
    ContextError,
    InconsistencyError,
    LevelError,
    RangeError,
    SlopeError,
    TheoremViolation,
    WidthError,
)
from reeslab.fields import RATIONALS, FieldSpec, factorize_integer
from reeslab.geometry import (
    cone_tables,
    normalize_triangle,
    overlaps_and_gaps,
    pa_member,
    period_data,
)

from oracles import (
    combine,
    decompose_element,
    divided_factorization_search,
    fold_z_state,
    laurent_multiply,
    product_xi_power,
)

WORKED = [(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1)]


def worked(char=0):
    tri = normalize_triangle(WORKED)
    return (
        context_for(tri, FieldSpec(char)),
        cone_tables(tri),
        period_data(tri),
    )


def family_triangle(g):
    g = F(g)
    return normalize_triangle([(g - 3, (3 - g) / 2), (g - 2, (2 - g) / 2), (0, 1)])


# ---------------------------------------------------------------------------
# per-level Euler characteristics


def test_chi_pattern_worked_example():
    _, ct, pd = worked()
    assert [per_level_chi(ct, n) for n in range(12)] == \
        [1, -1, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0]


def test_chi_is_periodic():
    _, ct, pd = worked()
    for n in range(60):
        assert per_level_chi(ct, n) == per_level_chi(ct, n + pd.sigma)


def test_chi_level_zero_any_triangle():
    for verts in [WORKED, [(0, 0), (1, 0), (0, 1)]]:
        tri = normalize_triangle(verts)
        assert per_level_chi(cone_tables(tri), 0) == 1


def test_chi_window_sums():
    _, ct, pd = worked()
    for p, rmax in [(2, 2), (3, 1), (5, 1), (7, 0)]:
        for r in range(rmax + 1):
            q = p**r
            total = sum(per_level_chi(ct, n) for n in range(12 * q, 24 * q))
            assert total == -2 * q


# ---------------------------------------------------------------------------
# cohomology windows


def _dense_rank(rows, gaps, p):
    """Gaussian elimination on the dense matrix, columns in gap order:
    (rank, pivot columns as gap positions)."""
    mat = [[row.get(pos, 0) for pos in gaps] for row in rows]
    if p:
        mat = [[c % p for c in r] for r in mat]
    else:
        mat = [[F(c) for c in r] for r in mat]
    pivots, top = [], 0
    for col in range(len(gaps)):
        hit = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        inv = pow(mat[top][col], -1, p) if p else 1 / mat[top][col]
        for i in range(len(mat)):
            if i != top and mat[i][col]:
                f = mat[i][col] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[top])]
                if p:
                    mat[i] = [a % p for a in mat[i]]
        pivots.append(gaps[col])
        top += 1
    return top, pivots


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_echelon_rank_matches_dense_elimination(p):
    rng = random.Random(1000 + p)
    for trial in range(150):
        gaps = sorted({(rng.randint(-6, 6), rng.randint(0, 5))
                       for _ in range(rng.randint(1, 12))},
                      key=lambda pos: (pos[1], pos[0]))
        rows = []
        for _ in range(rng.randint(1, 10)):
            if rows and rng.random() < 0.3:
                # A combination of earlier rows, to force rank deficiency.
                row = {}
                for old in rng.sample(rows, min(2, len(rows))):
                    f = rng.randint(-3, 3)
                    for pos, c in old.items():
                        row[pos] = row.get(pos, 0) + f * c
            else:
                row = {pos: rng.randint(-4, 4) for pos in rng.sample(
                    gaps, rng.randint(1, len(gaps)))}
            if p:
                row = {pos: c % p for pos, c in row.items()}
            else:
                row = {pos: F(c, rng.randint(1, 3)) for pos, c in row.items()}
            rows.append(row)
        got = _echelon_rank(rows, gaps, FieldSpec(p))
        assert got == _dense_rank(rows, gaps, p), (p, trial)


class _WrongInverse(FieldSpec):
    """A field whose inverse is off by a factor of 2."""

    def inv(self, a):
        return 2 * FieldSpec.inv(self, a)


@pytest.mark.parametrize("p", [0, 3, 5])
def test_echelon_rank_raises_on_a_faulty_pivot(p):
    # A pivot that is not normalized to 1 cannot cancel the lead entry of a
    # later row; the elimination must raise instead of looping forever.
    gaps = [(0, 1), (1, 1)]
    rows = [{(0, 1): 1, (1, 1): 1}, {(0, 1): 2, (1, 1): 3}]

    def hang(signum, frame):
        raise TimeoutError("elimination did not terminate")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(InconsistencyError):
            _echelon_rank(rows, gaps, _WrongInverse(p))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_trivial_window():
    ctx, ct, pd = worked()
    rep = cohomology_dims(ctx, ct, pd, 0, 1)
    assert (rep.h0, rep.h1) == (1, 0)
    assert rep.matrix.rank == 0 and rep.matrix.overlaps == [(0, 0)]


def test_rational_window_first_period():
    ctx, ct, pd = worked()
    rep = cohomology_dims(ctx, ct, pd, 12, 24)
    assert (rep.h0, rep.h1, rep.matrix.rank) == (0, 2, 1)
    assert rep.matrix.pivot_gaps == [(11, 13)]


def test_char5_main_window():
    ctx, ct, pd = worked(5)
    rep = cohomology_dims(ctx, ct, pd, 60, 120)
    assert (rep.h0, rep.h1, rep.matrix.rank) == (0, 10, 5)
    assert rep.matrix.pivot_gaps == \
        [(55, 66), (61, 73), (71, 85), (81, 97), (91, 109)]


def test_char2_windows_have_sections():
    # With the m=2 factorization available, every window [12q, 24q) has a
    # global section mod 2: all obstruction rows vanish.
    ctx, ct, pd = worked(2)
    for r in (0, 1):
        q = 2**r
        rep = cohomology_dims(ctx, ct, pd, 12 * q, 24 * q)
        assert rep.matrix.rank == 0
        assert rep.h0 == q and rep.h1 == 3 * q


def test_policy_invariance():
    ctx, ct, pd = worked(5)
    rng = random.Random(424)
    for _ in range(8):
        m = rng.randint(0, 40)
        l = m + rng.randint(1, 3 * pd.sigma)
        ra = cohomology_dims(ctx, ct, pd, m, l, policy="A")
        rb = cohomology_dims(ctx, ct, pd, m, l, policy="B")
        assert (ra.h0, ra.h1, ra.matrix.rank) == (rb.h0, rb.h1, rb.matrix.rank)


def test_window_shift_periodicity():
    # Shift invariance holds for windows starting at m >= 1.  Windows through
    # level 0 are special: the index-0 overlap contributes an identically
    # zero row (z and x coincide at the origin), unlike its shifts.
    ctx, ct, pd = worked(5)
    for (m, l) in [(3, 17), (12, 24), (1, 25)]:
        base = cohomology_dims(ctx, ct, pd, m, l)
        for k in (1, 2, 3):
            shifted = cohomology_dims(ctx, ct, pd, m + k * pd.sigma, l + k * pd.sigma)
            assert (base.h0, base.h1, base.matrix.rank) == \
                (shifted.h0, shifted.h1, shifted.matrix.rank)


def test_window_through_level_zero_is_special():
    ctx, ct, pd = worked(5)
    base = cohomology_dims(ctx, ct, pd, 0, 13)
    assert (base.h0, base.matrix.rank) == (2, 0)
    shifted = cohomology_dims(ctx, ct, pd, 12, 25)
    assert (shifted.h0, shifted.matrix.rank) == (1, 1)


def test_report_serialization_fields():
    ctx, ct, pd = worked(5)
    d = cohomology_dims(ctx, ct, pd, 12, 24).to_dict()
    assert set(d) == {"m", "l", "char", "overlaps", "gaps", "rank", "h0", "h1",
                      "chi", "chi_independent", "consistent", "pivot_gaps",
                      "policy", "slack"}
    assert d["consistent"] is True


# ---------------------------------------------------------------------------
# D-sets


def test_d_set_char5():
    ctx, ct, pd = worked(5)
    ds = d_set(ctx, ct, pd, 1, 1)
    assert ds.matrix.rank == 5 and ds.h0 == 0
    assert set(ds.matrix.pivot_gaps) == {
        (61, 73), (71, 85), (81, 97), (91, 109), (55, 66)}


def test_d_set_char7_r0():
    ctx, ct, pd = worked(7)
    ds = d_set(ctx, ct, pd, 0, 1)
    assert ds.h0 == 0 and ds.matrix.rank == 1
    # The single obstruction row leads at the lowest-level gap (11, 13); the
    # level-20 gap (17, 20) also appears in its support but is not a pivot.
    assert ds.matrix.pivot_gaps == [(11, 13)]
    row = ds.matrix.rows[0]
    assert set(row) == {(11, 13), (17, 20)}
    assert row[(11, 13)] == 6 % 7


def test_d_set_char7_r1():
    # In the r=1 window the vanishing set picks up the (10d+7, 12d+8)-shaped
    # gap at d = 7 on top of the six coprime-index (10d+1, 12d+1) gaps,
    # reaching the required p^1 = 7 pivots.
    ctx, ct, pd = worked(7)
    ds = d_set(ctx, ct, pd, 1, 1)
    assert ds.h0 == 0 and ds.matrix.rank == 7
    assert ds.matrix.pivot_gaps == [(77, 92), (81, 97), (91, 109), (101, 121),
                              (111, 133), (121, 145), (131, 157)]


def test_d_set_char11_r0():
    # 11 = 10*1 + 1 exercises the '10f+1' residue family at r=0.
    tri = normalize_triangle(WORKED)
    ctx = context_for(tri, FieldSpec(11))
    ds = d_set(ctx, cone_tables(tri), period_data(tri), 0, 1)
    assert ds.h0 == 0 and ds.matrix.rank == 1


def test_d_set_rejects_narrow_triangle():
    verts = [(F(-5, 6), F(5, 12)), (F(1, 12), F(-1, 24)), (0, 1)]
    tri = normalize_triangle(verts)
    assert tri.width < 1
    ctx = context_for(tri, FieldSpec(5))
    with pytest.raises(WidthError):
        d_set(ctx, cone_tables(tri), period_data(tri), 0, 1)


def test_entry_point_arguments_raise_input_errors():
    # InputError subclasses, which the command line maps to exit code 1.
    ctx, ct, pd = worked(5)
    with pytest.raises(RangeError):
        d_set(ctx, ct, pd, -1, 1)
    with pytest.raises(RangeError):
        d_set(ctx, ct, pd, 0, 0)
    with pytest.raises(ContextError):
        d_set(*worked(0), 0, 1)
    with pytest.raises(LevelError):
        cohomology_dims(ctx, ct, pd, 24, 12)
    with pytest.raises(LevelError):
        overlaps_and_gaps(ct, pd, -1, 12)
    with pytest.raises(RangeError):
        subspace_decompose(ctx, ct, 12, 24, [], policy="C")
    for overlap in ((10, 11), (20, 24)):
        with pytest.raises(LevelError, match=r"outside the window \[12, 24\)"):
            subspace_decompose(ctx, ct, 12, 24, [overlap])
    with pytest.raises(RangeError):
        factorization_search(ctx, ct, pd, 0)
    for p in (1, 4, 6, 9):
        with pytest.raises(RangeError, match=f"got {p}"):
            FieldSpec(p)
    # Not an int: a later pow would raise a bare TypeError, and False would
    # pass for the rationals.
    for p, shown in ((5.0, "5.0"), (F(5), r"Fraction\(5, 1\)"), ("5", "'5'"), (False, "False")):
        with pytest.raises(RangeError, match=f"must be an int, got {shown}$"):
            FieldSpec(p)
    # The library entry points refuse a non-int or a bool the same way, the
    # levels, columns and seed positions of a window or truncation with
    # LevelError and the slope pair of a context with RangeError: a float
    # would raise a bare TypeError later or become a float key, and True
    # would run as 1.  factorize_integer refuses the same way: 2.5 would
    # come back as its own prime factor and True would factor as 1.
    for call, error, name, shown in (
            (lambda: factorization_search(ctx, ct, pd, 2.0), RangeError, "m", "2.0"),
            (lambda: factorization_search(ctx, ct, pd, True), RangeError, "m", "True"),
            (lambda: factorization_search(ctx, ct, pd, 2, branch_budget=2.5), RangeError,
             "branch_budget", "2.5"),
            (lambda: xi_power(ctx, 12.0, 1), LevelError, "l", "12.0"),
            (lambda: xi_power(ctx, 12, F(1)), RangeError, "m", r"Fraction\(1, 1\)"),
            (lambda: cohomology_dims(ctx, ct, pd, 12.0, 24), LevelError, "m", "12.0"),
            (lambda: cohomology_dims(ctx, ct, pd, 0, True), LevelError, "l", "True"),
            (lambda: overlaps_and_gaps(ct, pd, 12.0, 24), LevelError, "m", "12.0"),
            (lambda: overlaps_and_gaps(ct, pd, True, 24), LevelError, "m", "True"),
            (lambda: per_level_chi(ct, 2.5), LevelError, "n", "2.5"),
            (lambda: per_level_chi(ct, True), LevelError, "n", "True"),
            (lambda: x_basis(ctx, 4.0, 0, 1), LevelError, "l", "4.0"),
            (lambda: x_basis(ctx, 4, 1.0, 1), LevelError, "alpha", "1.0"),
            (lambda: x_basis(ctx, 4, 0, F(1)), LevelError, "n", r"Fraction\(1, 1\)"),
            (lambda: AlgebraContext(1.0, 2, FieldSpec(5)), RangeError, "u2", "1.0"),
            (lambda: AlgebraContext(1, True, FieldSpec(5)), RangeError, "u", "True"),
            (lambda: subspace_decompose(ctx, ct, 12, 24, [(10.0, 12)]), LevelError, "alpha",
             "10.0"),
            (lambda: subspace_decompose(ctx, ct, 12, 24, [(10, 12.0)]), LevelError, "n", "12.0"),
            (lambda: subspace_decompose(ctx, ct, 12, 24.0, []), LevelError, "l", "24.0"),
            (lambda: subspace_decompose(ctx, ct, False, 24, []), LevelError, "m", "False"),
            (lambda: d_set(ctx, ct, pd, 1.0, 1), RangeError, "r", "1.0"),
            (lambda: d_set(ctx, ct, pd, 0, True), RangeError, "j", "True"),
            (lambda: SearchBounds(r_max=True), RangeError, "r_max", "True"),
            (lambda: SearchBounds(j_max=2.0), RangeError, "j_max", "2.0"),
            (lambda: SearchBounds(m_max=2.5), RangeError, "m_max", "2.5"),
            (lambda: SearchBounds(branch_budget="5"), RangeError, "branch_budget", "'5'"),
            (lambda: factorize_integer(2.5), RangeError, "n", "2.5"),
            (lambda: factorize_integer(12.0), RangeError, "n", "12.0"),
            (lambda: factorize_integer(True), RangeError, "n", "True")):
        with pytest.raises(error, match=f"^{name} must be an int, got {shown}$"):
            call()
    with pytest.raises(ContextError, match=r"\(2, 4\)"):    # no reduced slope
        AlgebraContext(2, 4, RATIONALS)
    with pytest.raises(LevelError, match="got 0"):
        AlgebraElement(ctx, 0, {})


def test_d_set_warns_on_divisible_j():
    ctx, ct, pd = worked(5)
    with pytest.warns(UserWarning):
        d_set(ctx, ct, pd, 0, 5)


def test_window_sweep_builds_each_column_once(monkeypatch):
    # One sweep walks its levels upwards through one cursor: each alpha mod u
    # is started at most once, at the delta it is first asked for, and only
    # ever carried forward after that; each exponent j of (1-x)^j is made
    # once per sweep, whatever the c_i it is scaled by, and only as long as
    # the sweep's reach: max(max_pb_col(n) - n over the window, alpha - n
    # over the seeds) - deep, well short of l - m.
    starts: dict = {}
    deltas: dict = {}
    made: list = []
    exponents: list = []
    lengths: list = []
    start, carry, columns = algebra._z_start, algebra._z_carry, algebra._z_columns
    series, sweep = algebra._series, cohomology.subspace_decompose

    def counting_start(ctx, alpha0, delta, width):
        starts[alpha0] = starts.get(alpha0, 0) + 1
        made.append(("start", delta))
        return start(ctx, alpha0, delta, width)

    def counting_carry(p, state, delta, width):
        made.append(("carry", state[0]))
        return carry(p, state, delta, width)

    def forward_columns(ctx, alpha0, n, width, cursor):
        made.clear()
        state = columns(ctx, alpha0, n, width, cursor)
        assert made in ([], [("start", state[0])], [("carry", deltas.get(alpha0))])
        assert state[0] >= deltas.get(alpha0, 0)
        deltas[alpha0] = state[0]
        return state

    def counting_series(j, l, p):
        exponents.append(j)
        lengths.append(l)
        return series(j, l, p)

    def one_sweep(ctx, ct, m, l, overlaps, policy="A"):
        starts.clear()
        deltas.clear()
        exponents.clear()
        lengths.clear()
        rows = sweep(ctx, ct, m, l, overlaps, policy)
        assert starts and max(starts.values()) == 1
        assert len(exponents) == len(set(exponents))
        depths = [ct.max_pb_col(n) - n for n in range(m, l)]
        reach = max(depths + [a - n for a, n in overlaps]) - min(depths)
        assert 0 < reach < (l - m) // 2
        assert set(lengths) == {reach}
        sweeps.append(len(exponents))
        return rows

    monkeypatch.setattr(algebra, "_z_start", counting_start)
    monkeypatch.setattr(algebra, "_z_carry", counting_carry)
    monkeypatch.setattr(algebra, "_z_columns", forward_columns)
    monkeypatch.setattr(algebra, "_series", counting_series)
    monkeypatch.setattr(cohomology, "subspace_decompose", one_sweep)
    for char, m, l in [(5, 60, 120), (3, 72, 108), (2, 48, 96)]:
        ctx, ct, pd = worked(char)
        for policy in ("A", "B"):
            sweeps: list = []
            rep = cohomology_dims(ctx, ct, pd, m, l, policy=policy)
            assert char != 5 or rep.matrix.rank == 5
            assert len(sweeps) == 1 and sweeps[0] > 0
            assert set(starts) <= set(range(ctx.u))


def test_a_rational_window_is_one_subspace_decompose_call(monkeypatch):
    # With k > 1 overlaps the char-0 sweep runs once per position, all
    # inside one public call, so a wrapper bound where the benchmark tracer
    # binds one, in algebra and in cohomology, counts the window once.
    calls = []
    sweep = algebra.subspace_decompose

    def counting(*args, **kwargs):
        calls.append(args[4])
        return sweep(*args, **kwargs)

    for module in (algebra, cohomology):
        monkeypatch.setattr(module, "subspace_decompose", counting)
    ctx, ct, pd = worked(0)
    rep = cohomology_dims(ctx, ct, pd, 12, 48)
    assert len(rep.matrix.overlaps) == 3
    assert calls == [rep.matrix.overlaps]


def test_d_set_leaves_no_expansions_in_the_context():
    # [36, 72) at p = 3 is a witness window, so d_set runs both sweeps.
    ctx, ct, pd = worked(3)
    assert d_set(ctx, ct, pd, 1, 1).h0 == 3
    assert set(vars(ctx)) == {"u2", "u", "field"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.u = 3


def test_d_set_windows_do_not_accumulate_memory():
    # Four windows in one context peak at about the largest one alone: each
    # sweep drops its z-expansions when it returns, and the context holds
    # no state of its own.
    def traced_peak(js):
        ctx, ct, pd = worked(5)
        tracemalloc.start()
        try:
            for j in js:
                d_set(ctx, ct, pd, 1, j)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(traced_peak([j]) for j in range(1, 5))
    assert traced_peak(range(1, 5)) < 1.1 * alone


# ---------------------------------------------------------------------------
# factorization search


def test_factorization_char2_m2():
    ctx, ct, pd = worked(2)
    out = factorization_search(ctx, ct, pd, 2)
    assert out.success and out.branches_explored == 0
    assert multiply(out.unit_a, out.unit_b) == xi_power(ctx, 4, 2)


def test_factorization_char3_m3():
    ctx, ct, pd = worked(3)
    out = factorization_search(ctx, ct, pd, 3)
    assert out.success
    assert multiply(out.unit_a, out.unit_b) == xi_power(ctx, 6, 3)


def test_factorization_char3_m2_fails_at_first_gap():
    ctx, ct, pd = worked(3)
    out = factorization_search(ctx, ct, pd, 2)
    assert not out.success
    level, residual = out.obstruction
    assert level == 1 and set(residual) == {(1, 1)}


def test_factorization_rational_m1_obstruction():
    ctx, ct, pd = worked(0)
    out = factorization_search(ctx, ct, pd, 1)
    assert not out.success
    level, residual = out.obstruction
    assert level == 1 and residual == {(1, 1): -1}


def test_factorization_multiple_monotonicity():
    # Success at m implies success at its small multiples.
    ctx, ct, pd = worked(2)
    for m in (2, 4, 6):
        assert factorization_search(ctx, ct, pd, m).success
    ctx3, ct3, pd3 = worked(3)
    for m in (3, 6):
        assert factorization_search(ctx3, ct3, pd3, m).success


@st.composite
def frobenius_pairs(draw, cap=150):
    """(width-1 triangle of slope -1/2, -1/3 or -2/3, p, r) with sigma*p^r
    <= cap; both vertical edges are excluded, since x2 = -k/d, 0 < k < d."""
    ubar = draw(st.sampled_from([F(-1, 2), F(-1, 3), F(-2, 3)]))
    d = draw(st.integers(min_value=2, max_value=20))
    k = draw(st.integers(min_value=1, max_value=d - 1))
    assume(math.gcd(k, d) == 1)
    x2 = F(-k, d)
    tri = normalize_triangle([(x2, ubar * x2), (x2 + 1, ubar * (x2 + 1)), (0, 1)])
    p = draw(st.sampled_from([2, 3, 5, 7]))
    sigma = period_data(tri).sigma
    assume(sigma <= cap)
    r_max = 0
    while sigma * p ** (r_max + 1) <= cap:
        r_max += 1
    return tri, p, draw(st.integers(min_value=0, max_value=r_max))


@settings(max_examples=200, deadline=None)
@given(frobenius_pairs())
def test_a4_at_p_to_the_r_implies_sections_in_window_r(case):
    # A cross-engine check: a unit factorization of xi^(p^r) (the search)
    # implies h0 > 0 in the window [sigma*p^r, 2*sigma*p^r) (the sweep and
    # elimination).  The engines share only the z-expansions and the cone
    # tables.  A counterexample is a finding about one of them, not a
    # reason to narrow the strategy.
    tri, p, r = case
    ctx, ct, pd = context_for(tri, FieldSpec(p)), cone_tables(tri), period_data(tri)
    if factorization_search(ctx, ct, pd, p**r).success:
        assert d_set(ctx, ct, pd, r, 1).h0 > 0, (tri.vertices, p, r)


def test_factorization_char5_all_small_m_fail():
    ctx, ct, pd = worked(5)
    for m in range(1, 7):
        assert not factorization_search(ctx, ct, pd, m).success


def test_factorization_branching_and_budget():
    # The unit right triangle has sigma=1, theta=0, so the two cones overlap
    # at column 0 of every level and the search must branch there.
    tri = normalize_triangle([(0, 0), (1, 0), (0, 1)])
    pd = period_data(tri)
    ct = cone_tables(tri)
    for char in (0, 3):
        ctx = context_for(tri, FieldSpec(char))
        out = factorization_search(ctx, ct, pd, 4)
        assert out.success and out.branches_explored > 0
    ctx = context_for(tri, FieldSpec(3))
    with pytest.raises(BudgetExceeded):
        factorization_search(ctx, ct, pd, 4, branch_budget=1)


def test_factorization_backtracking_starts_each_expansion_at_its_delta(monkeypatch):
    # At p = 7 the m = 14 search on this slope -1/2 triangle branches and
    # backs out of deeper levels.  The search holds no cursor: every
    # z-expansion it reads is one start from the closed form at its own
    # delta, never a carry, and never at 0 with a carry up from there.
    tri = normalize_triangle([(F(-1, 5), F(1, 10)), (F(4, 5), F(-2, 5)), (0, 1)])
    made: list = []
    read: list = []
    start, carry, columns = algebra._z_start, algebra._z_carry, algebra._z_columns

    def counting_start(ctx, alpha0, delta, width):
        made.append(("start", delta))
        return start(ctx, alpha0, delta, width)

    def counting_carry(p, state, delta, width):
        made.append(("carry", state[0]))
        return carry(p, state, delta, width)

    def recording_columns(ctx, alpha0, n, width, cursor):
        assert cursor == {}
        made.clear()
        state = columns(ctx, alpha0, n, width, cursor)
        delta = ctx.ceil_slope(alpha0 - n) - ctx.ceil_slope(alpha0)
        assert state[0] == delta and made == [("start", delta)]
        read.append((alpha0, n, state, repr(state)))
        return state

    monkeypatch.setattr(algebra, "_z_start", counting_start)
    monkeypatch.setattr(algebra, "_z_carry", counting_carry)
    monkeypatch.setattr(algebra, "_z_columns", recording_columns)
    ctx = context_for(tri, FieldSpec(7))
    out = factorization_search(ctx, cone_tables(tri), period_data(tri), 14)
    assert out.branches_explored == 7
    # Every state read is the one the fold from delta = 0 gives, and no
    # later start changed it.
    levels: dict = {}
    for alpha0, n, state, before in read:
        delta, c, e, _, cols = state
        assert repr(state) == before
        assert fold_z_state(ctx, alpha0, delta, len(e))[4] == cols
        levels.setdefault((alpha0, n), []).append(cols)
    # A level read again after a backtrack is started again, at its own
    # delta above 0, and reads the same columns.
    again = [(a0, n) for (a0, n), seen in levels.items() if len(seen) > 1]
    assert again and all(ctx.ceil_slope(a0 - n) > ctx.ceil_slope(a0) for a0, n in again)
    assert all(cols == seen[0] for seen in levels.values() for cols in seen)


def test_factorization_residual_stays_integral_over_q(monkeypatch):
    # xi^m and every z-expansion are integral and each chart unit has
    # constant term 1, and the search only multiplies and subtracts, so in
    # characteristic 0 every product it forms is in exact ints, not integral
    # Fractions: the running product, the units multiplied out and the
    # certificate.
    products: list = []
    product = cohomology.multiply

    def recording_multiply(a, b):
        e = product(a, b)
        products.append({type(c) for row in e.rows.values() for c in row.values()})
        return e

    monkeypatch.setattr(cohomology, "multiply", recording_multiply)
    tri = normalize_triangle([(F(-1, 3), F(2, 9)), (F(2, 3), F(-4, 9)), (0, 1)])
    ctx = context_for(tri, RATIONALS)
    out = factorization_search(ctx, cone_tables(tri), period_data(tri), 4)
    assert out.success and out.level == 12 and out.branches_explored == 0
    assert products and all(types <= {int} for types in products)
    assert multiply(out.unit_a, out.unit_b) == xi_power(ctx, 12, 4)
    for e in (out.unit_a, out.unit_b):
        assert all(type(c) is int for row in e.rows.values() for c in row.values())


def test_factorization_builds_xi_once(monkeypatch):
    # A successful search reduces xi^m and checks its certificate against
    # that same element: one xi_power call, not a second build for the
    # check.
    calls: list = []
    build = cohomology.xi_power
    monkeypatch.setattr(cohomology, "xi_power",
                        lambda ctx, l, m: calls.append((l, m)) or build(ctx, l, m))
    ctx, ct, pd = worked(2)
    out = factorization_search(ctx, ct, pd, 2)
    assert out.success and calls == [(4, 2)]
    assert multiply(out.unit_a, out.unit_b) == build(ctx, 4, 2)


@pytest.mark.parametrize("p, m", [(2, 2), (3, 3), (0, 1), (2, 6), (3, 6)])
def test_factorization_never_divides_by_one(p, m, monkeypatch):
    # The search divides by nothing: it reads each level from xi^m minus a
    # running product.  A chart without terms at a level builds no chart
    # unit, so no product is by 1; at m = 6 the searches meet levels with
    # terms in one chart only.  (The first product into the running product
    # and into each unit multiplied out, which start at 1, stays.)
    assert not hasattr(cohomology, "divide")
    factors: list = []
    product = cohomology.multiply
    monkeypatch.setattr(cohomology, "multiply",
                        lambda a, b: factors.append(b) or product(a, b))
    ctx, ct, pd = worked(p)
    factorization_search(ctx, ct, pd, m)
    unit = one(ctx, m * ctx.u)
    assert all(f != unit for f in factors)


def test_factorization_rejects_a_perturbed_certificate(monkeypatch):
    # The last product a successful search forms is its certificate check,
    # u_a * u_b.  Perturbed by x(0, 3), it no longer equals xi^2 and the
    # search raises instead of reporting the factorization.
    ctx, ct, pd = worked(2)
    product = cohomology.multiply
    calls: list = []
    monkeypatch.setattr(cohomology, "multiply",
                        lambda a, b: calls.append(1) or product(a, b))
    assert factorization_search(ctx, ct, pd, 2).success
    last = len(calls)
    calls.clear()

    def perturbed(a, b):
        calls.append(1)
        out = product(a, b)
        return combine((1, out), (1, x_basis(ctx, 4, 0, 3))) if len(calls) == last else out

    monkeypatch.setattr(cohomology, "multiply", perturbed)
    with pytest.raises(InconsistencyError,
                       match="factorization certificate failed re-verification"):
        factorization_search(ctx, ct, pd, 2)
    assert len(calls) == last


UNIT_RIGHT = [(0, 0), (1, 0), (0, 1)]
SLOPE_2_3 = [(F(-1, 3), F(2, 9)), (F(2, 3), F(-4, 9)), (0, 1)]
SLOPE_1_2 = [(F(-1, 5), F(1, 10)), (F(4, 5), F(-2, 5)), (0, 1)]
# (triangle, p, m, the outcome dict less kind/m/l, the sha256 of the units'
# dumps), as the search gave them when it divided by each chart unit through
# its geometric-series inverse.  The worked example at m = 1..4; the unit
# right triangle, which branches at every level; a char-0 success with
# rational units at level 12; and a char-7 search that backtracks.
SERIES_ROUTE_OUTCOMES = [
    (WORKED, 0, 1, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '-1']]}}, None),
    (WORKED, 0, 2, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '-2']]}}, None),
    (WORKED, 0, 3, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '-3']]}}, None),
    (WORKED, 0, 4, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '-4']]}}, None),
    (WORKED, 2, 1, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '1']]}}, None),
    (WORKED, 2, 2, {'success': True, 'branches_explored': 0},
     'e8783f7c2a63d1e8f6cee736ab4d61ae4b6ffa34589391fb0753c146c461b054'),
    (WORKED, 2, 3, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '1']]}}, None),
    (WORKED, 2, 4, {'success': True, 'branches_explored': 0},
     '0934826fab3b6de9c220edeeee73cb19f3eda8cc1786433d9586c43b47342c65'),
    (WORKED, 3, 1, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '2']]}}, None),
    (WORKED, 3, 2, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '1']]}}, None),
    (WORKED, 3, 3, {'success': True, 'branches_explored': 0},
     'b6767f3e6129598699d2e4741853bf280d92e1a387daa61c2d3bde4ddbc6c972'),
    (WORKED, 3, 4, {'success': False, 'branches_explored': 0,
                    'obstruction': {'level': 1, 'residual': [[1, 1, '2']]}}, None),
    (UNIT_RIGHT, 0, 4, {'success': True, 'branches_explored': 3},
     '6b7cd1a3d88c6d76d6c98c87668a298b9a4d4742ad8dbc1ce7d00c72f2354e89'),
    (UNIT_RIGHT, 3, 4, {'success': True, 'branches_explored': 3},
     '0ad7c32f513419c617d69b679915d9543acf02d8caf614bdf3687d4f5bbbc6f7'),
    (SLOPE_2_3, 0, 4, {'success': True, 'branches_explored': 0},
     '13121209b49b46cdcc356e3640944c31bd678247eba10c4158a7514e3387c6cd'),
    (SLOPE_1_2, 7, 14, {'success': False, 'branches_explored': 7,
                        'obstruction': {'level': 11, 'residual': [[2, 11, '6']]}}, None),
]


# The same for searches past factor-q's largest truncation (l = 28), as the
# search gave them when it subtracted one quotient row per level in each
# division: the worked example at l = 98, 140 and 50, and the unit right
# triangle at l = 300.
LARGE_TRUNCATION_OUTCOMES = [
    (WORKED, 7, 49, {'success': False, 'branches_explored': 7,
                     'obstruction': {'level': 61, 'residual': [[51, 61, '1']]}}, None),
    (WORKED, 7, 70, {'success': False, 'branches_explored': 0,
                     'obstruction': {'level': 8, 'residual': [[7, 8, '2']]}}, None),
    (WORKED, 5, 25, {'success': False, 'branches_explored': 0,
                     'obstruction': {'level': 30, 'residual': [[25, 30, '2']]}}, None),
    (UNIT_RIGHT, 3, 300, {'success': True, 'branches_explored': 11},
     '0b51f61311325c33b27ec2c8846508c223ae2be1fd1904a3ee6085435003ddfd'),
]


def assert_search_outcome(vertices, p, m, expected, units):
    tri = normalize_triangle(vertices)
    out = factorization_search(context_for(tri, FieldSpec(p)), cone_tables(tri),
                               period_data(tri), m)
    assert out.to_dict() == {"kind": "A4", "m": m, "l": m * tri.u, **expected}
    dumps = (f"{algebra.dump_element(out.unit_a)}\n--\n"
             f"{algebra.dump_element(out.unit_b)}") if out.success else None
    assert (dumps and hashlib.sha256(dumps.encode()).hexdigest()) == units


def test_factorization_divides_without_a_series_inverse(monkeypatch):
    # The search reads each level from xi^m minus a running product of the
    # chart units and never inverts one; its outcomes and units are those of
    # the series route.
    def refuse(e):
        raise AssertionError("the factorization search inverted a unit")

    for module in (algebra, cohomology):
        monkeypatch.setattr(module, "invert_unit", refuse, raising=False)
    for case in SERIES_ROUTE_OUTCOMES:
        assert_search_outcome(*case)


@pytest.mark.parametrize("vertices, p, m, expected, units", LARGE_TRUNCATION_OUTCOMES)
def test_large_truncation_searches_match_their_golden_outcomes(vertices, p, m, expected, units):
    assert_search_outcome(vertices, p, m, expected, units)


def search_result(search, ctx, ct, pd, m):
    """The outcome dict and both units' dumps, or the error a search raised."""
    try:
        out = search(ctx, ct, pd, m, branch_budget=200)
    except (BudgetExceeded, ClaimViolation) as err:
        return type(err), str(err)
    units = out.success and (algebra.dump_element(out.unit_a), algebra.dump_element(out.unit_b))
    return out.to_dict(), units


@st.composite
def width_one_searches(draw):
    """(width-1 triangle, char, m <= 6); x2 = 0 or -1 gives a vertical edge."""
    u = draw(st.integers(min_value=1, max_value=5))
    u2 = draw(st.integers(min_value=0, max_value=u))
    if math.gcd(u2, u) != 1:
        u, u2 = 1, 0
    ubar = F(-u2, u)
    x2 = -draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    tri = normalize_triangle([(x2, ubar * x2), (x2 + 1, ubar * (x2 + 1)), (0, 1)])
    return tri, draw(st.sampled_from([0, 2, 3, 5, 7])), draw(st.integers(min_value=1, max_value=6))


@settings(max_examples=100, deadline=None)
@given(width_one_searches())
def test_factorization_matches_the_dividing_search(case):
    # Reading level n + 1 as xi^m - P from the running product P = u_a * u_b
    # gives the same walk as carrying the residual xi^m / P and dividing it
    # by every chart unit: the same outcome, obstruction and branch count,
    # the same units, and the same raise.
    tri, p, m = case
    args = (context_for(tri, FieldSpec(p)), cone_tables(tri), period_data(tri), m)
    assert (search_result(factorization_search, *args)
            == search_result(divided_factorization_search, *args))


def test_factorization_fails_low_as_the_dividing_search_does():
    # The worked example at char 7, m = 70 (truncation level 140) is
    # obstructed at level 8 with no split (LARGE_TRUNCATION_OUTCOMES).  The
    # dividing search divides the dense xi^70 over all 140 levels at each
    # level it takes; the running product holds only the units taken.  Both
    # give the same failure.
    args = (*worked(7), 70)
    assert search_result(factorization_search, *args) == search_result(
        divided_factorization_search, *args)


def a4_certificate_holds(ctx, ct, m, u_a, u_b):
    """u_a * u_b = xi^m in the Laurent model against the product route to
    xi^m, u_b - 1 in the second chart's z-span by the per-position
    reduction, and every term of u_a but its constant in the first cone."""
    l = u_a.level
    cert = decompose_element(combine((1, u_b), (-1, one(ctx, l))), 0, ct, policy="B")
    return (laurent_multiply(u_a, u_b) == product_xi_power(ctx, l, m)
            and not cert.a_part and not cert.gap_residual
            and all(pa_member(ct, a, n) for a, n in u_a.support() if (a, n) != (0, 0)))


@pytest.mark.parametrize("vertices, p, m", [
    (WORKED, 2, 2), (WORKED, 3, 3), (UNIT_RIGHT, 3, 4), (SLOPE_2_3, 0, 4)])
def test_a4_units_pass_an_independent_check(vertices, p, m):
    # The search checks u_a * u_b with the product rule its running product
    # runs, against the closed-form xi^m.  Here the product is formed in the
    # Laurent model, xi^m by the product route, and chart membership is
    # decided position by position.  Bumping one term of u_a must fail it.
    tri = normalize_triangle(vertices)
    ctx, ct = context_for(tri, FieldSpec(p)), cone_tables(tri)
    out = factorization_search(ctx, ct, period_data(tri), m)
    assert out.success
    assert a4_certificate_holds(ctx, ct, m, out.unit_a, out.unit_b)
    a, n = out.unit_a.support()[-1]
    bumped = combine((1, out.unit_a), (1, x_basis(ctx, out.level, a, n)))
    assert not a4_certificate_holds(ctx, ct, m, bumped, out.unit_b)


def test_factorization_depth_is_not_capped_by_the_recursion_limit():
    # The search walks its levels in one loop, so a deep search needs no
    # stack frame per level: the unit right triangle (u = 1) at m = 300
    # walks 300 levels under a recursion limit 100 frames above this one.
    tri = normalize_triangle(UNIT_RIGHT)
    ctx = context_for(tri, FieldSpec(3))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        out = factorization_search(ctx, cone_tables(tri), period_data(tri), 300)
    finally:
        sys.setrecursionlimit(limit)
    assert out.success and out.level == 300 and out.branches_explored == 11


@pytest.mark.parametrize("vertices, p, m, branches", [
    (UNIT_RIGHT, 3, 4, 3),
    (SLOPE_1_2, 7, 14, 7),
])
def test_factorization_budget_boundary(vertices, p, m, branches):
    # A branch is counted when its split is taken: a budget of exactly the
    # branches a search explores gives the same outcome, one less raises.
    tri = normalize_triangle(vertices)
    ctx, ct, pd = context_for(tri, FieldSpec(p)), cone_tables(tri), period_data(tri)
    out = factorization_search(ctx, ct, pd, m)
    assert out.branches_explored == branches
    exact = factorization_search(ctx, ct, pd, m, branch_budget=branches)
    assert exact.to_dict() == out.to_dict()
    assert (exact.unit_a, exact.unit_b) == (out.unit_a, out.unit_b)
    with pytest.raises(BudgetExceeded) as err:
        factorization_search(ctx, ct, pd, m, branch_budget=branches - 1)
    assert str(err.value) == (
        f"factorization search for m={m} exceeded {branches - 1} branches")


def test_no_branching_below_the_period():
    # Inside level m*u <= sigma no overlap can occur, so the searched paths
    # never split for the acceptance-range instances.
    for char, m in [(2, 2), (3, 3), (2, 6), (3, 6)]:
        ctx, ct, pd = worked(char)
        out = factorization_search(ctx, ct, pd, m)
        assert out.branches_explored == 0


def test_factorization_outcome_dict():
    ctx, ct, pd = worked(0)
    d = factorization_search(ctx, ct, pd, 1).to_dict()
    assert d["kind"] == "A4" and d["success"] is False
    assert d["obstruction"]["level"] == 1


@pytest.mark.parametrize("vertices, message", [
    ([(F(-1, 2), F(1, 4)), (0, 0), (0, 1)], "overlap at (1, 1) off the (2, 4) lattice"),
    ([(0, 0), (F(1, 2), F(-1, 4)), (0, 1)], "overlap at (0, 1) off the (0, 4) lattice"),
])
def test_factorization_raises_on_an_overlap_off_the_lattice(vertices, message):
    # Two width-1/2 triangles, outside the width-1 overlap law: the m = 1
    # char-0 search meets the cones in a column off the lattice and raises.
    tri = normalize_triangle(vertices)
    with pytest.raises(ClaimViolation) as err:
        factorization_search(context_for(tri, RATIONALS), cone_tables(tri),
                             period_data(tri), 1)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# characteristic-0 criterion agreement


def test_factorization_witness_forces_sections():
    # A successful factorization at m = j*p^r transfers to nonzero degree-0
    # cohomology on the corresponding window: char 2, m=2 = 2^1 -> r=1;
    # char 3, m=3 = 3^1 -> r=1.
    for p, m in [(2, 2), (3, 3)]:
        ctx, ct, pd = worked(p)
        assert factorization_search(ctx, ct, pd, m).success
        rep = cohomology_dims(ctx, ct, pd, pd.sigma * p, 2 * pd.sigma * p)
        assert rep.h0 > 0


def test_overlap_lattice_exhaustive_window():
    # No stray two-cone intersection below level 10*sigma; the enumeration
    # itself verifies the lattice law columnwise.
    tri = normalize_triangle(WORKED)
    pd = period_data(tri)
    ct = cone_tables(tri)
    from reeslab.geometry import overlaps_and_gaps

    overlaps, _ = overlaps_and_gaps(ct, pd, 0, 10 * pd.sigma)
    assert overlaps == [(10 * k, 12 * k) for k in range(10)]


# ---------------------------------------------------------------------------
# the window sweep against the per-row decomposition


def oracle_rows(tri, char, m, l, overlaps, policy):
    """Gap residual of z - x at each overlap, one per-element decomposition
    per row, in a fresh context so that no expansion cache is shared."""
    ctx, ct = context_for(tri, FieldSpec(char)), cone_tables(tri)
    return [decompose_element(combine((1, AlgebraElement(ctx, l, _z_rows_base(ctx, l, a, n))),
                                      (-1, x_basis(ctx, l, a, n))),
                              m, ct, policy=policy).gap_residual
            for a, n in overlaps]


@st.composite
def width_one_windows(draw):
    ubar = draw(st.sampled_from([F(-1, 2), F(-1, 3), F(-2, 3)]))
    d = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=d - 1))
    assume(math.gcd(k, d) == 1)
    x2 = F(-k, d)
    try:
        tri = normalize_triangle([(x2, ubar * x2), (x2 + 1, ubar * (x2 + 1)), (0, 1)])
    except SlopeError:
        assume(False)
    sigma = period_data(tri).sigma
    m = draw(st.integers(min_value=0, max_value=2 * sigma))
    return tri, m, m + draw(st.integers(min_value=1, max_value=2 * sigma))


@pytest.mark.parametrize("policy", ["A", "B"])
@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@settings(max_examples=12, deadline=None)
@given(window=width_one_windows())
def test_window_sweep_matches_per_row_decomposition(char, policy, window):
    tri, m, l = window
    rep = cohomology_dims(context_for(tri, FieldSpec(char)), cone_tables(tri),
                          period_data(tri), m, l, policy=policy)
    want = oracle_rows(tri, char, m, l, rep.matrix.overlaps, policy)
    # Same entries in the same (level, column) order.
    assert [list(r.items()) for r in rep.matrix.rows] == [list(r.items()) for r in want]


@pytest.mark.parametrize("policy", ["A", "B"])
@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@settings(max_examples=8, deadline=None)
@given(window=width_one_windows(), data=st.data())
def test_window_sweep_takes_a_seed_anywhere(char, policy, window, data):
    # subspace_decompose takes any position as a seed, not only an overlap.
    # One seed at each column of a level's strip: the deep and the non-deep
    # second cone, any overlap, the gaps, and three columns into the first
    # cone.  A first-cone seed reaches further down its series than any
    # second-cone visit, so this checks the sweep's series length too.
    tri, m, l = window
    ct = cone_tables(tri)
    overlaps, _ = overlaps_and_gaps(ct, period_data(tri), m, l)
    n = data.draw(st.sampled_from(sorted({m, l - 1} | {k for _, k in overlaps})))
    seeds = [(a, n) for a in range(max(ct.min_pa_col(n), ct.max_pb_col(n) + 1) + 3)]
    rows = subspace_decompose(context_for(tri, FieldSpec(char)), ct, m, l, seeds, policy).rows
    want = oracle_rows(tri, char, m, l, seeds, policy)
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in want]


@pytest.mark.parametrize("policy", ["A", "B"])
def test_window_sweep_at_a_large_prime(policy, monkeypatch):
    # Slots of about 60 bits, several rows per window.  Every unreduced slot
    # value the sweep reads stays within the bound its slot width is made for.
    p = 1_000_003
    tri = normalize_triangle(WORKED)
    ctx, ct, pd = context_for(tri, FieldSpec(p)), cone_tables(tri), period_data(tri)
    read, masks = [], set()
    slots = algebra._slots

    def recording_slots(v, offsets, mask):
        out = slots(v, offsets, mask)
        read.extend(out)
        masks.add(mask)
        return out

    monkeypatch.setattr(algebra, "_slots", recording_slots)
    rep = cohomology_dims(ctx, ct, pd, 12, 60, policy=policy)
    assert len(rep.matrix.overlaps) == 4
    assert rep.matrix.rows == oracle_rows(tri, p, 12, 60, rep.matrix.overlaps, policy)
    assert any(c > 2**16 for row in rep.matrix.rows for c in row.values())
    # Only second-cone positions above the deep band, with a nonnegative
    # column, are ever visited.
    deep = min(ct.max_pb_col(k) - k for k in range(12, 60))
    visits = sum(max(0, ct.max_pb_col(n) - max(0, n + deep + 1) + 1) for n in range(12, 60))
    assert visits < (60 * 61 - 12 * 13) // 2
    assert max(read) > 2 * p**2
    assert max(read) <= p - 1 + visits * (p - 1) ** 2
    assert masks == {(1 << (p - 1 + visits * (p - 1) ** 2).bit_length()) - 1}


def width_one_triangles(max_denominator):
    """Every normalized width-1 triangle with bottom slope -1/2, -1/3 or
    -2/3 and left vertex x2 = -k/d, d <= max_denominator."""
    for ubar in (F(-1, 2), F(-1, 3), F(-2, 3)):
        for d in range(2, max_denominator + 1):
            for k in range(1, d):
                if math.gcd(k, d) == 1:
                    x2 = F(-k, d)
                    yield normalize_triangle(
                        [(x2, ubar * x2), (x2 + 1, ubar * (x2 + 1)), (0, 1)])


def test_integral_r0_windows_reduce_to_every_prime():
    # z and xi have integer coefficients and the char-0 sweep never
    # divides, so the obstruction rows of an r = 0 window [sigma*j,
    # sigma*(j+1)) are integral, and reduced mod p they are the char-p rows
    # of the same window; a rank can only drop mod p.  93 triangles, 3
    # windows, 5 primes.
    cases = 0
    for tri in width_one_triangles(10):
        ct, pd = cone_tables(tri), period_data(tri)
        for j in (1, 2, 3):
            m, l = pd.sigma * j, pd.sigma * (j + 1)
            rep0 = cohomology_dims(context_for(tri, RATIONALS), ct, pd, m, l)
            assert all(F(c).denominator == 1 for row in rep0.matrix.rows for c in row.values())
            for p in (2, 3, 5, 7, 11):
                rep = cohomology_dims(context_for(tri, FieldSpec(p)), ct, pd, m, l)
                reduced = [{pos: int(c) % p for pos, c in row.items() if int(c) % p}
                           for row in rep0.matrix.rows]
                assert rep.matrix.rows == reduced, (tri, j, p)
                assert rep.matrix.rank <= rep0.matrix.rank
                cases += 1
    assert cases == 1395


def window_digest(rep):
    """sha256 prefix of a window's h0, h1, pivot gaps and obstruction rows."""
    body = json.dumps([rep.m, rep.l, rep.h0, rep.h1,
                       [list(g) for g in rep.matrix.pivot_gaps],
                       [[[a, n, c] for (a, n), c in row.items()] for row in rep.matrix.rows]],
                      separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


# (p, r, j) -> (h0, h1, policy-A digest, policy-B digest), recorded before
# the sweep dropped its deep second-cone entries.
GOLDEN_WINDOWS = {
    (3, 1, 1): (3, 9, "cae465e8650c8cc5", "cae465e8650c8cc5"),
    (3, 1, 2): (3, 9, "3acc844c726dba73", "3acc844c726dba73"),
    (7, 1, 1): (0, 14, "828acbe25b8631df", "7f31c048c2840d35"),
    (7, 1, 2): (0, 14, "a6891ed681659b3d", "b9a3f32b1f12b96b"),
    (2, 4, 1): (16, 48, "3429f8ebed1f382d", "3429f8ebed1f382d"),
    (2, 4, 2): (16, 48, "696b8fae6bc30b09", "696b8fae6bc30b09"),
    (5, 2, 1): (0, 50, "a201b765057feb04", "df34aaa9965a5ba2"),
}


@pytest.mark.parametrize("p, r, j", sorted(GOLDEN_WINDOWS))
def test_witness_windows_match_their_golden_digests(p, r, j):
    # Obstruction rows, h0, h1 and pivot gaps of the windows
    # [sigma*j*p^r, sigma*(j+1)*p^r), under policy A and policy B.
    h0, h1, digest_a, digest_b = GOLDEN_WINDOWS[p, r, j]
    ctx, ct, pd = worked(p)
    m, l = pd.sigma * j * p**r, pd.sigma * (j + 1) * p**r
    for policy, digest in (("A", digest_a), ("B", digest_b)):
        rep = cohomology_dims(ctx, ct, pd, m, l, policy=policy)
        assert (rep.h0, rep.h1) == (h0, h1)
        assert window_digest(rep) == digest, policy


def test_a_far_window_matches_its_golden_digest():
    # Far from level 0 each threshold read is located afresh: the char-5
    # window [1 200 000, 1 200 024), under policy A and policy B, digests
    # recorded while the thresholds were still memoized modulo their period.
    ctx, ct, pd = worked(5)
    for policy in ("A", "B"):
        rep = cohomology_dims(ctx, ct, pd, 1_200_000, 1_200_024, policy=policy)
        assert (rep.h0, rep.h1) == (1, 5)
        assert window_digest(rep) == "67b2b9c04b8956e1", policy


def test_family_result_answers_gap_residual():
    ctx, ct, pd = worked(5)
    rep = cohomology_dims(ctx, ct, pd, 12, 36)
    gaps = subspace_decompose(ctx, ct, 12, 36, rep.matrix.overlaps)
    assert isinstance(gaps, OverlapGaps)
    assert gaps.rows == rep.matrix.rows
    assert gaps.gap_residual == {(i, a, n): c for i, row in enumerate(rep.matrix.rows)
                                 for (a, n), c in row.items()}


@pytest.mark.parametrize("m, l", [(12, 12), (24, 12)])
def test_window_sweep_rejects_an_empty_window(m, l):
    ctx, ct, _ = worked(5)
    with pytest.raises(LevelError, match="need 0 <= m < l"):
        subspace_decompose(ctx, ct, m, l, [])


def test_window_sweep_rejects_a_negative_column():
    ctx, ct, _ = worked(5)
    with pytest.raises(InconsistencyError, match="column -"):
        subspace_decompose(ctx, ct, 12, 24, [(-5, 12)])


def b2_check(tri):
    # decide returns the column count's verdict and raises TheoremViolation
    # when the m = 1 unit factorization disagrees with it.
    return decide(tri, RATIONALS).finitely_generated


def test_b2_matches_emu_on_interior_family():
    expected = {
        F(9, 4): False, F(13, 6): False, F(7, 3): True, F(12, 5): True,
        F(5, 2): True, F(8, 3): True, F(11, 4): False,
    }
    for g, want in expected.items():
        assert b2_check(family_triangle(g)) is want, f"g={g}"


def test_b2_u1_triangle():
    assert b2_check(normalize_triangle([(0, 0), (1, 0), (0, 1)]))


def test_b2_vertical_edge_degeneration():
    # With a vertical outer edge one chart absorbs every residual, so the
    # factorization succeeds regardless of the column-count criterion: at the
    # g=3 endpoint the two criteria genuinely disagree and the runtime check
    # must say so.
    assert b2_check(family_triangle(2)) is True
    with pytest.raises(TheoremViolation):
        b2_check(family_triangle(3))
