"""Tests for the truncated section algebra."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeslab import algebra
from reeslab.algebra import (
    AlgebraContext,
    AlgebraElement,
    _series,
    _z_rows_base,
    context_for,
    divide,
    dump_element,
    invert_unit,
    multiply,
    one,
    x_basis,
    xi_power,
)
from reeslab.errors import ContextMismatch, InconsistencyError, LevelError, NotAUnit
from reeslab.fields import RATIONALS, FieldSpec
from reeslab.geometry import cone_tables, normalize_triangle

from oracles import (
    canonicalize_from_laurent,
    combine,
    decompose_element,
    element_power,
    field_coeff,
    laurent_multiply,
    column_w_element,
    fold_z_state,
    product_xi_power,
    product_z_element,
    series_inverse,
    to_laurent,
    w_element,
)

WORKED = [(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1)]

CTX_Q = AlgebraContext(1, 2, RATIONALS)          # slope -1/2 over the rationals
CTX_F2 = AlgebraContext(1, 2, FieldSpec(2))
CTX_F3 = AlgebraContext(1, 2, FieldSpec(3))
CTX_F5 = AlgebraContext(1, 2, FieldSpec(5))
CTX_STEEP_Q = AlgebraContext(1, 1, RATIONALS)    # slope -1 edge case
CTX_FLAT_Q = AlgebraContext(0, 1, RATIONALS)     # slope 0


def elem(ctx, l, terms):
    return combine((1, AlgebraElement(ctx, l, {})),
                   *[(field_coeff(ctx.field, c), x_basis(ctx, l, a, n))
                     for (a, n), c in terms.items()])


def _fresh_z(ctx, l, alpha, n):
    """z(alpha, n) through _z_rows_base, started from the closed form."""
    return AlgebraElement(ctx, l, _z_rows_base(ctx, l, alpha, n))


def random_element(ctx, l, rng, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = rng.randint(-5, 8)
        n = rng.randint(0, l - 1)
        c = rng.randint(-4, 4)
        if c:
            terms[(a, n)] = terms.get((a, n), 0) + c
    return elem(ctx, l, {k: v for k, v in terms.items() if v})


# ---------------------------------------------------------------------------
# basis elements


def test_x_basis_identity_and_generators():
    e = x_basis(CTX_Q, 4, 0, 0)
    assert e.support() == [(0, 0)]
    assert multiply(e, e) == e
    x = x_basis(CTX_Q, 4, 0, 1)
    vx = x_basis(CTX_Q, 4, 1, 1)
    assert x.support() == [(0, 1)] and vx.support() == [(1, 1)]


def test_x_basis_level_bounds():
    with pytest.raises(LevelError):
        x_basis(CTX_Q, 4, 0, 4)
    with pytest.raises(LevelError):
        x_basis(CTX_Q, 4, 0, -1)


@pytest.mark.parametrize("field", [FieldSpec(5), RATIONALS])
def test_field_inverse_of_zero_is_a_zero_division(field):
    # The message is FieldSpec's own: without its check, pow would raise a
    # ValueError in characteristic p and Fraction its own message over Q.
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        field.inv(0)


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        multiply(x_basis(CTX_Q, 4, 0, 0), x_basis(CTX_Q, 5, 0, 0))
    with pytest.raises(ContextMismatch):
        multiply(x_basis(CTX_Q, 4, 0, 0), x_basis(CTX_F2, 4, 0, 0))


def test_equal_contexts_are_interchangeable():
    # Contexts are values: two built separately are equal and hash equal,
    # and their elements compare equal and multiply together.  An element
    # holds a mutable dict of rows, so it is not hashable.
    ctx = AlgebraContext(1, 2, FieldSpec(3))
    assert ctx == CTX_F3 and ctx is not CTX_F3 and hash(ctx) == hash(CTX_F3)
    vx = x_basis(ctx, 4, 1, 1)
    assert vx == x_basis(CTX_F3, 4, 1, 1)
    assert AlgebraElement.__hash__ is None
    assert multiply(vx, x_basis(CTX_F3, 4, 1, 1)) == multiply(x_basis(CTX_F3, 4, 1, 1), vx)


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_by_x_shifts_levels():
    x = x_basis(CTX_Q, 6, 0, 1)
    for a, n in [(3, 2), (-2, 0), (7, 4)]:
        assert multiply(x, x_basis(CTX_Q, 6, a, n)) == x_basis(CTX_Q, 6, a, n + 1)
    assert not multiply(x, x_basis(CTX_Q, 6, 1, 5)).rows


def test_multiply_even_column_rule():
    # x(a,n) x(a',n') = x(a+a', n+n') whenever a or a' is even.
    l = 9
    for a1 in range(-10, 11, 2):
        for a2 in range(-9, 10):
            got = multiply(x_basis(CTX_Q, l, a1, 1), x_basis(CTX_Q, l, a2, 2))
            assert got == x_basis(CTX_Q, l, a1 + a2, 3)


def test_multiply_odd_odd_worked_case():
    # vx * vx picks up one w factor: x(2,2)*w = x(2,2) - x(2,3) + x(3,3).
    got = multiply(x_basis(CTX_Q, 5, 1, 1), x_basis(CTX_Q, 5, 1, 1))
    assert got == elem(CTX_Q, 5, {(2, 2): 1, (2, 3): -1, (3, 3): 1})
    assert got == laurent_multiply(x_basis(CTX_Q, 5, 1, 1), x_basis(CTX_Q, 5, 1, 1))


def test_multiply_agrees_with_laurent_oracle():
    rng = random.Random(20240811)
    for ctx in (CTX_Q, CTX_F5, CTX_STEEP_Q, CTX_FLAT_Q, AlgebraContext(2, 3, RATIONALS)):
        for _ in range(8):
            l = rng.randint(2, 7)
            e1 = random_element(ctx, l, rng)
            e2 = random_element(ctx, l, rng)
            assert multiply(e1, e2) == laurent_multiply(e1, e2)


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(20):
        ctx = rng.choice([CTX_Q, CTX_F3, AlgebraContext(2, 3, FieldSpec(5))])
        l = rng.randint(2, 8)
        e1, e2, e3 = (random_element(ctx, l, rng) for _ in range(3))
        assert multiply(e1, e2) == multiply(e2, e1)
        assert multiply(multiply(e1, e2), e3) == multiply(e1, multiply(e2, e3))
        assert multiply(e1, combine((1, e2), (1, e3))) == combine((1, multiply(e1, e2)),
                                                                  (1, multiply(e1, e3)))
        assert multiply(one(ctx, l), e1) == e1


def test_top_level_product_collapse():
    # The level-(sum) component of a product of basis elements is the single
    # basis element at the componentwise sum.
    rng = random.Random(11)
    for _ in range(10):
        ctx = rng.choice([CTX_Q, CTX_STEEP_Q])
        parts = [(rng.randint(-4, 5), rng.randint(0, 2)) for _ in range(3)]
        total_n = sum(n for _, n in parts)
        total_a = sum(a for a, _ in parts)
        l = total_n + 1
        prod = one(ctx, l)
        for a, n in parts:
            prod = multiply(prod, x_basis(ctx, l, a, n))
        assert prod.rows.get(total_n) == {total_a: 1}


# ---------------------------------------------------------------------------
# Laurent canonicalization


def test_canonicalize_round_trip():
    for alpha in range(-20, 21):
        for n in range(8):
            e = x_basis(CTX_Q, 8, alpha, n)
            assert canonicalize_from_laurent(CTX_Q, 8, to_laurent(e)) == e
    for ctx in (CTX_STEEP_Q, CTX_FLAT_Q, AlgebraContext(3, 4, RATIONALS)):
        for alpha in range(-20, 21, 3):
            for n in range(0, 8, 2):
                e = x_basis(ctx, 8, alpha, n)
                assert canonicalize_from_laurent(ctx, 8, to_laurent(e)) == e


def test_canonicalize_w():
    # 1 - x + vx canonicalizes to x(0,0) - x(0,1) + x(1,1) for slope in (-1, 0].
    laurent = {0: {0: 1}, 1: {0: -1, 1: 1}}
    for ctx in (CTX_Q, CTX_FLAT_Q, AlgebraContext(1, 3, RATIONALS)):
        got = canonicalize_from_laurent(ctx, 4, laurent)
        assert got == elem(ctx, 4, {(0, 0): 1, (0, 1): -1, (1, 1): 1})
        assert got == w_element(ctx, 4)


def test_canonicalize_char2_unit_square():
    # (1-x)^4 (1-x+vx)^-2 at level 4 equals 1 + x(0,2) - (x(1,1))^2 in char 2.
    lhs = xi_power(CTX_F2, 4, 2)
    vx = x_basis(CTX_F2, 4, 1, 1)
    rhs = combine((1, one(CTX_F2, 4)), (1, x_basis(CTX_F2, 4, 0, 2)), (-1, multiply(vx, vx)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# z basis


def test_z_identity():
    assert _fresh_z(CTX_Q, 5, 0, 0) == one(CTX_Q, 5)


def test_z_minus_x_is_higher_level():
    for ctx in (CTX_Q, CTX_F5, CTX_STEEP_Q, AlgebraContext(2, 5, RATIONALS)):
        for alpha in range(-6, 7):
            for n in range(0, 6):
                diff = combine((1, _fresh_z(ctx, 7, alpha, n)), (-1, x_basis(ctx, 7, alpha, n)))
                assert all(k > n for k in diff.rows)


def test_z_via_transition_unit():
    # z(10,12) = x(10,12) * xi^-6 in the worked-example context.
    l = 20
    lhs = _fresh_z(CTX_Q, l, 10, 12)
    rhs = multiply(x_basis(CTX_Q, l, 10, 12), xi_power(CTX_Q, l, -6))
    assert lhs == rhs


def test_z_parity_product_rule():
    # z(a,n) z(a',n') = z(a+a', n+n') when a-n or a'-n' is even (slope -1/2).
    l = 8
    cases = [((2, 0), (3, 2)), ((1, 1), (5, 2)), ((4, 2), (-1, 3)), ((0, 2), (2, 2))]
    for (a1, n1), (a2, n2) in cases:
        assert (a1 - n1) % 2 == 0 or (a2 - n2) % 2 == 0
        got = multiply(_fresh_z(CTX_Q, l, a1, n1), _fresh_z(CTX_Q, l, a2, n2))
        assert got == _fresh_z(CTX_Q, l, a1 + a2, n1 + n2)


# ---------------------------------------------------------------------------
# units


def test_invert_identity():
    assert invert_unit(one(CTX_Q, 6)) == one(CTX_Q, 6)


def test_invert_one_minus_x():
    for l in (1, 2, 5, 9):
        e = elem(CTX_Q, l, {(0, 0): 1, (0, 1): -1} if l > 1 else {(0, 0): 1})
        assert multiply(e, invert_unit(e)) == one(CTX_Q, l)


def test_invert_w():
    w = w_element(CTX_Q, 6)
    assert multiply(w, invert_unit(w)) == one(CTX_Q, 6)
    assert multiply(invert_unit(w), w) == one(CTX_Q, 6)


def test_invert_rejects_non_units():
    a = elem(CTX_Q, 4, {(0, 0): 1, (1, 2): 3})
    for e in (x_basis(CTX_Q, 4, 0, 1), x_basis(CTX_Q, 4, 2, 0), AlgebraElement(CTX_Q, 4, {}),
              combine((1, one(CTX_Q, 4)), (1, x_basis(CTX_Q, 4, 1, 0)))):
        with pytest.raises(NotAUnit):
            invert_unit(e)
        with pytest.raises(NotAUnit):
            divide(a, e)
        with pytest.raises(NotAUnit):
            series_inverse(e)
    with pytest.raises(ContextMismatch):
        divide(a, one(CTX_F5, 4))
    with pytest.raises(ContextMismatch):
        divide(a, one(CTX_Q, 5))


DIVIDE_SLOPES = [(0, 1), (1, 2), (1, 3), (2, 3), (5, 6)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIVIDE_SLOPES), st.sampled_from([0, 2, 3, 5, 7]),
       st.integers(min_value=1, max_value=10), st.booleans(), st.data())
def test_divide_matches_the_series_inverse(slope, p, l, z_unit, data):
    # b = k * (1 + f * x(alpha, n)), a single-level unit, or k * (1 + f *
    # z(alpha, n)) with its whole tail: the one-pass quotient a / b times b
    # is a again, and it equals a times the geometric-series inverse of b.
    ctx = AlgebraContext(*slope, FieldSpec(p))
    fld = ctx.field

    def coeff():
        num = data.draw(st.integers(min_value=-6, max_value=6).filter(
            lambda c: (c % p if p else c) != 0))
        den = 1 if p else data.draw(st.integers(min_value=1, max_value=3))
        return field_coeff(fld, F(num, den))

    positions = st.tuples(st.integers(min_value=-4, max_value=8),
                          st.integers(min_value=0, max_value=l - 1))
    a = combine((1, AlgebraElement(ctx, l, {})),
                *[(coeff(), x_basis(ctx, l, alpha, n))
                  for alpha, n in data.draw(st.lists(positions, max_size=6))])
    b = one(ctx, l)
    if l > 1:
        alpha = data.draw(st.integers(min_value=-4, max_value=8))
        n = data.draw(st.integers(min_value=1, max_value=l - 1))
        part = _fresh_z(ctx, l, alpha, n) if z_unit else x_basis(ctx, l, alpha, n)
        b = combine((1, b), (coeff(), part))
    b = combine((coeff(), b))
    q = divide(a, b)
    assert multiply(q, b) == a
    assert q == multiply(a, series_inverse(b))
    assert invert_unit(b) == series_inverse(b)


def test_char0_inverse_of_a_sign_is_an_int():
    # The one place that picks a char-0 coefficient's type after a division:
    # +-1 inverts to the exact int, anything else to a Fraction.
    for a in (1, -1, F(1), F(-1)):
        got = RATIONALS.inv(a)
        assert type(got) is int and got == a
    assert type(RATIONALS.inv(2)) is F and RATIONALS.inv(2) == F(1, 2)
    assert RATIONALS.inv(F(-2, 3)) == F(-3, 2)
    # one()'s constant is the int 1.
    e = one(CTX_Q, 4)
    assert e.rows == {0: {0: 1}} and type(e.rows[0][0]) is int


def test_divide_by_a_unit_with_constant_two_is_exact():
    # An integral a over b = 2 + 3 x(1, 1): c^-1 = 1/2 makes every entry of
    # the quotient a Fraction, and the quotient is still exact.
    a = AlgebraElement(CTX_Q, 4, {0: {0: 1}, 2: {1: 3}})
    b = AlgebraElement(CTX_Q, 4, {0: {0: 2}, 1: {1: 3}})
    q = divide(a, b)
    assert q.rows[0] == {0: F(1, 2)} and q.rows[1] == {1: F(-3, 4)}
    assert all(type(c) is F for row in q.rows.values() for c in row.values())
    assert multiply(q, b) == a
    assert q == multiply(a, series_inverse(b))


# ---------------------------------------------------------------------------
# transition unit powers


def test_xi_zero_power():
    assert xi_power(CTX_Q, 5, 0) == one(CTX_Q, 5)


def test_xi_power_group_law():
    for a, b in [(1, 1), (2, -1), (-2, 3), (4, -4)]:
        lhs = multiply(xi_power(CTX_Q, 7, a), xi_power(CTX_Q, 7, b))
        assert lhs == xi_power(CTX_Q, 7, a + b)


def test_xi_w_identity():
    # xi^m * w^(m*u2) = (1-x)^(m*u), exactly.
    for ctx in (CTX_Q, AlgebraContext(2, 3, RATIONALS)):
        l = 7
        for m in (1, 2, 3):
            lhs = multiply(xi_power(ctx, l, m), element_power(w_element(ctx, l), m * ctx.u2))
            series = combine((1, one(ctx, l)), (-1, x_basis(ctx, l, 0, 1)))
            assert lhs == element_power(series, m * ctx.u)


@settings(max_examples=60, deadline=None)
@given(
    slope=st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (5, 6)]),
    p=st.sampled_from([0, 2, 3, 5, 7]),
    m=st.integers(min_value=-2, max_value=5),
    extra=st.sampled_from([1, 2, 4, 7, "mu", "mu+3"]),
)
def test_xi_power_matches_the_product_route(slope, p, m, extra):
    # The column form of xi^m at w-exponent -u2*m against the product of a
    # power of the inverse of w and the series of (1-x)^(u*m).
    ctx = AlgebraContext(*slope, FieldSpec(p))
    l = {"mu": m * ctx.u, "mu+3": m * ctx.u + 3}.get(extra, extra)
    if l < 1:
        with pytest.raises(LevelError):
            xi_power(ctx, l, m)
        return
    assert xi_power(ctx, l, m) == product_xi_power(ctx, l, m)


def test_xi_char2_square():
    vx = x_basis(CTX_F2, 4, 1, 1)
    expected = combine((1, one(CTX_F2, 4)), (1, x_basis(CTX_F2, 4, 0, 2)), (-1, multiply(vx, vx)))
    got = xi_power(CTX_F2, 4, 2)
    assert got == expected
    assert len(got.support()) == 5  # support at levels <= 3 only
    assert all(n <= 3 for _, n in got.support())


def test_xi_char3_cube():
    vx = x_basis(CTX_F3, 6, 1, 1)
    expected = combine((1, one(CTX_F3, 6)), (-1, x_basis(CTX_F3, 6, 0, 3)),
                       (-1, element_power(vx, 3)))
    assert xi_power(CTX_F3, 6, 3) == expected


def test_xi_integer_coefficients_over_q():
    for m in (-6, -2, 1, 3, 5):
        e = xi_power(CTX_Q, 9, m)
        for n, row in e.rows.items():
            for c in row.values():
                assert F(c).denominator == 1


def test_z_integer_coefficients_over_q():
    for alpha, n in [(10, 12), (-3, 4), (5, 6), (0, 3)]:
        e = _fresh_z(CTX_Q, 14, alpha, n)
        for _, row in e.rows.items():
            for c in row.values():
                assert F(c).denominator == 1


def _cursor_z(ctx, l, alpha, n, cursor):
    """z(alpha, n) read through a caller-held cursor (algebra._z_columns
    over l - n columns) and spelled out at column alpha: column i holds
    c_i * (1-x)^(h_i - n) from level n + i on."""
    p = ctx.field.characteristic
    rows: dict = {}
    for i, ci, h in algebra._z_columns(ctx, alpha % ctx.u, n, l - n, cursor)[4]:
        if n + i >= l:
            break
        for k, s in enumerate(_series(h - n, l - n - i, p)):
            algebra._radd(rows, n + i + k, alpha + i, ci * s, p)
    return AlgebraElement(ctx, l, rows)


@settings(max_examples=80, deadline=None)
@given(
    slope=st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 5)]),
    char=st.sampled_from([0, 2, 3, 5, 7]),
    l=st.integers(min_value=1, max_value=24),
    order=st.sampled_from(["ascending", "descending", "shuffled"]),
    data=st.data(),
)
def test_z_stepped_expansions_match_fresh_builds(slope, char, l, order, data):
    # In ascending order one cursor, held across the requests, starts,
    # hits or carries forward; in any other order each request is started
    # from the closed form by _z_rows_base.  The product
    # formula shares no code with either.
    u2, u = slope
    field = FieldSpec(char)
    requests = data.draw(st.lists(
        st.tuples(st.integers(min_value=-8, max_value=8),
                  st.integers(min_value=0, max_value=l - 1)),
        min_size=1, max_size=12))
    if order == "shuffled":
        requests = data.draw(st.permutations(requests))
    else:
        requests.sort(key=lambda an: an[1], reverse=order == "descending")
    ctx = AlgebraContext(u2, u, field)
    cursor: dict = {}
    for alpha, n in requests:
        if order == "ascending":
            got = _cursor_z(ctx, l, alpha, n, cursor)
            delta = ctx.ceil_slope(alpha % u - n) - ctx.ceil_slope(alpha % u)
            assert cursor[alpha % u][0] == delta
        else:
            got = _fresh_z(ctx, l, alpha, n)
        assert got == _fresh_z(AlgebraContext(u2, u, field), l, alpha, n)
        assert got == product_z_element(AlgebraContext(u2, u, field), l, alpha, n)


@settings(max_examples=60, deadline=None)
@given(
    slope=st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5)]),
    char=st.sampled_from([0, 2, 3, 5, 7, 11]),
    l=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
def test_z_expansions_match_the_product_formula(slope, char, l, data):
    # The product x(alpha, 0) * w^delta * x^n * (1-x)^-n shares no code with
    # the column form, read here through _z_rows_base, through one cursor
    # in ascending order and as the identity z(alpha0, n) = sum_i c_i *
    # x(alpha0+i, n+i) * (1-x)^(h_i - n) summed through multiply and
    # element_power.  n reaches l - 1, where a state holds a single column.
    u2, u = slope
    field = FieldSpec(char)
    ctx = AlgebraContext(u2, u, field)
    requests = data.draw(st.lists(
        st.tuples(st.integers(min_value=-8, max_value=8),
                  st.integers(min_value=0, max_value=l - 1)),
        min_size=1, max_size=6))
    one_minus_x = combine((1, one(ctx, l)), (-1, x_basis(ctx, l, 0, 1))) if l > 1 else one(ctx, l)
    for alpha, n in requests:
        want = product_z_element(AlgebraContext(u2, u, field), l, alpha, n)
        assert _fresh_z(ctx, l, alpha, n) == want
        alpha0 = alpha % u
        delta, c, _, _, cols = algebra._z_columns(ctx, alpha0, n, l - n, {})
        assert c[0] == 1 and cols[0] == (0, 1, delta)
        got = combine(*[(ci, multiply(x_basis(ctx, l, alpha0 + i, n + i),
                                      element_power(one_minus_x, h - n)))
                        for i, ci, h in cols if n + i < l])
        assert got == product_z_element(ctx, l, alpha0, n)
    cursor: dict = {}
    for alpha, n in sorted(requests, key=lambda an: an[1]):
        want = product_z_element(AlgebraContext(u2, u, field), l, alpha, n)
        assert _cursor_z(ctx, l, alpha, n, cursor) == want


@settings(max_examples=80, deadline=None)
@given(
    slope=st.sampled_from([(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]),
    char=st.sampled_from([0, 2, 3, 5, 7]),
    l=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
def test_z_terms_never_raise_column_minus_level(slope, char, l, data):
    # The lemma behind the window sweep's deep drop: every term (b, k) of
    # z(alpha, n) has b - k <= alpha - n and b >= alpha.
    ctx = AlgebraContext(*slope, FieldSpec(char))
    alpha = data.draw(st.integers(min_value=-10, max_value=40))
    n = data.draw(st.integers(min_value=0, max_value=l - 1))
    for b, k in _fresh_z(ctx, l, alpha, n).support():
        assert b - k <= alpha - n and b >= alpha, (b, k)


@settings(max_examples=120, deadline=None)
@given(
    slope=st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5),
                           (3, 5), (4, 5), (5, 6), (3, 7), (6, 7)]),
    char=st.sampled_from([0, 2, 3, 5, 7, 11]),
    delta=st.one_of(st.integers(min_value=0, max_value=24),
                    st.integers(min_value=0, max_value=350)),
    width=st.integers(min_value=1, max_value=160),
    data=st.data(),
)
def test_z_closed_form_start_matches_the_fold_from_zero(slope, char, delta, width, data):
    # c_i = C(delta + f_(i-1), i) against delta carry passes from c = (1),
    # and Pascal's rule: one carry pass from the closed form at delta is
    # the closed form at delta + 1.  Mod p the two lists of c may end at
    # different zeros; the nonzero columns agree exactly.
    u2, u = slope
    ctx = AlgebraContext(u2, u, FieldSpec(char))
    alpha0 = data.draw(st.integers(min_value=0, max_value=u - 1))
    start = algebra._z_start(ctx, alpha0, delta, width)
    fold = fold_z_state(ctx, alpha0, delta, width)
    assert start[0] == delta and start[2:] == fold[2:]
    c = start[1]
    assert c[0] == 1
    assert all(0 <= ci < char for ci in c) if char else all(c)
    assert c == fold[1][:len(c)] and not any(fold[1][len(c):])
    step = algebra._z_carry(char, start, delta + 1, width)
    assert step[0] == delta + 1
    assert step[4] == algebra._z_start(ctx, alpha0, delta + 1, width)[4]
    assert step[4] == fold_z_state(ctx, alpha0, delta + 1, width)[4]


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("slope", [(1, 2), (2, 3), (2, 5)])
def test_z_cursor_hits_steps_and_rebuilds(monkeypatch, slope, char):
    # A fixed request order through one cursor takes every path of the
    # lookup: a first start, a hit at the same w-exponent delta and carries
    # forward.  The start is at the requested delta, never at 0 with a carry
    # up from there.  A column shifted by a multiple of u reads the same
    # state.  The cursor only walks forward: a request for a lower delta, or
    # for a wider state at the same delta, raises and leaves the cursor as
    # it was.
    u2, u = slope
    field = FieldSpec(char)
    l = 16
    made = []
    start, carry = algebra._z_start, algebra._z_carry
    monkeypatch.setattr(algebra, "_z_start",
                        lambda ctx, a0, d, w: made.append(("start", d)) or start(ctx, a0, d, w))
    monkeypatch.setattr(algebra, "_z_carry",
                        lambda p, st, d, w: made.append(("carry", st[0], d)) or carry(p, st, d, w))
    ctx = AlgebraContext(u2, u, field)

    def delta(n):
        return ctx.ceil_slope(1 - n) - ctx.ceil_slope(1)

    # Levels with delta 1, 1, 2, 2 again one level lower (so one column
    # wider), 3, 2, then the top level.
    by_delta = {}
    for n in range(1, l):
        by_delta.setdefault(delta(n), []).append(n)
    two = by_delta[2]
    assert len(two) >= 2
    top = delta(l - 1)
    plan = [(by_delta[1][0], [("start", 1)]), (by_delta[1][0], []),
            (two[-1], [("carry", 1, 2)]), (two[0], None),
            (by_delta[3][0], [("carry", 2, 3)]), (two[-1], None),
            (l - 1, [("carry", 3, top)])]
    cursor: dict = {}
    for n, paths in plan:
        for alpha in (1, 1 - 3 * u):
            made.clear()
            if paths is None:
                before = cursor[1]
                with pytest.raises(InconsistencyError, match="behind the cursor"):
                    _cursor_z(ctx, l, alpha, n, cursor)
                assert made == [] and cursor[1] is before
                continue
            got = _cursor_z(ctx, l, alpha, n, cursor)
            assert made == (paths if alpha == 1 else [])
            assert cursor[1][0] == delta(n)
            assert got == _fresh_z(AlgebraContext(u2, u, field), l, alpha, n)
            assert got == product_z_element(AlgebraContext(u2, u, field), l, alpha, n)
    assert list(cursor) == [1]
    # A narrow request below the cursor's delta raises all the same.
    made.clear()
    with pytest.raises(InconsistencyError, match="behind the cursor"):
        algebra._z_columns(ctx, 1, two[-1], 1, cursor)
    assert made == [] and cursor[1][0] == top


@pytest.mark.parametrize("slope, p, m, l", [
    ((1, 2), 7, 84, 168),   # the p = 7, r = 1 window of the worked example
    ((2, 3), 3, 54, 108),
])
def test_z_step_chain_over_a_whole_window(monkeypatch, slope, p, m, l):
    # Every level n of the window is carried forward from level n - 1
    # through one cursor (algebra._z_columns), and must equal a fresh
    # build; each alpha0 starts once, at the delta of level m, the
    # coefficients stay reduced, and a carry never changes a state it
    # started from.
    u2, u = slope
    field = FieldSpec(p)
    ctx = AlgebraContext(u2, u, field)
    starts = []
    start = algebra._z_start
    monkeypatch.setattr(algebra, "_z_start",
                        lambda ctx, a0, d, w: starts.append((a0, d)) or start(ctx, a0, d, w))
    cursor: dict = {}
    states = []
    for alpha0 in range(u):
        for n in range(m, l):
            starts.clear()
            rows = _cursor_z(ctx, l, alpha0, n, cursor).rows
            delta = ctx.ceil_slope(alpha0 - n) - ctx.ceil_slope(alpha0)
            assert starts == ([(alpha0, delta)] if n == m else [])
            assert all(1 <= c < p for row in rows.values() for c in row.values())
            assert rows == _z_rows_base(AlgebraContext(u2, u, field), l, alpha0, n)
            states.append((alpha0, n, cursor[alpha0], repr(cursor[alpha0])))
    assert len(cursor) == u
    for alpha0, n, state, before in states:
        delta, c, e, _, cols = state
        assert repr(state) == before
        assert c[0] == 1 and all(0 <= ci < p for ci in c)
        assert [ci for _, ci, _ in cols] == [ci for ci in c if ci]
        assert fold_z_state(ctx, alpha0, delta, len(e))[4] == cols


def test_modular_reduction_matches_rationals():
    # Mod-p results equal the reduction of the rational computation when no
    # denominator is divisible by p (denominators here are 1 throughout).
    for p in (2, 3, 5, 7):
        fp = FieldSpec(p)
        ctxp = AlgebraContext(1, 2, fp)
        for m in (-3, 2, 4):
            eq = xi_power(CTX_Q, 6, m)
            ep = xi_power(ctxp, 6, m)
            reduced = {n: {a: field_coeff(fp, c) for a, c in row.items()
                           if field_coeff(fp, c)}
                       for n, row in eq.rows.items()}
            reduced = {n: row for n, row in reduced.items() if row}
            assert ep.rows == reduced


def _comb_mod(n, k, p):
    """Binomial coefficient mod a prime via its base-p digits (Lucas)."""
    if k < 0 or k > n:
        return 0
    r = 1
    while k:
        r = r * math.comb(n % p, k % p) % p
        if not r:
            return 0
        n //= p
        k //= p
    return r


def test_field_series_matches_lucas_oracle():
    # (1-x)^j has coefficients (-1)^i C(j, i) for j >= 0 (a polynomial of
    # degree j) and C(-j-1+i, i) for j < 0; Lucas's theorem reduces each
    # binomial digit by digit without forming it.
    for p in (2, 3, 5, 7):
        for j in range(-40, 41):
            if j >= 0:
                full = [(-1) ** i * _comb_mod(j, i, p) % p for i in range(min(j, 47) + 1)]
            else:
                full = [_comb_mod(-j - 1 + i, i, p) for i in range(48)]
            for l in range(1, 49):
                assert _series(j, l, p) == full[:l], (p, j, l)


def test_xi_power_flat_slope_is_a_binomial():
    # u2 = 0: w carries no power and xi^m = (1-x)^m.
    for ctx in (CTX_FLAT_Q, AlgebraContext(0, 1, FieldSpec(3))):
        l = 6
        for m in (1, 2, 5):
            series = combine((1, one(ctx, l)), (-1, x_basis(ctx, l, 0, 1)))
            assert xi_power(ctx, l, m) == element_power(series, m)


# ---------------------------------------------------------------------------
# closed-form w powers: the column form of x(alpha, n) * w^k


def test_w_pow_expand_k1_forms():
    l = 8
    w = w_element(CTX_Q, l)
    for alpha in (-2, 0, 4):  # even
        got = column_w_element(CTX_Q, l, alpha, 1, 1)
        assert got == multiply(x_basis(CTX_Q, l, alpha, 1), w)
    for alpha in (-3, 1, 5):  # odd
        got = column_w_element(CTX_Q, l, alpha, 1, 1)
        assert got == multiply(x_basis(CTX_Q, l, alpha, 1), w)


def test_w_pow_expand_matches_generic_multiplication():
    l = 10
    for ctx in (CTX_Q, CTX_F5, AlgebraContext(2, 3, FieldSpec(3)), AlgebraContext(3, 4, RATIONALS)):
        for alpha in range(-4, 5):
            for n in (0, 1):
                wk = one(ctx, l)
                w = w_element(ctx, l)
                for k in range(1, 7):
                    wk = multiply(wk, w)
                    got = column_w_element(ctx, l, alpha, n, k)
                    assert got == multiply(x_basis(ctx, l, alpha, n), wk), (alpha, n, k)


# ---------------------------------------------------------------------------
# decomposition


def worked_context(field=RATIONALS):
    tri = normalize_triangle(WORKED)
    return context_for(tri, field), cone_tables(tri)


def test_decompose_zero():
    ctx, ct = worked_context()
    cert = decompose_element(AlgebraElement(ctx, 4, {}), 0, ct)
    assert not cert.a_part and not cert.b_part and not cert.gap_residual


def test_decompose_char2_window():
    ctx, ct = worked_context(FieldSpec(2))
    vx = x_basis(ctx, 4, 1, 1)
    e = combine((1, x_basis(ctx, 4, 0, 2)), (-1, multiply(vx, vx)))
    cert = decompose_element(e, 2, ct)
    assert cert.gap_residual == {}
    assert cert.reexpand() == e


def test_decompose_rational_overlap_tail():
    # Reducing z(10,12) - x(10,12) on [12, 14) leaves exactly 6*x(11,13)
    # in the gap residual.
    ctx, ct = worked_context()
    l = 14
    e = combine((1, _fresh_z(ctx, l, 10, 12)), (-1, x_basis(ctx, l, 10, 12)))
    cert = decompose_element(e, 12, ct)
    assert cert.gap_residual == {(11, 13): 6}
    assert cert.reexpand() == e


def test_decompose_requires_min_level():
    ctx, ct = worked_context()
    with pytest.raises(LevelError):
        decompose_element(x_basis(ctx, 4, 0, 1), 2, ct)


def test_decompose_reexpansion_identity_random():
    from reeslab.geometry import pa_member, pb_member

    rng = random.Random(99)
    ctx, ct = worked_context()
    for policy in ("A", "B"):
        for _ in range(6):
            l = rng.randint(3, 10)
            m = rng.randint(0, l - 1)
            e = random_element(ctx, l, rng)
            e = AlgebraElement(ctx, l, {n: row for n, row in e.rows.items() if n >= m})
            cert = decompose_element(e, m, ct, policy=policy)
            assert cert.reexpand() == e
            assert all(pa_member(ct, a, n) for (a, n) in cert.a_part)
            assert all(pb_member(ct, a, n) for (a, n) in cert.b_part)


# ---------------------------------------------------------------------------
# slope -1 edge case


def test_steep_slope_products_are_defect_free():
    # At slope -1 every ceiling is exact, so basis products never pick up w.
    l = 6
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            got = multiply(x_basis(CTX_STEEP_Q, l, a1, 1), x_basis(CTX_STEEP_Q, l, a2, 2))
            assert got == x_basis(CTX_STEEP_Q, l, a1 + a2, 3)


def test_steep_slope_w_and_xi():
    l = 6
    w = w_element(CTX_STEEP_Q, l)
    assert multiply(w, invert_unit(w)) == one(CTX_STEEP_Q, l)
    assert multiply(xi_power(CTX_STEEP_Q, l, 2), xi_power(CTX_STEEP_Q, l, -2)) \
        == one(CTX_STEEP_Q, l)
    assert xi_power(CTX_STEEP_Q, l, 1) == laurent_multiply(
        element_power(combine((1, one(CTX_STEEP_Q, l)), (-1, x_basis(CTX_STEEP_Q, l, 0, 1))), 1),
        invert_unit(w))


# ---------------------------------------------------------------------------
# misc


def test_dump_element_format():
    e = elem(CTX_Q, 4, {(0, 0): 1, (2, 1): -3, (-1, 1): F(1, 2)})
    assert dump_element(e) == "0 0 1\n-1 1 1/2\n2 1 -3"


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=5))
def test_ceiling_helper_exactness(alpha, u2_raw, u):
    import math as _math
    u2 = u2_raw % (u + 1)
    if _math.gcd(u2, u) != 1:
        u2, u = 0, 1
    ctx = AlgebraContext(u2, u, RATIONALS)
    assert ctx.ceil_slope(alpha) == _math.ceil(F(-alpha * u2, u))
