"""Independent routes that the tests check production code against.

* The Laurent-polynomial model writes an element in coefficients of
  v^alpha x^n and multiplies there; canonicalize_from_laurent inverts the
  triangular change of basis.  It checks algebra.multiply.
* decompose_element runs the greedy two-cone reduction on one element,
  deciding membership position by position with pa_member and pb_member,
  and returns a certificate that re-expands to its input.  It checks the
  window sweep algebra.subspace_decompose, row by row.

* product_z_element multiplies out z(alpha, n) = x(alpha, 0) * w^delta *
  x^n * (1-x)^-n with multiply, element_power and w_element.  It checks
  the column form of z that algebra builds every expansion from.
* product_xi_power multiplies out xi^m = (1-x)^(u*m) * w^(-u2*m), raising
  the inverse of w (series_inverse) to the power u2*m.  It checks
  algebra.xi_power, which spells the same column form at a negative
  w-exponent, and it is the route xi_power took before that form.
* series_inverse inverts a unit c(1 - g) as the geometric series
  c^-1 * sum g^k, through multiply.  It checks algebra.divide, the one-pass
  division that algebra.invert_unit and divided_factorization_search run,
  and keeps the product routes above independent of it.
* fold_z_state reaches the column coefficients c(alpha0, delta) by delta
  carry passes from c = (1) at delta = 0.  It checks the closed form
  c_i = C(delta + f_(i-1), i) that algebra._z_start starts from.

column_w_element spells x(alpha, n) * w^k in the column form, with the
coefficients from fold_z_state, so that the tests can check the column form
against generic multiplication.  w_element and element_power build w and the
powers of an element by generic multiplication for these routes and the
tests; no production route needs them.  combine adds and scales elements,
which the package only multiplies and divides.  delta_prime is the input of
the tests' own routes to the column counts that geometry.emu_check reads.
first_reaching finds a cone threshold by a galloping then a binary search
over the column count alone; it checks geometry._locate, which walks up
from the count law's lower bound ceil(n/(A+B)).  cone_periods gives each
threshold's period (P, Q), the law the tests check the thresholds against.
slope_laws derives the two count laws from the Fraction slopes sbar, tbar
and ubar; it checks geometry.ConeTables, which reads the slope pairs
normalize_triangle stores.

divided_factorization_search is the unit-factorization search that carries
the residual xi^m / (u_a * u_b) whole and divides it by every chart unit it
takes.  It checks cohomology.factorization_search, which reads each level
of the residual as xi^m - u_a * u_b from one running product and never
divides.

No module of reeslab uses these routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from reeslab.algebra import (
    AlgebraContext,
    AlgebraElement,
    _check_same,
    _radd,
    _radd_row,
    _series,
    _times_w_rows,
    _z_rows_base,
    divide,
    multiply,
    one,
    x_basis,
    xi_power,
)
from reeslab.cohomology import DEFAULT_BRANCH_BUDGET, FactorizationOutcome, _coefficient_splits
from reeslab.errors import (
    BudgetExceeded,
    ClaimViolation,
    InconsistencyError,
    LevelError,
    NotAUnit,
    NotInF,
)
from reeslab.fields import FieldSpec
from reeslab.geometry import (
    ConeTables,
    NormalizedTriangle,
    PeriodData,
    pa_member,
    pb_member,
)

Rows = dict  # level -> {column -> coefficient}


def combine(*pairs) -> AlgebraElement:
    """sum c * e over the pairs (c, e), elements at one context and level."""
    first = pairs[0][1]
    p = first.ctx.field.characteristic
    rows: Rows = {}
    for c, e in pairs:
        _check_same(first, e)
        for n, row in e.rows.items():
            _radd_row(rows, n, row, c, p)
    return AlgebraElement(first.ctx, first.level, rows)


def field_coeff(field: FieldSpec, q):
    """The rational q in the field: a Fraction in characteristic 0, and
    num * den^-1 reduced mod p in characteristic p."""
    q, p = Fraction(q), field.characteristic
    return q.numerator * pow(q.denominator, -1, p) % p if p else q


def delta_prime(tri: NormalizedTriangle) -> tuple:
    """The companion triangle (0, 0), (u, -u2), (-u*x2/W, (u + u2*x2)/W):
    the same edge slopes, anchored at the origin."""
    w = tri.width
    return ((Fraction(0), Fraction(0)), (Fraction(tri.u), Fraction(-tri.u2)),
            (Fraction(-tri.u * tri.x2, 1) / w, (tri.u + tri.u2 * tri.x2) / w))


def first_reaching(count, n: int) -> int:
    """Smallest k >= 0 with count(k) >= n+1, for a nondecreasing column
    count that is unbounded or infinite: a galloping then a binary search."""
    lo, hi = 0, 1
    while count(hi) < n + 1:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if count(mid) >= n + 1:
            hi = mid
        else:
            lo = mid + 1
    return lo


def threshold_period(a: Fraction | None, b: Fraction) -> tuple[int, int]:
    """(P, Q) for the count law floor(k*A) + floor(k*B) + 1, a = A, b = B:
    P = lcm of the denominators and Q = P*(A+B), so the count gains Q when k
    gains P.  As count(-1) <= 0 < n+1, the threshold of level n + Q, n >= 0,
    lies P columns past that of level n.  (0, 1) for an infinite edge
    (a is None), whose threshold is 0 at every level."""
    if a is None:
        return 0, 1
    p = math.lcm(a.denominator, b.denominator)
    return p, int(p * (a + b))


def cone_periods(tri: NormalizedTriangle) -> tuple:
    """The periods of min_pa_col, law (sbar, -ubar), and of max_pb_col, law
    (-tbar, ubar): min_pa_col(n+Q) = min_pa_col(n) + P and max_pb_col(n+Q) =
    max_pb_col(n) + Q - P, each with its own (P, Q)."""
    return (threshold_period(tri.sbar, -tri.ubar),
            threshold_period(None if tri.tbar is None else -tri.tbar, tri.ubar))


def slope_laws(tri: NormalizedTriangle) -> tuple:
    """The count laws ((A num, A den), (B num, B den)) of the two cones from
    the Fraction slopes: (sbar, -ubar) and (-tbar, ubar), None for an
    infinite edge."""
    def law(a: Fraction | None, b: Fraction):
        return None if a is None else ((a.numerator, a.denominator), (b.numerator, b.denominator))
    return (law(tri.sbar, -tri.ubar),
            law(None if tri.tbar is None else -tri.tbar, tri.ubar))


def fold_z_state(ctx: AlgebraContext, alpha0: int, delta: int, width: int) -> tuple:
    """The state of algebra._z_start, (delta, c, e, g, cols), reached from
    c = (1) at delta = 0 by one carry pass per w-power: c'_i = c_i +
    q_(i-1), with q_i = c'_i where f steps up at i and q_i = c_i elsewhere,
    in exact integers, reduced mod p after each pass."""
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    f = [((alpha0 + i) * u2) // u - (alpha0 * u2) // u for i in range(width)]
    e = [i > 0 and f[i] != f[i - 1] for i in range(width)]
    g = [fi - i for i, fi in enumerate(f)]
    c = [1]
    for _ in range(delta):
        q, folded = 0, []
        for ci, ei in zip(c, e):
            v = ci + q
            q = v if ei else ci
            folded.append(v)
        for ei in e[len(c):]:
            if not q:
                break
            folded.append(q)
            if not ei:
                q = 0
        c = [v % p for v in folded] if p else folded
    return delta, c, e, g, [(i, ci, delta + g[i]) for i, ci in enumerate(c) if ci]


def column_w_element(ctx: AlgebraContext, l: int, alpha: int, n: int, k: int) -> AlgebraElement:
    """x(alpha, n) * w^k from the column form of x(alpha0, 0) * w^k, alpha0 =
    alpha mod u: sum_i c_i * x(alpha0+i, i) * (1-x)^(k + f_i - i), moved up n
    levels and over alpha - alpha0 columns."""
    p = ctx.field.characteristic
    alpha0 = alpha % ctx.u
    rows: Rows = {}
    for i, ci, h in fold_z_state(ctx, alpha0, k, l)[4]:
        for j, s in enumerate(_series(h, l, p)):
            if i + j + n < l:
                _radd(rows, i + j + n, alpha + i, ci * s, p)
    return AlgebraElement(ctx, l, rows)


def w_element(ctx: AlgebraContext, l: int) -> AlgebraElement:
    """Canonical form of w = 1 - x + vx."""
    rows: Rows = {}
    _times_w_rows(ctx, l, rows, {0: {0: 1}})
    return AlgebraElement(ctx, l, rows)


def series_inverse(e: AlgebraElement) -> AlgebraElement:
    """Two-sided inverse of a unit whose level-0 part is a nonzero constant
    c: with e = c(1 - g), g supported on levels >= 1, the inverse is
    c^-1 * sum g^k, summed until g^k vanishes in the truncation."""
    ctx, l = e.ctx, e.level
    row0 = e.rows.get(0, {})
    if set(row0) != {0}:
        raise NotAUnit("level-0 component is not a nonzero multiple of the identity")
    cinv = ctx.field.inv(row0[0])
    p = ctx.field.characteristic
    g_rows: Rows = {}
    for n, row in e.rows.items():
        if n >= 1:
            _radd_row(g_rows, n, row, -cinv, p)
    g = AlgebraElement(ctx, l, g_rows)
    terms = [(cinv, one(ctx, l))]
    for _ in range(1, l):
        term = multiply(terms[-1][1], g)
        if not term.rows:
            break
        terms.append((cinv, term))
    return combine(*terms)


def element_power(e: AlgebraElement, k: int) -> AlgebraElement:
    """e^k by repeated squaring through multiply; k < 0 raises the inverse
    from series_inverse."""
    if k < 0:
        return element_power(series_inverse(e), -k)
    result = one(e.ctx, e.level)
    base = e
    while k:
        if k & 1:
            result = multiply(result, base)
        base = multiply(base, base) if k > 1 else base
        k >>= 1
    return result


def product_xi_power(ctx: AlgebraContext, l: int, m: int) -> AlgebraElement:
    """xi^m = (1-x)^(u*m) * w^(-u2*m) as the product of a power of the
    inverse of w and the series of (1-x)^(u*m), through multiply."""
    p = ctx.field.characteristic
    series = AlgebraElement(ctx, l, {k: {0: s} for k, s in enumerate(_series(ctx.u * m, l, p))
                                     if s})
    return multiply(element_power(series_inverse(w_element(ctx, l)), ctx.u2 * m), series)


def product_z_element(ctx: AlgebraContext, l: int, alpha: int, n: int) -> AlgebraElement:
    """z(alpha, n) as the product x(alpha, 0) * w^delta * x^n * (1-x)^-n with
    delta = ceil((alpha-n)*ubar) - ceil(alpha*ubar), through multiply."""
    delta = ctx.ceil_slope(alpha - n) - ctx.ceil_slope(alpha)
    x = x_basis(ctx, l, 0, 1) if l > 1 else AlgebraElement(ctx, l, {})
    e = multiply(x_basis(ctx, l, alpha, 0), element_power(w_element(ctx, l), delta))
    e = multiply(e, element_power(x, n))
    return multiply(e, element_power(combine((1, one(ctx, l)), (-1, x)), -n))


# ---------------------------------------------------------------------------
# Laurent-polynomial model (an independent multiplication oracle)


def _comb(n: int, k: int, p: int) -> int:
    """Binomial coefficient, reduced mod p when p > 0."""
    c = math.comb(n, k)
    return c % p if p else c


_laurent_w_cache: dict = {}   # (ctx, k, l) -> rows of w^k


def laurent_w_rows(ctx: AlgebraContext, l: int, k: int) -> Rows:
    """Rows of w^k in coordinates (level, v-degree), truncated."""
    key = (ctx, k, l)
    cached = _laurent_w_cache.get(key)
    if cached is not None:
        return cached
    p = ctx.field.characteristic
    rows: Rows = {}
    if k >= 0:
        # (1-x+vx)^k = sum_i C(k,i) (vx)^i (1-x)^(k-i)
        for i in range(min(k, l - 1) + 1):
            ci = _comb(k, i, p)
            for j, s in enumerate(_series(k - i, l, p)):
                if i + j >= l:
                    break
                _radd(rows, i + j, i, ci * s, p)
    else:
        # w^-r = sum_j C(r-1+j, j) (x - vx)^j, and (x-vx)^j = x^j (1-v)^j.
        r = -k
        for j in range(l):
            cj = _comb(r - 1 + j, j, p)
            for i in range(j + 1):
                _radd(rows, j, i, cj * _comb(j, i, p) * (-1) ** i, p)
    _laurent_w_cache[key] = rows
    return rows


def laurent_basis_rows(ctx: AlgebraContext, l: int, alpha: int, n: int) -> Rows:
    """Laurent rows of the basis element at (alpha, n)."""
    base = laurent_w_rows(ctx, l, ctx.ceil_slope(alpha))
    out: Rows = {}
    for m, row in base.items():
        if m + n >= l:
            continue
        out[m + n] = {a + alpha: c for a, c in row.items()}
    return out


def to_laurent(e: AlgebraElement) -> Rows:
    """Expand into coefficients of v^alpha x^n."""
    ctx, l = e.ctx, e.level
    p = ctx.field.characteristic
    out: Rows = {}
    for n, row in e.rows.items():
        for a, c in row.items():
            for m, lrow in laurent_basis_rows(ctx, l, a, n).items():
                _radd_row(out, m, lrow, c, p)
    return out


def canonicalize_from_laurent(ctx: AlgebraContext, l: int, laurent: Rows) -> AlgebraElement:
    """Invert the triangular change of basis: ascending in level, the pure
    v^alpha x^n coefficient left after subtracting already-identified
    expansions is the coefficient at (alpha, n)."""
    p = ctx.field.characteristic
    residual: Rows = {}
    for n, row in laurent.items():
        if n >= l:
            raise LevelError(f"laurent level {n} outside [0, {l})")
        _radd_row(residual, n, row, None, p)
    rows: Rows = {}
    for n in range(l):
        row = residual.get(n)
        if not row:
            continue
        picked = sorted(row.items())
        for a, c in picked:
            _radd(rows, n, a, c, p)
            for m, lrow in laurent_basis_rows(ctx, l, a, n).items():
                _radd_row(residual, m, lrow, -c, p)
        if residual.get(n):
            raise NotInF(f"level-{n} residual not consumed")
    if residual:
        raise NotInF("expansion left a nonzero residual")
    return AlgebraElement(ctx, l, rows)


def laurent_multiply(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Independent multiplication route through the Laurent model."""
    _check_same(e1, e2)
    ctx, l = e1.ctx, e1.level
    p = ctx.field.characteristic
    r1, r2 = to_laurent(e1), to_laurent(e2)
    prod: Rows = {}
    for n1, row1 in r1.items():
        for n2, row2 in r2.items():
            n = n1 + n2
            if n >= l:
                continue
            for a1, c1 in row1.items():
                _radd_row(prod, n, {a + a1: c for a, c in row2.items()}, c1, p)
    return canonicalize_from_laurent(ctx, l, prod)


# ---------------------------------------------------------------------------
# Per-element decomposition into the two chart ideals


@dataclass
class DecompositionCertificate:
    """Routing of an element into chart pieces plus the unroutable residual.

    a_part holds x-basis coefficients at first-cone positions, b_part holds
    z-basis coefficients at second-cone positions, gap_residual the x-basis
    coefficients at positions covered by neither.  Re-expanding the three
    parts recovers the input exactly.
    """

    ctx: AlgebraContext
    level: int
    m: int
    overlap_policy: str
    a_part: dict
    b_part: dict
    gap_residual: dict

    def reexpand(self) -> AlgebraElement:
        ctx, l = self.ctx, self.level
        z = [(c, AlgebraElement(ctx, l, _z_rows_base(ctx, l, a, n)))
             for (a, n), c in self.b_part.items()]
        x = [(c, x_basis(ctx, l, a, n))
             for (a, n), c in [*self.a_part.items(), *self.gap_residual.items()]]
        return combine((1, AlgebraElement(ctx, l, {})), *x, *z)


def decompose_element(e: AlgebraElement, m: int, ct: ConeTables,
                      policy: str = "A") -> DecompositionCertificate:
    """Greedy ascending-level reduction of one element into A(m,l) + B(m,l)
    + gaps, with membership decided per position by pa_member/pb_member."""
    if policy not in ("A", "B"):
        raise ValueError(f"policy must be 'A' or 'B', got {policy!r}")
    ctx, l = e.ctx, e.level
    if e.rows and min(e.rows) < m:
        raise LevelError(f"element has support at level {min(e.rows)} below m={m}")
    p = ctx.field.characteristic
    residual = {n: dict(row) for n, row in e.rows.items()}
    a_part: dict = {}
    b_part: dict = {}
    gaps: dict = {}
    for n in range(m, l):
        row = residual.get(n)
        if not row:
            continue
        for alpha in sorted(row):
            c = row[alpha]
            in_a = pa_member(ct, alpha, n)
            in_b = pb_member(ct, alpha, n)
            if in_a and (policy == "A" or not in_b):
                a_part[(alpha, n)] = c
                _radd(residual, n, alpha, -c, p)
            elif in_b:
                b_part[(alpha, n)] = c
                for zn, zrow in _z_rows_base(ctx, l, alpha, n).items():
                    _radd_row(residual, zn, zrow, -c, p)
            else:
                gaps[(alpha, n)] = c
                _radd(residual, n, alpha, -c, p)
    if residual:
        raise NotInF(f"decomposition left a residual at levels {sorted(residual)}")
    return DecompositionCertificate(
        ctx=ctx, level=l, m=m, overlap_policy=policy,
        a_part=a_part, b_part=b_part, gap_residual=gaps,
    )


# ---------------------------------------------------------------------------
# The factorization search that divides


def divided_factorization_search(
        ctx: AlgebraContext, ct: ConeTables, pd: PeriodData, m: int,
        branch_budget: int = DEFAULT_BRANCH_BUDGET) -> FactorizationOutcome:
    """cohomology.factorization_search as it ran before it kept a running
    product: the residual rho = xi^m / (u_a * u_b) is carried whole, divided
    by each chart unit taken (algebra.divide), and level n + 1 is read from
    it.  The same stack walk, classification, split order, budget and
    raises; at level m*u rho must be 1 before the certificate."""
    l = m * ctx.u
    fld = ctx.field
    target = xi_power(ctx, l, m)
    branches, obstruction = 0, None
    stack = [(0, one(ctx, l), one(ctx, l), target, {}, {}, False)]
    while stack:
        n, u_a, u_b, rho, fa, fb, is_branch = stack.pop()
        if is_branch:
            branches += 1
            if branches > branch_budget:
                raise BudgetExceeded(
                    f"factorization search for m={m} exceeded {branch_budget} branches")
        if fa:
            one_fa = AlgebraElement(ctx, l, {0: {0: 1}, n: fa})
            rho, u_a = divide(rho, one_fa), multiply(u_a, one_fa)
        if fb:
            fb_rows = {0: {0: 1}}
            for alpha, c in fb.items():
                for zn, zrow in _z_rows_base(ctx, l, alpha, n).items():
                    _radd_row(fb_rows, zn, zrow, c, fld.characteristic)
            one_fb = AlgebraElement(ctx, l, fb_rows)
            rho, u_b = divide(rho, one_fb), multiply(u_b, one_fb)
        n += 1
        if n == l:
            if rho != one(ctx, l):
                raise InconsistencyError(f"residual unit at level {l} is not 1")
            break
        row = rho.rows.get(n, {})
        fa, fb, gap_terms, overlap = {}, {}, {}, None
        col_a, col_b = ct.min_pa_col(n), ct.max_pb_col(n)
        for alpha in sorted(row):
            c = row[alpha]
            in_a, in_b = alpha >= col_a, alpha <= col_b
            if in_a and in_b:
                if n % pd.sigma or alpha != (n // pd.sigma) * pd.theta:
                    raise ClaimViolation(
                        f"overlap at ({alpha}, {n}) off the ({pd.theta}, {pd.sigma}) lattice")
                overlap = alpha
            elif in_a:
                fa[alpha] = c
            elif in_b:
                fb[alpha] = c
            else:
                gap_terms[(alpha, n)] = c
        if gap_terms:
            obstruction = obstruction or (n, gap_terms)
        elif overlap is None:
            stack.append((n, u_a, u_b, rho, fa, fb, False))
        else:
            for ca, cb in reversed(_coefficient_splits(fld, row[overlap])):
                stack.append((n, u_a, u_b, rho, {**fa, overlap: ca} if ca else fa,
                              {**fb, overlap: cb} if cb else fb, True))
    else:
        return FactorizationOutcome(success=False, m=m, level=l, obstruction=obstruction,
                                    branches_explored=branches)
    if multiply(u_a, u_b) != target:
        raise InconsistencyError("factorization certificate failed re-verification")
    for alpha, n in u_a.support():
        if (alpha, n) != (0, 0) and not pa_member(ct, alpha, n):
            raise InconsistencyError(
                f"first-chart unit has support outside its cone at ({alpha}, {n})")
    return FactorizationOutcome(success=True, m=m, level=l, unit_a=u_a, unit_b=u_b,
                                branches_explored=branches)
