"""Exact arithmetic in the truncated section algebra.

Elements live in the quotient of the section ring by the ideal of the
truncation level l and are stored in the canonical monomial basis, indexed by
(column alpha, level n): the basis element at (alpha, n) is
v^alpha * w^ceil(alpha*ubar) * x^n with w = 1 - x + v*x.  A second family,
z(alpha, n) = v^alpha * w^ceil((alpha-n)*ubar) * (x + x^2 + ...)^n, spans the
other affine chart; its expansion is unitriangular against the x-basis
(leading term at (alpha, n), tail strictly above level n).  Consecutive
z-expansions in one column satisfy

    z(alpha, k+1) = z(alpha, k) * w^d_k * x/(1-x),
    d_k = ceil((alpha-k-1)*ubar) - ceil((alpha-k)*ubar) in {0, 1},

so a computation that walks the levels upwards keeps a cursor, a dict from
alpha mod u to its newest expansion: a higher level is stepped up from it,
and a lower one is expanded from scratch.  Each window sweep and each
factorization search owns its cursor, so expansions live only as long as
the computation that walks them.  A step is one pass down the columns:
when d_k = 1 the product with w telescopes into the running column sum (see
_z_step_rows).  A build from scratch needs w^delta only below level l - n,
since the factor x^n lifts everything else out of the truncation.

Products reduce to the x-basis through the ceiling-defect rule
x(a,n)*x(a',n') = x(a+a', n+n') * w^delta with delta in {0, 1}.

subspace_decompose is the one two-cone reduction: it reduces the overlap
differences z - x of a restriction window into the two chart ideals, all rows
in one ascending sweep.  It takes the window and its overlap positions as
plain arguments; there is no OverlapDifferences wrapper.  The independent
routes live in tests/oracles.py: the per-element reduction with its
certificate checks the sweep, and the Laurent-polynomial model (coefficients
of v^alpha x^n) checks products.

Coefficients are added, scaled and reduced mod p in two helpers: _radd adds
one term and _radd_row a scaled row.  Only the telescoped column pass of
_z_step_rows reduces on its own, which keeps the window engine's hottest loop
free of a call per entry; binomials are reduced as they are made.

Elements are immutable values by convention; all operations are pure.
The one context cache, of binomial series, is an append-only dict, so it
stays safe for concurrent readers under the GIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ContextError,
    ContextMismatch,
    InconsistencyError,
    LevelError,
    NotAUnit,
    NotInF,
    RangeError,
)
from .fields import FieldSpec, coeff_str
from .geometry import ConeTables

Rows = dict  # level -> {column -> coefficient}


class AlgebraContext:
    """Slope data ubar = -u2/u plus the base field, with a cache of the
    series (1-x)^j; z-expansions live in their callers' cursors."""

    def __init__(self, u2: int, u: int, field: FieldSpec):
        if u <= 0 or u2 < 0 or u2 > u or math.gcd(u2, u) != 1:
            raise ContextError(f"invalid slope pair ({u2}, {u})")
        self.u2 = u2
        self.u = u
        self.field = field
        self._series_cache: dict = {}

    def ceil_slope(self, alpha: int) -> int:
        """ceil(alpha * ubar) with exact integer semantics."""
        return -((alpha * self.u2) // self.u)

    @property
    def key(self):
        return (self.u2, self.u, self.field)

    def __repr__(self):
        return f"AlgebraContext(ubar=-{self.u2}/{self.u}, char={self.field.characteristic})"


def context_for(tri, field: FieldSpec) -> AlgebraContext:
    """Context for a normalized triangle's bottom slope."""
    return AlgebraContext(tri.u2, tri.u, field)


# ---------------------------------------------------------------------------
# Row-dict plumbing.  These are the hot paths; they stay free of abstraction.


def _radd(rows: Rows, n: int, alpha: int, c, p: int) -> None:
    if p:
        c %= p
    if not c:
        return
    row = rows.get(n)
    if row is None:
        rows[n] = {alpha: c}
        return
    v = row.get(alpha)
    if v is None:
        row[alpha] = c
        return
    v = v + c
    if p:
        v %= p
    if v:
        row[alpha] = v
    else:
        del row[alpha]
        if not row:
            del rows[n]


def _radd_row(rows: Rows, n: int, src: dict, c, p: int, shift: int = 0) -> None:
    """rows[n] += c * src, src's columns shifted by shift; c None means 1.
    Reduced mod p when p > 0, vanishing entries dropped.  A product is only
    formed when c is given and a sum only when the slot holds a value, so
    characteristic-0 coefficients keep their type."""
    row = rows.get(n)
    if row is None:
        row = rows[n] = {}
    for a, v in src.items():
        if c is not None:
            v = v * c
        a += shift
        old = row.get(a)
        if old is not None:
            v = old + v
        if p:
            v %= p
        if v:
            row[a] = v
        elif old is not None:
            del row[a]
    if not row:
        del rows[n]


class AlgebraElement:
    """A finite x-basis combination in the level-l truncation."""

    __slots__ = ("ctx", "level", "rows")

    def __init__(self, ctx: AlgebraContext, level: int, rows: Rows):
        if level < 1:
            raise LevelError(f"truncation level must be >= 1, got {level}")
        self.ctx = ctx
        self.level = level
        self.rows = rows

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def support(self) -> list[tuple[int, int]]:
        return [(a, n) for n in sorted(self.rows) for a in sorted(self.rows[n])]

    def level_component(self, n: int) -> dict:
        return dict(self.rows.get(n, {}))

    def min_level(self):
        return min(self.rows) if self.rows else None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        p = self.ctx.field.characteristic
        rows = {n: dict(row) for n, row in self.rows.items()}
        for n, row in other.rows.items():
            _radd_row(rows, n, row, None, p)
        return AlgebraElement(self.ctx, self.level, rows)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return self.scaled(-1)

    def scaled(self, c) -> "AlgebraElement":
        p = self.ctx.field.characteristic
        rows: Rows = {}
        if c:
            for n, row in self.rows.items():
                _radd_row(rows, n, row, c, p)
        return AlgebraElement(self.ctx, self.level, rows)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.ctx.key == other.ctx.key and self.level == other.level
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ctx.key, self.level,
                     tuple((n, a, c) for (a, n) in self.support()
                           for c in [self.rows[n][a]])))

    def __repr__(self):
        terms = ", ".join(f"({a},{n}):{coeff_str(self.rows[n][a])}"
                          for (a, n) in self.support()[:8])
        more = "" if len(self.support()) <= 8 else ", ..."
        return f"<element l={self.level} {{{terms}{more}}}>"


def _check_same(e1: AlgebraElement, e2: AlgebraElement) -> None:
    if e1.ctx.key != e2.ctx.key or e1.level != e2.level:
        raise ContextMismatch(
            f"incompatible operands: {e1.ctx}@{e1.level} vs {e2.ctx}@{e2.level}")


# ---------------------------------------------------------------------------
# Basis elements and generic multiplication


def x_basis(ctx: AlgebraContext, l: int, alpha: int, n: int) -> AlgebraElement:
    if not 0 <= n < l:
        raise LevelError(f"basis level {n} outside [0, {l})")
    return AlgebraElement(ctx, l, {n: {alpha: ctx.field.of_int(1)}})


def one(ctx: AlgebraContext, l: int) -> AlgebraElement:
    return x_basis(ctx, l, 0, 0)


def _times_w_rows(ctx: AlgebraContext, l: int, rows: Rows) -> Rows:
    """rows * w, using w = 1 - x + vx and
    x(a,n)*vx = x(a+1,n+1)*w^d with d = ceil(a*ubar) - ceil((a+1)*ubar)."""
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    out: Rows = {}
    pend = {n: dict(row) for n, row in rows.items()}
    for n in range(l):
        row = pend.pop(n, None)
        if not row:
            continue
        nxt = n + 1
        for a, c in row.items():
            _radd(out, n, a, c, p)
            if nxt >= l:
                continue
            _radd(out, nxt, a, -c, p)
            defect = ((a + 1) * u2) // u - (a * u2) // u  # in {0, 1}
            if defect == 0:
                _radd(out, nxt, a + 1, c, p)
            else:
                _radd(pend, nxt, a + 1, c, p)
    return out


def multiply(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Exact product in the truncation, canonical x-basis form."""
    _check_same(e1, e2)
    ctx, l = e1.ctx, e1.level
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    direct: Rows = {}
    needw: Rows = {}
    rows2 = sorted(e2.rows.items())
    for n1, row1 in sorted(e1.rows.items()):
        for n2, row2 in rows2:
            n = n1 + n2
            if n >= l:
                break
            for a1, c1 in row1.items():
                k1 = -((a1 * u2) // u)
                for a2, c2 in row2.items():
                    a = a1 + a2
                    delta = k1 - ((a2 * u2) // u) + ((a * u2) // u)
                    c = c1 * c2
                    if delta == 0:
                        _radd(direct, n, a, c, p)
                    else:
                        _radd(needw, n, a, c, p)
    if needw:
        for n, row in _times_w_rows(ctx, l, needw).items():
            _radd_row(direct, n, row, None, p)
    return AlgebraElement(ctx, l, direct)


def element_power(e: AlgebraElement, k: int) -> AlgebraElement:
    if k < 0:
        return element_power(invert_unit(e), -k)
    result = one(e.ctx, e.level)
    base = e
    while k:
        if k & 1:
            result = multiply(result, base)
        base = multiply(base, base) if k > 1 else base
        k >>= 1
    return result


def w_element(ctx: AlgebraContext, l: int) -> AlgebraElement:
    """Canonical form of w = 1 - x + vx."""
    return AlgebraElement(ctx, l, _times_w_rows(ctx, l, {0: {0: ctx.field.of_int(1)}}))


# ---------------------------------------------------------------------------
# Powers of w against a basis element


def _binom_series(j: int, l: int) -> list[int]:
    """Integer coefficients of (1-x)^j mod x^l, j may be negative."""
    out = [1]
    c = 1
    if j >= 0:
        for i in range(min(j, l - 1)):
            c = -c * (j - i) // (i + 1)
            out.append(c)
    else:
        r = -j
        for i in range(l - 1):
            c = c * (r + i) // (i + 1)
            out.append(c)
    return out


def _comb(n: int, k: int, p: int) -> int:
    """Binomial coefficient, reduced mod p when p > 0."""
    c = math.comb(n, k)
    return c % p if p else c


def _field_series(ctx: AlgebraContext, j: int, l: int) -> list:
    """Field-reduced coefficients of (1-x)^j mod x^l, cached per context."""
    key = (j, l)
    out = ctx._series_cache.get(key)
    if out is None:
        out = _binom_series(j, l)
        p = ctx.field.characteristic
        if p:
            out = [c % p for c in out]
        ctx._series_cache[key] = out
    return out


def _mul_x_series_rows(rows: Rows, series: list[int], l: int, p: int) -> Rows:
    """rows * (sum_k series[k] x^k): pure level shifts, no column mixing."""
    out: Rows = {}
    for n, row in rows.items():
        for k, s in enumerate(series):
            if not s:
                continue
            if n + k >= l:
                break
            _radd_row(out, n + k, row, s, p)
    return out


def _lemma_w_rows(ctx: AlgebraContext, l: int, alpha: int, k: int) -> Rows:
    """Closed-form x(alpha,0) * w^k for slope -1/2, by parity of alpha."""
    p = ctx.field.characteristic
    out: Rows = {}

    def emit(coef: int, j: int, col: int, lvl: int):
        # coef * (1-x)^j * x(col, lvl)
        if lvl >= l or not coef:
            return
        for i, s in enumerate(_field_series(ctx, j, l)):
            if lvl + i >= l:
                break
            if s:
                _radd(out, lvl + i, col, coef * s, p)

    if k == 0:
        _radd(out, 0, alpha, 1, p)
        return out
    if alpha % 2 == 0:
        for q in range(k):
            if 2 * q >= l:
                break
            emit(_comb(k + q - 1, 2 * q, p), k - q, alpha + 2 * q, 2 * q)
            emit(_comb(k + q, 2 * q + 1, p), k - q - 1, alpha + 2 * q + 1, 2 * q + 1)
    else:
        emit(1, k, alpha, 0)
        for q in range(k):
            if 2 * q + 1 >= l:
                break
            emit(_comb(k + q, 2 * q + 1, p), k - q, alpha + 2 * q + 1, 2 * q + 1)
            emit(_comb(k + q + 1, 2 * q + 2, p), k - q - 1, alpha + 2 * q + 2, 2 * q + 2)
    return out


def _w_power_rows(ctx: AlgebraContext, l: int, alpha0: int, k: int) -> Rows:
    """Rows of x(alpha0, 0) * w^k for a column alpha0 in [0, u).

    Slope -1/2 takes the closed form of _lemma_w_rows; the generic loop of
    w-products serves every other slope.  The benchmark keeps both routes,
    and keeps seeding z from these rows: one pass over the search-p op list
    (seed 1, CPython 3.11, 2-core Xeon) took 30-36 s under cProfile with
    the generic loop for every slope against 7-8 s, and 20 s unprofiled
    when z was only ever stepped up from level 0 against 2.3 s.

    Uncached: a window sweep builds z from scratch at most once per alpha0
    and steps every other level, so a cache here would be hit 4 times in
    the 871 calls of the seed-1 benchmark op lists."""
    if k < 0:
        raise ValueError("w power must be nonnegative here")
    if ctx.u == 2 and ctx.u2 == 1:
        return _lemma_w_rows(ctx, l, alpha0, k)
    rows = {0: {alpha0: ctx.field.of_int(1)}}
    for _ in range(k):
        rows = _times_w_rows(ctx, l, rows)
    return rows


# ---------------------------------------------------------------------------
# Units


def invert_unit(e: AlgebraElement) -> AlgebraElement:
    """Two-sided inverse of a unit whose level-0 part is a nonzero constant."""
    ctx, l = e.ctx, e.level
    row0 = e.rows.get(0, {})
    if set(row0) != {0}:
        raise NotAUnit("level-0 component is not a nonzero multiple of the identity")
    c = row0[0]
    cinv = ctx.field.inv(c)
    # e = c(1 - g) with g supported on levels >= 1; inverse is c^-1 sum g^k.
    p = ctx.field.characteristic
    g_rows: Rows = {}
    for n, row in e.rows.items():
        if n >= 1:
            _radd_row(g_rows, n, row, -cinv, p)
    g = AlgebraElement(ctx, l, g_rows)
    acc = one(ctx, l)
    term = one(ctx, l)
    for _ in range(1, l):
        term = multiply(term, g)
        if term.is_zero():
            break
        acc = acc + term
    return acc.scaled(cinv)


def xi_power(ctx: AlgebraContext, l: int, m: int) -> AlgebraElement:
    """m-th power of the chart transition unit (1-x)^u * w^(-u2)."""
    if l < 1:
        raise LevelError("truncation level must be >= 1")
    base = element_power(invert_unit(w_element(ctx, l)), ctx.u2 * m)
    series = _field_series(ctx, ctx.u * m, l)
    p = ctx.field.characteristic
    return AlgebraElement(ctx, l, _mul_x_series_rows(base.rows, series, l, p))


# ---------------------------------------------------------------------------
# The second basis


def _z_full_rows(ctx: AlgebraContext, l: int, alpha0: int, n: int) -> Rows:
    """Rows of z(alpha0, n) = x(alpha0, 0) * w^delta * x^n * (1-x)^-n.

    Products with w and with series in x only move terms up, so the levels
    of x(alpha0, 0) * w^delta that stay below l after the shift by x^n, the
    levels below l - n, are exactly its expansion truncated at l - n."""
    delta = ctx.ceil_slope(alpha0 - n) - ctx.ceil_slope(alpha0)
    if delta < 0:
        raise InconsistencyError(f"negative w exponent {delta} for z({alpha0}, {n})")
    shifted = {m + n: row for m, row in _w_power_rows(ctx, l - n, alpha0, delta).items()}
    return _mul_x_series_rows(shifted, _field_series(ctx, -n, l), l, ctx.field.characteristic)


def _z_step_rows(ctx: AlgebraContext, l: int, alpha0: int, k: int, rows: Rows) -> Rows:
    """Rows of z(alpha0, k+1) from the rows R of z(alpha0, k); R is not
    modified.

    z(alpha0, k+1) = z(alpha0, k) * w^d * x/(1-x) with d in {0, 1}, so level
    N+1 of the result is the column sum of the levels <= N of R * w^d: with
    d = 0, level N plus R[N].  With d = 1 the product with w folds into the
    same pass.  Let s_e move by one column the entries whose column a has
    defect ((a+1)*u2)//u - (a*u2)//u = e, and P[N] = R[N] + s1(P[N-1]) (s1
    carries the terms of x(a,N) * vx = x(a+1,N+1) * w that need w again).
    Then (R*w)[N] = P[N] - P[N-1] + s0(P[N-1]), which telescopes to

        sum_{m<=N} (R*w)[m] = P[N] + sum_{m<N} s0(P[m]),

    so level N+1 is P[N] plus a running sum of s0 parts.

    Each level is its own dict, not changed once emitted.  A level copied
    and updated is rebuilt when one of its entries vanished, so that it is
    as compact as a freshly built dict."""
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    carry = ctx.ceil_slope(alpha0 - k - 1) != ctx.ceil_slope(alpha0 - k)
    out: Rows = {}
    level: dict = {}
    pend: dict = {}    # P[N-1], then P[N]
    s0sum: dict = {}   # sum_{m<N} s0(P[m])
    for n in range(k, l - 1):
        row = rows.get(n, {})
        vanished = False
        if carry:
            prev, pend = pend, dict(row)
            for a, c in prev.items():
                b = a + 1
                part = pend if (b * u2) // u - (a * u2) // u else s0sum
                v = part.get(b, 0) + c
                if p:
                    v %= p
                if v:
                    part[b] = v
                else:
                    del part[b]
                    vanished = vanished or part is pend
            level, row = dict(pend) if s0sum else pend, s0sum
        else:
            level = dict(level)
        for a, c in row.items():
            v = level.get(a, 0) + c
            if p:
                v %= p
            if v:
                level[a] = v
            else:
                del level[a]
                vanished = True
        if vanished:
            level = dict(level.items())
        if level:
            out[n + 1] = level
    return out


def _z_rows_base(ctx: AlgebraContext, l: int, alpha: int, n: int,
                 cursor: dict) -> tuple[Rows, int]:
    """Expansion rows of z(alpha0, n) with alpha0 = alpha mod u, and the
    column shift to apply.

    cursor is the caller's working state for one truncation level l: it
    maps alpha0 to (k, rows of z(alpha0, k)) for the newest expansion.  A
    lookup at n = k is a hit; above k the rows are stepped up through
    z(alpha0, k+1) = z(alpha0, k) * w^d_k * x/(1-x); below k, or with no
    entry, they are built from scratch.  The result becomes the newest
    expansion, and every expansion made is checked to be exactly
    x(alpha0, n) at level n, with its tail strictly above level n.
    """
    alpha0 = alpha % ctx.u
    start, rows = cursor.get(alpha0, (n + 1, None))
    if start != n:
        if start > n:
            rows = _z_full_rows(ctx, l, alpha0, n)
        for k in range(start, n):
            rows = _z_step_rows(ctx, l, alpha0, k, rows)
        if rows.get(n) != {alpha0: 1}:
            raise InconsistencyError(f"z({alpha0}, {n}) is not 1 * x({alpha0}, {n}) at level {n}")
        if min(rows) != n:
            raise InconsistencyError(f"z({alpha0}, {n}) has a tail below level {n}")
        cursor[alpha0] = (n, rows)
    return rows, alpha - alpha0


def z_element(ctx: AlgebraContext, l: int, alpha: int, n: int) -> AlgebraElement:
    """Expansion of z(alpha, n) in the x-basis: leading coefficient 1 at
    (alpha, n), tail strictly above level n."""
    if not 0 <= n < l:
        raise LevelError(f"basis level {n} outside [0, {l})")
    zrows, shift = _z_rows_base(ctx, l, alpha, n, {})
    p = ctx.field.characteristic
    rows: Rows = {}
    for m, row in zrows.items():
        _radd_row(rows, m, row, None, p, shift)
    return AlgebraElement(ctx, l, rows)


# ---------------------------------------------------------------------------
# Window reduction into the two chart ideals


@dataclass
class OverlapGaps:
    """Gap residuals of a restriction window: rows[i] maps (alpha, n) to the
    nonzero x-basis coefficients of z - x at overlap i, by ascending level,
    then column."""

    rows: list

    @property
    def gap_residual(self) -> dict:
        """All rows as one map {(i, alpha, n): coeff}."""
        return {(i, a, n): c for i, row in enumerate(self.rows) for (a, n), c in row.items()}


def subspace_decompose(
    ctx: AlgebraContext, ct: ConeTables, m: int, l: int, overlaps: list, policy: str = "A",
) -> OverlapGaps:
    """Greedy ascending-level reduction of the differences z(alpha, n) -
    x(alpha, n), one per overlap (alpha, n) of the window [m, l), into
    A(m,l) + B(m,l) + gaps.

    At each level, coefficients at first-cone positions are absorbed as x-basis
    terms, second-cone positions as z-basis terms (subtracting the full z
    tail from the residual), overlap positions per the routing policy, and
    gap positions into the residual; what the gap positions take is the
    result.  All rows are reduced together in one sweep (_overlap_gap_rows).
    """
    if policy not in ("A", "B"):
        raise RangeError(f"policy must be 'A' or 'B', got {policy!r}")
    return OverlapGaps(_overlap_gap_rows(ctx, ct, m, l, overlaps, policy))


def _slot_width(p: int, visits: int) -> int:
    """Bits per packed coefficient slot in characteristic p.  A slot gets
    less than p from its row's seed and at most (p-1)^2 from each of at most
    `visits` second-cone positions, and is reduced only when it is read."""
    return (p - 1 + visits * (p - 1) ** 2).bit_length()


def _slots(v: int, offsets: list, mask: int) -> list:
    """The unreduced slot values of a packed entry, one per offset."""
    return [(v >> s) & mask for s in offsets]


def _overlap_gap_rows(
    ctx: AlgebraContext, ct: ConeTables, m: int, l: int, overlaps: list, policy: str,
) -> list[dict]:
    """Gap residuals of z(alpha, n) - x(alpha, n) on [m, l), one dict
    {(alpha, n): coeff} per overlap (alpha, n), in one ascending-level sweep.

    The body of subspace_decompose, run on all rows together.
    Row i's z-tail enters the residual when the sweep reaches its level, and
    each second-cone position is reduced once for all rows, walking its
    z-tail once.  Cone membership comes from the two per-level thresholds: a
    residual column alpha >= 0 is in the first cone iff alpha >=
    min_pa_col(n), in the second iff alpha <= max_pb_col(n).

    In characteristic p a residual entry packs the rows' coefficients into
    one int, row i in the bits from width*i on, with width from _slot_width;
    slots stay nonnegative (c*z is subtracted as (p - c)*z) and are reduced
    mod p when the position is read, which happens once, since z-tails reach
    only higher levels.  Rationals are not packed: each row runs its own
    sweep with a scalar coefficient, added through _radd_row.
    """
    p = ctx.field.characteristic
    if not p and len(overlaps) > 1:
        return [_overlap_gap_rows(ctx, ct, m, l, [pos], policy)[0] for pos in overlaps]
    # Second-cone positions with a nonnegative column at level n number at
    # most n + 1, and each is visited at most once.
    visit_bound = (l * (l + 1) - m * (m + 1)) // 2
    width = _slot_width(p, visit_bound) if p else 0
    mask = (1 << width) - 1
    seeds: dict = {}
    for i, (alpha, n) in enumerate(overlaps):
        if not m <= n < l:
            raise LevelError(f"overlap ({alpha}, {n}) outside the window [{m}, {l})")
        seeds.setdefault(n, []).append((i, alpha))
    residual: Rows = {}
    rows: list[dict] = [{} for _ in overlaps]
    live: list[int] = []      # rows seeded so far ...
    offsets: list[int] = []   # ... and their slot offsets
    visits = 0
    cursor: dict = {}   # this sweep's z-expansions, one per alpha mod u

    def add_tail(alpha: int, n: int, mult) -> None:
        # residual += mult * (z(alpha, n) without its leading term at level n)
        zrows, shift = _z_rows_base(ctx, l, alpha, n, cursor)
        for zn, zrow in zrows.items():
            if zn == n:
                continue
            if not p:
                _radd_row(residual, zn, zrow, None if mult == 1 else mult, 0, shift)
                continue
            lvl = residual.get(zn)
            if lvl is None:
                lvl = residual[zn] = {}
            for a, s in zrow.items():
                a += shift
                lvl[a] = lvl.get(a, 0) + s * mult

    for n in range(m, l):
        for i, alpha in seeds.get(n, ()):
            live.append(i)
            offsets.append(width * i)
            add_tail(alpha, n, 1 << (width * i))
        row = residual.pop(n, None)
        if not row:
            continue
        cols = sorted(row)
        if cols[0] < 0:
            raise InconsistencyError(f"residual column {cols[0]} < 0 at level {n}")
        col_a = ct.min_pa_col(n)
        col_b = ct.max_pb_col(n)
        for alpha in cols:
            if alpha >= col_a and (policy == "A" or alpha > col_b):
                continue
            v = row[alpha]
            if not v:
                continue
            cs = [c % p for c in _slots(v, offsets, mask)] if p else [v]
            if alpha <= col_b:
                if not any(cs):
                    continue
                visits += 1
                if visits > visit_bound:
                    raise InconsistencyError(
                        f"window [{m}, {l}) visited more than {visit_bound} "
                        "second-cone positions")
                if p:
                    add_tail(alpha, n, sum((-c % p) << s for c, s in zip(cs, offsets)))
                else:
                    add_tail(alpha, n, -v)
            else:
                for i, c in zip(live, cs):
                    if c:
                        rows[i][(alpha, n)] = c
    if residual:
        raise NotInF(f"window sweep left a residual at levels {sorted(residual)}")
    return rows


# ---------------------------------------------------------------------------
# Debug dump


def dump_element(e: AlgebraElement) -> str:
    """Lines 'alpha n coeff' sorted by (n, alpha); coeff as integer or p/q."""
    lines = []
    for n in sorted(e.rows):
        row = e.rows[n]
        for a in sorted(row):
            lines.append(f"{a} {n} {coeff_str(row[a])}")
    return "\n".join(lines)
