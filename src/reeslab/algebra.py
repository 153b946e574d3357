"""Exact arithmetic in the truncated section algebra.

Elements live in the quotient of the section ring by the ideal of the
truncation level l and are stored in the canonical monomial basis, indexed by
(column alpha, level n): the basis element at (alpha, n) is
x(alpha, n) = v^alpha * w^ceil(alpha*ubar) * x^n with w = 1 - x + v*x.  A
second family, z(alpha, n) = v^alpha * w^ceil((alpha-n)*ubar) * (x + x^2 +
...)^n, spans the other affine chart; its expansion is unitriangular against
the x-basis (leading term at (alpha, n), tail strictly above level n).

Every z-expansion, and every power of the chart transition unit xi =
(1-x)^u * w^(-u2), has one binomial series per column.  With alpha0 in
[0, u), f_i = floor((alpha0+i)*u2/u) - floor(alpha0*u2/u) and delta =
ceil((alpha0-n)*ubar) - ceil(alpha0*ubar) >= 0,

    z(alpha0, n) = sum_i c_i * x(alpha0+i, n+i) * (1-x)^(h_i - n),
    h_i = delta + f_i - i,   c_i = C(delta + f_(i-1), i),

with f_(-1) = 0, so c_0 = 1.  Derivation: z(alpha0, n) = x(alpha0, 0) *
w^delta * x^n * (1-x)^-n, and with t = vx/(1-x), w = (1-x)(1+t) and
x(a, i) * t = x(a+1, i+1) * w^(f_(i+1)-f_i) / (1-x).  So x(alpha0, 0) *
w^delta has the form sum_i c_i * x(alpha0+i, i) * (1-x)^(h_i), with c = (1)
at delta = 0.  One more factor w multiplies each column by (1-x)(1+t): the
1 keeps c_i in place, and t carries it to column i+1, taking a further
(1+t) along where f steps up.  So raising delta by one is a single carry
pass, c'_i = c_i + q_(i-1), with q_i = c'_i where f_i = f_(i-1) + 1 and q_i
= c_i elsewhere (_z_carry).  The closed form is that pass's solution by
Pascal's rule.  At delta = 0 it is c = (1).  With N = delta + f_(i-1),
where f steps up at i-1, q_(i-1) = c'_(i-1) = C(delta+1 + f_(i-2), i-1) =
C(N, i-1); elsewhere q_(i-1) = c_(i-1) = C(delta + f_(i-2), i-1) = C(N,
i-1) too, as f_(i-2) = f_(i-1).  So c'_i = C(N, i) + C(N, i-1) = C(N+1, i).
A column shift by a multiple of u is a plain shift of every term.

The form of x(alpha0, 0) * w^delta holds unchanged at delta < 0, with the
generalized binomials C(N, i) = N(N-1)...(N-i+1)/i!: Pascal's rule holds
for them, so w times the form at any delta is the form at delta + 1, and
as w is a unit, induction down from c = (1) at delta = 0 gives w^delta.
At delta < 0 the coefficients need not end.  xi^m = x(0, 0) * w^(-u2*m) *
(1-x)^(u*m) is the case alpha0 = 0, delta = -u2*m with every column shifted
by (1-x)^(u*m): column i holds C(f_(i-1) - u2*m, i) * (1-x)^(h_i + u*m)
from level i on.  One loop (_spell_columns) spells z and xi as rows; the
product route to xi through the inverse of w lives in tests/oracles.py.

The window sweep is the one computation that keeps a cursor, a dict from
alpha mod u to its newest state: walking the levels upwards, it starts a
state once from the closed form at the delta first asked for (_z_start) and
only ever carries it forward to a higher one; a request behind the cursor
raises.  The states live only as long as the sweep.  Every other caller
reads z(alpha, n) through _z_rows_base, which starts it from the closed
form at its own delta and spells the columns out as rows.

Products reduce to the x-basis through the ceiling-defect rule
x(a,n)*x(a',n') = x(a+a', n+n') * w^delta with delta in {0, 1}.

Division by a unit b = c + b', c a nonzero constant and b' on levels >= n0
>= 1, is one ascending pass (divide): with r = a, level n of the quotient
is q_n = c^-1 * r_n, and q * b' is subtracted from r in blocks of levels.
Every term of q_n * b' lies at level n + n0 or above (the defect rule and w
never lower a level), so a block of quotient rows that starts at level k
may run up to level k + n0 - 1: each r_n is final when it is read, once
the blocks below are subtracted, and r is 0 below l at the end.  The last
block lands at or past l and is never multiplied.  Each block is one call
of multiply's own rule (_multiply_rows), and invert_unit(e) is divide(1, e).
c^-1 comes from FieldSpec.inv, so in characteristic 0 the quotient of int
elements by a unit with c = +-1 is int, and any other c makes it rational.
The factorization search divides out each chart unit this way; the
geometric series c^-1 * sum g^k for the inverse of c(1 - g) lives in
tests/oracles.py.

subspace_decompose is the one two-cone reduction: it reduces the overlap
differences z - x of a restriction window into the two chart ideals, all rows
in one ascending sweep, in its own body.  It takes the window and its overlap
positions as plain arguments, and routes every residual column by one
per-level table of first-cone tops, which is where the policy enters.  The
independent routes live in tests/oracles.py: the per-element reduction with
its certificate checks the sweep, and the Laurent-polynomial model
(coefficients of v^alpha x^n) checks products.

Coefficients are added, scaled and reduced mod p in two helpers: _radd adds
one term and _radd_row a scaled row.  The window engine's loops, the carry
pass and the sweep's tail walk, reduce on their own, which keeps them free of
a call per entry; binomials are reduced as they are made.

Contexts and elements are immutable values; all operations are pure.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import (
    ContextError,
    ContextMismatch,
    InconsistencyError,
    LevelError,
    NotAUnit,
    NotInF,
    RangeError,
    _non_int_message,
)
from .fields import FieldSpec
from .geometry import ConeTables

Rows = dict  # level -> {column -> coefficient}


@dataclass(frozen=True)
class AlgebraContext:
    """Slope data ubar = -u2/u plus the base field.  Contexts and elements
    are immutable values.  Each z-expansion starts from the closed form of
    its column coefficients, and only a window sweep keeps one past its
    call, so a context needs no cache of expansions."""

    u2: int
    u: int
    field: FieldSpec

    def __post_init__(self):
        u2, u = self.u2, self.u
        if u <= 0 or u2 < 0 or u2 > u or math.gcd(u2, u) != 1:
            raise ContextError(f"invalid slope pair ({u2}, {u})")

    def ceil_slope(self, alpha: int) -> int:
        """ceil(alpha * ubar) with exact integer semantics."""
        return -((alpha * self.u2) // self.u)


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


def _radd_row(rows: Rows, n: int, src: dict, c, p: int) -> None:
    """rows[n] += c * src, c None meaning 1, reduced mod p when p > 0 and
    vanishing entries dropped.  A product is only formed when c is given and
    a sum only when the slot holds a value."""
    row = rows.get(n)
    if row is None:
        row = rows[n] = {}
    for a, v in src.items():
        if c is not None:
            v = v * c
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

    def support(self) -> list[tuple[int, int]]:
        return [(a, n) for n in sorted(self.rows) for a in sorted(self.rows[n])]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.ctx == other.ctx and self.level == other.level
                and self.rows == other.rows)

    def __repr__(self):
        terms = ", ".join(f"({a},{n}):{self.rows[n][a]}"
                          for (a, n) in self.support()[:8])
        more = "" if len(self.support()) <= 8 else ", ..."
        return f"<element l={self.level} {{{terms}{more}}}>"


def _check_same(e1: AlgebraElement, e2: AlgebraElement) -> None:
    if e1.ctx != e2.ctx or e1.level != e2.level:
        raise ContextMismatch(
            f"incompatible operands: {e1.ctx}@{e1.level} vs {e2.ctx}@{e2.level}")


# ---------------------------------------------------------------------------
# Basis elements and generic multiplication


def x_basis(ctx: AlgebraContext, l: int, alpha: int, n: int) -> AlgebraElement:
    if not 0 <= n < l:
        raise LevelError(f"basis level {n} outside [0, {l})")
    return AlgebraElement(ctx, l, {n: {alpha: 1}})


def one(ctx: AlgebraContext, l: int) -> AlgebraElement:
    return x_basis(ctx, l, 0, 0)


def _times_w_rows(ctx: AlgebraContext, l: int, out: Rows, pend: Rows) -> None:
    """out += pend * w, consuming a nonempty pend, using w = 1 - x + vx and
    x(a,n)*vx = x(a+1,n+1)*w^d with d = ceil(a*ubar) - ceil((a+1)*ubar).
    The walk starts at the lowest pending level and stops once nothing is
    pending, since a level only ever passes terms to the next one."""
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    for n in range(min(pend), l):
        row = pend.pop(n, None)
        if row is None:
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
        if not pend:
            break


def _multiply_rows(ctx: AlgebraContext, l: int, out: Rows, rows1: Rows, pairs2: list) -> None:
    """out += rows1 * rows2 in the level-l truncation, by the ceiling-defect
    rule, rows2 given as its (level, row) pairs sorted by level: the
    products with defect 1 are collected and multiplied by w once."""
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    needw: Rows = {}
    for n1, row1 in rows1.items():
        for n2, row2 in pairs2:
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
                        _radd(out, n, a, c, p)
                    else:
                        _radd(needw, n, a, c, p)
    if needw:
        _times_w_rows(ctx, l, out, needw)


def multiply(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Exact product in the truncation, canonical x-basis form.  When e2 is
    a unit 1 + r, its level-0 row exactly {0: 1}, the product starts from a
    copy of e1's rows and adds e1 * r, so no term is multiplied by 1."""
    _check_same(e1, e2)
    pairs2 = sorted(e2.rows.items())
    rows: Rows = {}
    if pairs2 and pairs2[0] == (0, {0: 1}):
        rows = {n: dict(row) for n, row in e1.rows.items()}
        del pairs2[0]
    _multiply_rows(e1.ctx, e1.level, rows, e1.rows, pairs2)
    return AlgebraElement(e1.ctx, e1.level, rows)


# ---------------------------------------------------------------------------
# Power series in x


def _series(j: int, l: int, p: int) -> list[int]:
    """Coefficients of (1-x)^j mod x^l, j may be negative: the exact
    integers, reduced mod p when p > 0.  One recurrence, c_(i+1) = c_i *
    (i - j) / (i + 1); at j >= 0 it reaches 0 past x^j, where the list ends."""
    out = [1]
    c = 1
    for i in range(min(j, l - 1) if j >= 0 else l - 1):
        c = c * (i - j) // (i + 1)
        out.append(c)
    return [c % p for c in out] if p else out


# ---------------------------------------------------------------------------
# Units


def divide(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a * b^-1 for a unit b whose level-0 part is a nonzero constant c, in
    one ascending pass over the remainder r = a: level n of the quotient is
    c^-1 * r_n.  With n0 >= 1 the lowest level of b - c, a block holds the
    quotient rows from its first level k below k + n0; their product with
    b - c lies at k + n0 or above, and is subtracted from r by one
    _multiply_rows call before level k + n0 is read.  So dividing over l
    levels makes at most ceil(l / n0) such calls.  In characteristic 0 int
    a and b with c = +-1 give an int quotient; any other c gives
    Fractions."""
    _check_same(a, b)
    ctx, l = a.ctx, a.level
    row0 = b.rows.get(0, {})
    if set(row0) != {0}:
        raise NotAUnit("level-0 component is not a nonzero multiple of the identity")
    cinv = ctx.field.inv(row0[0])
    p = ctx.field.characteristic
    tail: Rows = {}   # -(b - c)
    for n, row in b.rows.items():
        if n:
            _radd_row(tail, n, row, -1, p)
    tail = sorted(tail.items())
    n0 = tail[0][0] if tail else l
    rest = {n: dict(row) for n, row in a.rows.items()}
    quot: Rows = {}
    block: Rows = {}   # the quotient rows not yet subtracted, by ascending level
    for n in range(l):
        if block and n >= next(iter(block)) + n0:
            _multiply_rows(ctx, l, rest, block, tail)
            block = {}
        row = rest.pop(n, None)
        if row:
            _radd_row(quot, n, row, cinv, p)
            block[n] = quot[n]
    return AlgebraElement(ctx, l, quot)


def invert_unit(e: AlgebraElement) -> AlgebraElement:
    """Two-sided inverse of a unit whose level-0 part is a nonzero constant:
    1 divided by it."""
    return divide(one(e.ctx, e.level), e)


# ---------------------------------------------------------------------------
# The second basis


def _z_start(ctx: AlgebraContext, alpha0: int, delta: int, width: int) -> tuple:
    """The state of column alpha0 at w-exponent delta over width columns,
    from the closed form c_i = C(delta + f_(i-1), i); delta may be negative.

    A state is (delta, c, e, g, cols): c the coefficients (columns past its
    end are 0), e_i whether f steps up at i, g_i = f_i - i, and cols the
    nonzero columns as (i, c_i, h_i), with h_i = delta + g_i.  The binomials
    are made as exact integers along C(N, i) = C(N, i-1) * (N-i+1) / i, with
    N one higher where f steps up, and reduced mod p as they are made.  At
    delta >= 0, c ends once N < i; at delta < 0 it may fill the width.  A
    zero means 0 <= N < i, and N never falls while N - i never grows, so at
    any delta the first exact zero ends c."""
    u2, u, p = ctx.u2, ctx.u, ctx.field.characteristic
    f0 = (alpha0 * u2) // u
    f = [((alpha0 + i) * u2) // u - f0 for i in range(width)]
    e = [i > 0 and f[i] != f[i - 1] for i in range(width)]
    c, b, top = [1], 1, delta   # b = C(top, i - 1), top = delta + f_(i-2)
    for i in range(1, width):
        if e[i - 1]:
            top += 1
            b = b * top // i
        else:
            b = b * (top - i + 1) // i
        if not b:
            break
        c.append(b % p if p else b)
    g = [fi - i for i, fi in enumerate(f)]
    return delta, c, e, g, [(i, ci, delta + g[i]) for i, ci in enumerate(c) if ci]


def _z_carry(p: int, state: tuple, delta: int, width: int) -> tuple:
    """A state raised to the higher w-exponent delta over its first width
    columns, one carry pass per step (Pascal's rule on the closed form):
    c'_i = c_i + q_(i-1), with q_i = c'_i where f steps up at i and q_i =
    c_i elsewhere, reduced mod p as it goes.  A pass ends where its carry
    does.  The state is not modified."""
    d, c, e, g, _ = state
    c, e, g = c[:width], e[:width], g[:width]
    for _ in range(delta - d):
        q, folded = 0, []
        for ci, ei in zip(c, e):
            v = (ci + q) % p if p else ci + q
            q = v if ei else ci
            folded.append(v)
        for ei in e[len(c):]:
            if not q:
                break
            folded.append(q)
            if not ei:
                q = 0
        c = folded
    return delta, c, e, g, [(i, ci, delta + g[i]) for i, ci in enumerate(c) if ci]


def _z_columns(ctx: AlgebraContext, alpha0: int, n: int, width: int, cursor: dict) -> tuple:
    """The state (see _z_start) of z(alpha0, n) over its first width
    columns, read through an upward walk's cursor.

    cursor maps alpha0 to its newest state.  With none, the state is
    started at the delta of z(alpha0, n) from the closed form (_z_start); a
    state below that delta is carried forward to it (_z_carry), and one at
    it is read as it is.  The cursor only walks forward: a state above that
    delta, or with fewer than width columns, raises InconsistencyError.  The
    result becomes the newest state."""
    delta = ctx.ceil_slope(alpha0 - n) - ctx.ceil_slope(alpha0)
    if delta < 0:
        raise InconsistencyError(f"negative w exponent {delta} for z({alpha0}, {n})")
    state = cursor.get(alpha0)
    if state is None:
        state = _z_start(ctx, alpha0, delta, width)
    elif state[0] > delta or len(state[2]) < width:
        raise InconsistencyError(f"z({alpha0}, {n}) over {width} columns is behind the "
                                 f"cursor's delta {state[0]} over {len(state[2])}")
    elif state[0] < delta:
        state = _z_carry(ctx.field.characteristic, state, delta, width)
    if state[1][0] != 1:
        raise InconsistencyError(f"z({alpha0}, {n}) has leading coefficient {state[1][0]}, not 1")
    cursor[alpha0] = state
    return state


def _spell_columns(ctx: AlgebraContext, l: int, cols: list, alpha: int, n: int,
                   shift: int) -> Rows:
    """Rows of the columns cols of a state (see _z_start), placed at column
    alpha and level n: column alpha + i holds c_i * (1-x)^(h_i + shift) from
    level n + i on, below l."""
    p = ctx.field.characteristic
    rows: Rows = {}
    for i, ci, h in cols:
        base = n + i
        for k, s in enumerate(_series(h + shift, l - base, p)):
            if s:
                row = rows.get(base + k)
                if row is None:
                    row = rows[base + k] = {}
                row[alpha + i] = ci * s % p if p else ci * s
    return rows


def _z_rows_base(ctx: AlgebraContext, l: int, alpha: int, n: int) -> Rows:
    """Expansion rows of z(alpha, n), started from the closed form at its
    own delta.

    The state of z(alpha0, n), alpha0 = alpha mod u, over l - n columns,
    spelled at column alpha and level n with shift -n.  Every expansion is
    checked to be exactly x(alpha, n) at level n."""
    cols = _z_columns(ctx, alpha % ctx.u, n, l - n, {})[4]
    rows = _spell_columns(ctx, l, cols, alpha, n, -n)
    if rows.get(n) != {alpha: 1}:
        raise InconsistencyError(f"z({alpha}, {n}) is not 1 * x({alpha}, {n}) at level {n}")
    return rows


def xi_power(ctx: AlgebraContext, l: int, m: int) -> AlgebraElement:
    """m-th power of the chart transition unit (1-x)^u * w^(-u2), from the
    closed form of x(0, 0) * w^delta at delta = -u2*m (_z_start), spelled
    with shift u*m: column i holds C(f_(i-1) - u2*m, i) * (1-x)^(h_i + u*m)
    from level i on.  Checked to be exactly 1 at level 0."""
    if type(l) is not int:
        raise LevelError(_non_int_message(l=l))
    if type(m) is not int:
        raise RangeError(_non_int_message(m=m))
    if l < 1:
        raise LevelError("truncation level must be >= 1")
    rows = _spell_columns(ctx, l, _z_start(ctx, 0, -ctx.u2 * m, l)[4], 0, 0, ctx.u * m)
    if rows.get(0) != {0: 1}:
        raise InconsistencyError(f"xi^{m} is not 1 at level 0")
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


def _slot_width(p: int, visits: int) -> int:
    """Bits per packed coefficient slot in characteristic p.  A slot gets
    less than p from its row's seed and at most (p-1)^2 from each of at most
    `visits` second-cone positions, and is reduced only when it is read."""
    return (p - 1 + visits * (p - 1) ** 2).bit_length()


def _slots(v: int, offsets: list, mask: int) -> list:
    """The unreduced slot values of a packed entry, one per offset."""
    return [(v >> s) & mask for s in offsets]


def subspace_decompose(
    ctx: AlgebraContext, ct: ConeTables, m: int, l: int, overlaps: list, policy: str = "A",
) -> OverlapGaps:
    """Gap residuals of z(alpha, n) - x(alpha, n) on the window [m, l), one
    row per position (alpha, n) of overlaps, in one greedy ascending-level
    sweep into A(m,l) + B(m,l) + gaps.

    Every residual column routes by one per-level table, top(n) =
    min_pa_col(n) under policy A and max(min_pa_col(n), max_pb_col(n) + 1)
    under policy B.  A column >= top(n) is absorbed by the first chart as an
    x-basis term.  A column <= max_pb_col(n) below top(n) is a second-cone
    position, absorbed as a z-basis term, which adds the live band (below)
    of its z-tail to the residual.  Any other column is a gap, and what the
    gaps take is the result.  Row i's z-tail enters the residual when the
    sweep reaches its level, and each second-cone position is reduced once
    for all rows, walking its z-tail once.

    A tail is walked in its column form (_z_columns): column alpha + i with
    c_i != 0 holds c_i * (1-x)^(h_i - n) from level n + i on, and only the
    levels N of its live band are added to the residual:

        first N with top(N) > alpha + i  <=  N  <  alpha + i - deep.

    Below the band the entry is one the sweep drops as first cone; at and
    above it, one in the deep cut.

    The deep cut.  Every term (b, k) of z(alpha, n) has b - k <= alpha - n
    and b >= alpha.  Multiplying by x or by 1/(1-x) raises the level alone,
    and w = 1 - x + vx moves a term to (a, n), (a, n+1) or (a+1, n+1), times
    powers of w again; none of these raises column - level or lowers the
    column.  So let deep = min over k in [m, l) of max_pb_col(k) - k.  An
    entry at (alpha, n) with alpha - n <= deep is in the second cone, and so
    is every term of its z-tail, and of theirs, at every level of the
    window: no gap ever receives anything from it.

    The reach.  Term k of column i lands at level n + i + k, which the deep
    cut keeps below alpha + i - deep; so k < alpha - n - deep for every term
    a tail adds.  A visit has alpha <= max_pb_col(n), and a seed may sit
    anywhere, so no series needs more than reach = max(max_pb_col(n) - n
    over the window, alpha - n over the seeds) - deep terms, nor more than
    l - m.  Each (1-x)^j is made that long, once per sweep, and a tail that
    would read past it raises InconsistencyError.

    The first-cone cut.  An entry with column >= top(N) is dropped without
    being read, and nothing else comes of it.  A column is first live where
    top first exceeds it; top is monotone under policy A, and under policy
    B a level after that where top is back at or below the column is still
    dropped when the level is read.  Since no tail lowers a column, the
    seeds and the visited positions are the only places a negative column
    needs checking.

    In characteristic p a residual entry packs the rows' coefficients into
    one int, row i in the bits from width*i on, with width from _slot_width;
    slots stay nonnegative (c*z is subtracted as (p - c)*z) and are reduced
    mod p when the position is read, which happens once, since z-tails reach
    only higher levels.  Rationals are not packed: with more than one
    position, each runs its own sweep with that position alone, all within
    this one call.
    """
    if type(m) is not int or type(l) is not int:
        raise LevelError(_non_int_message(m=m, l=l))
    if not 0 <= m < l:
        raise LevelError(f"need 0 <= m < l, got m={m}, l={l}")
    if policy not in ("A", "B"):
        raise RangeError(f"policy must be 'A' or 'B', got {policy!r}")
    if not ctx.field.characteristic and len(overlaps) > 1:
        return OverlapGaps([_sweep(ctx, ct, m, l, [pos], policy)[0] for pos in overlaps])
    return OverlapGaps(_sweep(ctx, ct, m, l, overlaps, policy))


def _sweep(ctx: AlgebraContext, ct: ConeTables, m: int, l: int, overlaps: list,
           policy: str) -> list:
    """The rows of subspace_decompose on a checked window, in one sweep."""
    p = ctx.field.characteristic
    cols_a = [ct.min_pa_col(n) for n in range(m, l)]
    cols_b = [ct.max_pb_col(n) for n in range(m, l)]
    tops = cols_a if policy == "A" else [max(a, b + 1) for a, b in zip(cols_a, cols_b)]
    depths = [col_b - n for n, col_b in enumerate(cols_b, m)]
    deep = min(depths)
    # first[a]: the first level at which column a is live, for the columns
    # below the largest top(N) of the window; no later column ever is.
    first: list[int] = []
    for n, top in enumerate(tops, m):
        first.extend([n] * (top - len(first)))
    ncols = len(first)
    # The length of every (1-x)^j series of this sweep (the reach above).
    reach = min(l - m, max(depths + [alpha - n for alpha, n in overlaps]) - deep)
    # Only the non-deep second-cone positions with a nonnegative column are
    # visited, each at most once.
    visit_bound = sum(max(0, col_b - max(0, n + deep + 1) + 1)
                      for n, col_b in enumerate(cols_b, m))
    width = _slot_width(p, visit_bound) if p else 0
    mask = (1 << width) - 1
    seeds: dict = {}
    for i, (alpha, n) in enumerate(overlaps):
        if not m <= n < l:
            raise LevelError(f"overlap ({alpha}, {n}) outside the window [{m}, {l})")
        if alpha < 0:
            raise InconsistencyError(f"residual column {alpha} < 0 at level {n}")
        seeds.setdefault(n, []).append((i, alpha))
    residual = [{} for _ in range(m, l)]   # level - m -> {column: coeff}
    rows: list[dict] = [{} for _ in overlaps]
    live: list[int] = []      # rows seeded so far ...
    offsets: list[int] = []   # ... and their slot offsets
    visits = 0
    cursor: dict = {}   # this sweep's z-expansions, one per alpha mod u
    series: dict = {}   # j -> the nonzero terms of (1-x)^j, as (ks, values)
    terms: dict = {}    # (j, c) -> the same ks with the values of c * (1-x)^j

    def add_tail(alpha: int, n: int, mult) -> None:
        # residual += mult * (z(alpha, n) without its leading term at level
        # n), on the live band of each column: term k of column i lands at
        # level n + i + k, below alpha + i - deep and below l.
        # The reach bounds cap; the check keeps a change to the cuts from
        # dropping the terms past it silently.
        cap, room = alpha - deep - n, l - n
        if cap > room:
            cap = room
        elif cap > reach:
            raise InconsistencyError(
                f"z({alpha}, {n}) needs {cap} series terms, past the sweep's reach {reach}")
        # No column from ncols on is ever live.  Every seed and visit has
        # alpha >= n + deep, so span does not grow with n, and the cursor
        # only ever folds forward.
        span = min(room, ncols - n - deep)
        if span < 1:
            return
        for i, ci, h in _z_columns(ctx, alpha % ctx.u, n, span, cursor)[4]:
            a = alpha + i
            if a >= ncols:
                break
            lo = first[a] - n - i
            if lo < 1 and not i:
                lo = 1
            hi = room - i
            if hi > cap:
                hi = cap
            if lo >= hi:
                continue
            key = (h - n, ci)
            scaled = terms.get(key)
            if scaled is None:
                plain = series.get(h - n)
                if plain is None:
                    ks, vs = [], []
                    for k, s in enumerate(_series(h - n, reach, p)):
                        if s:
                            ks.append(k)
                            vs.append(s)
                    plain = series[h - n] = (ks, vs)
                ks, vs = plain
                # c * s stays nonzero mod a prime p, so the ks carry over.
                scaled = terms[key] = plain if ci == 1 else (
                    ks, [ci * s % p for s in vs] if p else [ci * s for s in vs])
            ks, vs = scaled
            start = bisect_left(ks, lo)
            stop = bisect_left(ks, hi, start)
            off = n + i - m
            for t in range(start, stop):
                lvl = residual[off + ks[t]]
                lvl[a] = lvl.get(a, 0) + vs[t] * mult

    for n in range(m, l):
        for i, alpha in seeds.get(n, ()):
            live.append(i)
            offsets.append(width * i)
            add_tail(alpha, n, 1 << (width * i))
        row = residual[n - m]
        if not row:
            continue
        residual[n - m] = {}
        top = tops[n - m]
        col_b = cols_b[n - m]
        for alpha in sorted(row):
            if alpha >= top:
                continue
            v = row[alpha]
            cs = [c % p for c in _slots(v, offsets, mask)] if p else [v]
            if alpha <= col_b:
                if not any(cs):
                    continue
                if alpha < 0:
                    raise InconsistencyError(f"residual column {alpha} < 0 at level {n}")
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
    if any(residual):
        raise NotInF("window sweep wrote to a level it had already read")
    return rows


# ---------------------------------------------------------------------------
# Debug dump


def dump_element(e: AlgebraElement) -> str:
    """Lines 'alpha n coeff' sorted by (n, alpha); coeff as integer or p/q."""
    lines = []
    for n in sorted(e.rows):
        row = e.rows[n]
        for a in sorted(row):
            lines.append(f"{a} {n} {row[a]}")
    return "\n".join(lines)
