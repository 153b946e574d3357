"""Two-chart cohomology of truncated restriction windows and the
multiplicative unit-factorization search.

For a window of levels [m, l) the global sections and the obstruction space
are computed from a finite matrix: one row per overlap position k*(theta,
sigma) in the window, the gap residual of the difference z - x at that
position.  algebra.subspace_decompose reduces the differences of all
overlaps of the window through the greedy two-cone decomposition in one
ascending-level sweep; the per-element reduction it is tested against lives
in tests/oracles.py.  With r the rank over the base field,

    h0 = #overlaps - r,        h1 = #gaps - r,

and h0 - h1 must equal the sum of per-level Euler characteristics, which is
checked on every call.

decision.d_set alone spells the (r, j) witness windows of the characteristic-p
criteria and re-checks each with h0 > 0 in a second sweep under policy B;
decision.decide alone compares the two characteristic-0 criteria at m = 1.

Both engines route each residual position (alpha, n) to the first chart,
the second chart, an overlap or a gap by the per-level thresholds
ConeTables.min_pa_col and max_pb_col; the per-position test pa_member only
re-verifies a certificate the search found.  Each threshold is computed
when it is read and certified there by one pa_member or pb_member call (see
ConeTables).  The sweep reads both thresholds once per window, into one
per-level top under its policy (see algebra.subspace_decompose),
and bounds the live band of every z-tail column by them: an entry whose
column - level is at most the smallest max_pb_col(k) - k of the window stays
in the second cone with its whole z-tail, and an entry at or past top is
absorbed by the first chart, so the sweep adds neither to its residual.  Its
z-expansions come in column form, one binomial series per column (see
algebra).

The factorization search is one flat loop over one kind of stack entry: a
level n, the chart units taken so far and their running product P = u_a*u_b,
and the chart terms to take there.  Each pop multiplies P by the chart units
it builds (a chart without terms at the level builds none) and classifies
level n + 1, then pushes one continuation or, at the level's one overlap
(the only one the lattice law allows), its splits not yet tried; so no
recursion limit caps m*u and a backtrack is one pop.  It builds xi^m once,
in column form, and starts each z-expansion from its closed form
(_z_rows_base).  It divides nothing: after level n is taken, the residual
unit rho = xi^m / P is 1 + R with R on levels >= n + 1 (a gap ends the
branch, and every other term went into a chart unit), so xi^m = P*rho =
P + R + R*(P - 1), and R*(P - 1) starts at level n + 2, as a product never
lowers a level and P - 1 starts at level 1.  Hence rho_(n+1) = xi^m_(n+1) -
P_(n+1), the row each pop reads.  So in characteristic 0 every coefficient
stays int with no field inverse: xi^m and the z-expansions are int, and the
search only multiplies and subtracts, so the rows it reads, P and the units
are int.  u_a and u_b are kept as tuples of their chart units and
multiplied out only on success, for the certificate: multiply checks them
against xi^m, a route independent of the column form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    _radd_row,
    _z_rows_base,
    multiply,
    one,
    subspace_decompose,
    xi_power,
)
from .errors import (
    BudgetExceeded,
    ClaimViolation,
    InconsistencyError,
    LevelError,
    RangeError,
    _non_int_message,
)
from .fields import FieldSpec
from .geometry import (
    ConeTables,
    PeriodData,
    overlaps_and_gaps,
    pa_member,
)

DEFAULT_BRANCH_BUDGET = 10_000


def per_level_chi(ct: ConeTables, n: int) -> int:
    """Overlap count minus gap count at a single level, exactly."""
    if type(n) is not int:
        raise LevelError(_non_int_message(n=n))
    return ct.max_pb_col(n) - ct.min_pa_col(n) + 1


# ---------------------------------------------------------------------------
# Obstruction matrix


@dataclass
class ObstructionMatrix:
    """A window's obstruction matrix; its levels are CohomReport.m and .l."""

    overlaps: list
    gaps: list
    rows: list           # one gap-residual dict per overlap, in overlap order
    rank: int
    pivot_gaps: list


def _echelon_rank(rows, gaps, fld: FieldSpec):
    """Gaussian elimination over the field; gap order (level asc, column asc)
    fixes the pivot order.  Returns (rank, pivot positions)."""
    p = fld.characteristic
    index = {pos: i for i, pos in enumerate(gaps)}
    pivots: dict[int, dict] = {}
    for row in rows:
        work: dict[int, dict] = {}    # the row being reduced, under key 0
        _radd_row(work, 0, {index[pos]: c for pos, c in row.items()}, None, p)
        while work:
            vec = work[0]
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                _radd_row(pivots, lead, vec, fld.inv(vec[lead]), p)
                break
            _radd_row(work, 0, piv, -vec[lead], p)
            if lead in work.get(0, ()):
                raise InconsistencyError(
                    f"elimination left the pivot entry of gap {gaps[lead]} in the row")
    return len(pivots), [gaps[i] for i in sorted(pivots)]


@dataclass
class CohomReport:
    m: int
    l: int
    characteristic: int
    h0: int
    h1: int
    chi: int             # equal to the per-level sum, or cohomology_dims raises
    policy: str
    slack: int           # sigma, a field of the canonical report
    matrix: ObstructionMatrix

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "char": self.characteristic,
            "overlaps": [list(p) for p in self.matrix.overlaps],
            "gaps": [list(p) for p in self.matrix.gaps],
            "rank": self.matrix.rank,
            "h0": self.h0,
            "h1": self.h1,
            "chi": self.chi,
            "chi_independent": self.chi,
            "consistent": True,
            "pivot_gaps": [list(p) for p in self.matrix.pivot_gaps],
            "policy": self.policy,
            "slack": self.slack,
        }


def cohomology_dims(
    ctx: AlgebraContext,
    ct: ConeTables,
    pd: PeriodData,
    m: int,
    l: int,
    policy: str = "A",
) -> CohomReport:
    """Section and obstruction dimensions of the restriction window [m, l);
    overlaps_and_gaps, its first call, refuses bad levels with LevelError."""
    overlaps, gaps = overlaps_and_gaps(ct, pd, m, l)
    rows = subspace_decompose(ctx, ct, m, l, overlaps, policy=policy).rows
    rank, pivot_gaps = _echelon_rank(rows, gaps, ctx.field)
    h0 = len(overlaps) - rank
    h1 = len(gaps) - rank
    chi = h0 - h1
    chi_independent = sum(per_level_chi(ct, n) for n in range(m, l))
    if chi != chi_independent:
        raise InconsistencyError(
            f"window [{m}, {l}): h0-h1={chi} but per-level sum={chi_independent}")
    return CohomReport(
        m=m, l=l, characteristic=ctx.field.characteristic,
        h0=h0, h1=h1, chi=chi, policy=policy, slack=pd.sigma,
        matrix=ObstructionMatrix(
            overlaps=overlaps, gaps=gaps, rows=rows, rank=rank, pivot_gaps=pivot_gaps,
        ),
    )


# ---------------------------------------------------------------------------
# Unit factorization search


@dataclass
class FactorizationOutcome:
    success: bool
    m: int
    level: int
    unit_a: AlgebraElement | None = None
    unit_b: AlgebraElement | None = None
    obstruction: tuple | None = None      # (level, {(alpha, n): coeff})
    branches_explored: int = 0

    def to_dict(self) -> dict:
        out = {
            "kind": "A4",
            "m": self.m,
            "l": self.level,
            "success": self.success,
            "branches_explored": self.branches_explored,
        }
        if self.obstruction is not None:
            lvl, res = self.obstruction
            out["obstruction"] = {
                "level": lvl,
                "residual": [[a, n, str(c)] for (a, n), c in sorted(res.items())],
            }
        return out


def _coefficient_splits(fld: FieldSpec, c):
    """Free-parameter grid for an overlap coefficient: the whole prime field
    in characteristic p, the two one-sided routings in characteristic 0."""
    p = fld.characteristic
    if p:
        return [(ca, (c - ca) % p) for ca in range(p)]
    return [(c, 0), (0, c)]


def factorization_search(
    ctx: AlgebraContext,
    ct: ConeTables,
    pd: PeriodData,
    m: int,
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
) -> FactorizationOutcome:
    """Try to write the m-th transition-unit power as a product of units of
    the two chart subrings at truncation level m*u.

    One loop pops one kind of entry: it counts a split against the branch
    budget when it is taken, applies the entry's chart terms at its level,
    and classifies the next level in full.  A nonzero gap coefficient ends
    the current branch, and the first such obstruction in depth-first order
    is the one reported.  A level's one overlap coefficient splits over a
    finite grid (_coefficient_splits): the splits go on the stack last
    first, so the walk takes them in grid order.  A successful
    factorization is re-verified by multiplying its two units out against
    the one xi^m the search read its levels from.
    """
    if type(m) is not int or type(branch_budget) is not int:
        raise RangeError(_non_int_message(m=m, branch_budget=branch_budget))
    if m < 1:
        raise RangeError("m must be a positive integer")
    if branch_budget < 1:
        raise RangeError(f"branch_budget must be >= 1, got {branch_budget}")
    l = m * ctx.u
    fld = ctx.field
    target = xi_power(ctx, l, m)
    branches, obstruction = 0, None
    # An entry (n, units_a, units_b, prod, fa, fb, is_branch) takes the chart
    # terms fa, fb at level n: their chart units join the tuples units_a and
    # units_b and multiply into prod, the running product of all of them.  It
    # then classifies level n + 1 of xi^m - prod; is_branch marks a split.
    stack = [(0, (), (), one(ctx, l), {}, {}, False)]
    while stack:
        n, units_a, units_b, prod, fa, fb, is_branch = stack.pop()
        if is_branch:
            branches += 1
            if branches > branch_budget:
                raise BudgetExceeded(
                    f"factorization search for m={m} exceeded "
                    f"{branch_budget} branches")
        if fa:
            one_fa = AlgebraElement(ctx, l, {0: {0: 1}, n: fa})
            prod, units_a = multiply(prod, one_fa), units_a + (one_fa,)
        if fb:
            fb_rows = {0: {0: 1}}
            for alpha, c in fb.items():
                for zn, zrow in _z_rows_base(ctx, l, alpha, n).items():
                    _radd_row(fb_rows, zn, zrow, c, fld.characteristic)
            one_fb = AlgebraElement(ctx, l, fb_rows)
            prod, units_b = multiply(prod, one_fb), units_b + (one_fb,)
        n += 1
        if n == l:
            break
        row = dict(target.rows.get(n, {}))
        _radd_row({n: row}, n, prod.rows.get(n, {}), -1, fld.characteristic)
        fa, fb, gap_terms, overlap = {}, {}, {}, None
        col_a = ct.min_pa_col(n)
        col_b = ct.max_pb_col(n)
        for alpha in sorted(row):
            c = row[alpha]
            in_a = alpha >= col_a
            in_b = alpha <= col_b
            if in_a and in_b:
                if n % pd.sigma or alpha != (n // pd.sigma) * pd.theta:
                    raise ClaimViolation(
                        f"overlap at ({alpha}, {n}) off the "
                        f"({pd.theta}, {pd.sigma}) lattice")
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
            stack.append((n, units_a, units_b, prod, fa, fb, False))
        else:
            for ca, cb in reversed(_coefficient_splits(fld, row[overlap])):
                stack.append((n, units_a, units_b, prod,
                              {**fa, overlap: ca} if ca else fa,
                              {**fb, overlap: cb} if cb else fb, True))
    else:
        return FactorizationOutcome(
            success=False, m=m, level=l, obstruction=obstruction,
            branches_explored=branches,
        )
    # The certificate: the units, multiplied out, give the column-form xi^m.
    u_a = reduce(multiply, units_a, one(ctx, l))
    u_b = reduce(multiply, units_b, one(ctx, l))
    if multiply(u_a, u_b) != target:
        raise InconsistencyError("factorization certificate failed re-verification")
    for alpha, n in u_a.support():
        if (alpha, n) != (0, 0) and not pa_member(ct, alpha, n):
            raise InconsistencyError(
                f"first-chart unit has support outside its cone at ({alpha}, {n})")
    return FactorizationOutcome(
        success=True, m=m, level=l, unit_a=u_a, unit_b=u_b,
        branches_explored=branches,
    )

