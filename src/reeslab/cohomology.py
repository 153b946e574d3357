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

The (r, j) witness windows of the characteristic-p criteria are spelled
once, by decision.d_set, which also runs the emission re-check of every
window it finds with h0 > 0 (a second sweep under policy B).

The factorization search decides cone membership by the same per-level
thresholds as the sweep (ConeTables.min_pa_col and max_pb_col); the
per-position test pa_member only re-verifies a certificate it found.  Both
thresholds are periodic in the level, so their memo holds at most two
periods however many windows a table serves, and each entry is certified
against pa_member and pb_member once, when it is filled.  The sweep reads
both thresholds once per window to bound the live band of every z-tail
column: an entry whose column - level is at most the smallest
max_pb_col(k) - k of the window stays in the second cone with its whole
z-tail, and an entry at or past the first-cone threshold is absorbed by the
first chart, so the sweep adds neither to its residual.  Its z-expansions
come in column form, one binomial series per column (see algebra).
The factorization search keeps no state but its branch count: it builds
xi^m once, checks its certificate against it, and starts each z-expansion
from its closed form (_z_rows_base), so a backtrack has nothing to restore.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    _radd_row,
    _z_rows_base,
    context_for,
    multiply,
    invert_unit,
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
    TheoremViolation,
)
from .fields import FieldSpec, coeff_str
from .geometry import (
    ConeTables,
    EmuReport,
    PeriodData,
    overlaps_and_gaps,
    pa_member,
)

DEFAULT_BRANCH_BUDGET = 10_000


def per_level_chi(ct: ConeTables, n: int) -> int:
    """Overlap count minus gap count at a single level, exactly."""
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
    chi: int
    chi_independent: int
    consistent: bool
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
            "chi_independent": self.chi_independent,
            "consistent": self.consistent,
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
    """Section and obstruction dimensions of the restriction window [m, l)."""
    if not 0 <= m < l:
        raise LevelError(f"need 0 <= m < l, got m={m}, l={l}")
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
        h0=h0, h1=h1, chi=chi, chi_independent=chi_independent,
        consistent=True, policy=policy, slack=pd.sigma,
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
    unit_a: Optional[AlgebraElement] = None
    unit_b: Optional[AlgebraElement] = None
    obstruction: Optional[tuple] = None      # (level, {(alpha, n): coeff})
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
                "residual": [[a, n, coeff_str(c)] for (a, n), c in sorted(res.items())],
            }
        return out


def _coefficient_splits(fld: FieldSpec, c):
    """Free-parameter grid for an overlap coefficient: the whole prime field
    in characteristic p, the two one-sided routings in characteristic 0."""
    p = fld.characteristic
    if p:
        return [(ca, (c - ca) % p) for ca in range(p)]
    return [(c, fld.of_int(0)), (fld.of_int(0), c)]


def factorization_search(
    ctx: AlgebraContext,
    ct: ConeTables,
    pd: PeriodData,
    m: int,
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
) -> FactorizationOutcome:
    """Try to write the m-th transition-unit power as a product of units of
    the two chart subrings at truncation level m*u.

    Proceeds level by level on the residual; a nonzero gap coefficient is a
    definite obstruction for the current branch.  Overlap coefficients split
    into a free parameter searched over a finite grid, subject to the branch
    budget.  A successful factorization is re-verified by multiplying its
    two units out against the one xi^m the search reduced.
    """
    if m < 1:
        raise RangeError("m must be a positive integer")
    if branch_budget < 1:
        raise RangeError(f"branch_budget must be >= 1, got {branch_budget}")
    l = m * ctx.u
    fld = ctx.field
    target = xi_power(ctx, l, m)
    state = {"branches": 0, "obstruction": None}

    def descend(u_a, u_b, rho, n):
        if n >= l:
            if rho != one(ctx, l):
                raise InconsistencyError(f"residual unit at level {l} is not 1")
            return u_a, u_b
        row = rho.level_component(n)
        fa_terms: dict[int, object] = {}
        fb_terms: dict[int, object] = {}
        overlap_terms: list[tuple[int, object]] = []
        gap_terms: dict = {}
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
                overlap_terms.append((alpha, c))
            elif in_a:
                fa_terms[alpha] = c
            elif in_b:
                fb_terms[alpha] = c
            else:
                gap_terms[(alpha, n)] = c
        if gap_terms:
            state["obstruction"] = state["obstruction"] or (n, gap_terms)
            return None
        grids = [_coefficient_splits(fld, c) for _, c in overlap_terms]
        for choice in itertools.product(*grids) if grids else [()]:
            if grids:
                state["branches"] += 1
                if state["branches"] > branch_budget:
                    raise BudgetExceeded(
                        f"factorization search for m={m} exceeded "
                        f"{branch_budget} branches")
            fa = dict(fa_terms)
            fb = dict(fb_terms)
            for (alpha, _), (ca, cb) in zip(overlap_terms, choice):
                if ca:
                    fa[alpha] = ca
                if cb:
                    fb[alpha] = cb
            fa_rows = {0: {0: fld.of_int(1)}}
            if fa:
                fa_rows[n] = fa
            one_fa = AlgebraElement(ctx, l, fa_rows)
            fb_rows = {0: {0: fld.of_int(1)}}
            for alpha, c in fb.items():
                for zn, zrow in _z_rows_base(ctx, l, alpha, n).items():
                    _radd_row(fb_rows, zn, zrow, c, fld.characteristic)
            one_fb = AlgebraElement(ctx, l, fb_rows)
            new_rho = multiply(multiply(invert_unit(one_fa), rho), invert_unit(one_fb))
            got = descend(multiply(u_a, one_fa), multiply(one_fb, u_b), new_rho, n + 1)
            if got is not None:
                return got
        return None

    result = descend(one(ctx, l), one(ctx, l), target, 1)
    if result is None:
        return FactorizationOutcome(
            success=False, m=m, level=l,
            obstruction=state["obstruction"],
            branches_explored=state["branches"],
        )
    u_a, u_b = result
    # The certificate: the units multiply back to the xi^m the search reduced.
    if multiply(u_a, u_b) != target:
        raise InconsistencyError("factorization certificate failed re-verification")
    for alpha, n in u_a.support():
        if (alpha, n) != (0, 0) and not pa_member(ct, alpha, n):
            raise InconsistencyError(
                f"first-chart unit has support outside its cone at ({alpha}, {n})")
    return FactorizationOutcome(
        success=True, m=m, level=l, unit_a=u_a, unit_b=u_b,
        branches_explored=state["branches"],
    )


def char0_b2_check(tri, emu: EmuReport, ct: ConeTables, pd: PeriodData,
                   branch_budget: int = DEFAULT_BRANCH_BUDGET) -> bool:
    """Characteristic-0 unit-factorization criterion at m=1, cross-checked
    against the column-count criterion ``emu`` of the same triangle, whose
    cone tables and period data are ``ct`` and ``pd``; disagreement raises
    TheoremViolation.
    """
    from .fields import RATIONALS

    ctx = context_for(tri, RATIONALS)
    outcome = factorization_search(ctx, ct, pd, 1, branch_budget=branch_budget)
    if outcome.success != emu.holds:
        raise TheoremViolation(
            f"unit factorization ({outcome.success}) disagrees with the "
            f"column-count criterion ({emu.holds}) for ubar=-{tri.u2}/{tri.u}, "
            f"x1={tri.x1}, x2={tri.x2}")
    return outcome.success
