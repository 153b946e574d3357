"""Theorem-level decision procedures, the family scanner, and the
reference-example verification suite.

Decision logic:

* characteristic 0: the column-count criterion decides, and decide itself
  cross-checks it against one unit-factorization search at m = 1;
* characteristic p with width < 1: always finitely generated;
* characteristic p with width 1: a bounded search for a witness, first
  through unit factorizations at m = 1..m_max, then through vanishing
  degree-zero cohomology on the windows indexed by (r, j).  A failed
  search is reported as inconclusive, never as a negative.

d_set alone spells the witness window [sigma*j*p^r, sigma*(j+1)*p^r); the
decision procedure and the reference-example suite reach theirs through
it.  d_set also owns the emission re-check: a window with h0 > 0 is
computed a second time, in a sweep of its own under the other overlap
routing (policy B), and must give the same dimensions, so decide picks no
routing policy itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraContext, context_for
from .cohomology import (
    DEFAULT_BRANCH_BUDGET,
    CohomReport,
    cohomology_dims,
    factorization_search,
    per_level_chi,
)
from .errors import (
    ContextError,
    InconsistencyError,
    RangeError,
    ReesLabError,
    TheoremViolation,
    WidthError,
    _non_int_message,
)
from .fields import FieldSpec
from .geometry import (
    ConeTables,
    NormalizedTriangle,
    PeriodData,
    cone_tables,
    emu_check,
    normalize_triangle,
    period_data,
    toric_data,
)

VERSION = "0.1.0"

FG_EXACT = "FG_EXACT"
FG_WITNESS = "FG_WITNESS"
NOT_FG_EXACT = "NOT_FG_EXACT"
NO_WITNESS_UP_TO_BOUNDS = "NO_WITNESS_UP_TO_BOUNDS"


@dataclass(frozen=True)
class SearchBounds:
    """Finite truncation of the existential searches in characteristic p."""

    r_max: int = 1
    j_max: int | None = None      # default: p-1 in char p, 1 otherwise
    m_max: int = 6
    branch_budget: int = DEFAULT_BRANCH_BUDGET

    def __post_init__(self):
        values = {k: v for k, v in vars(self).items() if v is not None}
        if any(type(v) is not int for v in values.values()):
            raise RangeError(_non_int_message(**values))
        if self.r_max < 0:
            raise RangeError(f"r_max must be >= 0, got {self.r_max}")
        if self.m_max < 1:
            raise RangeError(f"m_max must be >= 1, got {self.m_max}")
        if self.branch_budget < 1:
            raise RangeError(f"branch_budget must be >= 1, got {self.branch_budget}")
        if self.j_max is not None and self.j_max < 1:
            raise RangeError(f"j_max must be >= 1, got {self.j_max}")

    def resolve_j_max(self, p: int) -> int:
        if self.j_max is not None:
            return self.j_max
        return max(p - 1, 1) if p else 1

    def to_dict(self, p: int) -> dict:
        return {
            "r_max": self.r_max,
            "j_max": self.resolve_j_max(p),
            "m_max": self.m_max,
            "branch_budget": self.branch_budget,
            "policy": "A",   # the routing of every primary window (see d_set)
        }


@dataclass
class Verdict:
    status: str
    witness: dict | None
    emu: dict | None
    probes: list
    bounds: dict

    @property
    def finitely_generated(self) -> bool | None:
        if self.status in (FG_EXACT, FG_WITNESS):
            return True
        if self.status == NOT_FG_EXACT:
            return False
        return None


def d_set(ctx: AlgebraContext, ct: ConeTables, pd: PeriodData, r: int, j: int) -> CohomReport:
    """Report of the window [sigma*j*p^r, sigma*(j+1)*p^r), p the
    characteristic of ctx, under policy A.

    Requires width 1 (sigma = theta + theta_prime), so the window holds
    exactly p^r overlaps and h0 = p^r - rank: degree-zero sections vanish
    exactly when the pivot gaps (matrix.pivot_gaps) number p^r.  A window
    with h0 > 0 is a witness, and is re-checked at once under policy B;
    differing dimensions raise InconsistencyError.  Each sweep builds its
    own z-expansions, so the re-check shares no cached state with the pass
    it checks.
    """
    p = ctx.field.characteristic
    if not p:
        raise ContextError("witness windows need a positive characteristic")
    if pd.theta + pd.theta_prime != pd.sigma:
        raise WidthError("window analysis requires a width-1 triangle")
    if type(r) is not int or type(j) is not int:
        raise RangeError(_non_int_message(r=r, j=j))
    if r < 0 or j < 1:
        raise RangeError("need r >= 0 and j >= 1")
    if math.gcd(j, p) != 1:
        warnings.warn(f"j={j} is divisible by p={p}; the bound is uninformative")
    q = p**r
    rep = cohomology_dims(ctx, ct, pd, pd.sigma * j * q, pd.sigma * (j + 1) * q)
    if len(rep.matrix.overlaps) != q:
        raise InconsistencyError(
            f"window [{rep.m}, {rep.l}) has {len(rep.matrix.overlaps)} overlaps, expected {q}")
    if rep.h0 > 0:
        recheck = cohomology_dims(ctx, ct, pd, rep.m, rep.l, policy="B")
        if (recheck.h0, recheck.h1) != (rep.h0, rep.h1):
            raise InconsistencyError(
                f"witness window [{rep.m}, {rep.l}) failed its policy-B re-check")
    return rep


def decide(tri: NormalizedTriangle, field: FieldSpec,
           bounds: SearchBounds = SearchBounds()) -> Verdict:
    """Decide finite generation, or search for a bounded witness.

    In characteristic 0 the column count decides, and the m = 1 unit
    factorization must agree (else TheoremViolation), as the paper claims
    under C^2 <= 0 and C.E = 1.  That search tries the two one-sided routings
    only (_coefficient_splits): a success certifies, a failure only agrees."""
    p = field.characteristic
    pd = period_data(tri)
    probes: list[dict] = []
    limits = bounds.to_dict(p)

    def verdict(status, witness=None, emu=None):
        return Verdict(status, witness, emu, probes, limits)

    if p and tri.width < 1:
        return verdict(FG_EXACT, {"kind": "narrow-width", "width": str(tri.width)})

    ctx = context_for(tri, field)
    ct = cone_tables(tri)

    if p == 0:
        emu = emu_check(tri, ct)
        out = factorization_search(ctx, ct, pd, 1, branch_budget=bounds.branch_budget)
        if out.success != emu.holds:
            raise TheoremViolation(
                f"unit factorization ({out.success}) disagrees with the "
                f"column-count criterion ({emu.holds}) for ubar=-{tri.u2}/{tri.u}, "
                f"x1={tri.x1}, x2={tri.x2}")
        return verdict(FG_EXACT if emu.holds else NOT_FG_EXACT, emu={
            "holds": emu.holds,
            "column_counts": list(emu.column_counts),
            "sorted_counts": list(emu.sorted_counts),
        })

    # Unit-factorization probes first: they are cheap and carry the most
    # explicit certificates (see the worked-example witnesses at m=2, 3).
    for m in range(1, bounds.m_max + 1):
        out = factorization_search(ctx, ct, pd, m,
                                   branch_budget=bounds.branch_budget)
        probes.append(out.to_dict())
        if out.success:  # factorization_search re-verified the product
            return verdict(FG_WITNESS, {"kind": "A4", "m": m})

    j_values = [1] + [j for j in range(2, bounds.resolve_j_max(p) + 1) if j % p]
    for r in range(bounds.r_max + 1):
        for j in j_values:
            rep = d_set(ctx, ct, pd, r, j)  # re-checks a window with h0 > 0
            probes.append(rep.to_dict())
            if rep.h0 > 0:
                return verdict(FG_WITNESS, {"kind": "C4" if j == 1 else "C3",
                                            "r": r, "j": j, "h0": rep.h0})

    return verdict(NO_WITNESS_UP_TO_BOUNDS)


# ---------------------------------------------------------------------------
# The one-parameter family scanner


def family_triangle(g) -> NormalizedTriangle:
    """Normalized triangle of the exact family member g in [2, 3]."""
    if isinstance(g, float):
        raise RangeError(f"family parameter g={g!r} is a float; give it exactly")
    try:
        g = Fraction(g)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise RangeError(f"family parameter g={g!r} is not an exact rational number") from None
    if not 2 <= g <= 3:
        raise RangeError(f"family parameter g={g} outside [2, 3]")
    return normalize_triangle([(g - 3, (3 - g) / 2), (g - 2, (2 - g) / 2), (0, 1)])


@dataclass
class ScanRow:
    g: Fraction
    verdict: Verdict | None
    error: str | None

    @property
    def status(self) -> str:
        return self.verdict.status if self.verdict else f"ERROR({self.error})"


def scan_family(g_values, field: FieldSpec,
                bounds: SearchBounds = SearchBounds()) -> list[ScanRow]:
    """Run the decision procedure across family members.

    Rows where an internal invariant fires are reported as errors instead of
    aborting the table; callers inspect row.error.
    """
    rows = []
    for g in g_values:
        tri = family_triangle(g)
        try:
            rows.append(ScanRow(g=Fraction(g), verdict=decide(tri, field, bounds),
                                error=None))
        except ReesLabError as exc:
            rows.append(ScanRow(g=Fraction(g), verdict=None,
                                error=f"{type(exc).__name__}: {exc}"))
    return rows


# ---------------------------------------------------------------------------
# Reference example verification suite


def factorize_integer(n: int) -> dict[int, int]:
    """Prime factorization by trial division (independent of any library)."""
    if n < 1:
        raise RangeError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


WORKED_VERTICES = (
    (Fraction(-5, 6), Fraction(5, 12)),
    (Fraction(1, 6), Fraction(-1, 12)),
    (Fraction(0), Fraction(1)),
)


@dataclass
class SuiteItem:
    name: str
    passed: bool
    detail: str


def reference_example_suite() -> list[SuiteItem]:
    """Re-derive the reference example's known data, one check per item."""
    items: list[SuiteItem] = []

    def check(name: str, passed: bool, detail: str = ""):
        items.append(SuiteItem(name=name, passed=bool(passed), detail=detail))

    tri = normalize_triangle(WORKED_VERTICES)
    pd = period_data(tri)
    ct = cone_tables(tri)

    # (a) dilation period and split
    check("a: sigma/theta/theta'",
          (pd.sigma, pd.theta, pd.theta_prime) == (12, 10, 2),
          f"got {(pd.sigma, pd.theta, pd.theta_prime)}")

    # (b) cone-table prefixes and both periodicity laws
    a_prefix = [ct.a(i) for i in range(11)]
    b_prefix = [ct.b(0), ct.b(-1), ct.b(-2)]
    periodic = all(ct.a(i + 10) == ct.a(i) + 12 for i in range(51)) and \
        all(ct.b(-i - 2) == ct.b(-i) + 12 for i in range(51))
    check("b: cone tables",
          a_prefix == [1, 1, 3, 4, 5, 6, 8, 8, 10, 11, 13]
          and b_prefix == [1, 6, 13] and periodic,
          f"a={a_prefix}, b={b_prefix}")

    # (c) weights, torsion, presentation matrix
    td = toric_data(tri)
    check("c: toric data",
          td.weights == (1, 1, 6) and td.torsion_order == 24
          and not td.i_is_prime
          and td.ideal_matrix == ((7, 2, 1), (11, 1, 10)),
          f"weights={td.weights}, d={td.torsion_order}")

    # (d) per-level Euler characteristics
    pattern = [per_level_chi(ct, n) for n in range(12)]
    sums_ok = True
    for p, rmax in [(2, 2), (3, 1), (5, 1), (7, 0)]:
        for r in range(rmax + 1):
            q = p**r
            total = sum(per_level_chi(ct, n) for n in range(12 * q, 24 * q))
            sums_ok = sums_ok and total == -2 * q
    check("d: chi pattern",
          pattern == [1, -1, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0] and sums_ok,
          f"pattern={pattern}")

    # (e) small-characteristic factorization witnesses (re-verified by decide)
    ok = True
    details = []
    for p, m in [(2, 2), (3, 3)]:
        verdict = decide(tri, FieldSpec(p))
        ok = ok and verdict.status == FG_WITNESS and verdict.witness == {
            "kind": "A4", "m": m}
        details.append(f"char {p}: {verdict.status} {verdict.witness}")
    check("e: char 2/3 witnesses", ok, "; ".join(details))

    # (f) characteristic 5: no degree-zero sections, pivot counts p^r
    ok = True
    details = []
    ctx5 = context_for(tri, FieldSpec(5))
    for r in (0, 1):
        rep = d_set(ctx5, ct, pd, r, 1)
        ok = ok and rep.h0 == 0 and rep.matrix.rank == 5**r
        details.append(f"r={r}: h0={rep.h0} pivots={rep.matrix.rank}")
    check("f: char 5 vanishing", ok, "; ".join(details))

    # (g) characteristic 7, first window: no sections; the obstruction row
    # leads at the level-13 gap and also carries the level-20 gap.
    ctx7 = context_for(tri, FieldSpec(7))
    rep7 = d_set(ctx7, ct, pd, 0, 1)
    row = rep7.matrix.rows[0] if rep7.matrix.rows else {}
    check("g: char 7 window",
          rep7.h0 == 0 and rep7.matrix.pivot_gaps == [(11, 13)]
          and set(row) == {(11, 13), (17, 20)},
          f"h0={rep7.h0}, pivots={rep7.matrix.pivot_gaps}")

    # (h) the two remainder constants
    check("h: remainder constants",
          factorize_integer(101757) == {3: 1, 107: 1, 317: 1}
          and factorize_integer(250258653) == {3: 5, 23: 1, 44777: 1}
          and factorize_integer(44777) == {44777: 1},
          "101757, 250258653")

    return items
