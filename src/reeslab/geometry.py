"""Exact rational geometry of the normalized triangle.

A normalized triangle has vertices (x2, ubar*x2), (x1, ubar*x1), (0, 1) with
x2 <= 0 <= x1 and width W = x1 - x2 in (0, 1].  Edge slopes satisfy the chain
-inf <= tbar <= -1 <= ubar <= 0 <= sbar <= inf.  Everything here is computed
in exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ClaimViolation,
    DegenerateError,
    LevelError,
    RangeError,
    ShapeError,
    SlopeError,
    TriangleFileError,
    WidthError,
)

Point = tuple[Fraction, Fraction]

#: Sentinel for unbounded column counts, ordered above every integer.
INF = math.inf


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Triangle normalization


@dataclass(frozen=True)
class NormalizedTriangle:
    """A triangle in normalized position together with its reduced edge data.

    ``sbar is None`` encodes slope +inf (vertical left edge, x2 = 0);
    ``tbar is None`` encodes slope -inf (vertical right edge, x1 = 0).
    """

    x1: Fraction
    x2: Fraction
    ubar: Fraction
    sbar: Optional[Fraction]
    tbar: Optional[Fraction]
    s2: int
    s3: int
    t: int
    t3: int
    u2: int
    u: int

    @property
    def width(self) -> Fraction:
        return self.x1 - self.x2

    @property
    def t1(self) -> int:
        return self.t - self.t3

    @property
    def u1(self) -> int:
        return self.u - self.u2

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (
            (self.x2, self.ubar * self.x2),
            (self.x1, self.ubar * self.x1),
            (Fraction(0), Fraction(1)),
        )


def normalize_triangle(vertices: Sequence[Point]) -> NormalizedTriangle:
    """Validate a triangle in normalized position and derive its edge data.

    One vertex must equal (0, 1); the other two must lie on a common line
    y = ubar*x through the origin with x2 <= 0 <= x1 and 0 < W <= 1.

    Raises ShapeError, SlopeError or WidthError when the input is not of
    this shape.
    """
    if len(vertices) != 3:
        raise ShapeError(f"expected 3 vertices, got {len(vertices)}")
    pts = [(_frac(x), _frac(y)) for x, y in vertices]
    if len(set(pts)) != 3:
        raise ShapeError("vertices are not distinct")

    apex = (Fraction(0), Fraction(1))
    if apex not in pts:
        raise ShapeError("no vertex equals (0, 1)")
    base = [p for p in pts if p != apex]

    # Both base vertices must lie on a line y = ubar*x through the origin.
    slopes = []
    for x, y in base:
        if x == 0:
            if y != 0:
                raise ShapeError(f"vertex ({x}, {y}) is not on a line through the origin")
        else:
            slopes.append(Fraction(y, x))
    if not slopes:
        raise ShapeError("both base vertices coincide with the origin")
    if len(slopes) == 2 and slopes[0] != slopes[1]:
        raise ShapeError("base vertices are not on a common line through the origin")
    ubar = slopes[0]

    xs = sorted(x for x, _ in base)
    x2, x1 = xs
    if not (x2 <= 0 <= x1):
        raise ShapeError(f"bottom edge must straddle the origin, got x2={x2}, x1={x1}")

    w = x1 - x2
    if w <= 0:
        raise WidthError(f"width {w} is not positive")
    if w > 1:
        raise WidthError(f"width {w} exceeds 1")

    if not (-1 <= ubar <= 0):
        raise SlopeError(f"ubar={ubar} outside [-1, 0]")

    sbar = None if x2 == 0 else (ubar * x2 - 1) / x2
    tbar = None if x1 == 0 else (ubar * x1 - 1) / x1
    if sbar is not None and sbar < 0:
        raise SlopeError(f"sbar={sbar} is negative")
    if tbar is not None and tbar > -1:
        raise SlopeError(f"tbar={tbar} exceeds -1")

    u2, u = -ubar.numerator, ubar.denominator
    if sbar is None:
        s2, s3 = 1, 0
    else:
        s2, s3 = sbar.numerator, sbar.denominator
    if tbar is None:
        t, t3 = 1, 0
    else:
        t, t3 = -tbar.numerator, tbar.denominator

    return NormalizedTriangle(
        x1=x1, x2=x2, ubar=ubar, sbar=sbar, tbar=tbar,
        s2=s2, s3=s3, t=t, t3=t3, u2=u2, u=u,
    )


def delta_prime(tri: NormalizedTriangle) -> tuple[Point, Point, Point]:
    """The companion triangle with the same edge slopes, anchored at the origin.

    Vertices: (0, 0), (u, -u2), (-u*x2/W, (u + u2*x2)/W).
    """
    w = tri.width
    third = (Fraction(-tri.u * tri.x2, 1) / w, (tri.u + tri.u2 * tri.x2) / w)
    return (
        (Fraction(0), Fraction(0)),
        (Fraction(tri.u), Fraction(-tri.u2)),
        third,
    )


# ---------------------------------------------------------------------------
# Dilation period


@dataclass(frozen=True)
class PeriodData:
    """sigma is the least dilation making all triangle vertices integral;
    theta = -x2*sigma and theta_prime = x1*sigma.  For width-1 triangles
    sigma = theta + theta_prime and u | sigma."""

    sigma: int
    theta: int
    theta_prime: int


def period_data(tri: NormalizedTriangle) -> PeriodData:
    sigma = 1
    for x, y in tri.vertices:
        sigma = math.lcm(sigma, x.denominator, y.denominator)
    theta = -tri.x2 * sigma
    theta_prime = tri.x1 * sigma
    if theta.denominator != 1 or theta_prime.denominator != 1:
        raise DegenerateError(
            f"theta={theta} or theta'={theta_prime} is not an integer at sigma={sigma}")
    theta, theta_prime = int(theta), int(theta_prime)
    if tri.width == 1:
        # Both facts below are specific to width 1; see PeriodData docstring.
        if theta + theta_prime != sigma:
            raise DegenerateError(
                f"sigma={sigma} != theta+theta'={theta + theta_prime}")
        if sigma % tri.u != 0:
            raise DegenerateError(f"u={tri.u} does not divide sigma={sigma}")
    return PeriodData(sigma=sigma, theta=theta, theta_prime=theta_prime)


# ---------------------------------------------------------------------------
# Cone tables


def _first_reaching(count, n: int) -> int:
    """Smallest k >= 0 with count(k) >= n+1, for a nondecreasing column
    count that is unbounded or infinite: a galloping then a binary search."""
    if n < 0:
        raise ValueError("level must be nonnegative")
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


class ConeTables:
    """Column counts of the two boundary cones.

    a(i) counts lattice points with first coordinate i in the cone spanned by
    (u, -u2) and (s3, s2); it equals floor(i*sbar) - ceil(i*ubar) + 1 for
    i >= 0, with an infinite sentinel when sbar is infinite.  b(i) is the
    analogue for the cone spanned by (-u, u2) and (-t3, t), defined for
    i <= 0 and set to 0 for i > 0.

    Membership is decided in integers: the slopes are kept as numerator and
    denominator, and both floors and the ceiling are integer floor divisions,
    so no Fraction is built per query.  Threshold queries are memoized.
    """

    def __init__(self, sbar: Optional[Fraction], tbar: Optional[Fraction], ubar: Fraction):
        # Strict slope separation keeps both column counts unbounded, which
        # the threshold searches below rely on.
        if sbar is not None and sbar <= ubar:
            raise SlopeError(f"sbar={sbar} must exceed ubar={ubar}")
        if tbar is not None and tbar >= ubar:
            raise SlopeError(f"tbar={tbar} must be below ubar={ubar}")
        self.sbar = sbar
        self.tbar = tbar
        self.ubar = ubar
        # -ceil(i*ubar) = floor(i*u2/u) with ubar = -u2/u.
        self._u2, self._u = -ubar.numerator, ubar.denominator
        if sbar is not None:
            self._s_num, self._s_den = sbar.numerator, sbar.denominator
        if tbar is not None:
            self._t_num, self._t_den = tbar.numerator, tbar.denominator
        self._pa_cache: dict[int, int] = {}
        self._pb_cache: dict[int, int] = {}

    def a(self, i: int):
        if i < 0:
            raise ValueError(f"a(i) requires i >= 0, got {i}")
        if self.sbar is None:
            return INF
        return (i * self._s_num) // self._s_den + (i * self._u2) // self._u + 1

    def b(self, i: int):
        if i > 0:
            return 0
        if self.tbar is None:
            return INF
        return (i * self._t_num) // self._t_den + (i * self._u2) // self._u + 1

    def min_pa_col(self, n: int) -> int:
        """Smallest column alpha >= 0 with a(alpha) >= n+1."""
        col = self._pa_cache.get(n)
        if col is None:
            col = self._pa_cache[n] = _first_reaching(self.a, n)
        return col

    def max_pb_col(self, n: int) -> int:
        """Largest column n + i, i <= 0, with b(i) >= n+1."""
        col = self._pb_cache.get(n)
        if col is None:
            col = self._pb_cache[n] = n - _first_reaching(lambda k: self.b(-k), n)
        return col


def cone_tables(tri: NormalizedTriangle) -> ConeTables:
    return ConeTables(sbar=tri.sbar, tbar=tri.tbar, ubar=tri.ubar)


def pa_member(ct: ConeTables, alpha: int, n: int) -> bool:
    return alpha >= 0 and n >= 0 and ct.a(alpha) >= n + 1


def pb_member(ct: ConeTables, alpha: int, n: int) -> bool:
    return n >= 0 and ct.b(alpha - n) >= n + 1


def resolve_slack(slack: Optional[int], sigma: int) -> int:
    """The verification margin of the gap scan: sigma unless set, and
    never below sigma."""
    if slack is None:
        return sigma
    if slack < sigma:
        raise RangeError(f"slack {slack} is below sigma={sigma}")
    return slack


def overlaps_and_gaps(
    ct: ConeTables,
    pd: PeriodData,
    m: int,
    l: int,
    slack: Optional[int] = None,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Overlap and gap index pairs (alpha, n) for levels m <= n < l.

    Overlaps are the points k*(theta, sigma) in the window; gaps are the
    positions covered by neither cone.  Every level is cross-checked against
    the overlap-lattice law; a membership pattern outside it raises
    ClaimViolation (input outside theorem hypotheses, or a bug).
    """
    if not 0 <= m < l:
        raise LevelError(f"need 0 <= m < l, got m={m}, l={l}")
    sigma, theta = pd.sigma, pd.theta
    slack = resolve_slack(slack, sigma)
    overlaps = [
        (k * theta, k * sigma)
        for k in range(-(-m // sigma), -(-l // sigma))
        if m <= k * sigma < l
    ]
    expected = set(overlaps)
    gaps: list[tuple[int, int]] = []
    for n in range(m, l):
        col_a = ct.min_pa_col(n)
        col_b = ct.max_pb_col(n)
        if col_a <= col_b:
            k, r = divmod(n, sigma)
            if r != 0 or col_a != col_b or col_a != k * theta:
                raise ClaimViolation(
                    f"level {n}: cones overlap on columns [{col_a}, {col_b}], "
                    f"expected only multiples of ({theta}, {sigma})")
        gaps.extend((alpha, n) for alpha in range(col_b + 1, col_a))
        # Verification margin: re-derive memberships near the strip.
        for alpha in range(min(col_b + 1, col_a) - slack, max(col_b, col_a - 1) + slack + 1):
            in_a = pa_member(ct, alpha, n)
            in_b = pb_member(ct, alpha, n)
            if in_a and in_b and (alpha, n) not in expected:
                raise ClaimViolation(f"unexpected overlap at ({alpha}, {n})")
            if (not in_a and not in_b) != (col_b < alpha < col_a):
                raise ClaimViolation(f"gap strip bounds wrong at ({alpha}, {n})")
    return overlaps, gaps


# ---------------------------------------------------------------------------
# EMU condition


@dataclass(frozen=True)
class EmuReport:
    holds: bool
    column_counts: tuple[int, ...]
    sorted_counts: tuple[int, ...]


def emu_check(tri: NormalizedTriangle, ct: ConeTables) -> EmuReport:
    """Count lattice points of the companion triangle in columns 1..u and test
    whether the ascending-sorted counts dominate (1, 2, ..., u).

    The companion triangle is the first cone at the origin intersected with
    the second cone translated to (u, -u2); the two share the bottom edge, so
    column i holds min(a(i), b(i - u)) lattice points, read off ct, the cone
    tables of tri.
    """
    counts = tuple(min(ct.a(i), ct.b(i - tri.u)) for i in range(1, tri.u + 1))
    ordered = tuple(sorted(counts))
    holds = all(c >= i for i, c in enumerate(ordered, start=1))
    return EmuReport(holds=holds, column_counts=counts, sorted_counts=ordered)


# ---------------------------------------------------------------------------
# Toric data: weights, class group torsion, determinantal presentation


@dataclass(frozen=True)
class ToricData:
    normal_a: tuple[int, int]
    normal_b: tuple[int, int]
    normal_c: tuple[int, int]
    weights: tuple[int, int, int]
    torsion_order: int
    torsion_invariants: tuple[int, ...]
    torsion_cyclic: bool
    i_is_prime: bool
    ideal_matrix: tuple[tuple[int, int, int], tuple[int, int, int]]


def toric_data(tri: NormalizedTriangle) -> ToricData:
    """Weights, class group torsion and the 2x3 determinantal presentation."""
    na = (tri.s2, -tri.s3)
    nb = (-tri.t, -tri.t3)
    nc = (tri.u2, tri.u)

    def det2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    kernel = (det2(nb, nc), -det2(na, nc), det2(na, nb))
    g = math.gcd(*kernel)
    if g == 0:
        raise DegenerateError("normal vectors are pairwise dependent")
    kernel = tuple(v // g for v in kernel)
    if all(v < 0 for v in kernel):
        kernel = tuple(-v for v in kernel)
    if any(v <= 0 for v in kernel):
        raise DegenerateError(f"kernel vector {kernel} is not positive")
    a, b, c = kernel
    if math.gcd(a, b) != 1 or math.gcd(b, c) != 1 or math.gcd(a, c) != 1:
        raise DegenerateError(f"weights {kernel} are not pairwise coprime")

    # The torsion of Z^2 / <na, nb, nc> has determinantal divisors d1 (the
    # gcd of the entries) and g (the gcd of the 2x2 minors, i.e. of the
    # kernel before reduction).
    d1 = math.gcd(*na, *nb, *nc)
    return ToricData(
        normal_a=na, normal_b=nb, normal_c=nc,
        weights=kernel,
        torsion_order=g,
        torsion_invariants=(d1, g // d1),
        torsion_cyclic=d1 == 1,
        i_is_prime=g == 1,
        ideal_matrix=((tri.s2, tri.t3, tri.u1), (tri.t1, tri.u2, tri.s3)),
    )


# ---------------------------------------------------------------------------
# Triangle input files

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or integer text; decimal notation is rejected."""
    token = text.strip()
    if not _RAT_RE.match(token):
        raise TriangleFileError(f"not an exact rational: {text!r}")
    return Fraction(token)


def parse_triangle_text(text: str) -> tuple[Point, Point, Point]:
    """Parse a key-value triangle file body with keys v1, v2, v3."""
    seen: dict[str, Point] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TriangleFileError(f"line {lineno}: expected 'key = x, y'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("v1", "v2", "v3"):
            raise TriangleFileError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise TriangleFileError(f"line {lineno}: duplicate key {key!r}")
        parts = value.split(",")
        if len(parts) != 2:
            raise TriangleFileError(f"line {lineno}: expected two coordinates")
        seen[key] = (parse_rat(parts[0]), parse_rat(parts[1]))
    missing = [k for k in ("v1", "v2", "v3") if k not in seen]
    if missing:
        raise TriangleFileError(f"missing keys: {', '.join(missing)}")
    return seen["v1"], seen["v2"], seen["v3"]


def read_triangle_file(path) -> tuple[Point, Point, Point]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_triangle_text(fh.read())
    except OSError as exc:
        raise TriangleFileError(f"cannot read {path}: {exc}") from exc
