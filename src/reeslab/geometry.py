"""Exact rational geometry of the normalized triangle.

A normalized triangle has vertices (x2, ubar*x2), (x1, ubar*x1), (0, 1) with
x2 <= 0 <= x1 and width W = x1 - x2 in (0, 1].  Edge slopes satisfy the chain
-inf <= tbar <= -1 <= ubar <= 0 <= sbar <= inf.  Everything here is computed
in exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ClaimViolation,
    DegenerateError,
    LevelError,
    ShapeError,
    SlopeError,
    TriangleFileError,
    WidthError,
)

Point = tuple[Fraction, Fraction]

#: Sentinel for unbounded column counts, ordered above every integer.
INF = math.inf


def _frac(x) -> Fraction:
    """x as an exact Fraction; a float is refused, never read as binary, and
    so is anything Fraction cannot read."""
    if isinstance(x, float):
        raise ShapeError(f"coordinate {x!r} is a float; give it exactly, e.g. as a Fraction")
    try:
        return x if isinstance(x, Fraction) else Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ShapeError(f"coordinate {x!r} is not an exact rational number") from None


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
    sbar: Fraction | None
    tbar: Fraction | None
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
    try:
        count = len(vertices)
    except TypeError:
        raise ShapeError(f"expected 3 vertices, got {vertices!r}") from None
    if count != 3:
        raise ShapeError(f"expected 3 vertices, got {count}")
    pts = []
    for v in vertices:
        try:
            x, y = v
        except (TypeError, ValueError):
            raise ShapeError(f"vertex {v!r} is not a pair of coordinates") from None
        pts.append((_frac(x), _frac(y)))
    if len(set(pts)) != 3:
        raise ShapeError("vertices are not distinct")

    apex = (Fraction(0), Fraction(1))
    if apex not in pts:
        raise ShapeError("no vertex equals (0, 1)")
    base = [p for p in pts if p != apex]

    # Both base vertices must lie on a line y = ubar*x through the origin;
    # being distinct, they are not both the origin, so one of them sets ubar.
    slopes = []
    for x, y in base:
        if x == 0:
            if y != 0:
                raise ShapeError(f"vertex ({x}, {y}) is not on a line through the origin")
        else:
            slopes.append(Fraction(y, x))
    if len(slopes) == 2 and slopes[0] != slopes[1]:
        raise ShapeError("base vertices are not on a common line through the origin")
    ubar = slopes[0]

    x2, x1 = sorted(x for x, _ in base)
    if not (x2 <= 0 <= x1):
        raise ShapeError(f"bottom edge must straddle the origin, got x2={x2}, x1={x1}")

    w = x1 - x2
    if w > 1:
        raise WidthError(f"width {w} exceeds 1")

    if not (-1 <= ubar <= 0):
        raise SlopeError(f"ubar={ubar} outside [-1, 0]")

    # |x2|, x1 <= W <= 1 and ubar in [-1, 0] give sbar = ubar + 1/|x2| >=
    # ubar + 1 >= 0 and tbar = ubar - 1/x1 <= ubar - 1 <= -1.
    sbar = None if x2 == 0 else (ubar * x2 - 1) / x2
    tbar = None if x1 == 0 else (ubar * x1 - 1) / x1

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


def _count(law, k: int):
    """floor(k*A) + floor(k*B) + 1 for law ((A num, A den), (B num, B den))."""
    if law is None:   # an infinite edge
        return INF
    (an, ad), (bn, bd) = law
    return k * an // ad + k * bn // bd + 1


def _locate(law, n: int) -> int:
    """Smallest k >= 0 with _count(law, k) >= n+1, for n >= 0 and A+B > 0.
    k(A+B) - 2 < floor(kA) + floor(kB) <= k(A+B), so the answer lies in
    [ceil(n/(A+B)), ceil((n+1)/(A+B))], at most 2 counts when A+B >= 1."""
    if n < 0:
        raise LevelError(f"level {n} is negative")
    if law is None:
        return 0
    (an, ad), (bn, bd) = law
    k = -(-n * ad * bd // (an * bd + bn * ad))
    while _count(law, k) <= n:
        k += 1
    return k


class ConeTables:
    """Column counts of the two boundary cones, which follow one law.

    a(i) counts lattice points with first coordinate i in the cone spanned by
    (u, -u2) and (s3, s2); it equals floor(i*sbar) - ceil(i*ubar) + 1 for
    i >= 0, with an infinite sentinel when sbar is infinite.  b(i) is the
    analogue for the cone spanned by (-u, u2) and (-t3, t), defined for
    i <= 0 and set to 0 for i > 0.  At k >= 0 both are the law count(k) =
    floor(k*A) + floor(k*B) + 1 (_count): a(k) with (A, B) = (sbar, -ubar)
    and b(-k) with (A, B) = (-tbar, ubar), each slope an integer numerator
    and denominator, so no Fraction is built per query.

    A threshold is located upwards from ceil(n/(A+B)) (_locate) in at most
    2 counts, since a normalized triangle has sbar - ubar = 1/|x2| >= 1 and
    ubar - tbar = 1/x1 >= 1, so it is computed afresh at every read.

    The thresholds decide membership at every column, since a(i) and b(-k)
    are nondecreasing: floor(i*sbar) and floor(i*u2/u) do not fall as i
    grows (sbar >= 0, u2 >= 0), and floor(-k*tbar) gains at least 1 per
    step of k (-tbar >= 1) while -ceil(k*u2/u) loses at most 1 (u2 <= u).
    Every read is certified by one membership call, pa_member or pb_member:
    the column just outside the threshold is not in the cone.  One side is
    enough.  _locate stops only where count(k) >= n+1, which for k, n >= 0
    is membership itself, and it only walks up, so the one error its start
    bound can make is to start past the edge, which that call catches.
    """

    __slots__ = ("_pa_law", "_pb_law")

    def __init__(self, sbar: Fraction | None, tbar: Fraction | None, ubar: Fraction):
        # Strict slope separation makes A+B > 0, so both counts are unbounded.
        if sbar is not None and sbar <= ubar:
            raise SlopeError(f"sbar={sbar} must exceed ubar={ubar}")
        if tbar is not None and tbar >= ubar:
            raise SlopeError(f"tbar={tbar} must be below ubar={ubar}")
        u2, u = -ubar.numerator, ubar.denominator
        self._pa_law = None if sbar is None else ((sbar.numerator, sbar.denominator), (u2, u))
        self._pb_law = None if tbar is None else ((-tbar.numerator, tbar.denominator), (-u2, u))

    def a(self, i: int):
        if i < 0:
            raise LevelError(f"a(i) requires i >= 0, got {i}")
        return _count(self._pa_law, i)

    def b(self, i: int):
        return 0 if i > 0 else _count(self._pb_law, -i)

    def min_pa_col(self, n: int) -> int:
        """Smallest column alpha >= 0 with a(alpha) >= n+1; n an int, not
        checked, since the engines read thresholds in their hot loops."""
        k = _locate(self._pa_law, n)
        if pa_member(self, k - 1, n):
            raise ClaimViolation(f"cone threshold {k} at level {n} is not its cone's edge")
        return k

    def max_pb_col(self, n: int) -> int:
        """Largest column n + i, i <= 0, with b(i) >= n+1; n an int, not
        checked (see min_pa_col)."""
        k = _locate(self._pb_law, n)
        if pb_member(self, n - k + 1, n):
            raise ClaimViolation(f"cone threshold {k} at level {n} is not its cone's edge")
        return n - k


def cone_tables(tri: NormalizedTriangle) -> ConeTables:
    return ConeTables(sbar=tri.sbar, tbar=tri.tbar, ubar=tri.ubar)


def pa_member(ct: ConeTables, alpha: int, n: int) -> bool:
    """Whether (alpha, n) lies in the first cone; alpha and n ints, not
    checked, since every threshold read certifies itself through it."""
    return alpha >= 0 and n >= 0 and _count(ct._pa_law, alpha) >= n + 1


def pb_member(ct: ConeTables, alpha: int, n: int) -> bool:
    return 0 <= n and alpha <= n and _count(ct._pb_law, n - alpha) >= n + 1


def overlaps_and_gaps(
    ct: ConeTables, pd: PeriodData, m: int, l: int,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Overlap and gap index pairs (alpha, n) for levels m <= n < l.

    Overlaps are the points k*(theta, sigma) in the window; gaps are the
    positions covered by neither cone, the columns strictly between
    max_pb_col(n) and min_pa_col(n), which decide membership at every column
    (see ConeTables).  Every level is cross-checked against the
    overlap-lattice law: the cones may meet only in the one column k*theta
    at a level n = k*sigma.  The law needs width 1 (theta + theta' =
    sigma): below it a level that breaks the law raises WidthError, an input
    error; at width 1 it raises ClaimViolation, a bug.  With the certified
    thresholds this is the whole strip law: no overlap off the lattice, and
    no gap outside the strip.
    """
    if not 0 <= m < l:
        raise LevelError(f"need 0 <= m < l, got m={m}, l={l}")
    sigma, theta = pd.sigma, pd.theta
    overlaps = [(k * theta, k * sigma) for k in range(-(-m // sigma), -(-l // sigma))]
    gaps: list[tuple[int, int]] = []
    for n in range(m, l):
        col_a = ct.min_pa_col(n)
        col_b = ct.max_pb_col(n)
        if col_a <= col_b:
            k, r = divmod(n, sigma)
            if r != 0 or col_a != col_b or col_a != k * theta:
                if theta + pd.theta_prime != sigma:
                    raise WidthError(
                        f"level {n}: cones overlap on columns [{col_a}, {col_b}]; the overlap "
                        f"law needs width 1, got {Fraction(theta + pd.theta_prime, sigma)}")
                raise ClaimViolation(
                    f"level {n}: cones overlap on columns [{col_a}, {col_b}], "
                    f"expected only multiples of ({theta}, {sigma})")
        gaps.extend((alpha, n) for alpha in range(col_b + 1, col_a))
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

_RAT_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or integer text; decimal notation and a zero q are
    rejected."""
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
    except (OSError, UnicodeDecodeError) as exc:
        raise TriangleFileError(f"cannot read {path}: {exc}") from exc
