"""Seeded inputs for the three benchmark workloads.

An op is one public call into reeslab: one ``decide``, one
``factorization_search`` or one ``scan_family`` member.  The generator only
builds exact inputs (vertex coordinates, characteristic, m, g); it never runs
reeslab and never looks at a measured time, so the same seed gives the same
op list on every commit.

Every seed keeps the anchors the paper's claims rest on: the worked example
(-5/6, 5/12), (1/6, -1/12), (0, 1) in search-p and factor-q, and both family
endpoints g = 2 and g = 3 in scan-q.  g = 3 is where the two
characteristic-0 criteria disagree (a TheoremViolation); it stays in every
op list so that the failure shows in scan-q's fail ratio.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

WORKLOADS = ("search-p", "factor-q", "scan-q")

WORKED = ((F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (F(0), F(1)))

# Bottom-edge slopes of the seeded width-1 triangles.  -1/2 takes the
# closed-form w-power route (_lemma_w_rows); the others the iterative one.
SLOPES = (F(-1, 2), F(-1, 3), F(-2, 3))
SEARCH_CHARS = (2, 3, 5, 7)

# search-p size rule, on (u2, u, sigma, p) only: the largest sigma allowed.
# With default SearchBounds (r_max = 1, j_max = p-1) the last window ends at
# level sigma * p^2, and window reduction grows about as the cube of the
# window length.  Large p with moderate sigma is the regime the witness search
# is about (vanishing windows at p = 5, 7).  Large sigma at p = 3 mostly
# exercises the overlap/gap scan instead; at p = 2 the search stops at level
# 4 * sigma, so larger triangles stay cheap and give p90 enough ops.  The
# iterative w-power route (u = 3) costs several times the closed form per
# level, and u2 = 2 again more, so only sigma = 6 and small p are allowed.
SEARCH_MAX_SIGMA = {
    (1, 2, 2): 30, (1, 2, 3): 14, (1, 2, 5): 12, (1, 2, 7): 10,
    (1, 3, 2): 6, (1, 3, 3): 6, (1, 3, 5): 6,
    (2, 3, 2): 6, (2, 3, 3): 6,
}
# Every seed runs every allowed input, in a seeded order.  The pool is small
# and its op costs span three orders of magnitude with few ops between
# 5 ms and 1.6 s, so any subset would make wall time and p90 a property of
# which ops the seed drew rather than of the code.


# factor-q size rule: truncation level m*u of the m-th transition-unit power.
FACTOR_WORKED_M = 14
FACTOR_LEVEL_CAP = 12
FACTOR_DENOMINATORS = range(2, 9)

# scan-q: a g-grid of [2, 3] with SCAN_STEPS intervals shifted by a seeded
# phase k/7, plus both endpoints; and characteristic-0 decides on all the
# triangles of any width below.  Some of those decides raise on the current
# code, so every seed runs all of them: the failures then count the same on
# every seed.
SCAN_STEPS = 120
SCAN_PHASES = 7
SCAN_WIDTHS = (F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1))
SCAN_SLOPES = (F(0), F(-1, 2), F(-1, 3), F(-2, 3), F(-1, 4), F(-3, 4), F(-1))
SCAN_POSITIONS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1))

# factor-q runs this share of its seeded pool.  The draw is stratified: it
# keeps the same share of every (slope, m) stratum, whose ops cost about the
# same, so that the seed changes the inputs but not the cost profile that
# p50 and p90 are read from.
SAMPLE_SHARE = 0.9


@dataclass(frozen=True)
class Op:
    """One public call: kind is 'decide', 'factor' or 'scan'."""

    kind: str
    vertices: tuple = ()
    p: int = 0
    m: int = 0
    g: F = F(0)

    @property
    def key(self) -> str:
        """Canonical text of the input; the reference file is keyed by it."""
        if self.kind == "scan":
            return f"scan g={self.g}"
        tri = ";".join(f"{x},{y}" for x, y in self.vertices)
        if self.kind == "decide":
            return f"decide p={self.p} tri={tri}"
        return f"factor m={self.m} tri={tri}"


def triangle(ubar: F, x2: F, width: F = F(1)) -> tuple:
    """Vertices (x2, ubar*x2), (x2+width, ubar*(x2+width)), (0, 1)."""
    x1 = x2 + width
    return ((x2, ubar * x2), (x1, ubar * x1), (F(0), F(1)))


def sigma_of(vertices) -> int:
    """Dilation period: the least common denominator of all coordinates."""
    return math.lcm(*(c.denominator for v in vertices for c in v))


def normal_position(ubar: F, x2: F, width: F = F(1)) -> bool:
    """Edge-slope chain of a normalized triangle with apex (0, 1): the left
    edge slope is >= 0 and the right edge slope <= -1."""
    x1 = x2 + width
    return (x2 == 0 or ubar - 1 / x2 >= 0) and (x1 == 0 or ubar - 1 / x1 <= -1)


def _width1_triangles(denominators):
    for ubar in SLOPES:
        for d in denominators:
            for k in range(1, d):
                x2 = F(-k, d)
                if math.gcd(k, d) == 1 and normal_position(ubar, x2):
                    yield ubar, triangle(ubar, x2)


def search_pool() -> list[Op]:
    """Seeded search-p inputs allowed by the size rule."""
    pool = []
    for ubar, verts in _width1_triangles(range(2, max(SEARCH_MAX_SIGMA.values()) + 1)):
        shape, sigma = (-ubar.numerator, ubar.denominator), sigma_of(verts)
        pool.extend(Op("decide", verts, p=p) for p in SEARCH_CHARS
                    if sigma <= SEARCH_MAX_SIGMA.get((*shape, p), 0) and verts != WORKED)
    return pool


def factor_pool() -> list[Op]:
    """Seeded factor-q inputs: m = 1 .. FACTOR_LEVEL_CAP // u per triangle."""
    return [Op("factor", verts, m=m)
            for ubar, verts in _width1_triangles(FACTOR_DENOMINATORS) if verts != WORKED
            for m in range(1, FACTOR_LEVEL_CAP // ubar.denominator + 1)]


def scan_decide_pool() -> list[Op]:
    """Characteristic-0 decides on triangles of any width in [1/2, 1]."""
    pool = []
    for width in SCAN_WIDTHS:
        for ubar in SCAN_SLOPES:
            for pos in SCAN_POSITIONS:
                x2 = -width * pos
                if normal_position(ubar, x2, width):
                    pool.append(Op("decide", triangle(ubar, x2, width), p=0))
    return pool


def scan_grid(phase: F) -> list[Op]:
    """SCAN_STEPS interior points of [2, 3], shifted by phase."""
    return [Op("scan", g=2 + (k + phase) / SCAN_STEPS) for k in range(SCAN_STEPS)]


def anchors(workload: str) -> list[Op]:
    """Ops that every seed runs."""
    if workload == "search-p":
        return [Op("decide", WORKED, p=p) for p in SEARCH_CHARS]
    if workload == "factor-q":
        return [Op("factor", WORKED, m=m) for m in range(1, FACTOR_WORKED_M + 1)]
    return [Op("scan", g=F(2)), Op("scan", g=F(3))]


def _sample(rng: random.Random, pool: list, stratum) -> list:
    """SAMPLE_SHARE of each stratum of the pool, drawn by rng."""
    groups: dict = {}
    for op in pool:
        groups.setdefault(stratum(op), []).append(op)
    return [op for key in sorted(groups)
            for op in rng.sample(groups[key], round(SAMPLE_SHARE * len(groups[key])))]


def _slope_and_m(op: Op) -> tuple:
    x1, y1 = op.vertices[1]
    return y1 / x1, op.m


def build_ops(workload: str, seed: int) -> list[Op]:
    """The fixed, seeded op list of one pass over a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = anchors(workload)
    if workload == "search-p":
        ops += search_pool()
    elif workload == "factor-q":
        ops += _sample(rng, factor_pool(), _slope_and_m)
    else:
        phase = F(rng.randrange(1, SCAN_PHASES), SCAN_PHASES)
        ops += scan_grid(phase) + scan_decide_pool()
    rng.shuffle(ops)
    return ops


def universe(workload: str) -> list[Op]:
    """Every op that some seed can put in the workload's op list."""
    if workload == "search-p":
        return anchors(workload) + search_pool()
    if workload == "factor-q":
        return anchors(workload) + factor_pool()
    grids = [op for k in range(1, SCAN_PHASES) for op in scan_grid(F(k, SCAN_PHASES))]
    return anchors(workload) + grids + scan_decide_pool()
