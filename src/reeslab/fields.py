"""Exact base-field arithmetic: the rationals or a prime field F_p.

Coefficients are plain Python objects: ``fractions.Fraction`` (or ``int``)
in characteristic 0, and ``int`` reduced to ``[0, p)`` in characteristic p.
Keeping coefficients primitive lets the hot loops in the section algebra
stay free of per-element dispatch.  ``FieldSpec`` only brings integers and
fractions into the field and inverts; sums and products are reduced mod p
where they are accumulated, in ``algebra._radd`` (one term) and
``algebra._radd_row`` (a scaled row, also used by the elimination in
``cohomology._echelon_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field, identified by its characteristic (0 means the rationals)."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not is_prime(p):
            raise RangeError(f"characteristic must be 0 or a prime, got {p}")

    def of_int(self, n: int):
        p = self.characteristic
        return n % p if p else Fraction(n)

    def of_fraction(self, q: Fraction):
        p = self.characteristic
        if not p:
            return Fraction(q)
        num, den = q.numerator, q.denominator
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes mod {p}")
        return (num * pow(den, -1, p)) % p

    def inv(self, a):
        p = self.characteristic
        if p:
            if a % p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)


RATIONALS = FieldSpec(0)


def coeff_str(c) -> str:
    """Render a coefficient as an integer or p/q (never a float)."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return str(c.numerator)
    return str(c)
