"""Exact base-field arithmetic: the rationals or a prime field F_p.

Coefficients are plain Python objects: ``int`` reduced to ``[0, p)`` in
characteristic p, and ``int`` in characteristic 0.  A ``fractions.Fraction``
enters only through an inverse other than +-1, and spreads to every sum and
product it meets.  Keeping coefficients primitive lets the hot loops in the
section algebra stay free of per-element dispatch.  ``FieldSpec`` only
checks the characteristic and inverts; sums and products are reduced mod p
where they are accumulated, in ``algebra._radd`` (one term) and
``algebra._radd_row`` (a scaled row, also used by the elimination in
``cohomology._echelon_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeError, _non_int_message


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
        if type(p) is not int:
            raise RangeError(_non_int_message(characteristic=p))
        if p != 0 and not is_prime(p):
            raise RangeError(f"characteristic must be 0 or a prime, got {p}")

    def inv(self, a):
        """The inverse of a nonzero a: pow(a, -1, p) in characteristic p.  In
        characteristic 0 the inverse of +-1 is the exact int +-1, so scaling
        by it keeps an int an int; any other inverse is a Fraction."""
        p = self.characteristic
        if p:
            if a % p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if a == 1 or a == -1:
            return int(a)
        return 1 / Fraction(a)


RATIONALS = FieldSpec(0)
