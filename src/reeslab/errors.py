"""Exception hierarchy.

Input errors (bad triangles, bad flags) map to CLI exit code 1, internal
invariant violations to exit code 2, exhausted search budgets to exit code 3.
"""


class ReesLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ReesLabError):
    """Base class for errors caused by invalid input."""


class ShapeError(InputError):
    """Triangle vertices are not in normalized position."""


class SlopeError(InputError):
    """Edge slopes violate the chain -inf <= tbar <= -1 <= ubar <= 0 <= sbar <= inf."""


class WidthError(InputError):
    """Triangle width is out of range for the requested operation."""


class RangeError(InputError):
    """A scan parameter is outside its admissible interval."""


class TriangleFileError(InputError):
    """Triangle input file is malformed."""


class LevelError(InputError):
    """A basis index or truncation level is out of range."""


class ContextMismatch(InputError):
    """Two algebra elements belong to different contexts or levels."""


class ContextError(InputError):
    """An operation was invoked in a context it does not support."""


class NotAUnit(InputError):
    """Inversion was requested for a non-unit element."""


class InternalError(ReesLabError):
    """Base class for violated internal invariants (likely a bug or an input
    outside theorem hypotheses)."""


class NotInF(InternalError):
    """The window sweep wrote to a level it had already read, so that level's
    residual was never reduced."""


class DegenerateError(InternalError):
    """Toric data turned out degenerate for a supposedly valid triangle."""


class ClaimViolation(InternalError):
    """A cone threshold or an overlap point broke the cone-strip law."""


class InconsistencyError(InternalError):
    """An internal invariant or cross-check of the computation failed: among
    others the Euler-characteristic identity of a window, a z-expansion's
    leading term or cursor order, the sweep's reach and visit bounds, the
    elimination's pivots, and the factorization certificate."""


class TheoremViolation(InternalError):
    """Two provably equivalent criteria disagreed at runtime."""


class BudgetExceeded(ReesLabError):
    """A bounded search ran out of budget before reaching a conclusion."""


def _non_int_message(**values) -> str:
    """The message naming the first value whose type is not exactly int, with
    its repr.  Callers test type(value) is not int first: a float would fail
    later with a bare TypeError, and True would pass for 1."""
    name, value = next((k, v) for k, v in values.items() if type(v) is not int)
    return f"{name} must be an int, got {value!r}"
