"""Exception types, the work and ball ceilings, and the non-finite contract:
one intake check of exponents, one of bounds and one refusal of a non-finite result."""

import cmath
from fractions import Fraction

# Most lattice terms, candidate forms or candidate vectors one call may
# evaluate; above it the call raises DomainError before it allocates.
MAX_WORK = 10**9
# Most rows of one short-vector ball (32 B each, 512 MiB in all); a larger
# ball is refused after its leaves are counted, before any is built.
MAX_BALL = 1 << 24


class Siegel3Error(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(Siegel3Error):
    pass


class SingularDenominator(Siegel3Error):
    pass


class BranchCutError(Siegel3Error):
    """A principal-log argument landed on (or within tolerance of) (-inf, 0]."""


class PoleError(Siegel3Error):
    pass


class QuadratureFailure(Siegel3Error):
    pass


class DomainError(Siegel3Error):
    pass


class NotCoprimePair(Siegel3Error):
    pass


class CompletionFailure(Siegel3Error):
    pass


class Diverged(Siegel3Error):
    """Group closure exceeded its cap: wrong generators."""


class ParseError(Siegel3Error):
    pass


class NonReducedKey(Siegel3Error):
    pass


class DuplicateKey(Siegel3Error):
    pass


def finite_exponents(*values):
    """The values as complex numbers; DomainError unless all are finite."""
    out = tuple(map(complex, values))
    if not all(map(cmath.isfinite, out)):
        raise DomainError("exponents must be finite, got %r" % (values,))
    return out


def finite_bound(bound):
    """The bound as an exact Fraction; DomainError unless it is finite."""
    try:
        return Fraction(bound)
    except (OverflowError, ValueError):
        raise DomainError("bounds must be finite, got %r" % (bound,)) from None


def require_finite(value, what):
    """``value`` if it is finite; else DomainError, since a sum of finite terms
    that is not finite has overflowed (or met inf - inf)."""
    if not cmath.isfinite(value):
        raise DomainError("%s is not finite: it overflowed to %s" % (what, complex(value)))
    return value
