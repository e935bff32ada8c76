"""Exception types shared across the package, and the work and ball ceilings."""

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
