"""Exception hierarchy shared by all modules."""


class OptDesignError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OptDesignError, ValueError):
    """Invalid input: bad parameters, malformed files, broken invariants."""


class DomainError(ValidationError):
    """A point lies outside the design space it is evaluated on."""


class MustTruncateError(ValidationError):
    """An unbounded axis must be truncated before discretization."""


class DegenerateModelError(ValidationError):
    """Candidate set does not span the regression space; the problem is rank-deficient."""


class EmptyDesignError(ValidationError):
    """An operation would leave a design with no atoms."""


class NoConditionalModelError(ValidationError):
    """The slice map does not cut the model's design space into conditional models."""


class TruncationSlackError(OptDesignError):
    """The normality inequality is not slack at a truncated boundary; enlarge the domain."""


class InconsistencyError(OptDesignError):
    """A certificate and a design that should agree do not."""
