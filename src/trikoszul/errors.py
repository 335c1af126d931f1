"""Exception types shared across the package."""


class IdealParseError(ValueError):
    """Raised on malformed ideal text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class NotArtinianError(ValueError):
    """Input ideal is not m-primary inside the square of the maximal ideal."""


class DimensionCapError(RuntimeError):
    """A configured size cap was exceeded; reported, never silently truncated."""


class NonGenericError(ValueError):
    """An operation restricted to generic ideals received a non-generic one."""


class FamilyConstraintError(ValueError):
    """Family parameters violate one of the defining inequalities."""


class SamplingBudgetError(RuntimeError):
    """The random ideal sampler ran out of attempts."""


class InternalInvariantError(RuntimeError):
    """A check on the program's own computation failed: a bug, not bad input."""
