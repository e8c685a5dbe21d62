"""Exception taxonomy shared across the toolkit.

Guard errors (enumeration blowups) are separated from usage errors
so the CLI can map them to distinct exit codes.
"""


class RthyError(Exception):
    """Base class for all library errors."""


class FormatError(RthyError):
    """Malformed input file or JSON schema violation."""


class DimensionMismatch(RthyError):
    pass


class HypothesisMismatch(DimensionMismatch):
    pass


class WrongHypothesisCount(DimensionMismatch):
    pass


class LengthMismatch(DimensionMismatch):
    pass


class ShapeMismatch(DimensionMismatch):
    pass


class ZeroReference(RthyError):
    """Reference distribution has a zero entry where mass is required."""


class BadStratumBounds(RthyError):
    """Rank stratum bounds must satisfy 1 <= m < k <= hypotheses."""


class IndexOutOfRange(RthyError):
    pass


class InvalidModule(RthyError):
    """Module (or, with ``what="quantale"``, quantale) failed validation;
    carries the violation list."""

    def __init__(self, violations, what: str = "module"):
        super().__init__(f"{what} axioms violated: {', '.join(map(str, violations))}")
        self.violations = violations


class NotReflexiveTransitive(RthyError):
    pass


class NotRightInvariant(RthyError):
    pass


class NotLeftInvariant(RthyError):
    pass


class GuardError(RthyError):
    """Base for enumeration guards (CLI exit code 3).

    ``count`` is how many candidates the enumeration would have visited and
    ``guard`` the limit it exceeded; ``what`` names the candidates.
    """

    def __init__(self, what: str, count: int, guard: int):
        super().__init__(f"{what} = {count}, above the guard {guard}")
        self.count = count
        self.guard = guard


class EnumerationTooLarge(GuardError):
    pass
