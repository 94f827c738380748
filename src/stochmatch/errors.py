"""Exception types shared across the package."""


class StochmatchError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(StochmatchError):
    """Malformed graph file. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InstanceTooLargeError(StochmatchError):
    """Exact enumeration requested above the configured edge cap."""


class ParameterOverflowError(StochmatchError):
    """A paper-faithful constant exceeds the configured guard.

    Raised instead of silently underflowing or allocating absurd amounts of
    work; the message quotes the computed magnitudes so the caller can decide
    whether to override.
    """


class DivisionGuardError(StochmatchError):
    """A (1 - Pr[X_v]) denominator fell at or below the configured floor."""


class CandidateWalkCapError(StochmatchError):
    """Hyperwalk enumeration produced more candidate walks than allowed.

    The cap (``vim._MAX_CANDIDATE_WALKS``) bounds the candidate hyperwalks of
    one recursion node.
    """


class SubsetCapError(StochmatchError):
    """Blossom-inequality check asked to enumerate too many vertex subsets."""
