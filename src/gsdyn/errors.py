"""Exception hierarchy shared by all gsdyn modules.

Each class carries the CLI's exit code for it and the word its stderr line
starts with:

    exit 1  "verification failed"  GsdynError, VerificationError
    exit 2  "error"                DomainError, ConfigurationError
    exit 3  "inconclusive"         ResourceLimitError, BoundaryHitError,
                                   InconclusiveError

Exit 1 is also a verdict mismatch, 141 a closed output pipe, and 0 is success.
"""

MISMATCH_EXIT = 1
USAGE_EXIT = 2
RESOURCE_EXIT = 3
PIPE_EXIT = 141  # 128 + SIGPIPE: a shell's status for a writer whose pipe was closed


class GsdynError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = MISMATCH_EXIT
    word = "verification failed"


class DomainError(GsdynError, ValueError):
    """An argument is outside the mathematical domain of the operation."""

    exit_code, word = USAGE_EXIT, "error"


class ConfigurationError(GsdynError, ValueError):
    """A grid / search / CLI configuration is malformed or too coarse."""

    exit_code, word = USAGE_EXIT, "error"


class ResourceLimitError(GsdynError, RuntimeError):
    """A hard resource cap (degree, jet order, partition size) was exceeded."""

    exit_code, word = RESOURCE_EXIT, "inconclusive"


class BoundaryHitError(GsdynError, RuntimeError):
    """A numeric search ended on the boundary of its bracket; enlarge it."""

    exit_code, word = RESOURCE_EXIT, "inconclusive"


class VerificationError(GsdynError, RuntimeError):
    """An internally computed certificate failed its own consistency check."""


class InconclusiveError(GsdynError, RuntimeError):
    """The search terminated without a certifiable interior result."""

    exit_code, word = RESOURCE_EXIT, "inconclusive"
