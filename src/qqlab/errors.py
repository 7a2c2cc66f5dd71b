"""Exception types shared across the package."""


class QqlabError(Exception):
    """Base class for qqlab errors."""


class WidthMismatchError(QqlabError):
    """Bit-word widths disagree (word vs word, or word vs register)."""


class LengthMismatchError(QqlabError):
    """An oracle table does not have exactly 2**n entries."""


class LayoutMismatchError(QqlabError):
    """Two state vectors (or a state and an assignment) use different layouts."""


class NonUnitaryError(QqlabError):
    """A gate matrix fails the unitarity admission tolerance."""


class TargetOutOfRangeError(QqlabError):
    """A gate targets a qubit position outside the layout."""


class DuplicateTargetError(QqlabError):
    """A gate lists the same qubit position twice."""


class NotNormalizedError(QqlabError):
    """An operation requiring a normalized state received one that is not."""


class CapExceededError(QqlabError):
    """A requested register layout exceeds the qubit cap."""


class TraceNotSucceededError(QqlabError):
    """A bound report was requested for an exhausted adversary trace."""


class InputError(QqlabError, ValueError):
    """Input from outside the program is malformed: a file, a config field
    or an environment variable."""


class ConfigError(InputError):
    """An experiment configuration failed validation."""
