"""Exception types shared across the package.

Everything user-facing derives from ``LatticeNetError`` so callers (and the
CLI) can distinguish bad configuration, bad data and internal bugs.
"""


class LatticeNetError(Exception):
    """Base class for all errors raised by this package."""


class SizeMismatchError(LatticeNetError, ValueError):
    """A strided layer does not divide its input size evenly.

    Raised instead of silently cropping: a non-dividing stride corrupts the
    geometry of everything downstream.
    """


class ParseError(LatticeNetError, ValueError):
    """Architecture string could not be parsed.

    ``offset`` is the character offset of the offending token in the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


class PlanError(LatticeNetError, ValueError):
    """Layer sizes cannot be planned for an architecture (e.g. FMP below
    its minimum feasible size)."""


class FormatError(LatticeNetError, ValueError):
    """An input file is malformed.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
