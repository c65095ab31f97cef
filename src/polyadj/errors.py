"""Exception types shared across the package.

Everything user-facing derives from PolyadjError so the CLI can map
failures to stable exit codes. ValueError subclasses mark bad input,
InternalInconsistencyError marks a failed internal cross-check (a bug).
"""


class PolyadjError(Exception):
    pass


class ZeroVectorError(PolyadjError, ValueError):
    pass


class DimensionMismatchError(PolyadjError, ValueError):
    pass


class EmptyPolytopeError(PolyadjError, ValueError):
    pass


class UnboundedPolytopeError(PolyadjError, ValueError):
    pass


class LowerDimensionalError(PolyadjError, ValueError):
    pass


class NotLatticePolytopeError(PolyadjError, ValueError):
    pass


class NonUnimodularError(PolyadjError, ValueError):
    pass


class InvalidConeError(PolyadjError, ValueError):
    pass


class NotInConeError(PolyadjError, ValueError):
    pass


class InvalidConfigError(PolyadjError, ValueError):
    pass


class ParseError(PolyadjError, ValueError):
    pass


class GridTooLargeError(PolyadjError, OverflowError):
    """len() of a ReciprocalGrid with more than sys.maxsize values; size
    holds the exact count."""

    def __init__(self, size: int):
        super().__init__(f"the grid has {size} values, more than len() can return; read its size")
        self.size = size


class InternalInconsistencyError(PolyadjError, RuntimeError):
    """An exact cross-check that should always hold has failed."""
