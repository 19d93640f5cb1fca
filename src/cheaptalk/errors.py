"""Exception types shared across the package."""

__all__ = [
    "CheapTalkError",
    "DimensionMismatchError",
    "BinDeathError",
    "InfeasibleBinCountError",
    "InfeasibleDistortionError",
]


class CheapTalkError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CheapTalkError, ValueError):
    """Vector arguments do not share the expected length."""


class BinDeathError(CheapTalkError):
    """A quantization bin has zero (or negligible) probability mass.

    Every bin of a valid quantizer must carry strictly positive probability,
    so an emptied bin invalidates the configuration that produced it.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"bin {index} has no probability mass")


class InfeasibleBinCountError(CheapTalkError):
    """No equilibrium with the requested number of bins exists."""

    def __init__(self, requested: int, max_feasible: int, message: str | None = None):
        self.requested = requested
        self.max_feasible = max_feasible
        super().__init__(
            message
            or f"no {requested}-bin equilibrium exists (maximum feasible: {max_feasible})"
        )


class InfeasibleDistortionError(CheapTalkError, ValueError):
    """The requested distortion pair cannot be met by any equilibrium code."""
