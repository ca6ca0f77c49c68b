"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SegremlError(Exception):
    """Base class for all package-specific errors."""


class ZeroEntryError(SegremlError):
    """A scaling tensor entry is zero (the model lives in the torus)."""

    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"entry w[{i}][{j}][{k}] is zero; all entries must be nonzero")
        self.index = (i, j, k)


class DimensionMismatchError(SegremlError):
    """Input data has the wrong shape."""


class GenerationFailedError(SegremlError):
    """Witness construction exhausted its retry budget."""


class NotZeroDimensionalError(SegremlError):
    """The score ideal has infinitely many solutions."""


class ResourceBudgetExceededError(SegremlError):
    """A basis-size budget or the packed-exponent degree limit was exceeded."""


class UnstableCountError(SegremlError):
    """A count failed its own check: two primes disagree, or an arrangement point's pair count is no C(m, 2)."""
