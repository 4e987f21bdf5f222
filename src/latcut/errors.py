"""Exception hierarchy shared by all latcut modules.

Index attributes on these exceptions are 0-based (matching the library
API); rendered messages use 1-based indices because they are meant for
people reading diagnostics next to 1-based CLI output.
"""

from __future__ import annotations


class LatCutError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(LatCutError):
    """Input data violates a structural invariant."""


class ShapeMismatch(ValidationError):
    """Vector or matrix dimensions are inconsistent."""


class SumNotZero(ValidationError):
    """Superbase vectors do not sum to zero."""

    def __init__(self, component: int, residual):
        self.component = component
        self.residual = residual
        super().__init__(
            f"superbase vectors do not sum to zero: component {component + 1} "
            f"sums to {residual}"
        )


class ObtuseViolation(ValidationError):
    """A pairwise inner product is positive."""

    def __init__(self, pair: tuple[int, int], value):
        self.pair = pair
        self.value = value
        i, j = pair
        super().__init__(
            f"inner product of vectors {i + 1} and {j + 1} is {value} > 0"
        )


class _Unreachable(ValidationError):
    """The Selling graph is disconnected, so the rank is too low.

    `vector` is the lowest index that cannot be reached from the first
    vector along nonzero off-diagonal Selling parameters.
    """

    consequence = ""

    def __init__(self, vector: int):
        self.vector = vector
        super().__init__(
            f"vector {vector + 1} cannot be reached from vector 1 in the "
            f"Selling graph, so {self.consequence}"
        )


class RankDeficient(_Unreachable):
    """The first n superbase vectors are linearly dependent."""

    consequence = "the first n vectors span less than n dimensions"


class NotSymmetric(ValidationError):
    """A Gram matrix is not symmetric."""


class RowSumNotZero(ValidationError):
    """A Gram matrix row does not sum to zero."""

    def __init__(self, row: int, residual):
        self.row = row
        self.residual = residual
        super().__init__(f"row {row + 1} sums to {residual}, expected 0")


class WrongRank(_Unreachable):
    """A Gram matrix does not have rank exactly n = side - 1."""

    consequence = "the rank is less than side - 1"


class LengthMismatch(ValidationError):
    """A binary assignment has the wrong number of entries."""


class EmptySide(LatCutError):
    """A cut side is empty or covers every vertex."""


class TooLarge(LatCutError):
    """Refused: an exhaustive enumeration that would be exponential, or
    input whose common denominator is too long to scale by."""


class CertificateError(LatCutError):
    """A computed answer failed its own consistency check: a latcut bug."""


class ZeroWeightCut(LatCutError):
    """The minimum cut has weight zero, which no valid input can produce."""


class ImproperAssignment(LatCutError):
    """A binary assignment is all zeros or all ones."""


class ParseError(LatCutError):
    """An input file could not be tokenized or parsed."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ShapeError(LatCutError):
    """An input file's rows disagree with its declared header shape."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
