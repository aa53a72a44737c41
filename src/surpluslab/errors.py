"""Exception types shared across the package.

ValidationError subclasses signal bad inputs (CLI exit code 2);
CapExceeded signals an enumeration oracle, a rejection loop or a P-tree
draw loop asked to do too much work (CLI exit code 3).
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class CapExceeded(RuntimeError):
    """An enumeration oracle, a rejection or a draw loop would exceed its cap."""


class SumMismatch(ValidationError):
    pass


class OddSum(SumMismatch):
    pass


class NotSorted(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class TupleMismatch(ValidationError):
    pass


class TooLarge(CapExceeded):
    pass


class Disconnected(ValidationError):
    pass


class NotALeaf(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    pass


class SurplusMismatch(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class InsufficientLeaves(ValidationError):
    pass


class UnknownVertex(ValidationError):
    pass


class CutsNotIncreasing(ValidationError):
    pass


class AnchorOutOfRange(ValidationError):
    pass


class UnknownMark(ValidationError):
    pass


class InsufficientMarks(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class FourPointViolation(ValidationError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TriangleViolation(FourPointViolation):
    """The four-point condition on a quadruple with a repeated leaf: one
    distance exceeds the sum of the two others; witness (i, j, k) reads
    d(i,j) > d(i,k) + d(k,j)."""


class NegativeLength(ValidationError):
    pass
