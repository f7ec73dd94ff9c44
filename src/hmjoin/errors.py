"""Exception hierarchy shared across the package."""


class HmJoinError(Exception):
    """Base class for every error raised by this package.

    `where` is the JSON pointer of the faulty item inside the value being
    built, relative to that value: "/factors/1" or "/subsets/0/2" for a
    spec, "/3" for an indexing map, "" when the fault is not one item. The
    constructors set it, so a reader that knows where the value sits in its
    document reports the fault at its own pointer plus `where`.
    """

    def __init__(self, message="", where=""):
        super().__init__(message)
        self.where = where


class InvalidParametersError(HmJoinError, ValueError):
    """A numeric or structural parameter is out of its documented range."""


class SizeMismatchError(HmJoinError, ValueError):
    """Dimensions of matrices, lists or maps do not line up."""


class InexactDivisionError(HmJoinError, ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


class NonSymmetricInputError(HmJoinError, ValueError):
    """The operation needs a symmetric matrix (real spectrum, orthogonal
    eigenprojections) and the input is not symmetric."""


class SpecValidationError(HmJoinError, ValueError):
    """A spec document failed validation.

    The `pointer` attribute holds a JSON-pointer path to the offending
    field ("" for document-level problems), and the text reads
    "<pointer>: <message>". Its args are (message, pointer), so a pickled
    error rebuilds the same text.
    """

    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.args = (message, pointer)
        self.pointer = pointer
        self.message = message

    def __str__(self):
        return f"{self.pointer or '<document>'}: {self.message}"


class BlockFactorizationError(HmJoinError, ArithmeticError):
    """The block path and the direct path disagree: the characteristic
    polynomial from factor data differs from the one from the assembled
    matrix, or that one lacks 1 at x^n or -trace(M) at x^(n-1)."""


class CarryForwardError(HmJoinError, ArithmeticError):
    """An observed eigenvalue multiplicity in the join fell below its
    guaranteed carry-forward bound."""


class HypothesisNotMetError(HmJoinError, ValueError):
    """A cospectral-construction hypothesis check failed; the message names
    the first violated condition."""


class TheoremViolationError(HmJoinError, ArithmeticError):
    """All stated hypotheses hold, yet the concluded identity fails on the
    instance (the designated charpolys differ)."""


class TooLargeError(HmJoinError, ValueError):
    """The input exceeds a documented size cap for an exact algorithm."""
