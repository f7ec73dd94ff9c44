"""Exact univariate polynomial arithmetic over Q.

Coefficients are `fractions.Fraction` values stored densely, lowest degree
first, with trailing zeros trimmed, so structural equality is mathematical
equality. No factorization into irreducibles is performed anywhere;
everything rests on gcds, exact division, and evaluation.

Values stay `Fraction`s, but division, gcds and squarefree decomposition
run on integer coefficient lists in Z[y]: `_int_divexact` (long division),
`_int_gcd` (primitive remainder sequence), `_int_squarefree` (Yun's
algorithm) and `_int_multiplicity` (repeated exact division). The
pipeline scales its polynomials by a matrix's common denominator, which
makes every divisor monic in Z[y]; `poly_gcd`, `poly_divexact` and
`squarefree_decomposition` clear denominators and call the same core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import InexactDivisionError, InvalidParametersError

Scalar = Union[int, Fraction]


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial over Q, lowest-degree coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        items = [_coerce_fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "Polynomial":
        """Monic polynomial with the given roots (with multiplicity)."""
        poly = cls.one()
        for r in roots:
            poly = poly * cls((-_coerce_fraction(r), 1))
        return poly

    # ------------------------------------------------------------------
    # basic queries
    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # ------------------------------------------------------------------
    # ring operations
    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero()
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidParametersError("polynomial exponent must be a non-negative integer")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate by Horner's rule (exact)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # ------------------------------------------------------------------
    # normal form
    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial(tuple(c / lead for c in self.coeffs))

    # ------------------------------------------------------------------
    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# ---------------------------------------------------------------------------
# integer polynomials scaled by a common denominator
#
# With L the common denominator of a rational matrix M, the map
# P(x) -> L^deg(P) P(y / L) sends det(xI - M) to det(yI - L*M), and so
# every monic factor of it, to a monic polynomial in Z[y]. Products and
# exact quotients of such factors need integers only.


def _scaled(poly: Polynomial, l: int) -> List[int]:
    """Coefficients, lowest first, of L^d P(y / L) with d = deg P; raises
    InexactDivisionError when one of them is not an integer."""
    d = poly.degree
    out = []
    for k, c in enumerate(poly.coeffs):
        q, r = divmod(c.numerator * l ** (d - k), c.denominator)
        if r:
            raise InexactDivisionError(f"{poly} does not scale by {l} to an integer polynomial")
        out.append(q)
    return out


def _unscaled(coeffs: Sequence[int], l: int, den: int = 1) -> Polynomial:
    """The polynomial P with den * L^d P(y / L) equal to `coeffs`, where
    d = len(coeffs) - 1 (top zeros count): the inverse of `_scaled`."""
    d = len(coeffs) - 1
    return Polynomial([Fraction(c, den * l ** (d - k)) for k, c in enumerate(coeffs)])


def _cleared(poly: Polynomial) -> Tuple[List[int], int]:
    """Integer coefficients c and the positive integer d with poly = c / d."""
    d = math.lcm(*(c.denominator for c in poly.coeffs))
    return [c.numerator * (d // c.denominator) for c in poly.coeffs], d


def _int_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Schoolbook product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divexact(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The quotient a / b in Z[y] by long division; raises
    InexactDivisionError when there is none, that is, when a leading
    coefficient does not divide exactly or a remainder is left. Every
    division by a monic b in Z[y] that is exact over Q is exact here."""
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [0] * max(len(rem) - db, 0)
    lead = b[-1]
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            raise InexactDivisionError(f"inexact integer polynomial division by {list(b)}")
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[j + k] -= c * y
    if any(rem[:db]):
        raise InexactDivisionError(f"inexact integer polynomial division: remainder {rem[:db]} by {list(b)}")
    return quot


def _primitive(a: Sequence[int]) -> List[int]:
    """a without its top zeros, divided by its content and signed so that
    the leading coefficient is positive ([] for zero)."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    if not a:
        return a
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The gcd of a and b up to content: primitive, with a positive leading
    coefficient, so the monic gcd over Q times the least positive integer
    that clears it ([] when both are zero). A primitive remainder sequence:
    each pseudo-remainder is divided by its content (von zur Gathen &
    Gerhard, ch. 6). A divisor of a monic polynomial comes out monic."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        rem, lead, db = a, b[-1], len(b) - 1
        while len(rem) > db:
            # scale rem by lead / g and take away (top / g) y^shift b
            g = math.gcd(rem[-1], lead)
            top, mul, shift = rem[-1] // g, lead // g, len(rem) - 1 - db
            if mul != 1:
                rem = [x * mul for x in rem]
            for j, y in enumerate(b):
                rem[shift + j] -= top * y
            while rem and not rem[-1]:
                rem.pop()
        a, b = b, _primitive(rem)
    return a


def _int_squarefree(p: Sequence[int]) -> List[Tuple[List[int], int]]:
    """Yun's squarefree decomposition of a monic p in Z[y]: the pairs
    (a_i, i), a_i monic, squarefree, pairwise coprime and of positive
    degree, with p = prod a_i^i. Every gcd taken divides p, so it is monic
    and every division is exact in Z[y]."""

    def deriv(a):
        return [k * c for k, c in enumerate(a)][1:]

    def minus(a, b):
        return [x - y for x, y in zip(a, b)]

    dp = deriv(p)
    g = _int_gcd(p, dp)
    c = _int_divexact(p, g)
    d = minus(_int_divexact(dp, g), deriv(c))
    out = []
    i = 1
    while len(c) > 1:
        a = _int_gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c = _int_divexact(c, a)
        d = minus(_int_divexact(d, a), deriv(c))
        i += 1
    return out


def _int_multiplicity(a: Sequence[int], b: Sequence[int]) -> int:
    """The largest e with b^e dividing a in Z[y], for a non-zero a and a
    monic b of positive degree, by repeated exact division."""
    if not any(a) or len(b) < 2:
        raise InvalidParametersError("root multiplicity needs a non-zero polynomial and a divisor of positive degree")
    e = 0
    try:
        while True:
            a = _int_divexact(a, b)
            e += 1
    except InexactDivisionError:
        return e


# ---------------------------------------------------------------------------
# the same operations on rational polynomials


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (`_int_gcd` of the cleared operands)."""
    return Polynomial(_int_gcd(_cleared(a)[0], _cleared(b)[0])).monic()


def poly_divexact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient a/b, raising InexactDivisionError on a nonzero remainder.
    With a = A / d and b = c B for integer A, primitive B and rational c,
    a / b = (A / B) / (c d), and A / B is exact in Z[y] whenever it is
    exact over Q (Gauss's lemma)."""
    numerator, d = _cleared(a)
    divisor = _primitive(_cleared(b)[0])
    quot = _int_divexact(numerator, divisor)
    return Polynomial(quot) * (divisor[-1] / (d * b.leading_coefficient))


def squarefree_decomposition(poly: Polynomial) -> Tuple[Tuple[Polynomial, int], ...]:
    """Yun decomposition: pairwise-coprime monic squarefree factors with
    multiplicities, so that poly = lc * prod f_i^(e_i). The monic p =
    poly / lc, scaled by the lcm L of its denominators, is monic in Z[y]
    (`_int_squarefree`)."""
    if poly.is_zero:
        raise InvalidParametersError("the zero polynomial has no squarefree decomposition")
    p = poly.monic()
    l = _cleared(p)[1]
    return tuple((_unscaled(a, l), e) for a, e in _int_squarefree(_scaled(p, l)))
