"""Exact univariate polynomials over Q: an exact value type plus the Z[y]
core that does all their arithmetic.

`Polynomial` is a value: `fractions.Fraction` coefficients stored densely,
lowest degree first, with trailing zeros trimmed, so structural equality is
mathematical equality. It has queries and one renderer (`render_polynomial`), and no arithmetic of its own.

Every operation runs on integer coefficient lists in Z[y]: `_int_mul`
(products), `_int_coeff_eval` (Horner's rule), `_int_divexact` (long
division), `_int_gcd` (primitive remainder sequence), `_int_squarefree`
(Yun's algorithm) and `_int_multiplicity` (repeated exact division). The
pipeline scales its polynomials by a matrix's common denominator L
(`_scaled`, `_unscaled`), which makes every divisor monic in Z[y]; no
factorization into irreducibles is performed anywhere. Main functions keep
their polynomials in this scaled form and pass them to the core as they
are.
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
    if type(value) is int:  # not bool
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
    # basic queries
    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # ------------------------------------------------------------------
    # value semantics
    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Polynomial((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    # ------------------------------------------------------------------
    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return render_polynomial(self, "x")


def render_polynomial(p: Polynomial, var: str) -> str:
    """Compact descending rendering in `var`, e.g. x^3-2x+1/2 or
    (1/2)x^2-x: fractions in `str(Fraction)` form, in parentheses when
    they multiply a power of `var`."""
    if p.is_zero:
        return "0"
    text = ""
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else "%s^%d" % (var, k)
            if mag == 1:
                body = power
            elif mag.denominator == 1:
                body = str(mag) + power
            else:
                body = "(%s)%s" % (mag, power)
        text += ("-" if c < 0 else "+" if text else "") + body
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


def _int_coeff_eval(coeffs: Sequence[int], t: int) -> int:
    """The integer polynomial at the integer t, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


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
