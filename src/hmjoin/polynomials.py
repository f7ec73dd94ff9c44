"""Exact univariate polynomial and rational-function arithmetic over Q.

Coefficients are `fractions.Fraction` values stored densely, lowest degree
first, with trailing zeros trimmed. Rational functions are kept reduced
(coprime numerator/denominator) with a monic denominator, so structural
equality is mathematical equality. No factorization into irreducibles is
performed anywhere; everything rests on gcds, exact division, and
evaluation/interpolation.
"""

from __future__ import annotations

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

    def __divmod__(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return Polynomial.zero(), self
        inv_lead = 1 / other.leading_coefficient
        quot = [Fraction(0)] * (dd - dv + 1)
        for k in range(dd - dv, -1, -1):
            c = rem[dv + k] * inv_lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return Polynomial(quot), Polynomial(rem[:dv])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate by Horner's rule (exact)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # ------------------------------------------------------------------
    # calculus / normal forms
    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))

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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (Euclid over Q, renormalized each step)."""
    a, b = a.monic(), b.monic()
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial.zero()
    return poly_divexact(a * b, poly_gcd(a, b)).monic()


def poly_divexact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient a/b, raising InexactDivisionError on a nonzero remainder."""
    quot, rem = divmod(a, b)
    if not rem.is_zero:
        raise InexactDivisionError(f"inexact polynomial division: remainder {rem} dividing {a} by {b}")
    return quot


def rational_root_multiplicity(poly: Polynomial, root: Scalar) -> int:
    """Largest e with (x - root)^e dividing poly (0 when root is not a root)."""
    if poly.is_zero:
        raise InvalidParametersError("the zero polynomial has no finite root multiplicity")
    r = _coerce_fraction(root)
    mult = 0
    current = list(poly.coeffs)
    while True:
        # synthetic division by (x - r), highest coefficient first
        quot = [Fraction(0)] * (len(current) - 1)
        acc = Fraction(0)
        for k in range(len(current) - 1, 0, -1):
            acc = current[k] + acc * r
            quot[k - 1] = acc
        remainder = current[0] + acc * r
        if remainder != 0:
            return mult
        mult += 1
        current = quot
        if len(current) == 0:
            return mult


def squarefree_part(poly: Polynomial) -> Polynomial:
    """Monic product of the distinct roots' linear/irreducible factors."""
    if poly.is_zero:
        raise InvalidParametersError("the zero polynomial has no squarefree part")
    if poly.degree == 0:
        return Polynomial.one()
    return poly_divexact(poly.monic(), poly_gcd(poly, poly.derivative())).monic()


def squarefree_decomposition(poly: Polynomial) -> Tuple[Tuple[Polynomial, int], ...]:
    """Yun decomposition: pairwise-coprime monic squarefree factors with
    multiplicities, so that poly = lc * prod f_i^(e_i)."""
    if poly.is_zero:
        raise InvalidParametersError("the zero polynomial has no squarefree decomposition")
    p = poly.monic()
    if p.degree == 0:
        return ()
    out = []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    c = poly_divexact(p, g)
    d = poly_divexact(dp, g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = poly_divexact(c, a)
        d = poly_divexact(d, a) - c.derivative()
        i += 1
    return tuple(out)


def interpolate(points: Sequence[Tuple[Scalar, Scalar]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points
    (Newton divided differences; nodes must be distinct)."""
    xs = [_coerce_fraction(x) for x, _ in points]
    ys = [_coerce_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise InvalidParametersError("interpolation nodes must be distinct")
    n = len(points)
    coeffs = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = Polynomial.zero()
    basis = Polynomial.one()
    for i in range(n):
        if coeffs[i]:
            poly = poly + coeffs[i] * basis
        if i + 1 < n:
            basis = basis * Polynomial((-xs[i], 1))
    return poly


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


def _unscaled(coeffs: Sequence[int], l: int) -> Polynomial:
    """The polynomial P of degree len(coeffs) - 1 with L^deg(P) P(y / L)
    equal to `coeffs`: the inverse of `_scaled`."""
    d = len(coeffs) - 1
    return Polynomial([Fraction(c, l ** (d - k)) for k, c in enumerate(coeffs)])


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


class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_polynomial(num)
        den = Polynomial.one() if den is None else _as_polynomial(den)
        if den.is_zero:
            raise InvalidParametersError("rational function with zero denominator")
        if num.is_zero:
            num, den = Polynomial.zero(), Polynomial.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = poly_divexact(num, g), poly_divexact(den, g)
            lead = den.leading_coefficient
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RationalFunction(_as_polynomial(other))
        return NotImplemented

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __call__(self, value: Scalar) -> Fraction:
        d = self.den(value)
        if d == 0:
            raise ZeroDivisionError(f"pole of rational function at {value}")
        return self.num(value) / d

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == Polynomial.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _as_polynomial(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")


def _as_rational(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, Polynomial)):
        return RationalFunction(_as_polynomial(value))
    return NotImplemented
