"""Exact univariate polynomials over Q: an exact value type plus the Z[y]
core that does all their arithmetic.

`Polynomial` is a value: `fractions.Fraction` coefficients stored densely,
lowest degree first, with trailing zeros trimmed, so structural equality is
mathematical equality. It has queries and one renderer (`render_polynomial`), and no arithmetic of its own.
Its base `_Value` is the one way the package declares a value: graphs,
specs, main functions and every report or certificate record subclass it.

Every operation runs on integer coefficient lists in Z[y]: `_int_mul`
(products), `_int_pow` (J. C. P. Miller's power recurrence), `_int_shift`
(Taylor shifts), `_int_coeff_eval` (Horner's rule), `_int_divexact` (long
division), `_int_gcd` (the gcd and both cofactors), `_int_squarefree`
(Yun's algorithm) and `_int_multiplicity` (synthetic division by y - r,
repeated exact division by other divisors). The pipeline scales its
polynomials by a matrix's common denominator L (`_scaled`, `_unscaled`),
which makes every divisor monic in Z[y]; no factorization into
irreducibles is performed anywhere. Main functions keep their polynomials
in this scaled form and pass them to the core as they are.

`_int_gcd(a, b)` is the heuristic gcd of Char, Geddes & Gonnet (GCDHEU, J.
Symbolic Comput. 7, 1989). With A, B the primitive parts of a, b and N the
smaller of their max-norms, it evaluates both at an integer xi >= 2N + 2,
reads G off the balanced xi-adic digits of the integer gcd(A(xi), B(xi))
and takes its primitive part g. The certificate is the two exact divisions
a / g and b / g, which are also the cofactors every caller needs: once
both succeed, g is the gcd. For g divides the gcd, g c say, and c(xi)
divides the content of G, which is at most xi / 2; every root of c is a
common root, below N + 1 <= xi / 2 in modulus by Cauchy's bound, so
|c(xi)| > xi / 2 unless c is a constant. A failed division grows xi and
tries again. That ends: the stray factor gcd(A(xi), B(xi)) / g(xi)
divides the resultant of the cofactors, a fixed integer, so once xi is
large enough the digits are g times that factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import InexactDivisionError, InvalidParametersError

Scalar = Union[int, Fraction]


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # not bool
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class _Value:
    """Base of the package's immutable values. A value type subclasses it
    and declares its fields as `__slots__`, in order; a `__dict__` slot
    holds cached views and is not a field.

    The constructor takes one value per field, positionally, and refuses
    any other count. A type that checks or normalizes its input defines
    its own `__init__` and sets its fields with object.__setattr__, since
    assignment is refused. Equality and hashing compare `_key()`, by
    default the fields, and only between values of exactly the same type;
    the repr lists the fields. `copy` and `pickle` restore a value's state
    through object.__setattr__, without running a constructor."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # the default state of a slotted object: (its __dict__ or None, its slots)
        for part in state:
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Polynomial(_Value):
    """Dense univariate polynomial over Q, lowest-degree coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        items = [_coerce_fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

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


def _int_pow(a: Sequence[int], e: int) -> List[int]:
    """a^e for a non-zero a and e >= 0, top zeros included as `_int_mul`
    leaves them. With a = y^z c and c_0 != 0, b = c^e comes from J. C. P.
    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), which c b' = e c' b
    gives: k c_0 b_k = sum_(i >= 1) ((e + 1) i - k) c_i b_(k-i), exact in Z."""
    z = next(i for i, x in enumerate(a) if x)
    c = a[z:]
    terms = [(i, x) for i, x in enumerate(c) if i and x]
    b = [c[0] ** e]
    for k in range(1, (len(c) - 1) * e + 1):
        b.append(sum(((e + 1) * i - k) * x * b[k - i] for i, x in terms if i <= k) // (k * c[0]))
    return [0] * (z * e) + b


def _int_shift(a: Sequence[int], r: int) -> List[int]:
    """The coefficients of a(y + r), top zeros kept: b(y) = a(ry) shifted by 1
    through synthetic divisions by y - 1, which only add, then divided by r^k."""
    powers = [r ** k for k in range(len(a))] if r else []  # r = 0 leaves a as it is
    b, out = [c * p for c, p in zip(a, powers)][::-1], []
    while b:
        b = list(accumulate(b))
        out.append(b.pop())
    return [c // p for c, p in zip(out, powers)] if r else list(a)


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


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int], List[int]]:
    """(g, a / g, b / g) for the gcd g of a and b up to content: primitive,
    with a positive leading coefficient, so the monic gcd over Q times the
    least positive integer that clears it. The cofactors are the quotients
    of `_int_divexact`, top zeros of a and b kept. With one operand zero, g
    is the primitive part of the other; with both, all three are []. A
    divisor of a monic polynomial comes out monic. The heuristic gcd of the
    module docstring: the two divisions certify g and give the cofactors,
    and xi grows as in sympy's `dup_zz_heu_gcd` until they do."""
    pa, pb = _primitive(a), _primitive(b)
    if not pa or not pb:
        g = pa or pb
        return (g, _int_divexact(a, g), _int_divexact(b, g)) if g else ([], [], [])
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
    while True:
        v, digits = math.gcd(_int_coeff_eval(pa, xi), _int_coeff_eval(pb, xi)), []
        while v:
            v, r = divmod(v, xi)
            if 2 * r > xi:
                r -= xi
                v += 1
            digits.append(r)
        g = _primitive(digits)
        try:
            return g, _int_divexact(a, g), _int_divexact(b, g)
        except InexactDivisionError:
            xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def _int_squarefree(p: Sequence[int]) -> List[Tuple[List[int], int]]:
    """Yun's squarefree decomposition of a monic p in Z[y]: the pairs
    (a_i, i), a_i monic, squarefree, pairwise coprime and of positive
    degree, with p = prod a_i^i. Every gcd taken divides p, so it is monic
    and the cofactors of `_int_gcd` are the exact quotients Yun divides by."""

    def deriv(a):
        return [k * c for k, c in enumerate(a)][1:]

    # c, e = p / g, p' / g for g = gcd(p, p'); then a = gcd(c, d), d = e - c',
    # and c, e = c / a, d / a
    _, c, e = _int_gcd(p, deriv(p))
    out = []
    i = 1
    while len(c) > 1:
        a, c, e = _int_gcd(c, [x - y for x, y in zip(e, deriv(c))])
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _int_multiplicity(a: Sequence[int], b: Sequence[int]) -> int:
    """The largest e with b^e dividing a in Z[y], for a non-zero a and a
    monic b of positive degree: for b = y - r by synthetic division at r,
    up to the first remainder a(r) that is not zero, otherwise by repeated
    exact division."""
    if not any(a) or len(b) < 2:
        raise InvalidParametersError("root multiplicity needs a non-zero polynomial and a divisor of positive degree")
    e = 0
    if len(b) == 2 and b[1] == 1:
        r = -b[0]
        while True:
            quot = list(accumulate(reversed(a), lambda acc, c: acc * r + c))
            if quot.pop():
                return e
            a, e = quot[::-1], e + 1
    try:
        while True:
            a = _int_divexact(a, b)
            e += 1
    except InexactDivisionError:
        return e
