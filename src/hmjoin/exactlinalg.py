"""Exact linear algebra over Q: determinants, characteristic polynomials,
and determinants of polynomial matrices.

Matrices are plain lists of lists holding ints or `fractions.Fraction`
values. Determinants go through fraction-free integer Bareiss elimination
after clearing row denominators; characteristic polynomials of scalar
matrices use evaluation at the integer points 0..n followed by Newton
interpolation. No adjugate of (xI - M) is ever formed: the main functions
in `spectra` read their numerators off the walk sums L^T M^t R and the
coefficients of this characteristic polynomial, and their denominators
off one gcd chain against it.

Matrices of polynomials have one evaluator, `polymatrix_det_values`: it
clears each row's coefficient denominators once, then takes one
fraction-free Bareiss determinant of the integer matrix at each requested
integer point. Callers that know the degree of what they want pick their
own points (the reduced block determinants in `spectra` ask for n + 1
points that avoid the roots of the main-function denominators);
`polymatrix_det` evaluates at 0..D for a degree bound D and interpolates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidParametersError, SizeMismatchError
from .polynomials import Polynomial, RationalFunction, interpolate, poly_divexact, poly_lcm, rational_root_multiplicity

Matrix = List[List[Fraction]]


def identity_matrix(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> list:
    return [[0] * cols for _ in range(rows)]


def mat_shape(m) -> Tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise SizeMismatchError("ragged matrix")
    return rows, cols


def _require_square(m) -> int:
    rows, cols = mat_shape(m)
    if rows != cols:
        raise SizeMismatchError(f"square matrix required, got {rows}x{cols}")
    return rows


def mat_transpose(m) -> list:
    rows, cols = mat_shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def mat_mul(a, b) -> list:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise SizeMismatchError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = mat_transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc += x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_add(a, b) -> list:
    if mat_shape(a) != mat_shape(b):
        raise SizeMismatchError("matrix addition shape mismatch")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b) -> list:
    if mat_shape(a) != mat_shape(b):
        raise SizeMismatchError("matrix subtraction shape mismatch")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(m, s) -> list:
    return [[s * x for x in row] for row in m]


def mat_is_symmetric(m) -> bool:
    n = _require_square(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# determinants


def _row_denominator_lcm(row) -> int:
    l = 1
    for x in row:
        if isinstance(x, Fraction) and x.denominator != 1:
            l = math.lcm(l, x.denominator)
    return l


def _scaled_int_rows(m) -> Tuple[List[List[int]], int]:
    """Clear denominators row by row; returns integer rows and the product
    of the row multipliers (the determinant scales by that product)."""
    rows = []
    scale = 1
    for row in m:
        l = _row_denominator_lcm(row)
        scale *= l
        out = []
        for x in row:
            if isinstance(x, Fraction):
                out.append(x.numerator * (l // x.denominator))
            else:
                out.append(x * l)
        rows.append(out)
    return rows, scale


def _det_int(rows: List[List[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = None
        for r in range(k, n):
            if rows[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pk = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * rows[n - 1][n - 1]


def det_bareiss(m) -> Fraction:
    """Exact determinant via integer Bareiss after clearing row denominators."""
    n = _require_square(m)
    if n == 0:
        return Fraction(1)
    rows, scale = _scaled_int_rows(m)
    return Fraction(_det_int(rows), scale)


# ---------------------------------------------------------------------------
# characteristic polynomials


def charpoly(m) -> Polynomial:
    """det(xI - M) by evaluation at x = 0..n and Newton interpolation."""
    n = _require_square(m)
    if n == 0:
        return Polynomial.one()
    rows, scale = _scaled_int_rows(m)
    lcms = []
    pos = 1
    for row in m:
        l = _row_denominator_lcm(row)
        lcms.append(l)
        pos *= l
    values = []
    for t in range(n + 1):
        work = [row[:] for row in rows]
        for i in range(n):
            work[i][i] = lcms[i] * t - work[i][i]
            for j in range(n):
                if j != i:
                    work[i][j] = -work[i][j]
        values.append((t, Fraction(_det_int(work), scale)))
    return interpolate(values)


def _int_coeff_eval(coeffs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def polymatrix_det_values(entries, points: Sequence[int]) -> List[Fraction]:
    """det(entries(t)) for each integer t in `points`, where `entries` is a
    square matrix of Polynomials: row denominators are cleared once, then
    each point costs one fraction-free Bareiss determinant."""
    _require_square(entries)
    int_rows = []
    scale = 1
    for row in entries:
        l = 1
        for p in row:
            if not isinstance(p, Polynomial):
                raise InvalidParametersError("polymatrix_det expects Polynomial entries")
            for c in p.coeffs:
                if c.denominator != 1:
                    l = math.lcm(l, c.denominator)
        scale *= l
        int_rows.append([[c.numerator * (l // c.denominator) for c in p.coeffs] for p in row])
    values = []
    for t in points:
        work = [[_int_coeff_eval(c, t) for c in row] for row in int_rows]
        values.append(Fraction(_det_int(work), scale))
    return values


def polymatrix_det(entries, degree_bound: Optional[int] = None) -> Polynomial:
    """Determinant of a square matrix of Polynomials, via its values at the
    integer points 0..D and interpolation. D defaults to the row-degree
    bound sum_r max_j deg(entries[r][j]), which dominates deg(det)."""
    if degree_bound is None:
        # entries that are not Polynomials are rejected by the evaluator
        degree_bound = sum(max([0] + [p.degree for p in row if isinstance(p, Polynomial)]) for row in entries)
    if degree_bound < 0:
        raise InvalidParametersError("degree bound must be non-negative")
    points = range(degree_bound + 1)
    values = polymatrix_det_values(entries, points)
    return interpolate(list(zip(points, values)))


# ---------------------------------------------------------------------------
# rational eigenvalues


def rational_eigenvalues(m, char: Optional[Polynomial] = None) -> Tuple[Tuple[Fraction, int], ...]:
    """All rational eigenvalues of a rational matrix, with multiplicities,
    in ascending order. Complete: scaling by the common denominator L turns
    the problem into integer roots of a monic integer polynomial, which are
    bounded by the Gershgorin row-sum bound of L*M and must divide the
    trailing coefficient."""
    n = _require_square(m)
    if n == 0:
        return ()
    l = 1
    for row in m:
        l = math.lcm(l, _row_denominator_lcm(row))
    p = char if char is not None else charpoly(m)
    found = []
    zero_mult = 0
    coeffs = list(p.coeffs)
    while zero_mult < len(coeffs) and coeffs[zero_mult] == 0:
        zero_mult += 1
    if zero_mult:
        found.append((Fraction(0), zero_mult))
    # integer polynomial P(y) = L^n p(y/L); its integer roots y give the
    # rational eigenvalues y/L
    int_coeffs = []
    for k, c in enumerate(coeffs):
        scaled = c * l ** (n - k)
        if scaled.denominator != 1:
            raise InvalidParametersError("characteristic polynomial does not match the matrix denominators")
        int_coeffs.append(scaled.numerator)
    while int_coeffs and int_coeffs[0] == 0:
        int_coeffs.pop(0)
    trailing = int_coeffs[0] if int_coeffs else 0
    bound = 0
    for row in m:
        total = 0
        for x in row:
            total += abs((Fraction(x) * l).numerator)
        bound = max(bound, total)
    for y in range(-bound, bound + 1):
        if y == 0:
            continue
        if trailing and trailing % y != 0:
            continue
        if _int_coeff_eval(int_coeffs, y) == 0:
            r = Fraction(y, l)
            found.append((r, rational_root_multiplicity(p, r)))
    return tuple(sorted(found, key=lambda item: item[0]))


# ---------------------------------------------------------------------------
# matrices of rational functions


class RatFunMatrix:
    """Immutable rectangular matrix of reduced rational functions."""

    __slots__ = ("entries", "_den")

    def __init__(self, entries):
        rows = []
        width = None
        for row in entries:
            converted = tuple(e if isinstance(e, RationalFunction) else RationalFunction(e) for e in row)
            if width is None:
                width = len(converted)
            elif len(converted) != width:
                raise SizeMismatchError("ragged rational-function matrix")
            rows.append(converted)
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "_den", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.entries[i][j]

    @property
    def common_denominator(self) -> Polynomial:
        """Monic least common multiple of the entry denominators (cached);
        every entry denominator divides it."""
        if self._den is None:
            den = Polynomial.one()
            for row in self.entries:
                for e in row:
                    den = poly_lcm(den, e.den)
            object.__setattr__(self, "_den", den)
        return self._den

    def numerator_matrix(self, common: Optional[Polynomial] = None) -> List[List[Polynomial]]:
        """The polynomial matrix common * self (exact by construction)."""
        g = self.common_denominator if common is None else common
        out = []
        for row in self.entries:
            out.append([e.num * poly_divexact(g, e.den) for e in row])
        return out

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i + 1, self.rows))

    def transpose(self) -> "RatFunMatrix":
        return RatFunMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other):
        if not isinstance(other, RatFunMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(("RatFunMatrix", self.entries))

    def __repr__(self):
        return f"RatFunMatrix({[[str(e) for e in row] for row in self.entries]!r})"
