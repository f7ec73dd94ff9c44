"""Exact linear algebra over Q: determinants, characteristic polynomials,
and determinants of polynomial matrices.

Matrices are plain lists of lists holding ints or `fractions.Fraction`
values. Determinants go through fraction-free integer Bareiss elimination
after clearing row denominators.

Characteristic polynomials of scalar matrices have one engine, `charpoly`,
which is multi-modular (Dumas, Pernet & Wan, ISSAC 2005; Cohen, A Course
in Computational Algebraic Number Theory, section 2.2). With L the common
denominator of M, it works on the integer matrix M' = L*M and returns
c_k(M) = c_k(M') / L^k. Each c_k(M') is a signed sum of C(n, k) principal
k-minors, each at most B^k by Hadamard's inequality, with
B = isqrt(largest row sum of squares) + 1; primes below 2**26, largest
first, are taken until their product exceeds 2 * max_k C(n, k) B^k + 1.
Modulo each prime, numpy int64 similarity transforms bring M' to upper
Hessenberg form and a recurrence reads off its characteristic polynomial;
Garner's CRT with symmetric residues lifts the coefficients. The int64
argument: residues are below 2**26, so every product is below 2**52, and
every sum of products is reduced after at most 2**11 - 1 terms, so no
partial sum reaches 2**63. No prime is bad, because the characteristic
polynomial of M' mod p is always that of M' reduced mod p, so the result
is exact and the same on every machine.

No adjugate of (xI - M) is ever formed: the main functions in `spectra`
read their numerators off the walk sums L^T M^t R and the coefficients of
this characteristic polynomial, and their denominators off one gcd chain
against it.

Matrices of polynomials have one evaluator, `polymatrix_det_values`: it
clears each row's coefficient denominators once, then takes one
fraction-free Bareiss determinant of the integer matrix at each requested
integer point. Callers pick their own points: the reduced block
determinants in `spectra` ask for n + 1 points that avoid the roots of the
main-function denominators and interpolate the characteristic polynomial,
not the determinant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParametersError, SizeMismatchError
from .polynomials import Polynomial, RationalFunction, rational_root_multiplicity

Matrix = List[List[Fraction]]


def identity_matrix(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


# Primes below 2**26, largest first. The list is a pure function of its
# length: `_charpoly_primes` extends it on demand and rebinds it whole, so
# concurrent callers can at worst repeat work.
_PRIMES: Tuple[int, ...] = ()
# Terms per int64 dot product mod p. Operands lie in [0, p) with p < 2**26,
# so each product is below 2**52 and an accumulator below p plus
# _DOT_TERMS such products stays below 2**26 + (2**11 - 1) * 2**52 < 2**63.
_DOT_TERMS = (1 << 11) - 1


def _charpoly_primes(rows: List[List[int]]) -> Tuple[int, ...]:
    """The fewest leading primes of `_PRIMES` whose product exceeds
    2 * max_k C(n, k) B^k + 1, the Hadamard-type bound on the coefficients
    of det(xI - rows) (module docstring)."""
    global _PRIMES
    n = len(rows)
    b = math.isqrt(max(sum(x * x for x in row) for row in rows)) + 1
    need = 2 * max(math.comb(n, k) * b ** k for k in range(n + 1)) + 1
    primes = list(_PRIMES)
    product = 1
    count = 0
    while product <= need:
        if count == len(primes):
            q = primes[-1] - 2 if primes else (1 << 26) - 1
            while not all(q % f for f in range(3, math.isqrt(q) + 1, 2)):
                q -= 2
            primes.append(q)
            _PRIMES = tuple(primes)
        product *= primes[count]
        count += 1
    return tuple(primes[:count])


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for int64 operands with entries in [0, p), summed in
    chunks of at most _DOT_TERMS terms so that no partial sum overflows."""
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for s in range(0, b.shape[0], _DOT_TERMS):
        out = (out + a[..., s:s + _DOT_TERMS] @ b[s:s + _DOT_TERMS]) % p
    return out


def _charpoly_mod(h: np.ndarray, p: int) -> List[int]:
    """Coefficients, constant term first, of det(xI - H) mod p for an int64
    matrix H with entries in [0, p) (overwritten).

    H is brought to upper Hessenberg form by similarity transforms mod p:
    for each column k, a row and column swap moves a non-zero entry of
    H[k+1:, k] to H[k+1, k] (a column that is already zero there is
    skipped), scaling row k+1 by its inverse and column k+1 by it makes the
    pivot 1, and subtracting multiples of row k+1 clears the entries below
    it, with the inverse column update H[:, k+1] += H[:, k+2:] @ u. Every
    subdiagonal entry is then 0 or 1, so the recurrence of Cohen, Alg.
    2.2.9, p_m = (x - H[m-1, m-1]) p_(m-1) - sum_i H[i, m-1] p_i, sums over
    the rows i of the current unreduced diagonal block only. Every product
    is of two residues below 2**26, and sums of them go through `_dot_mod`.
    """
    n = h.shape[0]
    for k in range(n - 1):
        below = np.flatnonzero(h[k + 1:, k])
        if not below.size:
            continue
        i = k + 1 + int(below[0])
        if i != k + 1:
            h[[k + 1, i]] = h[[i, k + 1]]
            h[:, [k + 1, i]] = h[:, [i, k + 1]]
        t = int(h[k + 1, k])
        if t != 1:
            h[k + 1] = h[k + 1] * pow(t, -1, p) % p
            h[:, k + 1] = h[:, k + 1] * t % p
        u = h[k + 2:, k].copy()
        if u.any():
            h[k + 2:] = (h[k + 2:] - np.outer(u, h[k + 1])) % p
            h[:, k + 1] = (h[:, k + 1] + _dot_mod(h[:, k + 2:], u, p)) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    start = 0
    for m in range(1, n + 1):
        if m > 1 and h[m - 1, m - 2] == 0:
            start = m - 1
        prev = polys[m - 1]
        row = polys[m]
        row[1:] = prev[:-1]
        row -= h[m - 1, m - 1] * prev
        if start < m - 1:
            row -= _dot_mod(h[start:m - 1, m - 1], polys[start:m - 1], p)
        row %= p
    return polys[n].tolist()


def charpoly(m) -> Polynomial:
    """det(xI - M) of a rational matrix, exactly, by the multi-modular
    engine (module docstring): the charpoly of L*M modulo each prime of
    `_charpoly_primes`, lifted by Garner's CRT to symmetric residues, then
    c_k(M) = c_k(L*M) / L^k."""
    n = _require_square(m)
    if n == 0:
        return Polynomial.one()
    l = math.lcm(*(x.denominator for row in m for x in row))
    rows = [[x.numerator * (l // x.denominator) for x in row] for row in m]
    big = np.array(rows, dtype=object)
    lifted = [0] * (n + 1)
    modulus = 1
    for p in _charpoly_primes(rows):
        residues = _charpoly_mod((big % p).astype(np.int64), p)
        inv = pow(modulus, -1, p)
        lifted = [c + modulus * ((r - c) * inv % p) for c, r in zip(lifted, residues)]
        modulus *= p
    half = modulus // 2
    return Polynomial([Fraction(c - modulus if c > half else c, l ** (n - d)) for d, c in enumerate(lifted)])


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
                raise InvalidParametersError("polymatrix_det_values expects Polynomial entries")
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

    __slots__ = ("entries",)

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
