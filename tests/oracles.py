"""Test-side reference implementations that the library no longer runs.
They import nothing from `hmjoin` but the `Polynomial` value and the error
classes (`test_oracles.py` checks this), and carry their own copies of the
small helpers they need.

`blockwise_adjacency` assembles a join's adjacency matrix by the paper's
block definition, A(G_i) on the diagonal and rho_ij E_i E_j^T off it
(`mat_mul`, `mat_transpose`), with each indexing matrix built from the
labels: the oracle of `hmjoin.joins.hm_join`, which follows the edge rule.

`poly_add`, `poly_sub`, `poly_mul`, `poly_scale`, `poly_monic`,
`poly_pow`, `poly_eval` and `poly_from_roots` are the ring of polynomials
over Q, on `Fraction` coefficients; the library's `Polynomial` has no
arithmetic of its own, and the tests build their expected values with
these.

`det_bareiss` is the determinant of a rational matrix by fraction-free
integer Bareiss elimination after clearing row denominators, and
`polymatrix_det_values` the exact determinant of a polynomial matrix at
integer points, one Bareiss determinant each. They share no code with the
batched modular elimination of `hmjoin.exactlinalg`, which they check.

`bareiss_charpoly` is the characteristic polynomial by evaluation and
interpolation: n + 1 fraction-free Bareiss determinants of tI - M at
t = 0..n. It shares no code with the multi-modular engine behind
`hmjoin.exactlinalg.charpoly`, so the two check each other.

`polymatrix_det` is the determinant of a polynomial matrix by evaluation
at 0..D over its row-degree bound D and interpolation, the Phi oracle of
the block-path tests; the library only evaluates such determinants, given
as the residues of the coefficient rows of their distinct entries and an
index into them, modulo many primes at once at the points it picks
(`hmjoin.exactlinalg._polymatrix_det_mod`).

`classify_e_main_numeric` classifies eigenvalues as E-main from a float
eigendecomposition and projection norms, independently of the exact gcd
route of `hmjoin.spectra.classify_e_main`.

`numeric_spectrum` is the float diagnostic spectrum of a report built
entry by entry through float() and averaged by np.mean over every cluster,
the construction that `hmjoin.spectra._numeric_spectrum` must repeat bit
for bit.

`regular_gamma_closed_form` is 1_S^T (xI - U(G))^{-1} 1 on a regular
graph in closed form, |S| / (x - theta), from the graph's vertex count and
regular degree and the four universal parameters alone (any objects with
`n`, `is_regular()` and `alpha`, `beta`, `gamma`, `delta`): the tests
compare it with entry (0, 1) of the walk-sum route
`hmjoin.spectra.main_function` on the side [1 | 1_S].

`resolvent_bilinear_at` is det(tI - M) and V^T (tI - M)^{-1} U at one
rational point t, any square M and any two sides, by Gauss-Jordan
elimination over Q (`solve_with_det`). Interpolated over enough points
(`resolvent_numerators`) it gives the numerators that the one-sided walk
lift of
`hmjoin.exactlinalg._walk_lift` computes, and the augmented witnesses that
`hmjoin.serialize.certificate_to_json` prints.

`poly_divmod` (long division over Q), `euclid_gcd` (Euclid over Q,
renormalized to monic each step), `lowest_terms` (a quotient of
polynomials reduced by `euclid_gcd`), `multiplicity` (repeated
`poly_divmod`) and `interpolate` (Newton divided differences) work on
`Fraction` coefficients only. They share no code with the integer
division, gcd, squarefree and multiplicity core of `hmjoin.polynomials`,
which they check.
"""

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from hmjoin.errors import HypothesisNotMetError, InvalidParametersError, NonSymmetricInputError, SizeMismatchError
from hmjoin.polynomials import Polynomial

Scalar = Union[int, Fraction]


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _require_square(m) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise SizeMismatchError("square matrix required")
    return n


def mat_is_symmetric(m) -> bool:
    n = _require_square(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def mat_transpose(m) -> list:
    return [list(col) for col in zip(*m)]


def mat_mul(a, b) -> list:
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def blockwise_adjacency(spec) -> List[List[int]]:
    """The join's adjacency matrix by the paper's block definition:
    diagonal blocks A(G_i), off-diagonal blocks rho_ij E_i E_j^T, with each
    indexing matrix E_i built here from the labels."""
    sizes = [g.n for g in spec.factors]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    out = [[0] * sum(sizes) for _ in range(sum(sizes))]
    for i, g in enumerate(spec.factors):
        for s, row in enumerate(g.adjacency_matrix()):
            out[offsets[i] + s][offsets[i]:offsets[i] + g.n] = row
    if spec.m == 0:
        return out
    ems = [[[int(v == c) for c in range(1, spec.m + 1)] for v in im.values] for im in spec.indexing]
    for i, j in spec.host.edges:
        cross = mat_mul(ems[i], mat_transpose(ems[j]))
        for s in range(sizes[i]):
            for t in range(sizes[j]):
                out[offsets[i] + s][offsets[j] + t] = cross[s][t]
                out[offsets[j] + t][offsets[i] + s] = cross[s][t]
    return out


def _int_coeff_eval(coeffs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    return Polynomial([a.coefficient(k) + b.coefficient(k) for k in range(n)])


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    return Polynomial([a.coefficient(k) - b.coefficient(k) for k in range(n)])


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Schoolbook product over Q."""
    if a.is_zero or b.is_zero:
        return Polynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def poly_scale(a: Polynomial, c: Scalar) -> Polynomial:
    return Polynomial([c * x for x in a.coeffs])


def poly_monic(a: Polynomial) -> Polynomial:
    """a divided by its leading coefficient; zero stays zero."""
    return poly_scale(a, 1 / a.coeffs[-1]) if a.coeffs else a


def poly_pow(a: Polynomial, e: int) -> Polynomial:
    out = Polynomial([1])
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_eval(a: Polynomial, t: Scalar) -> Fraction:
    """a(t) by Horner's rule over Q."""
    acc = Fraction(0)
    for c in reversed(a.coeffs):
        acc = acc * t + c
    return acc


def poly_from_roots(roots) -> Polynomial:
    """The monic polynomial with the given roots, with multiplicity."""
    out = Polynomial([1])
    for r in roots:
        out = poly_mul(out, Polynomial((-r, 1)))
    return out


def poly_divmod(a: Polynomial, b: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """Quotient and remainder of a by b over Q, by long division."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dd, dv = len(rem) - 1, b.degree
    if dd < dv:
        return Polynomial(), a
    inv_lead = 1 / b.coeffs[-1]
    quot = [Fraction(0)] * (dd - dv + 1)
    for k in range(dd - dv, -1, -1):
        c = rem[dv + k] * inv_lead
        quot[k] = c
        if c:
            for j, x in enumerate(b.coeffs):
                rem[j + k] -= c * x
    return Polynomial(quot), Polynomial(rem[:dv])


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (Euclid over Q, renormalized each step)."""
    a, b = poly_monic(a), poly_monic(b)
    while not b.is_zero:
        a, b = b, poly_monic(poly_divmod(a, b)[1])
    return a


def lowest_terms(num: Polynomial, den: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """num / den as a coprime pair with a monic denominator ((0, 1) for a
    zero numerator), by `euclid_gcd` and `poly_divmod`."""
    if num.is_zero:
        return num, Polynomial([1])
    h = euclid_gcd(num, den)
    num, den = poly_divmod(num, h)[0], poly_divmod(den, h)[0]
    lead = den.coeffs[-1]
    return poly_scale(num, 1 / lead), poly_monic(den)


def multiplicity(poly: Polynomial, base: Polynomial) -> int:
    """Largest e with base^e dividing the non-zero poly, for a base of
    positive degree."""
    count = 0
    while True:
        quot, rem = poly_divmod(poly, base)
        if not rem.is_zero:
            return count
        poly = quot
        count += 1


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
    poly = Polynomial()
    basis = Polynomial([1])
    for i in range(n):
        if coeffs[i]:
            poly = poly_add(poly, poly_scale(basis, coeffs[i]))
        if i + 1 < n:
            basis = poly_mul(basis, Polynomial((-xs[i], 1)))
    return poly


def _row_lcm(row) -> int:
    return math.lcm(*(x.denominator for x in row))


def _scaled_int_rows(m) -> Tuple[List[List[int]], int]:
    """Clear denominators row by row; returns integer rows and the product
    of the row multipliers (the determinant scales by that product)."""
    rows = []
    scale = 1
    for row in m:
        l = _row_lcm(row)
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


def solve_with_det(a, b):
    """det(a) and X with a X = b, by Fraction Gauss-Jordan elimination
    (X is None when a is singular)."""
    n = len(a)
    rows = [[Fraction(x) for x in a[i]] + [Fraction(x) for x in b[i]] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det, [row[n:] for row in rows]


def resolvent_bilinear_at(m, u, v, t):
    """det(tI - M) and V^T (tI - M)^{-1} U (None when tI - M is singular)."""
    n = len(m)
    shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
    det, x = solve_with_det(shifted, u)
    if x is None:
        return det, None
    cols_u = len(u[0]) if n else 0
    cols_v = len(v[0]) if n else 0
    return det, [[sum((v[i][a] * x[i][b] for i in range(n)), Fraction(0)) for b in range(cols_u)]
                 for a in range(cols_v)]


def resolvent_numerators(m, u, v):
    """phi = det(xI - M) and the polynomial matrix N = phi * V^T (xI - M)^{-1} U,
    interpolated from `resolvent_bilinear_at`: phi from n + 1 points, each
    N_ab (degree below n) from the first n integers where tI - M is
    invertible."""
    n = len(m)
    phi = interpolate([(t, resolvent_bilinear_at(m, u, v, t)[0]) for t in range(n + 1)])
    samples = []
    t = 0
    while len(samples) < n:
        det, value = resolvent_bilinear_at(m, u, v, Fraction(t))
        if value is not None:
            samples.append((t, det, value))
        t += 1
    cols_u = len(u[0]) if n else 0
    cols_v = len(v[0]) if n else 0
    return phi, [[interpolate([(t, det * value[a][b]) for t, det, value in samples]) for b in range(cols_u)]
                 for a in range(cols_v)]


def bareiss_charpoly(m) -> Polynomial:
    """det(xI - M) by evaluation at x = 0..n and Newton interpolation."""
    n = _require_square(m)
    if n == 0:
        return Polynomial([1])
    rows, scale = _scaled_int_rows(m)
    lcms = [_row_lcm(row) for row in m]
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


def polymatrix_det(entries, degree_bound: Optional[int] = None) -> Polynomial:
    """Determinant of a square matrix of Polynomials, via its values at the
    integer points 0..D and interpolation. D defaults to the row-degree
    bound sum_r max_j deg(entries[r][j]), which dominates deg(det)."""
    if degree_bound is None:
        degree_bound = sum(max([0] + [p.degree for p in row]) for row in entries)
    points = range(degree_bound + 1)
    return interpolate(list(zip(points, polymatrix_det_values(entries, points))))


def classify_e_main_numeric(m, e, tol: float = 1e-9) -> List[Tuple[float, int, bool]]:
    """Eigendecomposition plus projection norms: (eigenvalue, multiplicity,
    is_main) per numeric cluster of a symmetric matrix M with side E."""
    if not mat_is_symmetric(m):
        raise NonSymmetricInputError("classification needs a symmetric matrix")
    dense = np.array([[float(x) for x in row] for row in m], dtype=float)
    side = np.array([[float(x) for x in row] for row in e], dtype=float)
    if dense.size == 0:
        return []
    w, vecs = np.linalg.eigh(dense)
    scale = max(1.0, float(np.max(np.abs(w))))
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > 1e-8 * scale:
            basis = vecs[:, start:i]
            norm = float(np.linalg.norm(basis.T @ side))
            out.append((float(np.mean(w[start:i])), i - start, norm > tol * scale))
            start = i
    return out


def numeric_spectrum(m) -> Tuple[Tuple[float, int], ...]:
    """The diagnostic spectrum of a symmetric rational matrix M, built the
    plain way: every entry through float(), numpy's eigvalsh, and each
    cluster of eigenvalues within 1e-8 times the largest modulus (at least
    1) given as its np.mean and its size."""
    dense = np.array([[float(x) for x in row] for row in m], dtype=float)
    if dense.size == 0:
        return ()
    w = np.linalg.eigvalsh(dense)
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > 1e-8 * scale:
            clusters.append((float(np.mean(w[start:i])), i - start))
            start = i
    return tuple(clusters)


def regular_gamma_closed_form(g, subset: Sequence[int], params) -> Tuple[Polynomial, Polynomial]:
    """Closed form for 1_S^T (xI - U(G))^{-1} 1 on a regular graph: the
    all-ones vector is an eigenvector, so the bilinear collapses to
    |S| / (x - theta) with theta the main eigenvalue of U(G), returned in
    lowest terms as (num, den), so (0, 1) for an empty subset.

    Two hypothesis cases are accepted: delta = 0 (theta = alpha*r + beta +
    gamma*n) and alpha = -delta (theta = beta + gamma*n, since alpha*A(G) +
    delta*D(G) kills the all-ones vector)."""
    r = g.is_regular()
    if r is None:
        raise HypothesisNotMetError("closed form requires a regular graph")
    members = sorted(set(subset))
    for v in members:
        if not (0 <= v < g.n):
            raise InvalidParametersError("%r is not a vertex of the graph" % (v,))
    if params.delta == 0:
        theta = params.alpha * r + params.beta + params.gamma * g.n
    elif params.alpha == -params.delta:
        theta = params.beta + params.gamma * g.n
    else:
        raise HypothesisNotMetError("closed form requires delta = 0 or alpha = -delta")
    return Polynomial((len(members),)), Polynomial((-theta, 1)) if members else Polynomial([1])
