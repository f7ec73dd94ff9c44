"""Test-side reference implementations that the library no longer runs.

`bareiss_charpoly` is the characteristic polynomial by evaluation and
interpolation: n + 1 fraction-free Bareiss determinants of tI - M at
t = 0..n. It shares no code with the multi-modular engine behind
`hmjoin.exactlinalg.charpoly`, so the two check each other.

`polymatrix_det` is the determinant of a polynomial matrix by evaluation
at 0..D over its row-degree bound D and interpolation, the Phi oracle of
the block-path tests; the library only evaluates such determinants at the
points it picks (`hmjoin.exactlinalg.polymatrix_det_values`).

`classify_e_main_numeric` classifies eigenvalues as E-main from a float
eigendecomposition and projection norms, independently of the exact gcd
route of `hmjoin.spectra.classify_e_main`.
"""

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from hmjoin.errors import NonSymmetricInputError
from hmjoin.exactlinalg import (
    _det_int,
    _require_square,
    _row_denominator_lcm,
    _scaled_int_rows,
    mat_is_symmetric,
    polymatrix_det_values,
)
from hmjoin.polynomials import Polynomial, interpolate


def bareiss_charpoly(m) -> Polynomial:
    """det(xI - M) by evaluation at x = 0..n and Newton interpolation."""
    n = _require_square(m)
    if n == 0:
        return Polynomial.one()
    rows, scale = _scaled_int_rows(m)
    lcms = [_row_denominator_lcm(row) for row in m]
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
