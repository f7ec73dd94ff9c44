"""Exact determinants, characteristic polynomials, adjugates, and
polynomial-matrix determinants, checked against naive cofactor oracles."""

import random
from fractions import Fraction

import pytest

from hmjoin.errors import InvalidParametersError, SizeMismatchError
from hmjoin.exactlinalg import (
    RatFunMatrix,
    charpoly,
    det_bareiss,
    identity_matrix,
    mat_mul,
    polymatrix_det,
    polymatrix_det_values,
    rational_eigenvalues,
)
from hmjoin.polynomials import Polynomial, RationalFunction
from hmjoin.spectra import _bilinear_numerators


def cofactor_det(m):
    """Naive Laplace expansion; works over any commutative ring."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def random_fraction_matrix(rng, n, span=5):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]


def test_det_bareiss_matches_cofactor_oracle():
    rng = random.Random(1)
    for n in range(0, 6):
        for _ in range(8):
            m = random_fraction_matrix(rng, n)
            expected = Fraction(cofactor_det(m)) if n else Fraction(1)
            assert det_bareiss(m) == expected


def test_det_bareiss_singular_and_identity():
    assert det_bareiss(identity_matrix(4)) == 1
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_bareiss(m) == 0


def test_det_bareiss_rejects_non_square():
    with pytest.raises(SizeMismatchError):
        det_bareiss([[Fraction(1), Fraction(2)]])


def naive_charpoly(m):
    n = len(m)
    x = Polynomial.x()
    entries = [[x - m[i][i] if i == j else Polynomial.constant(-m[i][j])
                for j in range(n)] for i in range(n)]
    return cofactor_det(entries) if n else Polynomial.one()


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(2)
    for n in range(0, 5):
        for _ in range(6):
            m = random_fraction_matrix(rng, n)
            assert charpoly(m) == naive_charpoly(m)


def test_adjugate_identity():
    # with identity sides the main-function numerators are adj(xI - M):
    # (tI - M) * adj(tI - M) = charpoly(t) * I at several rational points
    rng = random.Random(4)
    for n in range(1, 6):
        m = random_fraction_matrix(rng, n)
        p, adj = _bilinear_numerators(m, identity_matrix(n), identity_matrix(n))
        assert p == charpoly(m)
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            adj_t = [[entry(t) for entry in row] for row in adj]
            ti_m = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            product = mat_mul(ti_m, adj_t)
            for i in range(n):
                for j in range(n):
                    assert product[i][j] == (p(t) if i == j else 0)


def test_polymatrix_det_matches_charpoly():
    rng = random.Random(5)
    x = Polynomial.x()
    for n in range(1, 6):
        m = random_fraction_matrix(rng, n)
        entries = [[x - Polynomial.constant(m[i][j]) if i == j
                    else Polynomial.constant(-m[i][j]) for j in range(n)]
                   for i in range(n)]
        assert polymatrix_det(entries) == charpoly(m)


def test_polymatrix_det_matches_cofactor_oracle():
    rng = random.Random(6)
    for n in range(1, 5):
        for _ in range(4):
            entries = [[Polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(rng.randint(1, 3))])
                        for _ in range(n)] for _ in range(n)]
            assert polymatrix_det(entries) == cofactor_det(entries)


def test_polymatrix_det_zero_row_short_circuit():
    z = Polynomial.zero()
    one = Polynomial.one()
    assert polymatrix_det([[z, z], [one, one]]).is_zero


def test_polymatrix_det_values_match_cofactor_oracle():
    rng = random.Random(9)
    for n in range(0, 4):
        entries = [[Polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(rng.randint(0, 3))])
                    for _ in range(n)] for _ in range(n)]
        points = [0, 2, 3, 7, 11]
        values = polymatrix_det_values(entries, points)
        assert len(values) == len(points)
        for t, value in zip(points, values):
            at_t = [[p(t) for p in row] for row in entries]
            assert value == cofactor_det(at_t)
    with pytest.raises(InvalidParametersError):
        polymatrix_det_values([[Fraction(1)]], [0])
    with pytest.raises(SizeMismatchError):
        polymatrix_det_values([[Polynomial.one()], []], [0])


def test_rational_eigenvalues_planted_triangular():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 5)
        diag = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(n)]
        m = [[diag[i] if i == j else (Fraction(rng.randint(-2, 2)) if j > i else Fraction(0))
              for j in range(n)] for i in range(n)]
        expected = {}
        for d in diag:
            expected[d] = expected.get(d, 0) + 1
        assert dict(rational_eigenvalues(m)) == expected


def test_rational_eigenvalues_mixed_irrational():
    # P_3 adjacency: eigenvalues 0, +-sqrt(2); only 0 is rational
    m = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    m = [[Fraction(v) for v in row] for row in m]
    assert rational_eigenvalues(m) == ((Fraction(0), 1),)
    # K_4 adjacency: 3 and -1 (x3)
    k4 = [[Fraction(0 if i == j else 1) for j in range(4)] for i in range(4)]
    assert rational_eigenvalues(k4) == ((Fraction(-1), 3), (Fraction(3), 1))


def test_ratfunmatrix_common_denominator_and_clearing():
    x = Polynomial.x()
    a = RationalFunction(Polynomial.one(), x)
    b = RationalFunction(Polynomial.one(), x * x - Polynomial.one())
    m = RatFunMatrix([[a, b], [b, a]])
    g = m.common_denominator
    assert g == x * (x * x - Polynomial.one())
    cleared = m.numerator_matrix()
    for i in range(2):
        for j in range(2):
            assert RationalFunction(cleared[i][j], g) == m.entry(i, j)
    assert m.is_symmetric()
    assert m.transpose() == m
