"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmjoin.errors import InexactDivisionError, InvalidParametersError
from hmjoin.polynomials import (
    Polynomial,
    RationalFunction,
    _int_divexact,
    _int_mul,
    _scaled,
    _unscaled,
    interpolate,
    poly_divexact,
    poly_gcd,
    poly_lcm,
    rational_root_multiplicity,
    squarefree_decomposition,
    squarefree_part,
)

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys_st = st.lists(fractions_st, max_size=6).map(Polynomial)
nonzero_polys_st = polys_st.filter(lambda p: not p.is_zero)


def test_construction_trims_and_normalizes():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([]).is_zero
    assert Polynomial.zero().degree == -1
    assert Polynomial.x() == Polynomial([0, 1])


def test_str_descending():
    p = Polynomial([Fraction(1, 2), -3, 0, 1])
    assert str(p) == "x^3 - 3*x + 1/2"


@given(polys_st, polys_st, fractions_st)
@settings(max_examples=120)
def test_ring_operations_match_evaluation(p, q, t):
    assert (p + q)(t) == p(t) + q(t)
    assert (p - q)(t) == p(t) - q(t)
    assert (p * q)(t) == p(t) * q(t)


@given(polys_st, nonzero_polys_st)
@settings(max_examples=120)
def test_divmod_identity(p, q):
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


@given(nonzero_polys_st, nonzero_polys_st)
@settings(max_examples=80)
def test_gcd_divides_and_is_monic(p, q):
    g = poly_gcd(p, q)
    assert g.is_monic
    assert divmod(p, g)[1].is_zero
    assert divmod(q, g)[1].is_zero
    l = poly_lcm(p, q)
    assert divmod(l, p)[1].is_zero
    assert divmod(l, q)[1].is_zero
    # gcd * lcm agrees with the product up to the unit factor
    assert g * l * p.leading_coefficient * q.leading_coefficient == p * q


def test_divexact_raises_on_remainder():
    p = Polynomial([1, 0, 1])
    with pytest.raises(InexactDivisionError):
        poly_divexact(p, Polynomial([1, 1]))
    assert poly_divexact(p * Polynomial([2, 3]), Polynomial([2, 3])) == p


monic_ints_st = st.lists(st.integers(-30, 30), max_size=5).map(lambda c: c + [1])


@given(monic_ints_st, monic_ints_st, st.integers(1, 12))
@settings(max_examples=120)
def test_scaled_integer_products_and_quotients(a, b, l):
    pa, pb = _unscaled(a, l), _unscaled(b, l)
    assert pa.is_monic and pa.degree == len(a) - 1
    assert _scaled(pa, l) == a
    product = _int_mul(a, b)
    assert _unscaled(product, l) == pa * pb
    assert _int_divexact(product, b) == a
    if len(b) > 1:
        product[0] += 1
        with pytest.raises(InexactDivisionError):
            _int_divexact(product, b)


def test_scaled_integer_helpers_refuse_inexact_input():
    # 4 * (1/3) is not an integer
    with pytest.raises(InexactDivisionError):
        _scaled(Polynomial([Fraction(1, 3), 0, 1]), 2)
    assert _scaled(Polynomial([Fraction(1, 4), Fraction(-3, 2), 1]), 2) == [1, -3, 1]
    # y^2 + 1 by 2y + 1: the leading coefficient does not divide
    with pytest.raises(InexactDivisionError):
        _int_divexact([1, 0, 1], [1, 2])
    assert _int_divexact([6, 5, 1], [2, 1]) == [3, 1]
    assert _int_divexact([], [2, 1]) == []
    with pytest.raises(InexactDivisionError):
        _int_divexact([1], [2, 1])
    with pytest.raises(ZeroDivisionError):
        _int_divexact([1], [])


def test_from_roots_and_multiplicity():
    roots = [Fraction(1), Fraction(1), Fraction(-2), Fraction(1, 3)]
    p = Polynomial.from_roots(roots)
    assert p.is_monic and p.degree == 4
    assert rational_root_multiplicity(p, Fraction(1)) == 2
    assert rational_root_multiplicity(p, Fraction(-2)) == 1
    assert rational_root_multiplicity(p, Fraction(1, 3)) == 1
    assert rational_root_multiplicity(p, Fraction(5)) == 0


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
@settings(max_examples=80)
def test_squarefree_decomposition_reconstructs(root_values):
    roots = [Fraction(r) for r in root_values]
    p = Polynomial.from_roots(roots)
    layers = squarefree_decomposition(p)
    product = Polynomial.one()
    for layer, mult in layers:
        assert layer.is_monic
        product = product * layer ** mult
    assert product == p
    sf = squarefree_part(p)
    assert sf == Polynomial.from_roots(sorted(set(roots)))


def test_derivative_product_rule():
    p = Polynomial([1, 2, 3])
    q = Polynomial([-1, 0, 0, 2])
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(st.lists(fractions_st, min_size=1, max_size=5))
@settings(max_examples=60)
def test_interpolate_round_trip(coeffs):
    p = Polynomial(coeffs)
    points = [(Fraction(t), p(Fraction(t))) for t in range(max(p.degree, 0) + 1)]
    assert interpolate(points) == p


def test_interpolate_rejects_duplicate_points():
    with pytest.raises(InvalidParametersError):
        interpolate([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))])


def test_rational_function_normal_form():
    # (x^2-1)/(2x-2) reduces to (x+1)/2 with a monic denominator
    r = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-2, 2]))
    assert r.num == Polynomial([Fraction(1, 2), Fraction(1, 2)])
    assert r.den == Polynomial.one()
    assert poly_gcd(r.num, r.den).degree == 0


@given(polys_st, nonzero_polys_st, polys_st, nonzero_polys_st, fractions_st)
@settings(max_examples=80)
def test_rational_function_field_operations(a, b, c, d, t):
    r = RationalFunction(a, b)
    s = RationalFunction(c, d)
    if b(t) == 0 or d(t) == 0:
        return
    total = r + s
    if total.den(t) != 0:
        assert total(t) == r(t) + s(t)
    prod = r * s
    if prod.den(t) != 0:
        assert prod(t) == r(t) * s(t)
    assert r.den.is_monic and s.den.is_monic


def test_rational_function_pole_evaluation():
    r = RationalFunction(Polynomial.one(), Polynomial([0, 1]))
    with pytest.raises(ZeroDivisionError):
        r(Fraction(0))


def test_zero_denominator_rejected():
    with pytest.raises(InvalidParametersError):
        RationalFunction(Polynomial.one(), Polynomial.zero())
