"""The exact polynomial value type, and the integer product, division,
gcd, squarefree and multiplicity core against the Fraction oracles of
`oracles`."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    euclid_gcd,
    interpolate,
    multiplicity,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_monic,
    poly_mul,
    poly_pow,
    poly_sub,
)
from hmjoin import polynomials
from hmjoin.errors import InexactDivisionError, InvalidParametersError
from hmjoin.polynomials import (
    Polynomial,
    _int_divexact,
    _int_gcd,
    _int_multiplicity,
    _int_mul,
    _int_pow,
    _int_shift,
    _int_squarefree,
    _scaled,
    _unscaled,
)

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys_st = st.lists(fractions_st, max_size=6).map(Polynomial)
nonzero_polys_st = polys_st.filter(lambda p: not p.is_zero)


def test_construction_trims_and_normalizes():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([]).is_zero
    assert Polynomial().degree == -1
    # scalars compare as constant polynomials
    assert Polynomial([3]) == 3 and Polynomial([Fraction(1, 2)]) == Fraction(1, 2)
    assert Polynomial() == 0 and Polynomial([0, 1]) != 0
    assert hash(Polynomial([1, 2])) == hash(Polynomial([Fraction(1), Fraction(2), 0]))


def test_str_descending():
    p = Polynomial([Fraction(1, 2), -3, 0, 1])
    assert str(p) == "x^3-3x+1/2"


@given(polys_st, polys_st, fractions_st)
@settings(max_examples=120)
def test_ring_operations_match_evaluation(p, q, t):
    # the Fraction ring of the oracles, which the tests build expectations with
    assert poly_eval(poly_add(p, q), t) == poly_eval(p, t) + poly_eval(q, t)
    assert poly_eval(poly_sub(p, q), t) == poly_eval(p, t) - poly_eval(q, t)
    assert poly_eval(poly_mul(p, q), t) == poly_eval(p, t) * poly_eval(q, t)
    assert poly_eval(poly_pow(p, 3), t) == poly_eval(p, t) ** 3


def cleared(p: Polynomial):
    """The integer coefficients of p times the lcm of their denominators."""
    l = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * l) for c in p.coeffs]


@given(nonzero_polys_st, nonzero_polys_st)
@settings(max_examples=80)
def test_gcd_divides_and_is_monic(p, q):
    a, b = cleared(p), cleared(q)
    h, ca, cb = _int_gcd(a, b)
    assert _int_mul(h, ca) == a and _int_mul(h, cb) == b
    # primitive with a positive leading coefficient, so its monic form
    # is the gcd over Q
    assert h[-1] > 0 and math.gcd(*h) == 1
    g = poly_monic(Polynomial(h))
    assert g == euclid_gcd(p, q)
    assert poly_divmod(p, g)[1].is_zero
    assert poly_divmod(q, g)[1].is_zero
    l, rem = poly_divmod(poly_mul(p, q), g)
    assert rem.is_zero
    assert poly_divmod(l, p)[1].is_zero
    assert poly_divmod(l, q)[1].is_zero
    # the cofactors are coprime
    assert euclid_gcd(poly_divmod(p, g)[0], poly_divmod(q, g)[0]) == Polynomial([1])


def test_divexact_raises_on_remainder():
    p = [1, 0, 1]
    with pytest.raises(InexactDivisionError):
        _int_divexact(p, [1, 1])
    assert _int_divexact(_int_mul(p, [2, 3]), [2, 3]) == p


@given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.lists(st.integers(-9, 9), max_size=4), st.integers(2, 5))
@settings(max_examples=120)
def test_int_divexact_by_non_monic_divisors(p, q, r, c):
    # the leading coefficient is never a unit: the division is exact in
    # Z[y] exactly when the quotient over Q has integer coefficients
    q = q[:-1] + [-c * (abs(q[-1]) or 1)]
    assert Polynomial(_int_divexact(_int_mul(p, q), q)) == Polynomial(p)
    a = poly_add(Polynomial(_int_mul(p, q)), Polynomial(r))
    ints = [int(x) for x in a.coeffs]
    quot, rem = poly_divmod(a, Polynomial(q))
    if rem.is_zero and all(x.denominator == 1 for x in quot.coeffs):
        assert Polynomial(_int_divexact(ints, q)) == quot
    else:
        with pytest.raises(InexactDivisionError):
            _int_divexact(ints, q)


monic_ints_st = st.lists(st.integers(-30, 30), max_size=5).map(lambda c: c + [1])


@given(monic_ints_st, monic_ints_st, st.integers(1, 12))
@settings(max_examples=120)
def test_scaled_integer_products_and_quotients(a, b, l):
    pa, pb = _unscaled(a, l), _unscaled(b, l)
    assert pa.coeffs[-1] == 1 and pa.degree == len(a) - 1
    assert _scaled(pa, l) == a
    product = _int_mul(a, b)
    assert _unscaled(product, l) == poly_mul(pa, pb)
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
    p = poly_from_roots(roots)
    assert p.coeffs[-1] == 1 and p.degree == 4
    # scaled by 3, the roots r become the integers 3r
    scaled = _scaled(p, 3)
    assert _int_multiplicity(scaled, [-3, 1]) == 2
    assert _int_multiplicity(scaled, [6, 1]) == 1
    assert _int_multiplicity(scaled, [-1, 1]) == 1
    assert _int_multiplicity(scaled, [-15, 1]) == 0
    with pytest.raises(InvalidParametersError):
        _int_multiplicity([], [-1, 1])
    with pytest.raises(InvalidParametersError):
        _int_multiplicity(scaled, [1])


@given(st.lists(fractions_st, min_size=1, max_size=5))
@settings(max_examples=80)
def test_squarefree_decomposition_reconstructs(roots):
    # scaled by the lcm L of the root denominators, p is monic in Z[y]
    p = poly_from_roots(roots)
    l = math.lcm(*(r.denominator for r in roots))
    layers = [(_unscaled(a, l), e) for a, e in _int_squarefree(_scaled(p, l))]
    product = Polynomial([1])
    for layer, mult in layers:
        assert layer.coeffs[-1] == 1
        product = poly_mul(product, poly_pow(layer, mult))
    assert product == p
    # the distinct roots, each once
    squarefree = Polynomial([1])
    for layer, _ in layers:
        squarefree = poly_mul(squarefree, layer)
    assert squarefree == poly_from_roots(sorted(set(roots)))
    assert {(r, e) for layer, e in layers for r in roots if poly_eval(layer, r) == 0} \
        == {(r, roots.count(r)) for r in roots}


# -- the integer core against the Fraction oracles ---------------------------

int_polys_st = st.lists(st.integers(-6, 6), max_size=4)
monic_factors_st = st.lists(st.integers(-5, 5), min_size=1, max_size=2).map(lambda c: c + [1])


def primitive_associate(p: Polynomial):
    """The integer polynomial, primitive with a positive leading coefficient,
    that is a rational multiple of p ([] for zero)."""
    p = poly_monic(p)
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * scale) for c in p.coeffs]


def int_derivative(a):
    return [k * c for k, c in enumerate(a)][1:]


def test_int_gcd_zero_operands_and_signs():
    assert _int_gcd([], []) == ([], [], [])
    assert _int_gcd([], [-2, -4]) == ([1, 2], [], [-2])
    # cofactors keep the operands' top zeros
    assert _int_gcd([0, 0], [3]) == ([1], [0, 0], [3])
    # non-primitive operands with negative and non-unit leading coefficients
    assert _int_gcd([-6, -12], [4, 8, 0]) == ([1, 2], [-6], [4, 0])
    assert _int_gcd([2, -6, 4], [-3, 3]) == ([-1, 1], [-2, 4], [3])
    # coprime
    assert _int_gcd([1, 0, 1], [-1, 1]) == ([1], [1, 0, 1], [-1, 1])


@given(int_polys_st, int_polys_st, int_polys_st, st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=200)
def test_int_gcd_matches_euclid_oracle(common, a, b, ca, cb):
    # a shared factor, non-unit and negative contents, and zero operands
    left = [ca * x for x in _int_mul(common, a)]
    right = [cb * x for x in _int_mul(common, b)]
    expected = primitive_associate(euclid_gcd(Polynomial(left), Polynomial(right)))
    for x, y in ((left, right), (right, left)):
        g, cx, cy = _int_gcd(x, y)
        assert g == expected
        for p, c in ((x, cx), (y, cy)):
            # a zero operand has the zero cofactor, top zeros and all
            assert _int_mul(g, c) == p if any(p) else not any(c)


@given(st.lists(st.tuples(monic_factors_st, st.integers(1, 4)), min_size=1, max_size=4))
@settings(max_examples=120)
def test_int_squarefree_layers(factors):
    p = [1]
    for f, e in factors:
        for _ in range(e):
            p = _int_mul(p, f)
    layers = _int_squarefree(p)
    rebuilt = [1]
    for a, i in layers:
        assert a[-1] == 1 and len(a) > 1
        # squarefree: coprime to its derivative
        assert euclid_gcd(Polynomial(a), Polynomial(int_derivative(a))) == Polynomial([1])
        for _ in range(i):
            rebuilt = _int_mul(rebuilt, a)
    assert rebuilt == p
    for (a, i), (b, j) in zip(layers, layers[1:]):
        assert i < j
    for x, (a, _) in enumerate(layers):
        for b, _ in layers[x + 1:]:
            assert euclid_gcd(Polynomial(a), Polynomial(b)) == Polynomial([1])
    assert _int_squarefree([5, 1]) == [([5, 1], 1)]
    assert _int_squarefree([1]) == []


def scaled_factor(rng, s):
    """A random monic factor in Z[y] of the scaled charpoly of a matrix
    with denominator s: y - t or y^2 + u y + v, with roots up to about 9s."""
    t = 9 * s
    if rng.random() < 0.5:
        return [rng.randint(-t, t), 1]
    return [rng.randint(-t * t, t * t), rng.randint(-2 * t, 2 * t), 1]


def int_product(factors):
    p = [1]
    for f in factors:
        p = _int_mul(p, f)
    return p


def gcd_corpus():
    rng = random.Random(30)
    # zero and constant operands, top zeros, and pairs whose first evaluation
    # point reads a divisor of one operand only (see the retry test)
    cases = [([], []), ([0, 0], [0]), ([], [4, -6]), ([0], [5]), ([-6], [4, 2]), ([3], [0, 0, 9]),
             ([0, -3, 1], [-6, -1, 1]), ([1, 1], [-3, 3, 1]), ([-2, 5, -6, 0, 1], [1, -1, 0, 3, 1])]

    def small():
        return [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]

    for _ in range(60):  # a shared factor, signs and non-unit contents
        common = small()
        cases.append(tuple([c * x for x in _int_mul(common, small())] for c in rng.sample([-3, -1, 1, 2, 6], 2)))
    for _ in range(20):  # p and p', non-monic, with repeated factors
        factors = [scaled_factor(rng, rng.choice([1, 2, 6])) for _ in range(rng.randint(1, 3))]
        c = rng.choice([-2, 1, 3])
        p = [c * x for x in int_product(factors * rng.randint(1, 3))]
        cases.append((p, int_derivative(p)))
    for _ in range(8):  # about 300 bits at s = 100, repeated common factors
        common = [scaled_factor(rng, 100) for _ in range(rng.randint(2, 6))]
        common += common[:rng.randint(0, 2)]
        cases.append(tuple(int_product(common + [scaled_factor(rng, 100) for _ in range(rng.randint(8, 16))])
                           for _ in range(2)))
    return cases


def test_int_gcd_corpus_matches_euclid_oracle():
    big = 0
    for left, right in gcd_corpus():
        expected = primitive_associate(euclid_gcd(Polynomial(left), Polynomial(right)))
        big = max([big] + [abs(x).bit_length() for x in left + right])
        for x, y in ((left, right), (right, left)):
            g, cx, cy = _int_gcd(x, y)
            assert g == expected
            for p, c in ((x, cx), (y, cy)):
                assert _int_mul(g, c) == p if any(p) else not any(c)
    assert big >= 280


def test_int_gcd_retries_at_a_second_evaluation_point(monkeypatch):
    points = []
    evaluate = polynomials._int_coeff_eval
    monkeypatch.setattr(polynomials, "_int_coeff_eval", lambda a, t: points.append(t) or evaluate(a, t))
    # xi = 2 min(6, 3) + 2 = 8 reads [3, 2, -3, 4] off gcd(a(8), b(8)) = 1875,
    # which divides neither; the schedule's next point 8 * 73794 * 1 // 27011 = 21 succeeds
    assert _int_gcd([-2, 5, -6, 0, 1], [1, -1, 0, 3, 1]) == ([1, -2, 2, 1], [-2, 1], [1, 1])
    assert points == [8, 8, 21, 21]
    # at xi = 8, y + 2 divides (y - 3)(y + 2) but not y (y - 3): both
    # certificate divisions are needed, in either order
    for a, b in (([0, -3, 1], [-6, -1, 1]), ([-6, -1, 1], [0, -3, 1])):
        points.clear()
        g, ca, cb = _int_gcd(a, b)
        assert g == [-3, 1] and points == [8, 8, 21, 21]
        assert {tuple(ca), tuple(cb)} == {(0, 1), (2, 1)}
    # the content and sign do not enter the norms: 2 min(1, 3) + 2 = 4
    points.clear()
    assert _int_gcd([-4, -4], [-9, 9, 3]) == ([1], [-4, -4], [-9, 9, 3])
    assert points == [4, 4, 10, 10]


def squarefree_oracle(p):
    """Yun's layers of the monic p over Q from `euclid_gcd` alone: with r the
    squarefree part and q_i = gcd(p, r^i), the product of the factors of
    multiplicity at least i is q_i / q_(i-1), and layer i is that over the
    same for i + 1."""
    p = Polynomial(p)
    r = poly_divmod(p, euclid_gcd(p, Polynomial(int_derivative([int(c) for c in p.coeffs]))))[0]
    q = [Polynomial([1])]
    while q[-1] != p:
        q.append(euclid_gcd(p, poly_pow(r, len(q))))
    at_least = [poly_divmod(q[i], q[i - 1])[0] for i in range(1, len(q))] + [Polynomial([1])]
    return [(poly_divmod(at_least[i - 1], at_least[i])[0], i) for i in range(1, len(q))]


def test_int_squarefree_matches_the_gcd_and_multiplicity_oracles():
    rng = random.Random(31)
    for _ in range(40):
        s = rng.choice([1, 2, 6, 100])
        factors = [scaled_factor(rng, s) for _ in range(rng.randint(1, 5))]
        p = int_product(f for f in factors for _ in range(rng.randint(1, 4)))
        expected = [(primitive_associate(a), i) for a, i in squarefree_oracle(p) if a.degree > 0]
        assert _int_squarefree(p) == expected
        for a, i in expected:
            assert multiplicity(Polynomial(p), Polynomial(a)) == i
            for f in factors:
                if poly_divmod(Polynomial(a), Polynomial(f))[1].is_zero:
                    assert multiplicity(Polynomial(p), Polynomial(f)) == i


@given(monic_factors_st, st.integers(0, 4), int_polys_st)
@settings(max_examples=150)
def test_int_multiplicity_matches_oracle(b, e, c):
    if not any(c):
        c = [3]
    a = c
    for _ in range(e):
        a = _int_mul(a, b)
    assert _int_multiplicity(a, b) == multiplicity(Polynomial(a), Polynomial(b)) >= e


def test_linear_multiplicity_by_synthetic_division_matches_repeated_division():
    rng = random.Random(35)
    seen = set()
    for _ in range(400):
        r = rng.choice([0, 0, 1, -1, -2, 3, rng.randint(-60, 60)])
        c = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
        c[0] = c[0] or rng.choice([-7, 7])  # y does not divide c
        a = c
        for _ in range(rng.randint(0, 4)):
            a = _int_mul(a, [-r, 1])
        a = a + [0] * rng.choice([0, 0, 1, 3])  # a run of zeros at the top
        b = [-rng.choice([r, r, r + 1, -r]), 1]
        e = _int_multiplicity(a, b)
        assert e == multiplicity(Polynomial(a), Polynomial(b))
        seen.add((b[0] == 0, b[0] > 0, e > 0, a[-1] == 0))
    # roots at 0 and negative roots, present and absent, with and without top zeros
    assert len(seen) == 12
    # the divisors of higher degree still divide repeatedly
    assert _int_multiplicity(_int_mul([1, 0, 1], [1, 0, 1]) + [0], [1, 0, 1]) == 2


@pytest.mark.parametrize("e", [0, 1, 2, 7])
def test_int_pow_matches_repeated_products(e):
    rng = random.Random(350 + e)
    cases = [[5], [-3], [0, 0, 2], [0, 1], [-(2 ** 200) - 1, 3, 1], [2 ** 200 + 7, 0, -1, 0]]
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        a[0] = rng.choice([0, -rng.getrandbits(200), a[0]])
        a[-1] = a[-1] or 1
        cases.append(a)
    for a in cases:
        expected = [1]
        for _ in range(e):
            expected = _int_mul(expected, a)
        assert _int_pow(a, e) == expected


def test_int_shift_matches_the_binomial_expansion():
    # a(y + r) = sum_j a_j (y + r)^j, expanded by repeated products; top
    # zeros stay, r = 0 and the empty list give their input back, and a
    # shift by -r undoes one by r
    rng = random.Random(360)
    cases = [([], 5), ([7], -3), ([0, 0, 1], 2), ([1, 2, 0, 0], -1), ([3, 1], 0), ([2 ** 200 + 1, -5, 1], 2 ** 70)]
    for _ in range(60):
        a = [rng.randint(-9, 9) * rng.choice([1, 2 ** 100]) for _ in range(rng.randint(1, 9))]
        cases.append((a, rng.choice([rng.randint(-300, 300), -(2 ** 64) - 1, 194])))
    for a, r in cases:
        expected = [0] * len(a)
        for j, c in enumerate(a):
            for k, x in enumerate(_int_pow([r, 1], j)):
                expected[k] += c * x
        assert _int_shift(a, r) == expected
        assert _int_shift(expected, -r) == list(a)


@given(st.lists(fractions_st, min_size=1, max_size=5))
@settings(max_examples=60)
def test_interpolate_round_trip(coeffs):
    p = Polynomial(coeffs)
    points = [(Fraction(t), poly_eval(p, Fraction(t))) for t in range(max(p.degree, 0) + 1)]
    assert interpolate(points) == p


def test_interpolate_rejects_duplicate_points():
    with pytest.raises(InvalidParametersError):
        interpolate([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))])
