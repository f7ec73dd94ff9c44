"""Block spectral pipeline: main-function matrices, E-main classification,
block characteristic polynomials, carry-forward bounds, universal variants."""

import ast
import functools
import itertools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (centring_corpus, dense_stack, diagonal_mode, polymatrix_det_mod, random_graph, random_indexing,
                      random_spec, record_block_primes, record_calls, stack_entries, walk_numerators)
from oracles import (
    bareiss_charpoly,
    blockwise_adjacency,
    classify_e_main_numeric,
    euclid_gcd,
    interpolate,
    lowest_terms,
    multiplicity,
    numeric_spectrum,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_monic,
    poly_mul,
    poly_pow,
    poly_scale,
    polymatrix_det,
    polymatrix_det_values,
    resolvent_bilinear_at,
    resolvent_numerators,
)
import hmjoin.cospectral as cospectral
import hmjoin.exactlinalg as exactlinalg
import hmjoin.spectra as spectra
from hmjoin.cospectral import GeneralizedJoinSpec, generalized_universal_charpoly
from hmjoin.families import cartesian_product, generalized_petersen, generalized_web, tadpole
from hmjoin.errors import (BlockFactorizationError, CarryForwardError, InvalidParametersError, NonSymmetricInputError,
                           SizeMismatchError)
from hmjoin.exactlinalg import charpoly
from hmjoin.graphs import Graph, UniversalParams, make_named, universal_matrix
from hmjoin.joins import IndexingMap, JoinSpec, hm_join, indexing_matrix
from hmjoin.polynomials import Polynomial, _unscaled
from hmjoin.spectra import (
    MainFunction,
    _universal_blocks,
    block_charpoly,
    classify_e_main,
    main_function,
    universal_block_charpoly,
)

def example_3_7_spec() -> JoinSpec:
    host = make_named("complete", [2])
    return JoinSpec(host,
                    [make_named("complete", [2]), make_named("complete", [5])],
                    2,
                    [IndexingMap([1, 1], 2), IndexingMap([1, 1, 1, 2, 2], 2)])


def example_3_10_spec() -> JoinSpec:
    host = make_named("path", [3])
    return JoinSpec(host,
                    [make_named("complete", [2]), make_named("path", [3]),
                     make_named("star", [1, 3])],
                    3,
                    [IndexingMap([1, 2], 3), IndexingMap([1, 2, 3], 3),
                     IndexingMap([1, 1, 3, 3], 3)])


def ratfun(num, den):
    return Polynomial(num), Polynomial(den)


def test_gamma_matrix_of_k2_with_one_label():
    g = make_named("complete", [2])
    im = IndexingMap([1, 1], 2)
    e = indexing_matrix(g, im)
    mf = main_function(g.adjacency_matrix(), e)
    assert mf.entry(0, 0) == ratfun([2], [-1, 1])
    assert mf.entry(0, 1) == ratfun([0], [1])
    assert mf.entry(1, 1) == ratfun([0], [1])
    assert mf.denominator == Polynomial([-1, 1])
    assert mf.charpoly == Polynomial([-1, 0, 1])


def test_gamma_matrix_of_k5_with_two_labels():
    g = make_named("complete", [5])
    im = IndexingMap([1, 1, 1, 2, 2], 2)
    e = indexing_matrix(g, im)
    mf = main_function(g.adjacency_matrix(), e)
    den = [-4, -3, 1]  # x^2 - 3x - 4
    assert mf.entry(0, 0) == ratfun([-3, 3], den)
    assert mf.entry(0, 1) == ratfun([6], den)
    assert mf.entry(1, 0) == ratfun([6], den)
    assert mf.entry(1, 1) == ratfun([-4, 2], den)
    assert mf.denominator == Polynomial(den)


def test_main_function_equality_ignores_the_scale():
    # both have Gamma = 1/x, one over s = 2 and one over s = 1
    e = [[0], [1]]
    half = main_function([[Fraction(1, 2), 0], [0, 0]], e)
    zero = main_function([[0, 0], [0, 0]], e)
    assert (half.s, zero.s) == (2, 1)
    assert half == zero and hash(half) == hash(zero)
    assert half.entry(0, 0) == zero.entry(0, 0) == ratfun([1], [0, 1])
    e = [[0], [2]]
    assert half != main_function([[0, 0], [0, 0]], e)


def test_main_function_invariants_on_random_specs():
    rng = random.Random(21)
    for _ in range(25):
        spec = random_spec(rng)
        for g, im in zip(spec.factors, spec.indexing):
            e = indexing_matrix(g, im)
            mf = main_function(g.adjacency_matrix(), e)
            # the reduced common denominator divides the charpoly
            assert poly_divmod(mf.charpoly, mf.denominator)[1].is_zero
            # cleared numerators: f = g * Gamma entrywise, deg f < deg g
            for a, row in enumerate(mf.numerator):
                for b, f in enumerate(row):
                    num, den = mf.entry(a, b)
                    assert poly_mul(num, mf.denominator) == poly_mul(f, den)
                    if not f.is_zero:
                        assert f.degree < mf.denominator.degree


def oracle_lcm(a, b):
    return poly_monic(poly_divmod(poly_mul(a, b), euclid_gcd(a, b))[0])


def symmetric(m):
    """The symmetric matrix with the lower triangle of m."""
    return [[m[max(i, j)][min(i, j)] for j in range(len(m))] for i in range(len(m))]


def test_main_function_normal_form_against_oracle():
    # g is the monic lcm of the reduced entry denominators, and each entry
    # is f_ab / g in lowest terms, both by Euclid over Q
    rng = random.Random(400)

    def rand(rows, cols, span=3):
        return [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)]

    for _ in range(40):
        n = rng.randint(1, 5)
        m = symmetric(rand(n, n))
        e = rand(n, rng.randint(1, 3), span=1)
        mf = main_function(m, e)
        assert mf.denominator.coeffs[-1] == 1
        lcm = Polynomial([1])
        for a, row in enumerate(mf.numerator):
            for b, f in enumerate(row):
                num, den = mf.entry(a, b)
                assert (num, den) == lowest_terms(f, mf.denominator)
                lcm = oracle_lcm(lcm, den)
        assert mf.denominator == lcm


def main_function_oracle_cases():
    rng = random.Random(33)

    def rand(rows, cols, span=3):
        return [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)]

    cases = []
    for n, c in ((1, 2), (2, 3), (3, 2), (4, 1), (5, 2)):
        cases.append((symmetric(rand(n, n)), rand(n, c)))
    # a zero-width side, an all-zero side (g = 1), and a 1 x 1 matrix
    cases.append((symmetric(rand(3, 3)), [[] for _ in range(3)]))
    cases.append((symmetric(rand(4, 4)), [[0, 0] for _ in range(4)]))
    cases.append(([[Fraction(-5, 2)]], [[Fraction(1, 7), Fraction(0)]]))
    # non-main eigenvalues: g is a proper factor of phi, and the two label
    # classes of a disjoint union see different parts of the spectrum, so
    # no single entry's denominator is the whole g
    union = make_named("path", [3]).adjacency_matrix()
    union = [row + [0, 0, 0] for row in union] + [[0, 0, 0] + [int(i != j) for j in range(3)]
                                                  for i in range(3)]
    cases.append((union, [[1, 0], [0, 0], [1, 0], [0, 1], [0, 1], [0, 0]]))
    k5 = make_named("complete", [5])
    cases.append((k5.adjacency_matrix(), indexing_matrix(k5, IndexingMap([1, 1, 1, 2, 2], 2))))
    # denominators s = 12 and s_e = 35, and a block the side never sees,
    # so h = x - 5/6 is not constant
    f = Fraction
    m = [[f(1, 2), f(1, 3), 0], [f(1, 3), f(-1, 4), 0], [0, 0, f(5, 6)]]
    cases.append((m, [[f(1, 5), f(2, 7), 2], [f(3, 5), 1, -1], [0, 0, 0]]))
    return cases


def assert_matches_resolvent_oracle(m, e):
    """main_function(m, e) against the resolvent oracle with both sides E;
    returns the main function, phi and the oracle's numerators
    N = phi * Gamma."""
    c = len(e[0])
    mf = main_function(m, e)
    assert len(mf.numerator) == c
    assert all(len(row) == c for row in mf.numerator)
    phi, numerators = resolvent_numerators(m, e, e)
    assert mf.charpoly == phi
    # the route through per-entry reduction: monic lcm of the reduced
    # denominators phi / gcd(N_ab, phi) of N / phi
    g = Polynomial([1])
    for row in numerators:
        for p in row:
            den = poly_divmod(phi, euclid_gcd(p, phi))[0]
            g = poly_divmod(poly_mul(g, den), euclid_gcd(g, den))[0]
    assert mf.denominator == g
    for a in range(c):
        for b in range(c):
            quot, rem = poly_divmod(poly_mul(numerators[a][b], g), phi)
            assert rem.is_zero and mf.numerator[a][b] == quot
    if c and all(p.is_zero for row in numerators for p in row):
        assert mf.denominator == Polynomial([1])
    for t in (Fraction(1, 3), Fraction(-7, 2), Fraction(11, 5)):
        _, value = resolvent_bilinear_at(m, e, e, t)
        assert value is not None
        gt = poly_eval(mf.denominator, t)
        assert value == [[poly_eval(f, t) / gt for f in row] for row in mf.numerator]
    return mf, phi, numerators


def test_main_function_matches_resolvent_oracle():
    for m, e in main_function_oracle_cases():
        assert_matches_resolvent_oracle(m, e)


def halved_main_function_cases():
    """(M, E): seeded symmetric rational M whose sides have several
    columns, one of them zero; an n x 0 side; the gamma != 0 block
    [1 | 1_S] of a join, which walks its upper triangle like any other; and
    a block-diagonal M on which the gcd chain divides two entries by
    h = phi_2 before the last entry shrinks it to 1 (the oracle checks that
    h)."""
    rng = random.Random(2023)

    def rand(rows, cols, span=3):
        return [[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)]

    cases = []
    for _ in range(8):
        n = rng.randint(2, 5)
        m = symmetric(rand(n, n))
        e = rand(n, rng.randint(2, 4), span=2)
        zero = rng.randrange(len(e[0]))
        cases.append((m, [row[:zero] + [0] + row[zero:] for row in e]))
    cases.append((cases[0][0], [[] for _ in cases[0][0]]))
    blocks, _ = _universal_blocks(make_named("path", [2]), [make_named("cycle", [4])] * 2,
                                  [[[1], [0], [1], [0]]] * 2, UniversalParams(1, 0, 2, 0))
    assert blocks[0][1] == [[1, 1], [1, 0], [1, 1], [1, 0]]
    cases.append(blocks[0])
    half, f = Fraction(1, 2), Fraction
    m = [[0, half, 0, 0, 0], [half, 0, half, 0, 0], [0, half, 0, 0, 0], [0, 0, 0, f(1, 3), 1], [0, 0, 0, 1, 0]]
    cases.append((m, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    return cases


def test_halved_divide_first_main_function_matches_the_oracles(monkeypatch):
    walks = []
    walk = spectra._walk_lift

    def spied(rows, phi, side, bound, cells):
        walks.append(cells)
        return walk(rows, phi, side, bound, cells)

    monkeypatch.setattr(spectra, "_walk_lift", spied)
    for m, e in halved_main_function_cases():
        walks.clear()
        mf, phi, numerators = assert_matches_resolvent_oracle(m, e)
        # the upper triangle over the non-zero columns alone, and no walk
        # for an n x 0 side
        c = len(e[0])
        nonzero = sum(any(row[a] for row in e) for a in range(c))
        cells = [(a, b) for a in range(nonzero) for b in range(a, nonzero)]
        assert walks == ([cells] if cells else [])
        if not c:
            assert (mf.scale, mf.f) == (1, ())
        for a, row in enumerate(numerators):
            for b, p in enumerate(row):
                assert mf.entry(a, b) == lowest_terms(p, phi)
    # the last case: gcd(phi, N_00) = phi_2 of degree 2, yet g = phi
    assert euclid_gcd(numerators[0][0], phi).degree == 2 and mf.denominator == phi


def test_gamma_blocks_walk_only_the_upper_triangle(monkeypatch):
    # every block [1 | 1_S] of a seidel join and every block [1 | E_i] of
    # a labeled join at gamma != 0 lifts the cells a <= b alone
    walks = []
    walk = spectra._walk_lift

    def spied(rows, phi, side, bound, cells):
        walks.append((len(side[0]), cells))
        return walk(rows, phi, side, bound, cells)

    monkeypatch.setattr(spectra, "_walk_lift", spied)
    seidel = UniversalParams.preset("seidel")
    generalized = GeneralizedJoinSpec(make_named("cycle", [3]),
                                      [make_named("cycle", [4]), make_named("path", [3]), make_named("star", [4])],
                                      [[0, 2], [1], [0, 3]], seidel)
    assert generalized_universal_charpoly(generalized) == bareiss_charpoly(
        universal_matrix(generalized.join_graph(), seidel))
    spec = example_3_10_spec()
    blocks, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), seidel)
    matrix = universal_matrix(hm_join(spec), seidel)
    _, l, lift = spectra.reduced_block_charpoly(blocks, weights, matrix)
    assert _unscaled(lift, l) == bareiss_charpoly(matrix)
    # [1 | 1_S] has two columns; [1 | E_i] up to four, less its zero columns
    assert {c for c, _ in walks} == {2, 3, 4}
    for c, cells in walks:
        assert cells == [(a, b) for a in range(c) for b in range(a, c)]


def walk_bound(m, side):
    """The bound of `_scaled_bound(M)` and W = bound * max_a |E'_a|_1^2 for
    the integer side E' = s_e E, its norm taken as at least 1."""
    _, _, bound, _ = exactlinalg._scaled_bound(m)
    den = exactlinalg._scaled_rows(side)[0]
    norm = max(1, *(sum(abs(row[a] * den) for row in side) for a in range(len(side[0]))))
    return bound, bound * norm * norm


def walk_bound_cases():
    rng = random.Random(41)

    def rand(rows, cols, span, den=1):
        return [[Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(cols)]
                for _ in range(rows)]

    cases = []
    for _ in range(12):  # rational M and sides; the walk needs no symmetric M
        n = rng.randint(1, 5)
        cases.append((rand(n, n, 4, 3), rand(n, rng.randint(1, 3), 3, 2)))
    for _ in range(3):  # rows of M' beyond 2**63: the residues come from Python ints
        n = rng.randint(2, 4)
        cases.append((rand(n, n, 2 ** 70, 2), rand(n, 2, 3)))
    for _ in range(3):  # side entries of 2**26 and more
        n = rng.randint(2, 4)
        cases.append((rand(n, n, 3), rand(n, 2, 2 ** 40, 3)))
    # bound 2 for this M, so the primes of the bound alone hold nothing near 2**80
    cases.append(([[1]], [[2 ** 40]]))
    return cases


def test_walk_stays_within_its_bound_and_matches_the_resolvent():
    big_rows = big_sides = 0
    for m, side in walk_bound_cases():
        n = len(m)
        big_rows += max(abs(x) for row in exactlinalg._scaled_bound(m)[1] for x in row) >= 2 ** 63
        big_sides += max(abs(x) for row in side for x in row) >= 2 ** 26
        s, _, scale, entries = walk_numerators(m, side)
        bound, w = walk_bound(m, side)
        largest = max(abs(c) for row in entries for p in row for c in p)
        assert largest <= w
        samples = []
        t = 0
        while len(samples) < n:
            det, value = resolvent_bilinear_at(m, side, side, Fraction(t))
            if value is not None:
                samples.append((t, det, value))
            t += 1
        for a, row in enumerate(entries):
            for b, p in enumerate(row):
                assert len(p) == n
                assert _unscaled(p, s, scale) == interpolate([(t, det * value[a][b]) for t, det, value in samples])
    assert big_rows >= 3 and big_sides >= 4
    # the last case needs the side norm: the primes of its bound alone cannot lift it
    assert math.prod(exactlinalg._lift_primes(bound)) <= 2 * largest


def test_centred_and_uncentred_walks_match_the_resolvent_oracle(monkeypatch):
    # the walk on R - aI and phi(y + a), for the centring the rule adopts,
    # none, and every diagonal mode whatever it saves, lifts the same
    # integers, those of the resolvent oracle; a Taylor shift with its sign
    # flipped gives others
    rng, walked = random.Random(3602), []
    for m in centring_corpus(random.Random(3601)):
        n = len(m)
        if not n:
            continue
        c = rng.randint(1, 3)
        side = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(c)] for _ in range(n)]
        s, phi, rows, centring, _ = spectra._resolvent(tuple(map(tuple, m)))
        _, _, bound, _ = exactlinalg._scaled_bound(m)
        a = diagonal_mode(rows)
        forced = (a, exactlinalg._scaled_bound([[x - a * (i == j) for j, x in enumerate(row)]
                                                for i, row in enumerate(rows)])[2])
        se, ints = exactlinalg._scaled_rows(side)
        cells = [(x, y) for x in range(c) for y in range(c)]
        lifts = [exactlinalg._walk_lift(rows, phi, ints, k, cells) for k in ((0, bound), centring, forced)]
        assert lifts[1] == lifts[2] == lifts[0]
        walked.append((rows, phi, ints, forced, cells, lifts[0]))
        if n <= 8:
            oracle_phi, numerators = resolvent_numerators(m, side, side)
            assert _unscaled(phi, s) == oracle_phi
            for (x, y), p in zip(cells, lifts[0]):
                assert _unscaled(p, s, se * se) == numerators[x][y]
    shift = exactlinalg._int_shift
    monkeypatch.setattr(exactlinalg, "_int_shift", lambda p, r: shift(p, -r))
    # n = 1 and zero sides have constant entries, which no shift moves
    moved = [w for w in walked if w[3][0] and len(w[0]) > 1 and any(map(any, w[5]))]
    assert len(moved) >= 20
    for rows, phi, ints, forced, cells, lifted in moved:
        assert exactlinalg._walk_lift(rows, phi, ints, forced, cells) != lifted


def test_centring_keeps_the_block_primes(monkeypatch):
    # tadpole(36, 8) under A_alpha: centred, the direct lift takes 5 primes,
    # not 13, and the C36 factor 4, not 11, while the block path evaluates
    # at the same primes and the report is the same
    spec, params = tadpole(36, 8).spec, UniversalParams.preset("Aalpha:97/100")
    direct = record_calls(monkeypatch, exactlinalg, "_charpoly_mod", note=lambda h, ps: [(h.shape[1], len(ps))])
    used, runs, bound = record_block_primes(monkeypatch), [], spectra._scaled_bound
    for centre in (True, False):
        if not centre:
            monkeypatch.setattr(spectra, "_scaled_bound", lambda m: (*bound(m)[:3], (0, bound(m)[2])))
        spectra._resolvent.cache_clear()
        direct.clear()
        used.clear()
        runs.append((universal_block_charpoly(spec, params), dict(direct), list(used)))
    spectra._resolvent.cache_clear()
    (centred, counts, primes), (plain, plain_counts, plain_primes) = runs
    assert centred == plain and primes == plain_primes
    assert (counts[44], counts[36], plain_counts[44], plain_counts[36]) == (5, 4, 13, 11)


def test_row_bound_covers_every_cofactor_coefficient():
    # with the identity side the walk's layers are the coefficients of
    # adj(yI - M'), and every one lies within the bound of the charpoly:
    # rows of mixed magnitudes, zero rows, diagonal and rational matrices
    rng = random.Random(54)
    for case in range(40):
        n = rng.randint(1, 7)
        m = [[rng.randint(-9, 9) * 10 ** rng.randint(0, 12) for _ in range(n)] for _ in range(n)]
        if case % 4 == 1:
            for i in rng.sample(range(n), rng.randint(1, n)):
                m[i] = [0] * n
        if case % 4 == 2:
            m = [[x if i == j else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        if case % 4 == 3:
            m = [[Fraction(x, rng.choice([1, 3, 8, 10 ** 5])) for x in row] for row in m]
        _, _, _, entries = walk_numerators(m, [[int(i == j) for j in range(n)] for i in range(n)])
        _, _, bound, _ = exactlinalg._scaled_bound(m)
        assert max(abs(c) for row in entries for p in row for c in p) <= bound


def test_main_function_edge_shapes():
    # a zero-width side, an all-zero side column, a zero side and 1 x 1
    # matrices, pinned as (s, phi, g, f, scale)
    f = Fraction
    m = [[f(1, 2), f(1, 3), 0], [f(1, 3), f(-1, 4), 1], [0, 1, f(5, 6)]]
    phi = (1204, -148, -13, 1)
    cases = [
        ((m, [[] for _ in range(3)]), (12, phi, (1,), (), 1)),
        ((m, [[0, 2], [0, -1], [0, f(1, 3)]]), (12, phi, phi, (((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (-3310, -615, 46))), 9)),
        ((m, [[0], [0], [0]]), (12, phi, (1,), (((),),), 1)),
        (([[f(-5, 2)]], [[f(1, 7), 0]]), (2, (5, 1), (5, 1), (((1,), (0,)), ((0,), (0,))), 49)),
        (([[7]], [[0]]), (1, (-7, 1), (1,), (((),),), 1)),
    ]
    for args, expected in cases:
        mf = main_function(*args)
        assert (mf.s, mf.phi, mf.g, mf.f, mf.scale) == expected
    # the side must have a row per row of M, and M must be symmetric
    u = [[f(1, 5), 2], [f(3, 5), -1], [0, 0]]
    for side in (u[:2], u + [[0, 0]]):
        with pytest.raises(SizeMismatchError, match="the side must have 3 rows"):
            main_function(m, side)
    with pytest.raises(NonSymmetricInputError):
        main_function([[0, 1], [0, 0]], [[1], [1]])


def test_classification_of_complete_factors():
    k2 = make_named("complete", [2])
    im2 = IndexingMap([1, 1], 2)
    classes = classify_e_main(k2.adjacency_matrix(), indexing_matrix(k2, im2))
    flags = {c.rational: c.is_main for c in classes}
    assert flags == {Fraction(1): True, Fraction(-1): False}

    k5 = make_named("complete", [5])
    im5 = IndexingMap([1, 1, 1, 2, 2], 2)
    classes5 = classify_e_main(k5.adjacency_matrix(), indexing_matrix(k5, im5))
    flags5 = {c.rational: c.is_main for c in classes5}
    assert flags5 == {Fraction(4): True, Fraction(-1): True}
    mult5 = {c.rational: c.multiplicity for c in classes5}
    assert mult5 == {Fraction(4): 1, Fraction(-1): 4}


def test_classification_rejects_non_symmetric():
    with pytest.raises(NonSymmetricInputError):
        classify_e_main([[0, 1], [0, 0]], [[1], [1]])


def test_classification_of_rational_matrices_against_oracle():
    # denominators 2 and 3 make L = 6, and most classes are irrational
    rng = random.Random(29)
    for n in range(2, 6):
        for _ in range(4):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            e = [[Fraction(rng.randint(0, 1)) for _ in range(2)] for _ in range(n)]
            mf = main_function(m, e)
            rebuilt = Polynomial([1])
            for c in classify_e_main(m, e):
                assert c.poly.coeffs[-1] == 1 and c.multiplicity >= 1
                derivative = Polynomial([k * x for k, x in enumerate(c.poly.coeffs)][1:])
                assert euclid_gcd(c.poly, derivative) == Polynomial([1])
                # every linear class is a rational root, and no other class is
                assert (c.rational is not None) == (c.poly.degree == 1)
                if c.rational is not None:
                    assert poly_eval(c.poly, c.rational) == 0
                assert poly_divmod(mf.denominator, c.poly)[1].is_zero == c.is_main
                rebuilt = poly_mul(rebuilt, poly_pow(c.poly, c.multiplicity))
            assert rebuilt == charpoly(m)


def test_numeric_classification_agrees_with_exact():
    rng = random.Random(22)
    for _ in range(15):
        spec = random_spec(rng)
        for g, im in zip(spec.factors, spec.indexing):
            a = g.adjacency_matrix()
            e = indexing_matrix(g, im)
            exact = classify_e_main(a, e)
            numeric = classify_e_main_numeric(a, e)
            # compare only the rational classes; classes are homogeneous
            # so irrational classes never collide with them
            exact_roots = sorted((float(c.rational), c.multiplicity, c.is_main)
                                 for c in exact if c.rational is not None)
            for root, mult, main in exact_roots:
                match = [t for t in numeric if abs(t[0] - root) < 1e-6]
                assert match, f"no numeric cluster near {root}"
                assert match[0][1] == mult
                assert match[0][2] == main


def test_block_charpoly_worked_example():
    report = block_charpoly(example_3_7_spec())
    expected = poly_from_roots(
        [Fraction(-2), Fraction(5), Fraction(1)] + [Fraction(-1)] * 4)
    assert report.charpoly_block == expected
    assert report.charpoly_direct == expected
    assert report.factor_charpolys[0] == Polynomial([-1, 0, 1])


def test_block_charpoly_second_worked_example():
    report = block_charpoly(example_3_10_spec())
    direct = charpoly(hm_join(example_3_10_spec()).adjacency_matrix())
    assert report.charpoly_block == direct
    assert report.charpoly_block.degree == 9


def test_block_charpoly_random_specs():
    rng = random.Random(23)
    for _ in range(30):
        spec = random_spec(rng)
        report = block_charpoly(spec)
        assert report.charpoly_block == report.charpoly_direct


def test_block_charpoly_edge_cases():
    # single factor: join is the factor itself
    host1 = make_named("complete", [1])
    g = make_named("cycle", [5])
    spec1 = JoinSpec(host1, [g], 2, [IndexingMap([1, 2, 1, 2, None], 2)])
    r1 = block_charpoly(spec1)
    assert r1.charpoly_block == charpoly(g.adjacency_matrix())

    # edgeless host: disjoint union, charpoly is the product
    host2 = make_named("empty", [3])
    factors = [make_named("path", [2]), make_named("cycle", [3]), make_named("complete", [1])]
    spec2 = JoinSpec(host2, factors, 1,
                     [IndexingMap([1, 1], 1), IndexingMap([1, None, 1], 1),
                      IndexingMap([1], 1)])
    r2 = block_charpoly(spec2)
    product = Polynomial([1])
    for f in factors:
        product = poly_mul(product, charpoly(f.adjacency_matrix()))
    assert r2.charpoly_block == product

    # all vertices unlabeled: no cross edges even over host edges
    host3 = make_named("complete", [2])
    spec3 = JoinSpec(host3, [make_named("path", [2]), make_named("path", [3])], 2,
                     [IndexingMap([None, None], 2), IndexingMap([None, None, None], 2)])
    r3 = block_charpoly(spec3)
    assert r3.charpoly_block == poly_mul(charpoly(make_named("path", [2]).adjacency_matrix()),
                                         charpoly(make_named("path", [3]).adjacency_matrix()))


def test_phi_is_one_without_labeled_vertices():
    # no label (m = 0) or no labeled vertex: every g_i is 1, the reduced
    # block is the identity, and det(xI - M) = prod phi_i
    host = make_named("complete", [2])
    factors = [make_named("path", [2]), make_named("cycle", [3])]
    for m in (0, 2):
        spec = JoinSpec(host, factors, m, [IndexingMap([None] * f.n, m) for f in factors])
        report = block_charpoly(spec)
        assert all(mf.denominator == Polynomial([1]) for mf in report.gammas)
        assert report.phi_polynomial == Polynomial([1])
        assert report.charpoly_direct == poly_mul(*report.factor_charpolys)


def test_identity_factorization_pieces():
    # charpoly_direct * prod g_i^m == prod phi_i * Phi
    rng = random.Random(24)
    for _ in range(10):
        spec = random_spec(rng)
        report = block_charpoly(spec)
        lhs = report.charpoly_direct
        rhs = report.phi_polynomial
        for mf in report.gammas:
            lhs = poly_mul(lhs, poly_pow(mf.denominator, spec.m))
            rhs = poly_mul(rhs, mf.charpoly)
        assert lhs == rhs


def reduced_block_oracle(spec: JoinSpec, report, off_scale=1) -> Polynomial:
    """Phi rebuilt from the report's main functions and the host: the km x km
    polynomial block (g_i I_m on the diagonal, -rho f_i towards host
    neighbours j) and its determinant by evaluation over the full row-degree
    bound."""
    k, m = spec.k, spec.m
    host = spec.host.adjacency_matrix()
    block = [[Polynomial()] * (k * m) for _ in range(k * m)]
    for i, mf in enumerate(report.gammas):
        for a in range(m):
            block[i * m + a][i * m + a] = mf.denominator
            for j in range(k):
                if j != i and host[i][j]:
                    for b in range(m):
                        block[i * m + a][j * m + b] = poly_scale(mf.numerator[a][b], -off_scale)
    return polymatrix_det(block)


def test_phi_matches_reduced_block_determinant_on_corpus(corpus_specs, corpus_reports):
    for spec, report in zip(corpus_specs, corpus_reports):
        assert report.phi_polynomial == reduced_block_oracle(spec, report)


def cancelled_part(report) -> Polynomial:
    """H = prod_i phi_i / g_i, the part of prod_i phi_i that Phi divides
    out of det(xI - M)."""
    return functools.reduce(poly_mul, (poly_divmod(mf.charpoly, mf.denominator)[0] for mf in report.gammas))


def test_phi_matches_reduced_block_when_h_does_not_divide_the_charpoly():
    # H = x^2 (x + 1), but x divides det(xI - M) once: the gcd leaves H' = x
    # to divide G^(m-1)
    spec = JoinSpec(Graph(3, [(0, 1), (0, 2)]), [make_named("path", [3]), Graph(2, []), make_named("path", [2])], 2,
                    [IndexingMap([1, 2, 1], 2), IndexingMap([1, 2], 2), IndexingMap([1, 1], 2)])
    report = block_charpoly(spec)
    assert cancelled_part(report) == Polynomial([0, 0, 1, 1])
    assert not poly_divmod(report.charpoly_direct, cancelled_part(report))[1].is_zero
    assert report.phi_polynomial == reduced_block_oracle(spec, report)


@pytest.mark.parametrize("m", [0, 1])
def test_phi_matches_reduced_block_with_at_most_one_label(m):
    # no power of G: Phi = det(xI - M) / H
    labels = [[1, None, 1], [None, 1], [1, 1, None, 1]] if m else [[None] * 3, [None] * 2, [None] * 4]
    spec = JoinSpec(make_named("path", [3]), [make_named("path", [3]), make_named("path", [2]), make_named("cycle", [4])],
                    m, [IndexingMap(v, m) for v in labels])
    report = block_charpoly(spec)
    assert report.phi_polynomial.degree == m * sum(mf.denominator.degree for mf in report.gammas)
    assert poly_mul(report.phi_polynomial, cancelled_part(report)) == report.charpoly_direct
    assert report.phi_polynomial == reduced_block_oracle(spec, report)


def test_phi_takes_as_many_products_at_a_thousand_labels_as_at_three(monkeypatch):
    # two P3 factors on K2, one of m labels in use: deg Phi = 6m, and
    # G^(m-1) comes from one power recurrence, not from m - 1 products
    products = {}
    for m in (3, 1000):
        spec = JoinSpec(make_named("complete", [2]), [make_named("path", [3])] * 2, m, [IndexingMap([1, None, None], m)] * 2)
        calls = record_calls(monkeypatch, spectra, "_int_mul")
        report = block_charpoly(spec)
        monkeypatch.undo()
        products[m] = len(calls)
        assert report.phi_polynomial.degree == 6 * m
    assert report.phi_polynomial.coeffs[-1] == 1
    assert products[1000] == products[3] == 5


def test_reduced_stack_reads_only_the_non_zero_side_columns():
    # the unused-label spec at m = 1000: each row of f is read at its own
    # column, to find the non-zero ones, and the one row in use at the one
    # column in use, not at all 1000 columns, with the same stack
    spec = JoinSpec(make_named("complete", [2]), [make_named("path", [3])] * 2, 1000, [IndexingMap([1, None, None], 1000)] * 2)
    blocks, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), UniversalParams.preset("A"))
    mf, reads = main_function(*blocks[0]), []

    class Row(tuple):
        def __getitem__(self, b):
            reads.append(b)
            return tuple.__getitem__(self, b)

    counted = MainFunction(mf.s, mf.phi, mf.g, tuple(map(Row, mf.f)), mf.scale)
    rows, index, scale = spectra._reduced_stack([counted] * 2, weights)
    assert len(reads) <= 2 * 1000 + 4 and set(reads) == set(range(1000))
    expected = spectra._reduced_stack([mf] * 2, weights)
    assert (rows, scale) == (expected[0], expected[2]) and np.array_equal(index, expected[1])


def reduced_stack_of(spec, params=UniversalParams.preset("A")):
    """`_reduced_stack` of a labeled join's universal matrix, or of a
    generalized join's with its slot main functions."""
    if isinstance(spec, GeneralizedJoinSpec):
        blocks, weights = _universal_blocks(spec.host, spec.factors, spec.subset_indicators(), spec.params)
    else:
        blocks, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), params)
    mfs = [main_function(*b) for b in blocks]
    rows, index, scale = spectra._reduced_stack(mfs, weights)
    index, lead = schur_first(index)
    return mfs, (dense_stack(rows, index), scale, lead)


def schur_first(index):
    """A reduced block's index with the Schur rows of `_block_lift` first,
    rows and columns permuted alike, and their number lead."""
    order, lead = exactlinalg._schur_rows(index > 0)
    return index[order[:, None], order], lead


def assert_schur_matches_bareiss(num, lead):
    """The Schur path of `_polymatrix_det_mod` against the Bareiss values
    of the same stack, at the first points where every pivot is a unit."""
    p = next(exactlinalg._primes())
    entries = stack_entries(num)
    points = [t for t in range(20) if all(poly_eval(entries[r][r], t) % p for r in range(lead))][:4]
    assert len(points) == 4
    expected = [int(v) % p for v in polymatrix_det_values(entries, points)]
    assert polymatrix_det_mod(num, points, p, lead) == expected
    assert polymatrix_det_mod(num, points, p, 0) == expected


def test_reduced_stack_leads_with_a_maximal_diagonal_block(corpus_specs, corpus_reports):
    for spec, report in zip(corpus_specs, corpus_reports):
        _, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), UniversalParams.preset("A"))
        rows, index, _ = spectra._reduced_stack(report.gammas, weights)
        index, lead = schur_first(index)
        num = dense_stack(rows, index)
        pattern = (num != 0).any(axis=0)
        # diagonal in every layer, with a non-zero diagonal
        assert not (num[:, :lead, :lead] != 0)[:, ~np.eye(lead, dtype=bool)].any()
        assert pattern.diagonal()[:lead].all()
        # every row of the first host vertex's block is a pivot row, and
        # every other row is coupled to one
        assert lead >= len(report.gammas[0].f)
        assert all(pattern[r, :lead].any() or pattern[:lead, r].any() for r in range(lead, len(pattern)))


def test_reduced_stack_tables_hold_each_non_zero_entry_once(corpus_specs, corpus_reports):
    for spec, report in zip(corpus_specs, corpus_reports):
        _, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), UniversalParams.preset("A"))
        rows, index, _ = spectra._reduced_stack(report.gammas, weights)
        # plain ints, one length, the zero row first
        assert len({len(row) for row in rows}) == 1 and all(type(c) is int for row in rows for c in row)
        assert len(set(rows)) == len(rows) and not any(rows[0]) and all(any(row) for row in rows[1:])
        assert sorted(set(index[index > 0].tolist())) == list(range(1, len(rows)))


def test_schur_step_on_hosts_that_are_not_bipartite():
    rng = random.Random(52)
    for host in (make_named("complete", [3]), make_named("cycle", [5])):
        for params in (UniversalParams.preset("A"), UniversalParams.preset("L")):
            factors = [random_graph(rng, rng.randint(2, 4)) for _ in range(host.n)]
            spec = JoinSpec(host, factors, 2, [IndexingMap([1 + v % 2 for v in range(g.n)], 2) for g in factors])
            mfs, (num, _, lead) = reduced_stack_of(spec, params)
            # one block of K3 (its blocks are pairwise adjacent), at least
            # the blocks of host vertices 0 and 2 of C5
            assert lead >= (2 if host.n == 3 else 4)
            assert_schur_matches_bareiss(num, lead)
            report = universal_block_charpoly(spec, params)
            assert report.charpoly_block == charpoly(universal_matrix(hm_join(spec), params))


def test_schur_step_on_gamma_coupled_and_edgeless_joins():
    # seidel has gamma != 0, which couples every pair of blocks: only the
    # first block leads
    generalized = GeneralizedJoinSpec(make_named("cycle", [3]),
                                      [make_named("cycle", [4]), make_named("path", [3]), make_named("star", [4])],
                                      [[0, 2], [1], [0, 3]], UniversalParams.preset("seidel"))
    mfs, (num, _, lead) = reduced_stack_of(generalized)
    assert lead == len(mfs[0].f) < num.shape[1]
    assert_schur_matches_bareiss(num, lead)
    assert generalized_universal_charpoly(generalized) == charpoly(
        universal_matrix(generalized.join_graph(), generalized.params))
    # a host without edges: every row leads and S is empty
    factors = [make_named("path", [3]), make_named("cycle", [4]), make_named("complete", [2])]
    spec = JoinSpec(make_named("empty", [3]), factors, 2, [IndexingMap([1 + v % 2 for v in range(g.n)], 2) for g in factors])
    mfs, (num, _, lead) = reduced_stack_of(spec)
    assert lead == num.shape[1] == 6
    assert_schur_matches_bareiss(num, lead)
    assert block_charpoly(spec).charpoly_block == charpoly(hm_join(spec).adjacency_matrix())


def test_block_charpoly_skips_roots_of_main_denominators():
    # P3 with its end vertices in different label classes: 0 is an E-main
    # eigenvalue, so g(0) = 0 and the evaluation point 0 must be skipped
    spec_zero = JoinSpec(make_named("complete", [2]),
                         [make_named("path", [3]), make_named("complete", [2])], 2,
                         [IndexingMap([1, None, 2], 2), IndexingMap([1, 2], 2)])
    # K5 fully labeled by one class: g = x - 4, so the point 4 is skipped
    spec_four = JoinSpec(make_named("path", [2]),
                         [make_named("complete", [5]), make_named("path", [2])], 1,
                         [IndexingMap([1] * 5, 1), IndexingMap([1, None], 1)])
    # a factor with no labeled vertex: g = 1, nothing to skip for it
    spec_unlabeled = JoinSpec(make_named("path", [3]),
                              [make_named("complete", [2]), make_named("path", [3]),
                               make_named("complete", [1])], 1,
                              [IndexingMap([1, 1], 1), IndexingMap([None] * 3, 1),
                               IndexingMap([1], 1)])
    reports = [block_charpoly(spec) for spec in (spec_zero, spec_four, spec_unlabeled)]
    assert poly_eval(reports[0].gammas[0].denominator, 0) == 0
    assert reports[1].gammas[0].denominator == Polynomial([-4, 1])
    assert reports[2].gammas[1].denominator == Polynomial([1])
    for spec, report in zip((spec_zero, spec_four, spec_unlabeled), reports):
        assert report.charpoly_block == report.charpoly_direct
        assert report.charpoly_direct == charpoly(hm_join(spec).adjacency_matrix())
        assert report.phi_polynomial == reduced_block_oracle(spec, report)

    # universal matrix with a rational alpha: g has non-integer coefficients
    params = UniversalParams.preset("Aalpha:97/100")
    for spec in (example_3_10_spec(), spec_zero, spec_four):
        report = universal_block_charpoly(spec, params)
        assert any(c.denominator != 1 for mf in report.gammas for c in mf.denominator.coeffs)
        assert report.charpoly_block == charpoly(universal_matrix(hm_join(spec), params))
        assert report.charpoly_block == report.charpoly_direct
        assert report.phi_polynomial == reduced_block_oracle(spec, report, params.alpha)


def test_block_factorization_error_names_first_differing_coefficient(monkeypatch):
    spec = example_3_7_spec()
    true = charpoly(hm_join(spec).adjacency_matrix())
    # corrupt the direct path only: its integer rows (L = 1 here) are the
    # only ones with as many rows as the join; factors keep their charpolys
    lift, n = spectra._charpoly_lift, true.degree
    monkeypatch.setattr(spectra, "_charpoly_lift", lambda rows, bound: lift(rows, bound) if len(rows) != n else
                        [c + d for c, d in itertools.zip_longest(lift(rows, bound), [0, 0, 5, 1], fillvalue=0)])
    with pytest.raises(BlockFactorizationError) as info:
        block_charpoly(spec)
    message = str(info.value)
    assert "x^2" in message
    assert "block path gives %s" % true.coefficient(2) in message
    assert "direct path gives %s" % (true.coefficient(2) + 5) in message


def off_direct_lift(monkeypatch, n, change):
    """Make the direct lift of every matrix with n rows return its
    coefficient k plus change(k); the factors' own lifts, on fewer rows,
    stay true."""
    lift = spectra._charpoly_lift
    monkeypatch.setattr(spectra, "_charpoly_lift", lambda rows, bound: lift(rows, bound) if len(rows) != n else
                        [c + change(k) for k, c in enumerate(lift(rows, bound))])


def test_direct_lift_off_by_the_first_block_prime_is_caught_at_the_second(monkeypatch):
    # generalized_petersen(11, 4) takes two block primes; a direct lift off by
    # the first at x^3 agrees with the block's values modulo that prime only
    spec = generalized_petersen(11, 4).spec
    used = record_block_primes(monkeypatch)
    true = block_charpoly(spec).charpoly_direct
    assert len(used) == 2
    p = used[0]
    off_direct_lift(monkeypatch, true.degree, lambda k: p if k == 3 else 0)
    with pytest.raises(BlockFactorizationError) as info:
        block_charpoly(spec)
    assert str(info.value) == ("block factorization identity violated: the coefficients of x^3 differ, "
                               f"block path gives {true.coefficient(3)}, direct path gives {true.coefficient(3) + p}")


def test_agreeing_paths_neither_interpolate_nor_lift_the_block(monkeypatch):
    # the block's integers are interpolated and lifted only when its values
    # and the direct lift's differ; the walk and direct lifts run first
    log = []
    for name in ("_polymatrix_det_mod", "_interpolate_mod", "_crt_lift"):
        record_calls(monkeypatch, exactlinalg, name, log)

    def block_side():
        names = [name for name, _ in log]
        return names[names.index("_polymatrix_det_mod"):]

    spec = generalized_petersen(11, 4).spec
    n = block_charpoly(spec).charpoly_direct.degree
    assert block_side() == ["_polymatrix_det_mod"]
    log.clear()
    off_direct_lift(monkeypatch, n, lambda k: k == 0)
    with pytest.raises(BlockFactorizationError):
        block_charpoly(spec)
    assert block_side() == ["_polymatrix_det_mod", "_interpolate_mod", "_crt_lift"]


def test_interpolation_route_recovers_the_direct_integers(monkeypatch, corpus_specs):
    # the route that names a differing coefficient runs only when the check
    # fails: force it with a direct lift off by one at the constant term,
    # which differs at every point modulo every prime, and require the
    # block's own integers to be the true ones, on valid inputs of every kind
    lift, agreed = spectra._block_lift, []

    def forced(table, index, points, tops, bottoms, l, bound, direct):
        block = lift(table, index, points, tops, bottoms, l, bound, [direct[0] + 1, *direct[1:]])
        agreed.append(block == direct)
        return block

    monkeypatch.setattr(spectra, "_block_lift", forced)
    interpolations = record_calls(monkeypatch, exactlinalg, "_interpolate_mod")
    rng, aalpha, seidel = random.Random(5813), UniversalParams.preset("Aalpha:97/100"), UniversalParams.preset("seidel")
    generalized = []
    for _ in range(20):
        factors = [random_graph(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        subsets = [rng.sample(range(g.n), rng.randint(1, g.n)) for g in factors]
        generalized.append(GeneralizedJoinSpec(random_graph(rng, len(factors)), factors, subsets, seidel))
    runs = ([lambda spec=spec: block_charpoly(spec) for spec in corpus_specs]
            + [lambda spec=spec: universal_block_charpoly(spec, aalpha) for spec in corpus_specs[:40]]
            + [lambda spec=spec: generalized_universal_charpoly(spec) for spec in generalized])
    for run in runs:
        run()
    assert agreed == [True] * len(runs)
    assert len(interpolations) == len(runs)


def test_block_path_skips_prime_dividing_a_denominator(monkeypatch):
    # alpha = 1/p with p the first prime: p divides L and the weights' and
    # main functions' denominators, so the block path must skip it
    p = next(exactlinalg._primes())
    params = UniversalParams(Fraction(1, p), Fraction(0), Fraction(0), Fraction(0))
    used = record_block_primes(monkeypatch)
    for spec in (example_3_7_spec(), example_3_10_spec()):
        used.clear()
        report = universal_block_charpoly(spec, params)
        assert report.charpoly_block == report.charpoly_direct
        assert report.charpoly_direct == charpoly(universal_matrix(hm_join(spec), params))
        assert report.phi_polynomial == reduced_block_oracle(spec, report, params.alpha)
        assert used and p not in used
        assert used == list(itertools.islice(exactlinalg._primes(), 1, len(used) + 1))


def test_block_path_skips_prime_where_a_main_denominator_vanishes(monkeypatch):
    # beta = -q - 1 puts the main eigenvalue of the K2 factor (label class
    # 1) at -q, so g(0) = q: non-zero over Q, zero modulo q
    q = 101
    spec = example_3_7_spec()
    params = UniversalParams(Fraction(1), Fraction(-q - 1), Fraction(0), Fraction(0))
    monkeypatch.setattr(exactlinalg, "_PRIMES", (q,) + tuple(itertools.islice(exactlinalg._primes(), 8)))
    used = record_block_primes(monkeypatch)
    report = universal_block_charpoly(spec, params)
    assert poly_eval(report.gammas[0].denominator, 0) == q
    assert report.charpoly_block == report.charpoly_direct
    assert report.charpoly_direct == charpoly(universal_matrix(hm_join(spec), params))
    assert report.phi_polynomial == reduced_block_oracle(spec, report)
    assert used and q not in used


def test_corrupted_block_residue_raises(monkeypatch):
    # one wrong determinant value at one prime must change the lifted
    # polynomial, on every entry point of the block path; the last point is
    # no eigenvalue of any factor here, so no factor charpoly vanishes there
    # and hides the wrong value
    evaluate = exactlinalg._polymatrix_det_mod
    seen = []
    target = []

    def corrupt(coeffs, index, points, ps, lead):
        dets = evaluate(coeffs, index, points, ps, lead)
        for i, p in enumerate(ps):
            if len(seen) == target[0]:
                dets[i, -1] = (dets[i, -1] + 1) % p
            seen.append(p)
        return dets

    monkeypatch.setattr(exactlinalg, "_polymatrix_det_mod", corrupt)
    generalized = GeneralizedJoinSpec(make_named("path", [2]),
                                      [make_named("cycle", [4]), make_named("path", [3])],
                                      [[0, 2], [1]], UniversalParams.preset("seidel"))
    petersen = generalized_petersen(11, 4).spec
    runs = ((lambda: block_charpoly(example_3_10_spec()), 0),
            (lambda: universal_block_charpoly(example_3_7_spec(), UniversalParams.preset("L")), 0),
            (lambda: generalized_universal_charpoly(generalized), 0),
            # 22 vertices need two primes: corrupt the second
            (lambda: block_charpoly(petersen), 1))
    for run, index in runs:
        seen.clear()
        target[:] = [index]
        with pytest.raises(BlockFactorizationError):
            run()
        assert len(seen) > index


def test_block_lift_prime_groups_give_the_same_integers(monkeypatch):
    # several primes, which fit one stack; caps of one and of two primes' stacks
    # split the same lift into groups
    spec, params = generalized_petersen(11, 4).spec, UniversalParams.preset("Aalpha:97/100")
    calls = record_calls(monkeypatch, exactlinalg, "_polymatrix_det_mod",
                         note=lambda coeffs, index, points, ps, lead: [(list(ps), len(points) * index.size)])
    whole = universal_block_charpoly(spec, params)
    groups, sizes = [g for g, _ in calls], [size for _, size in calls]
    assert len(groups) == 1 and len(groups[0]) > 4
    primes = groups[0]
    for cap, size in ((1, 1), (2 * sizes[0], 2), (2 * sizes[0] + 1, 2)):
        calls.clear()
        monkeypatch.setattr(exactlinalg, "_STACK_ENTRIES", cap)
        split = universal_block_charpoly(spec, params)
        groups = [g for g, _ in calls]
        assert groups == [primes[i:i + size] for i in range(0, len(primes), size)]
        assert (split.charpoly_block, split.phi_polynomial) == (whole.charpoly_block, whole.phi_polynomial)


def test_carry_forward_error_names_factor_class_and_degree(monkeypatch):
    monkeypatch.setattr(spectra, "_int_multiplicity", lambda a, b: 0)
    with pytest.raises(CarryForwardError) as info:
        block_charpoly(example_3_7_spec())
    message = str(info.value)
    # factor 0 is K2: its classes are x + 1 (index 0, guaranteed 1) and x - 1
    assert message == ("factor 0, eigenvalue class 0 of degree 1: observed multiplicity 0 "
                       "below the guaranteed bound 1")


def test_carry_forward_worked_example():
    rows = block_charpoly(example_3_7_spec()).carry_forward
    table = {(r.factor, str(r.eigen_class.poly)): (r.guaranteed, r.observed)
             for r in rows}
    assert table[(0, "x+1")] == (1, 4)
    assert table[(0, "x-1")] == (0, 1)
    assert table[(1, "x+1")] == (2, 4)
    assert table[(1, "x-4")] == (0, 0)


def test_carry_forward_bounds_hold_on_random_specs():
    rng = random.Random(25)
    for _ in range(30):
        spec = random_spec(rng)
        for row in block_charpoly(spec).carry_forward:
            assert row.observed >= row.guaranteed >= 0


def test_observed_multiplicities_when_factor_and_join_denominators_differ():
    # edgeless factors: the factor matrices are beta*I with denominator 3,
    # the join's cross edges carry alpha = 1/2, so the join's is 6
    params = UniversalParams(Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(0))
    spec = JoinSpec(make_named("complete", [2]),
                    [make_named("empty", [3]), make_named("empty", [4])], 2,
                    [IndexingMap([1, 1, 2], 2), IndexingMap([1, None, 2, 2], 2)])
    report = universal_block_charpoly(spec, params)
    assert report.charpoly_direct == charpoly(universal_matrix(hm_join(spec), params))
    assert [r.eigen_class.rational for r in report.carry_forward] == [Fraction(1, 3)] * 2
    for row in report.carry_forward:
        assert row.observed == multiplicity(report.charpoly_direct, row.eigen_class.poly)
    assert [r.observed for r in report.carry_forward] == [3, 3]


def test_combined_carry_forward_of_shared_class():
    # the non-main classes at -1 guarantee 1 + 2 = 3 and the join shows 4
    rows = block_charpoly(example_3_7_spec()).carry_forward
    target = Polynomial([1, 1])
    combined = sum(r.guaranteed for r in rows if r.eigen_class.poly == target)
    observed = {r.observed for r in rows if r.eigen_class.poly == target}
    assert combined == 3
    assert observed == {4}


def test_universal_block_charpoly_presets_and_random():
    rng = random.Random(26)
    presets = [UniversalParams.preset("L"), UniversalParams.preset("Q"),
               UniversalParams.preset("Aalpha:1/3")]
    for _ in range(12):
        spec = random_spec(rng)
        params = rng.choice(presets)
        report = universal_block_charpoly(spec, params)
        direct = charpoly(universal_matrix(hm_join(spec), params))
        assert report.charpoly_block == direct
        assert report.charpoly_direct == direct


def test_universal_block_charpoly_random_parameters():
    rng = random.Random(27)
    for _ in range(10):
        spec = random_spec(rng)
        params = UniversalParams(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
                                 Fraction(rng.randint(-3, 3)),
                                 Fraction(0),
                                 Fraction(rng.randint(-3, 3)))
        report = universal_block_charpoly(spec, params)
        assert report.charpoly_block == charpoly(universal_matrix(hm_join(spec), params))


def test_universal_blocks_worked_example():
    # Example 3.7 under L = D - A: factor 0 (K_2, both label 1) meets the
    # three label-1 vertices of factor 1, whose label-1 vertices meet two
    spec = example_3_7_spec()
    params = UniversalParams.preset("L")
    blocks, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), params)
    shifts = []
    for g, side, (m, e) in zip(spec.factors, spec.indexing_matrices(), blocks):
        base = universal_matrix(g, params)
        assert all(m[a][b] == base[a][b] for a in range(g.n) for b in range(g.n) if a != b)
        shifts.append([m[a][a] - base[a][a] for a in range(g.n)])
        assert e == side
    assert shifts == [[3, 3], [2, 2, 2, 0, 0]]
    assert weights(0, 1) == weights(1, 0) == (-1, -1)


def test_universal_blocks_match_assembled_matrix():
    # block (i, i) of the join's universal matrix is M_i and block (i, j)
    # is S_i diag(w) S_j^T, or zero when w = weights(i, j) is None, with
    # S_i = E_i, or [1 | E_i] when gamma != 0, for
    # labeled sides E_i (partial maps, m = 0..3) and subset sides 1_S
    # (empty subsets included), gamma = 0 or not, delta != 0
    rng = random.Random(34)
    seen = set()
    for trial in range(48):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        factors = [random_graph(rng, rng.randint(1, 5)) for _ in range(k)]
        params = UniversalParams(rng.choice([-2, -1, Fraction(1, 2), 1, 2]), rng.randint(-2, 2),
                                 0 if trial % 4 < 2 else rng.choice([-1, Fraction(1, 2), 2]),
                                 rng.choice([-1, Fraction(1, 3), 2]))
        if trial % 2:
            subsets = [rng.sample(range(g.n), rng.randint(0, g.n)) for g in factors]
            spec = GeneralizedJoinSpec(host, factors, subsets, params)
            joined, sides = spec.join_graph(), spec.subset_indicators()
            seen.add(("subsets", min(map(len, subsets)) == 0))
        else:
            m = rng.randint(0, 3)
            spec = JoinSpec(host, factors, m, [random_indexing(rng, g.n, m) for g in factors])
            joined, sides = hm_join(spec), spec.indexing_matrices()
            seen.add(("labels", m))
        seen.add(("gamma", params.gamma == 0))
        full = universal_matrix(joined, params)
        blocks, weights = _universal_blocks(host, factors, sides, params)
        offsets = [sum(g.n for g in factors[:i]) for i in range(k)]
        for i, (mi, si) in enumerate(blocks):
            assert si == (sides[i] if params.gamma == 0 else [[1] + row for row in sides[i]])
            for j, (mj, sj) in enumerate(blocks):
                got = [row[offsets[j]:offsets[j] + len(mj)] for row in full[offsets[i]:offsets[i] + len(mi)]]
                if i == j:
                    assert got == mi
                    continue
                w = weights(i, j)
                assert got == [[0 if w is None else sum(c * x * y for c, x, y in zip(w, a, b))
                                for b in sj] for a in si]
    assert seen >= {("labels", m) for m in range(4)} | {("subsets", True), ("gamma", True), ("gamma", False)}


def test_universal_block_charpoly_rejects_gamma():
    spec = example_3_7_spec()
    with pytest.raises(InvalidParametersError):
        universal_block_charpoly(spec, UniversalParams.preset("seidel"))


def test_numeric_spectrum_matches_charpoly_degree():
    report = block_charpoly(example_3_7_spec())
    assert sum(m for _, m in report.numeric_spectrum) == 7
    values = sorted(v for v, _ in report.numeric_spectrum)
    assert abs(values[0] + 2.0) < 1e-9
    assert abs(values[-1] - 5.0) < 1e-9


def test_numeric_spectrum_repeats_the_plain_construction_bit_for_bit():
    # rational entries, eigenvalues repeated by copies of one block and by
    # complete graphs, and the empty matrix: the same floats, compared by repr
    rng = random.Random(3410)
    matrices = [[], universal_matrix(hm_join(example_3_7_spec()), UniversalParams.preset("Aalpha:97/100")),
                universal_matrix(hm_join(generalized_petersen(11, 4).spec), UniversalParams.preset("L"))]
    for _ in range(30):
        b, copies = rng.randint(1, 4), rng.randint(1, 3)
        block = [[Fraction(0)] * b for _ in range(b)]
        for i in range(b):
            for j in range(i, b):
                block[i][j] = block[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        matrices.append([[block[i % b][j % b] if i // b == j // b else Fraction(0) for j in range(b * copies)]
                         for i in range(b * copies)])
        n = rng.randint(2, 6)
        matrices.append(universal_matrix(make_named("complete", [n]), UniversalParams.preset(rng.choice(["A", "Aalpha:97/100"]))))
    sizes = set()
    for m in matrices:
        spectrum = spectra._numeric_spectrum(m)
        assert repr(spectrum) == repr(numeric_spectrum(m))
        sizes.update(size > 1 for _, size in spectrum)
    assert sizes == {False, True}


def test_a_report_computes_each_distinct_block_once(monkeypatch):
    counts = {}

    def counted(name):
        original = getattr(spectra, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(spectra, name, wrapper)

    for name in ("_walk_lift", "_eigen_classes", "main_function"):
        counted(name)
    c5 = make_named("cycle", [5])
    # C5 x C5 joins five equal blocks; web(3, 6) the wheel, three equal
    # cycles and the pendant layer
    for spec, distinct in ((cartesian_product(c5, c5).spec, 1), (generalized_web(3, 6).spec, 3)):
        counts.clear()
        report = block_charpoly(spec)
        assert counts == {"_walk_lift": distinct, "_eigen_classes": distinct, "main_function": distinct}
        assert report.charpoly_block == bareiss_charpoly(blockwise_adjacency(spec))
        assert len(report.gammas) == len(report.e_main_flags) == spec.k
    # a generalized join whose first and last slots are equal
    host, params = make_named("path", [3]), UniversalParams.preset("A")
    spec = GeneralizedJoinSpec(host, (c5, make_named("path", [4]), c5), ((0, 2), (1,), (0, 2)), params)
    counts.clear()
    assert generalized_universal_charpoly(spec) == bareiss_charpoly(universal_matrix(spec.join_graph(), params))
    assert counts["main_function"] == 2


def test_main_function_off_diagonal_entry():
    a = make_named("path", [3]).adjacency_matrix()
    mf = main_function(a, [[1, 0], [0, 0], [0, 1]])
    # entry (0, 1) of the side [e_0 | e_2] is (xI - A)^{-1}[0][2], which
    # for P_3 equals 1 / (x^3 - 2x)
    assert mf.entry(0, 1) == mf.entry(1, 0) == ratfun([1], [0, -2, 0, 1])


def test_zero_side_columns_leave_every_other_entry_unchanged():
    rng = random.Random(54)

    def rand(rows, cols):
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]

    def widen(side, zeros):
        # the columns of side in order, with a zero column before each index in zeros
        out = [[] for _ in side]
        for c in range(len(side[0]) + 1):
            for row, new in zip(out, side):
                row.extend([0] * zeros.count(c) + new[c:c + 1])
        return out, [c + sum(z <= c for z in zeros) for c in range(len(side[0]))]

    for _ in range(6):
        n = rng.randint(2, 5)
        m = symmetric(rand(n, n))
        for side in (rand(n, 2), rand(n, 3)):
            mf = main_function(m, side)
            for zeros in ([0], [2, 2], [1, 3]):
                wide_side, cols = widen(side, zeros)
                wide = main_function(m, wide_side)
                assert (wide.s, wide.phi, wide.g, wide.scale) == (mf.s, mf.phi, mf.g, mf.scale)
                kept = {(a, b): mf.f[i][j] for i, a in enumerate(cols) for j, b in enumerate(cols)}
                zero = (0,) * (len(mf.g) - 1)
                width = len(wide_side[0])
                assert [[kept.get((a, b), zero) for b in range(width)] for a in range(width)] == [list(row) for row in wide.f]


def test_declared_but_unused_labels_match_the_bareiss_charpoly():
    # 200 declared labels, one used: the side columns of 199 are zero
    m = 200
    spec = JoinSpec(make_named("complete", [2]), [make_named("path", [3]), make_named("path", [3])], m,
                    [IndexingMap([1, None, None], m), IndexingMap([None, 1, None], m)])
    report = block_charpoly(spec)
    assert report.charpoly_block == bareiss_charpoly(hm_join(spec).adjacency_matrix())
    assert report.gammas[0].f[0][0] and not any(any(p) for row in report.gammas[0].f for p in row[1:])


def overflow_handlers(tree):
    """The `except` clauses under an AST node that name OverflowError."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "OverflowError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}]


def test_spectra_and_cospectral_reach_no_modular_helper():
    # every multi-modular lift lives in `exactlinalg`: the block pipeline
    # keeps the Z[y] bookkeeping and names none of the int64 helpers, nor
    # the cap on the block lift's stacks, nor its choice of Schur rows
    helpers = {"_dot_mod", "_residues", "_crt_lift", "_lift_primes", "_inverses", "_interpolate_mod",
               "_polymatrix_det_mod", "_det_mod", "_charpoly_mod", "_STACK_ENTRIES", "_schur_rows"}
    for module, anchor in ((spectra, "_scaled_bound"), (cospectral, "charpoly")):
        names = []
        for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
        assert anchor in names
        assert sorted(helpers.intersection(names)) == []
    # `names` are those of `cospectral`: `reduced_block_charpoly` takes the
    # main functions and the direct check's bound itself
    assert not {"_scaled_bound", "_block_main_functions"}.intersection(names)
    # `spectra` hands the block over as plain integer rows: it picks no
    # int64 form, catches no overflow and passes no count of Schur rows
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(spectra.__file__).parent.glob("*.py"))}
    used = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
            for node in ast.walk(trees["spectra"]) if isinstance(node, (ast.Name, ast.Attribute, ast.arg))}
    assert "_block_lift" in used
    assert not {"int64", "OverflowError", "lead"}.intersection(used)
    # and the one place that catches an integer too large for int64 is
    # `exactlinalg._residues`, which every modular reduction goes through
    handlers = {stem: overflow_handlers(tree) for stem, tree in trees.items()}
    assert {stem: len(found) for stem, found in handlers.items() if found} == {"exactlinalg": 1}
    residues = next(node for node in ast.walk(trees["exactlinalg"])
                    if isinstance(node, ast.FunctionDef) and node.name == "_residues")
    assert overflow_handlers(residues) == handlers["exactlinalg"]

