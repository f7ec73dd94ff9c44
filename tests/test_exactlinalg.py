"""Exact determinants, characteristic polynomials, adjugates, and
polynomial-matrix determinants modulo primes, checked against naive
cofactor oracles and the Bareiss oracles of `oracles`."""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

import hmjoin.exactlinalg as exactlinalg
from conftest import centring_corpus, dense_stack, diagonal_mode, polymatrix_det_mod, row_residues, stack_entries, walk_numerators
from oracles import (
    bareiss_charpoly,
    det_bareiss,
    mat_mul,
    multiplicity,
    poly_add,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_pow,
    poly_sub,
    polymatrix_det,
    polymatrix_det_values,
)

from hmjoin.errors import InexactDivisionError, InvalidParametersError, SizeMismatchError, TooLargeError
from hmjoin.exactlinalg import (
    _EIGEN_SCAN_LIMIT,
    _charpoly_lift,
    _integer_roots,
    _charpoly_mod,
    _crt_lift,
    _det_mod,
    _dot_mod,
    _interpolate_mod,
    _inverses,
    _is_prime,
    _lift_primes,
    _polymatrix_det_mod,
    _primes,
    _scaled_bound,
    _scaled_rows,
    charpoly,
    rational_roots,
)
from hmjoin.families import generalized_helm, generalized_web, tadpole
from hmjoin.graphs import UniversalParams, universal_matrix
from hmjoin.joins import hm_join
from hmjoin.polynomials import Polynomial, _scaled, _unscaled


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def cofactor_det(m, add=operator.add, sub=operator.sub, mul=operator.mul):
    """Naive Laplace expansion over any commutative ring with the given
    operations; scalars by default."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = mul(m[0][j], cofactor_det(minor, add, sub, mul))
        total = term if total is None else (sub if j % 2 else add)(total, term)
    return total


def poly_cofactor_det(m):
    return cofactor_det(m, poly_add, poly_sub, poly_mul)


def char_matrix(m):
    """xI - M as a matrix of Polynomials."""
    n = len(m)
    return [[Polynomial([-m[i][j], 1] if i == j else [-m[i][j]]) for j in range(n)] for i in range(n)]


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


def test_charpoly_rejects_ragged_and_non_square_matrices():
    with pytest.raises(SizeMismatchError, match="ragged matrix"):
        charpoly([[1, 2], [3]])
    with pytest.raises(SizeMismatchError, match="square matrix required, got 1x2"):
        charpoly([[1, 2]])


def naive_charpoly(m):
    return poly_cofactor_det(char_matrix(m)) if m else Polynomial([1])


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(2)
    for n in range(0, 5):
        for _ in range(6):
            m = random_fraction_matrix(rng, n)
            assert charpoly(m) == naive_charpoly(m)


def assert_engine_matches(m):
    expected = bareiss_charpoly(m)
    assert charpoly(m) == expected
    if len(m) <= 4:
        assert expected == naive_charpoly(m)


def test_charpoly_engine_small_and_degenerate_sizes():
    assert charpoly([]) == Polynomial([1])
    for a in (0, 7, -3, Fraction(-5, 3), 10 ** 12 + 39):
        assert charpoly([[a]]) == Polynomial([-a, 1])
    for n in range(1, 7):
        assert charpoly([[0] * n for _ in range(n)]) == Polynomial([0] * n + [1])


def test_charpoly_engine_rational_nonsymmetric_and_large_entries():
    rng = random.Random(41)
    for n in range(1, 9):
        for _ in range(4):
            # rows with different denominators; random matrices are almost
            # never symmetric
            dens = [rng.randint(1, 9) for _ in range(n)]
            assert_engine_matches([[Fraction(rng.randint(-20, 20), d) for _ in range(n)] for d in dens])
            assert_engine_matches([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert_engine_matches([[rng.randint(-10 ** 12, 10 ** 12) for _ in range(n)] for _ in range(n)])
            # diagonal entries near 10^12: the determinant is within a factor
            # (1 - 10^-10)^n of the Hadamard bound, so one prime too few
            # cannot lift it
            diag = [rng.choice([1, -1]) * (10 ** 12 - rng.randint(0, 99)) for _ in range(n)]
            assert_engine_matches([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
            assert_engine_matches([[diag[i] if i == j else rng.randint(-10 ** 12, 10 ** 12) * (i < j)
                                    for j in range(n)] for i in range(n)])


def test_charpoly_engine_has_no_bad_primes():
    # matrices that vanish modulo the first prime the engine uses
    p = next(_primes())
    for n in (1, 2, 3, 5):
        scaled_identity = [[p if i == j else 0 for j in range(n)] for i in range(n)]
        assert charpoly(scaled_identity) == poly_from_roots([p] * n)
        scaled_ones = [[p] * n for _ in range(n)]
        assert charpoly(scaled_ones) == poly_from_roots([n * p] + [0] * (n - 1))
        assert_engine_matches([[Fraction(p * (i - j), 3) for j in range(n)] for i in range(n)])


def test_charpoly_engine_hessenberg_swaps_and_zero_subcolumns():
    # H[1, 0] = 0 but H[2, 0] != 0: the reduction must swap rows and
    # columns 1 and 2 before it can eliminate
    assert_engine_matches([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
    assert_engine_matches([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    # a zero subcolumn (skipped) and a zero subdiagonal (block recurrence)
    assert_engine_matches([[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 1, 2]])
    assert_engine_matches([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 3, 1, 1],
                           [0, 0, 1, 3, 1], [0, 0, 1, 1, 3]])
    rng = random.Random(43)
    for n in range(3, 10):
        # sparse non-symmetric matrices hit zero pivots modulo every prime
        for _ in range(5):
            assert_engine_matches([[rng.choice([0, 0, 0, 0, 1, -2]) for _ in range(n)] for _ in range(n)])
    # modulo one prime: column 0 needs a swap, column 2 is already zero
    # below the diagonal; the reduced matrix is upper Hessenberg with
    # subdiagonal entries 1, 1, 0
    p = 101
    m = [[1, 2, 3, 4], [0, 5, 6, 7], [6, 0, 8, 9], [0, 0, 0, 2]]
    h = np.array(m, dtype=np.int64)
    assert _charpoly_mod(h[None], [p]).tolist() == [[int(c) % p for c in bareiss_charpoly(m).coeffs]]
    assert not np.tril(h, -2).any()
    assert np.diagonal(h, -1).tolist() == [1, 1, 0]


def assert_stack_matches(m, ps):
    """Reduce the integer matrix M modulo each prime of ps into one stack
    and check every member of `_charpoly_mod` against the Bareiss oracle
    modulo its own prime; returns the reduced stack."""
    n = len(m)
    h = np.array([[[x % p for x in row] for row in m] for p in ps], dtype=np.int64).reshape(len(ps), n, n)
    coeffs = bareiss_charpoly(m).coeffs
    assert _charpoly_mod(h, ps).tolist() == [[int(c) % p for c in coeffs] for p in ps]
    return h


def test_stacked_charpoly_members_disagreeing_on_a_pivot_row():
    # H[1, 0] = p vanishes modulo the first prime only: that member swaps
    # rows and columns 1 and 2 at column 0, the others do not
    p = next(_primes())
    ps = [p, 101, 103]
    m = [[1, 2, 3, 4], [p, 5, 6, 7], [3, 0, 8, 9], [1, 2, 0, 2]]
    h = assert_stack_matches(m, ps)
    assert not np.tril(h, -2).any()
    assert h[0, 1, 0] == 1 and h[0, 2, 1:].tolist() != h[1, 2, 1:].tolist()
    # the same with p at the last pivot, and a stack where two members agree
    assert_stack_matches([[1, 2, 3, 4], [1, 5, 6, 7], [0, 1, 8, 9], [0, 0, p, 2]], ps)
    assert_stack_matches(m, [101, p, 103, p])


def test_stacked_charpoly_members_disagreeing_on_a_block_start():
    # already Hessenberg: modulo p the subdiagonal entry H[1, 0] = p is 0,
    # so that member's first diagonal block ends at row 0, while H[2, 1] = 0
    # ends a block in every member
    p = next(_primes())
    ps = [101, p, 103]
    for m in ([[1, 2, 3], [p, 4, 5], [0, 1, 6]],
              [[1, 2, 3, 4], [p, 4, 5, 6], [0, 0, 6, 7], [0, 0, 2 * p, 8]],
              [[5, 2, 3, 4, 1], [1, 4, 5, 6, 2], [0, 0, 6, 7, 3], [0, 0, 101, 8, 4], [0, 0, 0, 103, 9]]):
        h = assert_stack_matches(m, ps)
        assert not np.tril(h, -2).any()
        assert len({tuple(row) for row in np.diagonal(h, -1, 1, 2).tolist()}) > 1
    rng = random.Random(49)
    for n in range(2, 8):
        # entries that vanish modulo some primes of the stack only
        for _ in range(6):
            assert_stack_matches([[rng.choice([0, 0, 0, 1, -2, 101, 103, p, 101 * 103]) for _ in range(n)]
                                  for _ in range(n)], ps)


def test_stacked_charpoly_single_member_and_empty_stacks():
    p = next(_primes())
    rng = random.Random(50)
    for n in range(1, 8):
        assert_stack_matches([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], [p])
        assert_stack_matches([[rng.choice([0, 0, 1, p]) for _ in range(n)] for _ in range(n)], [p])
    assert _charpoly_mod(np.zeros((3, 0, 0), dtype=np.int64), [p, 101, 103]).tolist() == [[1]] * 3
    assert assert_stack_matches([], [p]).shape == (1, 0, 0)


def live_span_corpus(rng, p):
    """Integer matrices whose subcolumns are non-zero on a few rows only:
    banded, arrow, interleaved block-diagonal (zero rows between the first
    and last live row), cycles with tails, the integer rows of rational
    matrices, and entries divisible by p, 101 or 103 at pivots."""

    def entry():
        return rng.choice([-3, -1, 1, 2, 5, 9])

    for n in range(2, 12):
        w = rng.randint(1, 3)
        yield [[entry() if abs(i - j) <= w else 0 for j in range(n)] for i in range(n)]
        yield [[entry() if 0 in (i, j) or i == j else 0 for j in range(n)] for i in range(n)]
        # a block-diagonal matrix with its rows and columns interleaved
        cut = rng.randint(1, n - 1)
        order = list(range(n))
        rng.shuffle(order)
        block = [[entry() if (i < cut) == (j < cut) else 0 for j in range(n)] for i in range(n)]
        yield [[block[a][b] for b in order] for a in order]
        # a cycle on the first c vertices with a path tail, as in a tadpole
        c = rng.randint(2, n)
        edges = [(i, (i + 1) % c) for i in range(c)] + [(i, i + 1) for i in range(c - 1, n - 1)]
        yield [[entry() if (i, j) in edges or (j, i) in edges else 0 for j in range(n)] for i in range(n)]
        dens = [rng.randint(1, 6) for _ in range(n)]
        rational = [[Fraction(rng.randint(-7, 7) * (abs(i - j) <= 1), d) for j in range(n)] for i, d in enumerate(dens)]
        yield _scaled_rows(rational)[1]
        # subdiagonal entries that vanish modulo one prime of the stack
        yield [[rng.choice([p, 101, 103, 101 * p]) if i == j + 1 else entry() * (i <= j) + (i == j + 2) * 7
                for j in range(n)] for i in range(n)]


def test_charpoly_engine_live_spans_match_bareiss_on_every_member():
    p = next(_primes())
    rng = random.Random(51)
    for ps in ([p, 101, 103], [101], [p, 101, 103, 107, 109]):
        for m in live_span_corpus(rng, p):
            h = assert_stack_matches(m, ps)
            assert not np.tril(h, -2).any()
            assert set(np.diagonal(h, -1, 1, 2).flat) <= {0, 1}


def row_hadamard_bound(rows):
    """max_k e_k(r_1, ..., r_n) for the ceilings r_i of the rows' 2-norms,
    each e_k summed over its row sets: a principal k-minor is at most the
    product of its rows' norms (Hadamard), so e_k bounds c_k."""
    ceilings = []
    for row in rows:
        s = sum(x * x for x in row)
        r = math.isqrt(s)
        ceilings.append(r + (r * r < s))
    return max(sum(math.prod(c) for c in itertools.combinations(ceilings, k)) for k in range(len(rows) + 1))


def largest_row_bound(rows):
    """max_k C(n, k) B^k with B = isqrt(largest row sum of squares) + 1:
    the looser bound that takes every row as large as the largest."""
    n = len(rows)
    b = math.isqrt(max((sum(x * x for x in row) for row in rows), default=0)) + 1
    return max(math.comb(n, k) * b ** k for k in range(n + 1))


def test_charpoly_primes_cover_twice_the_hadamard_bound():
    rng = random.Random(44)
    for n in range(1, 12):
        span = 10 ** rng.randint(0, 12)
        rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        bound = row_hadamard_bound(rows)
        assert _scaled_bound(rows)[:3] == (1, rows, bound)
        primes = _lift_primes(bound)
        assert math.prod(primes) > 2 * bound + 1
        assert math.prod(primes[:-1]) <= 2 * bound + 1
        assert list(primes) == sorted(set(primes), reverse=True)
        assert all(q < 2 ** 26 and all(q % f for f in range(2, math.isqrt(q) + 1)) for q in primes[:3])
        assert charpoly(rows) == bareiss_charpoly(rows)


def test_row_bound_covers_the_bareiss_charpoly_within_the_largest_row_bound():
    # rows of mixed magnitudes, zero rows and rational matrices: the bound
    # covers every coefficient of det(xI - L*M) and never exceeds the bound
    # that takes every row as large as the largest
    rng = random.Random(52)
    tighter = 0
    for case in range(60):
        n = rng.randint(1, 9)
        scales = [10 ** rng.randint(0, 15) for _ in range(n)]
        m = [[rng.randint(-9, 9) * scale for _ in range(n)] for scale in scales]
        for i in rng.sample(range(n), rng.randint(0, n)) if case % 3 == 1 else ():
            m[i] = [0] * n
        if case % 3 == 2:
            m = [[Fraction(x, rng.choice([1, 2, 3, 7, 10 ** 6])) for x in row] for row in m]
        l, rows, bound, _ = _scaled_bound(m)
        assert rows == [[int(x * l) for x in row] for row in m]
        assert bound == row_hadamard_bound(rows) <= largest_row_bound(rows)
        tighter += bound < largest_row_bound(rows)
        poly = bareiss_charpoly(m)
        assert all(abs(poly.coefficient(n - k) * l ** k) <= bound for k in range(n + 1))
        assert charpoly(m) == poly
    assert tighter >= 50
    assert _scaled_bound([]) == (1, [], 1, (0, 1))
    assert _scaled_bound([[0, 0], [0, 0]]) == (1, [[0, 0], [0, 0]], 1, (0, 1))


def test_row_bound_prime_counts_on_large_joins():
    # the lift primes of the direct charpoly, with the largest-row bound's
    # count before them
    cases = [(generalized_helm(30, 8), "A", 30, 16), (generalized_helm(30, 8), "L", 53, 22),
             (generalized_web(3, 6), "A", 3, 2)]
    for family, preset, before, after in cases:
        _, rows, bound, _ = _scaled_bound(universal_matrix(hm_join(family.spec), UniversalParams.preset(preset)))
        assert (len(_lift_primes(largest_row_bound(rows))), len(_lift_primes(bound))) == (before, after)


def test_centred_bound_prime_counts_on_large_joins():
    # the direct lift's primes under K and under K' = the bound of R - aI:
    # L and A_alpha of the helm centre, A has a zero diagonal, and the
    # tadpole's L would save fewer than two primes
    cases = [(generalized_helm(30, 8), "L", 2, 22, 18), (generalized_helm(30, 8), "Aalpha:97/100", 194, 80, 38),
             (generalized_helm(30, 8), "A", 0, 16, 16), (tadpole(36, 8), "Aalpha:97/100", 194, 13, 5),
             (tadpole(36, 8), "L", 0, 4, 4)]
    for family, preset, a, before, after in cases:
        _, _, bound, (centre, centred) = _scaled_bound(universal_matrix(hm_join(family.spec), UniversalParams.preset(preset)))
        assert (centre, len(_lift_primes(bound)), len(_lift_primes(centred))) == (a, before, after)


def centred_rows(rows, a):
    return [[x - a * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]


def product_bound(rows):
    """max_k e_k of the ceilings r_i of the rows' 2-norms, as the largest
    coefficient of prod_i (1 + r_i y): `row_hadamard_bound` for many rows."""
    e = Polynomial([1])
    for row in rows:
        s = sum(x * x for x in row)
        e = poly_mul(e, Polynomial([1, math.isqrt(s) + (math.isqrt(s) ** 2 < s)]))
    return int(max(e.coeffs))


def test_centred_and_uncentred_charpoly_lifts_match_bareiss():
    # every lift, centred when the rule adopts it, uncentred, and centred on
    # every diagonal mode whatever it saves, gives the Bareiss integers; the
    # centred integers lie within K'
    adopted = declined = 0
    for m in centring_corpus(random.Random(3601)):
        l, rows, bound, centring = _scaled_bound(m)
        a = diagonal_mode(rows)
        forced = (a, product_bound(centred_rows(rows, a)))
        assert len(rows) > 9 or forced[1] == row_hadamard_bound(centred_rows(rows, a))
        fewer = a != 0 and len(_lift_primes(forced[1])) <= len(_lift_primes(bound)) - 2
        assert centring == (forced if fewer else (0, bound))
        adopted += fewer
        declined += a != 0 and not fewer
        assert all(abs(c) <= forced[1] for c in bareiss_charpoly(centred_rows(rows, a)).coeffs)
        expected = [int(c) for c in bareiss_charpoly(rows).coeffs]
        for k in {(0, bound), centring, forced}:
            assert _charpoly_lift(rows, k) == expected
        assert charpoly(m) == bareiss_charpoly(m)
    assert adopted >= 6 and declined >= 20


def test_centred_lift_faults_are_caught(monkeypatch):
    # R - aI = t [[0, 1], [1, 0]] meets Hadamard's inequality with equality:
    # its constant term is -K' itself
    t, a = 2 ** 100, 2 ** 200
    rows = [[a, t], [t, a]]
    assert _scaled_bound(rows)[3] == (a, t * t)
    expected = [a * a - t * t, -2 * a, 1]
    assert _charpoly_lift(rows, (a, t * t)) == expected
    corpus = [_scaled_bound(m) for m in centring_corpus(random.Random(3601))]
    # a Taylor shift with its sign flipped lifts c(y + 2a) on every centred matrix
    shift = exactlinalg._int_shift
    monkeypatch.setattr(exactlinalg, "_int_shift", lambda p, r: shift(p, -r))
    assert _charpoly_lift(rows, (a, t * t)) != expected
    for _, r, _, centring in corpus:
        if centring[0]:
            assert _charpoly_lift(r, centring) != [int(c) for c in bareiss_charpoly(r).coeffs]
    monkeypatch.undo()
    # one prime too few under K'
    primes = exactlinalg._lift_primes
    monkeypatch.setattr(exactlinalg, "_lift_primes", lambda bound, bad=lambda p: False: primes(bound, bad)[:-1])
    assert _charpoly_lift(rows, (a, t * t)) != expected


def test_inverses_match_pow_element_by_element():
    rng = random.Random(53)
    for p in (next(_primes()), 101, 2):
        assert _inverses([], p) == []
        for x in range(min(p, 5)):
            assert _inverses([x], p) == [pow(x, -1, p) if x else 0]
        for length in (2, 3, 17, 200):
            values = [rng.choice([0, rng.randrange(p)]) for _ in range(length)]
            assert _inverses(values, p) == [pow(x, -1, p) if x else 0 for x in values]
        assert _inverses([0] * 4, p) == [0] * 4
        assert _inverses(range(min(p, 50)), p) == [0] + [pow(x, -1, p) for x in range(1, min(p, 50))]


def test_charpoly_engine_int64_dot_products_are_chunked(monkeypatch):
    # 5000 products of (p-1)^2 ~ 2^52 overflow int64 unless reduced in chunks
    p = next(_primes())
    a = np.full((2, 5000), p - 1, dtype=np.int64)
    b = np.full(5000, p - 1, dtype=np.int64)
    assert _dot_mod(a, b[:, None], p).tolist() == [[5000 * (p - 1) ** 2 % p]] * 2
    assert _dot_mod(b, a.T, p).tolist() == [5000 * (p - 1) ** 2 % p] * 2
    # with tiny chunks the engine takes the multi-chunk route everywhere
    monkeypatch.setattr(exactlinalg, "_DOT_TERMS", 2)
    rng = random.Random(45)
    for n in range(1, 9):
        assert_engine_matches([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)])
    # a stack with one modulus per member, entries near each member's prime
    ps = [p, 101, 7]
    q = np.array(ps, dtype=np.int64)[:, None, None]
    left = [[[rng.randrange(max(0, r - 3), r) for _ in range(5)] for _ in range(3)] for r in ps]
    right = [[[rng.randrange(max(0, r - 3), r) for _ in range(4)] for _ in range(5)] for r in ps]
    expected = [[[sum(x * y for x, y in zip(row, col)) % r for col in zip(*b)] for row in a]
                for a, b, r in zip(left, right, ps)]
    assert _dot_mod(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64), q).tolist() == expected
    for n in range(2, 7):
        assert_stack_matches([[rng.choice([0, 1, -5, 101, p]) for _ in range(n)] for _ in range(n)], ps)


def test_adjugate_identity():
    # with identity sides the main-function numerators are adj(xI - M):
    # (tI - M) * adj(tI - M) = charpoly(t) * I at several rational points
    rng = random.Random(4)
    for n in range(1, 6):
        m = random_fraction_matrix(rng, n)
        s, phi, den, scaled = walk_numerators(m, identity_matrix(n))
        p = _unscaled(phi, s)
        assert p == charpoly(m)
        adj = [[_unscaled(c, s, den) for c in row] for row in scaled]
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            adj_t = [[poly_eval(entry, t) for entry in row] for row in adj]
            ti_m = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            product = mat_mul(ti_m, adj_t)
            for i in range(n):
                for j in range(n):
                    assert product[i][j] == (poly_eval(p, t) if i == j else 0)


def test_polymatrix_det_matches_charpoly():
    rng = random.Random(5)
    for n in range(1, 6):
        m = random_fraction_matrix(rng, n)
        assert polymatrix_det(char_matrix(m)) == charpoly(m)


def test_polymatrix_det_matches_cofactor_oracle():
    rng = random.Random(6)
    for n in range(1, 5):
        for _ in range(4):
            entries = [[Polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(rng.randint(1, 3))])
                        for _ in range(n)] for _ in range(n)]
            assert polymatrix_det(entries) == poly_cofactor_det(entries)


def test_polymatrix_det_zero_row_short_circuit():
    z = Polynomial()
    one = Polynomial([1])
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
            at_t = [[poly_eval(p, t) for p in row] for row in entries]
            assert value == cofactor_det(at_t)
    with pytest.raises(InvalidParametersError):
        polymatrix_det_values([[Fraction(1)]], [0])
    with pytest.raises(SizeMismatchError):
        polymatrix_det_values([[Polynomial([1])], []], [0])


def det_mod_oracle(stack, p):
    return [int(det_bareiss([[int(x) for x in row] for row in m])) % p for m in stack]


def det_mod(stack, p):
    """The determinants mod p that `_det_mod` gives as fractions."""
    dets, scalings = _det_mod(stack, p)
    return np.array([d * pow(s, -1, p) % p for d, s in zip(dets.tolist(), scalings.tolist())], dtype=np.int64)


def assert_det_mod_matches(stack, p):
    stack = np.array(stack, dtype=np.int64)
    expected = det_mod_oracle(stack, p)
    assert det_mod(stack.copy(), p).tolist() == expected
    return expected


def test_det_mod_matches_bareiss_oracle():
    p = next(_primes())
    rng = random.Random(46)
    # 0 x 0 and 1 x 1
    assert det_mod(np.zeros((3, 0, 0), dtype=np.int64), p).tolist() == [1, 1, 1]
    assert assert_det_mod_matches([[[0]], [[1]], [[p - 1]], [[12345]]], p) == [0, 1, p - 1, 12345]
    for n in range(2, 8):
        stack = [[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(5)]
        # entries equal to p - 1, i.e. -1: a diagonal of them and a
        # triangle of them below it
        stack.append([[p - 1 if i == j else 0 for j in range(n)] for i in range(n)])
        stack.append([[p - 1 if i >= j else rng.randrange(p) for j in range(n)] for i in range(n)])
        # singular members: a repeated row, a zero column, all entries p - 1
        twin = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        stack.append(twin + [twin[0]])
        stack.append([[0] + [rng.randrange(p) for _ in range(n - 1)] for _ in range(n)])
        stack.append([[p - 1] * n for _ in range(n)])
        dets = assert_det_mod_matches(stack, p)
        assert dets[-3:] == [0, 0, 0]
        assert all(dets[:-3])


def test_det_mod_pivot_swaps_in_some_members_only():
    p = next(_primes())
    # member 0 needs a swap at column 0, member 1 none, member 2 a swap at
    # column 1 only, member 3 is singular once column 0 is eliminated
    stack = [
        [[0, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[1, 2, 3], [2, 4, 7], [5, 6, 1]],
        [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
    ]
    assert assert_det_mod_matches(stack, p) == [-5 % p, -3 % p, 4, 0]
    # permutation matrices of entries p - 1 at a small prime: the first
    # member swaps at column 0, the second at column 1
    q = 101
    small = [[[0, q - 1, 0], [q - 1, 0, 0], [0, 0, q - 1]], [[q - 1, 0, 0], [0, 0, q - 1], [0, q - 1, 0]]]
    assert assert_det_mod_matches(small, q) == [1, 1]


def cleared_stack(entries):
    """The integer coefficient stack of a square matrix of Polynomials, each
    row cleared by the lcm of its coefficient denominators, and the product
    of those multipliers; int64 when every coefficient fits."""
    n = len(entries)
    depth = max(max((p.degree for row in entries for p in row), default=0), 0) + 1
    num = np.zeros((depth, n, n), dtype=object)
    scale = 1
    for r, row in enumerate(entries):
        l = math.lcm(*(c.denominator for p in row for c in p.coeffs))
        scale *= l
        for col, p in enumerate(row):
            for d, c in enumerate(p.coeffs):
                num[d, r, col] = c.numerator * (l // c.denominator)
    try:
        return num.astype(np.int64), scale
    except OverflowError:
        return num, scale


def test_polymatrix_det_mod_matches_bareiss_values():
    rng = random.Random(47)
    primes = [next(_primes()), 101]
    points = [0, 1, 2, 4, 7, 9]
    for n in range(0, 5):
        # coefficients beyond int64 keep the stack in Python ints
        for span in (9, 9, 10 ** 30):
            entries = [[Polynomial([Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3, 7]))
                                    for _ in range(rng.randint(0, 4))])
                        for _ in range(n)] for _ in range(n)]
            num, scale = cleared_stack(entries)
            assert (num.dtype == object) == (span > 9 and any(p.coeffs for row in entries for p in row))
            exact = polymatrix_det_values(entries, points)
            for p in primes:
                got = polymatrix_det_mod(num, points, p, 0)
                inv = pow(scale, -1, p)
                assert [d * inv % p for d in got] == [v.numerator * pow(v.denominator, -1, p) % p
                                                      for v in exact]


def test_polymatrix_det_mod_schur_step_matches_bareiss_values():
    rng = random.Random(50)
    p = next(_primes())
    points = [0, 1, 2, 3, 5]
    for n in range(1, 7):
        for lead in range(n + 1):
            num = np.array([[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for _ in range(3)],
                           dtype=np.int64)
            # a leading block that is diagonal in every layer, its entries
            # constants that are units mod p
            num[:, :lead, :lead] = 0
            num[0, range(lead), range(lead)] = [rng.choice([1, -1, 2, -7, p + 3]) for _ in range(lead)]
            expected = [int(v) % p for v in polymatrix_det_values(stack_entries(num), points)]
            assert polymatrix_det_mod(num, points, p, lead) == expected
            assert polymatrix_det_mod(num, points, p, 0) == expected


def test_polymatrix_det_mod_schur_complement_singular_and_swapping():
    # N = [[D, B], [A, S(t) + A D^-1 B]] with D = diag(1, -1): det N(t) =
    # det D * det S(t), S(t) = [[0, 1, 0], [1, t, 0], [0, 0, t - 2]]; every
    # member of S swaps rows at column 0 and S(2) is singular
    p = next(_primes())
    d = np.diag([1, -1])
    b = np.array([[3, -1, 4], [1, 5, -9]])
    a = np.array([[2, 6], [-5, 3], [5, -8]])
    num = np.zeros((2, 5, 5), dtype=np.int64)
    num[0] = np.block([[d, b], [a, np.array([[0, 1, 0], [1, 0, 0], [0, 0, -2]]) + a @ d @ b]])
    num[1, 2:, 2:] = np.diag([0, 1, 1])
    points = [0, 1, 2, 3, 4]
    expected = [(t - 2) % p for t in points]
    assert [int(v) % p for v in polymatrix_det_values(stack_entries(num), points)] == expected
    for lead in (0, 1, 2):
        assert polymatrix_det_mod(num, points, p, lead) == expected
    # a pivot that vanishes mod p raises instead of passing silently, at
    # every point or at one only: t - 3 vanishes at t = 3 alone
    for constant, linear in ((p, 0), (-3, 1)):
        num[0, 0, 0], num[1, 0, 0] = constant, linear
        with pytest.raises(ValueError):
            polymatrix_det_mod(num, points, p, 2)


def assert_table_matches_bareiss(rows, index, points, ps, lead):
    """`_polymatrix_det_mod` of coefficient rows and an index against the
    Bareiss values of their dense stack, for every member at every prime;
    the exact values."""
    exact = [int(v) for v in polymatrix_det_values(stack_entries(dense_stack(rows, index)), points)]
    got = _polymatrix_det_mod(row_residues(rows, ps), index, points, ps, lead)
    assert got.tolist() == [[v % p for v in exact] for p in ps]
    return exact


def test_polymatrix_det_mod_tables_match_bareiss_at_every_prime():
    # seeded rows and indices whose entries repeat rows, int64 and
    # beyond, every lead from 0 to N, at small primes where members are
    # singular at some points or primes only, and at a large one
    rng = random.Random(53)
    ps = [7, 11, 13, next(_primes())]
    points = [0, 1, 2, 3, 5]
    singular = repeated = 0
    for n in range(1, 6):
        for lead in range(n + 1):
            for span in (4, 4, 10 ** 30):
                # row 0 is zero, the next rows are constants that are units modulo every prime
                rows = [[0, 0, 0]] + [[c, 0, 0] for c in (1, -1, 2, -3)]
                rows += [[rng.randint(-span, span) for _ in range(3)] for _ in range(rng.randint(1, 4))]
                index = np.array([[rng.randrange(len(rows)) for _ in range(n)] for _ in range(n)])
                index[:lead, :lead] = 0
                index[range(lead), range(lead)] = [1 + rng.randrange(4) for _ in range(lead)]
                exact = assert_table_matches_bareiss(rows, index, points, ps, lead)
                repeated += (index > 0).sum() > len(set(index[index > 0].tolist()))
                singular += any(any(v % p == 0 for v in exact) and any(v % p for v in exact) for p in ps)
    assert singular > 10 and repeated > 10
    # S = [[7, 1], [1, t]] after the pivot 1: it swaps rows modulo 7 alone,
    # and det = 7t - 1 stays a unit there
    rows = [[0, 0], [1, 0], [7, 0], [0, 1]]
    index = np.array([[1, 0, 0], [0, 2, 1], [0, 1, 3]])
    assert assert_table_matches_bareiss(rows, index, points, ps, 1) == [7 * t - 1 for t in points]


def test_polymatrix_det_mod_refuses_a_leading_entry_that_vanishes_at_one_prime():
    # the second pivot is 13: no unit modulo 13, in whichever group it falls
    rows = [[0, 0], [1, 0], [13, 0], [2, 1]]
    index = np.array([[1, 0, 3], [0, 2, 3], [3, 3, 3]])
    points = [0, 1, 2]
    assert_table_matches_bareiss(rows, index, points, [7, 11], 2)
    for ps in ([13], [7, 13], [13, 11]):
        with pytest.raises(ValueError, match="mod 13"):
            _polymatrix_det_mod(row_residues(rows, ps), index, points, ps, 2)


def test_charpoly_lift_rows_beyond_int64_take_the_object_route():
    rng = random.Random(51)
    for n in range(1, 6):
        for top in (2 ** 63 - 1, 2 ** 63, 2 ** 70):
            rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
            rows[0][0] = top
            rows[-1][-1] = -top - 1
            if top >= 2 ** 63:
                # such rows are no int64 array: the residues come from Python ints
                with pytest.raises(OverflowError):
                    np.array(rows, dtype=np.int64)
            _, _, bound, centring = _scaled_bound(rows)
            for k in ((0, bound), centring):
                assert _charpoly_lift(rows, k) == [int(c) for c in bareiss_charpoly(rows).coeffs]


def test_interpolate_mod_round_trip():
    rng = random.Random(48)
    ps = [next(_primes()), 101, 43]
    for n in range(1, 12):
        coeffs = [[rng.randrange(p) for _ in range(n)] for p in ps]
        xs = sorted(rng.sample(range(40), n))
        ys = [[sum(c * x ** k for k, c in enumerate(row)) % p for x in xs] for row, p in zip(coeffs, ps)]
        assert _interpolate_mod(xs, ys, ps).tolist() == coeffs
        assert _interpolate_mod(xs, ys[:1], ps[:1]).tolist() == coeffs[:1]


def trial_division(q, divisors=None):
    return q > 1 and all(q % f for f in divisors or range(2, math.isqrt(q) + 1))


def test_is_prime_matches_trial_division_below_2_26():
    small = [f for f in range(2, math.isqrt(1 << 26) + 1) if trial_division(f)]
    assert all(_is_prime(q) == trial_division(q) for q in range(2, 2000))
    # every q here exceeds the largest small prime, so the small primes decide it
    assert all(_is_prime(q) == trial_division(q, small) for q in range((1 << 26) - (1 << 16), 1 << 26))


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    strong = [2047, 3277, 4033, 4681, 8321, 1373653, 25326001]
    # the last two have no factor up to 7, so only the Miller-Rabin rounds,
    # which catch a square root of 1 other than -1, can reject them
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 46657, 75361]
    assert not any(trial_division(q) for q in strong + carmichael)
    assert not any(_is_prime(q) for q in strong + carmichael)


def test_primes_match_trial_division_and_stay_below_the_exact_range():
    first = list(itertools.islice(_primes(), 64))
    expected, q = [], (1 << 26) - 1
    while len(expected) < 64:
        if trial_division(q):
            expected.append(q)
        q -= 1
    assert first == expected
    # 3,215,031,751 = 151 * 751 * 28351 passes Miller-Rabin to the bases 2,
    # 3, 5 and 7; `_primes` counts down from below 2**26, far under it
    pseudoprime = 151 * 751 * 28351
    assert pseudoprime == 3215031751 and _is_prime(pseudoprime)
    assert first[0] < 1 << 26 < pseudoprime and all(a > b for a, b in zip(first, first[1:]))


def test_crt_lift_skips_bad_primes():
    values = [-(10 ** 30) + 7, 0, 10 ** 30 - 3, -1]
    bound = 10 ** 30
    skipped = []

    def bad(p):
        if len(skipped) < 2:
            skipped.append(p)
            return True
        return False

    used = _lift_primes(bound, bad)
    assert _crt_lift(used, [[v % p for v in values] for p in used]) == values
    primes = list(itertools.islice(_primes(), len(used) + 2))
    assert skipped == primes[:2] and used == primes[2:]
    assert math.prod(used) > 2 * bound + 1 >= math.prod(used[:-1])


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
        assert dict(rational_roots(charpoly(m), m)[0]) == expected


def test_rational_eigenvalues_mixed_irrational():
    # P_3 adjacency: eigenvalues 0, +-sqrt(2); only 0 is rational
    m = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    m = [[Fraction(v) for v in row] for row in m]
    assert rational_roots(charpoly(m), m)[0] == ((Fraction(0), 1),)
    # K_4 adjacency: 3 and -1 (x3)
    k4 = [[Fraction(0 if i == j else 1) for j in range(4)] for i in range(4)]
    assert rational_roots(charpoly(k4), k4)[0] == ((Fraction(-1), 3), (Fraction(3), 1))


def test_rational_roots_rejects_mismatched_divisor():
    # eigenvalues 1/2 and -1, L = 2: 4 * (-1/3) is not an integer, so no
    # charpoly of m, nor a factor of one, has that constant term
    m = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(-1)]]
    with pytest.raises(InexactDivisionError):
        rational_roots(Polynomial([Fraction(-1, 3), Fraction(1, 2), 1]), m)
    assert rational_roots(charpoly(m), m)[0] == ((Fraction(-1), 1), (Fraction(1, 2), 1))
    assert rational_roots(Polynomial([Fraction(-1, 2), 1]), m) == (((Fraction(1, 2), 1),), Polynomial([1]))


def test_rational_roots_of_divisors_against_oracles():
    # a random symmetric rational block beside planted rational eigenvalues;
    # p runs over divisors of det(xI - M) built by the Bareiss oracle
    rng = random.Random(15)
    for _ in range(16):
        n = rng.randint(1, 4)
        planted = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randint(0, 3))]
        size = n + len(planted)
        m = [[Fraction(0)] * size for _ in range(size)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        for i, r in enumerate(planted):
            m[n + i][n + i] = r
        l = math.lcm(*(x.denominator for row in m for x in row))
        bound = int(max(sum(abs(x * l) for x in row) for row in m))
        block = bareiss_charpoly([row[:n] for row in m[:n]])
        for p in (bareiss_charpoly(m), block, poly_mul(block, poly_from_roots(planted[:1]))):
            roots, cofactor = rational_roots(p, m)
            assert [r for r, _ in roots] == sorted({r for r, _ in roots})
            rebuilt = cofactor
            for r, e in roots:
                assert poly_eval(p, r) == 0 and e == multiplicity(p, Polynomial((-r, 1))) >= 1
                rebuilt = poly_mul(rebuilt, poly_pow(Polynomial((-r, 1)), e))
            assert rebuilt == p
            assert all(poly_eval(cofactor, Fraction(y, l)) != 0 for y in range(-bound, bound + 1))
        assert set(planted) <= {r for r, _ in rational_roots(bareiss_charpoly(m), m)[0]}


def test_integer_roots_scan_the_row_sums_of_the_integer_rows(monkeypatch):
    # the bound read off the integer rows of s*M is the largest row 1-norm
    # of s*M over the Fractions, as the refusal names it, and the roots are
    # every integer root within it
    rng = random.Random(3603)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(n)] for _ in range(n)]
        l, rows = _scaled_rows(m)
        bound = int(max(sum(abs(x) * l for x in row) for row in m))
        coeffs = _scaled(bareiss_charpoly(m), l)
        p = Polynomial(coeffs)
        assert _integer_roots(coeffs, rows) == [(y, multiplicity(p, Polynomial([-y, 1])))
                                                 for y in range(-bound, bound + 1) if poly_eval(p, y) == 0]
        monkeypatch.setattr(exactlinalg, "_EIGEN_SCAN_LIMIT", bound - 1)
        with pytest.raises(TooLargeError, match=rf"over \[-{bound}, {bound}\]"):
            _integer_roots(coeffs, rows)
        monkeypatch.undo()


def test_rational_eigenvalues_refuses_scan_above_cap():
    # the scan bound is the row sum of L*M: (cap + 1)/2 with L = 2 is over
    with pytest.raises(TooLargeError):
        m = [[Fraction(_EIGEN_SCAN_LIMIT + 1, 2)]]
        rational_roots(charpoly(m), m)
