"""Shared randomized-spec builders and session-scoped corpora.

The acceptance suite reuses one 200-spec corpus (and its reports) across
criteria, so the expensive block computations run once."""

import random
from fractions import Fraction
from typing import List, Optional

import numpy as np
import pytest

import hmjoin.exactlinalg as exactlinalg
from hmjoin import Graph, IndexingMap, JoinSpec, Polynomial, block_charpoly
from hmjoin.exactlinalg import _polymatrix_det_mod, _residues, _scaled_rows, _walk_lift
from hmjoin.graphs import UniversalParams, universal_matrix
from hmjoin.spectra import _resolvent


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_indexing(rng: random.Random, n: int, m: int,
                    partial: bool = True) -> IndexingMap:
    choices: List[Optional[int]] = list(range(1, m + 1))
    if partial:
        choices = [None] + choices
    return IndexingMap([rng.choice(choices) for _ in range(n)], m)


def random_spec(rng: random.Random, kmax: int = 4, nmax: int = 6,
                mmax: int = 4) -> JoinSpec:
    k = rng.randint(1, kmax)
    host = random_graph(rng, k)
    m = rng.randint(1, mmax)
    factors = [random_graph(rng, rng.randint(1, nmax)) for _ in range(k)]
    indexing = [random_indexing(rng, g.n, m) for g in factors]
    return JoinSpec(host, factors, m, indexing)


def stack_entries(num) -> List[List[Polynomial]]:
    """The square matrix of Polynomials whose coefficients of x^d are the
    layer num[d] of an integer coefficient stack."""
    size = num.shape[1]
    return [[Polynomial([Fraction(int(c)) for c in num[:, r, col]]) for col in range(size)] for r in range(size)]


def dense_stack(rows, index):
    """The coefficient stack whose layer d holds the coefficients of x^d of
    the entries rows[index[i, j]] of a reduced block's coefficient rows and
    index: its dense form."""
    return np.array(rows, dtype=object)[index].transpose(2, 0, 1)


def table_and_index(num):
    """The coefficient rows of the distinct entries of a coefficient stack,
    the zero row first and the others in row-major order of first use, and
    its index: the form that `_block_lift` takes."""
    rows, size = {(0,) * num.shape[0]: 0}, num.shape[1]
    index = np.zeros((size, size), dtype=np.intp)
    for r in range(size):
        for col in range(size):
            index[r, col] = rows.setdefault(tuple(int(c) for c in num[:, r, col]), len(rows))
    return list(rows), index


def row_residues(rows, ps):
    """Coefficient rows modulo every prime of ps, the (P, R, depth) stack
    that `_polymatrix_det_mod` takes."""
    return _residues(rows, (len(rows), len(rows[0])), ps)


def polymatrix_det_mod(num, points, p, lead):
    """`_polymatrix_det_mod` of a coefficient stack at one prime, as a list."""
    rows, index = table_and_index(num)
    return _polymatrix_det_mod(row_residues(rows, [p]), index, points, [p], lead)[0].tolist()


def record_calls(monkeypatch, module, name, calls=None, note=None):
    """Wrap module.name so that each call first extends `calls` by
    note(*args), or by [(name, args)] when `note` is None, then runs the
    original; returns `calls`, a new list when None. Recorders given one
    list log their calls in the order they happen."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def recording(*args):
        calls.extend([(name, args)] if note is None else note(*args))
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def record_block_primes(monkeypatch):
    """The primes at which the block path evaluates its reduced matrix, in
    the order of its calls."""
    return record_calls(monkeypatch, exactlinalg, "_polymatrix_det_mod",
                        note=lambda coeffs, index, points, ps, lead: ps)


def walk_numerators(m, side):
    """s, s^n phi(y / s), s_e^2 and the integer walk layers of
    E^T adj(xI - M) E for M = M'/s and E = E'/s_e, any square M: entry
    (a, b), every one walked, holds the n coefficients, lowest first, of
    E'^T adj(yI - M') E', the numerators that `main_function` reduces. The
    side needs at least one column."""
    s, phi, rows, bound, _ = _resolvent(tuple(map(tuple, m)))
    se, ints = _scaled_rows(side)
    c = len(side[0])
    lifted = _walk_lift(rows, phi, ints, bound, [(a, b) for a in range(c) for b in range(c)])
    return s, phi, se * se, [lifted[a * c:(a + 1) * c] for a in range(c)]


def centring_corpus(rng: random.Random) -> list:
    """Square matrices for the centred lifts: L, Q, A_alpha and U at the
    rational parameters (3/2, 1, 0, -1/3) of random graphs, each once more
    with some zero rows; n = 0 and 1; multiples of I; tied diagonal modes;
    and rows beyond int64."""
    presets = [UniversalParams.preset(name) for name in ("L", "Q", "Aalpha:97/100")]
    presets.append(UniversalParams(Fraction(3, 2), 1, 0, Fraction(-1, 3)))
    out = [[], [[7]], [[Fraction(-5, 3)]], [[0]]]
    # a 24-cycle with a chord and a tail: most degrees 2, so A_alpha centres
    tadpole = Graph(28, [(i, (i + 1) % 24) for i in range(24)] + [(0, 12)] + [(i, i + 1) for i in range(23, 27)])
    for g in [random_graph(rng, rng.randint(2, 7), 0.6) for _ in range(5)] + [tadpole]:
        for params in presets:
            m = universal_matrix(g, params)
            dead = rng.sample(range(g.n), rng.randint(1, g.n - 1))
            out += [m, [[0] * g.n if i in dead else row for i, row in enumerate(m)]]
    for a in (5, -3, 2 ** 70):
        out.append([[a * (i == j) for j in range(4)] for i in range(4)])
    for diagonal in ([3, 3, -2, -2, 9], [2, -2, 5], [-40, 40, 40, -40], [2 ** 80, -(2 ** 80)] * 2):
        n = len(diagonal)
        out.append([[diagonal[i] if i == j else rng.randint(-2, 2) for j in range(n)] for i in range(n)])
    for big in (2 ** 63, 2 ** 70 + 1, -(2 ** 90)):
        n = rng.randint(2, 5)
        out.append([[big if i == j else rng.randint(-2 ** 40, 2 ** 40) for j in range(n)] for i in range(n)])
    return out


def diagonal_mode(rows) -> int:
    """The most common diagonal entry, ties to the smaller |a| and then to
    the smaller a; 0 for no rows."""
    diagonal = [row[i] for i, row in enumerate(rows)]
    return min(diagonal, key=lambda x: (-diagonal.count(x), abs(x), x), default=0)


def lattice_srg16() -> Graph:
    """4x4 rook-move graph: srg(16, 6, 2, 2), the lattice member of the
    classical cospectral pair."""
    edges = set()
    for i in range(4):
        for j in range(4):
            for jj in range(j + 1, 4):
                edges.add((4 * i + j, 4 * i + jj))
            for ii in range(i + 1, 4):
                edges.add((4 * i + j, 4 * ii + j))
    return Graph(16, sorted(edges))


def exceptional_srg16() -> Graph:
    """The exceptional srg(16, 6, 2, 2): Z4 x Z4 with differences
    (1,0), (0,1), (1,1); cospectral with but not isomorphic to the
    lattice."""
    edges = set()
    for i in range(4):
        for j in range(4):
            for di, dj in [(1, 0), (0, 1), (1, 1)]:
                u = 4 * i + j
                v = 4 * ((i + di) % 4) + ((j + dj) % 4)
                edges.add((min(u, v), max(u, v)))
    return Graph(16, sorted(edges))


@pytest.fixture(scope="session")
def corpus_specs() -> List[JoinSpec]:
    rng = random.Random(20260814)
    return [random_spec(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def corpus_reports(corpus_specs):
    return [block_charpoly(spec) for spec in corpus_specs]
