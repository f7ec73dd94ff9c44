"""Main functions, block characteristic polynomials, eigenvalue
classification, and carry-forward multiplicity accounting for joins.

For a block matrix M with diagonal blocks M_i and cross blocks
rho_{ij} E_i E_j^T (host-adjacent factors only), the characteristic
polynomial factors as

    det(xI - M) = prod_i phi_i(x) * det(A~),

where A~ has m x m blocks: the identity on the diagonal and
-rho_{ij} Gamma_i off it, with Gamma_i = E_i^T (xI - M_i)^{-1} E_i the
main-function matrix of factor i. Clearing row-block i by the reduced
common denominator g_i of Gamma_i turns det(A~) into the determinant Phi
of a polynomial matrix (g_i I_m on the diagonal, -rho_{ij} f_i off it,
f_i = g_i Gamma_i), giving the fully exact pipeline

    det(xI - M) = prod_i phi_i * Phi / prod_i g_i^m.

The universal matrix U = alpha*A + beta*I + gamma*J + delta*D of a join
has this shape, built in one place (`_universal_blocks`): M_i is U(G_i)
plus delta times the cross degrees diag(E_i t_i), t_i the sum of E_j^T 1
over host neighbours j, and the cross blocks carry alpha. Every block
(i, j) is S_i diag(w) S_j^T with one side S_i per factor, so every main
function is S_i^T (xI - M_i)^{-1} S_i of a symmetric M_i. A gamma != 0
couples every pair through gamma*J: the side becomes S_i = [1 | E_i] and
gamma moves into the weights (gamma, alpha*rho_ij, ...); otherwise
S_i = E_i with weights alpha*rho_ij. A labeled join takes E_i = its
indexing matrix, a generalized join in `cospectral` the subset indicator
1_{S_i}; `block_charpoly` is this pipeline at (1, 0, 0, 0).

Main functions come from walk sums, not from an adjugate. With
phi = sum_j c_j x^(n-j) the characteristic polynomial of M and
W_t = E^T M^t E the walk sums of the side E,

    E^T adj(xI - M) E = sum_k x^(n-1-k) sum_{j<=k} c_j W_(k-j),

which Horner's rule accumulates as Y_0 = E, Y_k = M Y_(k-1) + c_k E, with
layer k = E^T Y_k. With M = M'/s and E = E'/s_e the same recurrence over
M' and c_k s^k is integral, and its layers are the coefficients of
E'^T adj(yI - M') E', that is of s_e^2 s^(n-1) N(y / s). `main_function`
hands M', the integer side and its cells (a, b) to
`exactlinalg._walk_lift`, which lifts those entries modulo primes (its
module docstring gives the bound, the primes and the int64 argument).

Every reduced entry denominator of these numerators N over phi divides
phi, so one gcd chain h = gcd(phi, every non-zero N_ab) gives the reduced
common denominator g = phi / h and f = N / h. The chain runs in Z[y] on
the lifted layers: s^n phi(y / s), the integer lift of the charpoly
engine, is monic in Z[y], so h is monic there too and both quotients are
exact integer divisions (`_int_gcd`, `_int_divexact`). The chain tries
N_ab / h first, exact exactly when gcd(h, N_ab) = h, and takes the gcd
only when that fails; `_int_gcd` certifies the gcd by the two exact
divisions that give its cofactors, and the chain keeps N_ab / gcd as that
cell's quotient, so a cell is divided again only when h shrinks later.
The cells are the entries a <= b alone: M is symmetric, so N_ab = N_ba.
`MainFunction` keeps phi, g and f in this scaled integer form, and every
consumer (entries in lowest terms, eigenvalue classes, the reduced block,
Phi) reads those integers; the polynomials over Q are views derived on
first read. A report computes the main function, eigenvalue classes and
carry-forward counts once per distinct block (`reduced_block_charpoly`).

The block path evaluates the identity, not Phi: deg Phi is
m * sum_i deg g_i, often several times n, while det(xI - M) has degree n.
`reduced_block_charpoly`, which the blocks of generalized joins in
`cospectral` share, keeps the Z[y] side of it. `_reduced_stack` builds
the integer coefficients of the block straight from the main functions'
integers, each row cleared by the lcm of its coefficient denominators, as
plain integer rows of its few distinct entries and an index into them.
The points are the first n + 1 non-negative integers t where no g_i
vanishes, and at each, det(tI - M) is det Phi(t) times
prod_i phi_i(t) / g_i(t)^m, a quotient of integers that the main
functions give. `reduced_block_charpoly` always computes the direct lift
det(yI - L*M) from the integer rows of the assembled matrix M, with L its
common denominator, and `exactlinalg` evaluates Phi and checks that lift
against these values (`_block_lift`); any difference raises
BlockFactorizationError naming the lowest power of x whose coefficients
differ. The check skips every prime that divides L or the denominator of
a point's quotient, so every prime dividing a row multiplier, some s_i or
some g_i(t). Row a of block i holds its row multiplier times
s_i^(d_i) g_i(t) on the diagonal, so every diagonal entry of the block is
a unit at every point modulo every prime the check keeps, which is all
`_block_lift` asks of it. A report computes that lift once and reads Phi,
the carry-forward multiplicities and its charpoly over Q off it.

Phi itself, kept in the report, is then det(xI - M) * G^(m-1) / H with
G = prod_i g_i and H = prod_i phi_i / g_i, taken over the integers: scaled
by L (P(x) -> L^deg(P) P(y / L)), all these polynomials are monic in Z[y],
as each s_i divides L (M_i is a diagonal block of M). The lift cancels
against H before any power: with w = gcd(lift, H), rest = lift / w and the
monic H' = H / w are coprime and Phi * H' = rest * G^(m-1), so H' divides
G^(m-1) exactly in Z[y] and Phi = rest * (G^(m-1) / H'), with G^(m-1) from
one power recurrence (`_int_pow`), not m - 1 ever longer products. m <= 1
gives Phi = lift / H (at m = 0 every side is empty and g_i = 1).

An eigenvalue class of M_i is E-main when its eigenspace is not
orthogonal to the column space of E_i; exactly the roots of g_i are
E-main, so classification is gcd arithmetic, no root finding: the
squarefree layers of phi_i, their gcds with g_i and the rational roots
peeled off them are taken in Z[y] on the main function's integers, scaled
by the common denominator s_i of M_i, where the rational roots are the
integer roots of `exactlinalg._integer_roots`. Main classes of
multiplicity e are guaranteed multiplicity >= e - m in the join, non-main
classes >= e; reports check the observed multiplicities against those
bounds on the join's integer lift, dividing it in Z[y] by each class
scaled by L, synthetically when the class is linear (`_int_multiplicity`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BlockFactorizationError, CarryForwardError, InexactDivisionError, InvalidParametersError, NonSymmetricInputError, SizeMismatchError
from .exactlinalg import (
    _block_lift,
    _charpoly_lift,
    _integer_roots,
    _require_square,
    _scaled_bound,
    _scaled_rows,
    _walk_lift,
    mat_shape,
)
from .graphs import UniversalParams, universal_matrix
from .joins import JoinSpec, hm_join
from .polynomials import (
    Polynomial,
    _int_coeff_eval,
    _int_divexact,
    _int_gcd,
    _int_mul,
    _int_multiplicity,
    _int_pow,
    _int_squarefree,
    _scaled,
    _unscaled,
    _Value,
)


class MainFunction(_Value):
    """Gamma = E^T (xI - M)^{-1} E of a symmetric M in exact normal form
    (g, f), held in Z[y] (module docstring).

    phi = det(xI - M) has degree n, g is the monic least common
    denominator of the reduced entries, of degree d (g divides phi, and
    its roots are exactly the E-main eigenvalues), and f = g * Gamma is a
    symmetric polynomial matrix. With s the common denominator of M and
    `scale` = s_e^2 for the common denominator s_e of E, the integer
    lists, constant term first, are `phi` = s^n phi(y / s),
    `g` = s^d g(y / s), both monic, and f[a][b], the d coefficients of
    scale * s^(d-1) f_ab(y / s). `charpoly`, `denominator` and `numerator`
    are phi, g and f over Q, derived once when first read. The form is
    canonical, so equality and hashing compare (g, f) over Q: two main
    functions are equal exactly when their Gamma are, whatever their s.
    """

    __slots__ = ("s", "phi", "g", "f", "scale", "__dict__")

    @cached_property
    def charpoly(self) -> Polynomial:
        return _unscaled(self.phi, self.s)

    @cached_property
    def denominator(self) -> Polynomial:
        return _unscaled(self.g, self.s)

    @cached_property
    def numerator(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        return tuple(tuple(_unscaled(p, self.s, self.scale) for p in row) for row in self.f)

    def _key(self):
        return self.denominator, self.numerator

    def entry(self, a: int, b: int) -> Tuple[Polynomial, Polynomial]:
        """Gamma_ab in lowest terms as (num, den), den monic: the cofactors
        f_ab / h and g / h that `_int_gcd` returns with h = gcd(f_ab, g),
        which divides the monic g and so is monic; a zero entry gives
        (0, 1)."""
        _, num, den = _int_gcd(self.f[a][b], self.g)
        # num keeps its top zeros: scale * s^(e-1) num(y / s), e = deg den
        return _unscaled(num, self.s, self.scale), _unscaled(den, self.s)


class EigenvalueClass(_Value):
    """A set of conjugate eigenvalues sharing multiplicity and mainness.

    `poly` is monic and squarefree; rational classes are linear with the
    root in `rational`. `multiplicity` is the multiplicity in the factor's
    characteristic polynomial.
    """

    __slots__ = ("poly", "rational", "multiplicity", "is_main")


class CarryForwardRow(_Value):
    """Guaranteed vs observed multiplicity of one factor eigenvalue class
    in the join."""

    __slots__ = ("factor", "eigen_class", "guaranteed", "observed")


class SpectralReport(_Value):
    """Everything the block pipeline produces for one join spec."""

    __slots__ = ("charpoly_direct", "charpoly_block", "factor_charpolys", "phi_polynomial", "gammas",
                 "e_main_flags", "carry_forward", "numeric_spectrum")


# ---------------------------------------------------------------------------
# main functions


@lru_cache(maxsize=256)
def _resolvent(key: tuple):
    """The integer data of the walk recurrence for M = M'/s: s, the
    coefficients, constant term first, of s^n phi(y / s) for
    phi = det(xI - M), so entry n - j is c_j s^j for phi = sum_j c_j x^(n-j),
    the rows of M', the centring of `_scaled_bound(M)` (`exactlinalg`
    says what it bounds) and whether M is symmetric. Cached on matrix
    content, so factors and pair searches that revisit a matrix pay for its
    characteristic polynomial once."""
    s, rows, _, centring = _scaled_bound(key)
    return s, tuple(_charpoly_lift(rows, centring)), tuple(map(tuple, rows)), centring, key == tuple(zip(*key))


def main_function(m, e) -> MainFunction:
    """E^T (xI - M)^{-1} E = N / phi in exact normal form, for a symmetric
    M (NonSymmetricInputError otherwise). N comes from the walk sums (module
    docstring): with M = M'/s and E = E'/s_e, entry (a, b) is the n integer
    coefficients, lowest first, of E'^T adj(yI - M') E', that is of
    s_e^2 s^(n-1) N_ab(y / s), lifted by `exactlinalg._walk_lift` on the
    cells a <= b of the non-zero columns of E (others are zero), since
    N_ab = N_ba; scale 1 when E has no column. Then g = phi / h and
    f = N / h, with h = gcd(phi, every non-zero N_ab) taken as one
    divide-first chain in Z[y] over the cells."""
    n = _require_square(m)
    r, c = mat_shape(e)
    if r != n:
        raise SizeMismatchError(f"the side must have {n} rows, got {r}")
    s, phi, rows, centring, symmetric = _resolvent(tuple(map(tuple, m)))
    if not symmetric:
        raise NonSymmetricInputError("main functions need a symmetric matrix")
    se, ints = _scaled_rows(e)
    cols = [a for a, col in enumerate(zip(*ints)) if any(col)]
    cells = [(x, y) for x in range(len(cols)) for y in range(x, len(cols))]
    numerators = _walk_lift(rows, phi, [[row[a] for a in cols] for row in ints], centring, cells) if cells else []
    h, held = phi, {}
    for cell, p in zip(cells, numerators):
        if any(p[len(h) - 1:]):  # deg p >= deg h, so h may divide p
            try:
                held[cell] = len(h), _int_divexact(p, h)
                continue
            except InexactDivisionError:
                pass
        if any(p):  # a zero entry leaves h as it is
            h, _, q = _int_gcd(h, p)
            held[cell] = len(h), q
    f = [[(0,) * (n + 1 - len(h))] * c for _ in range(c)]
    for (x, y), p in zip(cells, numerators):
        # h only shrinks, so a quotient taken at its final degree is p / h, the
        # n - deg h coefficients of scale * s^(n-1-deg h) f(y / s), as a zero entry has
        size, q = held.get((x, y), (0, None))
        f[cols[x]][cols[y]] = f[cols[y]][cols[x]] = tuple(q if size == len(h) else _int_divexact(p, h))
    return MainFunction(s, phi, tuple(_int_divexact(phi, h)), tuple(map(tuple, f)), se * se)


# ---------------------------------------------------------------------------
# eigenvalue classes


def _eigen_classes(m, mf: MainFunction) -> Tuple[EigenvalueClass, ...]:
    """Split phi into monic squarefree classes homogeneous in multiplicity
    and mainness (mainness = dividing g), extracting rational roots; in
    Z[y] on the integers of `mf = main_function(m, e)`, scaled by the
    common denominator s of M, where the rational roots are the integer
    roots y of `_integer_roots` on the rows of `_resolvent` and stand for
    y / s. Each Yun layer splits into its main part gcd(layer, g) and the
    non-main rest, the cofactor layer / main part that `_int_gcd` returns."""
    roots = _integer_roots(mf.phi, _resolvent(tuple(map(tuple, m)))[2])
    classes: List[EigenvalueClass] = []
    for layer, mult in _int_squarefree(mf.phi):
        main_part, rest, _ = _int_gcd(layer, mf.g)
        for part, flag in ((main_part, True), (rest, False)):
            for y, root_mult in roots:
                if root_mult == mult and _int_coeff_eval(part, y) == 0:
                    root = Fraction(y, mf.s)
                    classes.append(EigenvalueClass(Polynomial((-root, 1)), root, mult, flag))
                    part = _int_divexact(part, [-y, 1])
            if len(part) > 1:
                classes.append(EigenvalueClass(_unscaled(part, mf.s), None, mult, flag))
    return tuple(sorted(classes, key=_class_sort_key))


def _class_sort_key(c: EigenvalueClass):
    if c.rational is not None:
        return (0, c.rational, c.multiplicity, ())
    return (1, Fraction(0), c.multiplicity, c.poly.coeffs)


def classify_e_main(m, e) -> Tuple[EigenvalueClass, ...]:
    """Classify the eigenvalue classes of a symmetric rational matrix M as
    E-main or not: a class is E-main exactly when it divides the reduced
    common denominator of Gamma."""
    return _eigen_classes(m, main_function(m, e))


def _numeric_spectrum(matrix) -> Tuple[Tuple[float, int], ...]:
    dense = np.array(matrix, dtype=float)
    if dense.size == 0:
        return ()
    w = np.linalg.eigvalsh(dense)
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > 1e-8 * scale:
            clusters.append((float(np.mean(w[start:i]) if i - start > 1 else w[start]), i - start))
            start = i
    return tuple(clusters)


# ---------------------------------------------------------------------------
# block pipeline


def _reduced_stack(mfs: Sequence[MainFunction], weights) -> Tuple[List[Tuple[int, ...]], np.ndarray, int]:
    """The reduced block N as the integer coefficient rows of its distinct
    entries (x^d in column d, all of one length, row 0 the zero polynomial)
    and the index with N[i][j] = rows[index[i, j]], and the `scale` with
    det(block(t)) = det(N(t)) / scale. Row a of block i times
    C = scale_i s_i^d W (d = deg g_i, W the lcm of the weight denominators)
    is integral: G_k s^k scale_i W on the diagonal, -w_b W F_k s^(k+1) in
    column b of block j; divided by the gcd of C and those integers, it is
    cleared by the lcm of its coefficient denominators, and computed once
    per main function and set of weights, rows of zero side columns once,
    over the columns b with f_bb != 0 (M_i is symmetric: f_bb = 0 iff E_b = 0)."""
    offsets = [0]
    for mf in mfs:
        offsets.append(offsets[-1] + len(mf.f))
    depth = max((len(mf.g) for mf in mfs if mf.f), default=1)
    index = np.zeros((offsets[-1], offsets[-1]), dtype=np.intp)
    distinct, contents, scale = {(0,) * depth: 0}, {}, 1
    def row(coeffs):
        return distinct.setdefault(tuple(coeffs) + (0,) * (depth - len(coeffs)), len(distinct))
    for i, mf in enumerate(mfs):
        cross = [(j, w) for j in range(len(mfs)) if j != i for w in [weights(i, j)] if w is not None]
        key = id(mf), tuple(dict.fromkeys(w for _, w in cross))
        if key not in contents:
            powers = [mf.s ** k for k in range(len(mf.g) + 1)]
            wden = math.lcm(*(wb.denominator for w in key[1] for wb in w))
            common = mf.scale * powers[-2] * wden
            diagonal = [c * p * mf.scale * wden for c, p in zip(mf.g, powers)]
            scaled, contents[key], memo = {}, [], {}  # (f_ab, multiplier of column b) -> its integers
            live = [b for b, f_row in enumerate(mf.f) if any(f_row[b])]
            for a, f_row in enumerate(mf.f):
                part = a if any(f_row[a]) else None  # the rows of zero side columns are alike
                if part not in memo:
                    cells = [[(b, (f_row[b], -w[b].numerator * (wden // w[b].denominator)))
                              for b in live if w[b] and any(f_row[b])] for w in key[1]]
                    entries = {e for cs in cells for _, e in cs}
                    for f, q in entries.difference(scaled):
                        scaled[f, q] = [q * c * p for c, p in zip(f, powers[1:])]
                    cleared = math.gcd(common, *diagonal, *(c for e in entries for c in scaled[e]))
                    ids = {e: row([c // cleared for c in scaled[e]]) for e in entries}
                    memo[part] = (common // cleared, row([c // cleared for c in diagonal]),
                                  [[(b, ids[e]) for b, e in cs] for cs in cells])
                contents[key].append(memo[part])
        cross = [(j, key[1].index(w)) for j, w in cross]  # cells by the position of their weights
        for a, (multiplier, own, cells) in enumerate(contents[key]):
            scale *= multiplier
            index[offsets[i] + a, offsets[i] + a] = own
            for j, w in cross:
                for b, r in cells[w]:
                    index[offsets[i] + a, offsets[j] + b] = r
    return list(distinct), index, scale


def reduced_block_charpoly(blocks, weights, matrix) -> Tuple[List[MainFunction], int, List[int]]:
    """The main functions S_i^T (xI - M_i)^{-1} S_i of the diagonal blocks
    (M_i, S_i) of a block matrix M, one per distinct pair, the common
    denominator L of M and det(yI - L*M) in Z[y] from them, when each
    off-diagonal block (i, j) is S_i diag(w) S_j^T with w = weights(i, j)
    (None: zero).

    The reduced matrix holds g_i I on diagonal block i and -w_b f_i[a][b] at
    row a of block i, column b of block j; its determinant Phi gives
    det(xI - M) = prod_i phi_i * Phi / prod_i g_i^(m_i) with m_i the size
    of block i. The direct lift of `matrix`, of degree n = sum_i deg phi_i,
    is checked against it at the first n + 1 non-negative integers where no
    g_i vanishes, by `exactlinalg._block_lift`: BlockFactorizationError
    names the lowest power of x whose coefficients differ."""
    mfs, mains = [], {}
    for m, e in blocks:
        key = tuple(map(tuple, m)), tuple(map(tuple, e))
        if key not in mains:
            mains[key] = main_function(m, e)
        mfs.append(mains[key])
    l, rows, bound, centring = _scaled_bound(matrix)
    direct = _charpoly_lift(rows, centring)
    table, index, scale = _reduced_stack(mfs, weights)
    # det(tI - M) = det(N(t)) * top / bottom at each point t, in integers,
    # with phi_i(t) = Phi_i(s_i t) / s_i^(n_i) and g_i(t) = G_i(s_i t) / s_i^(d_i)
    n = sum(len(mf.phi) - 1 for mf in mfs)
    points, tops, bottoms = [], [], []
    t = 0
    while len(points) <= n:
        g_values = [_int_coeff_eval(mf.g, mf.s * t) for mf in mfs]
        if all(g_values):
            top, bottom = 1, scale
            for mf, gt in zip(mfs, g_values):
                top *= _int_coeff_eval(mf.phi, mf.s * t) * mf.s ** ((len(mf.g) - 1) * len(mf.f))
                bottom *= mf.s ** (len(mf.phi) - 1) * gt ** len(mf.f)
            points.append(t)
            tops.append(top)
            bottoms.append(bottom)
        t += 1
    block = _block_lift(table, index, points, tops, bottoms, l, bound, direct)
    if block != direct:
        bq, dq = _unscaled(block, l), _unscaled(direct, l)
        k = next(k for k in range(max(len(block), len(direct))) if bq.coefficient(k) != dq.coefficient(k))
        raise BlockFactorizationError(
            f"block factorization identity violated: the coefficients of x^{k} differ, "
            f"block path gives {bq.coefficient(k)}, direct path gives {dq.coefficient(k)}"
        )
    return mfs, l, block


def _phi_quotient(lift: Sequence[int], mfs: Sequence[MainFunction], m: int, l: int) -> Polynomial:
    """Phi of the module docstring from `lift`, det(xI - M) scaled by L,
    then unscaled. Each s_i divides L, so the list P = s_i^d p(y / s_i)
    scales to L^d p(y / L) = (L / s_i)^(d-k) P_k."""
    gs, h = [], [1]
    for mf in mfs:
        r = l // mf.s
        g, phi = ([c * r ** (len(p) - 1 - k) for k, c in enumerate(p)] for p in (mf.g, mf.phi))
        gs.append(g)
        h = _int_mul(h, _int_divexact(phi, g))
    if m <= 1:
        return _unscaled(_int_divexact(lift, h), l)
    _, rest, h = _int_gcd(lift, h)
    return _unscaled(_int_mul(rest, _int_divexact(_int_pow(reduce(_int_mul, gs, [1]), m - 1), h)), l)


def _universal_blocks(host, factors, sides, params):
    """Blocks of U = alpha*A + beta*I + gamma*J + delta*D of the join with
    sides E_i = sides[i] on c columns (module docstring): blocks[i] =
    (M_i, S_i) with M_i = U(G_i) + delta*diag(E_i t_i), and block (i, j) of
    U is S_i diag(w) S_j^T for w = weights(i, j), None meaning zero:
    S_i = E_i and w = (alpha,)*c on host edges when gamma = 0, else
    S_i = [1 | E_i] and w = (gamma,) + (alpha*rho_ij,)*c."""
    c = len(sides[0][0]) if sides else 0
    neighbors = host.adjacency()
    blocks = []
    for i, (g, e) in enumerate(zip(factors, sides)):
        m = universal_matrix(g, params)
        if params.delta != 0:
            # t_i, the column sums of the host neighbours' sides
            t = [sum(col) for col in zip(*(row for j in neighbors[i] for row in sides[j]))]
            for v, row in enumerate(e):
                m[v][v] += params.delta * sum(x * y for x, y in zip(row, t))
        blocks.append((m, e if params.gamma == 0 else [[1] + row for row in e]))

    def weights(i, j):
        if params.gamma == 0:
            return (params.alpha,) * c if j in neighbors[i] else None
        return (params.gamma,) + ((params.alpha if j in neighbors[i] else 0),) * c

    return blocks, weights


def block_charpoly(spec: JoinSpec) -> SpectralReport:
    """The report of `universal_block_charpoly` for the adjacency matrix,
    U at (alpha, beta, gamma, delta) = (1, 0, 0, 0)."""
    return universal_block_charpoly(spec, UniversalParams.preset("A"))


def universal_block_charpoly(spec: JoinSpec, params: UniversalParams) -> SpectralReport:
    """Characteristic polynomial of U = alpha*A + beta*I + delta*D of a
    join (gamma must be 0) by block factorization, with the indexing
    matrices as sides, checked against the direct path, plus classification,
    carry-forward ledger and a numeric diagnostic spectrum."""
    if params.gamma != 0:
        raise InvalidParametersError("universal block factorization needs gamma = 0 (the all-ones block couples all factor pairs); use the generalized-join pipeline instead")
    blocks, weights = _universal_blocks(spec.host, spec.factors, spec.indexing_matrices(), params)
    matrix = universal_matrix(hm_join(spec), params)
    mfs, l, lift = reduced_block_charpoly(blocks, weights, matrix)
    char = _unscaled(lift, l)
    flags, carry, ledgers = [], [], {}
    for i, ((mat, _), mf) in enumerate(zip(blocks, mfs)):
        if id(mf) not in ledgers:  # the first block with this main function
            classes, counts = _eigen_classes(mat, mf), []
            for c, cls in enumerate(classes):
                guaranteed = max(0, cls.multiplicity - spec.m) if cls.is_main else cls.multiplicity
                # M_i is a diagonal block of M, so s_i divides L and the class scales into Z[y]
                observed = _int_multiplicity(lift, _scaled(cls.poly, l))
                if observed < guaranteed:
                    raise CarryForwardError(
                        f"factor {i}, eigenvalue class {c} of degree {cls.poly.degree}: observed "
                        f"multiplicity {observed} below the guaranteed bound {guaranteed}"
                    )
                counts.append((cls, guaranteed, observed))
            ledgers[id(mf)] = classes, counts
        classes, counts = ledgers[id(mf)]
        flags.append(classes)
        for row in counts:
            carry.append(CarryForwardRow(i, *row))
    return SpectralReport(char, char, tuple(mf.charpoly for mf in mfs), _phi_quotient(lift, mfs, spec.m, l),
                          tuple(mfs), tuple(flags), tuple(carry), _numeric_spectrum(matrix))
