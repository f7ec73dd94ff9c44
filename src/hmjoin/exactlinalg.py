"""Exact linear algebra over Q: characteristic polynomials, rational
roots, and every multi-modular lift of the join pipeline.

Matrices are plain lists of lists holding ints or `fractions.Fraction`
values. The module checks their shape but holds no general matrix
products; its integer polynomial helpers (`_int_*`, `_scaled`, `_unscaled`)
live in `polynomials`.

Three lifts recover integers modulo primes. Each takes integers and a
bound and returns the integers within that bound:

- `_charpoly_lift`: det(yI - R) for integer rows R (Dumas, Pernet & Wan,
  ISSAC 2005; Cohen, A Course in Computational Algebraic Number Theory,
  section 2.2), under `charpoly` and every main function;
- `_walk_lift`: the coefficients of the entries (a, b) of
  E'^T adj(yI - R) E' that its caller names, for one integer side E', the
  numerators of the main functions in `spectra`;
- `_block_lift`: the direct lift once more, from the values of the reduced
  block determinant that `spectra` builds from the main functions, as a
  check of it.

Bounds. With L the common denominator of a rational matrix M and R the
integer rows of L*M (`_scaled_rows`), c_k(M) = c_k(R) / L^k. Each c_k(R)
is a signed sum of principal k-minors, each at most the product of its
rows' norms by Hadamard's inequality, so |c_k(R)| <= e_k(r_1, ..., r_n)
for any r_i at least the row norms. `_scaled_bound` takes fixed-point
ceilings r_i = ceil(2^16 |row_i|) / 2^16 (by `isqrt`) and max_k e_k as the
largest coefficient of prod_s (1 + r_s z)^c over the distinct row sums of
squares s, c rows each, every term C(c, j) r_s^j rounded up to an integer:
non-negative terms rounded up keep every product coefficient at least e_k,
and no larger than with integer ceilings, as r_s <= ceil(|row|). The
coefficient of y^(n-1-k) in cofactor (a, b) of yI - R is a signed sum of
k-minors of R on distinct row sets that omit row a (one per set of
diagonal entries giving y), each within the same product, so that bound
covers every cofactor too, and W = bound * (max_a |E'_a|_1)^2 (the largest
column 1-norm of the integer side, taken as at least 1) covers every
coefficient of E'^T adj(yI - R) E'. L, Q and A_alpha carry the degrees on
the diagonal, which dominate the norms, so `_scaled_bound` also takes K',
the bound of R - aI for the most common diagonal entry a. Where K' saves
two primes or more (one measured slower), the charpoly and walk lifts run
on R - aI under K', and an exact Taylor shift in Z[y] (`_int_shift`; von
zur Gathen & Gerhard, ISSAC 1997) moves integers back: c(y) = c'(y - a)
for c'(y) = det(yI - (R - aI)) = c(y + a). The charpoly lift returns c',
its callers shift back only what they output, and the block lift checks
c' under K' (below): the argument under K with a = 0, K' for K.

Primes and the int64 argument. Primes below 2**26, largest first
(`_primes`, each found by deterministic Miller-Rabin, `_is_prime`), are
chosen before any residue, until their product exceeds twice the bound
plus one (`_lift_primes`), so the choice is a pure function of the bound
and of the primes a lift rejects, and every machine gets the same
integers; Garner's CRT with symmetric residues (`_crt_lift`) lifts them. A
lift holds its integers modulo all its primes in one int64 stack, one
member per prime (`_residues`). Residues are below their prime p < 2**26,
so every product of two is below 2**52 and is reduced at once, and every
sum of products is reduced after at most 2**11 - 1 terms (`_dot_mod`), so
no partial sum reaches 2**63.

The charpoly lift brings all members to upper Hessenberg form at once by
similarity transforms and reads off their characteristic polynomials by a
recurrence (`_charpoly_mod`). At each column the elimination runs only on
its live span, the rows from the first to the last below the pivot whose
multiplier is non-zero in some member, and only on the trailing columns
from the pivot's on; the recurrence reads only the coefficients up to each
polynomial's degree. No prime is bad: the characteristic polynomial of R
mod p is always that of R reduced mod p. No adjugate of (yI - R) is ever
formed either: with det(yI - R) = sum_j c_j y^(n-j), the walk lift runs
Y_0 = E', Y_k = R Y_(k-1) + c_k E' on its stack, one product with
[R; E'^T] per step, and E'^T Y_k holds the coefficients of y^(n-1-k).

The block lift evaluates a matrix N of polynomials, given as the integer
coefficient rows of its distinct entries (row 0 zero) and an index into
them, at points t; its caller guarantees that every diagonal entry of N
is a unit at every point modulo every prime the lift keeps. The rows are
reduced modulo all the primes once, and `_polymatrix_det_mod` evaluates
every row at every point modulo every prime of a group at once into one
int64 stack of point matrices. Each takes one Schur step before its
Gaussian elimination (block elimination over an independent set: Rose
1972, George & Liu 1981). `_schur_rows` moves rows first greedily in row
order, a row whenever no entry couples it in either direction to one
already taken: on the reduced block of a join in `spectra`, the whole
first block, and with gamma = 0 every block whose host neighbours have
no taken row (every block of an edgeless host), while gamma != 0 couples
every pair of blocks. The taken block D is diagonal with unit entries, so
det N = prod diag(D) * det S with S the Schur complement of D, and every
det S is taken at once by batched Gaussian elimination (`_det_mod`), both
steps division-free (pivot * row i - a_ik * row k, the factors divided
out at the end). The check takes the primes of K' it does not reject: a
prime that does not exceed the last point or divides L or a bottom. Modulo
each prime left, L and every bottom are then units and the points L*t - a
distinct, so det N(t) * top(t) * L^n = c'(L*t - a) * bottom(t) at all
n + 1 points exactly when c' is the interpolant of the values times
top / bottom at the points L*t - a; at every prime, with every |c'_j|
below half their product (> K'), exactly when c' is that interpolant's
CRT lift, which for a correct block is det(yI - (R - aI)), within K'. The
lift checks this, with c' at every L*t - a from one table of powers built
by doubling and one `_dot_mod`. Only when it fails does it interpolate
(`_interpolate_mod`), scale and lift (`_crt_lift`) the block's own
integers, c modulo that product, and shift them by a, each taken
symmetric, for its caller to name the lowest coefficient that differs.

The Schur scalings, bottoms and point differences are inverted in batches
by Montgomery's trick (Math. Comp. 48, 1987; `_inverses`): prefix
products, one `pow`, one sweep back; the last once modulo the product of
all the primes of a lift and then reduced to each.

Rational roots have one scan, `_integer_roots`: for a monic divisor p of
det(xI - M) and a common denominator s of M, s^d p(y / s) is monic in
Z[y], so the rational roots of p are y / s for its integer roots y, which
lie within the Gershgorin bound B of the integer rows R of s*M and divide
the lowest non-zero coefficient; multiplicities come from synthetic
division by y - root. On those integers shifted by a it finds the y - a,
also within the bound B' of R - aI. The scan takes time linear in
min(B, B'), so above `_EIGEN_SCAN_LIMIT` it raises TooLargeError instead.
`spectra` runs it on a factor's centred lift; `rational_roots` scales p by
L itself and also returns the cofactor left after dividing every root out.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import getitem, mul
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import SizeMismatchError, TooLargeError
from .polynomials import Polynomial, _int_coeff_eval, _int_divexact, _int_mul, _int_multiplicity, _int_shift, _scaled, _unscaled


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


# ---------------------------------------------------------------------------
# denominators and primes


def _scaled_rows(m) -> Tuple[int, List[List[int]]]:
    """L, the common denominator of the entries (ints or Fractions) of M,
    the least positive integer with L*M integral, and the rows of L*M."""
    if all({*map(type, row)} <= {int} for row in m):
        return 1, [list(row) for row in m]
    l = math.lcm(*{x.denominator for row in m for x in row if type(x) is not int})
    return l, [[x * l if type(x) is int else x.numerator * (l // x.denominator) for x in row] for row in m]


def _scaled_bound(m) -> Tuple[int, List[List[int]], int, Tuple[int, int]]:
    """`_scaled_rows(M)`, the bound K of the module docstring for its rows R,
    and the centring (a, K') of the charpoly and walk lifts: a the most common
    diagonal entry (ties to the smaller |a|, then a), K' the bound of R - aI;
    (0, K) unless K' needs two primes fewer. Both take fixed-point ceilings."""
    l, rows = _scaled_rows(m)
    def hadamard(counts):  # max_k e_k(r_1, ..., r_n) or more, one product per distinct norm
        e = [1]
        for s, c in counts.items():
            if c == 1:  # 1 + r_s z, r_s rounded up: the integer ceiling
                r = math.isqrt(s - 1) + 1 if s else 0
                e = [x + r * y for x, y in zip(e + [0], [0] + e)]
            elif s:
                r, t, terms = math.isqrt((s << 32) - 1) + 1, 1, [1]  # 2^16 r_s
                for j in range(1, c + 1):
                    t = t * r * (c - j + 1) // j  # C(c, j) (2^16 r_s)^j
                    terms.append(-(-t >> 16 * j))  # rounded up, so no product coefficient falls
                e = _int_mul(e, terms) if len(e) > 1 else terms
        return max(e)
    squares = [sum(map(mul, row, row)) for row in rows]
    bound = hadamard(Counter(squares))
    fewer = len(_lift_primes(bound)) - 2  # K' takes a prime at least, so K needs three for it to save two
    if fewer > 0:
        diagonal = list(map(getitem, rows, itertools.count()))
        counts = Counter(diagonal)
        a = min(counts, key=lambda x: (-counts[x], abs(x), x))
        centred = Counter(s - (2 * d - a) * a for s, d in zip(squares, diagonal))
        # K' >= prod (1 + r'_i) / (n + 1) >= prod (1 + isqrt(s'_i)) / (n + 1): recur only if that can save two
        if a and len(_lift_primes(math.prod((1 + math.isqrt(s)) ** c for s, c in centred.items()) // (len(rows) + 1))) <= fewer:
            k = hadamard(centred)
            if len(_lift_primes(k)) <= fewer:
                return l, rows, bound, (a, k)
    return l, rows, bound, (0, bound)


# Primes below 2**26, largest first, found by `_is_prime`. The list is a
# pure function of its length: `_primes` extends it on demand and rebinds
# it whole, so concurrent callers can at worst repeat work.
_PRIMES: Tuple[int, ...] = ()
# Terms per int64 dot product mod p. Operands lie in [0, p) with p < 2**26,
# so each product is below 2**52 and an accumulator below p plus
# _DOT_TERMS such products stays below 2**26 + (2**11 - 1) * 2**52 < 2**63.
_DOT_TERMS = (1 << 11) - 1
# Most entries (primes x points x order^2) of one block-lift stack; its primes go in groups that fit.
_STACK_ENTRIES = 1 << 20
# Largest row-sum bound B that `_integer_roots` scans [-B, B] for;
# a scan at the cap takes about 2.5 s.
_EIGEN_SCAN_LIMIT = 10 ** 6


def _is_prime(q: int) -> bool:
    """Whether an integer 1 < q < 3,215,031,751 is prime: Miller-Rabin to
    the bases 2, 3, 5 and 7, which no composite below that bound passes
    (Jaeschke, Math. Comp. 61, 1993). The primes of `_primes` lie below
    2**26, under a 47th of the bound."""
    if q % 2 == 0 or q % 3 == 0 or q % 5 == 0 or q % 7 == 0:
        return q in (2, 3, 5, 7)
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes of `_PRIMES` in order, extending it as they run out."""
    global _PRIMES
    i = 0
    while True:
        if i == len(_PRIMES):
            q = _PRIMES[-1] - 2 if _PRIMES else (1 << 26) - 1
            while not _is_prime(q):
                q -= 2
            _PRIMES = _PRIMES + (q,)
        yield _PRIMES[i]
        i += 1


def _lift_primes(bound: int, bad=lambda p: False) -> List[int]:
    """The primes of `_primes` in order, skipping those that `bad` rejects,
    until their product exceeds 2 * bound + 1, so that `_crt_lift` recovers
    integers within bound; a pure function of the bound and the bad primes."""
    chosen, modulus, primes = [], 1, _primes()
    while modulus <= 2 * bound + 1:
        p = next(primes)
        if not bad(p):
            chosen.append(p)
            modulus *= p
    return chosen


def _inverses(values: Sequence[int], p: int) -> List[int]:
    """The inverses mod p of values in [0, p) that are 0 or units, 0 for 0,
    by Montgomery's trick: prefix products, one `pow`, one sweep back; p is
    a prime or a product of the primes of a lift."""
    prefix, acc = [], 1
    for x in values:
        prefix.append(acc)
        if x:
            acc = acc * x % p
    inv, out = pow(acc, -1, p), [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        if values[i]:
            out[i] = inv * prefix[i] % p
            inv = inv * values[i] % p
    return out


def _crt_lift(ps: Sequence[int], residues: List[List[int]]) -> List[int]:
    """Integers c_j from the (P, len) residues[i][j] = c_j mod ps[i] for the
    primes of `_lift_primes`: Garner's CRT, lifted incrementally, symmetric."""
    lifted, modulus = [0] * len(residues[0]), 1
    for p, row in zip(ps, residues):
        inv = pow(modulus, -1, p)
        lifted = [c + modulus * ((r - c) * inv % p) for c, r in zip(lifted, row)]
        modulus *= p
    return [c - modulus if 2 * c > modulus else c for c in lifted]


# ---------------------------------------------------------------------------
# characteristic polynomials


def _dot_mod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """(a @ b) % p for int64 operands with entries in [0, p) and b at least
    2-D, p broadcasting against the product, summed in chunks of at most
    _DOT_TERMS terms so that no partial sum overflows."""
    out = a @ b if a.shape[-1] <= _DOT_TERMS else a[..., :_DOT_TERMS] @ b[..., :_DOT_TERMS, :]
    out %= p
    for s in range(_DOT_TERMS, a.shape[-1], _DOT_TERMS):
        out += a[..., s:s + _DOT_TERMS] @ b[..., s:s + _DOT_TERMS, :]
        out %= p
    return out


def _by_member(values: Sequence[int]) -> np.ndarray:
    """One value per member of a (P, ...) stack as a (P, 1) int64 column,
    which broadcasts against the member's rows."""
    return np.array(values, dtype=np.int64)[:, None]


def _charpoly_mod(h: np.ndarray, ps: Sequence[int]) -> np.ndarray:
    """Coefficients, constant term first, of det(xI - H_i) mod ps[i] for
    every member of an int64 stack H of shape (P, n, n), member i with
    entries in [0, ps[i]) (overwritten): an int64 array of shape (P, n + 1).

    For each column k, a row and column swap moves a non-zero entry of
    H[k+1:, k] to the pivot H[k+1, k] (a zero column is left alone), row k+1
    is divided by the pivot t and its multiples u clear H[k+2:, k]; the
    inverse column steps, which commute with these, multiply column k+1 by t
    and add H[:, k+2:] @ u. Only the live span lo:hi of rows, from the first
    to the last with a non-zero multiplier in some member, takes part: the
    column steps run before the elimination, as H[:, lo:hi] @ u while
    H[lo:hi, k] still holds u, and the row steps touch only the trailing
    columns k:, since every earlier column is zero on rows k+1 and lo:hi. A
    column with no live row and unit pivots costs only its pivot search. In
    this upper Hessenberg form every subdiagonal entry is 0 or 1, so the
    recurrence of Cohen, Alg. 2.2.9,
    p_m = x p_(m-1) - sum_i H[i, m-1] p_i, sums over the rows i < m of the
    current diagonal block, each p_i read up to its degree i. Members
    disagree only where a prime divides a pivot: each then swaps on its own,
    and a member whose column alone is zero has its block above and right of
    H[k+1, k+1] zeroed, which keeps its characteristic polynomial, so the
    recurrence uses shared starts. Every product is of two residues; sums go
    through `_dot_mod`."""
    n = h.shape[1]
    q = _by_member(ps)
    q3 = q[:, :, None]
    starts = set()
    for k in range(n - 1):
        t = h[:, k + 1, k].tolist()
        if not all(t):
            first = (h[:, k + 1:, k] != 0).argmax(axis=1).tolist()
            for j, i in [(slice(None), first[0])] if len(set(first)) == 1 else enumerate(first):
                for b in (h[j], h[j].swapaxes(-1, -2)) if i else ():
                    row = b[..., k + 1, :].copy()
                    b[..., k + 1, :] = b[..., k + 1 + i, :]
                    b[..., k + 1 + i, :] = row
            t = h[:, k + 1, k].tolist()
        if not any(t):
            starts.add(k + 1)
            continue
        if 0 in t:
            h[[j for j, x in enumerate(t) if not x], :k + 1, k + 1:] = 0
            t = [x or 1 for x in t]
        scale = max(t) > 1
        if scale:
            h[:, k + 1, k:] = h[:, k + 1, k:] * _by_member([pow(x, -1, p) for x, p in zip(t, ps)]) % q
        live = h[:, k + 2:, k].any(axis=0).nonzero()[0]
        if len(live):
            lo, hi = k + 2 + live[0], k + 3 + live[-1]
            u = h[:, lo:hi, k, None]
            col = _dot_mod(h[:, :, lo:hi], u, q3)[..., 0]
            col += h[:, :, k + 1] * _by_member(t) if scale else h[:, :, k + 1]
            h[:, :, k + 1] = col % q
            rest = h[:, lo:hi, k:]
            rest -= u * h[:, None, k + 1, k:]
            rest %= q3
        elif scale:
            h[:, :, k + 1] = h[:, :, k + 1] * _by_member(t) % q
    polys = np.zeros((len(ps), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    start = 0
    for m in range(1, n + 1):
        if m - 1 in starts:
            start = m - 1
        row = polys[:, m, :m + 1]
        row[:, 1:] = polys[:, m - 1, :m]
        row[:, :m] -= _dot_mod(h[:, None, start:m, m - 1], polys[:, start:m, :m], q3)[:, 0]
        row %= q
    return polys[:, n]


def _residues(values, shape: Tuple[int, ...], ps: Sequence[int]) -> np.ndarray:
    """An integer array of the given shape modulo every prime of ps, as an
    int64 stack of shape (P, *shape): reduced in int64 when every value fits
    there and as Python ints otherwise."""
    try:
        big = np.array(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        big = np.array(values, dtype=object).reshape(shape)
    q = np.array(ps, dtype=big.dtype).reshape((-1,) + (1,) * len(shape))
    return (big % q).astype(np.int64, copy=False)


def _centred(rows: Sequence[Sequence[int]], a: int, ps: Sequence[int]) -> np.ndarray:
    """R - aI modulo every prime of ps, a (P, n, n) int64 stack."""
    r, d = _residues(rows, (len(rows),) * 2, ps), np.arange(len(rows))
    if a:
        r[:, d, d] = (r[:, d, d] - _by_member([a % p for p in ps])) % _by_member(ps)
    return r


def _charpoly_lift(rows: Sequence[Sequence[int]], centring: Tuple[int, int]) -> List[int]:
    """The coefficients, constant term first, of c(y + a) = det(yI - (R - aI)),
    monic in Z[y], for the integer rows R of L*M and the centring (a, K') of
    `_scaled_bound(M)`: modulo every prime of `_lift_primes(K')` in one stack
    for `_charpoly_mod`, lifted; `_int_shift(lift, -a)` is c(y) = det(yI - R)."""
    a, ps = centring[0], _lift_primes(centring[1])
    return _crt_lift(ps, _charpoly_mod(_centred(rows, a, ps), ps).tolist())


def charpoly(m) -> Polynomial:
    """det(xI - M) of a rational matrix, exactly, by the multi-modular
    engine (module docstring): c_k(M) = c_k(L*M) / L^k."""
    _require_square(m)
    l, rows, _, centring = _scaled_bound(m)
    return _unscaled(_int_shift(_charpoly_lift(rows, centring), -centring[0]), l)


# ---------------------------------------------------------------------------
# polynomial matrices modulo primes


def _det_mod(a: np.ndarray, q) -> Tuple[np.ndarray, np.ndarray]:
    """(dets, scalings) with det(a[i]) = dets[i] / scalings[i] mod q[i] for
    a stack of shape (B, n, n), int64 in [0, q[i]), q one prime or one per
    member: division-free Gaussian elimination on a copy with the members
    last, so that every step loops over them. At column k each member swaps
    a row with a non-zero entry there into row k (none: pivot 0, singular),
    and each row i below becomes pivot * row i - a_ik * row k, which the
    scaling records. Products are of two residues below 2**26."""
    b, n = a.shape[0], a.shape[1]
    q = np.broadcast_to(np.asarray(q, dtype=np.int64), (b,))
    a = np.ascontiguousarray(a.transpose(1, 2, 0))
    det, scaling, before = np.ones((3, b), dtype=np.int64)
    for k in range(n):
        pivot = a[k, k]  # a view: it sees the swaps
        if not pivot.all():
            first = k + np.argmax(a[k:, k] != 0, axis=0)
            swap = np.flatnonzero(first != k)
            rows = first[swap]
            a[k][:, swap], a[rows, :, swap] = a[rows, :, swap].T, a[k][:, swap].T
            det[swap] = (q[swap] - det[swap]) % q[swap]
        det = det * pivot % q
        scaling = scaling * before % q
        if k + 1 < n:
            unit = np.where(pivot, pivot, 1)
            before = before * unit % q
            rest = a[k + 1:, k + 1:]
            rest *= unit
            rest += a[k + 1:, k, None] * (q - a[None, k, k + 1:])  # non-negative: a faster %
            rest %= q
    return det, scaling


def _schur_rows(pattern: np.ndarray) -> Tuple[np.ndarray, int]:
    """The order that puts the Schur rows of a square pattern of non-zero
    entries first, and their number lead: a row, in row order, whenever no
    entry couples it to one already taken, so that the leading
    lead x lead block, rows and columns permuted alike, is diagonal."""
    taken, coupled = np.zeros((2, len(pattern)), dtype=bool)
    for r in range(len(pattern)):
        if not coupled[r]:
            taken[r] = True
            coupled |= pattern[r] | pattern[:, r]
    return np.concatenate([np.flatnonzero(taken), np.flatnonzero(~taken)]), int(taken.sum())


def _polymatrix_det_mod(coeffs: np.ndarray, index: np.ndarray, points: Sequence[int], ps: Sequence[int],
                        lead: int) -> np.ndarray:
    """det(N(t)) mod p for every prime p of ps and integer t of `points`, a
    (P, len(points)) int64 array, for N[i][j] the polynomial of row
    index[i, j] of the (P, R, depth) int64 residues `coeffs` (x^d in column
    d, member i modulo ps[i]) whose leading lead x lead block D is
    diagonal: one `_dot_mod` evaluates every row at every point modulo
    every prime, and the point matrices are gathered through the index.
    With d = prod diag(D) and e_a = d / D_aa, the Schur complement
    S = C - B D^-1 E is formed as d S = d C - B diag(e) E by one batched
    `_dot_mod`, so det N = d det(d S) / d^r with r its order; `_det_mod`
    eliminates every d S, and one batch of `_inverses` per prime divides out
    its scalings and d^r. Every entry of D must be a unit mod p at every
    point: ValueError otherwise."""
    r, t = index.shape[0] - lead, len(points)
    q = _by_member(ps)
    q4 = q[:, :, None, None]
    x = np.array(points, dtype=np.int64) % q
    powers = np.ones((len(ps), t, coeffs.shape[2]), dtype=np.int64)
    for e in range(1, coeffs.shape[2]):
        powers[:, :, e] = powers[:, :, e - 1] * x % q
    values = _dot_mod(powers, coeffs.transpose(0, 2, 1), q[:, :, None])  # (P, points, rows)
    pivots = values[:, :, np.diagonal(index)[:lead]]
    if not pivots.all():
        raise ValueError(f"a diagonal entry of the leading block is 0 mod {ps[pivots.all(axis=(1, 2)).argmin()]}")
    # d and every e_a from the prefix and suffix products of the pivots, by doubling scans
    before, after = np.ones((2, len(ps), t, lead + 1), dtype=np.int64)
    before[:, :, 1:] = after[:, :, :-1] = pivots
    for s in (1 << k for k in range(lead.bit_length())):
        before[:, :, s:] = before[:, :, s:] * before[:, :, :-s] % q[:, :, None]
        after[:, :, :-s] = after[:, :, :-s] * after[:, :, s:] % q[:, :, None]
    d = before[:, :, lead]
    left = values[:, :, index[lead:, :lead]] * (before[:, :, None, :lead] * after[:, :, None, 1:] % q4) % q4
    rest = (values[:, :, index[lead:, lead:]] * d[:, :, None, None] + q4
            - _dot_mod(left, values[:, :, index[:lead, lead:]], q4)) % q4
    dets, scalings = _det_mod(rest.reshape(len(ps) * t, r, r), np.repeat(ps, t))
    den = zip(scalings.reshape(len(ps), t).tolist(), d.tolist(), ps)
    inverse = [_inverses([c * pow(dt, r, p) % p for c, dt in zip(cs, ds)], p) for cs, ds, p in den]
    return d * dets.reshape(len(ps), t) % q * np.array(inverse, dtype=np.int64) % q


def _interpolate_mod(xs: Sequence[int], ys, ps: Sequence[int]) -> np.ndarray:
    """Coefficients, constant term first, of the polynomial of degree below
    len(xs) through the points (xs[j], ys[i][j]) mod ps[i], for all rows i
    at once, as a (P, len(xs)) int64 array, for increasing non-negative xs
    below every prime: Newton divided differences, then the Newton form
    expanded, points by primes. Every step multiplies two residues, and
    the differences are inverted once modulo the product of the primes."""
    n, q = len(xs), np.transpose(_by_member(ps))
    x = np.array(xs, dtype=np.int64)
    span = xs[-1] - xs[0] + 1
    inverse = _residues(_inverses(range(span), math.prod(ps)), (span,), ps).T
    c = np.array(ys, dtype=np.int64).T % q
    for j in range(1, n):
        c[j:] = (c[j:] - c[j - 1:-1]) % q * inverse[x[j:] - x[:-j]] % q
    out = np.zeros_like(c)
    for i in range(n - 1, -1, -1):
        out[1:] = out[:-1] - xs[i] * out[1:]
        out[0] = c[i] - xs[i] * out[0]
        out %= q
    return out.T


# ---------------------------------------------------------------------------
# the walk and block lifts


def _walk_lift(rows: Sequence[Sequence[int]], phi: Sequence[int], side, centring: Tuple[int, int],
               cells: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """The n coefficients, lowest first, of each entry (a, b) of `cells`, in
    that order, of E'^T adj(yI - R) E' for the integer rows R, the
    coefficients phi of det(yI - R), constant term first, an integer side E'
    of at least one column and the centring (a, K') of `_scaled_bound`: the
    module docstring's walk on R - aI and phi(y + a) modulo the primes of
    K' * norm^2 in one stack, then one `_crt_lift`, each entry shifted back."""
    n, cols = len(rows), len(side[0])
    a, bound = centring
    # the largest column 1-norm, at least 1 so that a zero side keeps a positive bound
    norm = max(1, *(sum(map(abs, col)) for col in zip(*side)))
    ps = _lift_primes(bound * norm * norm)
    q = np.array(ps, dtype=np.int64)[:, None, None]
    e0 = _residues(side, (n, cols), ps)
    step = np.concatenate([_centred(rows, a, ps), e0.transpose(0, 2, 1)], axis=1)
    c = _residues(_int_shift(phi, a), (n + 1,), ps)[:, :, None, None]
    # layers[d] holds the coefficients of y^d, layer k = n - 1 - d
    layers = np.empty((n, len(ps), cols, cols), dtype=np.int64)
    y = e0
    for k in range(n):
        walk = _dot_mod(step, y, q)
        layers[n - 1 - k] = walk[:, n:]
        if k + 1 < n:
            y = walk[:, :n]
            y += c[:, n - 1 - k] * e0
            y %= q
    i, j = zip(*cells)
    lifted = _crt_lift(ps, layers[:, :, list(i), list(j)].transpose(1, 2, 0).reshape(len(ps), -1).tolist())
    lifted = [lifted[t * n:(t + 1) * n] for t in range(len(cells))]
    return [_int_shift(p, -a) for p in lifted] if a else lifted


def _block_lift(rows: Sequence[Sequence[int]], index: np.ndarray, points: Sequence[int], tops: Sequence[int],
                bottoms: Sequence[int], l: int, centring: Tuple[int, int], direct: Sequence[int]) -> List[int]:
    """c(y + a) for c(y) = det(yI - L*M), in Z[y], from the integer
    coefficient rows, of one length (row 0 zero), and the index of a
    polynomial matrix N, N[i][j] = rows[index[i, j]], whose diagonal entries
    are units at every point modulo every prime the lift keeps, with
    det(tI - M) = det N(t) * tops[j] / bottoms[j] at the points
    t = points[j], n + 1 increasing non-negative integers for
    n = deg det(xI - M), the common denominator L and centring (a, K') of
    `_scaled_bound(M)`: the `direct` lift c(y + a), constant term first,
    when the check of the module docstring passes, else the block's own
    integers, shifted alike. `_polymatrix_det_mod` runs once per group of
    primes, on rows reduced once for all of them."""
    n, (a, bound) = len(points) - 1, centring
    ps = _lift_primes(bound, lambda p: p <= points[-1] or l % p == 0 or any(b % p == 0 for b in bottoms))
    modulus, q = math.prod(ps), _by_member(ps)
    order, lead = _schur_rows(index > 0)
    index = index[order[:, None], order]
    coeffs = _residues(rows, (len(rows), len(rows[0])), ps)
    group = max(1, _STACK_ENTRIES // max(1, len(points) * index.size))
    dets = np.concatenate([_polymatrix_det_mod(coeffs[i:i + group], index, points, ps[i:i + group], lead)
                           for i in range(0, len(ps), group)])
    top, bottom = (_residues(f, (n + 1,), ps) for f in (tops, bottoms))
    if len(direct) == n + 1 and all(2 * abs(c) < modulus for c in direct):
        # columns s to 2s - 1 of the powers of L*t - a are columns 0 to s - 1 times (L*t - a)^s
        x = (_by_member([l % p for p in ps]) * points - _by_member([a % p for p in ps])) % q
        powers, s = np.ones((len(ps), n + 1, len(points)), dtype=np.int64), 1
        while s <= n:
            powers[:, s:2 * s] = powers[:, :min(s, n + 1 - s)] * x[:, None] % q[:, None]
            x, s = x * x % q, 2 * s
        value = _dot_mod(_residues(direct, (1, n + 1), ps), powers, q[:, :, None])[:, 0]  # direct(L*t - a)
        if np.array_equal(dets * top % q * _by_member([pow(l, n, p) for p in ps]) % q, value * bottom % q):
            return list(direct)
    factors = top * np.array([_inverses(row, p) for row, p in zip(bottom.tolist(), ps)]) % q
    # coefficient j of det(tI - M) times L^(n-j)
    scales = list(itertools.accumulate(range(n), lambda power, _: power * l % modulus, initial=1))
    c = _interpolate_mod(points, dets * factors % q, ps) * _residues(scales[::-1], (n + 1,), ps) % q
    return [(x + modulus // 2) % modulus - modulus // 2 for x in _int_shift(_crt_lift(ps, c.tolist()), a)]


# ---------------------------------------------------------------------------
# rational eigenvalues


def _integer_roots(coeffs: Sequence[int], rows: Sequence[Sequence[int]], a: int = 0) -> List[Tuple[int, int]]:
    """The integer roots z, ascending, with multiplicities, of
    coeffs = P(z + a), P = s^d p(y / s) for a monic divisor p of
    det(xI - M), the integer rows R of s*M and a common denominator s of M:
    the scan of the module docstring over the z with |z + a| and |z| within
    the Gershgorin bounds of R and R - aI, TooLargeError when both exceed
    `_EIGEN_SCAN_LIMIT`."""
    sums = [(sum(map(abs, row)), abs(row[i] - a) - abs(row[i])) for i, row in enumerate(rows)]
    bound, centred = max((r for r, _ in sums), default=0), max((r + d for r, d in sums), default=0)
    b = min(bound, centred)
    if b > _EIGEN_SCAN_LIMIT:
        raise TooLargeError(f"rational eigenvalue scan over [-{b}, {b}] exceeds the limit of {_EIGEN_SCAN_LIMIT}")
    lo, hi = max(-centred, -bound - a), min(centred, bound - a)
    trailing = next((c for c in coeffs if c), 0)
    return [(z, _int_multiplicity(coeffs, [-z, 1])) for z in range(lo, hi + 1)
            if (z == 0 or trailing % z == 0) and _int_coeff_eval(coeffs, z) == 0]


def rational_roots(p: Polynomial, m) -> Tuple[Tuple[Tuple[Fraction, int], ...], Polynomial]:
    """The rational roots, ascending, with multiplicities, of a monic
    divisor p of det(xI - M), and the cofactor of p left after dividing
    them all out. With L the common denominator of M, L^d p(y / L) is monic
    in Z[y] (InexactDivisionError when it is not integral); its integer
    roots y (`_integer_roots`) give the roots y / L, and each division by
    y - root is exact there."""
    _require_square(m)
    l, rows = _scaled_rows(m)
    coeffs = _scaled(p, l)
    roots = _integer_roots(coeffs, rows)
    for y, e in roots:
        for _ in range(e):
            coeffs = _int_divexact(coeffs, [-y, 1])
    return tuple((Fraction(y, l), e) for y, e in roots), _unscaled(coeffs, l)
