"""Generalized joins over vertex subsets, their universal characteristic
polynomials via per-factor main functions, and hypothesis-checked
constructions of cospectral non-isomorphic pairs.

A generalized join is the join whose side E_i is the subset indicator
1_{S_i}, so its blocks come from `spectra._universal_blocks` like those
of a labeled join. `_slot_hypotheses` is the only place that knows,
for factor slot i, its main function on those blocks and its hypothesis
data. The main function feeds the block charpoly and is a certificate's
witness; the hypothesis data gates `check_cospectral_conditions` pairwise.

`search_pairs` groups (graph, subset) configurations by that data with
walk sums for main functions: Z^T (xI - M)^{-1} Z = sum_t x^(-t-1) Z^T M^t Z,
and by Cayley-Hamilton phi = det(xI - M) and the walk sums for t < n give
the rest (Godsil, Algebraic Combinatorics, 1993, ch. 4). The key of (G, S)
holds n, |S|, for kinds A and S the regular degree (an irregular G has
none), phi of U = U(G) and 1_S^T U^t 1_S; with gamma != 0 = delta also
1^T U^t 1_S and 1^T U^t 1 (the side [1 | 1_S]); with delta != 0 also phi
of the corrected U + delta diag(1_S) and its walk sums on the side 1_S, or
[1 | 1_S] if gamma != 0. All are integers of d*U, d the common denominator
of the parameters, one scale for the whole search."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    HypothesisNotMetError,
    InvalidParametersError,
    TheoremViolationError,
    TooLargeError,
)
from .exactlinalg import charpoly
from .graphs import Graph, UniversalParams, make_named, universal_matrix
from .joins import IndexingMap, JoinSpec, hm_join
from .polynomials import Polynomial, _unscaled, _Value
from .spectra import _resolvent, _universal_blocks, main_function, reduced_block_charpoly

COSPECTRAL_KINDS = ("A", "S", "L", "U")

# designated matrices for the fixed-kind constructions
_KIND_PRESETS = {
    "A": "A",
    "S": "seidel",
    "L": "L",
}

_ISOMORPHISM_LIMIT = 32
# Most (graph, subset) configurations one pair search takes on. Each costs
# its walk sums, and a charpoly when delta != 0. A whole search on
# `fixtures/catalog.json`, in process, least of two runs on a 2-core Xeon
# (Python 3.11, one OpenBLAS thread), takes 0.33, 1.5 and 0.35 s for kinds
# A, L and S at budget 3 (1,613 configurations: 0.20, 0.94 and 0.22 ms
# each) and 0.46, 4.7 and 0.59 s at budget 4 (5,313), so a kind-L search at
# the cap runs about 9 s. Budget 6 gives 30,083.
_CONFIGURATION_LIMIT = 10_000


class GeneralizedJoinSpec(_Value):
    """A host graph, one factor per host vertex, one vertex subset per
    factor, and universal parameters.  Cross edges run between the chosen
    subsets of factors joined by a host edge. A refused factor carries
    `where` "/factors/<i>", a refused subset "/subsets/<i>/<j>": a repeated
    vertex at its second occurrence, a vertex outside the factor at the
    first position of the least such vertex."""

    __slots__ = ("host", "factors", "subsets", "params")

    def __init__(self, host: Graph, factors: Sequence[Graph],
                 subsets: Sequence[Sequence[int]], params: UniversalParams):
        factors = tuple(factors)
        subsets = tuple(tuple(s) for s in subsets)
        if len(factors) != host.n:
            raise InvalidParametersError(
                "expected %d factors for the host, got %d" % (host.n, len(factors)))
        if len(subsets) != host.n:
            raise InvalidParametersError(
                "expected %d subsets for the host, got %d" % (host.n, len(subsets)))
        for i, (g, subset) in enumerate(zip(factors, subsets)):
            if g.n == 0:
                raise InvalidParametersError("factor %d has no vertices" % i, "/factors/%d" % i)
            seen = set()
            for j, v in enumerate(subset):
                where = "/subsets/%d/%d" % (i, j)
                if type(v) is not int:
                    raise InvalidParametersError("subset %d holds a vertex that is not an integer" % i, where)
                if v in seen:
                    raise InvalidParametersError("subset %d repeats a vertex" % i, where)
                seen.add(v)
            v = min((v for v in subset if not 0 <= v < g.n), default=None)
            if v is not None:
                raise InvalidParametersError("subset %d contains %r, not a vertex of factor %d" % (i, v, i),
                                             "/subsets/%d/%d" % (i, subset.index(v)))
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "subsets", tuple(tuple(sorted(s)) for s in subsets))
        object.__setattr__(self, "params", params)

    @property
    def k(self) -> int:
        return self.host.n

    def to_hm(self) -> JoinSpec:
        """Equivalent labeled join specification on m = k + 1 labels:
        vertices of S_i get label 1, the rest of factor i the label i + 2."""
        m = self.k + 1
        maps = [IndexingMap([1 if v in s else i + 2 for v in range(g.n)], m)
                for i, (g, s) in enumerate(zip(self.factors, self.subsets))]
        return JoinSpec(self.host, self.factors, m, maps)

    def join_graph(self) -> Graph:
        return hm_join(self.to_hm())

    def subset_indicators(self) -> List[List[List[int]]]:
        """The n_i x 1 side 1_{S_i} of every factor: cross block (i, j) of
        the join is rho_ij 1_{S_i} 1_{S_j}^T."""
        return [[[int(v in s)] for v in range(g.n)] for g, s in zip(self.factors, self.subsets)]


def generalized_universal_charpoly(spec: GeneralizedJoinSpec) -> Polynomial:
    """Characteristic polynomial of the universal matrix of the join graph,
    computed from factor charpolys and the slot main functions, and
    cross-checked against the direct vertex-level computation."""
    blocks, weights = _universal_blocks(spec.host, spec.factors, spec.subset_indicators(), spec.params)
    matrix = universal_matrix(spec.join_graph(), spec.params)
    _, l, lift, _ = reduced_block_charpoly(blocks, weights, matrix)
    return _unscaled(lift, l)


def _joint_color_refinement(a: Graph, b: Graph):
    """Degree-seeded color refinement run jointly so class ids are shared:
    the colors of a and b, and the adjacency lists it refined them on."""
    adj = [a.adjacency(), b.adjacency()]
    colors = [list(g.degrees()) for g in (a, b)]
    while True:
        table: Dict[tuple, int] = {}
        fresh = [[0] * a.n, [0] * b.n]
        changed = False
        for gi in range(2):
            for v in range(len(colors[gi])):
                sig = (colors[gi][v],
                       tuple(sorted(colors[gi][u] for u in adj[gi][v])))
                code = table.setdefault(sig, len(table))
                fresh[gi][v] = code
                if code != colors[gi][v]:
                    changed = True
        colors = fresh
        if not changed:
            return colors, adj


def isomorphism_test(a: Graph, b: Graph) -> bool:
    """Exact isomorphism decision by color refinement plus class-respecting
    backtracking.  Deterministic; rejects graphs above the size limit."""
    if a.n > _ISOMORPHISM_LIMIT or b.n > _ISOMORPHISM_LIMIT:
        raise TooLargeError(
            "isomorphism testing is limited to %d vertices" % _ISOMORPHISM_LIMIT)
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    (ca, cb), adjacency = _joint_color_refinement(a, b)
    hist_a, hist_b = Counter(ca), Counter(cb)
    if hist_a != hist_b:
        return False
    adj_a, adj_b = ([set(nb) for nb in adj] for adj in adjacency)
    # assign vertices from the rarest color classes first
    order = sorted(range(a.n), key=lambda v: (hist_a[ca[v]], ca[v], v))
    candidates = [sorted(w for w in range(b.n) if cb[w] == ca[v]) for v in order]
    image = [-1] * a.n
    used = [False] * b.n

    def extend(pos: int) -> bool:
        if pos == a.n:
            return True
        v = order[pos]
        for w in candidates[pos]:
            if used[w]:
                continue
            for u in order[:pos]:
                if (u in adj_a[v]) != (image[u] in adj_b[w]):
                    break
            else:
                image[v], used[w] = w, True
                if extend(pos + 1):
                    return True
                image[v], used[w] = -1, False
        return False

    return extend(0)


def _verdict(a: Graph, b: Graph) -> Optional[bool]:
    """Isomorphism of two joins, or None above the decision limit."""
    if a.n <= _ISOMORPHISM_LIMIT and b.n <= _ISOMORPHISM_LIMIT:
        return isomorphism_test(a, b)
    return None


class CospectralCertificate(_Value):
    """Verified outcome of a cospectral construction: the two specs, the
    designated charpoly the joins share, the per-factor slot main functions
    as witnesses, and an isomorphism verdict (None when the joins exceed the
    decision limit). A witness is 1_S^T (xI - M)^{-1} 1_S when gamma = 0
    and S^T (xI - M)^{-1} S with S = [1 | 1_S] otherwise, M the slot's
    block of the join's universal matrix (its factor's own when
    delta = gamma = 0); `serialize.certificate_to_json` prints the latter
    with row 0 times gamma."""

    __slots__ = ("kind", "spec_a", "spec_b", "charpoly", "isomorphic", "gamma_witness")


def kind_parameters(kind: str, params: Optional[UniversalParams] = None) -> UniversalParams:
    """Universal parameters designated by a cospectrality kind."""
    if kind not in COSPECTRAL_KINDS:
        raise InvalidParametersError(
            "unknown cospectrality kind %r (expected one of %s)"
            % (kind, ", ".join(COSPECTRAL_KINDS)))
    if kind == "U":
        if params is None:
            raise InvalidParametersError(
                "kind U needs explicit universal parameters")
        return params
    return UniversalParams.preset(_KIND_PRESETS[kind])


def _slot_hypotheses(spec: GeneralizedJoinSpec, i: int, kind: str):
    """Hypothesis data of factor slot i as lazy (label, value) pairs, in
    the order they are checked; two slots meet the kind's hypotheses when
    every pair agrees.  A regular degree of None marks an irregular graph.
    Main functions compare by their normal form (g, f).  The last value is
    the slot's determinant witness: the subset main function itself when
    delta = gamma = 0 (the corrected matrix is then the designated one and
    the side is 1_S), else the main function of the slot's block, on the
    side [1 | 1_S] when gamma != 0. gamma != 0 is fixed within a check or
    a search, so two such witnesses are equal exactly when their printed
    forms, row 0 times gamma, are."""
    g, subset, params = spec.factors[i], spec.subsets[i], spec.params
    yield "vertex counts", g.n
    yield "subset sizes", len(subset)
    if kind in ("A", "S"):
        yield "regular degrees", g.is_regular()
    sides = spec.subset_indicators()
    scalar = main_function(universal_matrix(g, params), sides[i])
    yield "designated charpolys", scalar.charpoly
    yield "subset main functions", scalar
    if params.delta == 0 and params.gamma == 0:
        return
    # S_i^T (xI - M_i)^{-1} S_i on block i of the join's universal matrix
    blocks, _ = _universal_blocks(spec.host, spec.factors, sides, params)
    witness = main_function(*blocks[i])
    if params.delta != 0:
        # cross edges shift the subset diagonal, so the corrected
        # matrices must agree as well
        yield "corrected charpolys", witness.charpoly
    label = "corrected subset main functions" if params.gamma == 0 else "augmented main functions"
    yield label, witness


def check_cospectral_conditions(spec_a: GeneralizedJoinSpec,
                                spec_b: GeneralizedJoinSpec,
                                kind: str) -> CospectralCertificate:
    """Verify the hypothesis set of the chosen kind factor by factor, then
    build both joins and compare their designated charpolys exactly.

    Raises HypothesisNotMetError naming the first violated condition, and
    TheoremViolationError if the hypotheses hold yet the charpolys differ."""
    return _certify(spec_a, spec_b, kind)


def _certify(spec_a: GeneralizedJoinSpec, spec_b: GeneralizedJoinSpec, kind: str,
             screened: Optional[tuple] = None) -> CospectralCertificate:
    """`check_cospectral_conditions`, reusing the (join_a, join_b, verdict)
    that a pair search already built and decided for the two specs."""
    params = kind_parameters(kind, spec_a.params)
    if spec_a.host != spec_b.host:
        raise HypothesisNotMetError("host graphs differ")
    if kind == "U" and spec_a.params != spec_b.params:
        raise HypothesisNotMetError("universal parameters differ")
    normalized_a = GeneralizedJoinSpec(spec_a.host, spec_a.factors, spec_a.subsets, params)
    normalized_b = GeneralizedJoinSpec(spec_b.host, spec_b.factors, spec_b.subsets, params)
    witnesses = []
    for i in range(spec_a.k):
        pairs = zip(_slot_hypotheses(normalized_a, i, kind), _slot_hypotheses(normalized_b, i, kind))
        for (label, va), (_, vb) in pairs:
            if label == "regular degrees" and None in (va, vb):
                raise HypothesisNotMetError("factor %d: %s graph is not regular"
                                            % (i, "first" if va is None else "second"))
            if va != vb:
                detail = " (%d vs %d)" % (va, vb) if isinstance(va, int) else ""
                raise HypothesisNotMetError("factor %d: %s differ%s" % (i, label, detail))
        witnesses.append(va)  # the last value is the slot's witness
    join_a, join_b, verdict = screened or (normalized_a.join_graph(), normalized_b.join_graph(), None)
    pa = charpoly(universal_matrix(join_a, params))
    pb = charpoly(universal_matrix(join_b, params))
    if pa != pb:
        raise TheoremViolationError(
            "hypotheses hold but the kind-%s charpolys of the joins differ" % kind)
    if screened is None:
        verdict = _verdict(join_a, join_b)
    return CospectralCertificate(kind, normalized_a, normalized_b, pa, verdict, tuple(witnesses))


def _powers(m: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    """y, m y, ..., m^(count-1) y for integer m of order n and 0/1 y: in
    int64 when rho and rho^(count-1) n^2 are below 2^62 for rho the largest
    row 1-norm of m, which bounds every entry, partial sum and sum of n^2
    entries of a power, else in Python ints."""
    n, rho = m.shape[-1], int(np.abs(m).sum(-1).max())
    dtype = np.int64 if max(rho, rho ** (count - 1) * n * n) < 1 << 62 else object
    m, out = m.astype(dtype), [y.astype(dtype)]
    for _ in range(count - 1):
        out.append(m @ out[-1])
    return np.stack(out)


def _walk_keys(g: Graph, sizes: Sequence[int], kind: str, params: UniversalParams):
    """(S, key) for every subset S of g of each size in turn, in the order
    of `combinations` (none when the kind needs a regular graph and g is
    not): the walk-sum key of the module docstring."""
    r = g.is_regular() if kind in ("A", "S") else 0
    if r is None:
        return
    d, n = math.lcm(*(v.denominator for v in params.as_tuple())), g.n
    m = np.array([[int(x * d) for x in row] for row in universal_matrix(g, params)], dtype=object)
    phi = _resolvent(tuple(map(tuple, m.tolist())))[1]
    table = _powers(m, np.eye(n, dtype=np.int64), n)  # table[t] = (dU)^t
    for size in sizes:
        idx = np.array(list(combinations(range(n), size)))
        rows = [table[:, idx[:, :, None], idx[:, None, :]].sum((2, 3))]  # [t, S]: 1_S^T (dU)^t 1_S
        if params.delta != 0:
            x = (idx[:, :, None] == np.arange(n)).sum(1)  # [S, v]: 1_S
            corrected = m + int(d * params.delta) * (x[:, :, None] * np.eye(n, dtype=object))
            side = x[:, :, None] if params.gamma == 0 else np.stack((np.ones_like(x), x), 2)
            walks = np.swapaxes(side, 1, 2) @ _powers(corrected, side, n)  # [t, S, a, b]
            rows.append(walks.transpose(0, 2, 3, 1).reshape(-1, len(idx)))
            rows.append(np.array([_resolvent(tuple(map(tuple, c)))[1] for c in corrected.tolist()], dtype=object).T)
        elif params.gamma != 0:  # the side [1 | 1_S] of U(g) itself
            rows += [table.sum(1)[:, idx].sum(2), np.repeat(table.sum((1, 2))[:, None], len(idx), 1)]
        for subset, walk in zip(idx.tolist(), np.concatenate(rows).T.tolist()):
            yield tuple(subset), (n, size, r, phi, tuple(walk))


def _subset_sizes(n: int, subset_budget: int) -> List[int]:
    """Subset sizes searched on an n-vertex graph: 1 to the budget, and n."""
    return sorted(set(range(1, min(subset_budget, n) + 1)) | {n})


def _configuration_count(catalog: Sequence[Graph], subset_budget: int) -> int:
    """How many (graph, subset) configurations `search_pairs` enumerates."""
    return sum(math.comb(g.n, size) for g in catalog for size in _subset_sizes(g.n, subset_budget))


def search_pairs(catalog: Sequence[Graph], subset_budget: int, kind: str,
                 params: Optional[UniversalParams] = None) -> List[CospectralCertificate]:
    """Enumerate (graph, subset) configurations over a graph catalog, group
    them by their kind hypothesis data, and certify same-group pairs as
    two-factor joins against a fixed single-vertex anchor factor.

    Subset sizes run from 1 to the budget; the full vertex set (the
    classical complete join) is always tried as well.  Within a group the
    join characteristic polynomial is pinned by the shared hypothesis data,
    so only the isomorphism verdict can vary: pairs are screened with the
    cheap isomorphism test first and fully certified once per new verdict.
    Members of a group share their vertex count, so once one pair is beyond
    the isomorphism limit (verdict None) every pair is, and the group stops.
    It stops as well once the first member's pairs have all been
    isomorphic: by transitivity, so is every later pair."""
    if subset_budget < 1:
        raise InvalidParametersError("subset budget must be at least 1")
    chosen = kind_parameters(kind, params)
    for i, g in enumerate(catalog):
        if g.n == 0:
            raise InvalidParametersError("catalog graph %d has no vertices" % i)
    count = _configuration_count(catalog, subset_budget)
    if count > _CONFIGURATION_LIMIT:
        raise TooLargeError(
            "subset budget %d gives %d (graph, subset) configurations; the search is limited to %d"
            % (subset_budget, count, _CONFIGURATION_LIMIT))
    host, anchor = make_named("complete", [2]), make_named("complete", [1])
    groups: Dict[tuple, List[Tuple[Graph, Tuple[int, ...]]]] = {}
    for g in catalog:
        for subset, key in _walk_keys(g, _subset_sizes(g.n, subset_budget), kind, chosen):
            groups.setdefault(key, []).append((g, subset))
    results: List[CospectralCertificate] = []
    seen_pairs = set()
    for members in groups.values():
        verdicts_seen: set = set()
        built: Dict[int, tuple] = {}  # each member's spec and join, built once
        for i, j in combinations(range(len(members)), 2):
            if members[i] == members[j]:
                continue
            if None in verdicts_seen or verdicts_seen == {True, False} or (i and False not in verdicts_seen):
                break
            for x in {i, j} - built.keys():
                spec = GeneralizedJoinSpec(host, (members[x][0], anchor), (members[x][1], (0,)), chosen)
                built[x] = spec, spec.join_graph()
            (spec_a, join_a), (spec_b, join_b) = built[i], built[j]
            verdict = _verdict(join_a, join_b)
            if verdict in verdicts_seen:
                continue
            verdicts_seen.add(verdict)
            cert = _certify(spec_a, spec_b, kind, (join_a, join_b, verdict))
            dedup = (cert.charpoly.coeffs, cert.isomorphic)
            if dedup in seen_pairs:
                continue
            seen_pairs.add(dedup)
            results.append(cert)
    return results
