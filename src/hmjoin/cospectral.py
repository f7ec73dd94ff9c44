"""Generalized joins over vertex subsets, their universal characteristic
polynomials via 2x2 main-function blocks, closed forms for regular factors,
and hypothesis-checked constructions of cospectral non-isomorphic pairs."""

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BlockFactorizationError,
    HypothesisNotMetError,
    InvalidParametersError,
    TheoremViolationError,
    TooLargeError,
)
from .exactlinalg import RatFunMatrix, charpoly
from .graphs import Graph, UniversalParams, make_named, universal_matrix
from .joins import generalized_to_hm, hm_join
from .polynomials import Polynomial, RationalFunction
from .spectra import MainFunction, main_function_bilinear, reduced_block_charpoly

COSPECTRAL_KINDS = ("A", "S", "L", "U")

# designated matrices for the fixed-kind constructions
_KIND_PRESETS = {
    "A": "A",
    "S": "seidel",
    "L": "L",
}

_ISOMORPHISM_LIMIT = 32


class GeneralizedJoinSpec:
    """A host graph, one factor per host vertex, one vertex subset per
    factor, and universal parameters.  Cross edges run between the chosen
    subsets of factors joined by a host edge."""

    __slots__ = ("host", "factors", "subsets", "params")

    def __init__(self, host: Graph, factors: Sequence[Graph],
                 subsets: Sequence[Sequence[int]], params: UniversalParams):
        if len(factors) != host.n:
            raise InvalidParametersError(
                "expected %d factors for the host, got %d" % (host.n, len(factors)))
        if len(subsets) != host.n:
            raise InvalidParametersError(
                "expected %d subsets for the host, got %d" % (host.n, len(subsets)))
        cleaned = []
        for i, subset in enumerate(subsets):
            seen = sorted(set(subset))
            if len(seen) != len(tuple(subset)):
                raise InvalidParametersError("subset %d repeats a vertex" % i)
            for v in seen:
                if not (0 <= v < factors[i].n):
                    raise InvalidParametersError(
                        "subset %d contains %r, not a vertex of factor %d" % (i, v, i))
            cleaned.append(tuple(seen))
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "subsets", tuple(cleaned))
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError("GeneralizedJoinSpec is immutable")

    def __eq__(self, other):
        if not isinstance(other, GeneralizedJoinSpec):
            return NotImplemented
        return (self.host == other.host and self.factors == other.factors
                and self.subsets == other.subsets and self.params == other.params)

    def __hash__(self):
        return hash((self.host, self.factors, self.subsets, self.params))

    @property
    def k(self) -> int:
        return self.host.n

    def to_hm(self):
        """Equivalent labeled join specification (label 1 marks subsets)."""
        return generalized_to_hm(self.host, self.factors, self.subsets)

    def join_graph(self) -> Graph:
        return hm_join(self.to_hm())

    def cross_weights(self) -> Tuple[int, ...]:
        """w_i = total subset size over host neighbors of vertex i; every
        subset vertex of factor i gains exactly w_i cross edges."""
        return tuple(
            sum(len(self.subsets[j]) for j in self.host.neighbors(i))
            for i in range(self.k))


class AugmentedSideMatrices:
    """Side matrices U = [gamma*1 | 1_S] and V = [1 | 1_S] that factor both
    the all-ones coupling and the subset coupling of a generalized join."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        object.__setattr__(self, "u", tuple(tuple(row) for row in u))
        object.__setattr__(self, "v", tuple(tuple(row) for row in v))

    def __setattr__(self, name, value):
        raise AttributeError("AugmentedSideMatrices is immutable")


def augmented_side_matrices(g: Graph, subset: Sequence[int],
                            params: UniversalParams) -> AugmentedSideMatrices:
    members = set(subset)
    u = [[params.gamma, Fraction(1 if v in members else 0)] for v in range(g.n)]
    v = [[Fraction(1), Fraction(1 if w in members else 0)] for w in range(g.n)]
    return AugmentedSideMatrices(u, v)


def corrected_factor_matrix(spec: GeneralizedJoinSpec, i: int):
    """Universal matrix of factor i plus the cross-degree contribution
    delta * w_i on the subset diagonal positions."""
    g = spec.factors[i]
    m = universal_matrix(g, spec.params)
    shift = spec.params.delta * spec.cross_weights()[i]
    if shift:
        for v in spec.subsets[i]:
            m[v][v] += shift
    return m


def _factor_block_data(spec: GeneralizedJoinSpec) -> List[MainFunction]:
    data = []
    for i in range(spec.k):
        sides = augmented_side_matrices(spec.factors[i], spec.subsets[i], spec.params)
        data.append(main_function_bilinear(corrected_factor_matrix(spec, i),
                                           sides.u, sides.v))
    return data


def generalized_universal_charpoly(spec: GeneralizedJoinSpec) -> Polynomial:
    """Characteristic polynomial of the universal matrix of the join graph,
    computed from factor charpolys and 2x2 bilinear main functions, and
    cross-checked against the direct vertex-level computation."""
    alpha = spec.params.alpha
    host_edges = spec.host.edges
    # the all-ones coupling touches every factor pair; the subset coupling
    # only pairs joined by a host edge
    result = reduced_block_charpoly(
        _factor_block_data(spec),
        lambda i, j: (1, alpha if (min(i, j), max(i, j)) in host_edges else 0))
    direct = charpoly(universal_matrix(spec.join_graph(), spec.params))
    if result != direct:
        raise BlockFactorizationError(
            "block universal charpoly disagrees with the direct computation")
    return result


def regular_gamma_closed_form(g: Graph, subset: Sequence[int],
                              params: UniversalParams) -> RationalFunction:
    """Closed form for 1_S^T (xI - U(G))^{-1} 1 on a regular graph: the
    all-ones vector is an eigenvector, so the bilinear collapses to
    |S| / (x - theta) with theta the main eigenvalue of U(G).

    Two hypothesis cases are accepted: delta = 0 (theta = alpha*r + beta +
    gamma*n) and alpha = -delta (theta = beta + gamma*n, since alpha*A(G) +
    delta*D(G) kills the all-ones vector)."""
    r = g.is_regular()
    if r is None:
        raise HypothesisNotMetError("closed form requires a regular graph")
    members = sorted(set(subset))
    for v in members:
        if not (0 <= v < g.n):
            raise InvalidParametersError("%r is not a vertex of the graph" % (v,))
    n = g.n
    if params.delta == 0:
        theta = params.alpha * r + params.beta + params.gamma * n
    elif params.alpha == -params.delta:
        theta = params.beta + params.gamma * n
    else:
        raise HypothesisNotMetError(
            "closed form requires delta = 0 or alpha = -delta")
    pole = Polynomial((-theta, Fraction(1)))
    closed = RationalFunction(Polynomial.constant(Fraction(len(members))), pole)
    ones = [[Fraction(1)] for _ in range(n)]
    sel = [[Fraction(1 if v in set(members) else 0)] for v in range(n)]
    direct = main_function_bilinear(universal_matrix(g, params), ones, sel).matrix
    if direct.entry(0, 0) != closed:
        raise TheoremViolationError(
            "closed form disagrees with the resolvent bilinear")
    return closed


def _joint_color_refinement(a: Graph, b: Graph):
    """Degree-seeded color refinement run jointly so class ids are shared."""
    adj = [[list(g.neighbors(v)) for v in range(g.n)] for g in (a, b)]
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
            return colors[0], colors[1]


def isomorphism_test(a: Graph, b: Graph) -> bool:
    """Exact isomorphism decision by color refinement plus class-respecting
    backtracking.  Deterministic; rejects graphs above the size limit."""
    if a.n > _ISOMORPHISM_LIMIT or b.n > _ISOMORPHISM_LIMIT:
        raise TooLargeError(
            "isomorphism testing is limited to %d vertices" % _ISOMORPHISM_LIMIT)
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if a.n == 0:
        return True
    ca, cb = _joint_color_refinement(a, b)
    hist_a: Dict[int, int] = {}
    hist_b: Dict[int, int] = {}
    for c in ca:
        hist_a[c] = hist_a.get(c, 0) + 1
    for c in cb:
        hist_b[c] = hist_b.get(c, 0) + 1
    if hist_a != hist_b:
        return False
    adj_a = [set(a.neighbors(v)) for v in range(a.n)]
    adj_b = [set(b.neighbors(v)) for v in range(b.n)]
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
            ok = True
            for earlier in order[:pos]:
                if (earlier in adj_a[v]) != (image[earlier] in adj_b[w]):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            image[v] = -1
            used[w] = False
        return False

    return extend(0)


class CospectralCertificate:
    """Verified outcome of a cospectral construction: the two specs, the
    equal designated charpolys, per-factor main-function witnesses, and an
    isomorphism verdict (None when the joins exceed the decision limit)."""

    __slots__ = ("kind", "spec_a", "spec_b", "charpoly_a", "charpoly_b",
                 "isomorphic", "gamma_witness")

    def __init__(self, kind: str, spec_a: GeneralizedJoinSpec,
                 spec_b: GeneralizedJoinSpec, charpoly_a: Polynomial,
                 charpoly_b: Polynomial, isomorphic: Optional[bool],
                 gamma_witness):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spec_a", spec_a)
        object.__setattr__(self, "spec_b", spec_b)
        object.__setattr__(self, "charpoly_a", charpoly_a)
        object.__setattr__(self, "charpoly_b", charpoly_b)
        object.__setattr__(self, "isomorphic", isomorphic)
        object.__setattr__(self, "gamma_witness", tuple(gamma_witness))

    def __setattr__(self, name, value):
        raise AttributeError("CospectralCertificate is immutable")


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


def _cached_charpoly(matrix) -> Polynomial:
    no_sides = [()] * len(matrix)
    return main_function_bilinear(matrix, no_sides, no_sides).charpoly


def _cached_bilinear(matrix, left, right) -> RatFunMatrix:
    """left^T (xI - M)^{-1} right as reduced rational functions."""
    return main_function_bilinear(matrix, right, left).matrix


def _scalar_main_function(matrix, subset, n: int) -> RationalFunction:
    sel = [[Fraction(1 if v in set(subset) else 0)] for v in range(n)]
    return _cached_bilinear(matrix, sel, sel).entry(0, 0)


def _determinant_witness(spec: GeneralizedJoinSpec, i: int):
    """Main-function data of factor i that enters the block determinant of
    the join: the scalar subset main function when gamma is zero (the
    all-ones coupling vanishes), the full 2x2 otherwise.  Both are taken on
    the corrected factor matrix."""
    m = corrected_factor_matrix(spec, i)
    g = spec.factors[i]
    if spec.params.gamma == 0:
        members = set(spec.subsets[i])
        sel = [[Fraction(1 if v in members else 0)] for v in range(g.n)]
        return _cached_bilinear(m, sel, sel)
    sides = augmented_side_matrices(g, spec.subsets[i], spec.params)
    return _cached_bilinear(m, sides.u, sides.v)


def check_cospectral_conditions(spec_a: GeneralizedJoinSpec,
                                spec_b: GeneralizedJoinSpec,
                                kind: str) -> CospectralCertificate:
    """Verify the hypothesis set of the chosen kind factor by factor, then
    build both joins and compare their designated charpolys exactly.

    Raises HypothesisNotMetError naming the first violated condition, and
    TheoremViolationError if the hypotheses hold yet the charpolys differ."""
    params = kind_parameters(kind, spec_a.params)
    if spec_a.host != spec_b.host:
        raise HypothesisNotMetError("host graphs differ")
    if kind == "U" and spec_a.params != spec_b.params:
        raise HypothesisNotMetError("universal parameters differ")
    normalized_a = GeneralizedJoinSpec(spec_a.host, spec_a.factors, spec_a.subsets, params)
    normalized_b = GeneralizedJoinSpec(spec_b.host, spec_b.factors, spec_b.subsets, params)
    k = spec_a.host.n
    witnesses = []
    for i in range(k):
        ga, gb = normalized_a.factors[i], normalized_b.factors[i]
        sa, sb = normalized_a.subsets[i], normalized_b.subsets[i]
        if ga.n != gb.n:
            raise HypothesisNotMetError(
                "factor %d: vertex counts differ (%d vs %d)" % (i, ga.n, gb.n))
        if len(sa) != len(sb):
            raise HypothesisNotMetError(
                "factor %d: subset sizes differ (%d vs %d)" % (i, len(sa), len(sb)))
        if kind in ("A", "S"):
            ra, rb = ga.is_regular(), gb.is_regular()
            if ra is None:
                raise HypothesisNotMetError("factor %d: first graph is not regular" % i)
            if rb is None:
                raise HypothesisNotMetError("factor %d: second graph is not regular" % i)
            if ra != rb:
                raise HypothesisNotMetError(
                    "factor %d: regular degrees differ (%d vs %d)" % (i, ra, rb))
        ma = universal_matrix(ga, params)
        mb = universal_matrix(gb, params)
        if _cached_charpoly(ma) != _cached_charpoly(mb):
            raise HypothesisNotMetError(
                "factor %d: designated charpolys differ" % i)
        if _scalar_main_function(ma, sa, ga.n) != _scalar_main_function(mb, sb, gb.n):
            raise HypothesisNotMetError(
                "factor %d: subset main functions differ" % i)
        if params.delta != 0:
            # cross edges shift the subset diagonal, so the corrected
            # matrices must agree as well
            ca = corrected_factor_matrix(normalized_a, i)
            cb = corrected_factor_matrix(normalized_b, i)
            if _cached_charpoly(ca) != _cached_charpoly(cb):
                raise HypothesisNotMetError(
                    "factor %d: corrected charpolys differ" % i)
        wa = _determinant_witness(normalized_a, i)
        wb = _determinant_witness(normalized_b, i)
        if wa != wb:
            if params.delta == 0 and params.gamma == 0:
                label = "subset main functions"
            elif params.gamma == 0:
                label = "corrected subset main functions"
            else:
                label = "augmented main functions"
            raise HypothesisNotMetError("factor %d: %s differ" % (i, label))
        witnesses.append(wa)
    join_a = normalized_a.join_graph()
    join_b = normalized_b.join_graph()
    pa = charpoly(universal_matrix(join_a, params))
    pb = charpoly(universal_matrix(join_b, params))
    if pa != pb:
        raise TheoremViolationError(
            "hypotheses hold but the kind-%s charpolys of the joins differ" % kind)
    if join_a.n <= _ISOMORPHISM_LIMIT and join_b.n <= _ISOMORPHISM_LIMIT:
        isomorphic: Optional[bool] = isomorphism_test(join_a, join_b)
    else:
        isomorphic = None
    return CospectralCertificate(kind, normalized_a, normalized_b, pa, pb,
                                 isomorphic, witnesses)


def _config_key(g: Graph, subset: Tuple[int, ...], kind: str,
                params: UniversalParams, host: Graph, anchor: Graph):
    """Hypothesis data of one (graph, subset) slot against the fixed anchor:
    configurations sharing a key always combine into a verified pair."""
    if kind in ("A", "S"):
        r = g.is_regular()
        if r is None:
            return None
    else:
        r = None
    spec = GeneralizedJoinSpec(host, (g, anchor), (subset, (0,)), params)
    m = universal_matrix(g, params)
    scalar = _scalar_main_function(m, subset, g.n)
    witness = _determinant_witness(spec, 0)
    wkey = tuple(
        (witness.entry(i, j).num.coeffs, witness.entry(i, j).den.coeffs)
        for i in range(witness.rows) for j in range(witness.cols))
    if params.delta != 0:
        corrected_key = _cached_charpoly(corrected_factor_matrix(spec, 0)).coeffs
    else:
        corrected_key = None
    return (g.n, len(subset), r, _cached_charpoly(m).coeffs,
            (scalar.num.coeffs, scalar.den.coeffs), corrected_key, wkey)


def search_pairs(catalog: Sequence[Graph], subset_budget: int, kind: str,
                 params: Optional[UniversalParams] = None) -> List[CospectralCertificate]:
    """Enumerate (graph, subset) configurations over a graph catalog, group
    them by their kind hypothesis data, and certify same-group pairs as
    two-factor joins against a fixed single-vertex anchor factor.

    Subset sizes run from 1 to the budget; the full vertex set (the
    classical complete join) is always tried as well.  Within a group the
    join characteristic polynomial is pinned by the shared hypothesis data,
    so only the isomorphism verdict can vary: pairs are screened with the
    cheap isomorphism test first and fully certified once per new verdict."""
    if subset_budget < 1:
        raise InvalidParametersError("subset budget must be at least 1")
    chosen = kind_parameters(kind, params)
    host = make_named("complete", [2])
    anchor = make_named("complete", [1])
    groups: Dict[tuple, List[Tuple[Graph, Tuple[int, ...]]]] = {}
    order: List[tuple] = []
    for g in catalog:
        sizes = sorted(set(range(1, min(subset_budget, g.n) + 1)) | {g.n})
        for size in sizes:
            for subset in combinations(range(g.n), size):
                key = _config_key(g, subset, kind, chosen, host, anchor)
                if key is None:
                    continue
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append((g, subset))
    results: List[CospectralCertificate] = []
    seen_pairs = set()
    for key in order:
        members = groups[key]
        verdicts_seen: set = set()
        for (ga, sa), (gb, sb) in combinations(members, 2):
            if ga == gb and sa == sb:
                continue
            if True in verdicts_seen and False in verdicts_seen:
                break
            spec_a = GeneralizedJoinSpec(host, (ga, anchor), (sa, (0,)), chosen)
            spec_b = GeneralizedJoinSpec(host, (gb, anchor), (sb, (0,)), chosen)
            join_a = spec_a.join_graph()
            join_b = spec_b.join_graph()
            if join_a.n <= _ISOMORPHISM_LIMIT and join_b.n <= _ISOMORPHISM_LIMIT:
                verdict: Optional[bool] = isomorphism_test(join_a, join_b)
            else:
                verdict = None
            if verdict in verdicts_seen:
                continue
            verdicts_seen.add(verdict)
            cert = check_cospectral_conditions(spec_a, spec_b, kind)
            dedup = (cert.charpoly_a.coeffs, cert.isomorphic)
            if dedup in seen_pairs:
                continue
            seen_pairs.add(dedup)
            results.append(cert)
    return results
