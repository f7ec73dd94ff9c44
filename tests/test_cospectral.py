"""Generalized joins, closed forms, isomorphism testing, and the
hypothesis-checked cospectral pair machinery."""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import exceptional_srg16, lattice_srg16, random_graph
from oracles import bareiss_charpoly, lowest_terms, mat_mul, regular_gamma_closed_form, resolvent_numerators
import hmjoin.cospectral as cospectral
import hmjoin.spectra as spectra
from hmjoin.cospectral import (
    COSPECTRAL_KINDS,
    GeneralizedJoinSpec,
    _CONFIGURATION_LIMIT,
    _configuration_count,
    _subset_sizes,
    check_cospectral_conditions,
    generalized_universal_charpoly,
    isomorphism_test,
    kind_parameters,
    search_pairs,
)
from hmjoin.errors import (
    BlockFactorizationError,
    HypothesisNotMetError,
    InvalidParametersError,
    TooLargeError,
)
from hmjoin.exactlinalg import charpoly
from hmjoin.graphs import Graph, UniversalParams, disjoint_union, make_named, universal_matrix
from hmjoin.polynomials import Polynomial
from hmjoin.serialize import certificate_to_json, generalized_spec_from_json, graph_from_json, polynomial_to_json
from hmjoin.spectra import main_function

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text())


def random_generalized_spec(rng: random.Random) -> GeneralizedJoinSpec:
    k = rng.randint(1, 3)
    host = random_graph(rng, k)
    factors = [random_graph(rng, rng.randint(1, 5)) for _ in range(k)]
    subsets = []
    for g in factors:
        size = rng.randint(1, g.n)
        subsets.append(sorted(rng.sample(range(g.n), size)))
    params = UniversalParams(Fraction(rng.choice([-2, -1, 1, 2])),
                             Fraction(rng.randint(-2, 2)),
                             Fraction(rng.choice([-1, 0, 1, 2])),
                             Fraction(rng.randint(-2, 2)))
    return GeneralizedJoinSpec(host, factors, subsets, params)


def test_generalized_spec_validation():
    host = make_named("complete", [2])
    factors = [make_named("path", [3]), make_named("cycle", [3])]
    params = kind_parameters("A")
    with pytest.raises(InvalidParametersError):
        GeneralizedJoinSpec(host, factors[:1], [[0], [0]], params)
    with pytest.raises(InvalidParametersError):
        GeneralizedJoinSpec(host, factors, [[0]], params)
    with pytest.raises(InvalidParametersError):
        GeneralizedJoinSpec(host, factors, [[0, 0], [0]], params)
    with pytest.raises(InvalidParametersError):
        GeneralizedJoinSpec(host, factors, [[3], [0]], params)
    spec = GeneralizedJoinSpec(host, factors, [[2, 0], [1]], params)
    assert spec.subsets == ((0, 2), (1,))
    assert spec.k == 2


def test_generalized_spec_refusals_carry_the_pointer_of_the_faulty_item():
    host = make_named("complete", [2])
    factors = [make_named("path", [3]), make_named("cycle", [3])]
    params = kind_parameters("A")
    cases = [
        ([Graph(0), factors[1]], [[], [0]], "/factors/0", "factor 0 has no vertices"),
        (factors, [[0, 1, 0], [0]], "/subsets/0/2", "subset 0 repeats a vertex"),
        (factors, [[1, 5, -1], [0]], "/subsets/0/2", "subset 0 contains -1, not a vertex of factor 0"),
        (factors, [[0], [2, 3, 3]], "/subsets/1/2", "subset 1 repeats a vertex"),
        (factors, [[0], [4, 1, 3]], "/subsets/1/2", "subset 1 contains 3, not a vertex of factor 1"),
        (factors, [[0], [1, "a"]], "/subsets/1/1", "subset 1 holds a vertex that is not an integer"),
        (factors, [[0]], "", "expected 2 subsets for the host, got 1"),
    ]
    for graphs, subsets, where, message in cases:
        with pytest.raises(InvalidParametersError) as info:
            GeneralizedJoinSpec(host, graphs, subsets, params)
        assert (info.value.where, str(info.value)) == (where, message)


def test_generalized_spec_reads_a_one_shot_subset_once():
    p1 = make_named("path", [1])
    spec = GeneralizedJoinSpec(make_named("path", [2]), [p1] * 2, [iter([0]), [0]], kind_parameters("A"))
    assert spec.subsets == ((0,), (0,))


def test_generalized_universal_charpoly_matches_direct():
    rng = random.Random(32)
    for _ in range(12):
        spec = random_generalized_spec(rng)
        block = generalized_universal_charpoly(spec)
        direct = charpoly(universal_matrix(spec.join_graph(), spec.params))
        assert block == direct


def test_generalized_universal_charpoly_seidel_star():
    host = make_named("complete", [2])
    spec = GeneralizedJoinSpec(host,
                               [make_named("cycle", [4]), make_named("path", [2])],
                               [[0, 2], [1]],
                               kind_parameters("S"))
    block = generalized_universal_charpoly(spec)
    direct = charpoly(universal_matrix(spec.join_graph(), spec.params))
    assert block == direct
    assert block.degree == 6


def test_generalized_cross_check_names_first_differing_coefficient(monkeypatch):
    spec = GeneralizedJoinSpec(make_named("complete", [2]),
                               [make_named("cycle", [4]), make_named("path", [2])],
                               [[0, 2], [1]], kind_parameters("S"))
    true = charpoly(universal_matrix(spec.join_graph(), spec.params))
    # corrupt the direct path only: its integer rows (L = 1 here) are the
    # only ones with as many rows as the join; factors keep their charpolys
    lift, n = spectra._charpoly_lift, true.degree
    monkeypatch.setattr(spectra, "_charpoly_lift", lambda rows, bound: lift(rows, bound) if len(rows) != n else
                        [c + d for c, d in itertools.zip_longest(lift(rows, bound), [0, 0, 0, 3], fillvalue=0)])
    with pytest.raises(BlockFactorizationError) as info:
        generalized_universal_charpoly(spec)
    message = str(info.value)
    assert "x^3" in message
    assert "block path gives %s" % true.coefficient(3) in message
    assert "direct path gives %s" % (true.coefficient(3) + 3) in message


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return value or (Fraction(1, 2) if nonzero else value)


def random_gamma_spec(rng: random.Random, params: UniversalParams, kmax: int = 4,
                      nmax: int = 5) -> GeneralizedJoinSpec:
    """A generalized spec whose subsets are drawn empty, whole or of any size."""
    k = rng.randint(1, kmax)
    factors = [random_graph(rng, rng.randint(1, nmax)) for _ in range(k)]
    subsets = [rng.sample(range(g.n), rng.choice([0, g.n, rng.randint(0, g.n)])) for g in factors]
    return GeneralizedJoinSpec(random_graph(rng, k), factors, subsets, params)


def test_gamma_corpus_matches_the_bareiss_charpoly():
    # 200 seeded specs with random rational alpha != 0, beta, gamma != 0
    # and delta: the blocks on the sides [1 | 1_S] with gamma in the weights
    rng = random.Random(2929)
    kinds = set()
    for _ in range(200):
        params = UniversalParams(random_rational(rng, True), random_rational(rng), random_rational(rng, True),
                                 random_rational(rng))
        spec = random_gamma_spec(rng, params)
        kinds.update("empty" if not s else "whole" if len(s) == g.n else "part"
                     for g, s in zip(spec.factors, spec.subsets))
        assert generalized_universal_charpoly(spec) == bareiss_charpoly(universal_matrix(spec.join_graph(), params))
    assert kinds == {"empty", "whole", "part"}


@pytest.mark.parametrize("gamma, delta", [(Fraction(2), Fraction(-1, 2)), (Fraction(-1, 3), Fraction(1))])
def test_printed_gamma_witnesses_match_the_resolvent_oracle(gamma, delta):
    # each printed entry is that of V^T (xI - M_i)^{-1} U in lowest terms,
    # V = [gamma*1 | 1_S] and U = [1 | 1_S], M_i the slot's block of the
    # join's universal matrix
    rng = random.Random(1729)
    for _ in range(8):
        params = UniversalParams(random_rational(rng, True), random_rational(rng), gamma, delta)
        spec = random_gamma_spec(rng, params, kmax=3, nmax=4)
        doc = certificate_to_json(check_cospectral_conditions(spec, spec, "U"))
        join = universal_matrix(spec.join_graph(), params)
        offset = 0
        for g, subset, witness in zip(spec.factors, spec.subsets, doc["gamma_witness"]):
            block = [row[offset:offset + g.n] for row in join[offset:offset + g.n]]
            offset += g.n
            u = [[1, int(v in subset)] for v in range(g.n)]
            phi, numerators = resolvent_numerators(block, u, [[gamma, x] for _, x in u])
            expected = [[lowest_terms(p, phi) for p in row] for row in numerators]
            assert witness == [[{"num": polynomial_to_json(num), "den": polynomial_to_json(den)} for num, den in row]
                               for row in expected]


def join_charpoly(spec: GeneralizedJoinSpec) -> Polynomial:
    """The designated charpoly of a join, straight from its universal matrix."""
    return charpoly(universal_matrix(spec.join_graph(), spec.params))


def closed_form_checked(g, subset, params):
    """The closed form of `oracles`, after asserting that it equals
    1_S^T (xI - U(G))^{-1} 1, entry (0, 1) of `main_function` on the side
    [1 | 1_S]."""
    closed = regular_gamma_closed_form(g, subset, params)
    side = [[1, int(v in set(subset))] for v in range(g.n)]
    assert main_function(universal_matrix(g, params), side).entry(0, 1) == closed
    return closed


def test_closed_form_delta_zero():
    g = make_named("cycle", [5])
    params = UniversalParams(Fraction(1), Fraction(2), Fraction(3), Fraction(0))
    closed = closed_form_checked(g, [0, 2], params)
    # theta = alpha*r + beta + gamma*n = 2 + 2 + 15 = 19
    assert closed == (Polynomial([2]), Polynomial([-19, 1]))
    # an empty subset gives the zero entry, 0/1
    assert closed_form_checked(g, [], params) == (Polynomial(), Polynomial([1]))


def test_closed_form_alpha_opposite_delta():
    g = make_named("complete", [4])
    params = UniversalParams(Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
    closed = closed_form_checked(g, [0, 1, 2], params)
    # Laplacian kills the all-ones vector: theta = beta + gamma*n = 0
    assert closed == (Polynomial([3]), Polynomial([0, 1]))


def test_closed_form_random_regular_instances():
    rng = random.Random(33)
    regulars = [make_named("cycle", [5]), make_named("cycle", [6]),
                make_named("complete", [4]), make_named("complete", [6]),
                make_named("complete_bipartite", [3, 3]),
                disjoint_union([make_named("cycle", [3])] * 2)]
    for _ in range(30):
        g = rng.choice(regulars)
        subset = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        if rng.random() < 0.5:
            params = UniversalParams(Fraction(rng.choice([-2, -1, 1, 2])),
                                     Fraction(rng.randint(-2, 2)),
                                     Fraction(rng.randint(-2, 2)),
                                     Fraction(0))
        else:
            a = Fraction(rng.choice([-2, -1, 1, 2]))
            params = UniversalParams(a, Fraction(rng.randint(-2, 2)),
                                     Fraction(rng.randint(-2, 2)), -a)
        num, den = closed_form_checked(g, subset, params)
        assert den.degree == 1
        assert num == Polynomial([len(subset)])


def test_closed_form_hypothesis_errors():
    params_ok = UniversalParams(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(HypothesisNotMetError):
        regular_gamma_closed_form(make_named("path", [3]), [0], params_ok)
    bad = UniversalParams(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(HypothesisNotMetError):
        regular_gamma_closed_form(make_named("cycle", [4]), [0], bad)


def test_isomorphism_positive_random_relabelings():
    rng = random.Random(34)
    for _ in range(25):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert isomorphism_test(g, h)


def test_isomorphism_negative_known_pairs():
    c6 = make_named("cycle", [6])
    two_triangles = disjoint_union([make_named("cycle", [3])] * 2)
    assert not isomorphism_test(c6, two_triangles)

    star = make_named("star", [5])
    c4_plus_point = disjoint_union([make_named("cycle", [4]), Graph(1)])
    assert not isomorphism_test(star, c4_plus_point)
    # these two are cospectral, so the refutation is structural
    assert charpoly(star.adjacency_matrix()) \
        == charpoly(c4_plus_point.adjacency_matrix())


def test_isomorphism_srg_pair():
    a, b = lattice_srg16(), exceptional_srg16()
    assert charpoly(a.adjacency_matrix()) == charpoly(b.adjacency_matrix())
    assert not isomorphism_test(a, b)
    assert isomorphism_test(a, a)


def test_isomorphism_decides_order_and_edge_count_first():
    p3 = make_named("path", [3])
    assert not isomorphism_test(p3, make_named("path", [4]))
    assert not isomorphism_test(p3, make_named("complete", [3]))
    assert isomorphism_test(Graph(0), Graph(0))


def test_isomorphism_size_limit():
    big = make_named("empty", [33])
    with pytest.raises(TooLargeError):
        isomorphism_test(big, big)


def test_check_requires_matching_hosts_and_kind():
    params = kind_parameters("A")
    sa = GeneralizedJoinSpec(make_named("complete", [2]),
                             [make_named("cycle", [4]), Graph(1)],
                             [[0], [0]], params)
    sb = GeneralizedJoinSpec(make_named("empty", [2]),
                             [make_named("cycle", [4]), Graph(1)],
                             [[0], [0]], params)
    with pytest.raises(HypothesisNotMetError, match="host"):
        check_cospectral_conditions(sa, sb, "A")
    with pytest.raises(InvalidParametersError):
        check_cospectral_conditions(sa, sa, "Z")


def anchored(g: Graph, subset, kind: str) -> GeneralizedJoinSpec:
    return GeneralizedJoinSpec(make_named("complete", [2]),
                               [g, make_named("complete", [1])],
                               [subset, [0]], kind_parameters(kind))


def test_check_gate_messages():
    c4 = make_named("cycle", [4])
    c5 = make_named("cycle", [5])
    k4 = make_named("complete", [4])
    p4 = make_named("path", [4])
    with pytest.raises(HypothesisNotMetError, match="vertex counts differ"):
        check_cospectral_conditions(anchored(c4, [0], "A"), anchored(c5, [0], "A"), "A")
    with pytest.raises(HypothesisNotMetError, match="subset sizes differ"):
        check_cospectral_conditions(anchored(c4, [0], "A"), anchored(c4, [0, 1], "A"), "A")
    with pytest.raises(HypothesisNotMetError, match="not regular"):
        check_cospectral_conditions(anchored(p4, [0], "A"), anchored(c4, [0], "A"), "A")
    with pytest.raises(HypothesisNotMetError, match="regular degrees differ"):
        check_cospectral_conditions(anchored(c4, [0], "A"), anchored(k4, [0], "A"), "A")
    with pytest.raises(HypothesisNotMetError, match="designated charpolys differ"):
        check_cospectral_conditions(anchored(p4, [0], "L"), anchored(k4, [0], "L"), "L")
    # same L-charpoly would be needed; a path vs its reverse subset works,
    # so force the subset-main-function gate with distinguishable subsets
    with pytest.raises(HypothesisNotMetError, match="main functions differ"):
        check_cospectral_conditions(anchored(p4, [0], "L"), anchored(p4, [1], "L"), "L")


def test_check_certifies_automorphic_subsets():
    c5 = make_named("cycle", [5])
    cert = check_cospectral_conditions(anchored(c5, [0], "S"), anchored(c5, [1], "S"), "S")
    assert cert.kind == "S"
    assert cert.isomorphic is True
    assert cert.charpoly == join_charpoly(cert.spec_b)
    assert len(cert.gamma_witness) == 2


def test_check_kind_u_requires_equal_params():
    c4 = make_named("cycle", [4])
    pa = UniversalParams(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    pb = UniversalParams(Fraction(2), Fraction(0), Fraction(0), Fraction(0))
    sa = GeneralizedJoinSpec(make_named("complete", [2]),
                             [c4, make_named("complete", [1])], [[0], [0]], pa)
    sb = GeneralizedJoinSpec(make_named("complete", [2]),
                             [c4, make_named("complete", [1])], [[0], [0]], pb)
    with pytest.raises(HypothesisNotMetError, match="universal parameters differ"):
        check_cospectral_conditions(sa, sb, "U")
    cert = check_cospectral_conditions(sa, sa, "U")
    assert cert.isomorphic is True


def test_kind_parameters():
    assert kind_parameters("A") == UniversalParams.preset("A")
    assert kind_parameters("L") == UniversalParams.preset("L")
    assert kind_parameters("S") == UniversalParams.preset("seidel")
    with pytest.raises(InvalidParametersError):
        kind_parameters("U")
    custom = UniversalParams(Fraction(2), Fraction(0), Fraction(0), Fraction(0))
    assert kind_parameters("U", custom) == custom
    with pytest.raises(InvalidParametersError):
        kind_parameters("B")
    assert set(COSPECTRAL_KINDS) == {"A", "S", "L", "U"}


def test_laplacian_kind_needs_corrected_gates():
    # regression: equal L-charpolys and equal uncorrected subset main
    # functions are not enough when delta != 0; the corrected matrices
    # expose the difference and the joins genuinely differ
    sa = generalized_spec_from_json(load_fixture("cospectral_l_gap_a.json"), "")
    sb = generalized_spec_from_json(load_fixture("cospectral_l_gap_b.json"), "")
    ga, gb = sa.factors[0], sb.factors[0]
    params = kind_parameters("L")
    assert charpoly(universal_matrix(ga, params)) == charpoly(universal_matrix(gb, params))

    def uncorrected_scalar(g, subset):
        sel = [[Fraction(1 if v in set(subset) else 0)] for v in range(g.n)]
        return main_function(universal_matrix(g, params), sel).entry(0, 0)

    assert uncorrected_scalar(ga, sa.subsets[0]) == uncorrected_scalar(gb, sb.subsets[0])
    with pytest.raises(HypothesisNotMetError, match="corrected charpolys differ"):
        check_cospectral_conditions(sa, sb, "L")
    # and indeed the joins are not L-cospectral
    pa = charpoly(universal_matrix(sa.join_graph(), params))
    pb = charpoly(universal_matrix(sb.join_graph(), params))
    assert pa != pb


def test_srg_pair_certifies_non_isomorphic():
    a, b = lattice_srg16(), exceptional_srg16()
    for kind in ("A", "L"):
        cert = check_cospectral_conditions(anchored(a, list(range(16)), kind),
                                           anchored(b, list(range(16)), kind),
                                           kind)
        assert cert.isomorphic is False
        assert cert.charpoly == join_charpoly(cert.spec_b)
        assert cert.charpoly.degree == 17


def test_search_pairs_small_catalog():
    catalog = [make_named("cycle", [5]), make_named("cycle", [6]),
               make_named("complete", [4])]
    certs = search_pairs(catalog, 2, "A")
    assert certs
    for cert in certs:
        assert cert.charpoly == join_charpoly(cert.spec_b)
        assert cert.isomorphic is True
        # re-verification is idempotent
        again = check_cospectral_conditions(cert.spec_a, cert.spec_b, cert.kind)
        assert again.charpoly == cert.charpoly
        assert again.isomorphic == cert.isomorphic


def test_search_pairs_finds_non_isomorphic_srg_certificates():
    catalog = [lattice_srg16(), exceptional_srg16()]
    certs = search_pairs(catalog, 1, "A")
    non_iso = [c for c in certs if c.isomorphic is False]
    assert non_iso
    for cert in non_iso:
        assert cert.charpoly == join_charpoly(cert.spec_b)
        assert cert.spec_a.factors[0] != cert.spec_b.factors[0]


def test_search_pairs_budget_validation():
    with pytest.raises(InvalidParametersError):
        search_pairs([make_named("cycle", [4])], 0, "A")


def test_search_pairs_refuses_an_empty_catalog_graph_before_counting(monkeypatch):
    def counted(*args):
        raise AssertionError("the configurations were counted")

    monkeypatch.setattr(cospectral, "_configuration_count", counted)
    with pytest.raises(InvalidParametersError, match="^catalog graph 1 has no vertices$"):
        search_pairs([make_named("cycle", [4]), Graph(0)], 2, "A")


def test_search_pairs_configuration_cap():
    doc = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))
    catalog = [graph_from_json(g) for g in doc["graphs"]]
    # sizes 1..budget and the full vertex set, per graph
    assert [_configuration_count(catalog, b) for b in (1, 2, 4, 6)] == [78, 399, 5313, 30083]
    assert _configuration_count(catalog, 4) <= _CONFIGURATION_LIMIT < _configuration_count(catalog, 6)
    assert _configuration_count([make_named("cycle", [4])], 10 ** 30) == 15
    with pytest.raises(TooLargeError):
        search_pairs(catalog, 16, "A")


def config_key_oracle(g: Graph, subset, kind: str, params: UniversalParams):
    """The grouping key of the search before walk sums: the hypothesis data
    of slot 0 of the two-factor join of (g, subset) with the fixed anchor,
    main functions included, or None for a graph the kind rejects as
    irregular. It needs `_slot_hypotheses`, so it lives here and not in
    `oracles`, which imports nothing from the library but `Polynomial` and
    the errors."""
    spec = GeneralizedJoinSpec(make_named("complete", [2]), (g, make_named("complete", [1])),
                               (subset, (0,)), params)
    key = []
    for _, value in cospectral._slot_hypotheses(spec, 0, kind):
        if value is None:
            return None
        key.append(value)
    return tuple(key)


def walk_partition(catalog, budget: int, kind: str, params: UniversalParams):
    """The groups of `search_pairs`, members in order, by `_walk_keys`."""
    groups = {}
    for g in catalog:
        for subset, key in cospectral._walk_keys(g, _subset_sizes(g.n, budget), kind, params):
            groups.setdefault(key, []).append((g, subset))
    return list(groups.values())


def oracle_partition(catalog, budget: int, kind: str, params: UniversalParams, keys: dict):
    """The same groups by `config_key_oracle`, each key computed once into
    `keys`, since a key does not depend on the budget."""
    groups = {}
    for i, g in enumerate(catalog):
        for size in _subset_sizes(g.n, budget):
            for subset in itertools.combinations(range(g.n), size):
                if (i, subset) not in keys:
                    keys[i, subset] = config_key_oracle(g, subset, kind, params)
                if keys[i, subset] is not None:
                    groups.setdefault(keys[i, subset], []).append((g, subset))
    return list(groups.values())


@pytest.mark.parametrize("kind, params, budgets", [
    ("A", None, (1, 2, 3)),
    ("S", None, (1, 2)),
    ("L", None, (1, 2)),
    ("U", UniversalParams(1, 0, 2, 0), (1, 2)),
    ("U", UniversalParams(-1, 1, Fraction(1, 2), 1), (1, 2)),
    ("U", UniversalParams.preset("Q"), (1, 2)),
], ids=["A", "S", "L", "U-gamma", "U-gamma-delta", "U-Q"])
def test_walk_keys_group_the_catalog_as_the_main_function_oracle(kind, params, budgets):
    doc = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))
    catalog = [graph_from_json(g) for g in doc["graphs"]]
    chosen, keys = kind_parameters(kind, params), {}
    for budget in budgets:
        groups = walk_partition(catalog, budget, kind, chosen)
        assert groups == oracle_partition(catalog, budget, kind, chosen, keys)
        assert any(len(members) > 1 for members in groups)


@pytest.mark.parametrize("catalog, kind, params, budget", [
    # the factor of the L gap fixtures: S = {1, 2} and {1, 4} agree but for
    # the corrected matrices
    ([Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)])], "L", None, 2),
    # K5 with a pendant vertex: S = {0, 5} and {1, 2} agree but for 1^T U^t 1_S
    ([Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])],
     "U", UniversalParams(1, 0, -1, 0), 2),
    # S = {0, 1, 4} and {1, 2, 4} agree but for the corrected walks
    ([Graph(6, [(0, 4), (0, 5), (1, 2), (1, 3), (2, 3)])], "U", UniversalParams(-1, 1, Fraction(1, 2), 1), 3),
], ids=["corrected-charpoly", "augmented-walks", "corrected-walks"])
def test_walk_keys_separate_what_only_a_witness_tells_apart(catalog, kind, params, budget):
    chosen = kind_parameters(kind, params)
    assert walk_partition(catalog, budget, kind, chosen) == oracle_partition(catalog, budget, kind, chosen, {})
    search_pairs(catalog, budget, kind, params)  # a merged group would fail its hypotheses


def test_walk_keys_run_in_python_ints_beyond_int64(monkeypatch):
    # L(K20) = 20I - J has rho = 38 and 38^19 > 2^63, so its powers run in
    # Python ints; those of L(C5) (rho = 4) run in int64
    powers, dtypes = cospectral._powers, []

    def spied(m, y, count):
        out = powers(m, y, count)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(cospectral, "_powers", spied)
    params = kind_parameters("L")
    k20 = make_named("complete", [20])
    keys = dict(cospectral._walk_keys(k20, [1, 20], "L", params))
    assert dtypes == [object] * 3
    # 1_v^T L^t 1_v = 19 * 20^(t-1) for t >= 1, exact past 2^63
    assert keys[(0,)][4][:20] == (1,) + tuple(19 * 20 ** (t - 1) for t in range(1, 20))
    # and the corrected walks of L + diag(1_S), S = {0}, follow them
    corrected = [[20 * (u == v) - 1 + (u == v == 0) for v in range(20)] for u in range(20)]
    y, walks = [[int(v == 0)] for v in range(20)], []
    for _ in range(20):
        walks.append(y[0][0])
        y = mat_mul(corrected, y)
    assert keys[(0,)][4][20:40] == tuple(walks)
    assert walk_partition([k20], 1, "L", params) == oracle_partition([k20], 1, "L", params, {})
    dtypes.clear()
    c5 = make_named("cycle", [5])
    assert len(list(cospectral._walk_keys(c5, [1, 2, 5], "L", params))) == 16
    assert dtypes == [np.dtype(np.int64)] * 4
    # the corrected matrices hold entries beyond int64, whatever the order
    huge = UniversalParams(10 ** 20, 1, 3, 10 ** 20 + 1)
    dtypes.clear()
    assert walk_partition([c5, Graph(1)], 2, "U", huge) == oracle_partition([c5, Graph(1)], 2, "U", huge, {})
    assert object in dtypes


def test_search_pairs_runs_main_functions_only_to_certify(monkeypatch):
    doc = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))
    catalog = [graph_from_json(g) for g in doc["graphs"]]
    calls = []
    counted = cospectral.main_function

    def counting(m, e):
        calls.append(1)
        return counted(m, e)

    monkeypatch.setattr(cospectral, "main_function", counting)
    certs = search_pairs(catalog, 1, "A")
    # 8 certified pairs, one main function per slot of each of their two specs
    assert (len(certs), len(calls)) == (8, 32)


def test_search_pairs_stops_a_group_at_its_first_undecided_pair(monkeypatch):
    # every member of a group has the same vertex count, so once one pair of
    # joins is beyond the isomorphism limit every pair is
    c33, params = make_named("cycle", [33]), kind_parameters("A")
    calls = {}
    verdict = cospectral._verdict

    def counted(a, b):
        # the anchor is the join's last vertex, adjacent to exactly the subset
        subset = tuple(sorted(a.adjacency()[c33.n]))
        key = config_key_oracle(c33, subset, "A", params)
        calls[key] = calls.get(key, 0) + 1
        return verdict(a, b)

    monkeypatch.setattr(cospectral, "_verdict", counted)
    certs = search_pairs([c33], 2, "A")
    # size 1, and size 2 at each cycle distance 1..16; the full set is alone.
    # Each group screens its first pair, and its certificate reuses that verdict.
    assert len(calls) == 17
    assert set(calls.values()) == {1}
    assert certs and all(c.isomorphic is None for c in certs)


def test_search_pairs_stops_a_group_once_its_first_member_matches_all(monkeypatch):
    # the ten single-vertex subsets of C10 form one group whose first member
    # is isomorphic to every other, so by transitivity every later pair is:
    # nine screening verdicts, the certificate reusing the first
    c10 = make_named("cycle", [10])
    host, anchor, params = make_named("complete", [2]), make_named("complete", [1]), kind_parameters("A")
    first = [GeneralizedJoinSpec(host, (c10, anchor), ((v,), (0,)), params) for v in (0, 1)]
    expected = [check_cospectral_conditions(*first, "A")]
    calls = []
    verdict = cospectral._verdict

    def counted(a, b):
        calls.append(1)
        return verdict(a, b)

    monkeypatch.setattr(cospectral, "_verdict", counted)
    certs = search_pairs([c10], 1, "A")
    assert len(calls) == 9
    assert certs == expected and expected[0].isomorphic is True


def test_search_pairs_decides_each_certified_pair_once(monkeypatch):
    doc = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))
    catalog = [graph_from_json(g) for g in doc["graphs"]]
    decided, certified = [], []
    verdict, certify = cospectral._verdict, cospectral._certify

    def counted_verdict(a, b):
        decided.append((a, b))
        return verdict(a, b)

    def counted_certify(spec_a, spec_b, kind, screened=None):
        certified.append((spec_a.join_graph(), spec_b.join_graph()))
        return certify(spec_a, spec_b, kind, screened)

    monkeypatch.setattr(cospectral, "_verdict", counted_verdict)
    monkeypatch.setattr(cospectral, "_certify", counted_certify)
    certs = search_pairs(catalog, 1, "A")
    # 39 screening verdicts, of which 8 pairs are certified
    assert (len(decided), len(certified)) == (39, 8)
    assert all(decided.count(pair) == 1 for pair in certified)
    monkeypatch.undo()
    assert certs == [check_cospectral_conditions(c.spec_a, c.spec_b, "A") for c in certs]


def test_search_pairs_builds_each_member_join_once(monkeypatch):
    doc = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))
    catalog = [graph_from_json(g) for g in doc["graphs"]]
    built = []
    join_graph = GeneralizedJoinSpec.join_graph

    def counted(spec):
        built.append(spec)
        return join_graph(spec)

    monkeypatch.setattr(GeneralizedJoinSpec, "join_graph", counted)
    search_pairs(catalog, 1, "A")
    # the 39 screened pairs take 46 distinct joins; two per pair would be 78
    assert len(built) == len(set(built)) == 46


def test_search_pairs_deduplicates():
    catalog = [make_named("cycle", [6])]
    certs = search_pairs(catalog, 1, "A")
    keys = [(c.charpoly.coeffs, c.isomorphic) for c in certs]
    assert len(keys) == len(set(keys))
    # a graph listed twice adds no certificate
    catalog = [make_named("cycle", [5]), make_named("cycle", [6]), make_named("complete", [4])]
    assert search_pairs(catalog + catalog[:1], 2, "A") == search_pairs(catalog, 2, "A")
