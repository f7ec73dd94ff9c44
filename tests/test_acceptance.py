"""Acceptance suite: one test per shipped criterion, in order.

Every equality below is exact (rational arithmetic, zero tolerance);
the only tolerances are the wall-clock budgets that are part of
criteria 1, 2 and 4.  Each test ends with a single PASS line stating
the measured evidence, and the shipped fixture files are all exercised
here (worked examples, the larger mixed specs, the Laplacian-gap pair,
and the search catalog).
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import List

import numpy as np
import pytest

from hmjoin import (
    GeneralizedJoinSpec,
    HypothesisNotMetError,
    JoinSpec,
    Polynomial,
    UniversalParams,
    block_charpoly,
    charpoly,
    check_cospectral_conditions,
    generalized_spec_from_json,
    generalized_universal_charpoly,
    graph_from_json,
    hm_join,
    isomorphism_test,
    main_function,
    parse_spec,
    reduce_labels,
    search_pairs,
    universal_block_charpoly,
)
from hmjoin.families import (
    cartesian_product,
    generalized_helm,
    generalized_petersen,
    generalized_web,
    lollipop,
    make_named,
    tadpole,
)
from hmjoin.graphs import disjoint_union, universal_matrix

from conftest import random_graph, random_spec
from oracles import (
    bareiss_charpoly,
    blockwise_adjacency,
    lowest_terms,
    multiplicity,
    poly_add,
    poly_from_roots,
    poly_mul,
    poly_pow,
    poly_sub,
    regular_gamma_closed_form,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_json(name: str):
    return json.loads(load_text(name))


def poly(coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


def ratfun(num, den):
    return lowest_terms(poly(num), poly(den))


def worked_two_factor_spec() -> JoinSpec:
    return parse_spec(load_text("p2_2_k2_k5.json"))


def worked_three_factor_spec() -> JoinSpec:
    return parse_spec(load_text("p3_3.json"))


def test_criterion_01_two_factor_worked_join_both_paths():
    # 7-vertex join of a 2-clique and a 5-clique over an edge host:
    # charpoly is (x+2)(x-5)(x-1)(x+1)^4 on both pipelines, under 1 s
    spec = worked_two_factor_spec()
    start = time.perf_counter()
    report = block_charpoly(spec)
    elapsed = time.perf_counter() - start
    expected = poly_from_roots(
        [Fraction(-2), Fraction(5), Fraction(1)] + [Fraction(-1)] * 4)
    assert report.charpoly_direct == expected
    assert report.charpoly_block == expected
    assert elapsed < 1.0
    print("PASS criterion 01: worked 7-vertex join matches (x+2)(x-5)(x-1)(x+1)^4 "
          "both ways in %.3fs" % elapsed)


def test_criterion_02_three_factor_worked_join_with_gamma_matrices():
    # 9-vertex three-factor join: charpoly both ways, and the three
    # Gamma matrices equal the worked values entrywise after reduction
    spec = worked_three_factor_spec()
    start = time.perf_counter()
    report = block_charpoly(spec)
    elapsed = time.perf_counter() - start
    expected = poly([0, 2, -10, -34, 6, 39, -2, -12, 0, 1])
    assert report.charpoly_direct == expected
    assert report.charpoly_block == expected

    den1 = [-1, 0, 1]           # x^2 - 1
    den2 = [0, -2, 0, 1]        # x^3 - 2x
    den3 = [0, -3, 0, 1]        # x(x^2 - 3)
    worked = [
        ([[[0, 1], [1], [0]],
          [[1], [0, 1], [0]],
          [[0], [0], [0]]], den1),
        ([[[-1, 0, 1], [0, 1], [1]],
          [[0, 1], [0, 0, 1], [0, 1]],
          [[1], [0, 1], [-1, 0, 1]]], den2),
        ([[[-2, 2, 2], [0], [2, 2]],
          [[0], [0], [0]],
          [[2, 2], [0], [-2, 0, 2]]], den3),
    ]
    for i, (rows, den) in enumerate(worked):
        got = report.gammas[i]
        for r in range(3):
            for c in range(3):
                assert got.entry(r, c) == ratfun(rows[r][c], den), (i, r, c)
    assert elapsed < 1.0
    print("PASS criterion 02: 9-vertex join charpoly and all three Gamma "
          "matrices match the worked values in %.3fs" % elapsed)


def test_criterion_03_e_main_classification_of_worked_examples():
    # two-factor example: the 2-clique keeps 1 main and -1 non-main,
    # the 5-clique has both 4 and -1 main; three-factor example: every
    # factor eigenvalue class is main under its indexing matrix
    report = block_charpoly(worked_two_factor_spec())
    flags = [{str(c.poly): c.is_main for c in classes}
             for classes in report.e_main_flags]
    assert flags[0] == {"x-1": True, "x+1": False}
    assert flags[1] == {"x-4": True, "x+1": True}

    report3 = block_charpoly(worked_three_factor_spec())
    all_classes = [c for classes in report3.e_main_flags for c in classes]
    assert len(all_classes) == 6
    assert all(c.is_main for c in all_classes)
    print("PASS criterion 03: main/non-main flags match on both worked "
          "examples (%d classes checked)" % (len(all_classes) + 4))


def test_criterion_04_factorization_identity_on_200_random_specs(request):
    # charpoly_direct * prod g_i^m == prod phi_i * Phi, exactly, for the
    # whole 200-spec corpus, all within the 60 s budget
    start = time.perf_counter()
    specs = request.getfixturevalue("corpus_specs")
    reports = request.getfixturevalue("corpus_reports")
    checked = 0
    for spec, report in zip(specs, reports):
        lhs = report.charpoly_direct
        rhs = report.phi_polynomial
        for mf, phi in zip(report.gammas, report.factor_charpolys):
            assert mf.charpoly == phi
            lhs = poly_mul(lhs, poly_pow(mf.denominator, spec.m))
            rhs = poly_mul(rhs, phi)
        assert lhs == rhs
        assert report.charpoly_block == report.charpoly_direct
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 60.0
    print("PASS criterion 04: factorization identity exact on 200 random "
          "specs in %.1fs" % elapsed)


def test_criterion_05_carry_forward_bounds_on_corpus(request):
    # every ledger row of the corpus satisfies observed >= guaranteed,
    # and the worked instance shows -1 with bound 3 and observed 4
    reports = request.getfixturevalue("corpus_reports")
    rows = 0
    for report in reports:
        for row in report.carry_forward:
            assert row.observed >= row.guaranteed
            rows += 1

    report = block_charpoly(worked_two_factor_spec())
    bound = sum(row.guaranteed for row in report.carry_forward
                if row.eigen_class.poly == poly([1, 1]))
    observed = multiplicity(report.charpoly_direct, poly([1, 1]))
    assert bound == 3
    assert observed == 4
    assert all(row.observed == 4 for row in report.carry_forward
               if row.eigen_class.poly == poly([1, 1]))
    print("PASS criterion 05: observed >= guaranteed on %d ledger rows; "
          "worked -1 bound 3, observed 4" % rows)


def test_criterion_06_reduction_preserves_blockwise_adjacency():
    # all three modes leave the blockwise adjacency untouched on 100
    # random specs and on the shipped fixture specs; the bridged
    # clique-path spec collapses to one column with one cross edge
    rng = random.Random(414243)
    modes = ("unused", "global-exclusive", "neighbor-exclusive")
    specs = [random_spec(rng) for _ in range(100)]
    specs += [parse_spec(load_text("p2_2_p3_p4.json")),
              parse_spec(load_text("p4_5_mixed.json"))]
    pairs = 0
    for spec in specs:
        before = blockwise_adjacency(spec)
        for mode in modes:
            assert blockwise_adjacency(reduce_labels(spec, mode)) == before
            pairs += 1

    spec = lollipop(4, 3).spec
    reduced = reduce_labels(spec, "global-exclusive")
    assert reduced.m == 1
    labeled = [[v for v in im.values if v is not None] for im in reduced.indexing]
    assert labeled == [[1], [1]]
    assert any(v is None for im in reduced.indexing for v in im.values)
    n0 = reduced.factors[0].n
    cross = [(u, v) for u, v in hm_join(reduced).sorted_edges()
             if u < n0 <= v]
    assert len(cross) == 1
    assert hm_join(reduced) == hm_join(spec)
    print("PASS criterion 06: blockwise adjacency preserved on %d "
          "spec/mode pairs; bridged spec reduced to one column with one "
          "cross edge" % pairs)


def test_criterion_07_family_realizations_match_direct_builds():
    # every realization equals its directly built graph entrywise over
    # the full desk grid, and the block charpoly equals the charpoly of
    # the direct build on every member
    members = []
    small = ([("path", [n]) for n in range(2, 7)]
             + [("cycle", [n]) for n in range(3, 7)]
             + [("star", [s]) for s in range(2, 7)])
    for i, (ka, pa) in enumerate(small):
        for kb, pb in small[i:]:
            members.append(cartesian_product(make_named(ka, pa),
                                             make_named(kb, pb)))
    for n in range(5, 11):
        for k in range(1, (n - 1) // 2 + 1):
            members.append(generalized_petersen(n, k))
    for n in range(3, 13):
        for m in range(1, 9):
            members.append(generalized_helm(n, m))
    for t in range(1, 4):
        for n in range(3, 13):
            members.append(generalized_web(t, n))
    for m in range(3, 13):
        for n in range(1, 9):
            members.append(lollipop(m, n))
            members.append(tadpole(m, n))

    for real in members:
        assert real.join_graph() == real.direct

    # the block path cross-checks itself against the library's charpoly
    # engine on every member; the independent Bareiss oracle checks it
    # on the members with at most 64 vertices
    capped = 0
    for real in members:
        report = block_charpoly(real.spec)
        if real.direct.n <= 64:
            capped += 1
            assert report.charpoly_block == bareiss_charpoly(real.direct.adjacency_matrix())
    print("PASS criterion 07: %d realizations equal their direct builds and "
          "pass the block-vs-direct cross-check; block charpoly equals the "
          "Bareiss charpoly on the %d members with at most 64 vertices"
          % (len(members), capped))


def test_criterion_08_universal_and_generalized_charpolys():
    # 100 random specs with (alpha, beta, 0, delta): theorem path equals
    # the charpoly of the assembled matrix; 100 random generalized specs
    # with full parameters do the same, as does the shipped fixture spec
    rng = random.Random(515253)
    for _ in range(100):
        spec = random_spec(rng)
        params = UniversalParams(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
                                 Fraction(rng.randint(-2, 2)),
                                 Fraction(0),
                                 Fraction(rng.randint(-2, 2)))
        report = universal_block_charpoly(spec, params)
        direct = charpoly(universal_matrix(hm_join(spec), params))
        assert report.charpoly_block == direct
        assert report.charpoly_direct == direct

    gspecs: List[GeneralizedJoinSpec] = []
    for _ in range(100):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        factors = [random_graph(rng, rng.randint(1, 5)) for _ in range(k)]
        subsets = [sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
                   for g in factors]
        params = UniversalParams(Fraction(rng.choice([-2, -1, 1, 2])),
                                 Fraction(rng.randint(-2, 2)),
                                 Fraction(rng.choice([-1, 0, 1, 2])),
                                 Fraction(rng.randint(-2, 2)))
        gspecs.append(GeneralizedJoinSpec(host, factors, subsets, params))
    gspecs.append(generalized_spec_from_json(load_json("p4_generalized.json")))
    for gspec in gspecs:
        thm = generalized_universal_charpoly(gspec)
        direct = charpoly(universal_matrix(gspec.join_graph(), gspec.params))
        assert thm == direct
    print("PASS criterion 08: universal theorem path exact on 100 random "
          "specs and generalized path exact on %d specs" % len(gspecs))


def test_criterion_09_regular_closed_forms_match_first_principles():
    # closed form of the subset bilinear on regular graphs equals the
    # resolvent computation, 50 instances for each hypothesis case
    rng = random.Random(616263)
    regulars = ([make_named("cycle", [n]) for n in range(3, 9)]
                + [make_named("complete", [n]) for n in range(2, 7)]
                + [make_named("complete_bipartite", [a, a]) for a in (2, 3)]
                + [disjoint_union([make_named("cycle", [n])] * 2) for n in (3, 4)])
    for case in ("delta-zero", "alpha-opposite-delta"):
        for _ in range(50):
            g = rng.choice(regulars)
            subset = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            alpha = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
            beta = Fraction(rng.randint(-2, 2))
            gamma_c = Fraction(rng.randint(-2, 2))
            delta = Fraction(0) if case == "delta-zero" else -alpha
            params = UniversalParams(alpha, beta, gamma_c, delta)
            closed = regular_gamma_closed_form(g, subset, params)
            u = universal_matrix(g, params)
            # 1_S^T (xI - U)^{-1} 1 is entry (0, 1) on the side [1 | 1_S]
            side = [[Fraction(1), Fraction(1 if v in set(subset) else 0)]
                    for v in range(g.n)]
            first = main_function(u, side).entry(0, 1)
            assert closed == first
    print("PASS criterion 09: closed forms equal resolvent bilinears on "
          "50 instances per hypothesis case")


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Polynomial()
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = poly_mul(rows[0][j], _cofactor_det(minor))
        total = poly_add(total, term) if j % 2 == 0 else poly_sub(total, term)
    return total


def _oracle_charpoly(g) -> Polynomial:
    a = g.adjacency_matrix()
    entries = [[Polynomial([-a[i][j], 1] if i == j else [-a[i][j]])
                for j in range(g.n)] for i in range(g.n)]
    return _cofactor_det(entries)


def test_criterion_10_cospectral_certificates_and_sanity_oracles():
    # every certificate from both catalog searches re-verifies from
    # independently assembled matrices; the classical star vs
    # cycle-plus-isolate pair passes the independent oracles; the
    # shipped Laplacian-gap pair is still rejected by the gate
    catalog = [graph_from_json(entry)
               for entry in load_json("catalog.json")["graphs"]]
    certs = search_pairs(catalog, 2, "A") + search_pairs(catalog, 1, "L")
    assert certs
    non_iso = 0
    for cert in certs:
        pa = charpoly(universal_matrix(cert.spec_a.join_graph(),
                                       cert.spec_a.params))
        pb = charpoly(universal_matrix(cert.spec_b.join_graph(),
                                       cert.spec_b.params))
        assert pa == pb
        assert pa == cert.charpoly
        assert pb == cert.charpoly
        if cert.isomorphic is False:
            non_iso += 1
    assert non_iso > 0

    star = make_named("star", [5])
    cycle_plus = disjoint_union([make_named("cycle", [4]),
                                 make_named("complete", [1])])
    assert _oracle_charpoly(star) == _oracle_charpoly(cycle_plus)
    eig_a = np.sort(np.linalg.eigvalsh(np.array(star.adjacency_matrix(),
                                                dtype=float)))
    eig_b = np.sort(np.linalg.eigvalsh(np.array(cycle_plus.adjacency_matrix(),
                                                dtype=float)))
    assert np.allclose(eig_a, eig_b, atol=1e-9)
    assert sorted(star.degrees()) != sorted(cycle_plus.degrees())
    assert isomorphism_test(star, cycle_plus) is False

    gap_a = generalized_spec_from_json(load_json("cospectral_l_gap_a.json"))
    gap_b = generalized_spec_from_json(load_json("cospectral_l_gap_b.json"))
    with pytest.raises(HypothesisNotMetError, match="corrected charpolys differ"):
        check_cospectral_conditions(gap_a, gap_b, "L")
    print("PASS criterion 10: %d certificates re-verified (%d non-isomorphic); "
          "sanity pair cospectral and non-isomorphic by independent oracles"
          % (len(certs), non_iso))
