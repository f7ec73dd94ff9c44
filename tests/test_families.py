"""Graph families: direct constructions vs their join realizations."""

from fractions import Fraction

import pytest

from oracles import poly_from_roots
from hmjoin.errors import InvalidParametersError
from hmjoin.exactlinalg import charpoly
from hmjoin.families import (
    cartesian_product,
    generalized_helm,
    generalized_petersen,
    generalized_web,
    lollipop,
    tadpole,
)
from hmjoin.graphs import make_named
from hmjoin.spectra import block_charpoly


def check_realization(real):
    assert real.join_graph() == real.direct
    report = block_charpoly(real.spec)
    assert report.charpoly_block == charpoly(real.direct.adjacency_matrix())


def test_cartesian_products():
    for a_kind, a_args in [("path", [2]), ("path", [4]), ("cycle", [3]), ("star", [4])]:
        for b_kind, b_args in [("path", [3]), ("cycle", [5]), ("complete", [2])]:
            a = make_named(a_kind, a_args)
            b = make_named(b_kind, b_args)
            check_realization(cartesian_product(a, b))


def test_cartesian_product_known_case():
    # P_2 x P_2 is a 4-cycle (all degrees 2 on 4 vertices forces C_4)
    real = cartesian_product(make_named("path", [2]), make_named("path", [2]))
    assert real.direct.n == 4
    assert real.direct.degrees() == [2, 2, 2, 2]
    assert charpoly(real.direct.adjacency_matrix()) \
        == charpoly(make_named("cycle", [4]).adjacency_matrix())
    check_realization(real)


def test_petersen_graph_spectrum():
    real = generalized_petersen(5, 2)
    check_realization(real)
    assert real.direct.n == 10
    assert all(d == 3 for d in real.direct.degrees())
    expected = poly_from_roots(
        [Fraction(3)] + [Fraction(1)] * 5 + [Fraction(-2)] * 4)
    assert charpoly(real.direct.adjacency_matrix()) == expected


def test_petersen_range():
    for n in range(5, 11):
        for k in range(1, (n - 1) // 2 + 1):
            check_realization(generalized_petersen(n, k))


def test_petersen_inner_union_alignment():
    # P(6, 2): inner graph is two triangles, alignment interleaves them
    real = generalized_petersen(6, 2)
    check_realization(real)
    inner = real.spec.factors[1]
    assert inner.n == 6
    assert sorted(inner.degrees()) == [2] * 6


def test_petersen_validation():
    with pytest.raises(InvalidParametersError):
        generalized_petersen(2, 1)
    with pytest.raises(InvalidParametersError):
        generalized_petersen(6, 3)
    with pytest.raises(InvalidParametersError):
        generalized_petersen(5, 0)


def test_helm_classic():
    real = generalized_helm(3, 1)
    check_realization(real)
    assert real.direct.n == 7
    # hub degree 3, cycle vertices degree 4, pendants degree 1
    assert sorted(real.direct.degrees()) == [1, 1, 1, 3, 4, 4, 4]


def test_helm_ranges():
    for n in range(3, 6):
        for m in range(1, 4):
            real = generalized_helm(n, m)
            assert real.direct.n == n + 1 + n * m
            check_realization(real)


def test_helm_validation():
    with pytest.raises(InvalidParametersError):
        generalized_helm(2, 1)
    with pytest.raises(InvalidParametersError):
        generalized_helm(3, 0)


def test_web_vertex_count_and_ranges():
    for t in range(1, 4):
        for n in range(3, 6):
            real = generalized_web(t, n)
            assert real.direct.n == (t + 2) * n + 1
            check_realization(real)


def test_web_classic_degrees():
    # t = 1: wheel + one cycle layer + pendants
    real = generalized_web(1, 3)
    degs = sorted(real.direct.degrees())
    assert degs == [1, 1, 1, 3, 4, 4, 4, 4, 4, 4]


def test_web_validation():
    with pytest.raises(InvalidParametersError):
        generalized_web(0, 3)
    with pytest.raises(InvalidParametersError):
        generalized_web(1, 2)


def test_lollipop():
    for m in range(3, 6):
        for n in range(1, 4):
            real = lollipop(m, n)
            assert real.direct.n == m + n
            assert len(real.direct.edges) == m * (m - 1) // 2 + (n - 1) + 1
            check_realization(real)


def test_tadpole():
    for m in range(3, 6):
        for n in range(1, 4):
            real = tadpole(m, n)
            assert real.direct.n == m + n
            assert len(real.direct.edges) == m + n
            check_realization(real)


def test_bridged_validation():
    # each builder checks its own head size, lollipop before it builds K_m
    for m in (-1, 0, 1, 2):
        with pytest.raises(InvalidParametersError,
                           match="^a lollipop needs a complete part with at least 3 vertices$"):
            lollipop(m, 1)
        with pytest.raises(InvalidParametersError,
                           match="^a tadpole needs a cycle of at least 3 vertices$"):
            tadpole(m, 2)
    for build in (lollipop, tadpole):
        with pytest.raises(InvalidParametersError, match="^the tail path needs at least 1 vertex$"):
            build(3, 0)


def test_alignment_is_permutation():
    for real in [generalized_petersen(8, 2), generalized_helm(4, 2),
                 generalized_web(2, 4), lollipop(5, 2), tadpole(4, 3),
                 cartesian_product(make_named("cycle", [3]), make_named("path", [3]))]:
        assert sorted(real.alignment) == list(range(real.direct.n))
