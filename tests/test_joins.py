"""Join construction: edge rule vs block matrices, indexing matrices,
generalized joins, label reduction."""

import random

import pytest

from conftest import random_spec
from oracles import blockwise_adjacency
from hmjoin.cospectral import GeneralizedJoinSpec
from hmjoin.errors import InvalidParametersError, SizeMismatchError
from hmjoin.graphs import Graph, UniversalParams, make_named
from hmjoin.joins import (
    REDUCTION_MODES,
    IndexingMap,
    JoinSpec,
    hm_join,
    indexing_matrix,
    reduce_labels,
    reduction_report,
)
from hmjoin.families import lollipop


def example_3_7_spec() -> JoinSpec:
    host = make_named("complete", [2])
    return JoinSpec(host,
                    [make_named("complete", [2]), make_named("complete", [5])],
                    2,
                    [IndexingMap([1, 1], 2), IndexingMap([1, 1, 1, 2, 2], 2)])


def test_indexing_map_validation():
    im = IndexingMap([1, None, 3], 3)
    assert None in im.values
    assert im.used_labels() == {1, 3}
    assert None not in IndexingMap([1, 2], 2).values
    with pytest.raises(InvalidParametersError):
        IndexingMap([0, 1], 2)
    with pytest.raises(InvalidParametersError):
        IndexingMap([3], 2)


def test_indexing_matrices_of_worked_example():
    spec = example_3_7_spec()
    e1 = indexing_matrix(spec.factors[0], spec.indexing[0])
    e2 = indexing_matrix(spec.factors[1], spec.indexing[1])
    assert e1 == [[1, 0], [1, 0]]
    assert e2 == [[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]]


def test_worked_adjacency_of_two_path_join():
    # K_2 host; P_3 with labels (1,1,2); P_4 with labels (1,1,1,2)
    host = make_named("complete", [2])
    spec = JoinSpec(host, [make_named("path", [3]), make_named("path", [4])], 2,
                    [IndexingMap([1, 1, 2], 2), IndexingMap([1, 1, 1, 2], 2)])
    expected = [
        [0, 1, 0, 1, 1, 1, 0],
        [1, 0, 1, 1, 1, 1, 0],
        [0, 1, 0, 0, 0, 0, 1],
        [1, 1, 0, 0, 1, 0, 0],
        [1, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    assert blockwise_adjacency(spec) == expected
    assert hm_join(spec).adjacency_matrix() == expected


def test_spec_validation():
    host = make_named("complete", [2])
    with pytest.raises(SizeMismatchError):
        JoinSpec(host, [make_named("path", [2])], 2, [IndexingMap([1, 1], 2)])
    with pytest.raises(InvalidParametersError):
        JoinSpec(host, [Graph(0), make_named("path", [2])], 2,
                 [IndexingMap([], 2), IndexingMap([1, 1], 2)])
    with pytest.raises(SizeMismatchError):
        JoinSpec(host, [make_named("path", [2]), make_named("path", [2])], 2,
                 [IndexingMap([1, 1], 3), IndexingMap([1, 1], 2)])


def test_join_spec_checks_m_before_using_it():
    p1 = make_named("path", [1])
    with pytest.raises(InvalidParametersError, match="^label count m must be a non-negative integer, got '1'$"):
        JoinSpec(make_named("path", [2]), [p1] * 2, "1", [IndexingMap([1], 1)] * 2)


def test_refusals_carry_the_pointer_of_the_faulty_item():
    host, p1, p2 = make_named("path", [2]), make_named("path", [1]), make_named("path", [2])
    cases = [
        (lambda: IndexingMap([1, 3], 2), "/1", "label 3 out of range (labels are 1-based, at most 2)"),
        (lambda: IndexingMap([None, "a"], 2), "/1", "a label is an integer or None, got 'a'"),
        (lambda: JoinSpec(host, [Graph(0), p1], 1, [IndexingMap([1], 1)] * 2), "/factors/0",
         "factor 0 has no vertices"),
        (lambda: JoinSpec(host, [p1, p2], 1, [IndexingMap([1], 1)] * 2), "/indexing/1",
         "factor 1 has 2 vertices but 1 labels"),
        (lambda: JoinSpec(host, [p1, p1], 1, [IndexingMap([1], 1), IndexingMap([1], 2)]), "/indexing/1",
         "indexing map 1 uses m=2, spec says m=1"),
        (lambda: JoinSpec(host, [p1], 1, [IndexingMap([1], 1)]), "", "host has 2 vertices but 1 factors were given"),
    ]
    for build, where, message in cases:
        with pytest.raises((InvalidParametersError, SizeMismatchError)) as info:
            build()
        assert (info.value.where, str(info.value)) == (where, message)


def test_blockwise_equals_edge_rule_on_random_specs():
    rng = random.Random(11)
    for _ in range(40):
        spec = random_spec(rng)
        assert blockwise_adjacency(spec) == hm_join(spec).adjacency_matrix()


def test_unlabeled_vertices_get_no_cross_edges():
    host = make_named("complete", [2])
    spec = JoinSpec(host, [make_named("empty", [2]), make_named("empty", [2])], 1,
                    [IndexingMap([1, None], 1), IndexingMap([None, 1], 1)])
    g = hm_join(spec)
    assert g.sorted_edges() == ((0, 3),)


def test_to_hm_four_factor_cross_edges():
    # path host over K_3, P_4, C_5, K_{3,3} with hand-checked subsets
    host = make_named("path", [4])
    factors = [make_named("complete", [3]), make_named("path", [4]),
               make_named("cycle", [5]), make_named("complete_bipartite", [3, 3])]
    subsets = [[0], [2, 3], [0, 2, 4], [2, 5]]
    spec = GeneralizedJoinSpec(host, factors, subsets, UniversalParams.preset("A")).to_hm()
    assert spec.m == 5
    # label 1 marks S_i, the rest of factor i carries label i + 2
    assert spec.indexing[1].values == (3, 3, 1, 1)
    assert spec.indexing[3].values == (5, 5, 1, 5, 5, 1)
    joined = hm_join(spec)
    factor_edges = set()
    offsets = [0, 3, 7, 12]
    for off, g in zip(offsets, factors):
        factor_edges.update((u + off, v + off) for u, v in g.sorted_edges())
    cross = set(joined.sorted_edges()) - factor_edges
    expected = set()
    for u in [0]:
        for v in [5, 6]:
            expected.add((u, v))
    for u in [5, 6]:
        for v in [7, 9, 11]:
            expected.add((min(u, v), max(u, v)))
    for u in [7, 9, 11]:
        for v in [14, 17]:
            expected.add((u, v))
    assert cross == expected
    assert joined.n == 18


def test_reduce_modes_preserve_adjacency():
    rng = random.Random(13)
    for _ in range(25):
        spec = random_spec(rng)
        original = blockwise_adjacency(spec)
        for mode in REDUCTION_MODES:
            reduced = reduce_labels(spec, mode)
            assert blockwise_adjacency(reduced) == original
            assert reduced.m <= spec.m


def test_reduce_unknown_mode_rejected():
    spec = example_3_7_spec()
    with pytest.raises(InvalidParametersError):
        reduce_labels(spec, "mystery")


def test_reduce_unused_labels():
    host = make_named("complete", [2])
    spec = JoinSpec(host, [make_named("path", [2]), make_named("path", [2])], 4,
                    [IndexingMap([2, 2], 4), IndexingMap([2, 4], 4)])
    reduced = reduce_labels(spec, "unused")
    assert reduced.m == 2
    assert list(reduced.indexing[0].values) == [1, 1]
    assert list(reduced.indexing[1].values) == [1, 2]


def test_reduce_global_exclusive_lollipop_single_column():
    spec = lollipop(4, 3).spec
    report = reduction_report(spec, "global-exclusive")
    reduced = reduce_labels(spec, "global-exclusive")
    assert report["m_after"] == 1
    assert reduced.m == 1
    labeled = [[v for v in im.values if v is not None] for im in reduced.indexing]
    assert labeled == [[1], [1]]
    cross = set(hm_join(reduced).sorted_edges()) - set(hm_join(spec).sorted_edges())
    assert cross == set()
    assert hm_join(reduced) == hm_join(spec)


def test_reduce_neighbor_exclusive_keeps_shared_labels():
    # both factors use label 1 across a host edge: nothing may be deleted
    host = make_named("complete", [2])
    spec = JoinSpec(host, [make_named("path", [2]), make_named("path", [2])], 1,
                    [IndexingMap([1, 1], 1), IndexingMap([1, 1], 1)])
    assert reduce_labels(spec, "neighbor-exclusive").m == 1
    # with an edgeless host every label is neighbor-exclusive
    host2 = make_named("empty", [2])
    spec2 = JoinSpec(host2, [make_named("path", [2]), make_named("path", [2])], 1,
                     [IndexingMap([1, 1], 1), IndexingMap([1, 1], 1)])
    reduced2 = reduce_labels(spec2, "neighbor-exclusive")
    assert reduced2.m == 1 or reduced2.m == 0  # m never drops below 1
    assert blockwise_adjacency(reduced2) == blockwise_adjacency(spec2)


def test_reduction_report_shape():
    spec = example_3_7_spec()
    report = reduction_report(spec, "unused")
    assert report == {
        "mode": "unused",
        "m_before": 2,
        "deleted_labels": [],
        "deleted_count": 0,
        "m_after": 2,
    }
