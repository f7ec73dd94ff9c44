"""Graph type, named constructors, universal matrices, edge-list format."""

import random
from fractions import Fraction

import pytest

from hmjoin.errors import HmJoinError, InvalidParametersError, SizeMismatchError
from hmjoin.graphs import (
    Graph,
    UniversalParams,
    disjoint_union,
    graph_to_edgelist,
    make_named,
    universal_matrix,
)


def test_graph_normalizes_edges_and_rejects_bad_input():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.sorted_edges() == ((0, 2), (1, 2))
    with pytest.raises(InvalidParametersError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParametersError):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidParametersError):
        Graph(-1)


@pytest.mark.parametrize("edge", [5, (0, 1, 2)])
def test_graph_refuses_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(InvalidParametersError, match="^an edge is a pair of vertex ids, got "):
        Graph(3, [edge])


@pytest.mark.parametrize("edges, labels, where", [
    ([(0, 1), 5], None, "/edges/1"),
    ([(0, 1.0)], None, "/edges/0"),
    ([(0, 1), (1, 1)], None, "/edges/1"),
    ([(1, 0), (0, 2)], None, "/edges/1"),
    ([(0, 1)], ["x"], ""),
], ids=["not-a-pair", "not-an-integer", "loop", "out-of-range", "label-count"])
def test_edge_refusals_carry_the_edge_position(edges, labels, where):
    with pytest.raises(HmJoinError) as info:
        Graph(2, edges, labels)
    assert info.value.where == where


def test_graph_equality_ignores_labels():
    a = Graph(2, [(0, 1)], labels=["x", "y"])
    b = Graph(2, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a.labels == ("x", "y") and b.labels is None
    with pytest.raises(SizeMismatchError, match="expected 2 labels, got 1"):
        Graph(2, [(0, 1)], labels=["x"])


def test_adjacency_lists_every_vertex_neighbors():
    rng = random.Random(18)
    graphs = [Graph(0), Graph(5), make_named("complete", [6])]
    for _ in range(40):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    for g in graphs:
        assert g.adjacency() == [tuple(u for u, x in enumerate(row) if x) for row in g.adjacency_matrix()]


def test_named_complete_and_empty():
    k4 = make_named("complete", [4])
    assert len(k4.edges) == 6 and k4.is_regular() == 3
    e3 = make_named("empty", [3])
    assert len(e3.edges) == 0 and e3.n == 3


def test_named_path_cycle():
    p4 = make_named("path", [4])
    assert p4.sorted_edges() == ((0, 1), (1, 2), (2, 3))
    p1 = make_named("path", [1])
    assert p1.n == 1 and len(p1.edges) == 0
    c5 = make_named("cycle", [5])
    assert c5.is_regular() == 2 and len(c5.edges) == 5
    with pytest.raises(InvalidParametersError):
        make_named("cycle", [2])


def test_named_star_center_first():
    s = make_named("star", [5])  # K_{1,4}
    assert s.n == 5 and s.degrees() == [4, 1, 1, 1, 1]
    s2 = make_named("star", [1, 3])  # K_{1,3}
    assert s2.degrees() == [3, 1, 1, 1]


def test_named_complete_bipartite_a_side_first():
    g = make_named("complete_bipartite", [2, 3])
    assert g.n == 5 and len(g.edges) == 6
    assert g.degrees() == [3, 3, 2, 2, 2]


def test_named_wheel_hub_last():
    w = make_named("wheel", [4])
    assert w.n == 5
    assert w.degrees() == [3, 3, 3, 3, 4]
    assert w.adjacency()[4] == (0, 1, 2, 3)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParametersError):
        make_named("petersen-ish", [3])


def test_disjoint_union_offsets():
    g = disjoint_union([make_named("complete", [3]), make_named("path", [2])])
    assert g.n == 5
    assert g.sorted_edges() == ((0, 1), (0, 2), (1, 2), (3, 4))


def test_universal_params_validation_and_presets():
    with pytest.raises(InvalidParametersError):
        UniversalParams(0, 1, 1, 1)
    a = UniversalParams.preset("A")
    assert a.as_tuple() == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    l = UniversalParams.preset("L")
    assert l.as_tuple() == (Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
    q = UniversalParams.preset("Q")
    assert q.as_tuple() == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    s = UniversalParams.preset("seidel")
    assert s.as_tuple() == (Fraction(-2), Fraction(-1), Fraction(1), Fraction(0))
    aa = UniversalParams.preset("Aalpha:1/3")
    assert aa.as_tuple() == (Fraction(2, 3), Fraction(0), Fraction(0), Fraction(1, 3))
    with pytest.raises(InvalidParametersError):
        UniversalParams.preset("nope")


def test_universal_matrix_presets_are_the_classic_matrices():
    g = make_named("path", [3])
    a = g.adjacency_matrix()
    degs = g.degrees()
    d = [[degs[i] if i == j else 0 for j in range(g.n)] for i in range(g.n)]
    n = g.n
    lap = universal_matrix(g, UniversalParams.preset("L"))
    q = universal_matrix(g, UniversalParams.preset("Q"))
    sei = universal_matrix(g, UniversalParams.preset("seidel"))
    for i in range(n):
        for j in range(n):
            assert lap[i][j] == d[i][j] - a[i][j]
            assert q[i][j] == d[i][j] + a[i][j]
            # L + Q = 2D
            assert lap[i][j] + q[i][j] == 2 * d[i][j]
            # Seidel = J - I - 2A
            assert sei[i][j] == 1 - (1 if i == j else 0) - 2 * a[i][j]


def test_universal_matrix_general_combination():
    g = make_named("cycle", [4])
    p = UniversalParams(Fraction(2), Fraction(-1, 2), Fraction(1, 3), Fraction(5))
    m = universal_matrix(g, p)
    a = g.adjacency_matrix()
    for i in range(4):
        for j in range(4):
            expected = 2 * Fraction(a[i][j]) + Fraction(1, 3)
            if i == j:
                expected += Fraction(-1, 2) + 5 * Fraction(2)
            assert m[i][j] == expected


def test_universal_matrix_entries_are_ints_exactly_where_integral():
    # degrees 1, 2 and 3: delta * deg is integral on the star's centre only
    g = disjoint_union([make_named("star", [4]), make_named("path", [3])])
    integral = [UniversalParams.preset(name) for name in ("A", "L", "Q", "seidel")]
    integral += [UniversalParams(2, 1, 0, -1), UniversalParams(*map(Fraction, (2, 1, 0, -1)))]
    for p in integral:
        assert all(type(v) is int for v in p.as_tuple())
        assert all(type(x) is int for row in universal_matrix(g, p) for x in row)
    entries = [x for row in universal_matrix(g, UniversalParams.preset("Aalpha:1/3")) for x in row]
    assert {Fraction(1, 3), Fraction(2, 3), 1, 0} <= set(entries)
    for x in entries:
        assert type(x) is (int if x.denominator == 1 else Fraction)
    two = UniversalParams(Fraction(2), 0, 0, 0)
    assert two == UniversalParams(2, 0, 0, 0) and hash(two) == hash(UniversalParams(2, 0, 0, 0))
    assert type(two.alpha) is int


def test_edgelist_round_trip_bit_exact():
    g = Graph(4, [(0, 3), (1, 2), (0, 1)])
    text = graph_to_edgelist(g)
    assert text == "4\n0 1\n0 3\n1 2\n"
