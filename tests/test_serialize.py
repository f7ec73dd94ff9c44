"""JSON round trips, validation pointers, and canonical output."""

import json
import pathlib
import pickle
from fractions import Fraction

import pytest

from hmjoin.cospectral import GeneralizedJoinSpec, check_cospectral_conditions, kind_parameters
from hmjoin.errors import InvalidParametersError, SpecValidationError
from hmjoin.graphs import Graph, UniversalParams, make_named
from hmjoin.joins import IndexingMap, JoinSpec
from hmjoin.polynomials import Polynomial
from hmjoin.serialize import (
    canonical_dumps,
    certificate_to_json,
    fraction_from_json,
    fraction_to_json,
    generalized_spec_from_json,
    generalized_spec_to_json,
    graph_from_json,
    graph_to_json,
    params_from_json,
    params_to_json,
    parse_catalog,
    parse_spec,
    polynomial_to_json,
    report_to_json,
    spec_document_from_json,
    spec_from_json,
    spec_to_json,
)
from hmjoin.spectra import block_charpoly

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_fraction_round_trip():
    for f in [Fraction(0), Fraction(-3), Fraction(7, 2), Fraction(-22, 7)]:
        assert fraction_from_json(fraction_to_json(f)) == f
    assert fraction_to_json(Fraction(4, 2)) == "2"
    assert fraction_from_json("3/6") == Fraction(1, 2)


def test_fraction_rejections():
    for bad in ["1.5", "1/0", "a/b", "", "1 / 2", "--3", "0x10"]:
        with pytest.raises(SpecValidationError):
            fraction_from_json(bad, "/f")
    with pytest.raises(SpecValidationError):
        fraction_from_json(True, "/f")
    with pytest.raises(SpecValidationError):
        fraction_from_json(1.5, "/f")
    # plain ints are accepted
    assert fraction_from_json(-4, "/f") == Fraction(-4)


def test_polynomial_round_trip():
    p = Polynomial([Fraction(1, 2), Fraction(0), Fraction(-3)])
    encoded = polynomial_to_json(p)
    assert encoded == ["1/2", "0", "-3"]
    assert polynomial_to_json(Polynomial()) == []


def test_graph_round_trip():
    g = Graph(4, [(0, 1), (2, 3), (0, 3)])
    assert graph_from_json(graph_to_json(g)) == g
    # family references expand through the named constructors
    star = graph_from_json({"family": "star", "params": [4]})
    assert star == make_named("star", [4])


def test_graph_validation_pointers():
    with pytest.raises(SpecValidationError) as info:
        graph_from_json({"n": 2, "edges": [[0, 2]]}, "/host")
    assert info.value.pointer.startswith("/host")
    with pytest.raises(SpecValidationError):
        graph_from_json({"n": 2}, "/host")
    with pytest.raises(SpecValidationError) as info2:
        graph_from_json({"n": 2, "edges": [], "mystery": 1}, "/host")
    assert "mystery" in str(info2.value)
    with pytest.raises(SpecValidationError):
        graph_from_json({"family": "dodecahedron", "params": []}, "/host")


def test_value_types_refuse_what_the_readers_refuse():
    # a bool is an int to Python, but the readers refuse the `true` it
    # would be written as, and a float subset entry as `1.0`
    c3, params = make_named("cycle", [3]), kind_parameters("A")
    bad = [
        lambda: Graph(True),
        lambda: Graph(2.0),
        lambda: Graph(2, [(True, 0)]),
        lambda: Graph(2, [(0, 1.0)]),
        lambda: IndexingMap([True], 1),
        lambda: IndexingMap([1], True),
        lambda: IndexingMap([1.0], 1),
        lambda: JoinSpec(Graph(1), [c3], True, [IndexingMap([1, 1, None], 1)]),
        lambda: JoinSpec(Graph(0), [], True, []),
        lambda: GeneralizedJoinSpec(Graph(1), [c3], [["a"]], params),
        lambda: GeneralizedJoinSpec(Graph(1), [c3], [[0, "a"]], params),
        lambda: GeneralizedJoinSpec(Graph(1), [c3], [[1.0]], params),
        lambda: GeneralizedJoinSpec(Graph(1), [c3], [[True]], params),
        lambda: UniversalParams(True, 0, 0, 0),
        lambda: UniversalParams(1, 0, False, 0),
        lambda: make_named("star", [True, 3]),
        lambda: make_named("path", [True]),
    ]
    for build in bad:
        with pytest.raises(InvalidParametersError):
            build()
    # a polynomial refuses a bool like any other non-rational coefficient
    for coeffs in ([True, 1], [1, False]):
        with pytest.raises(TypeError):
            Polynomial(coeffs)
    for g in (Graph(0), Graph(1), Graph(3, [(2, 0)]), c3):
        assert graph_from_json(graph_to_json(g)) == g
    host = Graph(2, [(0, 1)])
    for spec in (JoinSpec(Graph(0), [], 0, []),
                 JoinSpec(host, [c3, Graph(1)], 2, [IndexingMap([1, None, 2], 2), IndexingMap([2], 2)])):
        assert spec_from_json(spec_to_json(spec)) == spec
    spec = GeneralizedJoinSpec(host, [c3, Graph(1)], [[2, 0], []], params)
    assert generalized_spec_from_json(generalized_spec_to_json(spec)) == spec


def test_params_round_trip_and_presets():
    p = UniversalParams(Fraction(1, 3), Fraction(0), Fraction(0), Fraction(1))
    assert params_from_json(params_to_json(p)) == p
    assert params_from_json("L") == UniversalParams.preset("L")
    assert params_from_json("seidel") == UniversalParams.preset("seidel")
    with pytest.raises(SpecValidationError):
        params_from_json("R", "/params")
    with pytest.raises(SpecValidationError):
        params_from_json({"alpha": "1"}, "/params")


def test_spec_round_trip_byte_equality():
    for name in ["p2_2_k2_k5.json", "p3_3.json", "p2_2_p3_p4.json", "p4_5_mixed.json"]:
        text = (FIXTURES / name).read_text()
        spec = parse_spec(text)
        assert isinstance(spec, JoinSpec)
        emitted = canonical_dumps(spec_to_json(spec))
        assert parse_spec(emitted) == spec
        assert canonical_dumps(spec_to_json(parse_spec(emitted))) == emitted


def test_generalized_spec_round_trip():
    text = (FIXTURES / "p4_generalized.json").read_text()
    spec = parse_spec(text)
    assert isinstance(spec, GeneralizedJoinSpec)
    emitted = canonical_dumps(generalized_spec_to_json(spec))
    again = parse_spec(emitted)
    assert again == spec
    assert canonical_dumps(generalized_spec_to_json(again)) == emitted


def test_spec_document_dispatch():
    hm = spec_document_from_json(json.loads((FIXTURES / "p3_3.json").read_text()))
    assert isinstance(hm, JoinSpec)
    gen = spec_document_from_json(json.loads((FIXTURES / "p4_generalized.json").read_text()))
    assert isinstance(gen, GeneralizedJoinSpec)


def test_indexing_pointer_diagnostics():
    doc = {"host": {"n": 2, "edges": [[0, 1]]}, "m": 2,
           "factors": [{"n": 2, "edges": []}, {"n": 1, "edges": []}],
           "indexing": [[1, 0], [2]]}
    with pytest.raises(SpecValidationError) as info:
        spec_from_json(doc)
    assert info.value.pointer == "/indexing/0/1"
    assert "1-based" in str(info.value)

    doc["indexing"] = [[1, 1], [3]]
    with pytest.raises(SpecValidationError) as info2:
        spec_from_json(doc)
    assert info2.value.pointer == "/indexing/1/0"

    doc["indexing"] = [[1], [2]]
    with pytest.raises(SpecValidationError) as info3:
        spec_from_json(doc)
    assert "/indexing/0" in info3.value.pointer


def test_generalized_document_reports_the_first_faulty_subset_at_its_item():
    doc = {"host": {"n": 2, "edges": [[0, 1]]},
           "factors": [{"family": "path", "params": [3]}, {"family": "cycle", "params": [3]}],
           "subsets": [[2, 0, 2], [1, 7]], "params": "A"}
    with pytest.raises(SpecValidationError) as info:
        generalized_spec_from_json(doc, "/spec_a")
    assert str(info.value) == "/spec_a/subsets/0/2: subset 0 repeats a vertex"
    doc["subsets"][0] = [2, 0]
    with pytest.raises(SpecValidationError) as info:
        generalized_spec_from_json(doc, "/spec_a")
    assert str(info.value) == "/spec_a/subsets/1/1: subset 1 contains 7, not a vertex of factor 1"


def test_label_count_zero_reads_and_negative_is_refused():
    doc = {"host": {"n": 2, "edges": [[0, 1]]}, "m": 0,
           "factors": [{"n": 1, "edges": []}, {"n": 2, "edges": []}],
           "indexing": [[None], [None, None]]}
    spec = spec_from_json(doc)
    assert spec.m == 0 and spec_from_json(spec_to_json(spec)) == spec
    doc["m"] = -1
    with pytest.raises(SpecValidationError) as info:
        spec_from_json(doc)
    assert info.value.pointer == "/m"


def test_missing_and_unknown_keys():
    with pytest.raises(SpecValidationError) as info:
        spec_from_json({"m": 1})
    assert "host" in str(info.value)
    doc = {"host": {"n": 1, "edges": []}, "m": 1,
           "factors": [{"n": 1, "edges": []}], "indexing": [[1]],
           "extra": True}
    with pytest.raises(SpecValidationError) as info2:
        spec_from_json(doc)
    assert "extra" in str(info2.value)


def test_parse_spec_invalid_json_reports_position():
    with pytest.raises(SpecValidationError) as info:
        parse_spec("{\n  \"host\": ,\n}")
    msg = str(info.value)
    assert "invalid JSON" in msg
    assert "line 2" in msg


def test_parse_spec_accepts_bytes():
    text = (FIXTURES / "p2_2_k2_k5.json").read_text()
    assert parse_spec(text.encode()) == parse_spec(text)


def test_parse_catalog_shapes_and_pointers():
    c5 = {"family": "cycle", "params": [5]}
    graphs = [make_named("cycle", [5]), Graph(2, [(0, 1)])]
    doc = [c5, {"n": 2, "edges": [[0, 1]]}]
    assert parse_catalog(json.dumps(doc)) == graphs
    assert parse_catalog(json.dumps({"graphs": doc}).encode()) == graphs
    for bad, pointer in [({"graphs": 3}, "/graphs"), ({"n": 1}, ""),
                         ({"graphs": [c5, 7]}, "/graphs/1")]:
        with pytest.raises(SpecValidationError) as info:
            parse_catalog(json.dumps(bad))
        assert info.value.pointer == pointer


def test_canonical_dumps_is_deterministic():
    doc = {"b": 1, "a": [1, 2]}
    one = canonical_dumps(doc)
    two = canonical_dumps({"b": 1, "a": [1, 2]})
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == doc


def test_report_keys():
    spec = parse_spec((FIXTURES / "p2_2_k2_k5.json").read_text())
    doc = report_to_json(block_charpoly(spec))
    assert set(doc) == {"charpoly_direct", "charpoly_block", "factor_charpolys",
                        "phi_polynomial", "main_denominators", "e_main_flags",
                        "carry_forward", "numeric_spectrum"}
    assert doc["charpoly_direct"] == doc["charpoly_block"]
    assert len(doc["factor_charpolys"]) == 2
    assert len(doc["e_main_flags"]) == 2
    for factor_flags in doc["e_main_flags"]:
        for entry in factor_flags:
            assert set(entry) == {"class_poly", "flag", "rational", "multiplicity"}
    for row in doc["carry_forward"]:
        assert set(row) == {"factor", "class", "bound", "observed"}
        assert row["observed"] >= row["bound"]
    json.dumps(doc)  # everything JSON-native


def test_certificate_keys():
    c5 = make_named("cycle", [5])
    anchor = make_named("complete", [1])
    host = make_named("complete", [2])
    params = kind_parameters("A")
    sa = GeneralizedJoinSpec(host, [c5, anchor], [[0], [0]], params)
    sb = GeneralizedJoinSpec(host, [c5, anchor], [[1], [0]], params)
    cert = check_cospectral_conditions(sa, sb, "A")
    doc = certificate_to_json(cert)
    assert set(doc) == {"kind", "spec_a", "spec_b", "charpoly", "isomorphic",
                        "gamma_witness"}
    assert doc["kind"] == "A"
    assert doc["isomorphic"] is True
    assert generalized_spec_from_json(doc["spec_a"]) == sa
    assert len(doc["gamma_witness"]) == 2
    json.dumps(doc)


def test_errors_keep_their_text_and_pointers_through_pickle():
    err = pickle.loads(pickle.dumps(SpecValidationError("bad", "/x")))
    assert (str(err), err.pointer, err.message) == ("/x: bad", "/x", "bad")
    assert str(pickle.loads(pickle.dumps(SpecValidationError("bad")))) == "<document>: bad"
    err = pickle.loads(pickle.dumps(InvalidParametersError("bad", "/factors/1")))
    assert (type(err), str(err), err.where) == (InvalidParametersError, "bad", "/factors/1")
