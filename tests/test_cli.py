"""Command-line interface: verbs, rendering, exit codes, determinism."""

import argparse
import ast
import importlib
import io
import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import hmjoin.cli as cli
from hmjoin.cli import factored_charpoly_string, main
from hmjoin.errors import CarryForwardError
from hmjoin.graphs import make_named
from hmjoin.polynomials import Polynomial, render_polynomial
from hmjoin.serialize import parse_spec
from oracles import poly_from_roots

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
EXAMPLE = str(FIXTURES / "p2_2_k2_k5.json")
CATALOG = str(FIXTURES / "catalog.json")
GAP_A = str(FIXTURES / "cospectral_l_gap_a.json")

# longer than the 4,300 digits int() converts from a string, and deeper
# than json.loads recurses
DIGITS = "7" * 5000
NESTED = "[" * 1000 + "]" * 1000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_polynomial():
    p = Polynomial([Fraction(1, 2), -2, 0, 1])
    assert render_polynomial(Polynomial([-1, 0, 1]), "λ") == "λ^2-1"
    assert render_polynomial(p, "λ") == "λ^3-2λ+1/2"
    assert render_polynomial(Polynomial(), "λ") == "0"
    assert render_polynomial(Polynomial([0, 1]), "x") == "x"
    # str is the same renderer in x
    assert str(p) == "x^3-2x+1/2"
    assert str(Polynomial([1, 1])) == "x+1"
    assert str(Polynomial([Fraction(-3, 4), 0, Fraction(-1, 2)])) == "-(1/2)x^2-3/4"
    assert str(Polynomial([0, 3, -1])) == "-x^2+3x"
    assert str(Polynomial()) == "0"


def test_factored_charpoly_string():
    from hmjoin.exactlinalg import charpoly
    k5 = make_named("complete", [5]).adjacency_matrix()
    p = poly_from_roots([Fraction(4)] + [Fraction(-1)] * 4)
    assert factored_charpoly_string(p, k5) == "(λ+1)^4(λ-4)"
    p3 = make_named("path", [3]).adjacency_matrix()
    text = factored_charpoly_string(charpoly(p3), p3)
    # only the rational root 0 splits off; the quadratic stays
    assert text == "λ(λ^2-2)"
    # common denominator L = 2: the roots are divided out as 2r in Z[y]
    half = Fraction(1, 2)
    diag = [[half, 0, 0], [0, half, 0], [0, 0, Fraction(3)]]
    assert factored_charpoly_string(charpoly(diag), diag) == "(λ-1/2)^2(λ-3)"
    mixed = [[3, 0, 0], [0, 0, 1], [0, 1, half]]
    assert factored_charpoly_string(charpoly(mixed), mixed) == "(λ-3)(λ^2-(1/2)λ-1)"


def test_join_edge_list(capsys):
    code, out, err = run_cli(capsys, "join", EXAMPLE)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "7"
    assert len(lines) == 1 + 17
    assert lines[1] == "0 1"


def test_charpoly_report(capsys):
    code, out, _ = run_cli(capsys, "charpoly", EXAMPLE)
    assert code == 0
    doc = json.loads(out)
    assert doc["charpoly_factored"] == "(λ+2)(λ+1)^4(λ-1)(λ-5)"
    assert doc["charpoly_direct"] == doc["charpoly_block"]


def test_classify_flags(capsys):
    code, out, _ = run_cli(capsys, "classify", EXAMPLE)
    assert code == 0
    doc = json.loads(out)
    flags = doc["e_main_flags"]
    assert len(flags) == 2
    k2 = {entry["rational"]: entry["flag"] for entry in flags[0]}
    assert k2 == {"1": True, "-1": False}
    k5 = {entry["rational"]: entry["flag"] for entry in flags[1]}
    assert k5 == {"4": True, "-1": True}


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", EXAMPLE)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_reduce(capsys, tmp_path):
    spec = str(FIXTURES / "p4_5_mixed.json")
    out_path = tmp_path / "reduced.json"
    code, out, _ = run_cli(capsys, "reduce", spec, "--mode", "unused",
                           "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["mode"] == "unused"
    assert doc["m_after"] <= doc["m_before"]
    assert "spec" in doc


def test_reduce_lollipop_global_exclusive(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "family", "lollipop", "4", "3")
    assert code == 0
    spec_path = tmp_path / "lollipop.json"
    spec_path.write_text(json.dumps(json.loads(out)["spec"]))
    code2, out2, _ = run_cli(capsys, "reduce", str(spec_path),
                             "--mode", "global-exclusive")
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["m_after"] == 1
    assert doc["deleted_labels"] == [1, 3]
    assert doc["deleted_count"] == 2


def test_family_petersen(capsys):
    code, out, _ = run_cli(capsys, "family", "petersen", "5", "2", "--charpoly")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "petersen"
    assert doc["n"] == 10
    assert doc["charpoly_factored"] == "(λ+2)^4(λ-1)^5(λ-3)"
    lines = doc["edgelist"].strip().splitlines()
    assert lines[0] == "10"
    degrees = {}
    for line in lines[1:]:
        u, v = map(int, line.split())
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    assert set(degrees.values()) == {3}


def test_family_cartesian(capsys):
    code, out, _ = run_cli(capsys, "family", "cartesian", "path:3", "cycle:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12
    assert doc["params"] == ["path:3", "cycle:4"]


def test_family_errors(capsys):
    code, _, err = run_cli(capsys, "family", "petersen", "5")
    assert code == 2
    assert "error:" in err
    code2, _, err2 = run_cli(capsys, "family", "moebius", "5", "2")
    assert code2 == 2
    code3, _, err3 = run_cli(capsys, "family", "cartesian", "path:x", "cycle:4")
    assert code3 == 2


def test_universal_preset(capsys):
    code, out, _ = run_cli(capsys, "universal", EXAMPLE, "--preset", "L")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"alpha": "-1", "beta": "0", "gamma": "0", "delta": "1"}
    assert doc["charpoly_direct"] == doc["charpoly_block"]


def test_universal_generalized_embedded_params(capsys):
    spec = str(FIXTURES / "p4_generalized.json")
    code, out, _ = run_cli(capsys, "universal", spec)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"params", "charpoly", "charpoly_factored"}


def test_universal_requires_params_for_plain_spec(capsys):
    code, _, err = run_cli(capsys, "universal", EXAMPLE)
    assert code == 2
    assert "error:" in err


def test_universal_custom_params(capsys):
    code, out, _ = run_cli(capsys, "universal", EXAMPLE, "--params", "1,0,0,1/2")
    assert code == 0
    assert json.loads(out)["params"]["delta"] == "1/2"
    code2, _, err = run_cli(capsys, "universal", EXAMPLE, "--params", "1,0,0")
    assert code2 == 2


@pytest.mark.parametrize("spec, option", [
    ("p3_3.json", ["--params", "100000000,0,0,0"]),
    ("p3_3.json", ["--preset", "Aalpha:1e9"]),
    ("p3_3.json", ["--params", DIGITS + ",0,0,0"]),
    ("p4_generalized.json", ["--params", "1,0,0,1/" + DIGITS]),
], ids=["scan-bound", "preset-scan-bound", "alpha-digits", "delta-digits"])
def test_universal_refuses_oversized_params(capsys, spec, option):
    # the rational-eigenvalue scan runs over [-B, B] for the row-sum bound
    # B; above the cap the command stops at once instead of scanning.
    # Parameters longer than int() converts are refused as they are parsed.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "universal", str(FIXTURES / spec), *option)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    code, _, _ = run_cli(capsys, "universal", str(FIXTURES / "p3_3.json"), "--params", "1000,0,0,0")
    assert code == 0


def test_reduced_specs_read_back(capsys, tmp_path):
    # every printed reduction parses back with the same charpoly, also when
    # no label is left (m = 0)
    m0 = tmp_path / "m0.json"
    m0.write_text(json.dumps({
        "host": {"n": 2, "edges": [[0, 1]]}, "m": 2,
        "factors": [{"n": 2, "edges": [[0, 1]]}, {"n": 3, "edges": [[0, 1], [1, 2]]}],
        "indexing": [[1, 1], [2, 2, 2]]}))
    specs = [str(p) for p in sorted(FIXTURES.glob("*.json")) if p.name != "catalog.json"] + [str(m0)]
    seen_m = set()
    for spec in specs:
        code, out, _ = run_cli(capsys, "charpoly", spec)
        assert code == 0
        direct = json.loads(out)["charpoly_direct"]
        for mode in ("unused", "global-exclusive", "neighbor-exclusive"):
            code, out, _ = run_cli(capsys, "reduce", spec, "--mode", mode)
            assert code == 0
            reduced = json.loads(out)["spec"]
            seen_m.add(reduced["m"])
            path = tmp_path / "reduced.json"
            path.write_text(json.dumps(reduced))
            code, out, err = run_cli(capsys, "charpoly", str(path))
            assert code == 0, err
            assert json.loads(out)["charpoly_direct"] == direct
    assert 0 in seen_m


def test_cospectral_check_same_spec(capsys):
    spec = str(FIXTURES / "cospectral_l_gap_a.json")
    code, out, _ = run_cli(capsys, "cospectral", "check", spec, spec, "--kind", "L")
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["kind"] == "L"


def test_cospectral_check_gap_pair_fails_hypotheses(capsys):
    a = str(FIXTURES / "cospectral_l_gap_a.json")
    b = str(FIXTURES / "cospectral_l_gap_b.json")
    code, _, err = run_cli(capsys, "cospectral", "check", a, b, "--kind", "L")
    assert code == 2
    assert "corrected" in err


def test_cospectral_search_catalog(capsys):
    catalog = str(FIXTURES / "catalog.json")
    code, out, _ = run_cli(capsys, "cospectral", "search", catalog,
                           "--kind", "A", "--budget", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "A"
    assert doc["certificates"]
    verdicts = {c["isomorphic"] for c in doc["certificates"]}
    assert False in verdicts  # the srg(16,6,2,2) pair certifies non-isomorphic
    for cert in doc["certificates"]:
        assert cert["charpoly"]


def test_exit_codes_for_bad_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "charpoly", str(tmp_path / "missing.json"))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code2, _, err2 = run_cli(capsys, "charpoly", str(bad))
    assert code2 == 2
    assert "invalid JSON" in err2

    label0 = tmp_path / "label0.json"
    label0.write_text(json.dumps({
        "host": {"n": 1, "edges": []}, "m": 1,
        "factors": [{"n": 1, "edges": []}], "indexing": [[0]]}))
    code3, _, err3 = run_cli(capsys, "charpoly", str(label0))
    assert code3 == 2
    assert "/indexing/0/0" in err3


_LONG_M = ('{"host": {"n": 1, "edges": []}, "m": %s, '
           '"factors": [{"n": 1, "edges": []}], "indexing": [[null]]}' % DIGITS)
_LONG_ALPHA = json.dumps({
    "host": {"n": 2, "edges": [[0, 1]]}, "factors": [{"n": 2, "edges": [[0, 1]]}, {"n": 1, "edges": []}],
    "subsets": [[0], [0]], "params": {"alpha": DIGITS + "/3", "beta": "0", "gamma": "0", "delta": "0"}})


@pytest.mark.parametrize("document, message", [
    (b'\xff\xfe{"a":1}', "not valid UTF-8"),
    (_LONG_M.encode(), "invalid JSON: an integer has more than"),
    (_LONG_ALPHA.encode(), "/params/alpha: fraction string with more than"),
    (NESTED.encode(), "invalid JSON: arrays or objects nested too deeply"),
], ids=["non-utf8", "m-digits", "alpha-digits", "nested"])
@pytest.mark.parametrize("verb", [["charpoly"], ["cospectral", "check"]])
def test_undecodable_spec_exits_two_with_one_line(capsys, tmp_path, verb, document, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(document)
    extra = [str(bad), "--kind", "A"] if verb[0] == "cospectral" else []
    code, out, err = run_cli(capsys, *verb, str(bad), *extra)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("document", [
    b'\xff\xfe[]',
    b"not a catalog\n",
    NESTED.encode(),
], ids=["non-utf8", "not-json", "nested"])
def test_undecodable_catalog_exits_two_with_one_line(capsys, tmp_path, document):
    catalog = tmp_path / "catalog.json"
    catalog.write_bytes(document)
    code, out, err = run_cli(capsys, "cospectral", "search", str(catalog), "--kind", "A")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "invalid catalog JSON" in err
    assert "Traceback" not in err


def test_cospectral_check_rejects_labeled_spec(capsys):
    code, out, err = run_cli(capsys, "cospectral", "check",
                             str(FIXTURES / "p3_3.json"), str(FIXTURES / "p3_3.json"),
                             "--kind", "A")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "generalized specs" in err
    assert "Traceback" not in err


def test_cospectral_search_rejects_empty_catalog_graph(capsys, tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"family": "cycle", "params": [5]}, {"n": 0, "edges": []}]))
    code, out, err = run_cli(capsys, "cospectral", "search", str(catalog), "--kind", "A")
    assert code == 2
    assert out == ""
    assert err == "error: catalog graph 1 has no vertices\n"


def test_cospectral_check_rejects_empty_factor(capsys, tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({
        "host": {"n": 2, "edges": [[0, 1]]},
        "factors": [{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}, {"n": 0, "edges": []}],
        "subsets": [[0], []], "params": "A"}))
    code, out, err = run_cli(capsys, "cospectral", "check", str(spec), str(spec), "--kind", "A")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "factor 1 has no vertices" in err


@pytest.mark.parametrize("argv, factored", [
    (["charpoly"], "1"),
    (["verify"], None),
    (["universal", "--preset", "L"], "1"),
])
def test_empty_host_reports_the_constant_charpoly(capsys, tmp_path, argv, factored):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"host": {"n": 0, "edges": []}, "m": 0, "factors": [], "indexing": []}))
    code, out, err = run_cli(capsys, argv[0], str(spec), *argv[1:])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc.get("charpoly_factored") == factored
    assert doc["charpoly_direct"] == doc["charpoly_block"] == doc["phi_polynomial"] == ["1"]
    assert doc["numeric_spectrum"] == []


_PATH0 = {"host": {"n": 1, "edges": []}, "m": 1, "factors": [{"family": "path", "params": [0]}], "indexing": [[]]}
_ALPHA0 = {"host": {"n": 2, "edges": [[0, 1]]}, "factors": [{"n": 2, "edges": [[0, 1]]}, {"n": 1, "edges": []}],
           "subsets": [[0], [0]], "params": {"alpha": "0", "beta": "0", "gamma": "0", "delta": "0"}}
_EMPTY_FACTOR = {"host": {"n": 2, "edges": [[0, 1]]}, "m": 1,
                 "factors": [{"n": 0, "edges": []}, {"n": 1, "edges": []}], "indexing": [[], [1]]}
_REPEATED_VERTEX = {"host": {"n": 2, "edges": [[0, 1]]}, "factors": [{"n": 2, "edges": [[0, 1]]}, {"n": 1, "edges": []}],
                    "subsets": [[1, 1], [0]], "params": "A"}
_BAD_EDGE = {"host": {"n": 2, "edges": [[0, 1]]}, "m": 1,
             "factors": [{"n": 2, "edges": [[0, 2]]}, {"n": 1, "edges": []}], "indexing": [[1, 1], [1]]}
_SHORT_LABELS = {"host": {"n": 2, "edges": [[0, 1]], "labels": ["left"]}, "m": 1,
                 "factors": [{"n": 1, "edges": []}, {"n": 1, "edges": []}], "indexing": [[1], [1]]}


@pytest.mark.parametrize("argv, document, message", [
    (["family", "cartesian", "path3", "cycle:4"], None, "graph token 'path3' must look like kind:params, e.g. path:4"),
    (["family", "petersen", "a", "b"], None, "family petersen expects integer parameters"),
    (["family", "petersen", "5"], None, "family petersen expects 2 integer parameters"),
    (["universal", "SPEC"], _ALPHA0, "/params: alpha must be nonzero"),
    (["charpoly", "SPEC"], _EMPTY_FACTOR, "/factors/0: factor 0 has no vertices"),
    (["charpoly", "SPEC"], _PATH0, "/factors/0: a path needs at least 1 vertex"),
    (["charpoly", "SPEC"], _REPEATED_VERTEX, "/subsets/0/1: subset 0 repeats a vertex"),
    (["charpoly", "SPEC"], _SHORT_LABELS, "/host: expected 2 labels, got 1"),
    (["charpoly", "SPEC"], _BAD_EDGE, "/factors/0/edges/0: edge (0, 2) out of range for 2 vertices"),
], ids=["graph-token", "family-params", "family-arity", "alpha-zero", "empty-factor", "path-0", "repeated-vertex",
                      "labels", "edge-range"])
def test_invalid_inputs_exit_two_with_one_stderr_line(capsys, tmp_path, argv, document, message):
    spec = tmp_path / "spec.json"
    if document is not None:
        spec.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *[str(spec) if arg == "SPEC" else arg for arg in argv])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_graph_labels_survive_reduce(capsys, tmp_path):
    spec = tmp_path / "labels.json"
    spec.write_text(json.dumps({
        "host": {"n": 2, "edges": [[0, 1]], "labels": ["left", "right"]}, "m": 2,
        "factors": [{"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}, {"n": 3, "edges": [[0, 1], [1, 2]]}],
        "indexing": [[1, 2], [1, None, 1]]}))
    code, out, _ = run_cli(capsys, "reduce", str(spec), "--mode", "global-exclusive")
    assert code == 0
    doc = json.loads(out)
    assert doc["deleted_labels"] == [2]
    assert doc["spec"]["host"]["labels"] == ["left", "right"]
    assert doc["spec"]["factors"][0]["labels"] == ["a", "b"] and "labels" not in doc["spec"]["factors"][1]
    reduced = parse_spec(json.dumps(doc["spec"]))
    assert reduced.host.labels == ("left", "right") and reduced.factors[0].labels == ("a", "b")


@pytest.mark.parametrize("argv, plain", [
    (["charpoly", "--", EXAMPLE], ["charpoly", EXAMPLE]),
    (["universal", "--params", "-1,0,0,1", "--", EXAMPLE], ["universal", EXAMPLE, "--params=-1,0,0,1"]),
])
def test_double_dash_before_the_positional_spec(capsys, argv, plain):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert (code, out, err) == run_cli(capsys, *plain)


def test_exit_code_one_for_violations(capsys, monkeypatch):
    def explode(spec):
        raise CarryForwardError("observed multiplicity below the guaranteed bound")
    monkeypatch.setattr(cli, "block_charpoly", explode)
    code, _, err = run_cli(capsys, "verify", EXAMPLE)
    assert code == 1
    assert err.startswith("violation:")


def test_carry_forward_violation_is_one_stderr_line(capsys, monkeypatch):
    import hmjoin.spectra as spectra
    monkeypatch.setattr(spectra, "_int_multiplicity", lambda a, b: 0)
    code, out, err = run_cli(capsys, "verify", EXAMPLE)
    assert code == 1
    assert out == ""
    assert err == ("violation: factor 0, eigenvalue class 0 of degree 1: observed "
                   "multiplicity 0 below the guaranteed bound 1\n")


def test_direct_lift_trace_violation_is_one_stderr_line(capsys, monkeypatch, tmp_path):
    # a Taylor shift with its sign flipped, shared by every lift of the report
    import hmjoin.exactlinalg as exactlinalg
    import hmjoin.spectra as spectra
    code, out, _ = run_cli(capsys, "family", "tadpole", "36", "8")
    spec_path = tmp_path / "tadpole.json"
    spec_path.write_text(json.dumps(json.loads(out)["spec"]))
    shift = exactlinalg._int_shift
    for module in (exactlinalg, spectra):
        monkeypatch.setattr(module, "_int_shift", lambda p, r: shift(p, -r))
    spectra._resolvent.cache_clear()
    try:
        code, out, err = run_cli(capsys, "universal", str(spec_path), "--preset", "Aalpha:97/100")
    finally:
        spectra._resolvent.cache_clear()
    assert (code, out) == (1, "")
    assert err == ("violation: block factorization identity violated: the direct path gives 2134/25 as the "
                   "coefficient of x^43, which must be -2134/25\n")


@pytest.mark.parametrize("argv", [
    ["universal", str(FIXTURES / "p3_3.json")],
    ["universal", str(FIXTURES / "p4_generalized.json")],
    ["cospectral", "search", str(FIXTURES / "catalog.json"), "--kind", "U", "--budget", "1"],
])
@pytest.mark.parametrize("params", ["-1,0,0,1", "-1/2,0,0,1"])
def test_negative_params_value_after_a_space(capsys, argv, params):
    code, out, err = run_cli(capsys, *argv, "--params", params)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "--params=" + params) == (0, out, "")
    assert out.startswith("{")


@pytest.mark.parametrize("argv", [
    ["join", EXAMPLE],
    ["charpoly", EXAMPLE],
    ["classify", EXAMPLE],
    ["verify", EXAMPLE],
    ["reduce", EXAMPLE, "--mode", "unused"],
    ["family", "petersen", "5", "2", "--charpoly"],
    ["universal", EXAMPLE, "--preset", "L"],
    ["cospectral", "check", GAP_A, GAP_A, "--kind", "L"],
    ["cospectral", "search", CATALOG, "--kind", "A", "--budget", "1"],
], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "cospectral" else argv[0])
def test_output_file_gets_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, "-o", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")
    # a directory cannot be written: one error line, nothing on stdout
    code, out, err = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stdin_dash_guard(capsys):
    code, _, err = run_cli(capsys, "cospectral", "check", "-", "-", "--kind", "A")
    assert code == 2


def _count_parsers(monkeypatch):
    """The list of every argparse parser built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "verified.json"
    spec_bytes = pathlib.Path(EXAMPLE).read_bytes()
    argvs = [
        ["charpoly", EXAMPLE],
        ["reduce", EXAMPLE, "--mode", "unused"],
        ["universal", EXAMPLE, "--params", "-1,0,0,1"],
        ["charpoly"],
        ["bogus", EXAMPLE],
        ["universal", EXAMPLE, "--preset", "L", "--params", "1,0,0,0"],
        ["verify", EXAMPLE, "-o", str(out_path)],
        ["classify", "-"],
    ]

    def call(argv):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(spec_bytes)))
        out_path.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out_path.read_bytes() if out_path.exists() else None
        return code, captured.out, captured.err, written

    built = _count_parsers(monkeypatch)
    cli.build_parser()
    tree = len(built)
    # the reference: a fresh parser for every call
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(call(argv))
    assert [r[0] for r in fresh] == [0, 0, 0, 2, 2, 2, 0, 0]
    assert fresh[6][1] == "" and fresh[6][3].startswith(b"{")
    monkeypatch.setattr(cli, "_PARSER", None)
    del built[:]
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for i in order:
            assert call(argvs[i]) == fresh[i], argvs[i]
    assert len(built) == tree


def test_importing_the_cli_builds_no_parser(monkeypatch):
    # the first main call builds the parser; at import it would cost every
    # importer, including those that never call main
    built = _count_parsers(monkeypatch)
    importlib.reload(cli)
    assert built == []


def test_subprocess_byte_determinism():
    cmd = [sys.executable, "-m", "hmjoin", "charpoly", EXAMPLE]
    one = subprocess.run(cmd, capture_output=True, check=True).stdout
    two = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert one == two
    assert one.endswith(b"\n")
    doc = json.loads(one)
    assert doc["charpoly_factored"] == "(λ+2)(λ+1)^4(λ-1)(λ-5)"


def test_subprocess_verify_second_fixture():
    cmd = [sys.executable, "-m", "hmjoin", "verify", str(FIXTURES / "p3_3.json")]
    proc = subprocess.run(cmd, capture_output=True, check=True)
    assert json.loads(proc.stdout)["verified"] is True


@pytest.mark.parametrize("argv", [
    ["cospectral", "search", CATALOG, "--kind", "A", "--budget", "x"],
    ["cospectral", "search", CATALOG, "--kind", "Z"],
    ["reduce", EXAMPLE, "--mode", "bogus"],
    ["reduce", EXAMPLE],
    ["charpoly"],
    [],
    ["universal", EXAMPLE, "--preset", "-x"],
    ["join", EXAMPLE, "--bogus"],
])
def test_argparse_refusals_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["universal", str(FIXTURES / "p3_3.json"), "--preset", "L", "--params", "1,0,0,0"],
     "argument --params: not allowed with argument --preset"),
    (["universal", str(FIXTURES / "p4_generalized.json"), "--params", "1,0,0,0", "--preset", "L"],
     "argument --preset: not allowed with argument --params"),
    (["cospectral", "search", CATALOG, "--kind", "U", "--preset", "Q", "--params", "-1,0,0,1"],
     "argument --params: not allowed with argument --preset"),
    (["cospectral", "search", CATALOG, "--kind", "A", "--params", "1,0,0,1"],
     "--preset and --params apply to kind U only"),
    (["cospectral", "search", CATALOG, "--kind", "L", "--preset", "Q"],
     "--preset and --params apply to kind U only"),
    (["cospectral", "search", CATALOG, "--kind", "S", "--preset", "A", "--budget", "1"],
     "--preset and --params apply to kind U only"),
    (["universal", str(FIXTURES / "p3_3.json"), "--params", "x,0,0,0"],
     "--params: malformed fraction string 'x'"),
    (["universal", str(FIXTURES / "p3_3.json"), "--params", DIGITS + ",0,0,0"],
     "--params: fraction string with more than %d digits" % sys.get_int_max_str_digits()),
    (["cospectral", "search", CATALOG, "--kind", "U", "--params", "1,0,0,1/0"],
     "--params: fraction denominator is zero"),
])
def test_conflicting_or_ignored_params_options_are_refused(capsys, argv, message):
    # neither option may silently win over the other, nor be dropped; a bad
    # value is blamed on the option, not on a document
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: %s\n" % message)


def test_search_budget_above_the_configuration_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cospectral", "search", CATALOG, "--kind", "A", "--budget", "16")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: subset budget 16 gives 131367 (graph, subset) configurations; "
                   "the search is limited to 10000\n")


def test_cli_imports_no_private_arithmetic():
    # the CLI only renders: Z[y] arithmetic and root finding stay behind the
    # public names of `polynomials` and `exactlinalg`
    arithmetic = {"polynomials", "exactlinalg"}
    imported = []
    for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[-1] in arithmetic for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not any(alias.name in arithmetic for alias in node.names)
            if (node.module or "").split(".")[-1] in arithmetic:
                imported += [(node.module, alias.name) for alias in node.names]
    assert imported
    assert [pair for pair in imported if pair[1].startswith("_")] == []
