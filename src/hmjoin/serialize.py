"""Canonical JSON forms for graphs, join specifications, universal
parameters, spectral reports, and cospectral certificates.

Every exact number is a decimal-free fraction string "p/q" ("p" when the
denominator is 1); polynomials are arrays of coefficient strings, lowest
degree first.  Dumps use a fixed key order, two-space indentation, and a
trailing newline, so identical inputs produce identical bytes.  Parsers
report failures as SpecValidationError carrying a JSON-pointer path.  The
readers check the JSON shape, and `m` because the indexing maps are built
before their spec; every other rule is the constructor's, and its refusal
is reported at the value's pointer plus the pointer the constructor gives
the faulty item, `HmJoinError.where` (`_build`)."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any, Dict, List, Union

from .cospectral import CospectralCertificate, GeneralizedJoinSpec
from .errors import HmJoinError, SpecValidationError
from .graphs import Graph, UniversalParams, make_named
from .joins import IndexingMap, JoinSpec
from .polynomials import Polynomial
from .spectra import MainFunction, SpectralReport

_FRACTION_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def _fail(pointer: str, message: str):
    raise SpecValidationError(message, pointer)


def _expect_object(data, pointer: str) -> Dict[str, Any]:
    if not isinstance(data, dict):
        _fail(pointer, "expected a JSON object")
    return data


def _expect_array(data, pointer: str) -> List[Any]:
    if not isinstance(data, list):
        _fail(pointer, "expected a JSON array")
    return data


def _expect_int(data, pointer: str) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        _fail(pointer, "expected an integer")
    return data


def _expect_string(data, pointer: str) -> str:
    if not isinstance(data, str):
        _fail(pointer, "expected a string")
    return data


def _build(pointer: str, make, *args):
    """make(*args), with a refusal failing at `pointer` + its `where`."""
    try:
        return make(*args)
    except HmJoinError as exc:
        _fail(pointer + exc.where, str(exc))


def _check_keys(data: Dict[str, Any], pointer: str, required, optional=()):
    for key in required:
        if key not in data:
            _fail(pointer, "missing required key %r" % key)
    allowed = set(required) | set(optional)
    for key in data:
        if key not in allowed:
            _fail(pointer + "/" + key, "unknown key %r" % key)


# ---------------------------------------------------------------------------
# fractions and polynomials


def fraction_to_json(value: Fraction) -> str:
    return str(value)


def fraction_from_json(data, pointer: str = "") -> Fraction:
    if isinstance(data, bool):
        _fail(pointer, "expected a fraction string, got a boolean")
    if isinstance(data, int):
        return Fraction(data)
    if not isinstance(data, str):
        _fail(pointer, "expected a fraction string")
    match = _FRACTION_RE.match(data)
    if match is None:
        _fail(pointer, "malformed fraction string %r" % data)
    try:
        num = int(match.group(1))
        den = int(match.group(2) or 1)
    except ValueError:
        _fail(pointer, "fraction string with more than %d digits" % sys.get_int_max_str_digits())
    if den == 0:
        _fail(pointer, "fraction denominator is zero")
    return Fraction(num, den)


def polynomial_to_json(p: Polynomial) -> List[str]:
    return [fraction_to_json(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# graphs


def graph_to_json(g: Graph) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"n": g.n, "edges": [[u, v] for u, v in g.sorted_edges()]}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return doc


def graph_from_json(data, pointer: str = "") -> Graph:
    obj = _expect_object(data, pointer)
    if "family" in obj:
        _check_keys(obj, pointer, ("family",), ("params",))
        name = _expect_string(obj["family"], pointer + "/family")
        raw = obj.get("params", [])
        arr = _expect_array(raw, pointer + "/params")
        params = [_expect_int(x, "%s/params/%d" % (pointer, i))
                  for i, x in enumerate(arr)]
        return _build(pointer, make_named, name, params)
    _check_keys(obj, pointer, ("n", "edges"), ("labels",))
    n = _expect_int(obj["n"], pointer + "/n")
    edges = []
    for i, pair in enumerate(_expect_array(obj["edges"], pointer + "/edges")):
        here = "%s/edges/%d" % (pointer, i)
        arr = _expect_array(pair, here)
        if len(arr) != 2:
            _fail(here, "an edge is a pair of vertex ids")
        edges.append((_expect_int(arr[0], here + "/0"),
                      _expect_int(arr[1], here + "/1")))
    labels = None
    if "labels" in obj:
        labels = [_expect_string(x, "%s/labels/%d" % (pointer, i))
                  for i, x in enumerate(_expect_array(obj["labels"], pointer + "/labels"))]
    return _build(pointer, Graph, n, edges, labels)


# ---------------------------------------------------------------------------
# universal parameters


def params_to_json(p: UniversalParams) -> Dict[str, str]:
    return {
        "alpha": fraction_to_json(p.alpha),
        "beta": fraction_to_json(p.beta),
        "gamma": fraction_to_json(p.gamma),
        "delta": fraction_to_json(p.delta),
    }


def params_from_json(data, pointer: str = "") -> UniversalParams:
    if isinstance(data, str):
        return _build(pointer, UniversalParams.preset, data)
    obj = _expect_object(data, pointer)
    keys = ("alpha", "beta", "gamma", "delta")
    _check_keys(obj, pointer, keys)
    return _build(pointer, UniversalParams, *(fraction_from_json(obj[key], pointer + "/" + key) for key in keys))


# ---------------------------------------------------------------------------
# join specifications


def spec_to_json(spec: JoinSpec) -> Dict[str, Any]:
    return {
        "host": graph_to_json(spec.host),
        "m": spec.m,
        "factors": [graph_to_json(g) for g in spec.factors],
        "indexing": [list(im.values) for im in spec.indexing],
    }


def _indexing_from_json(data, m: int, pointer: str) -> IndexingMap:
    values = [None if raw is None else _expect_int(raw, "%s/%d" % (pointer, j))
              for j, raw in enumerate(_expect_array(data, pointer))]
    return _build(pointer, IndexingMap, values, m)


def spec_from_json(data, pointer: str = "") -> JoinSpec:
    obj = _expect_object(data, pointer)
    _check_keys(obj, pointer, ("host", "m", "factors", "indexing"))
    host = graph_from_json(obj["host"], pointer + "/host")
    m = _expect_int(obj["m"], pointer + "/m")
    if m < 0:
        _fail(pointer + "/m", "label count m must be non-negative")
    factors = [graph_from_json(g, "%s/factors/%d" % (pointer, i))
               for i, g in enumerate(_expect_array(obj["factors"], pointer + "/factors"))]
    raw_indexing = _expect_array(obj["indexing"], pointer + "/indexing")
    if len(raw_indexing) != len(factors):
        _fail(pointer + "/indexing",
              "expected %d indexing rows, got %d" % (len(factors), len(raw_indexing)))
    indexing = [_indexing_from_json(row, m, "%s/indexing/%d" % (pointer, i))
                for i, row in enumerate(raw_indexing)]
    return _build(pointer, JoinSpec, host, factors, m, indexing)


def generalized_spec_to_json(spec: GeneralizedJoinSpec) -> Dict[str, Any]:
    return {
        "host": graph_to_json(spec.host),
        "factors": [graph_to_json(g) for g in spec.factors],
        "subsets": [list(s) for s in spec.subsets],
        "params": params_to_json(spec.params),
    }


def generalized_spec_from_json(data, pointer: str = "") -> GeneralizedJoinSpec:
    obj = _expect_object(data, pointer)
    _check_keys(obj, pointer, ("host", "factors", "subsets", "params"))
    host = graph_from_json(obj["host"], pointer + "/host")
    factors = [graph_from_json(g, "%s/factors/%d" % (pointer, i))
               for i, g in enumerate(_expect_array(obj["factors"], pointer + "/factors"))]
    subsets = []
    for i, row in enumerate(_expect_array(obj["subsets"], pointer + "/subsets")):
        arr = _expect_array(row, "%s/subsets/%d" % (pointer, i))
        subsets.append([_expect_int(v, "%s/subsets/%d/%d" % (pointer, i, j))
                        for j, v in enumerate(arr)])
    params = params_from_json(obj["params"], pointer + "/params")
    return _build(pointer, GeneralizedJoinSpec, host, factors, subsets, params)


def spec_document_from_json(data, pointer: str = "") -> Union[JoinSpec, GeneralizedJoinSpec]:
    """Dispatch on shape: generalized specs carry "subsets", labeled join
    specs carry "m" and "indexing"."""
    obj = _expect_object(data, pointer)
    if "subsets" in obj or "params" in obj:
        return generalized_spec_from_json(obj, pointer)
    return spec_from_json(obj, pointer)


def _decode(document: Union[str, bytes], what: str):
    """The JSON value of a text or UTF-8 document. Every way it can fail is
    a SpecValidationError whose message starts with "invalid <what>": bad
    UTF-8, bad JSON, an integer longer than int() converts, and nesting
    deeper than the decoder's recursion limit."""
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        return json.loads(document)
    except UnicodeDecodeError as exc:
        reason = "document is not valid UTF-8: %s" % exc
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except ValueError:
        reason = "an integer has more than %d digits" % sys.get_int_max_str_digits()
    except RecursionError:
        reason = "arrays or objects nested too deeply"
    raise SpecValidationError("invalid %s: %s" % (what, reason))


def parse_spec(document: Union[str, bytes]) -> Union[JoinSpec, GeneralizedJoinSpec]:
    """Parse a UTF-8 JSON spec document into a validated specification."""
    return spec_document_from_json(_decode(document, "JSON"))


def parse_catalog(document: Union[str, bytes]) -> List[Graph]:
    """Parse a graph catalog: a JSON array of graphs, or an object whose
    "graphs" key holds one."""
    data = _decode(document, "catalog JSON")
    raw, base = data, ""
    if isinstance(data, dict) and "graphs" in data:
        raw, base = data["graphs"], "/graphs"
    if not isinstance(raw, list):
        _fail(base, "catalog must be a JSON array of graphs")
    return [graph_from_json(obj, "%s/%d" % (base, i)) for i, obj in enumerate(raw)]


# ---------------------------------------------------------------------------
# reports and certificates


def _eigen_class_to_json(cls) -> Dict[str, Any]:
    return {
        "class_poly": polynomial_to_json(cls.poly),
        "flag": cls.is_main,
        "rational": None if cls.rational is None else fraction_to_json(cls.rational),
        "multiplicity": cls.multiplicity,
    }


def report_to_json(report: SpectralReport) -> Dict[str, Any]:
    return {
        "charpoly_direct": polynomial_to_json(report.charpoly_direct),
        "charpoly_block": polynomial_to_json(report.charpoly_block),
        "factor_charpolys": [polynomial_to_json(p) for p in report.factor_charpolys],
        "phi_polynomial": polynomial_to_json(report.phi_polynomial),
        "main_denominators": [polynomial_to_json(g.denominator) for g in report.gammas],
        "e_main_flags": [[_eigen_class_to_json(cls) for cls in per_factor]
                         for per_factor in report.e_main_flags],
        "carry_forward": [
            {
                "factor": row.factor,
                "class": polynomial_to_json(row.eigen_class.poly),
                "bound": row.guaranteed,
                "observed": row.observed,
            }
            for row in report.carry_forward
        ],
        "numeric_spectrum": [[value, mult] for value, mult in report.numeric_spectrum],
    }


def _entry_to_json(mf: MainFunction, a: int, b: int, factor: Fraction) -> Dict[str, List[str]]:
    num, den = mf.entry(a, b)
    return {"num": [fraction_to_json(c * factor) for c in num.coeffs], "den": polynomial_to_json(den)}


def certificate_to_json(cert: CospectralCertificate) -> Dict[str, Any]:
    """The witnesses are the slot main functions, entry by entry in lowest
    terms as {"num", "den"}. A gamma != 0 witness S^T (xI - M)^{-1} S,
    S = [1 | 1_S], prints as V^T (xI - M)^{-1} S with V = [gamma*1 | 1_S]:
    its row 0 times gamma, which keeps each entry in lowest terms."""
    gamma = cert.spec_a.params.gamma or 1
    witness = [[[_entry_to_json(mf, a, b, gamma if a == 0 else 1) for b in range(len(row))]
                for a, row in enumerate(mf.f)]
               for mf in cert.gamma_witness]
    return {
        "kind": cert.kind,
        "spec_a": generalized_spec_to_json(cert.spec_a),
        "spec_b": generalized_spec_to_json(cert.spec_b),
        "charpoly": polynomial_to_json(cert.charpoly),
        "isomorphic": cert.isomorphic,
        "gamma_witness": witness,
    }


def canonical_dumps(document) -> str:
    """Deterministic rendering: fixed key order, two-space indent, one
    trailing newline."""
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
