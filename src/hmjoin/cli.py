"""Command-line front end: parse spec documents, dispatch the library
computations, and emit deterministic machine-readable reports. Each verb
returns its document; `main` renders and writes it.

Exit status: 0 on success, 1 when a verified identity fails (the failed
identity is named on stderr), 2 on input or hypothesis errors."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .cospectral import (
    COSPECTRAL_KINDS,
    GeneralizedJoinSpec,
    check_cospectral_conditions,
    generalized_universal_charpoly,
    kind_parameters,
    search_pairs,
)
from .errors import (
    BlockFactorizationError,
    CarryForwardError,
    HmJoinError,
    InvalidParametersError,
    SpecValidationError,
    TheoremViolationError,
)
from .exactlinalg import rational_roots
from .families import (
    FamilyRealization,
    cartesian_product,
    generalized_helm,
    generalized_petersen,
    generalized_web,
    lollipop,
    tadpole,
)
from .graphs import Graph, UniversalParams, graph_to_edgelist, make_named, universal_matrix
from .joins import REDUCTION_MODES, JoinSpec, hm_join, indexing_matrix, reduce_labels, reduction_report
from .polynomials import Polynomial, render_polynomial
from .serialize import (
    _eigen_class_to_json,
    canonical_dumps,
    certificate_to_json,
    fraction_from_json,
    params_to_json,
    parse_catalog,
    parse_spec,
    polynomial_to_json,
    report_to_json,
    spec_to_json,
)
from .spectra import SpectralReport, block_charpoly, classify_e_main, universal_block_charpoly

_VIOLATIONS = (BlockFactorizationError, CarryForwardError, TheoremViolationError)


# ---------------------------------------------------------------------------
# rendering


def factored_charpoly_string(p: Polynomial, matrix) -> str:
    """Render p, the characteristic polynomial of the matrix, as its
    linear factors at the rational roots, ascending, times the cofactor
    (`exactlinalg.rational_roots`). p is monic and so are its linear
    factors, so a constant cofactor is 1 and is left out."""
    if p.degree <= 0:
        return render_polynomial(p, "λ")
    roots, remainder = rational_roots(p, matrix)
    parts: List[str] = []
    for root, mult in roots:
        if root == 0:
            base = "λ"
        elif root > 0:
            base = "(λ-%s)" % root
        else:
            base = "(λ+%s)" % -root
        parts.append(base + ("^%d" % mult if mult > 1 else ""))
    if remainder.degree > 0:
        parts.append("(" + render_polynomial(remainder, "λ") + ")")
    return "".join(parts)


# ---------------------------------------------------------------------------
# plumbing


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_text(text: str, path: Optional[str]):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_spec(path: str):
    return parse_spec(_read_bytes(path))


def _load_join_spec(path: str) -> JoinSpec:
    spec = _load_spec(path)
    return spec.to_hm() if isinstance(spec, GeneralizedJoinSpec) else spec


def _parse_params_option(args) -> Optional[UniversalParams]:
    if args.preset:
        return UniversalParams.preset(args.preset)
    if args.params is None:
        return None
    parts = args.params.split(",")
    if len(parts) != 4:
        raise InvalidParametersError(
            "--params expects four comma-separated fractions alpha,beta,gamma,delta")
    try:
        values = [fraction_from_json(part.strip()) for part in parts]
    except SpecValidationError as exc:
        raise InvalidParametersError("--params: %s" % exc.message) from None
    return UniversalParams(*values)


def _report_parts(report: SpectralReport, matrix) -> Tuple[str, dict]:
    """The factored rendering of the report's charpoly, and the report's
    JSON form: the two halves of every spectral-report document."""
    return factored_charpoly_string(report.charpoly_direct, matrix), report_to_json(report)


# ---------------------------------------------------------------------------
# verbs: each returns its document, a JSON value or (join) the edge list


def _cmd_join(args) -> str:
    return graph_to_edgelist(hm_join(_load_join_spec(args.spec)))


def _cmd_charpoly(args) -> dict:
    spec = _load_join_spec(args.spec)
    factored, body = _report_parts(block_charpoly(spec), hm_join(spec).adjacency_matrix())
    return {"charpoly_factored": factored, **body}


def _cmd_classify(args) -> dict:
    spec = _load_join_spec(args.spec)
    factors = []
    for i in range(spec.k):
        e = indexing_matrix(spec.factors[i], spec.indexing[i])
        classes = classify_e_main(spec.factors[i].adjacency_matrix(), e)
        factors.append([_eigen_class_to_json(cls) for cls in classes])
    return {"e_main_flags": factors}


def _cmd_verify(args) -> dict:
    return {"verified": True, **report_to_json(block_charpoly(_load_join_spec(args.spec)))}


def _cmd_reduce(args) -> dict:
    spec = _load_join_spec(args.spec)
    return {**reduction_report(spec, args.mode),
            "spec": spec_to_json(reduce_labels(spec, args.mode))}


def _graph_token(token: str) -> Graph:
    kind, sep, rest = token.partition(":")
    if not sep:
        raise InvalidParametersError(
            "graph token %r must look like kind:params, e.g. path:4" % token)
    try:
        params = [int(x) for x in rest.split(",") if x != ""]
    except ValueError:
        raise InvalidParametersError("graph token %r has non-integer parameters" % token)
    return make_named(kind, params)


def _build_family(name: str, raw_params: List[str]) -> FamilyRealization:
    if name == "cartesian":
        if len(raw_params) != 2:
            raise InvalidParametersError(
                "cartesian expects two graph tokens, e.g. cartesian path:3 cycle:4")
        return cartesian_product(_graph_token(raw_params[0]), _graph_token(raw_params[1]))
    builders = {
        "petersen": generalized_petersen,
        "helm": generalized_helm,
        "web": generalized_web,
        "lollipop": lollipop,
        "tadpole": tadpole,
    }
    if name not in builders:
        raise InvalidParametersError(
            "unknown family %r (expected cartesian, petersen, helm, web, lollipop, tadpole)" % name)
    if len(raw_params) != 2:
        raise InvalidParametersError("family %s expects 2 integer parameters" % name)
    try:
        values = [int(x) for x in raw_params]
    except ValueError:
        raise InvalidParametersError("family %s expects integer parameters" % name)
    return builders[name](*values)


def _cmd_family(args) -> dict:
    realization = _build_family(args.name, args.params)
    doc = {
        "family": args.name,
        "params": list(args.params),
        "n": realization.direct.n,
        "edgelist": graph_to_edgelist(realization.direct),
        "spec": spec_to_json(realization.spec),
    }
    if args.charpoly:
        doc["charpoly_factored"], doc["report"] = _report_parts(
            block_charpoly(realization.spec), realization.direct.adjacency_matrix())
    return doc


def _cmd_universal(args) -> dict:
    spec = _load_spec(args.spec)
    override = _parse_params_option(args)
    if isinstance(spec, GeneralizedJoinSpec):
        if override is not None:
            spec = GeneralizedJoinSpec(spec.host, spec.factors, spec.subsets, override)
        charpoly_poly = generalized_universal_charpoly(spec)
        matrix = universal_matrix(spec.join_graph(), spec.params)
        return {
            "params": params_to_json(spec.params),
            "charpoly": polynomial_to_json(charpoly_poly),
            "charpoly_factored": factored_charpoly_string(charpoly_poly, matrix),
        }
    if override is None:
        raise InvalidParametersError(
            "labeled join specs need --preset or --params for the universal verb")
    factored, body = _report_parts(universal_block_charpoly(spec, override),
                                   universal_matrix(hm_join(spec), override))
    return {"params": params_to_json(override), "charpoly_factored": factored, **body}


def _load_generalized(path: str) -> GeneralizedJoinSpec:
    spec = _load_spec(path)
    if not isinstance(spec, GeneralizedJoinSpec):
        raise SpecValidationError(
            "the cospectral verb needs generalized specs (with subsets and params)")
    return spec


def _cmd_cospectral_check(args) -> dict:
    if args.spec_a == "-" and args.spec_b == "-":
        raise InvalidParametersError("at most one spec may come from standard input")
    spec_a = _load_generalized(args.spec_a)
    spec_b = _load_generalized(args.spec_b)
    return certificate_to_json(check_cospectral_conditions(spec_a, spec_b, args.kind))


def _cmd_cospectral_search(args) -> dict:
    if args.kind != "U" and (args.preset is not None or args.params is not None):
        raise InvalidParametersError("--preset and --params apply to kind U only")
    graphs = parse_catalog(_read_bytes(args.catalog))
    params = _parse_params_option(args)
    certs = search_pairs(graphs, args.budget, args.kind, params)
    return {
        "kind": args.kind,
        "params": params_to_json(kind_parameters(args.kind, params)),
        "certificates": [certificate_to_json(c) for c in certs],
    }


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments like every other invalid input: one
    `error: <message>` line on stderr and exit 2, with no usage block.
    Subparsers are made with the same class."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hmjoin",
        description="Construct labeled joins of graphs and compute their exact spectra.")
    sub = parser.add_subparsers(dest="verb", required=True)
    leaves = []

    def verb(parent, name, func, help, *positional):
        """A subcommand running func on the given positional arguments;
        every subcommand takes -o/--output as its last option."""
        p = parent.add_parser(name, help=help)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(func=func)
        leaves.append(p)
        return p

    verb(sub, "join", _cmd_join, "build the join graph, print an edge list").add_argument(
        "spec", help="spec JSON path ('-' = stdin)")
    verb(sub, "charpoly", _cmd_charpoly, "block-factorized characteristic polynomial report", "spec")
    verb(sub, "classify", _cmd_classify, "per-factor eigenvalue-class main flags", "spec")
    verb(sub, "verify", _cmd_verify, "check the factorization and carry-forward identities", "spec")
    verb(sub, "reduce", _cmd_reduce, "delete removable labels", "spec").add_argument(
        "--mode", choices=REDUCTION_MODES, required=True)

    p_fam = verb(sub, "family", _cmd_family, "build a named family as a join spec", "name")
    p_fam.add_argument("params", nargs="*")
    p_fam.add_argument("--charpoly", action="store_true", help="include the spectral report")

    p_uni = verb(sub, "universal", _cmd_universal, "universal-matrix charpoly (alpha*A+beta*I+gamma*J+delta*D)", "spec")
    uni_params = p_uni.add_mutually_exclusive_group()
    uni_params.add_argument("--preset", help="A, L, Q, seidel, or Aalpha:<r>")
    uni_params.add_argument("--params", help="alpha,beta,gamma,delta as fraction strings")

    p_cos = sub.add_parser("cospectral", help="certify or search cospectral join pairs")
    cos_sub = p_cos.add_subparsers(dest="action", required=True)
    verb(cos_sub, "check", _cmd_cospectral_check, "verify one candidate pair", "spec_a", "spec_b").add_argument(
        "--kind", choices=COSPECTRAL_KINDS, required=True)
    p_srch = verb(cos_sub, "search", _cmd_cospectral_search, "search a graph catalog for certified pairs", "catalog")
    p_srch.add_argument("--kind", choices=COSPECTRAL_KINDS, required=True)
    p_srch.add_argument("--budget", type=int, default=2, help="largest subset size tried")
    srch_params = p_srch.add_mutually_exclusive_group()
    srch_params.add_argument("--preset", help="universal preset for kind U")
    srch_params.add_argument("--params", help="alpha,beta,gamma,delta for kind U")

    for p in leaves:
        p.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    return parser


def _attach_params(argv: List[str]) -> List[str]:
    """`--params VALUE` as `--params=VALUE`, so that a VALUE starting with a
    minus sign, such as -1,0,0,1, is not taken for an option."""
    out: List[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            out.append(arg)
            out.extend(rest)
            break
        if arg == "--params":
            value = next(rest, None)
            if value is not None:
                arg = "--params=" + value
        out.append(arg)
    return out


# Built on the first `main` call, not at import, which every importer would
# pay for. Parsing mutates no parser state, so reuse changes no output.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line (default `sys.argv[1:]`) and return its exit
    status. May be called repeatedly in one process; the parser is built
    on the first call."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(_attach_params(sys.argv[1:] if argv is None else argv))
    try:
        doc = args.func(args)
        _write_text(doc if isinstance(doc, str) else canonical_dumps(doc), args.output)
    except _VIOLATIONS as exc:
        print("violation: %s" % exc, file=sys.stderr)
        return 1
    except (HmJoinError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
