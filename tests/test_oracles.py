"""The oracles of `oracles` stay independent of the library they check."""

import ast
import inspect
import pathlib

import hmjoin.errors

ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_only_polynomial_and_errors_from_hmjoin():
    errors = {name for name, obj in vars(hmjoin.errors).items() if inspect.isclass(obj)}
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "hmjoin" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hmjoin":
            imported += [(node.module, alias.name) for alias in node.names]
    assert imported
    for module, name in imported:
        assert (module, name) == ("hmjoin.polynomials", "Polynomial") \
            or (module == "hmjoin.errors" and name in errors), (module, name)
