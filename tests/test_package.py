"""Package-wide rules: value types are immutable, copy and pickle, and are
declared one way, and every public name is used by the package itself, not
only by its tests."""

import ast
import copy
import pathlib
import pickle
import types

import pytest

import hmjoin
from hmjoin import (
    Graph,
    IndexingMap,
    JoinSpec,
    Polynomial,
    UniversalParams,
    block_charpoly,
    cartesian_product,
    main_function,
    make_named,
    search_pairs,
)


def test_value_types_refuse_mutation():
    spec = JoinSpec(make_named("path", [2]), [make_named("cycle", [4]), make_named("path", [3])], 2,
                    [IndexingMap([1, 2, 1, 2], 2), IndexingMap([1, None, 2], 2)])
    report = block_charpoly(spec)
    cert = search_pairs([make_named("cycle", [6])], 1, "A")[0]
    fields = [(Graph(2, [(0, 1)]), "n"), (spec.indexing[0], "m"), (spec, "m"), (cert.spec_a, "params"),
              (UniversalParams.preset("A"), "alpha"), (Polynomial([1, 1]), "coeffs"), (report.gammas[0], "s"),
              (report, "charpoly_direct"), (cert, "kind")]
    for value, field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert [type(value).__name__ for value, _ in fields] == [
        "Graph", "IndexingMap", "JoinSpec", "GeneralizedJoinSpec", "UniversalParams", "Polynomial",
        "MainFunction", "SpectralReport", "CospectralCertificate"]


def test_assignment_is_refused_in_one_place():
    # every value type inherits its refusal from one base class; a second
    # __setattr__ anywhere in the package would be a copy of that rule
    found = []
    for path in sorted(pathlib.Path(hmjoin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "__setattr__"]
    assert found == [("polynomials.py", "_Value")]


def test_every_value_survives_copy_and_pickle():
    spec = JoinSpec(make_named("path", [2]), [make_named("cycle", [4]), make_named("path", [3])], 2,
                    [IndexingMap([1, 2, 1, 2], 2), IndexingMap([1, None, 2], 2)])
    report = block_charpoly(spec)
    cert = search_pairs([make_named("cycle", [6])], 1, "A")[0]
    family = cartesian_product(make_named("path", [2]), make_named("path", [2]))
    values = [Graph(2, [(0, 1)], labels=["x", "y"]), spec.indexing[0], spec, cert.spec_a,
              UniversalParams.preset("L"), Polynomial([1, 1]), report.gammas[0], report, cert,
              report.e_main_flags[0][0], report.carry_forward[0], family]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
    assert pickle.loads(pickle.dumps(values[0])).labels == ("x", "y")


def test_main_function_is_built_positionally_and_its_views_are_lazy():
    mf = main_function([[0, 1], [1, 0]], [[1], [0]])
    names = {"charpoly", "denominator", "numerator"}
    assert not names & set(vars(mf))
    assert type(mf)(mf.s, mf.phi, mf.g, mf.f, mf.scale) == mf
    with pytest.raises(TypeError, match="^MainFunction takes 5 values, got 4$"):
        type(mf)(mf.s, mf.phi, mf.g, mf.f)
    views = mf.charpoly, mf.denominator, mf.numerator
    assert names <= set(vars(mf))
    for twin in (copy.copy(mf), copy.deepcopy(mf), pickle.loads(pickle.dumps(mf))):
        assert twin == mf and hash(twin) == hash(mf)
        assert (twin.charpoly, twin.denominator, twin.numerator) == views
        assert vars(twin) is not vars(mf)


def test_no_module_declares_a_dataclass():
    # records subclass polynomials._Value; a dataclass would be a second
    # way to declare a value, with its own equality, repr and refusal
    found = []
    for path in sorted(pathlib.Path(hmjoin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                found.append((path.name, node.module))
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                found += [(path.name, ast.unparse(d)) for d in node.decorator_list if "dataclass" in ast.unparse(d)]
    assert found == []


def test_every_export_is_used_inside_the_package():
    # a public name that no module of the package reaches, outside its own
    # def or class, is a test-only helper and belongs under tests/
    exported = {name for name in hmjoin.__all__ if not isinstance(getattr(hmjoin, name), types.ModuleType)}
    used = set()

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id not in owners:
                used.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in owners:
                used.add(child.attr)
            elif isinstance(child, ast.ImportFrom):
                used.update(alias.name for alias in child.names)
            inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, owners | {child.name} if inner else owners)

    for path in pathlib.Path(hmjoin.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    assert "graph_to_edgelist" in exported and "Graph" in used
    assert sorted(exported - used) == []
