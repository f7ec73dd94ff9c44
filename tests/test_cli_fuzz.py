"""CLI fuzzing: every verb runs on mutated copies of the shipped fixtures
and catalog, on mutated --params and --preset strings (the preset both as
`--preset X` and as `--preset=X`), on free --budget strings and integers,
and on bad --kind and --mode choices. The mutations drop keys and list
items, retype values, put small or out-of-range integers and malformed
fractions in place of values, and cut or corrupt the bytes (truncation,
non-UTF-8). Each run must exit 0, 1 or 2, and every non-zero exit must
print exactly one stderr line and no traceback, argparse's own refusals
included.

The examples are derandomized, so the test is repeatable; to explore
further, raise ``max_examples`` or drop ``derandomize`` locally."""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmjoin.cli import main
from hmjoin.cospectral import COSPECTRAL_KINDS
from hmjoin.joins import REDUCTION_MODES

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SPECS = {p.name: json.loads(p.read_text(encoding="utf-8"))
         for p in sorted(FIXTURES.glob("*.json")) if p.name != "catalog.json"}
CATALOG = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))

# what a mutation puts in place of a value: wrong types, small and
# out-of-range integers, malformed fractions and family names
VALUES = st.one_of(
    st.integers(-2, 8),
    st.sampled_from(["", "x", "1/0", "1.5", "-1/2", "3", "A", "seidel", "cycle", "moebius"]),
    st.sampled_from([None, True, 1.5, [], {}, [[0, 1]], [1, None], {"n": 1}]),
)
FRACTIONS = st.sampled_from(["0", "1", "-1", "1/2", "-1/3", "2", "1/0", "x", "1.5", "", " 1"])
PARAMS = st.lists(FRACTIONS, max_size=5).map(",".join)
PRESETS = st.sampled_from(["A", "L", "Q", "seidel", "Aalpha:97/100", "Aalpha:2", "Aalpha:x",
                           "Aalpha:1/0", "B", "", "-x"])


def _cheap_budget(text):
    """False for a budget of 2..16: on a 16-vertex catalog graph that is a
    search over hundreds to thousands of configurations, while a larger
    budget is refused at once by the configuration cap."""
    try:
        return not 2 <= int(text) <= 16
    except ValueError:
        return True


BUDGETS = (st.integers(-2, 10 ** 30).map(str) | st.text(max_size=4)).filter(_cheap_budget)
KINDS = st.sampled_from(COSPECTRAL_KINDS + ("Z", "a", ""))
MODES = st.sampled_from(REDUCTION_MODES + ("bogus", ""))
FAMILIES = ("petersen", "helm", "web", "lollipop", "tadpole", "cartesian", "moebius")
TOKENS = st.sampled_from(["path:3", "cycle:4", "complete:2", "star:1,3", "cycle:2", "cycle:x", "path"])
VERBS = ("join", "charpoly", "classify", "verify", "reduce", "universal", "family",
         "check", "search")


def _paths(node, path=()):
    """The path of every value in a JSON document, parents first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """The UTF-8 bytes of `doc` after up to three mutations, then maybe
    truncated or made invalid UTF-8."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(VALUES))
    data = json.dumps(doc).encode("utf-8")
    cut = draw(st.sampled_from(["none", "none", "none", "truncate", "non-utf8"]))
    at = draw(st.integers(0, len(data)))
    if cut == "truncate":
        data = data[:at]
    elif cut == "non-utf8":
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


def _option(draw):
    """No option, a --preset string or a --params string."""
    choice = draw(st.sampled_from(["none", "preset", "params"]))
    if choice == "preset":
        preset = draw(PRESETS)
        return ["--preset=" + preset] if draw(st.booleans()) else ["--preset", preset]
    if choice == "params":
        return ["--params", draw(PARAMS)]
    return []


def invocation(draw, verb, scratch):
    """An argv for `verb`, with its input files written under `scratch`."""

    def spec_file(name):
        path = scratch / name
        path.write_bytes(draw(mutated(SPECS[draw(st.sampled_from(sorted(SPECS)))])))
        return str(path)

    if verb in ("join", "charpoly", "classify", "verify"):
        return [verb, spec_file("a.json")]
    if verb == "reduce":
        return ["reduce", spec_file("a.json"), "--mode", draw(MODES)]
    if verb == "universal":
        return ["universal", spec_file("a.json")] + _option(draw)
    if verb == "check":
        kind = draw(KINDS)
        return ["cospectral", "check", spec_file("a.json"), spec_file("b.json"), "--kind", kind]
    if verb == "search":
        # at most three catalog graphs keep each search cheap
        picked = draw(st.lists(st.sampled_from(range(len(CATALOG["graphs"]))), max_size=3, unique=True))
        graphs = [CATALOG["graphs"][i] for i in sorted(picked)]
        doc = {"graphs": graphs} if draw(st.booleans()) else graphs
        path = scratch / "catalog.json"
        path.write_bytes(draw(mutated(doc)))
        kind = draw(KINDS)
        return ["cospectral", "search", str(path), "--kind", kind, "--budget", draw(BUDGETS)] + _option(draw)
    name = draw(st.sampled_from(FAMILIES))
    values = TOKENS if name == "cartesian" else st.integers(-1, 6).map(str)
    params = draw(st.lists(values, min_size=2, max_size=2) | st.lists(values, max_size=3))
    return ["family", name, *params] + (["--charpoly"] if draw(st.booleans()) else [])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exits_cleanly_on_mutated_input(verb, scratch, data):
    argv = invocation(data.draw, verb, scratch)
    code, _, err = run(argv)
    assert code in (0, 1, 2), (argv, err)
    if code != 0:
        assert len(err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, (argv, err)
