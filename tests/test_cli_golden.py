"""Golden CLI outputs: every verb on every shipped fixture, the family
builds and the cospectral searches, run in-process, with the exit code and
the sha256 of stdout pinned in ``cli_golden.json``.

``numeric_spectrum`` (LAPACK floats) is removed from JSON output before
hashing, so the digests hold across machines. Refusals must print exactly
one stderr line, and that line is pinned too. Every command runs a second
time with each prime of the block lift in a group of its own, and must
print the same bytes.

After a deliberate change of output, rewrite the digests with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

import hmjoin.exactlinalg as exactlinalg

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

_LABELED = ("p2_2_k2_k5", "p2_2_p3_p4", "p3_3", "p4_5_mixed")
_GENERALIZED = ("p4_generalized", "cospectral_l_gap_a", "cospectral_l_gap_b")
_FAMILIES = (("petersen", "5", "2"), ("cartesian", "path:3", "cycle:4"), ("helm", "3", "2"),
             ("web", "2", "4"), ("lollipop", "4", "3"), ("tadpole", "4", "3"),
             ("petersen", "7", "3"), ("web", "3", "3"), ("helm", "4", "1"),
             ("cartesian", "cycle:3", "complete:2"))

# invalid inputs, written next to the run; argv names them by key
_INPUTS = {
    "malformed_spec.json": '{"host": {"n": 2, "edges": [[0, 1]]}, "m": 1}',
    "not_json_catalog.txt": "cycle 5\n",
}
# two C6-anchor joins with gamma != 0 and delta != 0 whose subsets differ
# by a rotation, so every kind certifies them
_C6_ANCHOR = ('{"host": {"n": 2, "edges": [[0, 1]]}, '
              '"factors": [{"family": "cycle", "params": [6]}, {"n": 1, "edges": []}], '
              '"subsets": [%s, [0]], '
              '"params": {"alpha": "1", "beta": "0", "gamma": "2", "delta": "-1/2"}}')
_INPUTS["c6_anchor_a.json"] = _C6_ANCHOR % "[0, 1]"
_INPUTS["c6_anchor_b.json"] = _C6_ANCHOR % "[2, 3]"
_INPUTS["c6_anchor_c.json"] = _C6_ANCHOR % "[0, 3]"
# refusals of one factor or subset, reported at that item's pointer
_INPUTS["empty_factor.json"] = ('{"host": {"n": 2, "edges": [[0, 1]]}, "m": 1, '
                                '"factors": [{"n": 0, "edges": []}, {"n": 1, "edges": []}], "indexing": [[], [1]]}')
_INPUTS["empty_factor_generalized.json"] = ('{"host": {"n": 2, "edges": [[0, 1]]}, '
                                            '"factors": [{"n": 1, "edges": []}, {"n": 0, "edges": []}], '
                                            '"subsets": [[0], []], "params": "A"}')
_INPUTS["subset_outside_factor.json"] = ('{"host": {"n": 2, "edges": [[0, 1]]}, '
                                         '"factors": [{"n": 2, "edges": [[0, 1]]}, {"n": 1, "edges": []}], '
                                         '"subsets": [[1, 5], [0]], "params": "A"}')


def invocations():
    """Every argv the golden file pins, in a fixed order. Paths are
    relative to the repository root; ``@name`` stands for an entry of
    ``_INPUTS``."""
    out = []
    for name in _LABELED + _GENERALIZED:
        spec = "fixtures/%s.json" % name
        for verb in ("join", "charpoly", "classify", "verify"):
            out.append([verb, spec])
        for mode in ("unused", "global-exclusive", "neighbor-exclusive"):
            out.append(["reduce", spec, "--mode", mode])
        for preset in ("A", "L", "Q", "seidel", "Aalpha:97/100"):
            out.append(["universal", spec, "--preset", preset])
        out.append(["universal", spec, "--params", "3/2,1,0,-1/3"])
        out.append(["universal", spec])
    for fam in _FAMILIES:
        out.append(["family", *fam])
        out.append(["family", *fam, "--charpoly"])
    gen = ["fixtures/%s.json" % name for name in _GENERALIZED]
    for kind in ("A", "S", "L", "U"):
        for spec in gen:
            out.append(["cospectral", "check", spec, spec, "--kind", kind])
    out.append(["cospectral", "check", gen[1], gen[2], "--kind", "L"])
    out.append(["cospectral", "check", gen[1], gen[2], "--kind", "A"])
    out.append(["cospectral", "check", "fixtures/p3_3.json", "fixtures/p3_3.json", "--kind", "A"])
    for kind in ("A", "S", "L", "U"):
        out.append(["cospectral", "check", "@c6_anchor_a.json", "@c6_anchor_b.json", "--kind", kind])
        out.append(["cospectral", "check", "@c6_anchor_a.json", "@c6_anchor_c.json", "--kind", kind])
    out.append(["universal", "@c6_anchor_a.json"])
    catalog = "fixtures/catalog.json"
    for kind in ("A", "S", "L"):
        out.append(["cospectral", "search", catalog, "--kind", kind, "--budget", "1"])
    out.append(["cospectral", "search", catalog, "--kind", "U", "--budget", "1", "--preset", "Q"])
    out.append(["cospectral", "search", catalog, "--kind", "U", "--budget", "1",
                "--params", "1,0,2,0"])
    out.append(["cospectral", "search", catalog, "--kind", "U", "--budget", "1",
                "--params=-1,1,1/2,1"])
    out.append(["cospectral", "search", catalog, "--kind", "A", "--budget", "0"])
    out.append(["cospectral", "search", "@not_json_catalog.txt", "--kind", "A"])
    out.append(["charpoly", "@malformed_spec.json"])
    for name in ("empty_factor", "empty_factor_generalized", "subset_outside_factor"):
        out.append(["charpoly", "@%s.json" % name])
    out.append(["family", "moebius", "3"])
    out.append(["universal", "fixtures/p3_3.json", "--params", "1,2,3"])
    return out


def _key(argv):
    return " ".join(argv)


def _strip(node):
    if isinstance(node, dict):
        return {k: _strip(v) for k, v in node.items() if k != "numeric_spectrum"}
    if isinstance(node, list):
        return [_strip(v) for v in node]
    return node


def _digest(text):
    try:
        text = json.dumps(_strip(json.loads(text)), sort_keys=True)
    except ValueError:
        pass
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv, scratch):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    from hmjoin.cli import main

    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            path = pathlib.Path(scratch) / arg[1:]
            path.write_text(_INPUTS[arg[1:]], encoding="utf-8")
            arg = str(path)
        elif arg.startswith("fixtures/"):
            arg = str(ROOT / arg)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_invocation():
    assert sorted(_golden()) == sorted(_key(argv) for argv in invocations())


@pytest.mark.parametrize("argv", invocations(), ids=_key)
def test_cli_golden(argv, tmp_path):
    expected = _golden()[_key(argv)]
    code, out, err = run(argv, tmp_path)
    assert code == expected["exit"], err
    assert _digest(out) == expected["stdout_sha256"]
    if code != 0:
        assert len(err.strip().splitlines()) == 1, err
        assert err.strip() == expected["stderr"]


@pytest.mark.parametrize("argv", invocations(), ids=_key)
def test_cli_golden_with_one_prime_per_block_group(argv, tmp_path, monkeypatch):
    # the block lift's prime groups change no output byte
    monkeypatch.setattr(exactlinalg, "_STACK_ENTRIES", 1)
    expected = _golden()[_key(argv)]
    code, out, _ = run(argv, tmp_path)
    assert (code, _digest(out)) == (expected["exit"], expected["stdout_sha256"])


def record():
    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        for argv in invocations():
            code, out, err = run(argv, scratch)
            table[_key(argv)] = {"exit": code, "stdout_sha256": _digest(out)}
            if code != 0:
                table[_key(argv)]["stderr"] = err.strip()
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return table


if __name__ == "__main__":
    print("%d invocations recorded in %s" % (len(record()), GOLDEN.name))
