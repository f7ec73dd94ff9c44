"""Seeded job lists for the benchmark workloads.

``build(name, seed, hm, root, reference)`` returns the workload's jobs;
``hm`` is the imported ``hmjoin`` package and ``root`` the repository.
Each job has a timed ``run`` and an untimed ``check`` of its output; the
check returns None when the output is right, or a one-line reason: the
result differs from its reference (``wrong:``), or the operation raised,
exited with an unexpected status, or wrote more than one error line.
Any failure makes the run incorrect, except a job's known ``baseline``
failure: a reason that starts with the job's ``baseline`` prefix.
"""

import hashlib
import io
import json
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

WORKLOADS = ("block-phi", "block-factor", "cli-mix")

# The two largest primes below 2**25: a sum of at most 64 products of two
# residues stays below 2**63, so int64 matrix products of order <= 64 are
# exact.
_PRIMES = (33554393, 33554383)


class Job:
    __slots__ = ("name", "run", "check", "sizes", "baseline")

    def __init__(self, name, run, check, sizes=None, baseline=None):
        self.name = name
        self.run = run
        self.check = check
        self.sizes = sizes
        self.baseline = baseline

    def tolerated(self, reason):
        """True when ``reason`` is this job's known baseline failure."""
        return self.baseline is not None and reason.startswith(self.baseline)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def poly_digest(poly):
    return digest(",".join(str(c) for c in poly.coeffs))


def _bits(poly):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


def report_sizes(spec, report):
    return {"n": spec.total_vertices, "k": spec.k, "m": spec.m, "km": spec.k * spec.m,
            "deg_phi": report.phi_polynomial.degree,
            "coeff_bits_max": max(_bits(report.charpoly_direct), _bits(report.phi_polynomial))}


# -- an exact check independent of hmjoin's pipeline ------------------------


def newton_mismatch(adjacency, poly):
    """None when det(xI - A) agrees with ``poly`` modulo two primes.

    Power sums trace(A^k) give the elementary symmetric functions e_k by
    Newton's identities; the coefficient of x^(n-k) is (-1)^k e_k."""
    n = len(adjacency)
    coeffs = poly.coeffs
    if len(coeffs) != n + 1 or any(c.denominator != 1 for c in coeffs):
        return "wrong: charpoly has degree %d or non-integer coefficients" % (len(coeffs) - 1)
    for p in _PRIMES:
        a = np.array(adjacency, dtype=np.int64) % p
        power = np.eye(n, dtype=np.int64)
        sums = [0]
        for _ in range(n):
            power = (power @ a) % p
            sums.append(int(np.trace(power)) % p)
        e = [1]
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                term = e[k - i] * sums[i]
                acc += term if i % 2 else -term
            e.append(acc * pow(k, -1, p) % p)
        for k in range(n + 1):
            expected = e[k] if k % 2 == 0 else -e[k]
            if (coeffs[n - k].numerator - expected) % p:
                return "wrong: coefficient of x^%d differs modulo %d" % (n - k, p)
    return None


def _join_adjacency(host_edges, factor_edges, labels):
    """Adjacency of a labeled join, assembled from the raw generator data."""
    offsets = [0]
    for lab in labels:
        offsets.append(offsets[-1] + len(lab))
    n = offsets[-1]
    adj = [[0] * n for _ in range(n)]

    def link(u, v):
        adj[u][v] = adj[v][u] = 1

    for i, edges in enumerate(factor_edges):
        for u, v in edges:
            link(offsets[i] + u, offsets[i] + v)
    for i, j in host_edges:
        for u, lu in enumerate(labels[i]):
            for v, lv in enumerate(labels[j]):
                if lu is not None and lu == lv:
                    link(offsets[i] + u, offsets[j] + v)
    return adj


# -- seeded random specs -----------------------------------------------------


def _all_main(n, edges, labels, m):
    """True when the factor has a simple spectrum and every eigenvector
    meets a label class, so the reduced main-function denominator has full
    degree n and the reduced determinant's size does not depend on luck."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    w, vecs = np.linalg.eigh(a)
    if np.min(np.diff(w)) < 1e-6:
        return False
    e = np.zeros((n, m))
    for v, lab in enumerate(labels):
        if lab is not None:
            e[v, lab - 1] = 1.0
    return bool(np.min(np.linalg.norm(vecs.T @ e, axis=1)) > 1e-6)


def random_join(rng, hm, k, size, edges, m, unlabeled):
    """Path host on k vertices; each factor has ``size`` vertices and
    ``edges`` random edges, and its labels are a shuffle of ``unlabeled``
    unlabeled vertices and labels 1..m in turn.  Factors are redrawn until
    every eigenvalue is main (see ``_all_main``), so the amount of work
    depends little on the seed."""
    host_edges = [(i, i + 1) for i in range(k - 1)]
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    base = [None] * unlabeled + [1 + i % m for i in range(size - unlabeled)]
    factor_edges, labels = [], []
    for _ in range(k):
        while True:
            chosen = sorted(rng.sample(pairs, edges))
            lab = base[:]
            rng.shuffle(lab)
            if _all_main(size, chosen, lab, m):
                break
        factor_edges.append(chosen)
        labels.append(lab)
    g = hm.graphs.Graph
    spec = hm.joins.JoinSpec(g(k, host_edges), [g(size, e) for e in factor_edges], m,
                             [hm.joins.IndexingMap(lab, m) for lab in labels])
    return spec, _join_adjacency(host_edges, factor_edges, labels)


# -- block workloads -----------------------------------------------------------


def _block_job(hm, name, spec, params, check_output):
    if params is None:
        def run():
            return hm.spectra.block_charpoly(spec)
    else:
        def run():
            return hm.spectra.universal_block_charpoly(spec, params)

    def check(report):
        if report.charpoly_block != report.charpoly_direct:
            return "wrong: block and direct charpolys differ"
        return check_output(report)

    return Job(name, run, check, lambda report: report_sizes(spec, report))


def _family_jobs(hm, reference, name, realization, presets):
    joined = realization.join_graph()
    edges_ok = joined.n == realization.direct.n and joined.edges == realization.direct.edges
    jobs = []
    for preset in presets:
        job_name = "%s/%s" % (name, preset)
        expected = reference.get(job_name)

        def check_output(report, expected=expected):
            if not edges_ok:
                return "wrong: join edge set differs from FamilyRealization.direct"
            if poly_digest(report.charpoly_direct) != expected:
                return "wrong: charpoly digest differs from the reference"
            return None

        params = None if preset == "A" else hm.graphs.UniversalParams.preset(preset)
        jobs.append(_block_job(hm, job_name, realization.spec, params, check_output))
    return jobs


def _random_job(hm, name, spec, adjacency):
    return _block_job(hm, name, spec, None,
                      lambda report: newton_mismatch(adjacency, report.charpoly_direct))


def _block_phi(seed, hm, root, reference):
    fam = hm.families
    named = hm.graphs.make_named
    jobs = []
    jobs += _family_jobs(hm, reference, "petersen(11,4)", fam.generalized_petersen(11, 4), ["A"])
    jobs += _family_jobs(hm, reference, "petersen(10,3)", fam.generalized_petersen(10, 3), ["A"])
    jobs += _family_jobs(hm, reference, "web(3,6)", fam.generalized_web(3, 6), ["A"])
    jobs += _family_jobs(hm, reference, "cartesian(C5,C5)",
                         fam.cartesian_product(named("cycle", [5]), named("cycle", [5])), ["A"])
    spec, adj = random_join(random.Random(seed), hm, k=3, size=7, edges=9, m=4, unlabeled=1)
    jobs.append(_random_job(hm, "random(P3,G(7,9),m=4)", spec, adj))
    return jobs


def _block_factor(seed, hm, root, reference):
    fam = hm.families
    jobs = []
    jobs += _family_jobs(hm, reference, "lollipop(20,20)", fam.lollipop(20, 20), ["A"])
    jobs += _family_jobs(hm, reference, "tadpole(36,8)", fam.tadpole(36, 8),
                         ["A", "L", "Aalpha:97/100"])
    spec, adj = random_join(random.Random(seed), hm, k=2, size=16, edges=60, m=2, unlabeled=0)
    jobs.append(_random_job(hm, "random(P2,G(16,60),m=2)", spec, adj))
    return jobs


# -- cli mix -------------------------------------------------------------------

_LABELED = ("p2_2_k2_k5", "p2_2_p3_p4", "p3_3", "p4_5_mixed")
_GENERALIZED = ("p4_generalized", "cospectral_l_gap_a", "cospectral_l_gap_b")
_FAMILIES = (("petersen", "5", "2"), ("cartesian", "path:3", "cycle:4"), ("helm", "3", "2"),
             ("web", "2", "4"), ("lollipop", "4", "3"), ("tadpole", "4", "3"))


# Invalid inputs that the program, as this benchmark was written, rejects
# with an uncaught NameError (exit 1 and a traceback) instead of exit 2 and
# one line.  They count as failed jobs, but they do not make a run incorrect
# as long as they fail in exactly this way.
_NAME_ERROR = "exit 1, expected 2: NameError: "
_BASELINE_FAILURES = {
    "cospectral search perfbench/inputs/not_json_catalog.txt --kind A": _NAME_ERROR,
    "cospectral check fixtures/p3_3.json fixtures/p3_3.json --kind A": _NAME_ERROR,
}


def cli_argvs():
    """(argv, expected exit status) for every verb on every shipped
    fixture, small family builds, and invalid inputs."""
    out = []
    for name in _LABELED + _GENERALIZED:
        spec = "fixtures/%s.json" % name
        for verb in ("join", "charpoly", "classify", "verify"):
            out.append(([verb, spec], 0))
        for mode in ("unused", "global-exclusive", "neighbor-exclusive"):
            out.append((["reduce", spec, "--mode", mode], 0))
        for preset in ("L", "Q", "Aalpha:97/100"):
            out.append((["universal", spec, "--preset", preset], 0))
        out.append((["universal", spec, "--params", "3/2,1,0,-1/3"], 0))
    for fam in _FAMILIES:
        out.append((["family", *fam, "--charpoly"], 0))
    gap_a, gap_b = "fixtures/cospectral_l_gap_a.json", "fixtures/cospectral_l_gap_b.json"
    out.append((["cospectral", "check", gap_a, gap_a, "--kind", "L"], 0))
    out.append((["cospectral", "search", "fixtures/catalog.json", "--kind", "A", "--budget", "1"], 0))
    # refusals: the gap pair fails the corrected-charpoly hypothesis, the
    # seidel preset has gamma != 0, which labeled specs do not support
    out.append((["cospectral", "check", gap_a, gap_b, "--kind", "L"], 2))
    out.append((["universal", "fixtures/p3_3.json", "--preset", "seidel"], 2))
    out.append((["charpoly", "perfbench/inputs/malformed_spec.json"], 2))
    out.append((["cospectral", "search", "perfbench/inputs/not_json_catalog.txt", "--kind", "A"], 2))
    out.append((["cospectral", "check", "fixtures/p3_3.json", "fixtures/p3_3.json", "--kind", "A"], 2))
    return [(" ".join(argv), argv, code) for argv, code in out]


def normalized_output(text):
    """CLI output without the LAPACK-float ``numeric_spectrum``."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "numeric_spectrum"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(doc), sort_keys=True)


def invoke(main, argv):
    """Run the CLI in-process the way the interpreter would: an uncaught
    exception exits 1 with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _cli_sizes(shape):
    """Sizes of a CLI job that prints a spectral report; ``shape`` is the
    (k, m) of its spec, or None when the spec comes with the output."""

    def sizes(result):
        code, out, _ = result
        if code != 0 or '"phi_polynomial"' not in out:
            return None
        doc = json.loads(out)
        k, m = shape or (doc["spec"]["host"]["n"], doc["spec"]["m"])
        doc = doc.get("report", doc)
        phi, char = doc["phi_polynomial"], doc["charpoly_direct"]
        bits = max(int(part).bit_length() for c in phi + char for part in c.lstrip("-").split("/"))
        return {"n": len(char) - 1, "k": k, "m": m, "km": k * m, "deg_phi": len(phi) - 1,
                "coeff_bits_max": bits}

    return sizes


def _cli_mix(seed, hm, root, reference):
    shapes = {}
    for name in _LABELED + _GENERALIZED:
        path = "fixtures/%s.json" % name
        spec = hm.serialize.parse_spec((root / path).read_text(encoding="utf-8"))
        spec = spec.to_hm() if hasattr(spec, "to_hm") else spec
        shapes[path] = (spec.k, spec.m)
    argvs = cli_argvs()
    random.Random(seed).shuffle(argvs)
    jobs = []
    for name, argv, expected_code in argvs:
        expected = reference.get(name)

        def run(argv=argv):
            return invoke(hm.cli.main, argv)

        def check(result, expected_code=expected_code, expected=expected):
            code, out, err = result
            if code != expected_code:
                last = err.strip().splitlines()[-1] if err.strip() else ""
                return "exit %d, expected %d: %s" % (code, expected_code, last)
            if code != 0 and (err.count("\n") != 1 or "Traceback" in err):
                return "expected one line on stderr, got %r" % err
            if digest(normalized_output(out)) != expected:
                return "wrong: output digest differs from the reference"
            return None

        jobs.append(Job(name, run, check, _cli_sizes(shapes.get(argv[1])),
                        _BASELINE_FAILURES.get(name)))
    return jobs


_BUILDERS = {
    "block-phi": _block_phi,
    "block-factor": _block_factor,
    "cli-mix": _cli_mix,
}


def build(name, seed, hm, root, reference):
    return _BUILDERS[name](seed, hm, root, reference.get(name, {}))
