"""In-memory span recorder wrapped around hmjoin's public functions.

A span records its name, start, end, parent span and job id.  The tracer
wraps each listed function once and installs the wrapper at every
``hmjoin.*`` module attribute bound to that function (``charpoly`` is bound
in ``exactlinalg``, ``spectra`` and ``cospectral``), so calls between
modules are seen too.  Spans stay in memory until the run ends.
"""

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) -> span name; several functions may share one name.
TRACED = {
    ("cli", "main"): "cli.main",
    ("cli", "factored_charpoly_string"): "cli.factored_charpoly_string",
    ("serialize", "parse_spec"): "serialize.parse_spec",
    ("serialize", "report_to_json"): "serialize.report_to_json",
    ("serialize", "canonical_dumps"): "serialize.canonical_dumps",
    ("joins", "hm_join"): "joins.hm_join",
    ("joins", "reduce_labels"): "joins.reduce_labels",
    ("families", "cartesian_product"): "families.build",
    ("families", "generalized_petersen"): "families.build",
    ("families", "generalized_helm"): "families.build",
    ("families", "generalized_web"): "families.build",
    ("families", "lollipop"): "families.build",
    ("families", "tadpole"): "families.build",
    ("spectra", "block_charpoly"): "spectra.block_charpoly",
    ("spectra", "universal_block_charpoly"): "spectra.universal_block_charpoly",
    ("spectra", "gamma"): "spectra.gamma",
    ("spectra", "classify_e_main"): "spectra.classify_e_main",
    ("exactlinalg", "polymatrix_det"): "exactlinalg.polymatrix_det",
    ("exactlinalg", "charpoly_with_adjugate"): "exactlinalg.charpoly_with_adjugate",
    ("exactlinalg", "charpoly"): "exactlinalg.charpoly",
    ("exactlinalg", "rational_eigenvalues"): "exactlinalg.rational_eigenvalues",
    ("polynomials", "poly_divexact"): "polynomials.poly_divexact",
    ("polynomials", "interpolate"): "polynomials.interpolate",
    ("polynomials", "squarefree_decomposition"): "polynomials.squarefree_decomposition",
    ("polynomials", "poly_gcd"): "polynomials.poly_gcd",
    ("cospectral", "search_pairs"): "cospectral.search_pairs",
    ("cospectral", "check_cospectral_conditions"): "cospectral.check_cospectral_conditions",
    ("cospectral", "isomorphism_test"): "cospectral.isomorphism_test",
    ("cospectral", "generalized_universal_charpoly"): "cospectral.generalized_universal_charpoly",
}

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.attrs = None

    def to_json(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "attrs": self.attrs}


# -- counts computed from a call's arguments and result ----------------------


def _polymatrix_points(args, kwargs, result):
    entries = args[0] if args else kwargs["entries"]
    bound = args[1] if len(args) > 1 else kwargs.get("degree_bound")
    if bound is None:
        bound = sum(max((p.degree for p in row), default=-1) for row in entries)
    return {"points": bound + 1 if entries else 0}


def _eigen_candidates(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    scale = 1
    for row in m:
        for x in row:
            d = getattr(x, "denominator", 1)
            scale = math.lcm(scale, d)
    bound = 0
    for row in m:
        bound = max(bound, sum(abs(x * scale) for x in row))
    return {"candidates": 2 * int(bound)}


def _search_counts(args, kwargs, result):
    catalog = args[0] if args else kwargs["catalog"]
    budget = args[1] if len(args) > 1 else kwargs["subset_budget"]
    configs = 0
    for g in catalog:
        sizes = set(range(1, min(budget, g.n) + 1)) | {g.n}
        configs += sum(math.comb(g.n, s) for s in sizes)
    return {"configs": configs, "certificates": len(result)}


def _out_bytes(args, kwargs, result):
    return {"out_bytes": len(result.encode("utf-8"))}


_ATTRS = {
    "exactlinalg.polymatrix_det": _polymatrix_points,
    "exactlinalg.rational_eigenvalues": _eigen_candidates,
    "cospectral.search_pairs": _search_counts,
    "serialize.canonical_dumps": _out_bytes,
}


class Tracer:
    """Span store; ``install`` wraps the hmjoin functions, ``uninstall``
    puts the originals back."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._restore = []

    def install(self):
        for modname, _ in TRACED:
            importlib.import_module("hmjoin." + modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "hmjoin" or name.startswith("hmjoin.")}
        for (modname, fname), span_name in TRACED.items():
            original = getattr(mods["hmjoin." + modname], fname, None)
            if original is None:  # removed from hmjoin: its metrics read 0
                continue
            wrapper = self._wrap(span_name, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, 0.0, stack[-1] if stack else None, tracer._job)
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, job, name="job"):
        """A root span that parents every span of one job."""
        span = Span(name, 0.0, None, job)
        self._job = job
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = _clock()
        try:
            yield span
        finally:
            span.end = _clock()
            self._stack.pop()
            self._job = None


# -- aggregation --------------------------------------------------------------


def summarize(spans):
    """Per-name totals over a list of spans (indices in ``parent`` refer to
    the same list).  ``s`` counts only the outermost span of each name, so
    a function reached again below itself is not counted twice; ``self_s``
    is a span's duration minus its children's.  Also returns the sanity
    counts: negative self times and roots whose children outlast them."""
    children = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent] += sp.end - sp.start
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    negative_self = 0
    roots_over = 0
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        own = dur - children[i]
        if own < -1e-9:
            negative_self += 1
        if sp.parent is None:
            if children[i] > dur + 1e-9:
                roots_over += 1
            continue
        calls[sp.name] += 1
        self_s[sp.name] += own
        if not _has_ancestor_named(spans, sp):
            incl[sp.name] += dur
        if sp.attrs:
            for key, value in sp.attrs.items():
                counts[sp.name + "." + key] += value
    return {"calls": calls, "s": incl, "self_s": self_s, "counts": counts,
            "negative_self": negative_self, "roots_over": roots_over}


def _has_ancestor_named(spans, sp):
    p = sp.parent
    while p is not None:
        if spans[p].name == sp.name:
            return True
        p = spans[p].parent
    return False

