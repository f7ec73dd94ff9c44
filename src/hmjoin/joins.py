"""Joins of graph families over a host graph, driven by vertex labels.

A join spec consists of a host graph H on k vertices, factor graphs
G_1..G_k, and per-factor indexing maps into the label set {1..m}. Two
vertices u in G_i and v in G_j (i != j) are joined exactly when ij is a
host edge and u and v carry the same label. The indexing matrix E_i is
the n_i x m 0/1 matrix with (E_i)_{st} = 1 iff vertex s has label t, and
the cross block of the join's adjacency between factors i and j is
rho_{ij} E_i E_j^T with rho the host adjacency. `hm_join` assembles the
join by the edge rule and forms no such product; the block definition is
the independent oracle it is tested against. The blocks of the join's
universal matrices, cross degrees included, are built from the E_i in one
place, `spectra._universal_blocks`; a generalized join over vertex subsets
(`cospectral.GeneralizedJoinSpec`) is the join with label 1 on each
subset and a label of its own on the rest of every factor.

Indexing maps may be partial (label None): an unlabeled vertex matches
nothing, giving an all-zero row in E_i. Partial maps arise from label
reductions; loaded spec documents use null for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from .errors import InvalidParametersError, SizeMismatchError
from .graphs import Graph, disjoint_union
from .polynomials import _Value

IndexingMatrix = List[List[int]]

REDUCTION_MODES = ("unused", "global-exclusive", "neighbor-exclusive")


class IndexingMap(_Value):
    """Labels in 1..m for the vertices of one factor; None = unlabeled. A
    refused label carries its position as `where`, "/<pos>"."""

    __slots__ = ("values", "m")

    def __init__(self, values: Sequence[Optional[int]], m: int):
        if type(m) is not int or m < 0:
            raise InvalidParametersError(f"label count m must be a non-negative integer, got {m!r}")
        vals = tuple(values)
        for pos, v in enumerate(vals):
            if v is None:
                continue
            if type(v) is not int:
                raise InvalidParametersError(f"a label is an integer or None, got {v!r}", f"/{pos}")
            if not 1 <= v <= m:
                raise InvalidParametersError(f"label {v} out of range (labels are 1-based, at most {m})", f"/{pos}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "m", m)

    def __len__(self):
        return len(self.values)

    def used_labels(self) -> Set[int]:
        return {v for v in self.values if v is not None}


def indexing_matrix(g: Graph, im: IndexingMap) -> IndexingMatrix:
    """The n x m 0/1 matrix with row v carrying a single 1 in column
    label(v) (all zeros when v is unlabeled)."""
    if len(im) != g.n:
        raise SizeMismatchError(f"indexing map covers {len(im)} vertices but the graph has {g.n}")
    rows = []
    for v in im.values:
        row = [0] * im.m
        if v is not None:
            row[v - 1] = 1
        rows.append(row)
    return rows


class JoinSpec(_Value):
    """Host graph, factor graphs, label count, and per-factor indexing maps.
    A refused factor carries `where` "/factors/<i>", a refused map
    "/indexing/<i>"."""

    __slots__ = ("host", "factors", "m", "indexing")

    def __init__(self, host: Graph, factors: Sequence[Graph], m: int, indexing: Sequence[IndexingMap]):
        if type(m) is not int or m < 0:
            raise InvalidParametersError(f"label count m must be a non-negative integer, got {m!r}")
        factors = tuple(factors)
        indexing = tuple(indexing)
        if len(factors) != host.n:
            raise SizeMismatchError(f"host has {host.n} vertices but {len(factors)} factors were given")
        if len(indexing) != host.n:
            raise SizeMismatchError(f"host has {host.n} vertices but {len(indexing)} indexing maps were given")
        for i, (g, im) in enumerate(zip(factors, indexing)):
            if g.n == 0:
                raise InvalidParametersError(f"factor {i} has no vertices", f"/factors/{i}")
            if im.m != m:
                raise SizeMismatchError(f"indexing map {i} uses m={im.m}, spec says m={m}", f"/indexing/{i}")
            if len(im) != g.n:
                raise SizeMismatchError(f"factor {i} has {g.n} vertices but {len(im)} labels", f"/indexing/{i}")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "indexing", indexing)

    @property
    def k(self) -> int:
        return self.host.n

    @property
    def total_vertices(self) -> int:
        return sum(g.n for g in self.factors)

    def indexing_matrices(self) -> List[IndexingMatrix]:
        return [indexing_matrix(g, im) for g, im in zip(self.factors, self.indexing)]


def hm_join(spec: JoinSpec) -> Graph:
    """Assemble the join by the edge rule: factor edges, plus cross edges
    between equally labeled vertices of host-adjacent factors."""
    offsets = [0]
    for g in spec.factors:
        offsets.append(offsets[-1] + g.n)
    union = disjoint_union(spec.factors)
    edges = list(union.edges)
    for i, j in spec.host.edges:
        vi, vj = spec.indexing[i].values, spec.indexing[j].values
        for s, ls in enumerate(vi):
            if ls is None:
                continue
            for t, lt in enumerate(vj):
                if lt == ls:
                    edges.append((offsets[i] + s, offsets[j] + t))
    return Graph(union.n, edges)


def _deletable_labels(spec: JoinSpec, mode: str) -> List[int]:
    if mode not in REDUCTION_MODES:
        raise InvalidParametersError(f"unknown reduction mode {mode!r} (expected one of {REDUCTION_MODES})")
    usage: Dict[int, Set[int]] = {c: set() for c in range(1, spec.m + 1)}
    for i, im in enumerate(spec.indexing):
        for c in im.used_labels():
            usage[c].add(i)
    deletable = []
    for c in range(1, spec.m + 1):
        users = usage[c]
        if mode == "unused":
            ok = not users
        elif mode == "global-exclusive":
            ok = len(users) == 1
        else:  # neighbor-exclusive: no host edge joins two factors using c
            ok = all(not (i in users and j in users) for i, j in spec.host.edges)
        if ok:
            deletable.append(c)
    return deletable


def reduce_labels(spec: JoinSpec, mode: str) -> JoinSpec:
    """Delete the labels the chosen mode proves irrelevant and renumber the
    rest (order preserving). Vertices that lose their label become
    unlabeled; the join's adjacency matrix is unchanged.

    Modes: "unused" drops labels no factor uses; "global-exclusive" drops
    labels used by exactly one factor (their vertices can never match
    across factors); "neighbor-exclusive" drops labels never shared by two
    host-adjacent factors (vacuously including unused ones).
    """
    deletable = set(_deletable_labels(spec, mode))
    kept = [c for c in range(1, spec.m + 1) if c not in deletable]
    renumber = {c: t + 1 for t, c in enumerate(kept)}
    new_maps = []
    for im in spec.indexing:
        values = [renumber.get(v) if v is not None else None for v in im.values]
        new_maps.append(IndexingMap(values, len(kept)))
    return JoinSpec(spec.host, spec.factors, len(kept), new_maps)


def reduction_report(spec: JoinSpec, mode: str) -> dict:
    """Counts for a reduction: deleted labels, how many, and the label
    counts before and after."""
    deletable = _deletable_labels(spec, mode)
    return {
        "mode": mode,
        "m_before": spec.m,
        "deleted_labels": list(deletable),
        "deleted_count": len(deletable),
        "m_after": spec.m - len(deletable),
    }
