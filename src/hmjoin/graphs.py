"""Finite simple graphs, named families, and universal adjacency matrices.

Vertices are 0..n-1. Graphs are immutable; equality and hashing use the
vertex count and edge set only (display labels are annotations). The
universal adjacency matrix of a graph is

    U(G) = alpha*A(G) + beta*I + gamma*J + delta*D(G),    alpha != 0,

with exact rational parameters. `graph_to_edgelist` writes the edge-list
text format: first line the vertex count, then one "u v" line per edge in
lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidParametersError, SizeMismatchError
from .polynomials import Scalar, _Value

Edge = Tuple[int, int]


class Graph(_Value):
    """Immutable simple graph on vertices 0..n-1. A refused edge carries its
    position as `where`, "/edges/<i>"."""

    __slots__ = ("n", "edges", "labels")

    def __init__(self, n: int, edges: Iterable[Edge] = (), labels: Optional[Sequence[str]] = None):
        if type(n) is not int or n < 0:
            raise InvalidParametersError(f"vertex count must be a non-negative integer, got {n!r}")
        normalized = set()
        for i, e in enumerate(edges):
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidParametersError(f"an edge is a pair of vertex ids, got {e!r}", f"/edges/{i}") from None
            if type(u) is not int or type(v) is not int:
                raise InvalidParametersError(f"edge endpoints must be integers, got {e!r}", f"/edges/{i}")
            if u == v:
                raise InvalidParametersError(f"loops are not allowed: {e!r}", f"/edges/{i}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParametersError(f"edge {e!r} out of range for {n} vertices", f"/edges/{i}")
            normalized.add((u, v) if u < v else (v, u))
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise SizeMismatchError(f"expected {n} labels, got {len(labels)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "labels", labels)

    def _key(self):
        return self.n, self.edges

    # ------------------------------------------------------------------
    def sorted_edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def adjacency(self) -> List[Tuple[int, ...]]:
        """The sorted neighbours of every vertex, in one pass over the edges."""
        lists: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return [tuple(sorted(nb)) for nb in lists]

    def degrees(self) -> List[int]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def adjacency_matrix(self) -> List[List[int]]:
        m = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            m[u][v] = 1
            m[v][u] = 1
        return m

    def is_regular(self) -> Optional[int]:
        """The common degree when the graph is regular, else None.
        The 0-vertex graph counts as 0-regular."""
        degs = self.degrees()
        if not degs:
            return 0
        return degs[0] if all(d == degs[0] for d in degs) else None

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)!r})"


# ---------------------------------------------------------------------------
# named families


def _named_complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def make_named(kind: str, params: Sequence[int]) -> Graph:
    """Construct a named graph.

    Kinds and parameters:
      complete [n], empty [n], path [n] (n >= 1), cycle [n] (n >= 3),
      complete_bipartite [a, b] (a-side first),
      star [n] (star on n vertices, K_{1,n-1}) or star [1, b] (K_{1,b}),
      wheel [n] (n >= 3; hub is the last vertex).
    The star's center comes first.
    """
    params = list(params)
    if any(type(p) is not int for p in params):
        raise InvalidParametersError(f"family parameters must be integers, got {params!r}")

    def need(count: int):
        if len(params) != count:
            raise InvalidParametersError(f"family {kind!r} expects {count} parameter(s), got {len(params)}")

    if kind == "complete":
        need(1)
        if params[0] < 0:
            raise InvalidParametersError("complete graph size must be non-negative")
        n = params[0]
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "empty":
        need(1)
        if params[0] < 0:
            raise InvalidParametersError("empty graph size must be non-negative")
        return Graph(params[0])
    if kind == "path":
        need(1)
        if params[0] < 1:
            raise InvalidParametersError("a path needs at least 1 vertex")
        return Graph(params[0], [(i, i + 1) for i in range(params[0] - 1)])
    if kind == "cycle":
        need(1)
        n = params[0]
        if n < 3:
            raise InvalidParametersError(f"a cycle needs at least 3 vertices, got {n}")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete_bipartite":
        need(2)
        if params[0] < 1 or params[1] < 1:
            raise InvalidParametersError("complete bipartite sides must be positive")
        return _named_complete_bipartite(params[0], params[1])
    if kind == "star":
        if len(params) == 1:
            if params[0] < 1:
                raise InvalidParametersError("a star needs at least 1 vertex")
            return _named_complete_bipartite(1, params[0] - 1) if params[0] > 1 else Graph(1)
        if len(params) == 2:
            if params[0] != 1:
                raise InvalidParametersError("two-parameter star must be [1, b]")
            if params[1] < 1:
                raise InvalidParametersError("star leaf count must be positive")
            return _named_complete_bipartite(1, params[1])
        raise InvalidParametersError(f"family 'star' expects 1 or 2 parameters, got {len(params)}")
    if kind == "wheel":
        need(1)
        n = params[0]
        if n < 3:
            raise InvalidParametersError(f"a wheel needs a cycle of at least 3 vertices, got {n}")
        # the cycle 0..n-1, then the hub as the last vertex
        return Graph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)])
    raise InvalidParametersError(f"unknown named family {kind!r}")


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union, blocks in list order."""
    n = 0
    edges = []
    labels = []
    have_labels = all(g.labels is not None for g in graphs) and len(graphs) > 0
    for g in graphs:
        for u, v in sorted(g.edges):
            edges.append((u + n, v + n))
        if have_labels:
            labels.extend(g.labels)
        n += g.n
    return Graph(n, edges, labels if have_labels else None)


# ---------------------------------------------------------------------------
# universal adjacency


def _exact(value):
    """A rational value as an int when it is integral, else as a Fraction."""
    return value.numerator if value.denominator == 1 else value


class UniversalParams(_Value):
    """Exact parameters (alpha, beta, gamma, delta) of the universal
    adjacency matrix alpha*A + beta*I + gamma*J + delta*D, alpha != 0.

    An integral parameter is stored as an int, any other as a Fraction
    (`_exact`), so integer parameters give integer matrices. Equality and
    hashing compare values, so Fraction(2) and 2 give equal parameters."""

    __slots__ = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha, beta, gamma, delta):
        values = (alpha, beta, gamma, delta)
        for name, v in zip(self.__slots__, values):
            if type(v) is not int and not isinstance(v, Fraction):
                raise InvalidParametersError(f"{name} must be rational, got {type(v).__name__}")
        if alpha == 0:
            raise InvalidParametersError("alpha must be nonzero")
        for name, v in zip(self.__slots__, values):
            object.__setattr__(self, name, _exact(v))

    def as_tuple(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @classmethod
    def preset(cls, name: str) -> "UniversalParams":
        """Presets: A (adjacency), L (Laplacian D - A), Q (signless Laplacian
        D + A), seidel (J - I - 2A), and Aalpha:<r> ((1-r)A + rD)."""
        if name == "A":
            return cls(1, 0, 0, 0)
        if name == "L":
            return cls(-1, 0, 0, 1)
        if name == "Q":
            return cls(1, 0, 0, 1)
        if name == "seidel":
            return cls(-2, -1, 1, 0)
        if name.startswith("Aalpha:"):
            try:
                r = Fraction(name.split(":", 1)[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidParametersError(f"bad Aalpha parameter in {name!r}: {exc}")
            return cls(1 - r, 0, 0, r)
        raise InvalidParametersError(f"unknown universal preset {name!r} (expected A, L, Q, seidel, or Aalpha:<r>)")


def universal_matrix(g: Graph, params: UniversalParams) -> List[List[Scalar]]:
    """alpha*A(G) + beta*I + gamma*J + delta*D(G) as an exact matrix: gamma
    off the edges, gamma + alpha on them and gamma + beta + delta*deg(v) on
    the diagonal, each an int when it is integral (`_exact`)."""
    a, b, c, d = params.as_tuple()
    out = [[c] * g.n for _ in range(g.n)]
    edge = _exact(c + a)
    for u, v in g.edges:
        out[u][v] = out[v][u] = edge
    for v, deg in enumerate(g.degrees()):
        out[v][v] = _exact(c + b + d * deg)
    return out


# ---------------------------------------------------------------------------
# edge-list text format


def graph_to_edgelist(g: Graph) -> str:
    """First line the vertex count, then 'u v' per edge, lexicographic."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"
