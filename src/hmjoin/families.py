"""Graph families with both a direct construction and a join realization.

Every builder returns a FamilyRealization holding the directly constructed
graph (the oracle: edges written down from the family's definition), a
join spec realizing the same graph, and the vertex alignment mapping
spec-order vertices to direct-order vertices. `join_graph()` applies the
alignment, so `real.join_graph() == real.direct` is the defining
invariant.
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import InvalidParametersError
from .graphs import Graph, disjoint_union, make_named
from .joins import IndexingMap, JoinSpec, hm_join
from .polynomials import _Value


class FamilyRealization(_Value):
    __slots__ = ("direct", "spec", "alignment")

    def join_graph(self) -> Graph:
        """The joined graph with vertices renamed into direct order."""
        joined = hm_join(self.spec)
        perm = self.alignment
        return Graph(joined.n, [(perm[u], perm[v]) for u, v in joined.edges])


def _identity(n: int) -> Tuple[int, ...]:
    return tuple(range(n))


def cartesian_product(a: Graph, b: Graph) -> FamilyRealization:
    """Cartesian product: (u, v) ~ (u', v') iff u = u' and vv' is an edge,
    or v = v' and uu' is an edge. Vertex (u_i, v_j) sits at index
    i*|V(b)| + j. Realized as the a-join of |V(a)| copies of b with the
    position labels I_i(v_j) = j."""
    if a.n < 1 or b.n < 1:
        raise InvalidParametersError("cartesian product factors need at least one vertex")
    n = a.n * b.n
    edges = []
    for i in range(a.n):
        for u, v in b.edges:
            edges.append((i * b.n + u, i * b.n + v))
    for u, v in a.edges:
        for j in range(b.n):
            edges.append((u * b.n + j, v * b.n + j))
    direct = Graph(n, edges)
    imap = IndexingMap(tuple(range(1, b.n + 1)), b.n)
    spec = JoinSpec(a, (b,) * a.n, b.n, (imap,) * a.n)
    return FamilyRealization(direct, spec, _identity(n))


def generalized_petersen(n: int, k: int) -> FamilyRealization:
    """P(n, k): outer cycle a_0..a_{n-1}, inner vertices b_i with spokes
    a_i b_i and inner edges b_i b_{i+k mod n}; needs 1 <= k < n/2. The
    inner graph is a disjoint union of gcd(n,k) cycles of length n/gcd(n,k),
    and the realization is the K_2-join of C_n with that union, matching
    positions i+1 on both sides."""
    if n < 3:
        raise InvalidParametersError("generalized Petersen graphs need n >= 3")
    if not (1 <= k and 2 * k < n):
        raise InvalidParametersError(f"generalized Petersen graphs need 1 <= k < n/2, got k={k}")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + ((i + k) % n)))
    direct = Graph(2 * n, edges)
    d = math.gcd(n, k)
    cl = n // d
    inner = disjoint_union([make_named("cycle", [cl])] * d)
    # the union's vertex (orbit r, step s) plays b_{(r + s*k) mod n}
    inner_labels = [0] * n
    alignment = list(range(2 * n))
    for r in range(d):
        for s in range(cl):
            b_index = (r + s * k) % n
            inner_labels[r * cl + s] = b_index + 1
            alignment[n + r * cl + s] = n + b_index
    spec = JoinSpec(
        make_named("complete", [2]),
        (make_named("cycle", [n]), inner),
        n,
        (IndexingMap(tuple(range(1, n + 1)), n), IndexingMap(inner_labels, n)),
    )
    return FamilyRealization(direct, spec, tuple(alignment))


def generalized_helm(n: int, m: int) -> FamilyRealization:
    """Helm-like graph: wheel on n+1 vertices (hub last) with a pendant
    chain of m new vertices bridged to each cycle vertex, so m = 1 is the
    classical helm. (Some write the attached path as P_{m+1}, counting the
    wheel vertex it hangs from.) Realized as a K_2-join of the wheel with
    n disjoint chains, matching cycle position i with chain head i."""
    if n < 3:
        raise InvalidParametersError("helms need a cycle of at least 3 vertices")
    if m < 1:
        raise InvalidParametersError("helms need chains of at least 1 vertex")
    wheel = make_named("wheel", [n])
    chain = make_named("path", [m])
    chains = disjoint_union([chain] * n)
    base = n + 1
    edges = list(wheel.edges)
    for u, v in chains.edges:
        edges.append((base + u, base + v))
    for i in range(n):
        edges.append((i, base + i * m))
    direct = Graph(base + n * m, edges)
    labels1 = [i + 1 for i in range(n)] + [n + 1]
    labels2 = []
    for i in range(n):
        labels2.append(i + 1)
        labels2.extend([n + 2] * (m - 1))
    spec = JoinSpec(
        make_named("complete", [2]),
        (wheel, chains),
        n + 2,
        (IndexingMap(labels1, n + 2), IndexingMap(labels2, n + 2)),
    )
    return FamilyRealization(direct, spec, _identity(direct.n))


def generalized_web(t: int, n: int) -> FamilyRealization:
    """Web-like graph: wheel on n+1 vertices, t cycle layers bridged
    position by position, and a final pendant layer; (t+2)n + 1 vertices
    per the factor list (the defining prose elsewhere counts one layer
    fewer). Realized as the P_{t+2}-join of the wheel, t cycles, and the
    empty pendant layer with position labels; the hub keeps its own label."""
    if t < 1:
        raise InvalidParametersError("webs need at least one cycle layer")
    if n < 3:
        raise InvalidParametersError("webs need cycles of at least 3 vertices")
    wheel = make_named("wheel", [n])
    cyc = make_named("cycle", [n])
    pend = make_named("empty", [n])
    edges = list(wheel.edges)
    bases = [n + 1 + layer * n for layer in range(t + 1)]  # t cycle layers, then pendants
    for layer in range(t):
        b = bases[layer]
        for p in range(n):
            edges.append((b + p, b + (p + 1) % n))
            prev = p if layer == 0 else bases[layer - 1] + p
            edges.append((prev, b + p))
    for p in range(n):
        edges.append((bases[t - 1] + p, bases[t] + p))
    direct = Graph(n + 1 + (t + 1) * n, edges)
    wheel_labels = [p + 2 for p in range(n)] + [1]
    layer_labels = [p + 2 for p in range(n)]
    maps = [IndexingMap(wheel_labels, n + 1)]
    maps.extend(IndexingMap(layer_labels, n + 1) for _ in range(t + 1))
    spec = JoinSpec(
        make_named("path", [t + 2]),
        (wheel,) + (cyc,) * t + (pend,),
        n + 1,
        tuple(maps),
    )
    return FamilyRealization(direct, spec, _identity(direct.n))


def lollipop(m: int, n: int) -> FamilyRealization:
    """Lollipop L(m, n): K_m bridged to a path on n vertices (bridge from
    K_m's vertex 0 to the path's first vertex). Realized as a K_2-join on
    three labels: the two bridge ends share label 2, the rest of K_m has
    label 1, the rest of the path label 3."""
    if m < 3:
        raise InvalidParametersError("a lollipop needs a complete part with at least 3 vertices")
    return _bridged(make_named("complete", [m]), n)


def tadpole(m: int, n: int) -> FamilyRealization:
    """Tadpole T(m, n): C_m bridged to a path on n vertices, same labeling
    scheme as the lollipop."""
    if m < 3:
        raise InvalidParametersError("a tadpole needs a cycle of at least 3 vertices")
    return _bridged(make_named("cycle", [m]), n)


def _bridged(head: Graph, n: int) -> FamilyRealization:
    if n < 1:
        raise InvalidParametersError("the tail path needs at least 1 vertex")
    m = head.n
    tail = make_named("path", [n])
    edges = list(head.edges)
    for u, v in tail.edges:
        edges.append((m + u, m + v))
    edges.append((0, m))
    direct = Graph(m + n, edges)
    labels1 = [2] + [1] * (m - 1)
    labels2 = [2] + [3] * (n - 1)
    spec = JoinSpec(
        make_named("complete", [2]),
        (head, tail),
        3,
        (IndexingMap(labels1, 3), IndexingMap(labels2, 3)),
    )
    return FamilyRealization(direct, spec, _identity(m + n))
