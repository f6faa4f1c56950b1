"""Explicit graph families built over finite fields, plus clique unions.

Three constructions live here: a biclique-free graph on scaling classes of
nonzero field pairs, the projective-plane polarity graph, and disjoint
unions of equal cliques.  The field constructions build a loop-included
incidence first, verify their algebraic identities there, and emit the
simple graph with loops stripped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderUnavailable
from .ffield import FieldElement, FieldSpec, element_of_order, field_from_order, subgroup
from .graph import Graph, from_edges
from .linalg import adjacency_dense


@dataclass(frozen=True)
class FurediGraph:
    """Scaling-class graph together with its construction data.

    classes holds one canonical pair (a, b) per vertex, the smallest member
    of its scaling orbit in field enumeration order.  scaling_subgroup is
    the order-t multiplicative subgroup used both for the orbits and for
    the adjacency rule.  loops_removed lists vertices whose defining dot
    product with themselves landed in the subgroup.
    """

    graph: Graph
    q: int
    t: int
    classes: tuple[tuple[FieldElement, FieldElement], ...]
    scaling_subgroup: tuple[FieldElement, ...]
    loops_removed: tuple[int, ...]


def _pair_dot(f: FieldSpec, u, v) -> FieldElement:
    return f.add(f.mul(u[0], v[0]), f.mul(u[1], v[1]))


def furedi_graph(q: int, t: int) -> FurediGraph:
    """Biclique-free graph on the (q^2 - 1)/t scaling classes of GF(q)^2.

    Vertices are orbits of nonzero pairs under coordinatewise scaling by
    the order-t subgroup; two classes are adjacent when the dot product of
    any representatives lands in the subgroup.  Well-defined because the
    subgroup is multiplicatively closed.  Requires t to divide q - 1.
    """
    if t < 1:
        raise OrderUnavailable(f"subgroup order must be >= 1, got {t}")
    f = field_from_order(q)
    gen = element_of_order(f, t)
    sub = subgroup(f, gen, t)
    sub_set = set(sub)

    # orbit assignment in enumeration order; first pair seen is canonical
    class_of: dict[tuple[int, int], int] = {}
    classes: list[tuple[FieldElement, FieldElement]] = []
    for ia in range(q):
        a = f.element(ia)
        for ib in range(q):
            if ia == 0 and ib == 0:
                continue
            b = f.element(ib)
            if (ia, ib) in class_of:
                continue
            cid = len(classes)
            classes.append((a, b))
            for c in sub:
                key = (f.index(f.mul(c, a)), f.index(f.mul(c, b)))
                class_of[key] = cid
    n = len(classes)
    assert n == (q * q - 1) // t

    edges = []
    loops = []
    for u in range(n):
        if _pair_dot(f, classes[u], classes[u]) in sub_set:
            loops.append(u)
        for v in range(u + 1, n):
            if _pair_dot(f, classes[u], classes[v]) in sub_set:
                edges.append((u, v))
    labels = tuple(f"{f.index(a)}:{f.index(b)}" for a, b in classes)
    g = from_edges(n, edges, labels=labels)
    return FurediGraph(g, q, t, tuple(classes), sub, tuple(loops))


@dataclass(frozen=True)
class SquareIdentityReport:
    holds: bool
    max_abs_residual: int
    common_neighbor_counts: tuple[int, ...]  # sorted distinct off-diagonal values
    no_common_row_sums: tuple[int, ...]
    expected_row_sum: int


def furedi_square_identity(fg: FurediGraph) -> SquareIdentityReport:
    """Check A^2 == (q - t) I + t J - t Q on the loop-included adjacency.

    A is rebuilt with loop entries restored, since the identity concerns
    the incidence counts before loop removal.  Q marks distinct pairs with
    no common neighbor and must have (q - 1 - t)/t ones per row.  All
    arithmetic is int64, so equality is exact.
    """
    g = fg.graph
    n = g.n
    a = adjacency_dense(g).astype(np.int64)
    loops = list(fg.loops_removed)
    a[loops, loops] = 1
    a2 = a @ a
    off = ~np.eye(n, dtype=bool)
    quo = np.where(off & (a2 == 0), 1, 0).astype(np.int64)
    expected = (fg.q - fg.t) * np.eye(n, dtype=np.int64) + fg.t * np.ones((n, n), dtype=np.int64) - fg.t * quo
    residual = a2 - expected
    row_sums = tuple(int(s) for s in quo.sum(axis=1))
    expected_row = (fg.q - 1 - fg.t) // fg.t
    holds = bool(np.all(residual == 0)) and all(s == expected_row for s in row_sums)
    counts = tuple(sorted(set(int(x) for x in a2[off].ravel())))
    return SquareIdentityReport(holds, int(np.abs(residual).max()), counts, row_sums, expected_row)


def _projective_points(f: FieldSpec):
    """Points of the projective plane, first nonzero coordinate one."""
    q = f.q
    pts = []
    one = f.one
    for iy in range(q):
        for iz in range(q):
            pts.append((one, f.element(iy), f.element(iz)))
    for iz in range(q):
        pts.append((f.zero, one, f.element(iz)))
    pts.append((f.zero, f.zero, one))
    return pts


def polarity_graph_with_loops(q: int) -> tuple[Graph, tuple[int, ...]]:
    """Polarity graph plus the list of self-orthogonal points.

    Vertices are the q^2 + q + 1 projective points over GF(q); u ~ v when
    the 3-term dot product vanishes.  Self-orthogonal points would carry
    loops; they are removed from the simple graph and returned separately.
    """
    f = field_from_order(q)
    pts = _projective_points(f)
    n = len(pts)

    def dot(u, v):
        s = f.mul(u[0], v[0])
        s = f.add(s, f.mul(u[1], v[1]))
        return f.add(s, f.mul(u[2], v[2]))

    edges = []
    absolute = []
    for u in range(n):
        if f.is_zero(dot(pts[u], pts[u])):
            absolute.append(u)
        for v in range(u + 1, n):
            if f.is_zero(dot(pts[u], pts[v])):
                edges.append((u, v))
    labels = tuple(":".join(str(f.index(c)) for c in p) for p in pts)
    return from_edges(n, edges, labels=labels), tuple(absolute)


def polarity_graph(q: int) -> Graph:
    """Simple polarity graph on q^2 + q + 1 projective points."""
    return polarity_graph_with_loops(q)[0]


def clique_union(n: int, t: int) -> Graph:
    """Disjoint union of ceil(n/t) cliques: all of size t except a short last one."""
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    edges = []
    for start in range(0, n, t):
        part = range(start, min(start + t, n))
        edges.extend((u, v) for u in part for v in part if u < v)
    return from_edges(n, edges)


def clique_union_parts(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The clique partition matching clique_union(n, t)."""
    return tuple(tuple(range(start, min(start + t, n))) for start in range(0, n, t))
