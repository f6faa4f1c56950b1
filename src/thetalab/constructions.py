"""Explicit graph families built over finite fields.

Two constructions live here: a biclique-free graph on scaling classes of
nonzero field pairs, and the projective-plane polarity graph.  Both
evaluate their loop-included relation on element indices through the
field's tables (ffield.field_tables), one block of rows at a time, and emit
the simple graph with loops stripped.  Both order their columns as a grid
over field elements, so a block needs its rows' products only with every
element and, for the scaling classes, with the coset minima, computed from
discrete logs gathered once per graph.  Each entry then costs one add of
two additive codes and one gather of a table that marks the code sums in
the subgroup (scaling classes), or one comparison of x·x' + y·y' with
-z·z' (polarity).  graph.from_row_blocks packs the blocks into the graph's
packed rows as they come.  Both check the vertex count against the graph
vertex cap before building the field.

Disjoint unions of equal cliques need no field and no numpy, so they live
in graph (graph.clique_union, graph.clique_union_parts).  This module still
binds both names: code that wraps thetalab.constructions.clique_union from
outside, such as bench/tracer.py, finds it here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import OrderUnavailable
from .ffield import FieldElement, field_from_order, field_tables, order_split, require_order
from .graph import Graph, adjacency_rows, from_row_blocks, refuse_above_vertex_cap
from .graph import clique_union, clique_union_parts  # bound here too: see the module docstring

# entries per block of rows of a construction's adjacency mask: 64-128 KB
# per temporary
BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class FurediGraph:
    """Scaling-class graph together with its construction data.

    classes holds one canonical pair (a, b) per vertex, the smallest member
    of its scaling orbit in field enumeration order.  scaling_subgroup is
    the order-t multiplicative subgroup used both for the orbits and for
    the adjacency rule.  Both are computed on first access from the stored
    element indices: class_indices holds the indices of every vertex's a,
    then of every vertex's b, and subgroup_indices those of the subgroup.
    loops_removed lists vertices whose defining dot product with themselves
    landed in the subgroup.
    """

    graph: Graph
    q: int
    t: int
    class_indices: tuple[tuple[int, ...], tuple[int, ...]]
    subgroup_indices: tuple[int, ...]
    loops_removed: tuple[int, ...]

    @functools.cached_property
    def classes(self) -> tuple[tuple[FieldElement, FieldElement], ...]:
        element = field_from_order(self.q).element
        return tuple((element(a), element(b)) for a, b in zip(*self.class_indices))

    @functools.cached_property
    def scaling_subgroup(self) -> tuple[FieldElement, ...]:
        element = field_from_order(self.q).element
        return tuple(element(i) for i in self.subgroup_indices)


@functools.lru_cache(maxsize=128)
def _index_names(q: int) -> np.ndarray:
    """The element indices 0..q-1 as decimal strings, the parts of a label."""
    names = np.array([str(i) for i in range(q)], dtype=object)
    names.flags.writeable = False
    return names


def _relation_graph(n: int, block_mask, labels: tuple[str, ...]) -> tuple[Graph, tuple[int, ...]]:
    """The simple graph of a symmetric relation, plus the vertices related to themselves.

    block_mask(s, e) returns the (e - s, n) boolean mask of rows s..e-1,
    diagonal included, for blocks of about BLOCK_ENTRIES entries; the
    diagonal is reported as loops and cleared.
    """
    loops: list[int] = []
    step = max(1, BLOCK_ENTRIES // n)

    def blocks():
        for s in range(0, n, step):
            e = min(s + step, n)
            mask = block_mask(s, e)
            local = np.arange(e - s)
            diag = mask[local, local + s]
            loops.extend((local[diag] + s).tolist())
            mask[local, local + s] = False
            yield mask

    g = from_row_blocks(n, blocks(), labels)
    return g, tuple(loops)


def furedi_graph(q: int, t: int) -> FurediGraph:
    """Biclique-free graph on the (q^2 - 1)/t scaling classes of GF(q)^2.

    Vertices are orbits of nonzero pairs under coordinatewise scaling by
    the order-t subgroup H; two classes are adjacent when the dot product of
    any representatives lands in H.  Well-defined because H is
    multiplicatively closed.  Requires t to divide q - 1.

    The cosets of H are the residue classes of the discrete log mod
    (q - 1)/t.  The smallest pair of the orbit of (a, b) is (0, min bH)
    when a = 0; otherwise its first coordinate is min aH, reached by one
    scalar only, so the smallest pairs are (m, b) for every coset minimum
    m and every b.  classes lists them in lexicographic order, which is
    their order of first appearance when enumerating pairs.
    """
    if t < 1:
        raise OrderUnavailable(f"subgroup order must be >= 1, got {t}")
    order_split(q)  # refuse a bad order, then an oversized graph, before the modulus search
    require_order(q, t)
    n = (q * q - 1) // t
    refuse_above_vertex_cap(n)
    tab = field_tables(field_from_order(q))
    sub = tab.subgroup(tab.element_of_order(t), t)
    in_sub = np.zeros(q, dtype=bool)
    in_sub[sub] = True

    # smallest index of each coset of H, ascending: coset r is column r of
    # the antilog period read as t rows of (q - 1)/t
    coset_min = np.sort(tab.antilog[: q - 1].reshape(t, -1).min(axis=0))
    a = np.concatenate([np.zeros_like(coset_min), np.repeat(coset_min, q)])
    b = np.concatenate([coset_min, np.tile(np.arange(q), len(coset_min))])
    assert len(a) == n

    # The columns are (0, m) for each coset minimum m, then (m, b') for each
    # m and every element b', so a block needs only its rows' products with
    # the coset minima and with every element, encoded for the test of
    # a·m + b·b' against H.
    sum_in_sub = tab.sum_test(in_sub)
    coded_antilog = sum_in_sub.encode(tab.antilog)
    log_a, log_b, log_min = tab.log[a], tab.log[b], tab.log[coset_min]

    def block_mask(s, e):
        la, lb = log_a[s:e, None], log_b[s:e, None]
        head = in_sub[tab.antilog[lb + log_min]]  # columns (0, m): a·0 + b·m
        am = coded_antilog[la + log_min]
        bb = coded_antilog[lb + tab.log]
        grid = sum_in_sub(am[:, :, None], bb[:, None, :])
        return np.concatenate([head, grid.reshape(e - s, -1)], axis=1)

    names = _index_names(q)
    labels = tuple(map(":".join, zip(names[a].tolist(), names[b].tolist())))
    g, loops = _relation_graph(n, block_mask, labels)
    class_indices = (tuple(a.tolist()), tuple(b.tolist()))
    return FurediGraph(g, q, t, class_indices, tuple(sub.tolist()), loops)


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
    a = adjacency_rows(g).astype(np.int64)
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


def polarity_graph_with_loops(q: int) -> tuple[Graph, tuple[int, ...]]:
    """Polarity graph plus the list of self-orthogonal points.

    Vertices are the q^2 + q + 1 projective points over GF(q), first
    nonzero coordinate one, in the order (1, y, z), (0, 1, z), (0, 0, 1)
    with y and z ascending; u ~ v when the 3-term dot product vanishes.
    Self-orthogonal points would carry loops; they are removed from the
    simple graph and returned separately.
    """
    order_split(q)  # refuse a bad order, then an oversized graph, before the modulus search
    n = q * q + q + 1
    refuse_above_vertex_cap(n)
    tab = field_tables(field_from_order(q))
    span = np.arange(q)
    x = np.concatenate([np.ones(q * q, dtype=np.int64), np.zeros(q + 1, dtype=np.int64)])
    y = np.concatenate([np.repeat(span, q), np.ones(q, dtype=np.int64), [0]])
    z = np.concatenate([np.tile(span, q), span, [1]])

    # The columns are (1, y', z') for every y' and z', then (0, 1, z'), then
    # (0, 0, 1).  A dot product vanishes iff x·x' + y·y' == -z·z', so a
    # block compares its rows' x + y·y' for every y' with -z·z' for every z'.
    neg_z = tab.neg(z)
    log_y, log_neg_z = tab.log[y], tab.log[neg_z]

    def block_mask(s, e):
        xy = tab.add(x[s:e, None], tab.antilog[log_y[s:e, None] + tab.log])
        neg_zz = tab.antilog[log_neg_z[s:e, None] + tab.log]
        grid = xy[:, :, None] == neg_zz[:, None, :]
        return np.concatenate([grid.reshape(e - s, -1), neg_zz == y[s:e, None], z[s:e, None] == 0], axis=1)

    names = _index_names(q)
    labels = tuple(map(":".join, zip(names[x].tolist(), names[y].tolist(), names[z].tolist())))
    return _relation_graph(n, block_mask, labels)


def polarity_graph(q: int) -> Graph:
    """Simple polarity graph on q^2 + q + 1 projective points."""
    return polarity_graph_with_loops(q)[0]

