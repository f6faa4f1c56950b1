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
-z·z' (polarity).  Each block is allocated once, and each group of its
columns is written in place through a reshaped view (out=), so no block is
concatenated or copied.  graph.from_row_blocks packs the blocks into the
graph's packed rows as they come.  Both check the order and then the vertex
count against the graph vertex cap before building the field, and build the
field from the split that the order check returned, so q is factored once.

Disjoint unions of equal cliques need no field and no numpy, so they live
in graph (graph.clique_union, graph.clique_union_parts).  This module still
binds both names: code that wraps thetalab.constructions.clique_union from
outside, such as bench/tracer.py, finds it here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ffield import (FieldElement, element_of_order, field_create, field_from_order, field_tables, order_split,
                     require_order, subgroup)
from .graph import Graph, adjacency_rows, from_row_blocks, refuse_above_vertex_cap
from .graph import clique_union, clique_union_parts  # bound here too: see the module docstring

# entries per block of rows of a construction's adjacency mask: 256-512 KB
# per int64 temporary, and every Füredi graph with n <= 256 in one block
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class FurediGraph:
    """Scaling-class graph together with its construction data.

    classes holds one canonical pair (a, b) per vertex, the smallest member
    of its scaling orbit in field enumeration order, read on first access
    from the vertex labels "a:b" of element indices.  scaling_subgroup is
    the order-t multiplicative subgroup used both for the orbits and for
    the adjacency rule, rebuilt on first access by ffield.element_of_order
    and ffield.subgroup.  loops_removed lists vertices whose defining dot
    product with themselves landed in the subgroup; adjacency_with_loops
    restores them.
    """

    graph: Graph
    q: int
    t: int
    loops_removed: tuple[int, ...]

    @functools.cached_property
    def classes(self) -> tuple[tuple[FieldElement, FieldElement], ...]:
        element = field_from_order(self.q).element
        return tuple((element(int(a)), element(int(b))) for a, b in (s.split(":") for s in self.graph.labels))

    @functools.cached_property
    def scaling_subgroup(self) -> tuple[FieldElement, ...]:
        spec = field_from_order(self.q)
        return subgroup(spec, element_of_order(spec, self.t), self.t)

    def adjacency_with_loops(self) -> np.ndarray:
        """The loop-included adjacency matrix: adjacency_rows with a 1 at each removed loop."""
        a = adjacency_rows(self.graph)
        loops = list(self.loops_removed)
        a[loops, loops] = 1
        return a


@functools.lru_cache(maxsize=128)
def _index_names(q: int) -> tuple[str, ...]:
    """The element indices 0..q-1 as decimal strings, the parts of a label."""
    return tuple(map(str, range(q)))


def _relation_graph(n: int, block_mask, labels: tuple[str, ...]) -> tuple[Graph, tuple[int, ...]]:
    """The simple graph of a symmetric relation, plus the vertices related to themselves.

    block_mask(s, e) returns the (e - s, n) C-ordered boolean mask of rows
    s..e-1, diagonal included, for blocks of about BLOCK_ENTRIES entries;
    the diagonal is reported as loops and cleared.  Entry (i, s + i) of a
    block is its flat entry s + i(n + 1), so the diagonal is a strided view.
    """
    loops: list[int] = []
    step = max(1, BLOCK_ENTRIES // n)

    def blocks():
        for s in range(0, n, step):
            mask = block_mask(s, min(s + step, n))
            diag = mask.ravel()[s :: n + 1]
            loops.extend((diag.nonzero()[0] + s).tolist())
            diag[:] = False
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
    p, alpha = order_split(q)  # refuse a bad order, then an oversized graph, before the modulus search
    require_order(q, t)
    n = (q * q - 1) // t
    refuse_above_vertex_cap(n)
    tab = field_tables(field_create(p, alpha))
    k = (q - 1) // t
    # H is every k-th power of the generator: the unique order-t subgroup
    in_sub = np.zeros(q, dtype=bool)
    in_sub[tab.antilog[: q - 1 : k]] = True

    # smallest index of each coset of H, ascending: coset r is column r of
    # the antilog period read as t rows of k
    coset_min = np.minimum.reduce(tab.antilog[: q - 1].reshape(t, k))
    coset_min.sort()

    # The rows and columns are (0, m) for each coset minimum m, then (m, b')
    # for each m and every element b', so a block needs only its rows'
    # products with the coset minima and with every element, encoded for
    # the test of a·m + b·b' against H.
    sum_in_sub = tab.sum_test(in_sub)
    coded_antilog = tab.code[tab.antilog]
    log_min = tab.log[coset_min]
    log_a, log_b = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    log_a[:k], log_b[:k] = tab.log[0], log_min  # rows (0, m)
    log_a[k:].reshape(k, q)[:] = log_min[:, None]  # rows (m, b'): k groups of q
    log_b[k:].reshape(k, q)[:] = tab.log

    def block_mask(s, e):
        la, lb = log_a[s:e, None], log_b[s:e, None]
        mask = np.empty((e - s, n), dtype=bool)
        in_sub.take(tab.antilog.take(lb + log_min), out=mask[:, :k])  # columns (0, m): a·0 + b·m
        am = coded_antilog.take(la + log_min)
        bb = coded_antilog.take(lb + tab.log)
        sum_in_sub(am[:, :, None], bb[:, None, :], out=mask[:, k:].reshape(e - s, k, q))
        return mask

    names, minima = _index_names(q), coset_min.tolist()
    labels = (*["0:" + names[c] for c in minima], *[head + name for head in [f"{c}:" for c in minima] for name in names])
    g, loops = _relation_graph(n, block_mask, labels)
    return FurediGraph(g, q, t, loops)


@dataclass(frozen=True)
class SquareIdentityReport:
    holds: bool
    max_abs_residual: int
    no_common_row_sums: tuple[int, ...]
    expected_row_sum: int


def furedi_square_identity(fg: FurediGraph) -> SquareIdentityReport:
    """Check A^2 == (q - t) I + t J - t Q on the loop-included adjacency.

    A is fg.adjacency_with_loops(), since the identity concerns the
    incidence counts before loop removal.  Q marks distinct pairs with
    no common neighbor and must have (q - 1 - t)/t ones per row.  All
    arithmetic is int64, so equality is exact.
    """
    n = fg.graph.n
    a = fg.adjacency_with_loops().astype(np.int64)
    a2 = a @ a
    off = ~np.eye(n, dtype=bool)
    quo = np.where(off & (a2 == 0), 1, 0).astype(np.int64)
    expected = (fg.q - fg.t) * np.eye(n, dtype=np.int64) + fg.t * np.ones((n, n), dtype=np.int64) - fg.t * quo
    residual = a2 - expected
    row_sums = tuple(int(s) for s in quo.sum(axis=1))
    expected_row = (fg.q - 1 - fg.t) // fg.t
    holds = bool(np.all(residual == 0)) and all(s == expected_row for s in row_sums)
    return SquareIdentityReport(holds, int(np.abs(residual).max()), row_sums, expected_row)


def polarity_graph_with_loops(q: int) -> tuple[Graph, tuple[int, ...]]:
    """Polarity graph plus the list of self-orthogonal points.

    Vertices are the q^2 + q + 1 projective points over GF(q), first
    nonzero coordinate one, in the order (1, y, z), (0, 1, z), (0, 0, 1)
    with y and z ascending; u ~ v when the 3-term dot product vanishes.
    Self-orthogonal points would carry loops; they are removed from the
    simple graph and returned separately.
    """
    p, alpha = order_split(q)  # refuse a bad order, then an oversized graph, before the modulus search
    n = q * q + q + 1
    refuse_above_vertex_cap(n)
    tab = field_tables(field_create(p, alpha))
    span = np.arange(q)
    x = np.zeros(n, dtype=np.intp)
    y = np.zeros(n, dtype=np.intp)
    z = np.empty(n, dtype=np.intp)
    x[: q * q] = 1
    y[: q * q].reshape(q, q)[:] = span[:, None]
    y[q * q : n - 1] = 1
    z[: q * q].reshape(q, q)[:] = span
    z[q * q : n - 1] = span
    z[n - 1] = 1

    # The columns are (1, y', z') for every y' and z', then (0, 1, z'), then
    # (0, 0, 1).  A dot product vanishes iff x·x' + y·y' == -z·z', so a
    # block compares its rows' x + y·y' for every y' with -z·z' for every z'.
    neg_z = tab.neg(z)
    log_y, log_neg_z = tab.log[y], tab.log[neg_z]

    def block_mask(s, e):
        mask = np.empty((e - s, n), dtype=bool)
        xy = tab.add(x[s:e, None], tab.antilog[log_y[s:e, None] + tab.log])
        neg_zz = tab.antilog[log_neg_z[s:e, None] + tab.log]
        np.equal(xy[:, :, None], neg_zz[:, None, :], out=mask[:, : q * q].reshape(e - s, q, q))
        np.equal(neg_zz, y[s:e, None], out=mask[:, q * q : n - 1])
        np.equal(z[s:e], 0, out=mask[:, n - 1])
        return mask

    names = _index_names(q)
    labels = (*[head + name for head in [f"1:{y}:" for y in names] for name in names],
              *["0:1:" + name for name in names], "0:0:1")
    return _relation_graph(n, block_mask, labels)


def polarity_graph(q: int) -> Graph:
    """Simple polarity graph on q^2 + q + 1 projective points."""
    return polarity_graph_with_loops(q)[0]

