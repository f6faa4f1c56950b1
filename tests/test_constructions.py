"""Construction tests, cross-checked against independent modular-integer oracles."""

import math

import numpy as np
import pytest

from thetalab import ffield, graph
from thetalab.constructions import (
    clique_union,
    clique_union_parts,
    furedi_graph,
    furedi_square_identity,
    polarity_graph,
    polarity_graph_with_loops,
)
from thetalab.errors import ComplexityRefused, OrderUnavailable, PreconditionViolated
from thetalab.ffield import prime_factors, prime_power_split
from thetalab.graph import (
    Graph,
    bfs_layers,
    contains_clique,
    contains_complete_bipartite,
    contains_cycle,
)
from thetalab.linalg import eigen_sym, sym_from_dense


# --- independent oracle: rebuild furedi(5,2) with ints mod 5 ---------------


def brute_furedi_5_2():
    """Plain mod-5 arithmetic, no field machinery: orbit keys and edges."""
    H = {1, 4}  # the order-2 subgroup of GF(5)*: 4*4 = 16 = 1
    pairs = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    orbit_key = {}
    for a, b in pairs:
        orbit = sorted(((c * a) % 5, (c * b) % 5) for c in H)
        orbit_key[(a, b)] = tuple(orbit)
    reps = sorted(set(orbit_key.values()))
    idx = {k: i for i, k in enumerate(reps)}
    edges = set()
    loops = set()
    for i, k in enumerate(reps):
        a, b = k[0]
        for j, k2 in enumerate(reps):
            a2, b2 = k2[0]
            if (a * a2 + b * b2) % 5 in H:
                if i == j:
                    loops.add(i)
                elif i < j:
                    edges.add((i, j))
    return reps, edges, loops, idx, orbit_key


def test_furedi_5_2_matches_integer_oracle():
    reps, edges, loops, idx, orbit_key = brute_furedi_5_2()
    fg = furedi_graph(5, 2)
    assert fg.graph.n == 12 == len(reps)
    # map construction classes onto oracle orbits via the canonical pair
    f_to_oracle = {}
    for u, (a, b) in enumerate(fg.classes):
        key = orbit_key[(a.coeffs[0], b.coeffs[0])]
        f_to_oracle[u] = idx[key]
    assert sorted(f_to_oracle.values()) == list(range(12))
    got_edges = {tuple(sorted((f_to_oracle[u], f_to_oracle[v]))) for u, v in fg.graph.edges()}
    assert got_edges == edges
    assert {f_to_oracle[u] for u in fg.loops_removed} == loops


def test_furedi_5_2_counts():
    fg = furedi_graph(5, 2)
    assert fg.graph.n == 12
    assert len(fg.loops_removed) == 4
    degs = fg.graph.degrees()
    assert all(degs[u] == 4 for u in fg.loops_removed)
    assert all(degs[u] == 5 for u in range(12) if u not in fg.loops_removed)
    assert not contains_complete_bipartite(fg.graph, 2, 3)


def test_furedi_13_4():
    fg = furedi_graph(13, 4)
    assert fg.graph.n == 42
    degs = fg.graph.degrees()
    loopset = set(fg.loops_removed)
    assert all(degs[u] == (12 if u in loopset else 13) for u in range(42))
    assert not contains_complete_bipartite(fg.graph, 2, 5)


@pytest.mark.parametrize("q,t,rowsum", [(5, 2, 1), (13, 4, 2), (7, 2, 2)])
def test_square_identity(q, t, rowsum):
    rep = furedi_square_identity(furedi_graph(q, t))
    assert rep.holds
    assert rep.max_abs_residual == 0
    assert rep.expected_row_sum == rowsum
    assert all(s == rowsum for s in rep.no_common_row_sums)


def test_furedi_rejects_bad_subgroup_order():
    with pytest.raises(OrderUnavailable):
        furedi_graph(5, 3)
    with pytest.raises(OrderUnavailable):
        furedi_graph(7, 0)


def test_field_constructions_refuse_above_vertex_cap(monkeypatch):
    monkeypatch.setattr(graph, "GRAPH_N_CAP", 12)
    assert furedi_graph(5, 2).graph.n == 12
    with pytest.raises(ComplexityRefused, match="n = 13 vertices, above the vertex cap 12"):
        polarity_graph_with_loops(3)


def test_each_construction_factors_its_order_once(monkeypatch):
    """With the field caches warm, a construction factors q in its order check and builds its field
    from that split, so it never factors q a second time."""
    furedi_graph(9, 4), polarity_graph_with_loops(9)  # warm the field caches
    calls = []
    split = ffield.prime_power_split
    monkeypatch.setattr(ffield, "prime_power_split", lambda q: calls.append(q) or split(q))
    furedi_graph(9, 4)
    assert calls == [9]
    calls.clear()
    polarity_graph_with_loops(9)
    assert calls == [9]


def _divisors(m: int):
    return [d for d in range(1, m + 1) if m % d == 0]


def _constructible_cases(n_cap=300, q_cap=289):
    cases = []
    for q in range(2, q_cap + 1):
        try:
            prime_power_split(q)
        except Exception:
            continue
        for t in _divisors(q - 1):
            if (q * q - 1) // t <= n_cap:
                cases.append((q, t))
    return cases


def test_common_neighbors_exhaustive_small_q():
    # every distinct pair shares 0 or t neighbors in the loop-included graph: holds forces each
    # off-diagonal entry of A^2 to t - t Q_uv
    for q, t in _constructible_cases(n_cap=10**9, q_cap=17):
        rep = furedi_square_identity(furedi_graph(q, t))
        assert rep.holds, (q, t)


def test_biclique_free_all_constructible_up_to_300():
    cases = _constructible_cases()
    assert (5, 2) in cases and (17, 1) in cases and (289, 288) in cases
    for q, t in cases:
        fg = furedi_graph(q, t)
        assert fg.graph.n == (q * q - 1) // t
        assert not contains_complete_bipartite(fg.graph, 2, t + 1), (q, t)


def test_furedi_loop_included_spectrum():
    # loop-included matrix: top eigenvalue q, the rest within sqrt(2q-2t-1)
    for q, t in [(5, 2), (13, 4), (7, 2)]:
        fg = furedi_graph(q, t)
        n = fg.graph.n
        a = np.zeros((n, n))
        for u, v in fg.graph.edges():
            a[u, v] = a[v, u] = 1.0
        for u in fg.loops_removed:
            a[u, u] = 1.0
        spec = eigen_sym(sym_from_dense(a))
        assert abs(spec.eigenvalues[0] - q) <= 1e-9
        bound = math.sqrt(2 * q - 2 * t - 1)
        assert max(abs(x) for x in spec.eigenvalues[1:]) <= bound + 1e-9


# --- polarity graphs --------------------------------------------------------


def brute_polarity_3():
    pts = []
    for y in range(3):
        for z in range(3):
            pts.append((1, y, z))
    for z in range(3):
        pts.append((0, 1, z))
    pts.append((0, 0, 1))
    edges = set()
    absolute = set()
    for i, u in enumerate(pts):
        if sum(c * c for c in u) % 3 == 0:
            absolute.add(i)
        for j in range(i + 1, len(pts)):
            v = pts[j]
            if sum(a * b for a, b in zip(u, v)) % 3 == 0:
                edges.add((i, j))
    return pts, edges, absolute


def test_polarity_3_matches_integer_oracle():
    pts, edges, absolute = brute_polarity_3()
    g, loops = polarity_graph_with_loops(3)
    assert g.n == 13 == len(pts)
    # identical point enumeration order, so vertex ids line up directly
    assert set(g.edges()) == edges
    assert set(loops) == absolute


@pytest.mark.parametrize("q", [q for q in range(2, 32) if len(prime_factors(q)) == 1])
def test_polarity_counts_and_c4_freeness(q):
    g, loops = polarity_graph_with_loops(q)
    assert g.n == q * q + q + 1
    assert len(loops) == q + 1
    degs = g.degrees()
    assert sorted(degs.count(d) for d in {q, q + 1}) == sorted([q + 1, q * q])
    assert all(degs[u] == q for u in loops)
    assert not contains_cycle(g, 4)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_polarity_spectral_bound_after_loop_removal(q):
    g = polarity_graph(q)
    spec = eigen_sym(sym_from_dense(np.array([[1.0 if g.has_edge(u, v) else 0.0 for v in range(g.n)] for u in range(g.n)])))
    assert max(abs(x) for x in spec.eigenvalues[1:]) <= math.sqrt(q) + 1 + 1e-9


# --- clique unions ----------------------------------------------------------


def components(g: Graph):
    seen = set()
    comps = []
    for root in range(g.n):
        if root in seen:
            continue
        comp = set()
        for layer in bfs_layers(g, root):
            comp.update(layer)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def test_clique_union_component_sizes():
    g = clique_union(10, 3)
    assert sorted(len(c) for c in components(g)) == [1, 3, 3, 3]
    assert clique_union_parts(10, 3) == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9,))
    g = clique_union(12, 2)
    assert g.edge_count() == 6
    assert not contains_cycle(g, 3)
    g = clique_union(9, 3)
    assert not contains_cycle(g, 4)


def has_star_plus_edge(g: Graph, t: int) -> bool:
    # a vertex of degree >= t whose neighborhood spans an edge
    for v in range(g.n):
        nb = list(g.neighbors(v))
        if len(nb) >= t and any(g.has_edge(x, y) for x in nb for y in nb if x < y):
            return True
    return False


def test_clique_union_pattern_free():
    for t in range(2, 5):
        for n in range(t, 13):
            g = clique_union(n, t)
            if t + 1 >= 3:
                assert not contains_cycle(g, t + 1), (n, t)
            assert not contains_clique(g, t + 1), (n, t)
            assert not has_star_plus_edge(g, t), (n, t)
            assert max(len(c) for c in components(g)) <= t


def test_clique_union_rejects_bad_sizes():
    with pytest.raises(PreconditionViolated, match="clique union needs n >= 1 and t >= 1, got n = 0, t = 3"):
        clique_union(0, 3)
    with pytest.raises(PreconditionViolated, match="clique union needs n >= 1 and t >= 1, got n = 5, t = 0"):
        clique_union(5, 0)
