"""Graph structure and exact-checker tests, with brute-force oracles."""

from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from thetalab import graph as graph_module
from thetalab.errors import (
    ComplexityRefused,
    IndexOutOfRange,
    LoopRejected,
    PreconditionViolated,
    UnsupportedPattern,
)
from thetalab.graph import (
    GRAPH_N_CAP,
    SEARCH_STEP_CAP,
    bfs_layers,
    chromatic_number_exact,
    complement,
    complete_graph,
    contains_clique,
    contains_complete_bipartite,
    contains_cycle,
    contains_pattern,
    cycle_graph,
    empty_graph,
    from_edges,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    layer_chromatic_check,
    max_clique_size,
    parse_pattern,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_from_edges_triangle():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert g.degrees() == [2, 2, 2]
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(LoopRejected):
        from_edges(2, [(0, 0)])
    with pytest.raises(IndexOutOfRange):
        from_edges(2, [(0, 2)])
    with pytest.raises(PreconditionViolated, match="label must be a string, got None"):
        from_edges(2, [], [None, 1.5])
    with pytest.raises(PreconditionViolated, match="label must be a string, got 1.5"):
        from_edges(2, [], ["a", 1.5])
    with pytest.raises(PreconditionViolated, match="labels length must equal n"):
        from_edges(2, [], ["a"])


@pytest.mark.parametrize("n", [GRAPH_N_CAP + 1, 10**9, 10**23])
def test_from_edges_refuses_above_vertex_cap(n):
    with pytest.raises(ComplexityRefused, match=f"n = {n} vertices, above the vertex cap {GRAPH_N_CAP}"):
        from_edges(n, [])
    with pytest.raises(ComplexityRefused):
        graph_from_json({"n": n, "edges": []})


def test_from_edges_builds_at_vertex_cap():
    assert from_edges(GRAPH_N_CAP, [(0, GRAPH_N_CAP - 1)]).edge_count() == 1


def test_duplicate_edges_collapse():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_c5_degrees():
    assert cycle_graph(5).degrees() == [2] * 5
    for n in (0, 1, 2):
        with pytest.raises(PreconditionViolated, match="cycle length must be >= 3"):
            cycle_graph(n)


def test_adjacency_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(int(rng.integers(1, 12)), rng.random(), rng)
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)
            assert not g.has_edge(u, u)


def test_complement_basics():
    assert complement(complete_graph(4)).edge_count() == 0
    c5bar = complement(cycle_graph(5))
    assert c5bar.degrees() == [2] * 5  # self-complementary up to isomorphism
    assert not contains_clique(c5bar, 3)


def test_complement_involution():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_graph(int(rng.integers(1, 14)), rng.random(), rng)
        assert complement(complement(g)) == g


def test_induced_subgraph():
    g = petersen()
    sub = induced_subgraph(g, [0, 1, 2, 3, 4])
    assert sub.n == 5
    # the outer 5 vertices induce exactly the outer cycle
    assert sub.edge_count() == len([e for e in g.edges() if e[0] < 5 and e[1] < 5]) == 5


@pytest.mark.parametrize("vertices, bad", [([-1, 2], -1), ([0, 7], 7), ([4], 4)])
def test_induced_subgraph_refuses_vertices_outside_the_graph(vertices, bad):
    # -1 would read vertex 3's row by negative indexing, and 7 has no row
    with pytest.raises(IndexOutOfRange, match=f"vertex {bad} outside \\[0,4\\)"):
        induced_subgraph(from_edges(4, [(0, 1), (1, 2), (2, 3)]), vertices)


# ---------------------------------------------------------------------------
# cycle detection vs brute force
# ---------------------------------------------------------------------------


def brute_has_cycle(g, k):
    # subgraph C_k exists iff some k-subset's induced graph has a Hamiltonian cycle
    for subset in combinations(range(g.n), k):
        first = subset[0]
        rest = subset[1:]
        for perm in permutations(rest):
            walk = (first,) + perm
            if all(g.has_edge(walk[i], walk[(i + 1) % k]) for i in range(k)):
                break
        else:
            continue
        return True
    return False


def test_contains_cycle_examples():
    c5 = cycle_graph(5)
    assert contains_cycle(c5, 5)
    assert not contains_cycle(c5, 3)
    assert not contains_cycle(c5, 4)
    p = petersen()
    assert contains_cycle(p, 5)
    assert not contains_cycle(p, 3)
    assert not contains_cycle(p, 4)
    assert contains_cycle(p, 6)


def test_contains_cycle_longer_than_n_is_false():
    assert not contains_cycle(complete_graph(40), 41)  # no DFS over the 40! paths
    assert contains_cycle(complete_graph(6), 6)


def test_contains_cycle_rejects_small_k():
    with pytest.raises(PreconditionViolated):
        contains_cycle(cycle_graph(5), 2)


def complete_bipartite(a, b):
    return from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def test_contains_cycle_step_cap(monkeypatch):
    g = complete_bipartite(8, 8)  # no odd cycle; the C7 search takes 45,760 walk steps
    assert not contains_cycle(g, 7)
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 10**4)
    with pytest.raises(ComplexityRefused, match="C7 search exceeds the step cap 10000"):
        contains_cycle(g, 7)
    assert contains_cycle(g, 6) and contains_cycle(cycle_graph(7), 7)  # found within the cap
    # each search answers with the cap at its own count: C7's walk enters 6 vertices
    for h, count, found in ((g, 45_760, False), (cycle_graph(7), 6, True)):
        monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", count)
        assert contains_cycle(h, 7) == found
        monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", count - 1)
        with pytest.raises(ComplexityRefused, match=f"C7 search exceeds the step cap {count - 1}"):
            contains_cycle(h, 7)


def test_contains_cycle_exhaustive_n5():
    # every labeled graph on 5 vertices, every k
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        g = from_edges(5, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        for k in (3, 4, 5):
            assert contains_cycle(g, k) == brute_has_cycle(g, k)


def test_contains_cycle_random_n10():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_graph(int(rng.integers(4, 11)), rng.random() * 0.7, rng)
        for k in range(3, min(g.n, 8) + 1):
            assert contains_cycle(g, k) == brute_has_cycle(g, k)


# ---------------------------------------------------------------------------
# biclique and clique detection
# ---------------------------------------------------------------------------


def test_biclique_examples():
    k23 = from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert contains_complete_bipartite(k23, 2, 3)
    assert not contains_complete_bipartite(cycle_graph(5), 2, 2)
    assert contains_complete_bipartite(complete_graph(5), 2, 3)


def test_biclique_preconditions_and_cap(monkeypatch):
    with pytest.raises(PreconditionViolated):
        contains_complete_bipartite(cycle_graph(5), 3, 2)
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 10**5)
    with pytest.raises(ComplexityRefused, match="C\\(60,5\\) exceeds cap 100000"):
        contains_complete_bipartite(complete_graph(60), 5, 5)


def test_biclique_t2_has_no_subset_cap():
    n = 4500  # C(n, 2) is above SEARCH_STEP_CAP
    assert comb(n, 2) > SEARCH_STEP_CAP
    g = from_edges(n, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert contains_complete_bipartite(g, 2, 3)
    assert not contains_complete_bipartite(g, 2, 4)


def test_biclique_t3_above_the_subset_cap_is_refused():
    n = 400
    assert comb(n, 3) > SEARCH_STEP_CAP
    with pytest.raises(ComplexityRefused, match=f"C\\({n},3\\) exceeds cap {SEARCH_STEP_CAP}"):
        contains_complete_bipartite(empty_graph(n), 3, 3)


def test_biclique_on_fewer_than_t_plus_s_vertices_is_false_without_a_search():
    # C(400, 3) is above the subset cap, but a K_{3,398} needs 401 vertices
    assert not contains_complete_bipartite(empty_graph(400), 3, 398)
    for n in (4, 12, 40):
        g = complete_graph(n)  # every pair has n - 2 common neighbours, one short of a K_{2,n-1}
        assert not contains_complete_bipartite(g, 2, n - 1)
        assert "packed" not in vars(g)  # no row was unpacked
        assert contains_complete_bipartite(g, 2, n - 2)


def brute_has_biclique(g, t, s):
    for left in combinations(range(g.n), t):
        common = [v for v in range(g.n) if all(g.has_edge(u, v) for u in left)]
        if len(common) >= s:
            return True
    return False


def test_biclique_random_vs_brute():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(int(rng.integers(3, 10)), rng.random(), rng)
        for t, s in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
            if t <= g.n:
                assert contains_complete_bipartite(g, t, s) == brute_has_biclique(g, t, s)


def brute_max_clique(g):
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return r
    return best


def test_clique_examples():
    assert contains_clique(complete_graph(5), 5)
    assert not contains_clique(cycle_graph(5), 3)
    assert not contains_clique(complement(cycle_graph(5)), 3)
    assert contains_clique(empty_graph(3), 1)
    assert not contains_clique(empty_graph(0), 1)
    with pytest.raises(PreconditionViolated):
        contains_clique(empty_graph(3), 0)


def test_clique_search_step_cap(monkeypatch):
    # G(150, 0.9): the K60 search places more than 10^7 vertices in its colour sorts
    g = random_graph(150, 0.9, np.random.default_rng(1))
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 10**5)
    with pytest.raises(ComplexityRefused, match="clique search exceeds the step cap 100000"):
        contains_clique(g, 60)
    assert contains_clique(complete_graph(40), 40)  # 820 placements, within the cap
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 820)  # the search's own count answers
    assert contains_clique(complete_graph(40), 40)
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 819)
    with pytest.raises(ComplexityRefused, match="clique search exceeds the step cap 819"):
        contains_clique(complete_graph(40), 40)


def test_max_clique_random_vs_brute():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_graph(int(rng.integers(1, 10)), rng.random(), rng)
        assert max_clique_size(g) == brute_max_clique(g)


# ---------------------------------------------------------------------------
# BFS layers and chromatic number
# ---------------------------------------------------------------------------


def test_bfs_layers_examples():
    assert bfs_layers(cycle_graph(5), 0) == [{0}, {1, 4}, {2, 3}]
    assert bfs_layers(complete_graph(4), 0) == [{0}, {1, 2, 3}]
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    assert bfs_layers(star, 0) == [{0}, {1, 2, 3, 4}]
    # unreachable vertices omitted
    two = from_edges(4, [(0, 1), (2, 3)])
    assert bfs_layers(two, 0) == [{0}, {1}]
    for v in (-1, 5):
        with pytest.raises(IndexOutOfRange, match=f"vertex {v} outside \\[0,5\\)"):
            bfs_layers(cycle_graph(5), v)


def brute_chromatic(g):
    from itertools import product

    for k in range(1, g.n + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return k
    return 0


def test_chromatic_examples():
    assert chromatic_number_exact(cycle_graph(5)) == 3
    assert chromatic_number_exact(complete_graph(4)) == 4
    assert chromatic_number_exact(petersen()) == 3
    assert chromatic_number_exact(empty_graph(6)) == 1
    assert chromatic_number_exact(empty_graph(1)) == 1
    assert chromatic_number_exact(empty_graph(0)) == 0


def test_chromatic_climbs_two_steps_above_the_clique_bound():
    # the Groetzsch graph (Mycielski of C5): triangle-free, chromatic number 4
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, j) for i in range(5) for j in ((i + 1) % 5, (i - 1) % 5)]
    hub = [(5 + i, 10) for i in range(5)]
    g = from_edges(11, cycle + shadows + hub)
    assert max_clique_size(g) == 2
    assert chromatic_number_exact(g) == 4


def test_chromatic_of_a_crown_graph():
    # K_{6,6} minus a perfect matching, sides interleaved (u_i = 2i, v_i = 2i + 1): a
    # greedy colouring in vertex order, which is also its degree order, uses 6 colours
    n = 6
    g = from_edges(2 * n, [(2 * i, 2 * j + 1) for i in range(n) for j in range(n) if i != j])
    colours = {}
    for v in range(g.n):
        taken = {colours[u] for u in g.neighbors(v) if u in colours}
        colours[v] = min(c for c in range(g.n) if c not in taken)
    assert len(set(colours.values())) == n
    assert chromatic_number_exact(g) == 2


def test_chromatic_random_vs_brute():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_graph(int(rng.integers(1, 8)), rng.random(), rng)
        assert chromatic_number_exact(g) == brute_chromatic(g)


def mycielski(g):
    """The Mycielski graph of g: chromatic number one more, clique number the same (if >= 2)."""
    n = g.n
    shadows = [(n + u, v) for u, v in g.edges()] + [(n + v, u) for u, v in g.edges()]
    return from_edges(2 * n + 1, g.edges() + shadows + [(n + i, 2 * n) for i in range(n)])


def test_chromatic_cap(monkeypatch):
    # bounded by work, not by n: both were refused above 40 vertices
    assert chromatic_number_exact(empty_graph(60)) == 1
    assert chromatic_number_exact(complete_bipartite(30, 30)) == 2
    g = mycielski(mycielski(cycle_graph(5)))  # 23 vertices, triangle-free, chromatic number 5
    assert chromatic_number_exact(g) == 5  # its 4-colouring search scans 74,753 vertices and neighbours
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 10**4)
    with pytest.raises(ComplexityRefused, match="4-colouring search exceeds the step cap 10000"):
        graph_module._k_colorable(g, 4)
    with pytest.raises(ComplexityRefused, match="step cap 10000"):
        chromatic_number_exact(g)
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 74_753)  # the search's own count answers
    assert not graph_module._k_colorable(g, 4)
    monkeypatch.setattr(graph_module, "SEARCH_STEP_CAP", 74_752)
    with pytest.raises(ComplexityRefused, match="4-colouring search exceeds the step cap 74752"):
        graph_module._k_colorable(g, 4)


def test_searches_deeper_than_the_recursion_limit_answer():
    # each search is deeper than Python's recursion limit, with little work per level
    assert contains_cycle(cycle_graph(1200), 1200)
    assert chromatic_number_exact(empty_graph(1100)) == 1
    assert contains_clique(complete_graph(1100), 1100)
    assert chromatic_number_exact(from_edges(1500, [(i, i + 1) for i in range(1499)])) == 2


# ---------------------------------------------------------------------------
# layer chromatic check
# ---------------------------------------------------------------------------


def test_layer_check_k4():
    rep = layer_chromatic_check(complete_graph(4), 5)
    assert rep.ok and rep.max_layer_chi <= 3


def test_layer_check_rejects_c5():
    with pytest.raises(PreconditionViolated):
        layer_chromatic_check(cycle_graph(5), 5)


def test_layer_check_tree():
    tree = from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    rep = layer_chromatic_check(tree, 5)
    assert rep.ok
    assert rep.max_layer_chi == 1  # layers of a tree are independent sets


def layer_entries_rebuild(g, k):
    """layer_chromatic_check's entries from bfs_layers, cut at i_max."""
    i_max = (k - 1) // 2
    entries = []
    for root in range(g.n):
        layers = bfs_layers(g, root)
        for i in range(min(i_max, len(layers) - 1) + 1):
            chi = chromatic_number_exact(induced_subgraph(g, layers[i]))
            entries.append((root, i, chi, chi <= k - 2))
    return tuple(entries)


@pytest.mark.parametrize("g", [
    from_edges(8, [(v, v + 1) for v in range(6)] + [(0, 2)]),  # path with a triangle, and isolated vertex 7
    from_edges(9, [(0, v) for v in range(1, 5)] + [(5, 6), (6, 7), (7, 8), (5, 7)]),  # star of depth 1 < i_max
], ids=["isolated-vertex", "shallow-component"])
def test_layer_check_entries_match_bfs_layers(g):
    assert layer_chromatic_check(g, 5).entries == layer_entries_rebuild(g, 5)


def test_layer_check_exhaustive_n4():
    # every labeled graph on 4 vertices is C5-free; bound chi(layer) <= 3 must hold
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        g = from_edges(4, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        rep = layer_chromatic_check(g, 5)
        assert rep.ok


# ---------------------------------------------------------------------------
# patterns and serialization
# ---------------------------------------------------------------------------


def test_parse_pattern():
    assert parse_pattern("C4") == ("cycle", 4)
    assert parse_pattern("K5") == ("clique", 5)
    assert parse_pattern("K2,3") == ("biclique", (2, 3))
    with pytest.raises(UnsupportedPattern):
        parse_pattern("P4")
    with pytest.raises(UnsupportedPattern):
        parse_pattern("C2")
    for text in ("C1_0", "K+2,+3", "C\u0665", "K2, 3"):  # \u0665 is the Arabic-Indic digit five
        with pytest.raises(UnsupportedPattern):
            parse_pattern(text)


def test_contains_pattern():
    assert contains_pattern(complete_graph(4), "K3")
    assert not contains_pattern(cycle_graph(5), "C4")
    assert contains_pattern(complete_graph(5), "K2,2")


def test_json_roundtrip():
    g = petersen()
    obj = graph_to_json(g)
    assert obj["n"] == 10
    assert obj["edges"] == sorted(obj["edges"])
    assert graph_from_json(obj) == g


def test_json_labels():
    g = from_edges(2, [(0, 1)], labels=["a", "b"])
    obj = graph_to_json(g)
    assert obj["labels"] == ["a", "b"]
    assert graph_from_json(obj).labels == ("a", "b")


@pytest.mark.parametrize("obj, message", [
    ({}, "missing key 'n'"),
    ({"n": 3, "edges": 5}, "edges must be a list, got int"),
    ({"n": 3, "edges": {}}, "edges must be a list, got dict"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "edge must be a list of two endpoints, got [0, 1, 2]"),
    ({"n": 3, "edges": [5]}, "edge must be a list of two endpoints, got 5"),
    (7, "expected a JSON object, got int"),
])
def test_graph_from_json_refuses_malformed_shapes(obj, message):
    with pytest.raises(PreconditionViolated) as exc:
        graph_from_json(obj)
    assert str(exc.value) == message
