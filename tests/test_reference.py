"""Library validation and certificates against plain reference versions.

The references are O(n^2) Python loops for the certificate checks, the
path DFS for the cycle searches, the pair loop for the K_{2,s} search, one
eigendecomposition per derived quantity for the trace certificates, a
full rebuild per candidate edge for the cycle-free generator, the
per-pair FieldSpec arithmetic for the finite-field constructions, the
loop over base-p digits for table addition, an edge loop for the dense
adjacency matrix, a per-graph bitset BFS for the layer-colouring sweep,
the test of every edge mask against every 5-cycle for the 5-cycle-free
graphs it sweeps,
the QL eigensolver on numpy scalars that rotates one eigenvector column
pair at a time, and the packed upper triangle for symmetric matrices.
Both sides perform the same floating-point operations, so every
comparison is exact equality, not a tolerance.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetalab import constructions as constructions_module
from thetalab import experiments as experiments_module
from thetalab import graph as graph_module
from thetalab import linalg as linalg_module
from thetalab.constructions import clique_union, furedi_graph, polarity_graph, polarity_graph_with_loops
from thetalab.errors import ConvergenceFailure, PreconditionViolated
from thetalab.experiments import _cycle_free_graph, _grow_c5_free_masks, _layers_3_colorable, _three_colorable_table
from thetalab.ffield import element_of_order, field_from_order, field_tables, prime_factors, subgroup
from thetalab.graph import (
    Graph,
    _bits,
    adjacency_rows,
    chromatic_number_exact,
    complement,
    contains_complete_bipartite,
    contains_cycle,
    empty_graph,
    from_edges,
    induced_subgraph,
)
from thetalab.linalg import adjacency_sym, eigen_sym, eigh_dense, sym_from_dense
from thetalab.ortho import (
    OrthoRep,
    RepValidation,
    gram,
    random_rep,
    schnirelmann_check,
    trace_power_certificate,
    validate_rep,
)
from thetalab.theta import ThetaResult

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def validate_rep_loop(rep, g, tol=1e-8):
    v = rep.vectors
    gm = v.T @ v
    worst = float(np.max(np.abs(np.diag(gm) - 1.0))) if g.n else 0.0
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if not g.has_edge(u, w):
                worst = max(worst, abs(float(gm[u, w])))
    return RepValidation(worst <= tol, worst)


def theta_result_checks_loop(lower, upper, gap, primal_x, dual_b, graph):
    g = graph
    n = g.n
    x = primal_x.dense()
    if abs(float(np.trace(x)) - 1.0) > 1e-8:
        raise PreconditionViolated("primal certificate trace differs from 1")
    b = dual_b.dense()
    worst_pattern = 0.0
    for u in range(n):
        if b[u, u] != 1.0:
            raise PreconditionViolated("dual certificate diagonal not exactly 1")
        for v in range(u + 1, n):
            if g.has_edge(u, v):
                worst_pattern = max(worst_pattern, abs(float(x[u, v])))
            elif b[u, v] != 1.0:
                raise PreconditionViolated("dual certificate non-edge entry not exactly 1")
    if worst_pattern > 1e-8:
        raise PreconditionViolated(f"primal certificate edge residual {worst_pattern}")
    vals, _ = eigh_dense(x)
    if float(vals[-1]) < -1e-8:
        raise PreconditionViolated(f"primal certificate eigenvalue {float(vals[-1])}")
    if abs(float(x.sum()) - lower) > 1e-8 * max(1.0, abs(lower)):
        raise PreconditionViolated("lower bound does not match primal certificate")
    bvals, _ = eigh_dense(b)
    if abs(float(bvals[0]) - upper) > 1e-8 * max(1.0, abs(upper)):
        raise PreconditionViolated("upper bound does not match dual certificate")
    if gap < -1e-9 or abs(gap - (upper - lower)) > 1e-12:
        raise PreconditionViolated("gap field inconsistent with bounds")


def numeric_rank_twice(m):
    vals = eigen_sym(m).eigenvalues
    tol = m.n * float(np.max(np.abs(vals))) * 2.0**-40
    return int(np.sum(np.abs(vals) > tol))


def trace_power_twice(m, k):
    return float(np.sum(eigen_sym(m).eigenvalues**k))


def gram_sum(rep):
    v = rep.vectors
    return sym_from_dense((v.T @ v + v.T @ v) / 2.0)


def cycle_free_graph_rebuild(n, k, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    kept = []
    for u, v in pairs:
        if k == 3:
            if adj[u] & adj[v]:
                continue
            kept.append((u, v))
        else:
            if contains_cycle(from_edges(n, kept + [(u, v)]), k):
                continue
            kept.append((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return from_edges(n, kept)


def furedi_graph_loop(q, t):
    """Scaling classes by orbit enumeration, adjacency by per-pair dot products."""
    f = field_from_order(q)
    sub = subgroup(f, element_of_order(f, t), t)
    sub_set = set(sub)

    def dot(u, v):
        return f.add(f.mul(u[0], v[0]), f.mul(u[1], v[1]))

    class_of = {}
    classes = []
    for ia in range(q):
        for ib in range(q):
            if (ia, ib) == (0, 0) or (ia, ib) in class_of:
                continue
            a, b = f.element(ia), f.element(ib)
            cid = len(classes)
            classes.append((a, b))
            for c in sub:
                class_of[(f.index(f.mul(c, a)), f.index(f.mul(c, b)))] = cid
    n = len(classes)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if dot(classes[u], classes[v]) in sub_set]
    loops = tuple(u for u in range(n) if dot(classes[u], classes[u]) in sub_set)
    labels = tuple(f"{f.index(a)}:{f.index(b)}" for a, b in classes)
    return from_edges(n, edges, labels=labels), loops, tuple(classes), sub


def packed_rows_join(g):
    """The bitset rows as an (n, ceil(n/8)) uint8 array, one to_bytes per row."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in g.adj), dtype=np.uint8)
    return packed.reshape(g.n, width)


def clique_union_edges(n, t):
    """Disjoint union of ceil(n/t) cliques from its edge list."""
    edges = []
    for start in range(0, n, t):
        part = range(start, min(start + t, n))
        edges.extend((u, v) for u in part for v in part if u < v)
    return from_edges(n, edges)


def add_digit_loop(p, alpha, a, b):
    """Index of a + b in GF(p^alpha) from a base-p digit table, one digit at a time."""
    idx = np.arange(p**alpha)
    digits = np.stack([idx // p**k % p for k in range(alpha)])
    out = (digits[0][a] + digits[0][b]) % p
    for k in range(1, alpha):
        out += (digits[k][a] + digits[k][b]) % p * p**k
    return out


def polarity_graph_loop(q):
    """Projective points (first nonzero coordinate one), adjacency by per-pair dot products."""
    f = field_from_order(q)
    pts = [(f.one, f.element(y), f.element(z)) for y in range(q) for z in range(q)]
    pts += [(f.zero, f.one, f.element(z)) for z in range(q)] + [(f.zero, f.zero, f.one)]
    n = len(pts)

    def dot(u, v):
        return f.add(f.add(f.mul(u[0], v[0]), f.mul(u[1], v[1])), f.mul(u[2], v[2]))

    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if f.is_zero(dot(pts[u], pts[v]))]
    absolute = tuple(u for u in range(n) if f.is_zero(dot(pts[u], pts[u])))
    labels = tuple(":".join(str(f.index(c)) for c in p) for p in pts)
    return from_edges(n, edges, labels=labels), absolute


def contains_cycle_dfs(g, k):
    """Path DFS from each cycle's minimum vertex, pruned by BFS distance to it."""
    n, adj = g.n, g.adj
    for s in range(n):
        allowed = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)
        dist = [k + 1] * n
        dist[s] = 0
        frontier = seen = 1 << s
        d = 0
        while frontier and d <= k:
            d += 1
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u]
            nxt &= allowed & ~seen
            for u in _bits(nxt):
                dist[u] = d
            seen |= nxt
            frontier = nxt

        def walk(u, used, length):
            if length == k - 1:
                return bool(adj[u] >> s & 1)
            return any(walk(w, used | (1 << w), length + 1)
                       for w in _bits(adj[u] & allowed & ~used) if dist[w] <= k - length - 1)

        if any(walk(v, (1 << s) | (1 << v), 1) for v in _bits(adj[s] & allowed)):
            return True
    return False


def k2s_pair_loop(g, s):
    """Some pair u < v with at least s common neighbours."""
    return any((g.adj[u] & g.adj[v]).bit_count() >= s for u in range(g.n) for v in range(u + 1, g.n))


def adjacency_loop(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def layers_3_colorable_loop(n, adj, memo):
    """Per-graph BFS over bitsets; each layer of > 3 vertices coloured once per induced shape."""
    for root in range(n):
        seen = 1 << root
        layer = 1 << root
        for _ in range(2):
            nxt = 0
            m = layer
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= adj[v]
            nxt &= ~seen
            if not nxt:
                break
            seen |= nxt
            layer = nxt
            if bin(layer).count("1") > 3:
                verts = [v for v in range(n) if layer >> v & 1]
                key = tuple(adj[v] & layer for v in verts)
                ok = memo.get(key)
                if ok is None:
                    ok = chromatic_number_exact(induced_subgraph(Graph(n, tuple(adj)), verts)) <= 3
                    memo[key] = ok
                if not ok:
                    return False
    return True


def pair_bit(u, v):
    """The bit of pair {u, v} in an edge mask: pairs in colex order, (u, v) with u < v is v(v-1)/2 + u."""
    u, v = min(u, v), max(u, v)
    return v * (v - 1) // 2 + u


def mask_graph(n, mask):
    return from_edges(n, [(u, v) for v in range(n) for u in range(v) if mask >> pair_bit(u, v) & 1])


def cycle_edge_masks(n: int, length: int):
    masks = set()
    for sub in itertools.combinations(range(n), length):
        for perm in itertools.permutations(sub[1:]):
            cyc = (sub[0],) + perm
            masks.add(sum(1 << pair_bit(cyc[i], cyc[(i + 1) % length]) for i in range(length)))
    return sorted(masks)


def c5_free_masks(n: int) -> np.ndarray:
    """Edge masks (bit pair_bit(u, v) for edge uv) of the 5-cycle-free graphs on n vertices."""
    all_g = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
    has = np.zeros(len(all_g), dtype=bool)
    for m in cycle_edge_masks(n, 5):
        mm = np.uint32(m)
        has |= (all_g & mm) == mm
    return all_g[~has]


_EPS = np.finfo(np.float64).eps


def tridiagonalize_columns(a):
    """Householder reduction A = Q T Q^T; returns (diag, subdiag, Q)."""
    n = a.shape[0]
    a = a.copy()
    q = np.eye(n)
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        alpha = float(np.linalg.norm(x))
        if alpha == 0.0:
            continue
        if x[0] > 0:
            alpha = -alpha
        v = x
        v[0] -= alpha
        vnorm2 = float(v @ v)
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        sub = a[k + 1 :, k + 1 :]
        p = beta * (sub @ v)
        w = p - (beta * float(p @ v) / 2.0) * v
        sub -= np.outer(v, w) + np.outer(w, v)
        a[k + 1, k] = a[k, k + 1] = alpha
        a[k + 2 :, k] = 0.0
        a[k, k + 2 :] = 0.0
        qc = q[:, k + 1 :]
        qc -= np.outer(qc @ v, beta * v)
    d = np.diag(a).copy()
    e = np.zeros(n)
    if n > 1:
        e[: n - 1] = np.diag(a, -1)
    return d, e, q


def ql_implicit_columns(d, e, z, iter_cap):
    """Implicit-shift QL on numpy scalars; each rotation updates two columns of z."""
    n = len(d)
    total = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            total += 1
            if total > iter_cap:
                raise ConvergenceFailure(f"QL iteration cap {iter_cap} exceeded")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def eigh_dense_columns(a):
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy(), np.ones((1, 1))
    d, e, z = tridiagonalize_columns(a)
    ql_implicit_columns(d, e, z, iter_cap=30 * n)
    order = np.argsort(-d, kind="stable")
    return d[order], z[:, order]


def sym_packed_roundtrip(a):
    """sym_from_dense(a).dense() through a packed upper triangle."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    iu = np.triu_indices(n)
    entries = ((a + a.T) / 2.0)[iu]
    out = np.zeros((n, n))
    out[iu] = entries
    out = out + out.T
    out[np.diag_indices(n)] /= 2.0
    return out


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _prime_powers(q_max):
    return [q for q in range(2, q_max + 1) if len(prime_factors(q)) == 1]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, n_min=1, n_max=8):
    n = draw(st.integers(n_min, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def graphs_with_reps(draw):
    g = draw(graphs())
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return g, random_rep(g, seed)  # valid up to rounding
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 6))
    v = rng.standard_normal((d, g.n)) * draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
    return g, OrthoRep(d, v, g)


@st.composite
def search_graphs(draw, n_max=16):
    """Graphs of varied density, so both verdicts of each search occur."""
    n = draw(st.integers(0, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8]))
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


@st.composite
def sym_matrices(draw, n_max=24):
    """Symmetric matrices of seven kinds; adjacency, all-ones and integer
    diagonals have repeated eigenvalues, diagonals need no QL sweep, and
    block diagonals split the tridiagonal at each block boundary."""
    n = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(["gaussian", "integer", "adjacency", "ones", "diagonal", "tridiagonal", "block"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        a = rng.standard_normal((n, n)) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
        return (a + a.T) / 2.0
    if kind == "integer":
        a = rng.integers(-4, 5, (n, n)).astype(float)
        return a + a.T
    if kind == "adjacency":
        a = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 0.8])), 1).astype(float)
        return a + a.T
    if kind == "ones":
        return np.ones((n, n))
    if kind == "diagonal":
        return np.diag(rng.integers(-2, 3, n).astype(float))
    if kind == "block":
        a = rng.standard_normal((n, n))
        block = np.sort(rng.integers(0, 3, n))
        return np.where(block[:, None] == block, a + a.T, 0.0)
    off = rng.standard_normal(n - 1)
    return np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)


@st.composite
def signed_zero_matrices(draw, n_max=12):
    """Symmetric, or one ulp off symmetric below the diagonal, with many signed zeros."""
    n = draw(st.integers(1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([0.0, -0.0, 1.5, -1.5, 5e-324])
    a = np.where(rng.random((n, n)) < 0.7, rng.choice(pool, (n, n)), rng.standard_normal((n, n)))
    upper = np.triu(np.ones((n, n), dtype=bool))
    a = np.where(upper, a, a.T)  # np.where keeps the sign of zero, unlike adding triangles
    if draw(st.booleans()):
        a = np.where(upper, a, np.nextafter(a, np.inf))
    return a


def _outcome(fn):
    try:
        fn()
    except PreconditionViolated as exc:
        return str(exc)
    return "ok"


# ---------------------------------------------------------------------------
# exact agreement
# ---------------------------------------------------------------------------


@SETTINGS
@given(graphs_with_reps())
def test_validate_rep_matches_loop(case):
    g, rep = case
    assert validate_rep(rep, g) == validate_rep_loop(rep, g)


@SETTINGS
@given(graphs(), st.integers(0, 2**32 - 1), st.sampled_from(["ok", "edge", "diag", "non-edge", "both"]))
def test_theta_result_checks_match_loop(g, seed, fault):
    rng = np.random.default_rng(seed)
    n = g.n
    edges = g.edges()
    x = np.eye(n) / n
    b = np.ones((n, n))
    for u, v in edges:
        x[u, v] = x[v, u] = float(rng.choice([0.0, 1e-9, 1e-7]) if fault == "edge" else 0.0)
        b[u, v] = b[v, u] = float(rng.uniform(-1.0, 1.0))
    if fault in ("diag", "both"):
        w = int(rng.integers(n))
        b[w, w] = 1.0 + 1e-12
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    if fault in ("non-edge", "both") and non_edges:
        u, v = non_edges[int(rng.integers(len(non_edges)))]
        b[u, v] = b[v, u] = 0.5
    lower = float(x.sum())
    upper = float(eigh_dense(b)[0][0])
    fields = dict(lower=lower, upper=upper, gap=upper - lower,
                  primal_x=sym_from_dense(x), dual_b=sym_from_dense(b), graph=g)
    expected = _outcome(lambda: theta_result_checks_loop(**fields))
    assert _outcome(lambda: ThetaResult(iterations=0, **fields)) == expected


@SETTINGS
@given(graphs_with_reps())
def test_gram_single_product_matches_sum(case):
    _, rep = case
    assert same_bits(gram(rep).dense(), gram_sum(rep).dense())


@SETTINGS
@given(signed_zero_matrices())
def test_sym_from_dense_matches_packed_roundtrip(a):
    m = sym_from_dense(a)
    assert same_bits(m.dense(), sym_packed_roundtrip(a))
    with pytest.raises(ValueError):
        m.dense()[0, 0] = 1.0


@SETTINGS
@given(graphs_with_reps())
def test_schnirelmann_matches_two_decompositions(case):
    _, rep = case
    m = gram(rep)
    out = schnirelmann_check(m)
    tr = float(np.trace(m.dense()))
    rank = numeric_rank_twice(m)
    rhs = rank * trace_power_twice(m, 2)
    assert (out.lhs, out.rhs, out.rank, out.slack) == (tr * tr, rhs, rank, rhs - tr * tr)


@st.composite
def cycle_free_cases(draw):
    """Bipartite graphs for odd parity t = 1, forests for even parity t = 2."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        side = rng.integers(2, size=n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] != side[v] and rng.random() < 0.5]
        parity, t = "odd", 1
    else:
        edges = [(int(rng.integers(v)), v) for v in range(1, n) if rng.random() < 0.8]
        parity, t = "even", 2
    g = from_edges(n, edges)
    return g, random_rep(g, int(rng.integers(2**31))), parity, t


@SETTINGS
@given(cycle_free_cases())
def test_trace_power_matches_two_decompositions(case):
    g, rep, parity, t = case
    out = trace_power_certificate(rep, g, t, parity)
    m = gram(rep)
    assert out.trace_value == trace_power_twice(m, out.power)
    assert out.lam_top == float(eigen_sym(m).eigenvalues[0])


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_cycle_free_graph_matches_rebuild(k, seed):
    n = 4 + 2 * seed
    expected = cycle_free_graph_rebuild(n, k, np.random.default_rng(seed))
    assert _cycle_free_graph(n, k, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize("k", [5, 6])
def test_cycle_free_graph_refuses_other_k_before_drawing(k):
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionViolated):
        _cycle_free_graph(8, k, rng)
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("seed", range(40))
def test_c4_free_graph_rule_matches_whole_graph_search(seed):
    # the trace-power draws: n in 4..16, pairs refused by the path u-a-b-v rule
    # against pairs refused by a 4-cycle search of the whole graph
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    assert _cycle_free_graph(n, 4, np.random.default_rng(seed)) == cycle_free_graph_rebuild(n, 4, np.random.default_rng(seed))


# plus furedi(q, q - 1) on the extension fields with odd p above n = 120, and
# furedi(17, 1) (n = 288), built in two blocks of the default BLOCK_ENTRIES
# with 4 of its 16 loops in the second
FUREDI_CASES = [(q, t) for q in _prime_powers(120) for t in range(1, q)
                if (q - 1) % t == 0 and (q * q - 1) // t <= 120] + [(121, 120), (125, 124), (169, 168), (17, 1)]


@pytest.mark.parametrize("q, t", FUREDI_CASES)
def test_furedi_graph_matches_loop(q, t):
    fg = furedi_graph(q, t)
    assert (fg.graph, fg.loops_removed, fg.classes, fg.scaling_subgroup) == furedi_graph_loop(q, t)


# plus polarity(17) (n = 307): two default blocks, 6 of its 18 loops in the second
@pytest.mark.parametrize("q", [*_prime_powers(11), 17])
def test_polarity_graph_matches_loop(q):
    assert polarity_graph_with_loops(q) == polarity_graph_loop(q)


def test_constructions_match_loop_one_row_per_block(monkeypatch):
    monkeypatch.setattr(constructions_module, "BLOCK_ENTRIES", 1)
    for q, t in ((8, 1), (9, 2), (25, 6)):
        fg = furedi_graph(q, t)
        assert (fg.graph, fg.loops_removed, fg.classes, fg.scaling_subgroup) == furedi_graph_loop(q, t)
    for q in (4, 9):
        assert polarity_graph_with_loops(q) == polarity_graph_loop(q)


# the construct-search corpus: every furedi(q, t) with n <= 200, polarity(q) for q <= 19
CORPUS = ([("furedi", q, t) for q in _prime_powers(200) for t in range(1, q) if (q - 1) % t == 0 and (q * q - 1) // t <= 200]
          + [("polarity", q, None) for q in _prime_powers(19)])


def _corpus_graph(family, q, t):
    return furedi_graph(q, t).graph if family == "furedi" else polarity_graph(q)


@pytest.mark.parametrize("block_entries", [constructions_module.BLOCK_ENTRIES, 1], ids=["default-blocks", "one-row-blocks"])
def test_carried_rows_match_repack(monkeypatch, block_entries):
    """A construction's graph has Graph.packed set at build time, equal to a repack of its ints."""
    monkeypatch.setattr(constructions_module, "BLOCK_ENTRIES", block_entries)
    assert len(CORPUS) == 136
    for case in CORPUS:
        g = _corpus_graph(*case)
        assert "packed" in vars(g), case
        assert same_bits(g.packed, packed_rows_join(g)), case


def _derived_graphs():
    g = polarity_graph(5)
    return (complement(g), induced_subgraph(g, range(0, g.n, 2)), from_edges(g.n, g.edges(), g.labels),
            clique_union(10, 3))


def test_carried_rows_are_read_only():
    for g in (furedi_graph(5, 2).graph, polarity_graph(4), *_derived_graphs()):
        assert not g.packed.flags.writeable
        with pytest.raises(ValueError):
            g.packed[0, 0] = 1


def test_derived_graphs_carry_no_rows():
    """Graphs built from ints pack on first read of Graph.packed, and only then."""
    for h in _derived_graphs():
        assert "packed" not in vars(h)
        first = h.packed
        assert same_bits(first, packed_rows_join(h))
        assert h.packed is first


def test_graph_equality_hash_and_repr_ignore_carried_rows():
    for g in (furedi_graph(7, 3).graph, polarity_graph(4)):
        plain = from_edges(g.n, g.edges(), g.labels)
        assert "packed" in vars(g) and "packed" not in vars(plain)
        assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
        assert "packed" not in repr(g)
        assert same_bits(plain.packed, g.packed)  # now cached on plain too
        assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)


def test_furedi_graph_equality_ignores_computed_fields():
    fg, again = furedi_graph(9, 4), furedi_graph(9, 4)
    assert fg == again and hash(fg) == hash(again)
    assert fg.classes and fg.scaling_subgroup  # computed on fg only
    assert fg == again and hash(fg) == hash(again)
    assert fg != furedi_graph(9, 2)
    with pytest.raises(AttributeError):
        fg.q = 3


@pytest.mark.parametrize("n, t", [(1, 1), (1, 5), (7, 1), (10, 3), (12, 4), (13, 5), (64, 8), (65, 64), (200, 7)])
def test_clique_union_matches_edge_list(n, t):
    assert clique_union(n, t) == clique_union_edges(n, t)


@pytest.mark.parametrize("q", _prime_powers(64))
def test_table_arithmetic_matches_field_spec(q):
    f = field_from_order(q)
    tab = field_tables(f)
    a, b = np.divmod(np.arange(q * q), q)
    expected_mul = [f.index(f.mul(f.element(x), f.element(y))) for x, y in zip(a.tolist(), b.tolist())]
    expected_add = [f.index(f.add(f.element(x), f.element(y))) for x, y in zip(a.tolist(), b.tolist())]
    assert tab.mul(a, b).tolist() == expected_mul
    assert tab.add(a, b).tolist() == expected_add


@pytest.mark.parametrize("q", _prime_powers(32))
def test_table_neg_and_sum_test_match_field_spec(q):
    f = field_from_order(q)
    tab = field_tables(f)
    x = np.arange(q)
    assert tab.neg(x).tolist() == [f.index(f.neg(f.element(i))) for i in range(q)]
    a, b = np.divmod(np.arange(q * q), q)
    units = [f.index(h) for h in subgroup(f, element_of_order(f, q - 1), q - 1)]
    for members in (x % 3 == 0, np.isin(x, units)):
        test = tab.sum_test(members)
        expected = members[tab.add(a, b)]
        assert np.array_equal(test(tab.code[a], tab.code[b]), expected)
        # out= gathers into a preallocated boolean view, as furedi_graph's block does, and returns it
        block = np.zeros((2, q * q), dtype=bool)
        view = block[1]
        assert test(tab.code[a], tab.code[b], out=view) is view
        assert np.array_equal(block[1], expected) and not block[0].any()


@pytest.mark.parametrize("q", [q for q in _prime_powers(729) if q % 2 and q not in prime_factors(q)])
def test_table_addition_matches_digit_loop(q):
    f = field_from_order(q)
    tab = field_tables(f)
    assert len(tab.fold) == (2 * f.p - 1) ** f.alpha
    a, b = np.divmod(np.arange(q * q), q)
    assert np.array_equal(tab.add(a, b), add_digit_loop(f.p, f.alpha, a, b))


@pytest.mark.parametrize("q", _prime_powers(300))
def test_table_generator_matches_element_of_order(q):
    """Every ((q-1)/t)-th entry of the antilog period is the order-t subgroup, as furedi_graph reads it."""
    f = field_from_order(q)
    tab = field_tables(f)
    for t in range(1, q):
        if (q - 1) % t == 0:
            expected = {f.index(x) for x in subgroup(f, element_of_order(f, t), t)}
            assert set(tab.antilog[: q - 1 : (q - 1) // t].tolist()) == expected


@SETTINGS
@given(search_graphs(n_max=12), st.integers(0, 2), st.sampled_from([3, 5, 6, 7]))
@example(empty_graph(0), 3, 3)
@example(from_edges(7, [(v, (v + 1) % 7) for v in range(7)]), 2, 7)
def test_cycle_search_matches_dfs(g, isolated, k):
    # the isolated vertices come first, so they are the first roots searched
    g = from_edges(g.n + isolated, [(u + isolated, v + isolated) for u, v in g.edges()])
    assert contains_cycle(g, k) == contains_cycle_dfs(g, k)


@SETTINGS
@given(search_graphs(), st.integers(2, 5))
def test_codegree_search_matches_dfs_and_pair_loop(g, s):
    assert contains_cycle(g, 4) == contains_cycle_dfs(g, 4)
    assert contains_complete_bipartite(g, 2, s) == k2s_pair_loop(g, s)


@SETTINGS
@given(search_graphs())
@example(empty_graph(0))
@example(empty_graph(1))
def test_adjacency_rows_and_sym_match_edge_loop(g):
    rows, sym = adjacency_rows(g), adjacency_sym(g).dense()
    assert rows.dtype == np.uint8 and sym.dtype == np.float64
    assert np.array_equal(rows, adjacency_loop(g)) and np.array_equal(sym, adjacency_loop(g))


TILE_N = 13  # with 3 rows per tile: tiles 0-2, 3-5, 6-8, 9-11 and 12


@pytest.mark.parametrize("pair", [(0, 2), (1, 10), (11, 12)], ids=["one-tile", "two-tiles", "last-tile"])
@pytest.mark.parametrize("s", [3, 4, 5])
def test_codegree_tiles_find_biclique(monkeypatch, pair, s):
    monkeypatch.setattr(graph_module, "TILE_ROWS", 3)
    # the pair's s common neighbours share only the pair, so only the pair reaches s
    others = [w for w in range(TILE_N) if w not in pair][-s:]
    g = from_edges(TILE_N, [(u, w) for u in pair for w in others])
    assert contains_complete_bipartite(g, 2, s) and not contains_complete_bipartite(g, 2, s + 1)
    assert contains_cycle(g, 4)


def test_codegree_tiles_free_graphs(monkeypatch):
    monkeypatch.setattr(graph_module, "TILE_ROWS", 3)
    star = from_edges(TILE_N, [(6, w) for w in range(TILE_N) if w != 6])  # degree 12, codegrees 1
    for g in (star, polarity_graph(3)):
        assert g.n == TILE_N
        assert not contains_cycle(g, 4) and not contains_complete_bipartite(g, 2, 2)
    fg = furedi_graph(5, 2).graph  # n = 12: K_{2,3}-free, but with 4-cycles
    assert not contains_complete_bipartite(fg, 2, 3)
    assert contains_complete_bipartite(fg, 2, 2) and contains_cycle(fg, 4)


def test_codegree_default_tiles_polarity_is_c4_free():
    g = polarity_graph(31)  # n = 993: four tiles of TILE_ROWS = 256 rows
    assert g.n == 993 and -(-g.n // graph_module.TILE_ROWS) == 4
    assert not contains_cycle(g, 4)


def test_codegree_default_tiles_find_pair_in_first_and_last_tile():
    # only vertices 0 and 992, in the first and last tiles, share three neighbours
    n = 993
    edges = [(u, w) for u in (0, n - 1) for w in (400, 401, 402)]
    edges += [(v, v + 1) for v in range(3, 399, 2)]  # a matching, so other rows are not empty
    g = from_edges(n, edges)
    assert contains_complete_bipartite(g, 2, 3) and not contains_complete_bipartite(g, 2, 4)
    assert contains_cycle(g, 4)


def test_layer_sweep_matches_per_graph_bfs(monkeypatch):
    # every labelled graph on <= 6 vertices, 5-cycles included, so both verdicts occur; the graphs on
    # n vertices are the masks below 2^C(n,2), and blocks of 7 leave a last block of one graph
    graphs = np.arange(1 << 15, dtype=np.uint32)
    memo = {}
    expected = [layers_3_colorable_loop(6, list(mask_graph(6, m).adj), memo) for m in graphs.tolist()]
    monkeypatch.setattr(experiments_module, "LAYER_BLOCK", 7)
    assert len(graphs) % 7 == 1
    assert _layers_3_colorable(graphs).tolist() == expected
    violations = {n: expected[: 1 << (n * (n - 1) // 2)].count(False) for n in range(1, 7)}
    assert violations == {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 172}


def three_colorable_bits(n: int) -> np.ndarray:
    """The first 2^C(n,2) bits of the table: those of the graphs on n vertices."""
    return np.unpackbits(_three_colorable_table(), bitorder="little")[: 1 << (n * (n - 1) // 2)].astype(bool)


@pytest.mark.parametrize("n", range(1, 6))
def test_three_colorable_table_on_every_edge_mask(n):
    bits = three_colorable_bits(n)
    assert bits.tolist() == [chromatic_number_exact(mask_graph(n, m)) <= 3 for m in range(len(bits))]


@pytest.mark.parametrize("n", [6, 7])
def test_three_colorable_table_on_a_sample(n):
    bits = three_colorable_bits(n)
    assert _three_colorable_table().nbytes == (1 << 21) // 8  # bit-packed: 256 KB for the 7-vertex masks
    sample = np.random.default_rng(5 + n).integers(0, len(bits), 400).tolist()
    verdicts = [chromatic_number_exact(mask_graph(n, m)) <= 3 for m in sample]
    assert bits[sample].tolist() == verdicts
    assert 0 < sum(verdicts) < len(sample)


def test_layer_sweep_sees_a_bad_second_layer():
    # root 0, A_1 = {1, 2}, A_2 = K4 on {3, 4, 5, 6}; vertex 1 sees 3, 4 and vertex 2 sees 5, 6,
    # so every A_1 layer is 3-colourable and only A_2 of root 0 is not (n <= 6 has no such graph)
    g = from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    mask = sum(1 << pair_bit(u, v) for u, v in g.edges())
    assert all(chromatic_number_exact(induced_subgraph(g, g.neighbors(v))) <= 3 for v in range(7))
    assert not layers_3_colorable_loop(7, list(g.adj), {})
    assert _layers_3_colorable(np.array([mask], dtype=np.uint32)).tolist() == [False]


C5_FREE_COUNTS = [1, 2, 8, 64, 806, 13922, 316453]


def test_grown_c5_free_masks_match_full_sweep():
    # the graphs on n vertices are the ascending masks' prefix below 2^C(n,2)
    free = _grow_c5_free_masks()
    assert free.dtype == np.uint32 and np.all(free[:-1] < free[1:])
    counts = []
    for n in range(1, 8):
        prefix = free[: np.searchsorted(free, 1 << (n * (n - 1) // 2))]
        assert np.array_equal(prefix, c5_free_masks(n))
        counts.append(len(prefix))
    assert counts == C5_FREE_COUNTS and sum(counts) == 331256


def test_grown_c5_free_masks_match_cycle_search():
    # seeded 7-vertex masks: grown graphs, grown graphs with one more edge, and uniform masks
    free = _grow_c5_free_masks()
    rng = np.random.default_rng(13)
    members = rng.choice(free, 150, replace=False)
    plus_one = rng.choice(free, 150, replace=False) | (np.uint32(1) << rng.integers(0, 21, 150, dtype=np.uint32))
    uniform = rng.integers(0, 1 << 21, 150, dtype=np.uint32)
    sample = np.concatenate([members, plus_one, uniform])
    grown = np.isin(sample, free)
    assert 150 < np.count_nonzero(grown) < 450
    for m, inside in zip(sample.tolist(), grown.tolist()):
        assert inside == (not contains_cycle(mask_graph(7, m), 5))


def _check_eigh_bits(a):
    vals, vecs = eigh_dense(a)
    ref_vals, ref_vecs = eigh_dense_columns(a)
    assert same_bits(vals, ref_vals)
    assert same_bits(vecs, ref_vecs)
    # the same memory layout, so BLAS products of the vectors (psd_project_dense) take the same path
    assert vecs.strides == ref_vecs.strides and vecs.flags.f_contiguous
    only, none = eigh_dense(a, vectors=False)
    assert none is None and same_bits(only, ref_vals)


@SETTINGS
@given(sym_matrices())
@example(np.array([[0.0]]))
@example(np.array([[-0.0]]))
@example(np.array([[-3.0]]))
def test_eigh_matches_column_rotation_solver(a):
    _check_eigh_bits(a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sym_matrices())
def test_eigh_matches_with_a_flush_after_every_sweep(a):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_module, "_FLUSH_PER_ROW", 1)
        _check_eigh_bits(a)


def test_eigh_matches_across_a_flush_at_n_300():
    flushes = []
    apply_levels = linalg_module._apply_levels

    def counted(zt, rot_i, *rest):
        flushes.append(len(rot_i))
        apply_levels(zt, rot_i, *rest)

    rng = np.random.default_rng(300)
    a = rng.standard_normal((300, 300))
    a = a + a.T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_module, "_apply_levels", counted)
        vals, vecs = eigh_dense(a)
    assert len(flushes) >= 2 and flushes[0] >= 64 * 300
    ref_vals, ref_vecs = eigh_dense_columns(a)
    assert same_bits(vals, ref_vals) and same_bits(vecs, ref_vecs)


def _recorded_schedule(a, flush_per_row):
    """(row, level) of every QL rotation in record order, across all flushes, and the flush count."""
    record, flushes = [], []
    apply_levels = linalg_module._apply_levels

    def spy(zt, rot_i, rot_c, rot_s, rot_level):
        record.extend(zip(rot_i, rot_level))  # before _apply_levels empties the lists
        flushes.append(len(rot_i))
        apply_levels(zt, rot_i, rot_c, rot_s, rot_level)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_module, "_apply_levels", spy)
        mp.setattr(linalg_module, "_FLUSH_PER_ROW", flush_per_row)
        eigh_dense(a)
    return record, len(flushes)


@pytest.mark.parametrize("kind, flush_per_row", [("dense", 64), ("split", 64), ("dense", 1), ("split", 1)])
def test_ql_levels_order_shared_rows_and_keep_a_level_disjoint(kind, flush_per_row):
    rng = np.random.default_rng(31)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    if kind == "split":  # three blocks: the tridiagonal splits, and later sweeps start on untouched rows
        block = np.repeat([0, 1, 2], [13, 14, 13])
        a = np.where(block[:, None] == block, a, 0.0)
    record, flushes = _recorded_schedule(a, flush_per_row)
    assert len(record) > 40 * 10 and (flushes > 10 if flush_per_row == 1 else flushes == 1)
    latest = {}  # row -> level of the last rotation on it
    level_rows = {}  # level -> rows its rotations act on
    for i, level in record:
        for row in (i, i + 1):
            assert latest.get(row, -math.inf) < level
            latest[row] = level
        rows = level_rows.setdefault(level, set())
        assert not rows & {i, i + 1}
        rows |= {i, i + 1}
    if kind == "split":  # every block was rotated, and no rotation crosses a block boundary
        assert {12, 26}.isdisjoint(i for i, _ in record) and {0, 13, 27} <= {i for i, _ in record}
