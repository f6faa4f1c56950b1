"""Named verification experiments producing machine-readable reports.

Each runner drives library operations on fixed instance families and
returns one report: a list of named checks with expected and observed
values, an overall pass flag, wall time, and the seed that generated any
randomized instances.  Runners are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

# Runners reach each layer through its lazily registered module, so an
# experiment loads only the layers it calls.
from . import constructions, graph, linalg, ortho, theta
from .errors import PreconditionViolated

SQRT5 = math.sqrt(5.0)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


@dataclass(frozen=True)
class ExperimentCheck:
    """One verified statement: operation name, claim, target vs measurement."""

    name: str
    claim: str
    expected: str
    observed: str
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    parameters: dict
    checks: tuple[ExperimentCheck, ...]
    runtime_ms: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": {k: _fmt(v) for k, v in self.parameters.items()},
            "checks": [c.to_json() for c in self.checks],
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
            "pass": self.passed,
        }


def _chk(name: str, claim: str, expected, observed, tolerance: float, passed: bool) -> ExperimentCheck:
    return ExperimentCheck(name, claim, _fmt(expected), _fmt(observed), float(tolerance), bool(passed))


def _random_graph(n: int, p: float, rng) -> graph.Graph:
    return graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _cycle_free_graph(n: int, k: int, rng) -> graph.Graph:
    """Greedy random graph with no cycle of length exactly k.

    The pairs are tried in a shuffled order and each is kept unless it closes
    a k-cycle.  The graph before it has none, so for k = 3 the pair uv closes
    one iff u and v have a common neighbour, and for k = 4 iff some neighbour
    of u is adjacent to some neighbour of v (a path u-a-b-v).  Other k add the
    pair and search the whole graph.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if k == 3 and adj[u] & adj[v]:
            continue
        if k == 4 and any(adj[a] & adj[v] for a in range(n) if adj[u] >> a & 1):
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if k > 4 and graph.contains_cycle(graph.Graph(n, tuple(adj)), k):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
    g = graph.Graph(n, tuple(adj))
    if graph.contains_cycle(g, k):  # the generator's promise, re-verified
        raise PreconditionViolated("cycle-free generator produced a cycle")
    return g


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_furedi_spectral(seed: int):
    checks = []
    for q, t in ((5, 2), (13, 4)):
        fg = constructions.furedi_graph(q, t)
        g = fg.graph
        tag = f"furedi({q},{t})"
        checks.append(_chk(
            "furedi_graph", f"{tag}: n = (q^2-1)/t",
            (q * q - 1) // t, g.n, 0.0, g.n == (q * q - 1) // t))
        deg = [g.degree(v) + (1 if v in fg.loops_removed else 0) for v in range(g.n)]
        checks.append(_chk(
            "furedi_graph", f"{tag}: loop-included matrix is q-regular",
            q, f"degrees in [{min(deg)},{max(deg)}]", 0.0,
            min(deg) == q and max(deg) == q))
        rep = constructions.furedi_square_identity(fg)
        checks.append(_chk(
            "furedi_square_identity", f"{tag}: A^2 = (q-t)I + tJ - tQ over the integers",
            0, rep.max_abs_residual, 0.0, rep.holds and rep.max_abs_residual == 0))
        rows = set(rep.no_common_row_sums)
        checks.append(_chk(
            "furedi_square_identity", f"{tag}: Q has (q-1-t)/t ones per row",
            rep.expected_row_sum, sorted(rows), 0.0, rows == {rep.expected_row_sum}))
        lam = linalg.eigvals_sym(linalg.adjacency_sym(g)).eigenvalues
        nontrivial = max(abs(lam[1]), abs(lam[-1]))
        bound = math.sqrt(2 * q - 2 * t - 1) + 1.0
        checks.append(_chk(
            "eigen_sym", f"{tag}: max_(i>=2) |lambda_i| <= sqrt(2q-2t-1) + 1 after loop removal",
            f"<= {bound:.9g}", nontrivial, 1e-9, nontrivial <= bound + 1e-9))
        if (q, t) == (5, 2):
            checks.append(_chk(
                "contains_complete_bipartite", f"{tag}: no K_(2,3) subgraph",
                False, graph.contains_complete_bipartite(g, 2, 3), 0.0,
                not graph.contains_complete_bipartite(g, 2, 3)))
            low = theta.theta_spectral_lower_of_complement(g)
            checks.append(_chk(
                "theta_spectral_lower_of_complement",
                f"{tag}: 1 - lambda_1/lambda_n >= 2.236 on the loop-removed matrix",
                ">= 2.236", low, 1e-9, low >= 2.236 - 1e-9))
            a = linalg.adjacency_dense(g)
            loops = list(fg.loops_removed)
            a[loops, loops] = 1.0
            vals = linalg.eigvals_sym(linalg.sym_from_dense(a)).eigenvalues
            loopful = 1.0 - vals[0] / vals[-1]
            checks.append(_chk(
                "theta_spectral_lower_of_complement",
                f"{tag}: loop-included matrix gives exactly 1 + sqrt(5)",
                1.0 + SQRT5, loopful, 1e-9, abs(loopful - 1.0 - SQRT5) <= 1e-9))
    return {"instances": "furedi(5,2), furedi(13,4)"}, checks


def _run_polarity_c4(seed: int):
    checks = []
    for q in (2, 3, 4):
        g = constructions.polarity_graph(q)
        tag = f"polarity({q})"
        checks.append(_chk(
            "polarity_graph", f"{tag}: n = q^2 + q + 1",
            q * q + q + 1, g.n, 0.0, g.n == q * q + q + 1))
        checks.append(_chk(
            "contains_cycle", f"{tag}: no 4-cycle",
            False, graph.contains_cycle(g, 4), 0.0, not graph.contains_cycle(g, 4)))
        degs = g.degrees()
        low_count = sum(1 for d in degs if d == q)
        ok = set(degs) <= {q, q + 1} and low_count == q + 1
        checks.append(_chk(
            "degrees", f"{tag}: degrees in (q, q+1) with exactly q+1 vertices of degree q",
            q + 1, low_count, 0.0, ok))
        lam = linalg.eigvals_sym(linalg.adjacency_sym(g)).eigenvalues
        nontrivial = max(abs(lam[1]), abs(lam[-1]))
        checks.append(_chk(
            "eigen_sym", f"{tag}: nontrivial |lambda| <= sqrt(q) + 1",
            f"<= {math.sqrt(q) + 1.0:.9g}", nontrivial, 1e-9,
            nontrivial <= math.sqrt(q) + 1.0 + 1e-9))
    return {"q": "2, 3, 4"}, checks


def _run_theta_sandwich(seed: int):
    checks = []
    dev_complete = 0.0
    dev_empty = 0.0
    worst_gap = 0.0
    for n in range(1, 11):
        r = theta.theta_sdp(graph.complete_graph(n), tol=1e-6)
        dev_complete = max(dev_complete, abs(r.lower - 1.0), abs(r.upper - 1.0))
        worst_gap = max(worst_gap, r.gap)
        r = theta.theta_sdp(graph.empty_graph(n), tol=1e-6)
        dev_empty = max(dev_empty, abs(r.lower - n), abs(r.upper - n))
        worst_gap = max(worst_gap, r.gap)
    checks.append(_chk(
        "theta_sdp", "theta(K_n) = 1 for n <= 10",
        "deviation <= 1e-08", dev_complete, 1e-8, dev_complete <= 1e-8))
    checks.append(_chk(
        "theta_sdp", "theta(empty_n) = n for n <= 10",
        "deviation <= 1e-08", dev_empty, 1e-8, dev_empty <= 1e-8))
    c5 = theta.theta_sdp(graph.cycle_graph(5), tol=1e-6)
    c5c = theta.theta_sdp(graph.complement(graph.cycle_graph(5)), tol=1e-6)
    worst_gap = max(worst_gap, c5.gap, c5c.gap)
    checks.append(_chk(
        "theta_sdp", "every bracket gap <= 1e-05",
        "<= 1e-05", worst_gap, 1e-5, worst_gap <= 1e-5))
    oracle = 2.23606798
    inside = c5.lower - 1e-9 <= oracle <= c5.upper + 1e-9
    checks.append(_chk(
        "theta_sdp", "theta(C5) bracket contains 2.23606798",
        oracle, f"[{c5.lower:.9g}, {c5.upper:.9g}]", 1e-9, inside))
    prod = ((c5.lower + c5.upper) / 2) * ((c5c.lower + c5c.upper) / 2)
    checks.append(_chk(
        "theta_sdp", "theta(C5) * theta(complement C5) = 5",
        5.0, prod, 1e-4, abs(prod - 5.0) <= 1e-4))
    return {"n_range": "1..10", "tol": 1e-6}, checks


def _run_schnirelmann(seed: int):
    rng = np.random.default_rng(seed)
    rep_pass = 0
    worst = math.inf
    for i in range(100):
        n = int(rng.integers(2, 21))
        g = _random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        rep = ortho.random_rep(g, seed=seed * 1000 + i)
        out = ortho.schnirelmann_check(ortho.gram(rep))
        rep_pass += out.ok
        worst = min(worst, out.slack)
    checks = [_chk(
        "schnirelmann_check", "tr(M)^2 <= rank(M) tr(M^2) for 100 representation Grams (n <= 20)",
        "100/100", f"{rep_pass}/100, min slack {worst:.9g}", 1e-6, rep_pass == 100)]
    psd_pass = 0
    worst = math.inf
    for _ in range(100):
        k = int(rng.integers(1, 13))
        a = rng.standard_normal((k, k))
        out = ortho.schnirelmann_check(linalg.sym_from_dense(a @ a.T))
        psd_pass += out.ok
        worst = min(worst, out.slack)
    checks.append(_chk(
        "schnirelmann_check", "tr(M)^2 <= rank(M) tr(M^2) for 100 random PSD matrices",
        "100/100", f"{psd_pass}/100, min slack {worst:.9g}", 1e-6, psd_pass == 100))
    eq_worst = 0.0
    for m in (
        linalg.sym_from_dense(np.eye(6)),
        ortho.gram(ortho.basis_rep_from_clique_cover(graph.clique_union(4, 2), graph.clique_union_parts(4, 2))),
        linalg.sym_from_dense(np.ones((5, 5))),
    ):
        eq_worst = max(eq_worst, abs(ortho.schnirelmann_check(m).slack))
    checks.append(_chk(
        "schnirelmann_check", "equality cases (identity, block-constant Grams) have |slack| <= 1e-06",
        "<= 1e-06", eq_worst, 1e-6, eq_worst <= 1e-6))
    return {"rep_samples": 100, "psd_samples": 100}, checks


def _run_msr_cycle(seed: int):
    grid = [(n, t) for t in (3, 4, 5) for n in range(5, 31)]
    total = len(grid)
    free_n = valid_n = eq_n = chain_n = 0
    first_miss = None
    for n, t in grid:
        s = t - 1
        g = graph.clique_union(n, s)
        if not graph.contains_cycle(g, t):
            free_n += 1
        rep, built = ortho.msr_upper_certificate(n, s, f"C{t}")
        if ortho.validate_rep(rep, g).ok and rep.d == -(-n // s):
            valid_n += 1
        m = ortho.gram(rep).dense()
        square_sum = float(np.sum(m * m))  # exact: entries are exact 0.0 / 1.0
        if square_sum == float(n * s):
            eq_n += 1
        elif first_miss is None:
            first_miss = (n, t, int(round(square_sum)), n * s)
        if ortho.msr_lower_chain_check(rep, g, s).chain_ok:
            chain_n += 1
    checks = [
        _chk("contains_cycle", "clique_union(n, t-1) has no C_t at any grid point",
             f"{total}/{total}", f"{free_n}/{total}", 0.0, free_n == total),
        _chk("msr_upper_certificate", "valid representation in dimension ceil(n/(t-1)) at every grid point",
             f"{total}/{total}", f"{valid_n}/{total}", 1e-8, valid_n == total),
    ]
    miss = ""
    if first_miss is not None:
        n, t, got, want = first_miss
        miss = f" (first miss n={n}, t={t}: tr(M^2) = {got}, n(t-1) = {want})"
    checks.append(_chk(
        "trace_power", "tr(M^2) = n(t-1) exactly at every grid point",
        f"{total}/{total}", f"{eq_n}/{total}{miss}", 0.0, eq_n == total))
    checks.append(_chk(
        "msr_lower_chain_check", "n^2 <= d tr(M^2) at every grid point",
        f"{total}/{total}", f"{chain_n}/{total}", 1e-8, chain_n == total))
    return {"n_range": "5..30", "t_range": "3..5"}, checks


def _run_trace_power(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    # (parity, t, forbidden cycle length, samples, rep seed stride, trace claim, lambda claim)
    for parity, t, k, samples, stride, trace_claim, lam_claim in (
        ("odd", 1, 3, 50, 2000, "tr(M^3) <= 36 n for 50 reps of triangle-free graphs (n <= 16)",
         "lambda_1(M) <= (36 n)^(1/3) for the same reps"),
        ("even", 2, 4, 20, 3000, "tr(M^4) <= 24^4 n for 20 reps of C4-free graphs",
         "lambda_1(M) <= (24^4 n)^(1/4) for the same reps"),
    ):
        trace_pass = lam_pass = 0
        for i in range(samples):
            n = int(rng.integers(4, 17))
            g = _cycle_free_graph(n, k, rng)
            out = ortho.trace_power_certificate(ortho.random_rep(g, seed=seed * stride + i), g, t, parity)
            trace_pass += out.trace_ok
            lam_pass += out.lam_ok
        for claim, passed in ((trace_claim, trace_pass), (lam_claim, lam_pass)):
            checks.append(_chk("trace_power_certificate", claim, f"{samples}/{samples}", f"{passed}/{samples}",
                               1e-8, passed == samples))
    return {"odd_samples": 50, "even_samples": 20, "n_max": 16}, checks


def _run_claim1_sandwich(seed: int):
    rng = np.random.default_rng(seed)
    upper_pass = 0
    for i in range(30):
        n = int(rng.integers(3, 11))
        g = _random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        rep = ortho.random_rep(g, seed=seed * 4000 + i)
        length = ortho.rep_sum_length(rep)
        th = theta.theta_sdp(graph.complement(g), tol=1e-5)
        if length <= math.sqrt(n * th.lower) + 1e-4:
            upper_pass += 1
    checks = [_chk(
        "rep_sum_length", "|sum f(v)| <= sqrt(n theta(complement)) + 1e-04 for 30 reps (n <= 10)",
        "30/30", f"{upper_pass}/30", 1e-4, upper_pass == 30)]

    c5 = theta.theta_sdp(graph.cycle_graph(5), tol=1e-6)
    c5c = theta.theta_sdp(graph.complement(graph.cycle_graph(5)), tol=1e-6)
    target = 5.0**0.75
    lo, hi = theta.L_bounds(graph.cycle_graph(5), (c5.lower + c5.upper) / 2, (c5c.lower + c5c.upper) / 2)
    checks.append(_chk(
        "L_bounds", "for C5 the lower bound n/sqrt(theta) equals 5^(3/4)",
        target, lo, 1e-4, abs(lo - target) <= 1e-4))
    checks.append(_chk(
        "L_bounds", "for C5 the upper bound sqrt(n theta(complement)) equals 5^(3/4)",
        target, hi, 1e-4, abs(hi - target) <= 1e-4))
    aligned = ortho.rep_sum_length_aligned(ortho.umbrella_rep(False), np.array([0.0, 0.0, 1.0]))
    checks.append(_chk(
        "rep_sum_length_aligned", "sign-aligned umbrella sum reaches 5/5^(1/4)",
        f">= {target - 1e-4:.9g}", aligned, 1e-4, aligned >= target - 1e-4))
    return {"rep_samples": 30, "n_max": 10}, checks


# layer coloring: exhaustive labeled sweep over the 5-cycle-free graphs on
# <= 7 vertices, grown one vertex at a time, as array passes over the edge
# masks; each layer's edge mask is looked up in a table of the 3-colourable
# edge masks


def _edge_positions(n: int):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _pairs_inside(n: int) -> np.ndarray:
    """Per vertex set S (a bitmask over n vertices), the edge mask of the pairs inside S."""
    sets = np.arange(1 << n)
    inside = np.zeros(1 << n, dtype=np.uint32)
    for k, (u, v) in enumerate(_edge_positions(n)):
        pair = (1 << u) | (1 << v)
        inside[(sets & pair) == pair] |= 1 << k
    return inside


def _grow_c5_free_masks(n_max: int):
    """Yield, for n = 1..n_max, the ascending uint32 edge masks (bit k = k-th pair of
    _edge_positions(n)) of the 5-cycle-free graphs on n vertices; n_max <= 8.

    Deleting a vertex keeps a graph 5-cycle-free, so each graph on n vertices is one on
    n - 1 plus a new vertex x.  A 5-cycle through x is x-a-b-c-d-x, so x may join any
    neighbour set S that holds no two ends a, d of a 3-edge path a-b-c-d.
    """
    free = np.zeros(1, dtype=np.uint32)
    yield free
    for n in range(2, n_max + 1):
        x = n - 1
        old = _edge_positions(x)
        bit = {p: k for k, p in enumerate(old)}
        pos = {p: k for k, p in enumerate(_edge_positions(n))}
        ends = np.zeros(len(free), dtype=np.uint32)  # pairs {a, d} that a 3-edge path joins
        for a, d in old:
            joined = np.zeros(len(free), dtype=bool)
            for b, c in itertools.permutations([v for v in range(x) if v not in (a, d)], 2):
                path = np.uint32(sum(1 << bit[min(e), max(e)] for e in ((a, b), (b, c), (c, d))))
                joined |= (free & path) == path
            ends |= joined.astype(np.uint32) << bit[a, d]
        grown = np.zeros(len(free), dtype=np.uint32)  # the survivors' bits at their n-vertex positions
        for k, p in enumerate(old):
            grown |= ((free >> k) & 1) << pos[p]
        star = np.array([sum(1 << pos[u, x] for u in range(x) if s >> u & 1) for s in range(1 << x)],
                        dtype=np.uint32)  # the edges from x to each S
        inside = _pairs_inside(x)
        free = np.concatenate([grown[(ends & inside[s]) == 0] | star[s] for s in range(1 << x)])
        free.sort()
        yield free


def _mask_graph(n: int, mask: int) -> graph.Graph:
    return graph.from_edges(n, [p for k, p in enumerate(_edge_positions(n)) if mask >> k & 1])


def _layer_edge_masks(n: int, graphs: np.ndarray):
    """Per root, the edge masks induced by BFS layers A_1 and A_2 of every graph."""
    nbr = np.zeros((n, len(graphs)), dtype=np.uint8)
    inside = _pairs_inside(n)
    for k, (u, v) in enumerate(_edge_positions(n)):
        bit = ((graphs >> k) & 1).astype(np.uint8)
        nbr[u] |= bit << v
        nbr[v] |= bit << u
    for root in range(n):
        a1 = nbr[root]
        a2 = np.zeros_like(a1)
        for v in range(n):
            a2 |= nbr[v] * ((a1 >> v) & 1)
        a2 &= ~(a1 | np.uint8(1 << root))
        yield graphs & inside[a1]
        yield graphs & inside[a2]


def _three_colorable_table(n: int) -> np.ndarray:
    """Bit m of the result (bit m % 8 of byte m // 8) is set iff the graph with edge mask m
    (bit k = k-th pair of _edge_positions(n)) is 3-colourable.

    A colouring c is proper for exactly the edge masks inside the pairs it gives two
    different colours, the complement of its monochromatic pairs.  Those complements,
    over the 3^(n-1) colourings that give vertex 0 the first colour, are marked, and the
    marks are closed under taking subsets one edge bit at a time: bits k < 3 within each
    byte, higher bits across bytes.  Packed, n = 7 takes 2^21 bits = 256 KB.
    """
    edges = _edge_positions(n)
    full = (1 << len(edges)) - 1
    colours = np.array([(0, *c) for c in itertools.product(range(3), repeat=n - 1)], dtype=np.uint8)
    proper = np.full(len(colours), full, dtype=np.uint32)
    for k, (u, v) in enumerate(edges):
        proper ^= (colours[:, u] == colours[:, v]).astype(np.uint32) << k
    table = np.zeros(max(1, (full + 1) // 8), dtype=np.uint8)
    np.bitwise_or.at(table, proper >> 3, (np.uint32(1) << (proper & 7)).astype(np.uint8))
    for k, upper in enumerate((0xAA, 0xCC, 0xF0)[: len(edges)]):
        table |= (table & upper) >> (1 << k)
    for k in range(3, len(edges)):
        halves = table.reshape(-1, 2, 1 << (k - 3))
        halves[:, 0] |= halves[:, 1]
    return table


def _layers_3_colorable(n: int, graphs: np.ndarray) -> np.ndarray:
    """Per graph: whether every BFS layer A_i, i <= 2, of every root is 3-colourable."""
    table = _three_colorable_table(n)
    ok = np.ones(len(graphs), dtype=bool)
    for m in _layer_edge_masks(n, graphs):
        ok &= ((table[m >> 3] >> (m & 7)) & 1).astype(bool)
    return ok


def _run_layer_coloring(seed: int):
    checks = []
    cross_agree = cross_total = 0
    for n, free in enumerate(_grow_c5_free_masks(7), start=1):
        ok = _layers_3_colorable(n, free)
        violations = int(np.count_nonzero(~ok))
        for idx in range(0, len(free), 20000):  # spot-check the sweep against the library op
            cross_total += 1
            cross_agree += graph.layer_chromatic_check(_mask_graph(n, int(free[idx])), 5).ok == bool(ok[idx])
        checks.append(_chk(
            "layer_chromatic_check",
            f"chi(layer) <= 3 for every BFS layer A_i, i <= 2, of every 5-cycle-free graph on {n} vertices",
            "0 violations", f"0 violations in {len(free)} graphs" if violations == 0
            else f"{violations} violations in {len(free)} graphs", 0.0, violations == 0))
    checks.append(_chk(
        "layer_chromatic_check", "vectorized sweep agrees with the per-graph operation on a sample",
        f"{cross_total}/{cross_total}", f"{cross_agree}/{cross_total}", 0.0,
        cross_agree == cross_total))
    return {"n_range": "1..7", "generation": "exhaustive labeled"}, checks


def _run_even_cycle_bound(seed: int):
    checks = []
    for q in (2, 3):
        g = constructions.polarity_graph(q)
        out = theta.bound_formula_check(g, "even", 2)
        checks.append(_chk(
            "bound_formula_check",
            f"theta(complement of polarity({q})) <= 24 n^(1/4), n = {g.n}",
            f"<= {out.formula_bound:.9g}", out.theta_value, 1e-9, out.ok))
        checks.append(_chk(
            "bound_formula_check",
            f"polarity({q}): the compared value is a certified upper bound",
            True, out.value_is_certified_upper, 0.0, out.value_is_certified_upper))
    return {"q": "2, 3", "t": 2}, checks


_RUNNERS = {
    "furedi-spectral": _run_furedi_spectral,
    "polarity-c4": _run_polarity_c4,
    "theta-sandwich": _run_theta_sandwich,
    "schnirelmann": _run_schnirelmann,
    "msr-cycle": _run_msr_cycle,
    "trace-power": _run_trace_power,
    "claim1-sandwich": _run_claim1_sandwich,
    "layer-coloring": _run_layer_coloring,
    "even-cycle-bound": _run_even_cycle_bound,
}

EXPERIMENT_NAMES = tuple(_RUNNERS)


def _check_known(name: str) -> None:
    if name not in _RUNNERS:
        known = ", ".join(EXPERIMENT_NAMES)
        raise PreconditionViolated(f"unknown experiment {name!r}; expected one of: {known}")


def run_experiment(name: str, seed: int = 0) -> ExperimentReport:
    _check_known(name)
    start = time.perf_counter()
    parameters, checks = _RUNNERS[name](seed)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return ExperimentReport(name, parameters, tuple(checks), runtime_ms, seed)


def run_experiments(names, seed: int = 0) -> list[ExperimentReport]:
    """Run several experiments, each once; results ordered by canonical experiment name."""
    names = list(names)
    for name in names:
        _check_known(name)
    return [run_experiment(nm, seed) for nm in EXPERIMENT_NAMES if nm in names]
