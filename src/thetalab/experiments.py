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
from typing import TYPE_CHECKING

# Runners reach each layer through its lazily registered module, so an
# experiment loads only the layers it calls.
from . import constructions, graph, linalg, ortho, theta
from .errors import PreconditionViolated

if TYPE_CHECKING:  # numpy is imported in the functions that use it, so refusing a name never loads it
    import numpy as np

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
    """Greedy random graph with no cycle of length exactly k, for k = 3 or 4.

    The pairs are tried in a shuffled order and each is kept unless it closes
    a k-cycle.  The graph before it has none, so for k = 3 the pair uv closes
    one iff u and v have a common neighbour, and for k = 4 iff some neighbour
    of u is adjacent to some neighbour of v (a path u-a-b-v).  The graph is
    not searched again here: trace-power passes it to
    trace_power_certificate, which refuses a graph with a k-cycle.
    """
    if k not in (3, 4):
        raise PreconditionViolated(f"cycle-free generator supports k = 3 or 4, got {k}")
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
    return graph.Graph(n, tuple(adj))


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
            found = graph.contains_complete_bipartite(g, 2, 3)
            checks.append(_chk(
                "contains_complete_bipartite", f"{tag}: no K_(2,3) subgraph",
                False, found, 0.0, not found))
            low = theta.theta_spectral_lower_of_complement(g)
            checks.append(_chk(
                "theta_spectral_lower_of_complement",
                f"{tag}: 1 - lambda_1/lambda_n >= 2.236 on the loop-removed matrix",
                ">= 2.236", low, 1e-9, low >= 2.236 - 1e-9))
            vals = linalg.eigvals_sym(linalg.sym_from_dense(fg.adjacency_with_loops())).eigenvalues
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
        found = graph.contains_cycle(g, 4)
        checks.append(_chk(
            "contains_cycle", f"{tag}: no 4-cycle",
            False, found, 0.0, not found))
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
    import numpy as np

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
        # the certificate searched clique_union(n, s) for C_t (it raises otherwise); the chain check validates rep
        rep, g = ortho.msr_upper_certificate(n, s, f"C{t}")
        free_n += 1
        valid_n += rep.d == -(-n // s)
        chain = ortho.msr_lower_chain_check(rep, g, s)  # its tr(M^2) is exact: Gram entries are 0.0 / 1.0
        if chain.trace_sq == n * s:
            eq_n += 1
        elif first_miss is None:
            first_miss = (n, t, int(round(chain.trace_sq)), n * s)
        chain_n += chain.chain_ok
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
    import numpy as np

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
    import numpy as np

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
# <= 7 vertices, as array passes over edge masks.  Pair (u, v), u < v, of K7 is
# bit v(v-1)/2 + u, so a graph on n vertices is a 7-vertex mask below
# 2^C(n,2) whose vertices n..6 are isolated and have empty BFS layers.  Each
# layer's edge mask is looked up in a table of the 3-colourable edge masks.

LAYER_BLOCK = 1 << 15  # graphs per pass of the layer check


def _pairs_inside() -> np.ndarray:
    """Per vertex set S (a bitmask over 7 vertices), the edge mask of the pairs inside S.  With v
    the top vertex and L = S - v, those are the pairs inside L and the pairs (u, v), L << v(v-1)/2."""
    import numpy as np

    inside = np.zeros(1, dtype=np.uint32)
    for v in range(7):
        inside = np.concatenate([inside, inside | np.arange(1 << v, dtype=np.uint32) << v * (v - 1) // 2])
    return inside


def _grow_c5_free_masks() -> np.ndarray:
    """The ascending edge masks of the 5-cycle-free graphs on 7 vertices.

    Deleting a vertex keeps a graph 5-cycle-free, so each graph on x + 1 vertices is one on x
    plus vertex x joined to a set S, the edges S << x(x-1)/2 above the old ones.  A 5-cycle
    through x is x-a-b-c-d-x, so S may hold no two ends a, d of a 3-edge path a-b-c-d.
    """
    import numpy as np

    inside = _pairs_inside()  # inside[{u, v}] is the bit of pair (u, v)
    free = np.zeros(1, dtype=np.uint32)
    for x in range(1, 7):
        ends = np.zeros(len(free), dtype=np.uint32)  # pairs {a, d} that a 3-edge path joins
        for a, d in itertools.combinations(range(x), 2):
            joined = np.zeros(len(free), dtype=bool)
            for b, c in itertools.permutations([v for v in range(x) if v not in (a, d)], 2):
                path = inside[1 << a | 1 << b] | inside[1 << b | 1 << c] | inside[1 << c | 1 << d]
                joined |= (free & path) == path
            ends |= joined.astype(np.uint32) * inside[1 << a | 1 << d]
        free = np.concatenate([free[(ends & inside[s]) == 0] | np.uint32(s << x * (x - 1) // 2)
                               for s in range(1 << x)])
    return free


def _three_colorable_table() -> np.ndarray:
    """Bit m of the result (bit m % 8 of byte m // 8; 2^21 bits = 256 KB) is set iff edge mask m
    is 3-colourable.

    A colouring is proper for exactly the subsets of the pairs outside its colour classes.
    Those complements, over the 3^6 colourings that give vertex 0 the first colour, are
    marked and closed under subsets one edge bit at a time: bits k < 3 within each byte,
    higher bits across bytes.
    """
    import numpy as np

    inside = _pairs_inside()
    colours = np.array([(0, *c) for c in itertools.product(range(3), repeat=6)])
    proper = np.uint32((1 << 21) - 1)
    for k in range(3):
        proper ^= inside[(colours == k) @ (1 << np.arange(7))]  # drop the pairs inside colour class k
    table = np.zeros(1 << 18, dtype=np.uint8)
    np.bitwise_or.at(table, proper >> 3, (np.uint32(1) << (proper & 7)).astype(np.uint8))
    for k, upper in enumerate((0xAA, 0xCC, 0xF0)):
        table |= (table & upper) >> (1 << k)
    for k in range(3, 21):
        halves = table.reshape(-1, 2, 1 << (k - 3))
        halves[:, 0] |= halves[:, 1]
    return table


def _layers_3_colorable(graphs: np.ndarray) -> np.ndarray:
    """Per 7-vertex edge mask: whether every BFS layer A_i, i <= 2, of every root is
    3-colourable, checked LAYER_BLOCK graphs at a time."""
    import numpy as np

    inside = _pairs_inside()
    table = _three_colorable_table()
    ok = np.ones(len(graphs), dtype=bool)
    for start in range(0, len(graphs), LAYER_BLOCK):
        block = graphs[start : start + LAYER_BLOCK]
        nbr = np.zeros((7, len(block)), dtype=np.uint8)  # bit u of nbr[v]: u and v are adjacent
        for k, (u, v) in enumerate((u, v) for v in range(7) for u in range(v)):
            bit = ((block >> k) & 1).astype(np.uint8)
            nbr[u] |= bit << v
            nbr[v] |= bit << u
        for root, a1 in enumerate(nbr):  # a1 and a2 are the vertex sets of layers A_1 and A_2
            a2 = np.bitwise_or.reduce([nbr[v] * ((a1 >> v) & 1) for v in range(7)]) & ~(a1 | np.uint8(1 << root))
            for layer in (a1, a2):
                m = block & inside[layer]
                ok[start : start + LAYER_BLOCK] &= ((table[m >> 3] >> (m & 7)) & 1).astype(bool)
    return ok


def _run_layer_coloring(seed: int):
    import numpy as np

    free = _grow_c5_free_masks()
    ok = _layers_3_colorable(free)
    checks = []
    cross_agree = cross_total = 0
    for n in range(1, 8):
        count = int(np.searchsorted(free, 1 << n * (n - 1) // 2))  # the graphs on n vertices
        violations = count - int(np.count_nonzero(ok[:count]))
        for idx in range(0, count, 20000):  # spot-check the sweep against the library op
            m = int(free[idx])
            g = graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if m >> (v * (v - 1) // 2 + u) & 1])
            cross_total += 1
            cross_agree += graph.layer_chromatic_check(g, 5).ok == bool(ok[idx])
        checks.append(_chk(
            "layer_chromatic_check",
            f"chi(layer) <= 3 for every BFS layer A_i, i <= 2, of every 5-cycle-free graph on {n} vertices",
            "0 violations", f"0 violations in {count} graphs" if violations == 0
            else f"{violations} violations in {count} graphs", 0.0, violations == 0))
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
    if seed < 0:
        raise PreconditionViolated(f"experiment seed must be >= 0, got {seed}")
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
