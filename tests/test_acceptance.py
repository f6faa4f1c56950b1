"""Acceptance suite: eleven criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Criterion 7 asserts an exact-trace identity over the full (n, t) grid and
is expected to fail on the grid points where t-1 does not divide n: no
valid representation of a clique union with a short last part can reach
trace n(t-1), since off-part Gram entries are zero and every entry is at
most 1 in magnitude.  The failure message names the first such point.
"""

import math
import time

import numpy as np

from thetalab.constructions import furedi_graph, furedi_square_identity, polarity_graph
from thetalab.errors import HandleOrthogonalToVector, NoEdges
from thetalab.experiments import run_experiment
from thetalab.graph import complement, complete_graph, contains_complete_bipartite, contains_cycle, cycle_graph, empty_graph, from_edges
from thetalab.linalg import adjacency_sym, eigen_sym
from thetalab.ortho import random_rep
from thetalab.theta import theta_lower_from_rep, theta_sdp, theta_spectral_lower_of_complement, theta_upper_from_rep

SQRT5 = math.sqrt(5.0)


def report(num: int, title: str, ok: bool, detail: str = ""):
    flag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{flag}] {title}{suffix}")
    assert ok, f"criterion {num} failed: {title}{suffix}"


def experiment_detail(rep) -> str:
    bad = [c for c in rep.checks if not c.passed]
    if not bad:
        return f"{len(rep.checks)} checks, {rep.runtime_ms} ms"
    c = bad[0]
    return f"{len(bad)}/{len(rep.checks)} checks failed; first: {c.claim}: expected {c.expected}, observed {c.observed}"


def test_criterion_01_furedi_q5():
    start = time.perf_counter()
    fg = furedi_graph(5, 2)
    g = fg.graph
    ok = g.n == 12
    deg = [g.degree(v) + (v in fg.loops_removed) for v in range(g.n)]
    ok = ok and set(deg) == {5}
    ok = ok and not contains_complete_bipartite(g, 2, 3)
    idy = furedi_square_identity(fg)
    ok = ok and idy.holds and idy.max_abs_residual == 0
    ok = ok and set(idy.no_common_row_sums) == {1}
    lam = eigen_sym(adjacency_sym(g)).eigenvalues
    ok = ok and max(abs(lam[1]), abs(lam[-1])) <= SQRT5 + 1.0 + 1e-9
    low = theta_spectral_lower_of_complement(g)
    ok = ok and low >= 2.236 - 1e-9
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    for u in fg.loops_removed:
        a[u, u] = 1.0
    vals = np.linalg.eigvalsh(a)
    ok = ok and abs((1.0 - vals[-1] / vals[0]) - (1.0 + SQRT5)) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, "12-vertex scaling-class graph: identity, freeness, spectral bounds", ok,
           f"{elapsed:.3f} s")


def test_criterion_02_furedi_q13():
    start = time.perf_counter()
    fg = furedi_graph(13, 4)
    g = fg.graph
    ok = g.n == 42
    idy = furedi_square_identity(fg)
    ok = ok and idy.holds and idy.max_abs_residual == 0
    ok = ok and set(idy.no_common_row_sums) == {2}
    lam = eigen_sym(adjacency_sym(g)).eigenvalues
    ok = ok and max(abs(lam[1]), abs(lam[-1])) <= math.sqrt(17.0) + 1.0 + 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    report(2, "42-vertex scaling-class graph: identity, row sums, eigenvalue bound", ok,
           f"{elapsed:.3f} s")


def test_criterion_03_polarity():
    ok = True
    for q in (2, 3, 4):
        g = polarity_graph(q)
        ok = ok and g.n == q * q + q + 1
        ok = ok and not contains_cycle(g, 4)
        degs = g.degrees()
        ok = ok and set(degs) <= {q, q + 1}
        ok = ok and sum(1 for d in degs if d == q) == q + 1
        lam = eigen_sym(adjacency_sym(g)).eigenvalues
        ok = ok and max(abs(lam[1]), abs(lam[-1])) <= math.sqrt(q) + 1.0 + 1e-9
    report(3, "polarity graphs q in {2,3,4}: counts, degrees, 4-cycle freeness, spectrum", ok)


def test_criterion_04_theta_closed_forms():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        r = theta_sdp(complete_graph(n), tol=1e-6)
        ok = ok and r.gap <= 1e-5 and abs(r.lower - 1) <= 1e-8 and abs(r.upper - 1) <= 1e-8
        r = theta_sdp(empty_graph(n), tol=1e-6)
        ok = ok and r.gap <= 1e-5 and abs(r.lower - n) <= 1e-8 and abs(r.upper - n) <= 1e-8
    c5 = theta_sdp(cycle_graph(5), tol=1e-6)
    c5c = theta_sdp(complement(cycle_graph(5)), tol=1e-6)
    ok = ok and c5.gap <= 1e-5 and c5c.gap <= 1e-5
    ok = ok and c5.lower - 1e-9 <= 2.23606798 <= c5.upper + 1e-9
    prod = ((c5.lower + c5.upper) / 2) * ((c5c.lower + c5c.upper) / 2)
    ok = ok and abs(prod - 5.0) <= 1e-4
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(4, "theta brackets: complete, edgeless, pentagon, transitive product", ok,
           f"{elapsed:.3f} s")


def test_criterion_05_definition_consistency():
    rng = np.random.default_rng(42)
    ok = True
    for case in range(50):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(0.2, 0.8))
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])
        r = theta_sdp(g, tol=1e-5)
        try:
            low = theta_spectral_lower_of_complement(complement(g))
            ok = ok and low <= r.upper + 1e-5
        except NoEdges:
            pass
        gbar = complement(g)
        for j in range(20):
            rep_low = random_rep(gbar, seed=case * 100 + j)
            rep_up = random_rep(g, seed=case * 100 + 50 + j)
            for _ in range(5):
                x = rng.standard_normal(rep_low.d)
                x /= np.linalg.norm(x)
                ok = ok and theta_lower_from_rep(rep_low, x) <= r.upper + 1e-5
                y = rng.standard_normal(rep_up.d)
                y /= np.linalg.norm(y)
                try:
                    ok = ok and theta_upper_from_rep(rep_up, y) >= r.lower - 1e-5
                except HandleOrthogonalToVector:
                    pass
        if not ok:
            break
    report(5, "four definitions agree with the solver bracket on 50 random graphs", ok)


def test_criterion_06_schnirelmann():
    rep = run_experiment("schnirelmann")
    report(6, "trace inequality on 200 matrices plus equality cases", rep.passed,
           experiment_detail(rep))


def test_criterion_07_msr_grid():
    rep = run_experiment("msr-cycle")
    report(7, "clique-union representations over the full (n, t) grid", rep.passed,
           experiment_detail(rep))


def test_criterion_08_trace_power():
    rep = run_experiment("trace-power")
    report(8, "trace-power certificates for triangle-free and 4-cycle-free reps", rep.passed,
           experiment_detail(rep))


def test_criterion_09_even_cycle_bound():
    rep = run_experiment("even-cycle-bound")
    report(9, "theta of polarity complements under the even-cycle formula", rep.passed,
           experiment_detail(rep))


def test_criterion_10_layer_coloring():
    start = time.perf_counter()
    rep = run_experiment("layer-coloring")
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 5.0
    report(10, "BFS layers of every 5-cycle-free graph on <= 7 vertices are 3-colorable",
           ok, f"{elapsed:.3f} s, {experiment_detail(rep)}")


def test_criterion_11_claim1_sandwich():
    rep = run_experiment("claim1-sandwich")
    report(11, "vector-sum length sandwich on 30 reps and the pentagon umbrella", rep.passed,
           experiment_detail(rep))
