"""Solver and bound tests.

Frozen oracles, computed independently before the solver was written:
the 5-cycle circulant dual matrix with edge entries -(3-sqrt5)/2 has top
eigenvalue sqrt5 = 2.23606797749979 (5-point circulant formula), and the
umbrella representation certifies the same value from both sides.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from thetalab import linalg
from thetalab import theta as theta_mod
from thetalab.constructions import clique_union, furedi_graph, polarity_graph
from thetalab.errors import (
    ComplexityRefused,
    GapNotReached,
    HandleOrthogonalToVector,
    NoEdges,
    PreconditionViolated,
)
from thetalab.graph import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    induced_subgraph,
)
from thetalab.linalg import eigen_sym, sym_from_dense
from thetalab.ortho import OrthoRep, cycle_free_bound, random_rep, umbrella_rep
from thetalab.theta import (
    BoundFormulaReport,
    L_bounds,
    ThetaResult,
    bound_formula_check,
    theta_lower_from_rep,
    theta_sdp,
    theta_spectral_lower_of_complement,
    theta_upper_from_rep,
    transitive_identity_check,
)

SQRT5 = 2.23606797749979
AXIS = np.array([0.0, 0.0, 1.0])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edges(10, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def brute_independence(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                best = max(best, r)
                break
    return best


# --- frozen circulant oracle -------------------------------------------------


def test_circulant_dual_certificate_for_the_pentagon():
    b = -(3.0 - math.sqrt(5.0)) / 2.0
    mat = np.ones((5, 5))
    for i in range(5):
        for j in range(5):
            if (i - j) % 5 in (1, 4):
                mat[i, j] = b
    spec = eigen_sym(sym_from_dense(mat))
    assert abs(spec.eigenvalues[0] - SQRT5) <= 1e-12


# --- solver on closed-form instances -----------------------------------------


def test_theta_complete_and_empty_graphs():
    for n in range(1, 11):
        r = theta_sdp(complete_graph(n), tol=1e-6)
        assert abs(r.lower - 1.0) <= 1e-8 and abs(r.upper - 1.0) <= 1e-8
        r = theta_sdp(empty_graph(n), tol=1e-6)
        assert abs(r.lower - n) <= 1e-8 and abs(r.upper - n) <= 1e-8


def test_theta_pentagon_bracket():
    r = theta_sdp(cycle_graph(5), tol=1e-6)
    assert r.gap <= 1e-6
    assert r.lower - 1e-9 <= SQRT5 <= r.upper + 1e-9
    rc = theta_sdp(complement(cycle_graph(5)), tol=1e-6)
    assert rc.lower - 1e-9 <= SQRT5 <= rc.upper + 1e-9
    prod = ((r.lower + r.upper) / 2) * ((rc.lower + rc.upper) / 2)
    assert abs(prod - 5.0) <= 1e-4


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_c5_bracket_contains_sqrt5():
    """The reported bracket of theta(C5) contains sqrt5, decided exactly: lo^2 <= 5 <= hi^2 in rationals,
    each end read as the exact value of its float.  The lower end is the float sum of X's entries, about
    1e-15 above sqrt5, until the bracket is rounded outwards."""
    r = theta_sdp(cycle_graph(5), tol=1e-6)
    lo, hi = Fraction(r.lower), Fraction(r.upper)
    assert 0 <= lo and lo * lo <= 5 <= hi * hi


def test_theta_petersen():
    r = theta_sdp(petersen(), tol=1e-5)
    assert r.gap <= 1e-5
    assert r.lower - 1e-9 <= 4.0 <= r.upper + 1e-9
    assert transitive_identity_check(petersen())


def test_certificates_are_feasible():
    g = random_graph(8, 0.5, 3)
    r = theta_sdp(g, tol=1e-5)
    x = r.primal_x.dense()
    assert abs(np.trace(x) - 1.0) <= 1e-8
    b = r.dual_b.dense()
    for u in range(8):
        assert b[u, u] == 1.0
        for v in range(u + 1, 8):
            if g.has_edge(u, v):
                assert x[u, v] == 0.0
            else:
                assert b[u, v] == 1.0
    assert eigen_sym(r.primal_x).eigenvalues[-1] >= -1e-8
    assert abs(eigen_sym(r.dual_b).eigenvalues[0] - r.upper) <= 1e-8


def test_theta_result_rejects_bad_certificates():
    g = cycle_graph(4)
    r = theta_sdp(g, tol=1e-5)
    with pytest.raises(PreconditionViolated):
        ThetaResult(r.lower, r.upper, r.gap, r.primal_x, r.dual_b, r.iterations, complete_graph(4))
    with pytest.raises(PreconditionViolated):
        ThetaResult(r.lower + 0.5, r.upper, r.upper - r.lower - 0.5, r.primal_x, r.dual_b, r.iterations, g)
    doubled = sym_from_dense(2.0 * r.primal_x.dense())
    with pytest.raises(PreconditionViolated, match="primal certificate trace differs from 1"):
        ThetaResult(2.0 * r.lower, r.upper, r.upper - 2.0 * r.lower, doubled, r.dual_b, r.iterations, g)
    # unit trace and zero on the edges of C4, but the non-edge pair (0, 2) makes it indefinite
    indefinite = np.eye(4) / 4.0
    indefinite[0, 2] = indefinite[2, 0] = 0.5
    with pytest.raises(PreconditionViolated, match="primal certificate eigenvalue -0.2"):
        ThetaResult(2.0, r.upper, r.upper - 2.0, sym_from_dense(indefinite), r.dual_b, r.iterations, g)
    with pytest.raises(PreconditionViolated, match="upper bound does not match dual certificate"):
        ThetaResult(r.lower, r.upper + 0.5, r.gap + 0.5, r.primal_x, r.dual_b, r.iterations, g)
    for gap in (r.gap + 0.1, -1e-6):
        with pytest.raises(PreconditionViolated, match="gap field inconsistent with bounds"):
            ThetaResult(r.lower, r.upper, gap, r.primal_x, r.dual_b, r.iterations, g)


def test_gap_not_reached_carries_partial_result():
    with pytest.raises(GapNotReached) as exc:
        theta_sdp(cycle_graph(5), tol=1e-8, iteration_cap=3)
    partial = exc.value.result
    assert partial is not None
    assert partial.gap > 1e-8
    assert partial.lower <= SQRT5 + 1e-9
    assert partial.upper >= SQRT5 - 1e-9


def test_solver_caps():
    with pytest.raises(ComplexityRefused):
        theta_sdp(empty_graph(201))
    with pytest.raises(PreconditionViolated):
        theta_sdp(cycle_graph(4), tol=1e-9)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(PreconditionViolated, match="tol must be finite"):
            theta_sdp(cycle_graph(5), tol=tol)
    for cap in (0, -5):
        with pytest.raises(PreconditionViolated, match="iteration_cap must be >= 1"):
            theta_sdp(cycle_graph(5), iteration_cap=cap)
    with pytest.raises(PreconditionViolated):
        theta_sdp(empty_graph(0))


def test_solver_n_cap_constant(monkeypatch):
    monkeypatch.setattr(theta_mod, "SOLVER_N_CAP", 6)
    with pytest.raises(ComplexityRefused, match="n = 7 exceeds solver cap 6"):
        theta_sdp(empty_graph(7))
    assert theta_sdp(empty_graph(6)).upper == pytest.approx(6.0, abs=1e-8)


def test_solver_is_deterministic():
    g = random_graph(7, 0.4, 11)
    a = theta_sdp(g, tol=1e-5)
    b = theta_sdp(g, tol=1e-5)
    assert a.lower == b.lower and a.upper == b.upper and a.iterations == b.iterations
    assert a.primal_x.dense().tobytes() == b.primal_x.dense().tobytes()
    assert a.dual_b.dense().tobytes() == b.dual_b.dense().tobytes()


def test_solver_decomposes_only_what_it_reads(monkeypatch):
    """One full eigendecomposition per iteration (the PSD projection) and one per subgradient
    step (its base's top vector); every other spectrum is values-only.  The bracket, the
    iteration count and the certificate bytes are frozen from the solver that decomposed
    both dual candidates fully each round, 303 full decompositions on this graph."""
    calls = {True: 0, False: 0}
    eigh_dense = linalg.eigh_dense

    def spy(a, vectors=True):
        calls[vectors] += 1
        return eigh_dense(a, vectors)

    monkeypatch.setattr(linalg, "eigh_dense", spy)  # psd_project_dense
    monkeypatch.setattr(theta_mod, "eigh_dense", spy)
    r = theta_sdp(complement(furedi_graph(5, 2).graph))
    # certified every iteration up to 10, then every fifth; the last round meets the gap
    rounds = sum(1 for k in range(1, r.iterations + 1) if k <= 10 or k % 5 == 0)
    steps = rounds - 1
    assert (r.lower, r.upper, r.iterations) == (3.1319815361800663, 3.1319823350211164, 205)
    assert calls[True] == r.iterations + steps == 253
    # the ThetaResult checks (2), the start (primal value, subgradient top) and per round the
    # primal value and the harvest's top, and per step the new iterate's top
    assert calls[False] == 2 + 2 + 2 * rounds + steps == 150
    digest = hashlib.sha256(r.primal_x.dense().tobytes() + r.dual_b.dense().tobytes()).hexdigest()
    assert digest == "47518865eddfb393bb463eb34cde6d173bdc669c4d5ef1ec4bb3e8ba7ae7e394"


# --- spectral lower bound -----------------------------------------------------


def test_spectral_lower_closed_forms():
    assert abs(theta_spectral_lower_of_complement(complete_graph(2)) - 2.0) <= 1e-12
    assert abs(theta_spectral_lower_of_complement(cycle_graph(5)) - SQRT5) <= 1e-9
    with pytest.raises(NoEdges):
        theta_spectral_lower_of_complement(empty_graph(3))


def test_spectral_lower_on_scaling_class_graph():
    fg = furedi_graph(5, 2)
    assert theta_spectral_lower_of_complement(fg.graph) >= SQRT5 - 1e-9
    # with loops restored the bound reaches 1 + sqrt5 on the nose
    n = fg.graph.n
    a = np.zeros((n, n))
    for u, v in fg.graph.edges():
        a[u, v] = a[v, u] = 1.0
    for u in fg.loops_removed:
        a[u, u] = 1.0
    spec = eigen_sym(sym_from_dense(a))
    loopful = 1.0 - spec.eigenvalues[0] / spec.eigenvalues[-1]
    assert abs(loopful - (1.0 + SQRT5)) <= 1e-9


def test_spectral_lower_is_consistent_with_solver():
    for seed in range(8):
        g = random_graph(7, 0.5, seed)
        if g.edge_count() == 0:
            continue
        bound = theta_spectral_lower_of_complement(g)
        r = theta_sdp(complement(g), tol=1e-5)
        assert bound <= r.upper + 1e-6


# --- representation-based bounds ----------------------------------------------


def test_umbrella_brackets_the_pentagon():
    up = theta_upper_from_rep(umbrella_rep(False), AXIS)
    assert abs(up - SQRT5) <= 1e-6
    low = theta_lower_from_rep(umbrella_rep(True), AXIS)
    assert abs(low - SQRT5) <= 1e-6


def test_rep_bound_trivial_cases():
    n = 6
    same = OrthoRep(2, np.tile(np.array([[1.0], [0.0]]), (1, n)), complete_graph(n))
    assert abs(theta_upper_from_rep(same, np.array([1.0, 0.0])) - 1.0) <= 1e-12
    basis = OrthoRep(n, np.eye(n), empty_graph(n))
    x = np.full(n, 1.0 / math.sqrt(n))
    assert abs(theta_upper_from_rep(basis, x) - n) <= 1e-9
    assert abs(theta_lower_from_rep(same, np.array([1.0, 0.0])) - n) <= 1e-12
    with pytest.raises(HandleOrthogonalToVector):
        theta_upper_from_rep(basis, np.array([0.0, 1.0] + [0.0] * (n - 2)))


def test_theta_upper_from_rep_refuses_the_empty_representation():
    # the minimum over no inner products raised numpy's untyped ValueError
    rep = OrthoRep(2, np.zeros((2, 0)), empty_graph(0))
    with pytest.raises(PreconditionViolated, match="empty representation"):
        theta_upper_from_rep(rep, np.array([1.0, 0.0]))


def test_theta_lower_from_rep_is_zero_on_the_empty_representation():
    rep = OrthoRep(2, np.zeros((2, 0)), empty_graph(0))
    assert theta_lower_from_rep(rep, np.array([1.0, 0.0])) == 0.0


def test_handle_preconditions():
    rep = umbrella_rep(False)
    with pytest.raises(PreconditionViolated):
        theta_upper_from_rep(rep, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(PreconditionViolated):
        theta_lower_from_rep(rep, np.array([1.0, 0.0]))
    for bad in (math.nan, math.inf, -math.inf):
        for bound in (theta_upper_from_rep, theta_lower_from_rep):
            for handle in ([bad, 0.0, 0.0], [0.0, 0.0, bad], [1.0, bad, 0.0]):
                with pytest.raises(PreconditionViolated, match="unit vector"):
                    bound(rep, handle)


def test_sandwich_validity_on_random_graphs():
    rng = np.random.default_rng(17)
    for seed in range(10):
        g = random_graph(int(rng.integers(3, 9)), 0.5, 1000 + seed)
        r = theta_sdp(g, tol=1e-5)
        rep_g = random_rep(g, seed)
        rep_gbar = random_rep(complement(g), seed)
        for _ in range(3):
            x = rng.standard_normal(rep_g.d)
            x /= np.linalg.norm(x)
            low = theta_lower_from_rep(rep_gbar, x)
            assert low <= r.upper + 1e-6
            products = x @ rep_g.vectors
            if np.min(np.abs(products)) > 1e-12:
                assert theta_upper_from_rep(rep_g, x) >= r.lower - 1e-6


def test_monotone_under_vertex_deletion():
    for seed in range(6):
        g = random_graph(7, 0.5, 2000 + seed)
        r = theta_sdp(g, tol=1e-5)
        for v in (0, g.n - 1):
            sub = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert theta_sdp(sub, tol=1e-5).lower <= r.upper + 1e-9


def test_theta_dominates_independence_number():
    for seed in range(8):
        g = random_graph(8, 0.5, 3000 + seed)
        r = theta_sdp(g, tol=1e-5)
        assert r.upper >= brute_independence(g) - 1e-6


# --- closed-form bound plumbing -----------------------------------------------


def test_length_bound_pairs():
    lo, hi = L_bounds(cycle_graph(5), SQRT5, SQRT5)
    assert abs(lo - 5.0**0.75) <= 1e-9 and abs(hi - 5.0**0.75) <= 1e-9
    n = 7
    assert L_bounds(complete_graph(n), 1.0, float(n)) == (float(n), math.sqrt(n * n))
    lo, hi = L_bounds(empty_graph(n), float(n), 1.0)
    assert abs(lo - math.sqrt(n)) <= 1e-12 and abs(hi - math.sqrt(n)) <= 1e-12
    for pair in ((0.5, 2.0), (math.nan, SQRT5), (SQRT5, math.nan), (-math.inf, SQRT5),
                 (math.inf, SQRT5), (SQRT5, math.inf), (math.inf, math.inf), (SQRT5, -math.inf)):
        with pytest.raises(PreconditionViolated, match="always >= 1"):
            L_bounds(cycle_graph(5), *pair)


def test_transitive_identity_on_closed_forms():
    assert transitive_identity_check(complete_graph(4))
    assert transitive_identity_check(cycle_graph(5))


def test_bound_formula_reports():
    out = bound_formula_check(cycle_graph(5), "odd", 1)
    assert isinstance(out, BoundFormulaReport) and out.ok
    assert out.value_is_certified_upper
    assert abs(out.formula_bound - 180.0 ** (1.0 / 3.0)) <= 1e-12
    assert abs(out.theta_value - SQRT5) <= 1e-4

    out = bound_formula_check(polarity_graph(3), "even", 2)
    assert out.ok and abs(out.formula_bound - 24.0 * 13.0**0.25) <= 1e-12

    out = bound_formula_check(clique_union(12, 2), "odd", 1)
    assert out.ok and out.theta_value <= 432.0 ** (1.0 / 3.0)

    with pytest.raises(PreconditionViolated):
        bound_formula_check(complete_graph(3), "odd", 1)
    with pytest.raises(PreconditionViolated):
        bound_formula_check(cycle_graph(5), "diagonal", 1)


def test_bound_formula_above_the_solver_cap_uses_the_spectral_bound(monkeypatch):
    g = polarity_graph(3)
    monkeypatch.setattr(theta_mod, "SOLVER_N_CAP", g.n - 1)
    out = bound_formula_check(g, "even", 2)
    assert out.value_is_certified_upper is False
    assert out.theta_value == theta_spectral_lower_of_complement(g)
    assert out.ok and out.margin == out.formula_bound - out.theta_value


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_bound_formula_is_the_root_of_the_trace_power_bound(parity):
    # the bound trace_power_certificate takes as lam_bound: ((6t)^{2t} n)^(1/(2t+1)) or ((12t)^{2t} n)^(1/(2t))
    for t in range(1 if parity == "odd" else 2, 7):
        power = 2 * t + 1 if parity == "odd" else 2 * t
        for n in (5, 7, 13):
            formula = bound_formula_check(empty_graph(n), parity, t).formula_bound
            assert formula == cycle_free_bound(parity, t, n) ** (1 / power)
            if parity == "even":  # the paper's form 12 t n^(1/(2t)), up to rounding
                assert abs(formula - 12 * t * n ** (1 / (2 * t))) <= 1e-12 * formula
    if parity == "even":  # (660)^110 * 5 is above the float64 limit, though 12 t n^(1/(2t)) is not
        with pytest.raises(PreconditionViolated, match=r"^even-parity bound 660\^110\*5 for t = 55 exceeds the float64 limit"):
            bound_formula_check(cycle_graph(5), "even", 55)


def test_bound_formula_up_to_the_float64_limit():
    out = bound_formula_check(cycle_graph(5), "odd", 60)
    assert out.ok and out.formula_bound == float(360**120 * 5) ** (1.0 / 121)
    for t in (61, 200):
        with pytest.raises(PreconditionViolated, match="exceeds the float64 limit"):
            bound_formula_check(cycle_graph(5), "odd", t)
