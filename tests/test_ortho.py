"""Representation machinery tests.

Frozen oracle values, computed from closed forms before the module was
written: the five-vector umbrella has axis inner products squared equal to
5^(-1/2) = 0.4472135954999579, vector sum length 5^(3/4) =
3.3437015248821106, and certifies sqrt(5) = 2.23606797749979 on both sides
of the 5-cycle.
"""

import itertools
import sys

import numpy as np
import pytest

from thetalab import linalg as linalg_mod
from thetalab import ortho as ortho_mod
from thetalab.constructions import clique_union, clique_union_parts, polarity_graph
from thetalab.errors import (
    DimensionMismatch,
    NotACliqueCover,
    PreconditionViolated,
    RepInvalid,
    UnsupportedPattern,
)
from thetalab.graph import Graph, complete_graph, contains_cycle, cycle_graph, empty_graph, from_edges
from thetalab.linalg import eigvals_sym, sym_from_dense
from thetalab.theta import bound_formula_check, theta_lower_from_rep, theta_upper_from_rep
from thetalab.ortho import (
    OrthoRep,
    basis_rep_from_clique_cover,
    cycle_free_bound,
    gram,
    greedy_clique_cover,
    msr_lower_chain_check,
    msr_upper_certificate,
    random_rep,
    rep_from_json,
    rep_sum_length,
    rep_sum_length_aligned,
    rep_to_json,
    schnirelmann_check,
    trace_power_certificate,
    umbrella_rep,
    validate_rep,
)

AXIS_SQ = 0.4472135954999579  # 5^(-1/2)
SUM_LEN = 3.3437015248821106  # 5^(3/4)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# --- umbrella oracle --------------------------------------------------------


def test_umbrella_validates_and_hits_axis_values():
    for of_complement in (False, True):
        rep = umbrella_rep(of_complement)
        res = validate_rep(rep, rep.target)
        assert res.ok and res.max_residual <= 1e-10
        axis = np.array([0.0, 0.0, 1.0])
        sq = (axis @ rep.vectors) ** 2
        assert np.max(np.abs(sq - AXIS_SQ)) <= 1e-12


def test_umbrella_targets_are_the_two_pentagons():
    assert umbrella_rep(False).target == cycle_graph(5)
    g = umbrella_rep(True).target
    assert g.edge_count() == 5 and not g.has_edge(0, 1) and g.has_edge(0, 2)


def test_umbrella_sum_length():
    rep = umbrella_rep(False)
    assert abs(rep_sum_length(rep) - SUM_LEN) <= 1e-9
    assert abs(rep_sum_length_aligned(rep, np.array([0.0, 0.0, 1.0])) - SUM_LEN) <= 1e-9


# --- validation and gram ----------------------------------------------------


def test_validate_basis_and_constant_reps():
    n = 4
    basis = OrthoRep(n, np.eye(n), empty_graph(n))
    res = validate_rep(basis, empty_graph(n))
    assert res.ok and res.max_residual == 0.0

    same = OrthoRep(2, np.tile(np.array([[1.0], [0.0]]), (1, n)), complete_graph(n))
    assert validate_rep(same, complete_graph(n)).ok

    bad = OrthoRep(2, np.tile(np.array([[1.0], [0.0]]), (1, 2)), empty_graph(2))
    res = validate_rep(bad, empty_graph(2))
    assert not res.ok and abs(res.max_residual - 1.0) <= 1e-12


def test_validate_dimension_mismatch():
    rep = OrthoRep(3, np.eye(3), empty_graph(3))
    with pytest.raises(DimensionMismatch):
        validate_rep(rep, empty_graph(4))
    with pytest.raises(DimensionMismatch):
        OrthoRep(2, np.eye(3), empty_graph(3))


def test_rep_refuses_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(RepInvalid, match="non-finite vector entries"):
            OrthoRep(1, np.array([[bad, 1.0]]), complete_graph(2))


def test_gram_blocks():
    g = clique_union(4, 2)
    rep = basis_rep_from_clique_cover(g, clique_union_parts(4, 2))
    expected = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    assert np.array_equal(gram(rep).dense(), expected)
    assert np.array_equal(gram(basis_rep_from_clique_cover(empty_graph(3), [[0], [1], [2]])).dense(), np.eye(3))


def test_gram_overflow_is_a_precondition_violation():
    rep = OrthoRep(1, np.array([[1.7e308, 1.0]]), from_edges(2, [(0, 1)]))
    with pytest.raises(PreconditionViolated, match="overflows"):
        gram(rep)


@pytest.mark.parametrize("entry", [1e200, 1.3e154])  # v^T v overflows; v^T v is finite but its m + m^T is not
def test_every_gram_reader_refuses_an_overflowing_gram(entry):
    g = from_edges(2, [(0, 1)])
    rep = OrthoRep(1, np.array([[entry, 1.0]]), g)
    for read in (gram, lambda r: validate_rep(r, g), rep_sum_length, lambda r: msr_lower_chain_check(r, g, 1)):
        with pytest.raises(PreconditionViolated, match="Gram matrix overflows float64"):
            read(rep)


def test_umbrella_gram_orthogonal_pairs():
    gm = gram(umbrella_rep(False)).dense()
    for k in range(5):
        assert abs(gm[k, (k + 2) % 5]) <= 1e-12


# --- covers and generated reps ----------------------------------------------


def test_basis_rep_examples():
    assert basis_rep_from_clique_cover(clique_union(9, 3), clique_union_parts(9, 3)).d == 3
    assert basis_rep_from_clique_cover(complete_graph(5), [range(5)]).d == 1
    rep = basis_rep_from_clique_cover(empty_graph(4), [[v] for v in range(4)])
    assert rep.d == 4 and validate_rep(rep, empty_graph(4)).max_residual == 0.0


def test_basis_rep_rejects_bad_covers():
    with pytest.raises(NotACliqueCover):
        basis_rep_from_clique_cover(empty_graph(2), [[0, 1]])
    with pytest.raises(NotACliqueCover):
        basis_rep_from_clique_cover(complete_graph(3), [[0, 1]])
    with pytest.raises(NotACliqueCover):
        basis_rep_from_clique_cover(complete_graph(2), [[0, 1], [1]])


def test_greedy_cover_is_a_cover():
    for seed in range(5):
        g = random_graph(9, 0.4, seed + 100)
        parts = greedy_clique_cover(g, seed)
        assert sorted(v for p in parts for v in p) == list(range(9))
        for p in parts:
            assert all(g.has_edge(u, w) for u, w in itertools.combinations(p, 2))


def test_random_rep_validates_and_is_deterministic():
    for seed in (0, 1, 42):
        for g in (cycle_graph(5), random_graph(10, 0.5, seed), empty_graph(6), complete_graph(6)):
            rep = random_rep(g, seed)
            assert rep.d == g.n
            res = validate_rep(rep, g)
            assert res.ok and res.max_residual <= 1e-10
    a = random_rep(cycle_graph(5), 7).vectors
    b = random_rep(cycle_graph(5), 7).vectors
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_rep(cycle_graph(5), 8).vectors)


def test_random_rep_of_empty_graph_is_a_rotated_basis():
    rep = random_rep(empty_graph(5), 3)
    gm = rep.vectors.T @ rep.vectors
    assert np.max(np.abs(gm - np.eye(5))) <= 1e-10


def brute_independent_sets(g: Graph):
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                yield sub


def test_parseval_bounds_for_generated_reps():
    rng = np.random.default_rng(5)
    for seed in range(6):
        g = random_graph(8, 0.45, seed)
        rep = random_rep(g, seed)
        for _ in range(5):
            x = rng.standard_normal(rep.d)
            x /= np.linalg.norm(x)
            sq = (x @ rep.vectors) ** 2
            assert sq.sum() <= rep.d + 1e-9
            for sub in brute_independent_sets(g):
                assert sq[list(sub)].sum() <= 1.0 + 1e-9


# --- trace inequalities ------------------------------------------------------


def test_schnirelmann_equality_cases():
    rep_i = schnirelmann_check(sym_from_dense(np.eye(6)))
    assert rep_i.ok and abs(rep_i.slack) <= 1e-6 and rep_i.rank == 6

    g = clique_union(4, 2)
    m = gram(basis_rep_from_clique_cover(g, clique_union_parts(4, 2)))
    rep_b = schnirelmann_check(m)
    assert rep_b.ok and rep_b.rank == 2
    assert abs(rep_b.lhs - 16.0) <= 1e-9 and abs(rep_b.rhs - 16.0) <= 1e-6

    rep_d = schnirelmann_check(sym_from_dense(np.diag([1.0, 0.0])))
    assert rep_d.ok and abs(rep_d.slack) <= 1e-6 and rep_d.rank == 1


def test_schnirelmann_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        r = rng.standard_normal((n, n))
        rep = schnirelmann_check(sym_from_dense(r.T @ r))
        assert rep.ok
        assert rep.slack >= -1e-6 * max(1.0, rep.lhs, rep.rhs)


def test_msr_upper_certificate_cases(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the msr certificate formed a Gram matrix")

    with monkeypatch.context() as m:
        m.setattr(ortho_mod, "gram", refuse)
        certs = [msr_upper_certificate(10, 3, "C4"), msr_upper_certificate(7, 2, "K3"),
                 msr_upper_certificate(6, 2, "C3")]
    assert [rep.d for rep, _ in certs] == [4, 4, 3]
    assert certs[0][1] == clique_union(10, 3) and not contains_cycle(certs[0][1], 4)
    for rep, g in certs:
        assert validate_rep(rep, g).max_residual == 0.0
    with pytest.raises(UnsupportedPattern):
        msr_upper_certificate(6, 2, "K2,3")
    with pytest.raises(PreconditionViolated):
        msr_upper_certificate(10, 5, "C4")


def test_msr_chain_on_block_reps():
    g = clique_union(9, 3)
    rep = basis_rep_from_clique_cover(g, clique_union_parts(9, 3))
    out = msr_lower_chain_check(rep, g, 3)
    assert out.ok and out.trace_link_ok and out.chain_ok
    assert abs(out.trace_sq - 27.0) <= 1e-9

    basis = basis_rep_from_clique_cover(empty_graph(5), [[v] for v in range(5)])
    out = msr_lower_chain_check(basis, empty_graph(5), 4)
    assert out.ok and abs(out.trace_sq - 5.0) <= 1e-9


def test_msr_chain_makes_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the msr chain decomposed its Gram matrix")

    monkeypatch.setattr(ortho_mod, "eigvals_sym", refuse)
    monkeypatch.setattr(linalg_mod, "eigh_dense", refuse)
    g = clique_union(5, 2)
    out = msr_lower_chain_check(basis_rep_from_clique_cover(g, clique_union_parts(5, 2)), g, 2)
    # parts 2, 2, 1: tr(M^2) = 9 exactly, below n t = 10, and 25 <= 3 * 9
    assert out.ok and out.trace_sq == 9.0 and out.dimension == 3


def test_msr_chain_trace_is_the_spectral_power_sum():
    for seed in range(5):
        g = random_graph(9, 0.4, seed)
        rep = random_rep(g, seed)
        out = msr_lower_chain_check(rep, g, 9)
        assert abs(out.trace_sq - eigvals_sym(gram(rep)).power_sum(2)) <= 1e-12 * out.trace_sq


def test_msr_chain_on_the_empty_representation():
    out = msr_lower_chain_check(OrthoRep(2, np.zeros((2, 0)), empty_graph(0)), empty_graph(0), 1)
    assert out.ok and out.trace_sq == 0.0 and out.n == 0


def test_spectral_certificates_refuse_the_empty_representation():
    rep = OrthoRep(2, np.zeros((2, 0)), empty_graph(0))
    with pytest.raises(PreconditionViolated, match="spectrum needs n >= 1"):
        schnirelmann_check(gram(rep))
    with pytest.raises(PreconditionViolated, match="spectrum needs n >= 1"):
        trace_power_certificate(rep, rep.target, 1, "odd")


def test_certificates_take_a_t_beyond_the_float64_range():
    huge = 10**400
    g = clique_union(9, 3)
    out = msr_lower_chain_check(basis_rep_from_clique_cover(g, clique_union_parts(9, 3)), g, huge)
    assert out.ok and out.trace_link_ok and out.t == huge
    rep = umbrella_rep(False)
    for parity in ("odd", "even"):
        with pytest.raises(PreconditionViolated, match="exceeds the float64 limit"):
            cycle_free_bound(parity, huge, 5)
        with pytest.raises(PreconditionViolated, match="exceeds the float64 limit"):
            trace_power_certificate(rep, rep.target, huge, parity)
        with pytest.raises(PreconditionViolated, match=f"{parity}-parity bound .* exceeds the float64 limit"):
            bound_formula_check(cycle_graph(5), parity, huge)


def test_float64_limit_refusals_name_a_t_of_over_4300_digits_by_its_bit_length():
    # Python refuses the decimal of 10**5000; these refusals raised that ValueError while formatting their message
    huge = 10**5000
    rep = umbrella_rep(False)
    for parity in ("odd", "even"):
        for refuse in (lambda: cycle_free_bound(parity, huge, 5),
                       lambda: trace_power_certificate(rep, rep.target, huge, parity),
                       lambda: bound_formula_check(cycle_graph(5), parity, huge)):
            with pytest.raises(PreconditionViolated, match="exceeds the float64 limit 1.7976931348623157e[+]308") as info:
                refuse()
            assert str(info.value).startswith(f"{parity}-parity bound ") and "for a 16610-bit t " in str(info.value)
    # t is shown in decimal up to the float64 limit, and by its bit length past it
    top = int(sys.float_info.max)
    with pytest.raises(PreconditionViolated, match=f"for t = {top} exceeds"):
        cycle_free_bound("odd", top, 5)
    with pytest.raises(PreconditionViolated, match="for a 1024-bit t exceeds"):
        cycle_free_bound("odd", top + 1, 5)


def test_msr_chain_rejects_tree_size_below_one():
    g = clique_union(9, 3)
    rep = basis_rep_from_clique_cover(g, clique_union_parts(9, 3))
    for t in (0, -1):
        with pytest.raises(PreconditionViolated, match="t >= 1"):
            msr_lower_chain_check(rep, g, t)


def test_msr_chain_on_random_c4_free_graph():
    seed = 0
    while True:
        g = random_graph(10, 0.15, seed)
        if not contains_cycle(g, 4):
            break
        seed += 1
    rep = random_rep(g, 123)
    out = msr_lower_chain_check(rep, g, 3)
    assert out.trace_link_ok and out.trace_sq <= 30.0 + 1e-6


def test_msr_chain_rejects_invalid_rep():
    g = empty_graph(3)
    rep = OrthoRep(3, 2.0 * np.eye(3), g)
    x = np.array([1.0, 0.0, 0.0])
    checks = (lambda: msr_lower_chain_check(rep, g, 2), lambda: trace_power_certificate(rep, g, 1, "odd"),
              lambda: theta_upper_from_rep(rep, x), lambda: theta_lower_from_rep(rep, x))
    for check in checks:
        with pytest.raises(RepInvalid, match="rep residual 3.0 exceeds tolerance"):
            check()


def test_trace_power_certificates():
    rep = umbrella_rep(False)
    out = trace_power_certificate(rep, rep.target, 1, "odd")
    assert out.ok and out.power == 3 and out.bound == 180.0
    assert out.trace_value <= 180.0 and out.lam_top <= out.lam_bound + 1e-8

    g = polarity_graph(3)
    rep = random_rep(g, 9)
    out = trace_power_certificate(rep, g, 2, "even")
    assert out.ok and out.power == 4 and out.bound == float(24**4 * 13)

    basis = basis_rep_from_clique_cover(empty_graph(6), [[v] for v in range(6)])
    out = trace_power_certificate(basis, empty_graph(6), 2, "odd")
    assert out.ok and abs(out.trace_value - 6.0) <= 1e-9


def test_trace_power_preconditions():
    tri = complete_graph(3)
    rep = random_rep(tri, 0)
    with pytest.raises(PreconditionViolated):
        trace_power_certificate(rep, tri, 1, "odd")
    with pytest.raises(PreconditionViolated):
        trace_power_certificate(rep, tri, 1, "even")
    with pytest.raises(PreconditionViolated):
        trace_power_certificate(rep, tri, 1, "sideways")
    with pytest.raises(PreconditionViolated, match="odd parity needs t >= 1"):
        trace_power_certificate(rep, tri, 0, "odd")


def test_cycle_free_bound_is_exact_up_to_the_float64_limit():
    assert cycle_free_bound("odd", 1, 5) == 180.0 and cycle_free_bound("even", 2, 13) == float(24**4 * 13)
    assert cycle_free_bound("odd", 60, 5) == float(360**120 * 5)  # about 2.9e307
    for parity, t in (("odd", 61), ("odd", 200), ("even", 10**11)):
        with pytest.raises(PreconditionViolated, match="exceeds the float64 limit 1.7976931348623157e[+]308"):
            cycle_free_bound(parity, t, 5)


def test_trace_power_refuses_t_beyond_its_limits():
    rep = umbrella_rep(False)
    # refused before the bound's power is computed: 1200000000000^200000000000 has 8e12 bits
    for t, parity in ((200, "odd"), (10**11, "even")):
        with pytest.raises(PreconditionViolated, match="exceeds the float64 limit"):
            trace_power_certificate(rep, rep.target, t, parity)
    # the bound fits, but tr(M^121) is above the power sums the spectrum takes
    with pytest.raises(PreconditionViolated, match="trace power 121 for t = 60 is above the power-sum limit 64"):
        trace_power_certificate(rep, rep.target, 60, "odd")
    out = trace_power_certificate(rep, rep.target, 31, "odd")
    assert out.ok and out.power == 63 and out.bound == float(186**62 * 5)


# --- sum lengths and serialization -------------------------------------------


def test_sum_length_closed_forms():
    n = 5
    same = OrthoRep(2, np.tile(np.array([[1.0], [0.0]]), (1, n)), complete_graph(n))
    assert abs(rep_sum_length(same) - n) <= 1e-12

    basis = basis_rep_from_clique_cover(empty_graph(n), [[v] for v in range(n)])
    assert abs(rep_sum_length(basis) - np.sqrt(n)) <= 1e-12


def test_aligned_sum_flips_signs():
    n = 4
    signs = np.diag([1.0, -1.0, 1.0, -1.0])
    rep = OrthoRep(n, np.eye(n) @ signs, empty_graph(n))
    raw = rep_sum_length(rep)
    aligned = rep_sum_length_aligned(rep, np.full(n, 1.0 / np.sqrt(n)))
    assert abs(raw - 2.0) <= 1e-12
    assert abs(aligned - 2.0) <= 1e-12  # flipping cannot change pairwise-orthogonal lengths
    same = OrthoRep(1, np.array([[1.0, -1.0, 1.0, -1.0]]), complete_graph(n))
    assert abs(rep_sum_length(same) - 0.0) <= 1e-12
    assert abs(rep_sum_length_aligned(same, np.array([1.0])) - 4.0) <= 1e-12
    with pytest.raises(DimensionMismatch, match="handle must have length 4"):
        rep_sum_length_aligned(rep, np.ones(3))


def test_rep_json_roundtrip():
    rep = random_rep(cycle_graph(6), 21)
    back = rep_from_json(rep_to_json(rep))
    assert back.d == rep.d
    assert back.target == rep.target
    assert np.allclose(back.vectors, rep.vectors, atol=1e-15)
    assert validate_rep(back, rep.target).ok
    for d in (0, 1, 3):  # no vertices: written as "vectors": [], read back as d x 0
        empty = OrthoRep(d, np.zeros((d, 0)), empty_graph(0))
        back = rep_from_json(rep_to_json(empty))
        assert back.d == d and back.vectors.shape == (d, 0) and back.target == empty.target
        assert validate_rep(back, back.target).ok
    with pytest.raises(ValueError):  # ragged rows are still refused
        rep_from_json({"d": 2, "vectors": [[1.0, 0.0], [1.0]], "graph": {"n": 2, "edges": []}})


def test_trace_power_matches_direct_power():
    rep = random_rep(random_graph(7, 0.5, 3), 3)
    m = gram(rep)
    d = m.dense()
    assert abs(eigvals_sym(m).power_sum(3) - np.trace(d @ d @ d)) <= 1e-8
