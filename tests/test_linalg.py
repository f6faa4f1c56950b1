"""Eigensolver and symmetric-matrix tests.

numpy.linalg.eigh serves as the independent oracle for the in-house solver.
"""

import tracemalloc

import numpy as np
import pytest

from thetalab import linalg
from thetalab.errors import ConvergenceFailure, PreconditionViolated
from thetalab.graph import complete_graph, cycle_graph
from thetalab.linalg import (
    _ql_implicit,
    adjacency_sym,
    eigen_sym,
    eigh_dense,
    eigvals_sym,
    psd_project_dense,
    sym_from_dense,
)


def random_sym(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# SymMatrix construction
# ---------------------------------------------------------------------------


def test_pack_roundtrip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 20):
        a = random_sym(n, rng)
        m = sym_from_dense(a)
        assert m.n == n
        assert np.allclose(m.dense(), a)


def test_asymmetric_rejected():
    with pytest.raises(PreconditionViolated):
        sym_from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_asymmetry_is_measured_against_one_tolerance():
    for d, ok in ((0.5 * linalg.SYMMETRY_TOL * 1000.0, True), (2.0 * linalg.SYMMETRY_TOL * 1000.0, False)):
        a = np.array([[1000.0, 1.0], [1.0 + d, 0.0]])
        if ok:
            assert sym_from_dense(a).dense()[0, 1] == (a[0, 1] + a[1, 0]) / 2.0
        else:
            with pytest.raises(PreconditionViolated, match="not symmetric"):
                sym_from_dense(a)


def test_non_square_rejected():
    for a in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(PreconditionViolated, match="expected a square matrix"):
            sym_from_dense(a)


def test_nonfinite_rejected():
    with pytest.raises(PreconditionViolated):
        sym_from_dense(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_symmetrization_overflow_rejected():
    # (a + a.T) / 2 overflows on the diagonal although every entry is finite
    with pytest.raises(PreconditionViolated, match="overflow"):
        sym_from_dense(np.array([[1.7e308, 0.0], [0.0, 1.0]]))
    assert sym_from_dense(np.array([[8e307, 0.0], [0.0, 1.0]])).dense()[0, 0] == 8e307


# ---------------------------------------------------------------------------
# eigen_sym examples
# ---------------------------------------------------------------------------


def test_two_by_two():
    spec = eigen_sym(sym_from_dense([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])


def test_c5_circulant_spectrum():
    # oracle: circulant eigenvalues 2cos(2*pi*k/5), k = 0..4
    expect = sorted((2.0 * np.cos(2.0 * np.pi * k / 5.0) for k in range(5)), reverse=True)
    spec = eigen_sym(adjacency_sym(cycle_graph(5)))
    assert np.allclose(spec.eigenvalues, expect, atol=1e-10)
    # frozen values: {2, 0.618034, 0.618034, -1.618034, -1.618034}
    assert np.allclose(spec.eigenvalues, [2.0, 0.6180339887, 0.6180339887, -1.6180339887, -1.6180339887], atol=1e-9)


def test_k4_spectrum():
    spec = eigen_sym(adjacency_sym(complete_graph(4)))
    assert np.allclose(spec.eigenvalues, [3.0, -1.0, -1.0, -1.0], atol=1e-10)


def test_descending_and_orthonormal():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 13, 40):
        a = random_sym(n, rng)
        spec = eigen_sym(sym_from_dense(a))
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-8


def test_residual_bound_500_random():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 51))
        a = random_sym(n, rng, scale=float(rng.uniform(0.1, 100.0)))
        m = sym_from_dense(a)
        spec = eigen_sym(m)
        assert spec.residual <= 1e-9 * n * max(float(np.max(np.abs(m.dense()))), 1e-300)


def test_against_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 31))
        a = random_sym(n, rng)
        vals, _ = eigh_dense(a)
        oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(vals, oracle, atol=1e-9 * max(1.0, np.abs(oracle).max()))


def test_deterministic():
    rng = np.random.default_rng(4)
    a = random_sym(12, rng)
    s1 = eigen_sym(sym_from_dense(a))
    s2 = eigen_sym(sym_from_dense(a.copy()))
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_trace_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 25))
        a = random_sym(n, rng)
        spec = eigen_sym(sym_from_dense(a))
        scale = max(1.0, np.abs(a).max() * n)
        assert abs(np.sum(spec.eigenvalues) - np.trace(a)) <= 1e-8 * scale
        assert abs(np.sum(spec.eigenvalues**2) - np.trace(a @ a)) <= 1e-8 * scale**2


def test_values_only_spectrum():
    a = random_sym(9, np.random.default_rng(10))
    spec = eigvals_sym(sym_from_dense(a))
    assert spec.eigenvectors is None and spec.residual is None
    assert np.array_equal(spec.eigenvalues, eigen_sym(sym_from_dense(a)).eigenvalues)
    for spectrum in (eigen_sym, eigvals_sym):
        with pytest.raises(PreconditionViolated, match="spectrum needs n >= 1"):
            spectrum(sym_from_dense(np.zeros((0, 0))))


def test_ql_cap_zero_raises_on_a_coupled_pair():
    for zt in (None, np.eye(2)):
        with pytest.raises(ConvergenceFailure, match="cap 0"):
            _ql_implicit([1.0, 2.0], [1.0, 0.0], zt, iter_cap=0)


def test_eigh_counts_sweeps_against_30n(monkeypatch):
    calls = []

    def spy(d, e, zt, iter_cap):
        start = (list(d), list(e))
        sweeps = _ql_implicit(d, e, zt, iter_cap)
        calls.append((len(d), iter_cap, sweeps, start))
        return sweeps

    monkeypatch.setattr(linalg, "_ql_implicit", spy)
    rng = np.random.default_rng(11)
    for n in (2, 7, 20):
        a = random_sym(n, rng)
        eigh_dense(a)
        eigh_dense(a, vectors=False)
    assert [c[0] for c in calls] == [2, 2, 7, 7, 20, 20]
    for n, cap, sweeps, (d, e) in calls:
        assert cap == 30 * n and 1 <= sweeps <= cap
        # the cap bounds exactly the sweeps counted
        assert _ql_implicit(list(d), list(e), None, sweeps) == sweeps
        with pytest.raises(ConvergenceFailure):
            _ql_implicit(list(d), list(e), None, sweeps - 1)


def test_eigh_rotation_record_stays_small():
    # the rotation record is applied every 64 n rotations; kept whole for
    # this matrix it peaks at 17.6 MB, and the solver that rotates one
    # column pair at a time peaks at 3.0 MB: allow twice that
    a = random_sym(300, np.random.default_rng(12))
    tracemalloc.start()
    try:
        eigh_dense(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0e6


# ---------------------------------------------------------------------------
# trace powers and numeric rank, read off one Spectrum
# ---------------------------------------------------------------------------


def test_trace_power_examples():
    assert eigvals_sym(sym_from_dense(np.eye(3))).power_sum(5) == pytest.approx(3.0)
    assert eigvals_sym(adjacency_sym(cycle_graph(5))).power_sum(2) == pytest.approx(10.0, abs=1e-9)
    # oracle: direct cube of adjacency(K4); diagonal of A^3 counts closed 3-walks
    a = adjacency_sym(complete_graph(4)).dense()
    assert np.trace(a @ a @ a) == pytest.approx(24.0)
    assert eigvals_sym(adjacency_sym(complete_graph(4))).power_sum(3) == pytest.approx(24.0, abs=1e-8)


def test_trace_power_vs_direct_k_le_6():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 31))
        a = random_sym(n, rng)
        spec = eigvals_sym(sym_from_dense(a))
        prod = np.eye(n)
        for k in range(1, 7):
            prod = prod @ a
            direct = float(np.trace(prod))
            viaspec = spec.power_sum(k)
            assert abs(viaspec - direct) <= 1e-6 * max(1.0, abs(direct))


def test_trace_power_k_bounds():
    spec = eigvals_sym(sym_from_dense(np.eye(2)))
    with pytest.raises(PreconditionViolated):
        spec.power_sum(0)
    with pytest.raises(PreconditionViolated):
        spec.power_sum(65)


def test_numeric_rank_examples():
    assert eigvals_sym(sym_from_dense(np.ones((3, 3)))).rank() == 1
    assert eigvals_sym(sym_from_dense(np.eye(5))).rank() == 5
    assert eigvals_sym(sym_from_dense(np.zeros((4, 4)))).rank() == 0


def test_numeric_rank_projection():
    rng = np.random.default_rng(7)
    for r in (1, 2, 5):
        v = rng.standard_normal((10, r))
        assert eigvals_sym(sym_from_dense(v @ v.T)).rank() == r


# ---------------------------------------------------------------------------
# psd_project_dense
# ---------------------------------------------------------------------------


def test_psd_project_examples():
    assert np.allclose(psd_project_dense(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]))
    out = psd_project_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_psd_project_fixed_point_and_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        b = rng.standard_normal((n, n))
        psd = sym_from_dense(b @ b.T).dense()
        out = psd_project_dense(psd)
        assert np.max(np.abs(out - psd)) <= 1e-9 * max(1.0, np.abs(psd).max())
        again = psd_project_dense(sym_from_dense(out).dense())
        assert np.max(np.abs(again - out)) <= 1e-8


def test_psd_project_nearest_oracle():
    # independent oracle: clamp via numpy.linalg.eigh
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = random_sym(5, rng)
        vals, vecs = np.linalg.eigh(a)
        oracle = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        ours = psd_project_dense(a)
        assert np.max(np.abs(ours - oracle)) < 1e-9
        assert np.linalg.eigvalsh(ours).min() >= -1e-9
