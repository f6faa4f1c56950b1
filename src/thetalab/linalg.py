"""Dense symmetric linear algebra: an in-house full eigendecomposition
(Householder tridiagonalization + implicit-shift QL), trace powers,
numeric rank, and PSD projection.

numpy supplies array storage and BLAS-level products only; the
eigensolver itself is local so results are reproducible across
environments with no LAPACK dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .graph import Graph, adjacency_rows

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric matrix stored as its packed upper triangle."""

    n: int
    entries: np.ndarray  # length n(n+1)/2, row-major upper triangle
    exact: bool  # entries are integers stored exactly

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n)
        out[iu] = self.entries
        out = out + out.T
        out[np.diag_indices(self.n)] /= 2.0
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.entries.size else 0.0


def sym_from_dense(a, tol: float = 1e-10) -> SymMatrix:
    """Pack a dense symmetric array; asymmetry beyond tol*scale is an error."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if n and float(np.max(np.abs(a - a.T))) > tol * scale:
        raise ValueError("matrix is not symmetric")
    sym = (a + a.T) / 2.0
    entries = sym[np.triu_indices(n)]
    exact = bool(np.all(entries == np.round(entries)))
    return SymMatrix(n, entries, exact)


def adjacency_dense(g: Graph) -> np.ndarray:
    return adjacency_rows(g).astype(np.float64)


def adjacency_sym(g: Graph) -> SymMatrix:
    return sym_from_dense(adjacency_dense(g))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # orthonormal columns, aligned with eigenvalues
    residual: float  # max_i ||A v_i - lambda_i v_i||

    def power_sum(self, k: int) -> float:
        """tr(M^k) = sum of lambda_i^k."""
        if not 1 <= k <= 64:
            raise ValueError("need 1 <= k <= 64")
        return float(np.sum(self.eigenvalues**k))

    def rank(self, tol: float | None = None) -> int:
        """Count of eigenvalues with |lambda| above tol.

        Default tol = n * max|lambda| * 2^-40, scaling with the O(n) rounding
        accumulated in Gram matrices.
        """
        mags = np.abs(self.eigenvalues)
        if tol is None:
            tol = mags.size * float(np.max(mags)) * 2.0**-40
        return int(np.sum(mags > tol))


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def _tridiagonalize(a: np.ndarray):
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


def _ql_implicit(d: np.ndarray, e: np.ndarray, z: np.ndarray, iter_cap: int):
    """Implicit-shift QL on a tridiagonal (d, e); rotations accumulate into z."""
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


def eigh_dense(a: np.ndarray):
    """Eigendecomposition of a dense symmetric array.

    Returns (eigenvalues descending, eigenvector columns).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy(), np.ones((1, 1))
    d, e, z = _tridiagonalize(a)
    _ql_implicit(d, e, z, iter_cap=30 * n)
    order = np.argsort(-d, kind="stable")
    return d[order], z[:, order]


def eigen_sym(m: SymMatrix) -> Spectrum:
    """Full eigendecomposition with residual certificate."""
    if m.n < 1:
        raise ValueError("need n >= 1")
    a = m.dense()
    vals, vecs = eigh_dense(a)
    resid = float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0))) if m.n else 0.0
    return Spectrum(vals, vecs, resid)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def trace_power(m: SymMatrix, k: int) -> float:
    """tr(M^k) = sum of lambda_i^k, from the spectrum."""
    return eigen_sym(m).power_sum(k)


def numeric_rank(m: SymMatrix, tol: float | None = None) -> int:
    """Count of eigenvalues with |lambda| above tol; see Spectrum.rank."""
    return eigen_sym(m).rank(tol)


def psd_project_dense(a: np.ndarray) -> np.ndarray:
    vals, vecs = eigh_dense(a)
    clipped = np.maximum(vals, 0.0)
    return (vecs * clipped) @ vecs.T


def psd_project(m: SymMatrix) -> SymMatrix:
    """Frobenius-nearest PSD matrix: clamp negative eigenvalues to zero."""
    return sym_from_dense(psd_project_dense(m.dense()))
