"""Dense symmetric linear algebra: read-only dense symmetric matrices, an
in-house eigendecomposition (Householder tridiagonalization + implicit-shift
QL) whose Spectrum gives trace powers and numeric rank, and PSD projection.

numpy supplies array storage and BLAS-level products only; the
eigensolver itself is local so results are reproducible across
environments with no LAPACK dependence.  The QL recurrence runs on
Python floats and records its rotations; rotation i of sweep k sits at
wavefront level 2k - i, the eigenvectors are rotated a level at a time,
and every result is bit-identical to rotating one column pair at a
time.  A values-only call (eigh_dense(a, vectors=False), eigvals_sym)
skips the Householder and rotation work on the eigenvectors, which
never feeds back into the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, PreconditionViolated
from .graph import Graph, adjacency_rows

_EPS = float(np.finfo(np.float64).eps)
POWER_SUM_MAX = 64  # largest k that Spectrum.power_sum accepts
SYMMETRY_TOL = 1e-10  # largest |a - a^T| that sym_from_dense accepts, relative to max(1, max|a|)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Exactly symmetric float64 matrix as one read-only dense array; see sym_from_dense."""

    array: np.ndarray  # (n, n), C-contiguous, not writeable

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def dense(self) -> np.ndarray:
        """The matrix itself, read-only; copy it to modify it."""
        return self.array


def sym_from_dense(a) -> SymMatrix:
    """Symmetrize a dense array into a fresh copy; asymmetry beyond
    SYMMETRY_TOL*scale, or entries whose symmetrized value overflows, is an error."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionViolated("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise PreconditionViolated("entries must be finite")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if n and float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise PreconditionViolated("matrix is not symmetric")
    with np.errstate(over="ignore"):
        sym = (a + a.T) / 2.0
    if not np.all(np.isfinite(sym)):
        raise PreconditionViolated("symmetrized entries overflow float64")
    # off-diagonal zeros are stored as +0.0: printed Gram and certificate
    # matrices show the sign of zero, and bench/references.json fixes their bytes
    sym[(sym == 0.0) & ~np.eye(n, dtype=bool)] = 0.0
    sym.flags.writeable = False
    return SymMatrix(sym)


def adjacency_sym(g: Graph) -> SymMatrix:
    return sym_from_dense(adjacency_rows(g))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition, eigenvalues descending; eigvals_sym leaves out the rest."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # orthonormal columns, aligned with eigenvalues
    residual: float | None  # max_i ||A v_i - lambda_i v_i||

    def power_sum(self, k: int) -> float:
        """tr(M^k) = sum of lambda_i^k."""
        if not 1 <= k <= POWER_SUM_MAX:
            raise PreconditionViolated(f"need 1 <= k <= {POWER_SUM_MAX}")
        return float(np.sum(self.eigenvalues**k))

    def rank(self) -> int:
        """Count of eigenvalues with |lambda| above n * max|lambda| * 2^-40,
        a cut scaling with the O(n) rounding accumulated in Gram matrices."""
        mags = np.abs(self.eigenvalues)
        return int(np.sum(mags > mags.size * float(np.max(mags)) * 2.0**-40))


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

# QL rotations recorded per matrix row before they are applied to the
# eigenvectors, which keeps the record O(n)
_FLUSH_PER_ROW = 64


def _tridiagonalize(a: np.ndarray, vectors: bool):
    """Householder reduction A = Q T Q^T; returns (diag, subdiag, Q or None).

    The diagonals are Python float lists; the subdiagonal has a trailing 0.
    """
    n = a.shape[0]
    a = a.copy()
    q = np.eye(n) if vectors else None
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        alpha = math.sqrt(x.dot(x))  # np.linalg.norm's own sum
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
        vw = v[:, None] * w
        sub -= vw + vw.T
        a[k + 1, k] = alpha
        if vectors:
            qc = q[:, k + 1 :]
            qc -= (qc @ v)[:, None] * (beta * v)
    return a.diagonal().tolist(), a.diagonal(-1).tolist() + [0.0], q


def _apply_levels(zt: np.ndarray, rot_i: list, rot_c: list, rot_s: list, rot_level: list) -> None:
    """Apply recorded rotations to the rows of zt, one wavefront level at a time.

    Rotation i of sweep k acts on rows (i, i+1) at level 2k - i.  The next
    rotation of its sweep, i - 1, shares row i one level higher.  A later
    sweep's rotation (k', i') that shares a row has |i' - i| <= 1, so its
    level 2k' - i' >= 2k - i + 1.  Two rotations on one level have
    i' - i = 2(k' - k): they are one rotation, or act on disjoint rows.
    Each flush applies everything recorded before it, so every entry sees
    the same products in the same order as rotating one pair at a time.
    A level is one update of its rows: row i takes
    c*z_i + (-s)*z_(i+1) and row i+1 takes c*z_(i+1) + s*z_i, which round
    exactly as c*z_i - s*z_(i+1) and s*z_i + c*z_(i+1).  Empties the record.
    """
    level = np.array(rot_level)
    order = np.argsort(level, kind="stable")
    rows = np.array(rot_i)[order]
    c = np.array(rot_c)[order]
    s = np.array(rot_s)[order]
    for record in (rot_i, rot_c, rot_s, rot_level):
        record.clear()
    # rotation k owns rows 2k and 2k+1 of the update
    pairs = np.stack((rows, rows + 1), axis=1)
    dest, src = pairs.ravel(), pairs[:, ::-1].ravel()
    cc = np.repeat(c, 2)[:, None]
    ss = np.stack((-s, s), axis=1).reshape(-1, 1)
    stops = np.append(np.flatnonzero(np.diff(level[order])) + 1, len(order))
    lo = 0
    for hi in (2 * stops).tolist():
        block = dest[lo:hi]
        zt[block] = cc[lo:hi] * zt.take(block, 0) + ss[lo:hi] * zt.take(src[lo:hi], 0)
        lo = hi


def _ql_implicit(d: list, e: list, zt: np.ndarray | None, iter_cap: int) -> int:
    """Implicit-shift QL on a tridiagonal (d, e) of Python floats, in place.

    Each rotation (i, c, s) also rotates rows i, i+1 of zt, the eigenvector
    matrix transposed, when zt is given; the rotations are recorded and
    applied by _apply_levels.  Returns the number of sweeps.
    """
    n = len(d)
    hypot, copysign = math.hypot, math.copysign
    record = zt is not None
    rot_i, rot_c, rot_s, rot_level = [], [], [], []
    flush_at = _FLUSH_PER_ROW * n
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
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
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
                if record:
                    rot_i.append(i)
                    rot_c.append(c)
                    rot_s.append(s)
                    rot_level.append(2 * total - i)
            if record and len(rot_i) >= flush_at:
                _apply_levels(zt, rot_i, rot_c, rot_s, rot_level)
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    if record and rot_i:
        _apply_levels(zt, rot_i, rot_c, rot_s, rot_level)
    return total


def eigh_dense(a: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a dense symmetric array.

    Returns (eigenvalues descending, eigenvector columns), or
    (eigenvalues, None) when vectors is False; the eigenvalues do not
    depend on it.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    d, e, q = _tridiagonalize(a, vectors)
    zt = q.T.copy() if vectors else None
    _ql_implicit(d, e, zt, iter_cap=30 * n)
    vals = np.array(d)
    order = np.argsort(-vals, kind="stable")
    if not vectors:
        return vals[order], None
    # Fortran order, as z[:, order] gives; later BLAS products depend on the layout
    return vals[order], zt[order].T


def eigen_sym(m: SymMatrix) -> Spectrum:
    """Full eigendecomposition with residual certificate."""
    if m.n < 1:
        raise PreconditionViolated("spectrum needs n >= 1: the empty matrix has no eigenvalues")
    a = m.dense()
    vals, vecs = eigh_dense(a)
    resid = float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)))
    return Spectrum(vals, vecs, resid)


def eigvals_sym(m: SymMatrix) -> Spectrum:
    """Eigenvalues only, descending; eigenvectors and residual are None."""
    if m.n < 1:
        raise PreconditionViolated("spectrum needs n >= 1: the empty matrix has no eigenvalues")
    return Spectrum(eigh_dense(m.dense(), vectors=False)[0], None, None)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def psd_project_dense(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix to a symmetric array: clamp negative eigenvalues to zero."""
    vals, vecs = eigh_dense(a)
    clipped = np.maximum(vals, 0.0)
    return (vecs * clipped) @ vecs.T
