"""Certified two-sided computation of the Lovász theta number.

Every reported value is a sandwich: the lower end is the objective of an
explicit feasible primal matrix (PSD, unit trace, zero on edges), the
upper end the top eigenvalue of an explicit dual matrix (ones on the
diagonal and on non-edges).  Certificates are revalidated when the result
object is built, so a solver bug cannot silently produce a wrong value.

The solver alternates a primal ascent (cyclic projection onto the PSD and
affine constraint sets with a running correction term) with a dual
descent on the edge entries (top-eigenvector subgradient steps with a
1/sqrt(k) schedule and best-iterate tracking, restarted from the
correction term's edge pattern whenever that candidate is better).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ortho is reached through its lazily registered module, so only the
# representation and bound-formula functions load it
from . import ortho
from .errors import (
    ComplexityRefused,
    GapNotReached,
    HandleOrthogonalToVector,
    NoEdges,
    PreconditionViolated,
)
from .graph import Graph, adjacency_rows, complement
from .linalg import SymMatrix, adjacency_sym, eigh_dense, eigvals_sym, psd_project_dense, sym_from_dense

DEFAULT_TOL = 1e-6
DEFAULT_ITERATION_CAP = 50_000
SOLVER_N_CAP = 200  # largest graph the dense solver accepts
TRANSITIVE_TOL = 1e-4
_CERT_EVERY = 5


@dataclass(frozen=True, eq=False)
class ThetaResult:
    """Primal/dual sandwich with machine-checkable certificates."""

    lower: float
    upper: float
    gap: float
    primal_x: SymMatrix
    dual_b: SymMatrix
    iterations: int
    graph: Graph

    def __post_init__(self):
        x = self.primal_x.dense()
        if abs(float(np.trace(x)) - 1.0) > 1e-8:
            raise PreconditionViolated("primal certificate trace differs from 1")
        b = self.dual_b.dense()
        edge = np.triu(adjacency_rows(self.graph) != 0, k=1)
        # the first wrong entry of b in row-major upper-triangle order names the error
        wrong = np.argwhere(np.triu(b != 1.0) & ~edge)
        if wrong.size:
            u, v = wrong[0]
            if u == v:
                raise PreconditionViolated("dual certificate diagonal not exactly 1")
            raise PreconditionViolated("dual certificate non-edge entry not exactly 1")
        worst_pattern = float(np.max(np.abs(x[edge]))) if edge.any() else 0.0
        if worst_pattern > 1e-8:
            raise PreconditionViolated(f"primal certificate edge residual {worst_pattern}")
        vals, _ = eigh_dense(x, vectors=False)
        if float(vals[-1]) < -1e-8:
            raise PreconditionViolated(f"primal certificate eigenvalue {float(vals[-1])}")
        if abs(float(x.sum()) - self.lower) > 1e-8 * max(1.0, abs(self.lower)):
            raise PreconditionViolated("lower bound does not match primal certificate")
        bvals, _ = eigh_dense(b, vectors=False)
        if abs(float(bvals[0]) - self.upper) > 1e-8 * max(1.0, abs(self.upper)):
            raise PreconditionViolated("upper bound does not match dual certificate")
        if self.gap < -1e-9 or abs(self.gap - (self.upper - self.lower)) > 1e-12:
            raise PreconditionViolated("gap field inconsistent with bounds")


def theta_sdp(g: Graph, tol: float = DEFAULT_TOL, iteration_cap: int = DEFAULT_ITERATION_CAP) -> ThetaResult:
    """Bracket the theta number of g to within tol.

    Maximizes <J, X> over PSD unit-trace matrices vanishing on edges,
    against the dual min lambda_max over matrices fixed to one off the
    edge set.  Deterministic start (X = I/n, dual = J).  Raises
    GapNotReached, carrying the partial result, if the cap runs out.
    """
    n = g.n
    if n < 1:
        raise PreconditionViolated("graph must have at least one vertex")
    if n > SOLVER_N_CAP:
        raise ComplexityRefused(f"n = {n} exceeds solver cap {SOLVER_N_CAP}")
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise PreconditionViolated(f"tol must be finite and >= 1e-8, got {tol}")
    if iteration_cap < 1:
        raise PreconditionViolated(f"iteration_cap must be >= 1, got {iteration_cap}")

    rows, cols = np.nonzero(adjacency_rows(g))
    eye = np.eye(n)
    ones = np.ones((n, n))
    diag = np.diag_indices(n)

    def affine_project(m: np.ndarray) -> np.ndarray:  # m is a fresh temporary, projected in place
        m[rows, cols] = 0.0
        m[diag] -= (np.trace(m) - 1.0) / n
        return m

    def certified_value(xc: np.ndarray) -> tuple[float, np.ndarray]:
        # absorb any negative eigenvalue by mixing toward I/n; the mix
        # keeps the zero pattern and unit trace exactly
        xc = (xc + xc.T) / 2.0  # edge entries are 0 in both triangles
        lam_min = float(eigh_dense(xc, vectors=False)[0][-1])
        if lam_min < 0.0:
            shift = -lam_min
            xc = (xc + shift * eye) / (1.0 + shift * n)
        return float(xc.sum()), xc

    def dual_from_edges(src: np.ndarray) -> np.ndarray:
        out = ones.copy()
        out[rows, cols] = src[rows, cols]
        return out

    def top_value(b: np.ndarray) -> float:
        return float(eigh_dense(b, vectors=False)[0][0])

    x = eye / n
    y = x
    corr = np.zeros((n, n))
    rho = float(max(n, 2))
    b_sub = ones
    b_sub_top = top_value(b_sub)

    best_lower, best_x = certified_value(x)
    best_upper, best_b = b_sub_top, b_sub
    rounds = 0
    iterations = 0

    while best_upper - best_lower > tol and iterations < iteration_cap:
        iterations += 1
        # (a) primal: objective tilt, then one cyclic-projection sweep
        x = affine_project(y - (corr - ones) / rho)
        y = psd_project_dense(x + corr / rho)
        corr += rho * (x - y)

        if iterations % _CERT_EVERY and iterations > 10:
            continue  # certify every sweep early, then every fifth
        rounds += 1
        value, certified = certified_value(x)
        if value > best_lower:
            best_lower, best_x = value, certified

        # (b) dual candidates, ranked by top eigenvalue: correction-term harvest and subgradient iterate
        harvest = dual_from_edges(corr)
        h_top = top_value(harvest)
        if h_top < best_upper:
            best_upper, best_b = h_top, harvest
        if b_sub_top < best_upper:
            best_upper, best_b = b_sub_top, b_sub
        if best_upper - best_lower <= tol:
            break
        if rows.size:  # a step needs edges; its base's top eigenvector is the one read
            base = b_sub if b_sub_top <= h_top else harvest
            top_vec = eigh_dense(base)[1][:, 0]
            b_sub = base.copy()  # the subgradient is zero off the edges
            b_sub[rows, cols] -= (1.0 / math.sqrt(rounds)) * (top_vec[rows] * top_vec[cols])
            b_sub_top = top_value(b_sub)

    result = ThetaResult(
        lower=best_lower,
        upper=best_upper,
        gap=best_upper - best_lower,
        primal_x=sym_from_dense(best_x),
        dual_b=sym_from_dense(best_b),
        iterations=iterations,
        graph=g,
    )
    if result.gap > tol:
        raise GapNotReached(
            f"gap {result.gap:.3e} above tol {tol:.1e} after {iterations} iterations",
            result=result,
        )
    return result


def theta_spectral_lower_of_complement(g: Graph) -> float:
    """1 - lambda_1/lambda_n of g's adjacency: a lower bound for the complement's theta."""
    if g.edge_count() == 0:
        raise NoEdges("spectral bound needs at least one edge")
    spec = eigvals_sym(adjacency_sym(g))
    lam_1 = float(spec.eigenvalues[0])
    lam_n = float(spec.eigenvalues[-1])
    return 1.0 - lam_1 / lam_n


def _handle_products(rep: ortho.OrthoRep, x) -> np.ndarray:
    """<x, f(v)> for every vertex v, once x is a unit handle and rep validates against its target."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rep.d,):
        raise PreconditionViolated(f"handle must have length {rep.d}")
    if not abs(float(np.linalg.norm(x)) - 1.0) <= 1e-8:  # NaN fails too
        raise PreconditionViolated("handle must be a unit vector")
    ortho.require_valid_rep(rep, rep.target)
    return x @ rep.vectors


def theta_upper_from_rep(rep: ortho.OrthoRep, x) -> float:
    """max over vertices of <x, f(v)>^-2, an upper bound from a rep of g."""
    products = _handle_products(rep, x)
    if rep.n == 0:
        raise PreconditionViolated("theta upper bound needs n >= 1: the empty representation has no vector to bound")
    tiny = float(np.min(np.abs(products)))
    if tiny <= 1e-12:
        raise HandleOrthogonalToVector(f"handle inner product {tiny} with some vector")
    return float(np.max(products**-2.0))


def theta_lower_from_rep(rep: ortho.OrthoRep, x) -> float:
    """Sum of <x, f(v)>^2 over a rep of the complement: a lower bound for g."""
    return float(np.sum(_handle_products(rep, x) ** 2))


def L_bounds(g: Graph, theta_g: float, theta_gbar: float) -> tuple[float, float]:
    """Vector-sum-length sandwich (n/sqrt(theta(G)), sqrt(n*theta(Gbar)))."""
    if not (1.0 <= theta_g < math.inf and 1.0 <= theta_gbar < math.inf):  # NaN fails too
        raise PreconditionViolated("theta values are always >= 1 and finite")
    n = g.n
    return n / math.sqrt(theta_g), math.sqrt(n * theta_gbar)


def transitive_identity_check(g: Graph) -> bool:
    """Whether theta(G) * theta(complement) is n within TRANSITIVE_TOL * n.

    Callers assert vertex-transitivity; the identity only holds there.
    """
    r = theta_sdp(g)
    rc = theta_sdp(complement(g))
    mid = (r.lower + r.upper) / 2.0
    mid_c = (rc.lower + rc.upper) / 2.0
    return abs(mid * mid_c - g.n) <= TRANSITIVE_TOL * g.n


@dataclass(frozen=True)
class BoundFormulaReport:
    ok: bool
    parity: str
    t: int
    theta_value: float
    value_is_certified_upper: bool
    formula_bound: float
    margin: float


def bound_formula_check(g: Graph, parity: str, t: int) -> BoundFormulaReport:
    """Check theta(complement) against the closed-form cycle-freeness bound.

    odd parity: g must be C_{2t+1}-free; bound ((6t)^{2t} n)^(1/(2t+1)).
    even parity: g must be C_{2t}-free; bound ((12t)^{2t} n)^(1/(2t)).
    Above the solver cap only the spectral lower bound is available, so a
    pass is then merely "no violation witnessed".
    """
    n = g.n
    power = ortho.require_cycle_free(g, parity, t)
    formula = ortho.cycle_free_bound(parity, t, n) ** (1.0 / power)
    if n <= SOLVER_N_CAP:
        value = theta_sdp(complement(g)).upper
        certified = True
    else:
        value = theta_spectral_lower_of_complement(g)
        certified = False
    margin = formula - value
    return BoundFormulaReport(margin >= -1e-9, parity, t, value, certified, formula, margin)
