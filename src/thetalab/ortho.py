"""Orthonormal representations and their trace certificates.

A representation assigns a unit vector to each vertex so that non-adjacent
vertices get orthogonal vectors.  Everything downstream is a statement
about the Gram matrix: the Schnirelmann inequality, the minimum-rank
chain, and trace-power bounds for cycle-free graphs.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotACliqueCover,
    PreconditionViolated,
    RepInvalid,
    UnsupportedPattern,
)
from .graph import Graph, adjacency_rows, clique_union, clique_union_parts, complement, contains_cycle, contains_pattern, cycle_graph, graph_from_json, graph_to_json, json_int, json_key, json_list, json_number, parse_pattern
from .linalg import POWER_SUM_MAX, SymMatrix, eigvals_sym, sym_from_dense

# slack of rep validation (unit norms, orthogonality) and of the msr chain
REP_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class OrthoRep:
    """d-dimensional vectors, one column per vertex of target."""

    d: int
    vectors: np.ndarray  # shape (d, n)
    target: Graph

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape != (self.d, self.target.n):
            raise DimensionMismatch(f"vectors must be {self.d} x {self.target.n}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise RepInvalid("non-finite vector entries")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.target.n


@dataclass(frozen=True)
class RepValidation:
    ok: bool
    max_residual: float


def gram(rep: OrthoRep) -> SymMatrix:
    """Gram matrix of the representation's vectors, the package's one v^T v; PreconditionViolated
    if an entry is beyond half the float64 range, where sym_from_dense's m + m^T overflows."""
    v = rep.vectors
    with np.errstate(over="ignore"):
        m = v.T @ v
    if not np.all(np.abs(m) <= sys.float_info.max / 2):
        raise PreconditionViolated("Gram matrix overflows float64: vector entries are too large")
    return sym_from_dense(m)


def _gram_residual(rep: OrthoRep) -> tuple[SymMatrix, float]:
    """rep's Gram matrix and its largest deviation from I on the diagonal and the non-adjacent pairs of its target."""
    m = gram(rep)
    return m, float(np.max(np.abs(m.dense() - np.eye(rep.n))[adjacency_rows(rep.target) == 0], initial=0.0))


def validate_rep(rep: OrthoRep) -> RepValidation:
    """Check unit norms and orthogonality on the non-adjacent pairs of rep's target."""
    worst = _gram_residual(rep)[1]
    return RepValidation(worst <= REP_TOL, worst)


def require_valid_rep(rep: OrthoRep) -> SymMatrix:
    """The Gram matrix of rep; RepInvalid unless rep validates against its target."""
    m, worst = _gram_residual(rep)
    if worst > REP_TOL:
        raise RepInvalid(f"rep residual {worst} exceeds tolerance")
    return m


def basis_rep_from_clique_cover(g: Graph, cover) -> OrthoRep:
    """Standard basis vector e_i for every vertex of the i-th clique.

    Valid because non-adjacent vertices land in different parts, and
    exactly so: entries are 0 and 1 with no rounding.
    """
    parts = [tuple(p) for p in cover]
    seen: set[int] = set()
    for part in parts:
        for u in part:
            if not 0 <= u < g.n or u in seen:
                raise NotACliqueCover(f"vertex {u} missing, repeated, or out of range")
            seen.add(u)
        for i, u in enumerate(part):
            for w in part[i + 1:]:
                if not g.has_edge(u, w):
                    raise NotACliqueCover(f"part {part} is not a clique: {u} !~ {w}")
    if len(seen) != g.n:
        raise NotACliqueCover("cover does not reach every vertex")
    d = len(parts)
    v = np.zeros((d, g.n))
    for i, part in enumerate(parts):
        for u in part:
            v[i, u] = 1.0
    return OrthoRep(d, v, g)


def greedy_clique_cover(g: Graph, seed: int) -> list[list[int]]:
    """Partition vertices into cliques, scanning in a seed-shuffled order."""
    rng = np.random.default_rng(seed)
    order = [int(x) for x in rng.permutation(g.n)]
    unused = set(range(g.n))
    parts = []
    for v in order:
        if v not in unused:
            continue
        part = [v]
        unused.discard(v)
        for w in order:
            if w in unused and all(g.has_edge(w, u) for u in part):
                part.append(w)
                unused.discard(w)
        parts.append(part)
    return parts


def _orthonormal_columns(rng, m: int) -> np.ndarray:
    """Random m x m orthogonal matrix: Gram-Schmidt on a Gaussian sample."""
    a = rng.standard_normal((m, m))
    q = np.zeros_like(a)
    for j in range(m):
        w = a[:, j]
        for _ in range(2):  # second pass keeps orthogonality near machine eps
            for i in range(j):
                w = w - q[:, i] * float(q[:, i] @ w)
        norm = float(np.linalg.norm(w))
        if norm < 1e-8:  # astronomically unlikely; resample deterministically
            w = rng.standard_normal(m)
            norm = float(np.linalg.norm(w))
        q[:, j] = w / norm
    return q


def random_rep(g: Graph, seed: int) -> OrthoRep:
    """Seeded representation from a greedy clique cover.

    Each clique receives its own orthogonal subspace with dimension equal
    to the clique size; vertices get independent random unit vectors
    inside their clique's subspace.  Cross-clique inner products vanish by
    construction, so the output always validates.
    """
    rng = np.random.default_rng(seed)
    parts = greedy_clique_cover(g, seed)
    q = _orthonormal_columns(rng, g.n)
    v = np.zeros((g.n, g.n))
    offset = 0
    for part in parts:
        s = len(part)
        block = q[:, offset:offset + s]
        for u in part:
            coeff = rng.standard_normal(s)
            coeff /= np.linalg.norm(coeff)
            v[:, u] = block @ coeff
        offset += s
    return OrthoRep(g.n, v, g)


def umbrella_rep(of_complement: bool = False) -> OrthoRep:
    """Five unit vectors at equal angle around a central axis.

    The axis component 5^(-1/4) makes distance-2 pairs around the circle
    orthogonal, so the default is a representation of the 5-cycle; with
    of_complement the circle step doubles and consecutive pairs become the
    orthogonal ones, representing the 5-cycle's complement.
    """
    c = 5.0 ** -0.25
    s = float(np.sqrt(1.0 - c * c))
    skip = 2 if of_complement else 1
    angles = np.array([2.0 * np.pi * skip * k / 5.0 for k in range(5)])
    v = np.vstack([s * np.cos(angles), s * np.sin(angles), np.full(5, c)])
    target = cycle_graph(5)
    if of_complement:
        target = complement(target)
    return OrthoRep(3, v, target)


def rep_to_json(rep: OrthoRep) -> dict:
    return {"d": rep.d, "vectors": rep.vectors.T.tolist(), "graph": graph_to_json(rep.target)}


def rep_from_json(obj: dict) -> OrthoRep:
    """The representation of a rep_to_json object; a malformed one is refused with a ThetalabError."""
    g = graph_from_json(json_key(obj, "graph"))
    d = json_int(json_key(obj, "d"), "d")
    rows = [[json_number(x, "vector entry") for x in json_list(row, "vector")]
            for row in json_list(json_key(obj, "vectors"), "vectors")]
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise PreconditionViolated(f"vectors must have one length, got lengths {sorted(lengths)}")
    if rows:
        return OrthoRep(d, np.asarray(rows, dtype=np.float64).T, g)
    # no rows is the d x 0 array that rep_to_json wrote for n = 0
    try:
        v = np.zeros((max(d, 0), 0))
    except ValueError:
        raise PreconditionViolated("d is too large for an array") from None
    return OrthoRep(d, v, g)


# ---------------------------------------------------------------------------
# trace certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchnirelmannReport:
    ok: bool
    slack: float
    lhs: float  # tr(M)^2
    rhs: float  # rank * tr(M^2)
    rank: int


def schnirelmann_check(m: SymMatrix) -> SchnirelmannReport:
    """tr(M)^2 <= rank(M) * tr(M^2), with slack reported."""
    tr = float(np.trace(m.dense()))
    lhs = tr * tr
    spec = eigvals_sym(m)
    rank = spec.rank()
    rhs = rank * spec.power_sum(2)
    scale = max(1.0, abs(lhs), abs(rhs))
    return SchnirelmannReport(lhs <= rhs + 1e-6 * scale, rhs - lhs, lhs, rhs, rank)


def msr_upper_certificate(n: int, t: int, pattern: str) -> tuple[OrthoRep, Graph]:
    """Clique union witnessing small semidefinite rank for a forbidden pattern.

    t is the clique size (one less than the cycle length for C_k patterns).
    Builds clique_union(n, t), verifies the requested freeness with
    contains_pattern (cycle and clique patterns only), and returns
    the ceil(n/t)-dimensional basis representation with the graph, exactly
    valid because basis_rep_from_clique_cover checks that each part is a clique.
    """
    kind, _ = parse_pattern(pattern)
    g = clique_union(n, t)
    if kind == "biclique":
        raise UnsupportedPattern(f"cannot certify freeness for {pattern!r}")
    if contains_pattern(g, pattern):
        raise PreconditionViolated(f"clique_union({n},{t}) contains {pattern}")
    return basis_rep_from_clique_cover(g, clique_union_parts(n, t)), g


@dataclass(frozen=True)
class MsrChainReport:
    ok: bool
    dimension: int
    trace_sq: float  # tr(M^2)
    trace_link_ok: bool  # tr(M^2) <= n t
    chain_ok: bool  # n^2 <= d tr(M^2)
    n: int
    t: int


def msr_lower_chain_check(rep: OrthoRep, t: int) -> MsrChainReport:
    """The rank lower-bound chain: tr(M^2) <= n t and n^2 <= d tr(M^2).

    Caller attests rep's target is free of the relevant tree-plus-vertex pattern with
    tree size t; that is what caps each Gram row sum of squares at t.
    """
    if t < 1:
        raise PreconditionViolated(f"msr chain needs t >= 1, got {t}")
    m = require_valid_rep(rep).dense()
    t2 = float((m * m).sum())  # tr(M^2) with no decomposition: exact on the 0/1 Grams of clique unions
    n = rep.n
    trace_link = t2 <= n * t or t2 <= n * t + REP_TOL * max(1.0, n * t)  # exact first: REP_TOL * n t may overflow
    chain = n * n <= rep.d * t2 * (1.0 + REP_TOL)
    return MsrChainReport(trace_link and chain, rep.d, t2, trace_link, chain, n, t)


@dataclass(frozen=True)
class TracePowerReport:
    ok: bool
    parity: str
    t: int
    power: int
    trace_value: float
    bound: float
    trace_ok: bool
    lam_top: float
    lam_bound: float
    lam_ok: bool


def require_cycle_free(g: Graph, parity: str, t: int) -> int:
    """The cycle length 2t+1 (odd parity, t >= 1) or 2t (even parity, t >= 2)
    of a cycle-freeness bound; PreconditionViolated if g contains that cycle."""
    if parity == "odd":
        if t < 1:
            raise PreconditionViolated("odd parity needs t >= 1")
        cycle_len = 2 * t + 1
    elif parity == "even":
        if t < 2:
            raise PreconditionViolated("even parity needs t >= 2")
        cycle_len = 2 * t
    else:
        raise PreconditionViolated(f"parity must be odd or even, got {parity!r}")
    if contains_cycle(g, cycle_len):
        raise PreconditionViolated(f"graph contains a {cycle_len}-cycle")
    return cycle_len


def cycle_free_bound(parity: str, t: int, n: int) -> float:
    """(6t)^{2t} n (odd parity) or (12t)^{2t} n (even parity), computed exactly and
    rounded to a float; PreconditionViolated if it exceeds the float64 limit."""
    k = 6 if parity == "odd" else 12
    # an estimate above 2^1025 (as every t > 1025 gives) overflows whatever the logs' rounding, so no huge power is computed
    if 2 * min(t, 1025) * math.log2(k * t) + math.log2(max(n, 1)) <= 1025:
        with contextlib.suppress(OverflowError):
            return float((k * t) ** (2 * t) * n)
    # a t beyond the float64 range is named by its bit length: Python refuses a decimal of over 4300 digits
    shown = f"{k * t}^{2 * t}*{n} for t = {t}" if t <= sys.float_info.max else f"({k}t)^(2t)*{n} for a {t.bit_length()}-bit t"
    raise PreconditionViolated(f"{parity}-parity bound {shown} exceeds the float64 limit {sys.float_info.max!r}")


def trace_power_certificate(rep: OrthoRep, t: int, parity: str) -> TracePowerReport:
    """Trace-power bound for reps of cycle-free graphs.

    odd parity: rep's target must be C_{2t+1}-free, then tr(M^{2t+1}) <= (6t)^{2t} n.
    even parity: rep's target must be C_{2t}-free, then tr(M^{2t}) <= (12t)^{2t} n.
    Both imply a top-eigenvalue bound of bound^(1/power).
    """
    power = require_cycle_free(rep.target, parity, t)
    bound = cycle_free_bound(parity, t, rep.n)
    if power > POWER_SUM_MAX:
        raise PreconditionViolated(f"trace power {power} for t = {t} is above the power-sum limit {POWER_SUM_MAX}")
    spec = eigvals_sym(require_valid_rep(rep))
    tv = spec.power_sum(power)
    trace_ok = tv <= bound + REP_TOL * max(1.0, bound)
    lam_top = float(spec.eigenvalues[0])
    lam_bound = bound ** (1.0 / power)
    lam_ok = lam_top <= lam_bound + REP_TOL * max(1.0, lam_bound)
    return TracePowerReport(trace_ok and lam_ok, parity, t, power, tv, bound, trace_ok, lam_top, lam_bound, lam_ok)


def rep_sum_length(rep: OrthoRep) -> float:
    """Length of the sum of all representation vectors.

    Cross-computed from the Gram matrix; a disagreement beyond REP_TOL means
    the representation data is numerically broken.
    """
    quad = float(gram(rep).dense().sum())  # 1^T M 1
    direct = float(np.linalg.norm(rep.vectors.sum(axis=1)))
    via_gram = float(np.sqrt(max(quad, 0.0)))
    if abs(direct - via_gram) > REP_TOL * max(1.0, direct):
        raise RepInvalid(f"sum-length cross-check failed: {direct} vs {via_gram}")
    return direct


def rep_sum_length_aligned(rep: OrthoRep, handle: np.ndarray) -> float:
    """Sum length after flipping each vector's sign to align with handle.

    Sign flips preserve validity (norms and orthogonality are unaffected),
    so this is the largest sum reachable by the sign choices along handle.
    """
    x = np.asarray(handle, dtype=np.float64)
    if x.shape != (rep.d,):
        raise DimensionMismatch(f"handle must have length {rep.d}")
    signs = np.where(x @ rep.vectors < 0.0, -1.0, 1.0)
    return float(np.linalg.norm((rep.vectors * signs).sum(axis=1)))
