"""The benchmark's workloads: inputs made from the seed, ops, reference checks.

An op is one unit of user-visible work: a theta solve, a construction plus
its freeness search, or one fresh ``thetalab`` process.  ``run`` does the
work and is the only part timed; ``check`` compares the output against the
stored reference; ``digest`` is a canonical fingerprint of the output, used
to show that outputs repeat exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import thetalab
from thetalab import (
    ThetaResult,
    complement,
    cycle_graph,
    from_edges,
    furedi_graph,
    graph_to_json,
    msr_upper_certificate,
    polarity_graph,
    random_rep,
    rep_to_json,
    umbrella_rep,
)
from tracer import EXPERIMENTS

BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"


@dataclass
class Op:
    id: str
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], bool]
    expected_exit: int | None = None  # cli-mix only


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Op]
    min_passes: int  # whole passes per timed phase, at least
    params: dict
    op_budget_s: float = 0.0  # after the first pass, about this much time per op and pass; 0: once
    in_process: bool = True
    trace_dir: Path | None = None  # cli-mix: where traced children write their records

    @property
    def tail_quantile(self) -> float:
        """Highest quantile of per-op latencies that leaves 10 ops beyond it;
        the maximum when there are fewer than 11 ops."""
        n = len(self.ops)
        return (n - 10) / n if n > 10 else 1.0

    def definition(self) -> dict:
        return {"name": self.name, "ops": [op.id for op in self.ops], "warmup": [op.id for op in self.warmup],
                "min_passes": self.min_passes, "op_budget_s": self.op_budget_s, "params": self.params}


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# ---------------------------------------------------------------------------
# theta solves
# ---------------------------------------------------------------------------


def _theta_digest(r) -> str:
    return f"{r.iterations}:{r.lower!r}:{r.upper!r}"


def _theta_op(op_id: str, g, tol: float, ref: tuple[float, float] | None) -> Op:
    def check(r) -> bool:
        # certificates were revalidated when the ThetaResult was built; two
        # valid brackets for the same theta overlap, up to the 1e-8 slack
        # those certificates are checked with
        if ref is None or not isinstance(r, ThetaResult) or not r.gap <= tol:
            return False
        lo, hi = ref
        slack = 1e-8 * max(1.0, abs(hi))
        return r.lower <= hi + slack and lo <= r.upper + slack

    # timed calls go through the package attribute, which the tracer wraps
    return Op(op_id, lambda: thetalab.theta_sdp(g, tol=tol), _theta_digest, check)


STRUCTURED = [("polarity", q, None) for q in (3, 4, 5, 7)] + [("furedi", q, t) for q, t in
                                                               ((5, 2), (7, 3), (9, 4), (11, 5))]


def _structured_graph(family: str, q: int, t: int | None):
    return polarity_graph(q) if family == "polarity" else furedi_graph(q, t).graph


def _instance_id(family: str, q: int, t: int | None) -> str:
    return f"{family}({q})" if t is None else f"{family}({q},{t})"


def theta_structured(seed: int, refs: dict | None, small: bool, work: Path) -> Workload:
    tol = 1e-6
    refs = (refs or {}).get("theta-structured", {})
    chosen = STRUCTURED if not small else [STRUCTURED[0], STRUCTURED[4]]
    ops = []
    for family, q, t in chosen:
        op_id = _instance_id(family, q, t) + "c"
        ref = refs.get(op_id)
        ops.append(_theta_op(op_id, complement(_structured_graph(family, q, t)), tol,
                             (ref["lower"], ref["upper"]) if ref else None))
    warmup = [_theta_op("C5c", complement(cycle_graph(5)), tol, None)]
    return Workload("theta-structured", ops, warmup, min_passes=2, params={"tol": tol})


def random_corpus(seed: int, size: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Seeded random graphs: n uniform in 3..10, edge probability uniform in 0.2..0.8.

    Draws in the order claim1-sandwich does, so seed 0 gives its 30 graphs.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(size):
        n = int(rng.integers(3, 11))
        p = float(rng.uniform(0.2, 0.8))
        corpus.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    return corpus


def clique_and_chromatic_number(n: int, edges) -> tuple[int, int]:
    """omega(G) and chi(G) by exhaustive search, for the small graphs of theta-random."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    omega = max(m.bit_count() for m in range(1 << n)
                if all(m & ~adj[v] == 1 << v for v in range(n) if m >> v & 1))

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            taken = {colors[u] for u in range(v) if adj[v] >> u & 1}
            for c in range(min(k, max(colors[:v], default=-1) + 2)):
                if c not in taken:
                    colors[v] = c
                    if place(v + 1):
                        return True
            colors[v] = -1
            return False

        return place(0)

    chi = next(k for k in range(1, n + 1) if colorable(k))
    return omega, chi


def theta_random(seed: int, refs: dict | None, small: bool, work: Path) -> Workload:
    """References come from exhaustive search, not from a file: the corpus
    depends on the seed.  By the sandwich theorem omega(G) <= theta(complement
    of G) <= chi(G), so every valid bracket meets [omega, chi]."""
    tol = 1e-5
    ops = []
    for i, (n, edges) in enumerate(random_corpus(seed, 5 if small else 30)):
        op_id = f"random{i}:n{n}:{sha256_json(edges)[:12]}"
        ops.append(_theta_op(op_id, complement(from_edges(n, edges)), tol,
                             clique_and_chromatic_number(n, edges)))
    warmup = [_theta_op("C5c", complement(cycle_graph(5)), tol, None)]
    return Workload("theta-random", ops, warmup, min_passes=1, params={"tol": tol, "size": len(ops)})


# ---------------------------------------------------------------------------
# constructions and their freeness search
# ---------------------------------------------------------------------------


def construct_corpus(n_max: int, polarity_q_max: int):
    """Every constructible furedi(q, t) with n = (q^2 - 1)/t <= n_max, then polarity(q)."""
    items = [("furedi", q, t) for q in range(2, n_max) if is_prime_power(q)
             for t in range(1, q) if (q - 1) % t == 0 and (q * q - 1) // t <= n_max]
    items += [("polarity", q, None) for q in range(2, polarity_q_max + 1) if is_prime_power(q)]
    return items


def _construct_run(family: str, q: int, t: int | None):
    if family == "furedi":
        fg = thetalab.furedi_graph(q, t)
        return fg.graph, fg.loops_removed, not thetalab.contains_complete_bipartite(fg.graph, 2, t + 1)
    g, absolute = thetalab.polarity_graph_with_loops(q)
    return g, absolute, not thetalab.contains_cycle(g, 4)


def construct_digest(out) -> str:
    g, loops, free = out
    return sha256_json({"edges": g.edges(), "labels": list(g.labels or ()), "loops_removed": sorted(loops),
                        "free": free})


def construct_search(seed: int, refs: dict | None, small: bool, work: Path) -> Workload:
    refs = (refs or {}).get("construct-search", {})
    n_max, polarity_q_max = (20, 9) if small else (200, 19)
    ops = []
    for family, q, t in construct_corpus(n_max, polarity_q_max):
        op_id = _instance_id(family, q, t)
        ref = refs.get(op_id)

        def check(out, ref=ref):
            return ref is not None and out[2] == ref["free"] and construct_digest(out) == ref["sha256"]

        ops.append(Op(op_id, lambda a=(family, q, t): _construct_run(*a), construct_digest, check))
    warmup = [op for op in ops if op.id in ("furedi(5,2)", "polarity(3)")]
    return Workload("construct-search", ops, warmup, min_passes=3,
                    params={"n_max": n_max, "polarity_q_max": polarity_q_max})


# ---------------------------------------------------------------------------
# fresh CLI processes
# ---------------------------------------------------------------------------

CLI_COMMANDS = [
    "construct furedi --q 5 --t 2",
    "construct furedi --q 9 --t 4",
    "construct polarity --q 4",
    "construct cliques --n 10 --t 3",
    "theta --graph c5.json --tol 1e-6",
    "theta --graph p3.json --complement --json",
    "theta --graph f52.json --complement",
    "spectrum --graph f52.json",
    "spectrum --graph p3.json --json",
    "check free --pattern C4 --graph p3.json",
    "check free --pattern K2,3 --graph f52.json --json",
    "check free --pattern C5 --graph c5.json",
    "rep validate --file umbrella.json",
    "rep gram --file umbrella.json --json",
    "rep certify --file umbrella.json --check schnirelmann",
    "rep certify --file c5rep.json --check trace-power --t 1 --parity odd",
    "rep certify --file msr.json --check msr-chain --t 3",
    *[f"verify paper --experiment {name} --json" for name in EXPERIMENTS],
]
SMALL_CLI_COMMANDS = [CLI_COMMANDS[i] for i in (0, 4, 9, 11, 12)] + [
    "verify paper --experiment msr-cycle --json"]


def write_cli_inputs(work: Path) -> None:
    """Graph and representation files the CLI commands read."""
    files = {
        "c5.json": graph_to_json(cycle_graph(5)),
        "p3.json": graph_to_json(polarity_graph(3)),
        "f52.json": graph_to_json(furedi_graph(5, 2).graph),
        "umbrella.json": rep_to_json(umbrella_rep()),
        "c5rep.json": rep_to_json(random_rep(cycle_graph(5), seed=1)),
        "msr.json": rep_to_json(msr_upper_certificate(9, 3, "C4")[0]),
    }
    for name, obj in files.items():
        (work / name).write_text(json.dumps(obj))


def stdout_digest(stdout: bytes) -> str:
    """sha256 of the output; JSON output is canonicalised without runtime_ms."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return hashlib.sha256(stdout).hexdigest()

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "runtime_ms"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return sha256_json(strip(obj))


def cli_mix(seed: int, refs: dict | None, small: bool, work: Path) -> Workload:
    refs = (refs or {}).get("cli-mix", {})
    write_cli_inputs(work)
    wl = Workload("cli-mix", [], [], min_passes=1, params={"small": small}, op_budget_s=1.0, in_process=False)
    records = itertools.count()

    def invoke(op_id: str, argv: list[str]):
        if wl.trace_dir is None:
            cmd = [sys.executable, "-m", "thetalab.cli", *argv]
        else:
            record = wl.trace_dir / f"{next(records)}.json"
            cmd = [sys.executable, str(BENCH / "launch.py"), str(record), op_id, *argv]
        proc = subprocess.run(cmd, cwd=work, capture_output=True, timeout=150)
        return proc.returncode, proc.stdout

    def digest(out) -> str:
        return f"{out[0]}:{stdout_digest(out[1])}"

    for command in (SMALL_CLI_COMMANDS if small else CLI_COMMANDS):
        ref = refs.get(command)

        def check(out, ref=ref):
            return ref is not None and out[0] == ref["exit"] and stdout_digest(out[1]) == ref["stdout_sha256"]

        wl.ops.append(Op(command, lambda c=command: invoke(c, c.split()), digest, check,
                         ref["exit"] if ref else None))
    warmup = "construct cliques --n 4 --t 2"
    wl.warmup.append(Op(warmup, lambda: invoke(warmup, warmup.split()), digest, bool))
    return wl


BUILDERS = {
    "theta-random": theta_random,
    "theta-structured": theta_structured,
    "construct-search": construct_search,
    "cli-mix": cli_mix,
}
