"""Command-line surface: constructions, checks, theta brackets, experiments.

Exit codes: 0 success, 1 verification failure (a check or tolerance was not
met), 2 usage or parameter error.  All floats print at 9 significant digits
and JSON keys are sorted, so identical invocations give identical bytes
(modulo the wall-clock runtime_ms field of experiment reports).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import NoReturn

# Handlers reach each layer through its module, which the package registers
# lazily, so building the parser runs no layer and a command runs only its own.
from . import constructions, experiments, graph, linalg, ortho, theta
from .errors import GapNotReached, PreconditionViolated, ThetalabError


def _f(x: float) -> str:
    return f"{x:.9g}"


def _round(x):
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    return x


def _emit(obj, out: str | None) -> None:
    text = json.dumps(_round(obj), sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionViolated(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load(path: str, parse, kind: str):
    """parse(the JSON value in path); an unreadable file or a value parse refuses exits 2."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise PreconditionViolated(f"cannot read {path}: {exc}") from exc
    try:
        return parse(obj)
    except ThetalabError as exc:
        raise PreconditionViolated(f"{path} is not a {kind} file: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    if args.family == "furedi":
        fg = constructions.furedi_graph(args.q, args.t)
        g = fg.graph
        prov = {"family": "furedi", "q": args.q, "t": args.t,
                "loops_removed": sorted(fg.loops_removed)}
    elif args.family == "polarity":
        g, absolute = constructions.polarity_graph_with_loops(args.q)
        prov = {"family": "polarity", "q": args.q, "loops_removed": sorted(absolute)}
    else:
        g = graph.clique_union(args.n, args.t)
        prov = {"family": "cliques", "n": args.n, "t": args.t,
                "parts": [len(p) for p in graph.clique_union_parts(args.n, args.t)]}
    obj = graph.graph_to_json(g)
    obj["provenance"] = prov
    _emit(obj, args.out)
    return 0


def cmd_theta(args) -> int:
    g = _load(args.graph, graph.graph_from_json, "graph")
    if args.complement:
        g = graph.complement(g)
    tol = theta.DEFAULT_TOL if args.tol is None else args.tol
    cap = theta.DEFAULT_ITERATION_CAP if args.iteration_cap is None else args.iteration_cap
    code = 0
    try:
        r = theta.theta_sdp(g, tol=tol, iteration_cap=cap)
    except GapNotReached as exc:
        r = exc.result
        print(f"warning: {exc}", file=sys.stderr)
        code = 1
    if args.json:
        _emit({
            "n": g.n,
            "lower": r.lower,
            "upper": r.upper,
            "gap": r.gap,
            "iterations": r.iterations,
            "gap_reached": code == 0,
            "primal_x": r.primal_x.dense().tolist(),
            "dual_b": r.dual_b.dense().tolist(),
        }, None)
    else:
        print(f"n: {g.n}")
        print(f"lower: {_f(r.lower)}")
        print(f"upper: {_f(r.upper)}")
        print(f"gap: {_f(r.gap)}")
        print(f"iterations: {r.iterations}")
    return code


def cmd_spectrum(args) -> int:
    g = _load(args.graph, graph.graph_from_json, "graph")
    spec = (linalg.eigen_sym if args.json else linalg.eigvals_sym)(linalg.adjacency_sym(g))
    if args.json:
        _emit({"n": g.n,
               "eigenvalues": [float(v) for v in spec.eigenvalues],
               "residual": float(spec.residual)}, None)
    else:
        for v in spec.eigenvalues:
            print(_f(float(v)))
    return 0


def cmd_check_free(args) -> int:
    graph.parse_pattern(args.pattern)  # reject malformed names before touching the file
    g = _load(args.graph, graph.graph_from_json, "graph")
    found = graph.contains_pattern(g, args.pattern)
    if args.json:
        _emit({"pattern": args.pattern.strip().upper(), "free": not found, "n": g.n}, None)
    else:
        print(f"free: {'false' if found else 'true'}")
    return 1 if found else 0


def cmd_rep(args) -> int:
    rep = _load(args.file, ortho.rep_from_json, "representation")
    if args.action == "validate":
        out = ortho.validate_rep(rep)
        if args.json:
            _emit({"valid": out.ok, "max_residual": out.max_residual,
                   "d": rep.d, "n": rep.n}, None)
        else:
            print(f"valid: {'true' if out.ok else 'false'}")
            print(f"max_residual: {_f(out.max_residual)}")
        return 0 if out.ok else 1
    if args.action == "gram":
        m = ortho.gram(rep).dense()
        if args.json:
            _emit({"gram": m.tolist(), "n": rep.n}, None)
        else:
            for row in m:
                print(" ".join(_f(float(v)) for v in row))
        return 0
    # certify
    if args.check == "schnirelmann":
        out = ortho.schnirelmann_check(ortho.gram(rep))
        body = {"check": "schnirelmann", "ok": out.ok, "lhs": out.lhs, "rhs": out.rhs,
                "rank": out.rank, "slack": out.slack}
        lines = [f"tr(M)^2: {_f(out.lhs)}", f"rank * tr(M^2): {_f(out.rhs)}",
                 f"slack: {_f(out.slack)}"]
    elif args.check == "trace-power":
        if args.parity is None:
            raise PreconditionViolated("certify trace-power needs --parity")
        out = ortho.trace_power_certificate(rep, args.t, args.parity)
        body = {"check": "trace-power", "ok": out.ok, "parity": out.parity, "t": out.t,
                "power": out.power, "trace": out.trace_value, "bound": out.bound,
                "lambda_top": out.lam_top, "lambda_bound": out.lam_bound}
        lines = [f"tr(M^{out.power}): {_f(out.trace_value)}", f"bound: {_f(out.bound)}",
                 f"lambda_top: {_f(out.lam_top)}", f"lambda_bound: {_f(out.lam_bound)}"]
    else:
        out = ortho.msr_lower_chain_check(rep, args.t)
        body = {"check": "msr-chain", "ok": out.ok, "d": out.dimension,
                "trace_sq": out.trace_sq, "n": out.n, "t": out.t}
        lines = [f"d: {out.dimension}", f"tr(M^2): {_f(out.trace_sq)}",
                 f"n^2: {out.n * out.n}", f"d * tr(M^2): {_f(out.dimension * out.trace_sq)}"]
    if args.json:
        _emit(body, None)
    else:
        for line in lines:
            print(line)
        print(f"ok: {'true' if out.ok else 'false'}")
    return 0 if out.ok else 1


def cmd_verify_paper(args) -> int:
    names = [name for name in args.experiment if name != "all"]
    if "all" in args.experiment:
        names += experiments.EXPERIMENT_NAMES
    reports = experiments.run_experiments(names, seed=args.seed)
    if args.json:
        payload = [r.to_json() for r in reports]
        _emit(payload[0] if len(payload) == 1 else payload, None)
    else:
        for r in reports:
            print(f"experiment: {r.experiment}")
            print(f"seed: {r.seed}  runtime_ms: {r.runtime_ms}  pass: {'true' if r.passed else 'false'}")
            for c in r.checks:
                flag = "ok  " if c.passed else "FAIL"
                print(f"  [{flag}] {c.name}: {c.claim}")
                print(f"         expected {c.expected} | observed {c.observed} | tolerance {_f(c.tolerance)}")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thetalab",
        description="Graph constructions, theta brackets, and trace-inequality checks.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named graph family")
    fam = c.add_subparsers(dest="family", required=True)
    f = fam.add_parser("furedi", help="scaling-class graph over GF(q)^2")
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--t", type=int, required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_construct)
    f = fam.add_parser("polarity", help="projective-plane polarity graph")
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_construct)
    f = fam.add_parser("cliques", help="disjoint union of cliques")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--t", type=int, required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_construct)

    t = sub.add_parser("theta", help="certified theta bracket for a graph file")
    t.add_argument("--graph", required=True)
    t.add_argument("--complement", action="store_true")
    t.add_argument("--tol", type=float)
    t.add_argument("--iteration-cap", type=int)
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_theta)

    s = sub.add_parser("spectrum", help="descending adjacency eigenvalues")
    s.add_argument("--graph", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_spectrum)

    ch = sub.add_parser("check", help="pattern checks")
    chs = ch.add_subparsers(dest="what", required=True)
    fr = chs.add_parser("free", help="is the graph free of a forbidden pattern")
    fr.add_argument("--pattern", required=True, help="C<k>, K<t>, or K<t>,<s>")
    fr.add_argument("--graph", required=True)
    fr.add_argument("--json", action="store_true")
    fr.set_defaults(func=cmd_check_free)

    r = sub.add_parser("rep", help="representation file operations")
    rs = r.add_subparsers(dest="action", required=True)
    for action, extra in (("validate", False), ("gram", False), ("certify", True)):
        rp = rs.add_parser(action)
        rp.add_argument("--file", required=True)
        rp.add_argument("--json", action="store_true")
        if extra:
            rp.add_argument("--check", required=True,
                            choices=["schnirelmann", "trace-power", "msr-chain"])
            rp.add_argument("--t", type=int, default=1)
            rp.add_argument("--parity", choices=["odd", "even"])
        rp.set_defaults(func=cmd_rep)

    v = sub.add_parser("verify", help="named reproduction experiments")
    vs = v.add_subparsers(dest="what", required=True)
    vp = vs.add_parser("paper", help="run named experiments and report checks")
    vp.add_argument("--experiment", action="append", required=True,
                    help="an experiment name, or all; repeatable")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(func=cmd_verify_paper)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ThetalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """End a thetalab process: run main(), then exit with its code.

    gc.freeze() first moves every tracked object (about 20,000 once numpy
    is imported) into the permanent generation, so the collections of
    interpreter shutdown skip them and the OS takes the memory back at exit.  main() leaves the collector as it was, for tests
    and library callers that run it in process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
