"""Spans and counters recorded from outside thetalab.

The tracer wraps public names at each layer boundary and restores them on
uninstall; no program source is touched.  A wrapped function may be bound
under several module names (``from .linalg import eigh_dense`` binds it in
``thetalab.theta`` too), so every binding of the original object in every
loaded ``thetalab`` module is replaced.

A span is ``(name, start, end, parent, op, value)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the benchmark op id, ``value`` a per-span
quantity (graph order, n^3 of an eigendecomposition, solver iterations,
failed experiment checks).  Spans stay in memory until the run ends.  Field
arithmetic is counted, not timed: a span per multiplication would cost more
than the multiplication.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, attribute, span name, value of one call or None)
_FUNCTIONS = [
    ("thetalab.ffield", "field_from_order", "ffield.setup", None),
    ("thetalab.ffield", "element_of_order", "ffield.setup", None),
    ("thetalab.ffield", "subgroup", "ffield.setup", None),
    ("thetalab.constructions", "furedi_graph", "constructions", lambda a, r: r.graph.n),
    ("thetalab.constructions", "polarity_graph_with_loops", "constructions", lambda a, r: r[0].n),
    ("thetalab.constructions", "polarity_graph", "constructions", lambda a, r: r.n),
    ("thetalab.constructions", "clique_union", "constructions", lambda a, r: r.n),
    ("thetalab.graph", "contains_cycle", "graph.search", None),
    ("thetalab.graph", "contains_complete_bipartite", "graph.search", None),
    ("thetalab.graph", "contains_clique", "graph.search", None),
    ("thetalab.graph", "layer_chromatic_check", "graph.search", None),
    ("thetalab.graph", "from_edges", "graph.build", None),
    ("thetalab.graph", "complement", "graph.build", None),
    ("thetalab.linalg", "eigh_dense", "linalg.eigh", lambda a, r: len(a[0]) ** 3),
    ("thetalab.theta", "theta_sdp", "theta.solve", lambda a, r: r.iterations),
    ("thetalab.ortho", "validate_rep", "ortho.validate", None),
    ("thetalab.ortho", "gram", "ortho", None),
    ("thetalab.ortho", "schnirelmann_check", "ortho", None),
    ("thetalab.ortho", "trace_power_certificate", "ortho", None),
    ("thetalab.ortho", "msr_lower_chain_check", "ortho", None),
    ("thetalab.ortho", "msr_upper_certificate", "ortho", None),
    ("thetalab.ortho", "random_rep", "ortho", None),
    ("thetalab.ortho", "rep_from_json", "ortho", None),
    ("thetalab.ortho", "basis_rep_from_clique_cover", "ortho", None),
    ("thetalab.experiments", "run_experiment", None,
     lambda a, r: sum(not c.passed for c in r.checks)),
]
_FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow", "element", "index")

EXPERIMENTS = ("furedi-spectral", "polarity-c4", "theta-sandwich", "schnirelmann", "msr-cycle",
               "trace-power", "layer-coloring", "even-cycle-bound")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("ffield.arith_calls", "count"), ("ffield.setup_s", "s"),
    ("constructions.calls", "count"), ("constructions.s", "s"), ("constructions.vertices", "count"),
    ("graph.search_calls", "count"), ("graph.search_s", "s"), ("graph.build_s", "s"),
    ("linalg.eigh_calls", "count"), ("linalg.eigh_s", "s"), ("linalg.eigh_n3", "n3"),
    ("linalg.eigh_share", "ratio"),
    ("theta.solves", "count"), ("theta.iterations.sum", "count"), ("theta.iterations.p50", "count"),
    ("theta.iterations.max", "count"), ("theta.gap_not_reached", "count"), ("theta.s", "s"),
    ("theta.self_s", "s"), ("theta.s_per_iter", "s"), ("theta.validate_calls", "count"),
    ("theta.validate_s", "s"),
    ("ortho.calls", "count"), ("ortho.s", "s"), ("ortho.validate_s", "s"),
    *[(f"experiments.{name}.s", "s") for name in EXPERIMENTS], ("experiments.checks_failed", "count"),
    ("cli.startup_s", "s"), ("cli.invocations", "count"), ("cli.main_s", "s"), ("cli.exit_mismatch", "count"),
    ("trace.overhead_share", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.arith_calls = 0
        self.gap_not_reached = 0
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, value):
        spans, stack = self.spans, self._stack
        from thetalab.errors import GapNotReached

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            label = name or f"experiments.{args[0]}"
            result, v = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except GapNotReached as exc:
                if name == "theta.solve":
                    self.gap_not_reached += 1
                    result = exc.result
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if value is not None and result is not None:
                    v = value(args, result)
                spans[sid] = (label, start, end, parent, self.op, v)

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.arith_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every layer boundary in every loaded thetalab module."""
        modules = [m for k, m in list(sys.modules.items()) if k == "thetalab" or k.startswith("thetalab.")]
        for modname, attr, name, value in _FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(orig, name, value)
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        from thetalab.ffield import FieldSpec
        from thetalab.theta import ThetaResult

        for attr in _FIELD_OPS:
            self._patch_class(FieldSpec, attr, self._counted(vars(FieldSpec)[attr]))
        post_init = vars(ThetaResult)["__post_init__"]
        self._patch_class(ThetaResult, "__post_init__", self._wrap(post_init, "theta.validate", None))

    def _patch_class(self, cls, attr, new):
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def record(self) -> dict:
        """Everything the tracer saw, in a JSON-ready form."""
        return {"spans": self.spans, "arith_calls": self.arith_calls,
                "gap_not_reached": self.gap_not_reached}


def layer_metrics(records: list[dict], cli: dict | None = None, overhead_share: float = 0.0) -> dict:
    """Per-layer metrics from one or more tracer records (one per process).

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap their siblings in a single-threaded run.
    A nested span of the same layer (polarity_graph calling
    polarity_graph_with_loops) counts once in calls and total time.
    """
    spans = []
    for rec in records:
        base = len(spans)
        spans.extend((n, s, e, p + base if p >= 0 else -1, op, v) for n, s, e, p, op, v in rec["spans"])
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def layer(name):
        return name.split(".")[0] if name.startswith(("experiments.", "ortho")) else name

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    outer = {}  # layer -> spans with no enclosing span of the same layer
    every = {}  # span name -> spans
    in_theta = []
    for i, (name, start, end, parent, _, value) in enumerate(spans):
        lay = layer(name)
        every.setdefault(name, []).append(i)
        if all(layer(spans[a][0]) != lay for a in ancestors(i)):
            outer.setdefault(lay, []).append(i)
        if lay == "linalg.eigh" and any(spans[a][0] == "theta.solve" for a in ancestors(i)):
            in_theta.append(i)

    def dur(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def self_time(idx):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)

    def vals(idx):
        return [spans[i][5] for i in idx if spans[i][5] is not None]

    solves = outer.get("theta.solve", [])
    iters = vals(solves)
    theta_s = dur(solves)
    eighs = every.get("linalg.eigh", [])
    experiments = outer.get("experiments", [])
    cli = cli or {}
    m = {
        "ffield.arith_calls": sum(r["arith_calls"] for r in records),
        "ffield.setup_s": dur(outer.get("ffield.setup", [])),
        "constructions.calls": len(outer.get("constructions", [])),
        "constructions.s": self_time(every.get("constructions", [])),
        "constructions.vertices": sum(vals(outer.get("constructions", []))),
        "graph.search_calls": len(outer.get("graph.search", [])),
        "graph.search_s": dur(outer.get("graph.search", [])),
        "graph.build_s": dur(outer.get("graph.build", [])),
        "linalg.eigh_calls": len(eighs),
        "linalg.eigh_s": dur(eighs),
        "linalg.eigh_n3": sum(vals(eighs)),
        "linalg.eigh_share": dur(in_theta) / theta_s if theta_s else 0.0,
        "theta.solves": len(solves),
        "theta.iterations.sum": sum(iters),
        "theta.iterations.p50": statistics.median(iters) if iters else 0,
        "theta.iterations.max": max(iters, default=0),
        "theta.gap_not_reached": sum(r["gap_not_reached"] for r in records),
        "theta.s": theta_s,
        "theta.self_s": self_time(solves),
        "theta.s_per_iter": theta_s / sum(iters) if sum(iters) else 0.0,
        "theta.validate_calls": len(every.get("theta.validate", [])),
        "theta.validate_s": dur(every.get("theta.validate", [])),
        "ortho.calls": len(outer.get("ortho", [])),
        "ortho.s": dur(outer.get("ortho", [])),
        "ortho.validate_s": dur(every.get("ortho.validate", [])),
    }
    for name in EXPERIMENTS:
        m[f"experiments.{name}.s"] = dur(every.get(f"experiments.{name}", []))
    m["experiments.checks_failed"] = sum(vals(experiments))
    m["cli.startup_s"] = statistics.median(cli["import_s"]) if cli.get("import_s") else 0.0
    m["cli.invocations"] = len(cli.get("import_s", []))
    m["cli.main_s"] = sum(cli.get("main_s", []))
    m["cli.exit_mismatch"] = cli.get("exit_mismatch", 0)
    m["trace.overhead_share"] = overhead_share
    return m
