"""thetalab benchmark: one closed-loop client per workload, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one process each

Run from the repository root.  The timed phase runs passes over the
workload's ops, each pass in an order drawn from the seed, until at least
--seconds have elapsed and at least the workload's minimum number of passes
is done; cheap ops may run several times in a pass.  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics, brought
to the reference host's speed by probes timed in the same run; with
--trace 1 the run times one untraced pass, then the same pass with the
layer boundaries wrapped, and reports per-layer metrics.
Lines before the last describe the environment and every metric with its
unit.  A record of the run is written under bench/out/.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("theta-random", "theta-structured", "construct-search", "cli-mix")
SETUP_RUNS = 8  # half before the timed phase, half after, to spread them over the run
PROBE_EVERY_S = 1.0  # timed phase: at most one host-speed probe per this many seconds, between ops
# Probe times on the reference host, the 2-vCPU machine of bench/README.md's baseline: round figures
# near the medians measured there.
REFERENCE_PROBE_S = {"cpu": 0.0006, "process": 0.12}

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("fail_share", "ratio"), ("peak_rss_mb", "MB")]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, definition: dict) -> dict:
    import numpy as np
    from workloads import sha256_json

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(), "seed": seed,
            "workload_sha256": sha256_json(definition)}


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes; it calls nothing of thetalab."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(3000):
        acc += i * i % 7
        table[i % 97] = table.get(i % 97, 0) + acc
    return time.perf_counter() - start


def process_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def probe_kind(wl) -> str:
    """The probe that tracks the host's speed for the workload's ops: a fresh
    interpreter when ops are processes, a pure-Python loop otherwise."""
    return "cpu" if wl.in_process else "process"


def run_passes(wl, seed: int, passes: int, seconds: float = 0.0, tracer=None, probes=None) -> list[dict]:
    """Passes over the workload's ops, each in a seeded order, one sample per
    op run.  The first pass runs every op once.  In later passes each op runs
    round(wl.op_budget_s / its first-pass latency) times, at least once, so
    that cheap ops get more samples.  Stops at the first op boundary once
    ``passes`` passes are done and ``seconds`` have elapsed.

    With ``probes``, appends to it the host's speed, timed by the
    workload's probe (``probe_kind``) after the first op and then at most
    every PROBE_EVERY_S, between ops and outside their timings."""
    samples = []
    repeats = {op.id: 1 for op in wl.ops}
    probe = cpu_probe if probe_kind(wl) == "cpu" else process_probe
    start = time.perf_counter()
    last_probe = -math.inf
    k = 0
    while k < passes or time.perf_counter() - start < seconds:
        order = [op for op in wl.ops for _ in range(repeats[op.id])]
        random.Random(seed * 1_000_003 + k).shuffle(order)
        for op in order:
            if k >= passes and time.perf_counter() - start >= seconds:
                break
            if tracer is not None:
                tracer.op = op.id
            out, error, ok, digest = None, None, False, None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if error is None:
                try:
                    ok, digest = bool(op.check(out)), op.digest(out)
                except Exception as exc:  # output of an unexpected shape
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            samples.append({"op": op.id, "s": latency, "ok": ok, "error": error, "digest": digest,
                            "exit": out[0] if op.expected_exit is not None and out else None})
            if k == 0 and wl.op_budget_s:
                repeats[op.id] = max(1, round(wl.op_budget_s / latency))
            if probes is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
        k += 1
    return samples


def setup_time(name: str, seed: int, small: bool) -> float:
    """Interpreter start to the first timed op, in a fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd + (["--small"] if small else []), cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed with exit code {proc.returncode}")
    return elapsed


def _busy(samples) -> float:
    return sum(s["s"] for s in samples)


def end_to_end(wl, samples, setups, probes, setup_probes) -> tuple[dict, dict, str]:
    """End-to-end metrics at the reference host's speed, and as measured.

    An op's latency is the median of its samples over the run.  The speed of
    a shared host drifts by tens of percent over tens of seconds, and that
    drift, not the program, set most of the spread between runs.  So every
    timing is multiplied by the reference probe time over the run's median
    probe time: the workload's probe (``probes``) for op latencies, and the
    process probe run next to each set-up (``setup_probes``) for set-up
    time.  The probes run no thetalab code.
    """
    per_op = {}
    for s in samples:
        per_op.setdefault(s["op"], []).append(s["s"])
    lat = sorted(statistics.median(ts) for ts in per_op.values())
    k = max(0, math.ceil(wl.tail_quantile * len(lat)) - 1)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not wl.in_process:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": lat[k],
        "fail_share": sum(not s["ok"] for s in samples) / len(samples),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    kind = probe_kind(wl)
    op_scale = REFERENCE_PROBE_S[kind] / statistics.median(probes)
    setup_scale = REFERENCE_PROBE_S["process"] / statistics.median(setup_probes)
    metrics = dict(measured, **{
        "setup_s": measured["setup_s"] * setup_scale,
        "ops_per_s": measured["ops_per_s"] / op_scale,
        "op_s.p50": measured["op_s.p50"] * op_scale,
        "op_s.tail": measured["op_s.tail"] * op_scale,
    })
    host = {"probe": kind, "probes": len(probes), "probe_median_s": statistics.median(probes), "op_scale": op_scale,
            "setup_probe_median_s": statistics.median(setup_probes), "setup_scale": setup_scale,
            "reference_probe_s": REFERENCE_PROBE_S, "measured": measured}
    counts = sorted(len(ts) for ts in per_op.values())
    note = (f"median of {counts[0]}-{counts[-1]} samples per op (median {statistics.median(counts):g}); "
            f"op_s.tail is p{100 * wl.tail_quantile:.1f}: {len(lat) - 1 - k} of {len(lat)} ops beyond it; "
            f"setup_s is the median of {len(setups)} set-ups; timings scaled to the reference host by "
            f"{op_scale:.3f} ({len(probes)} {kind} probes), set-up by {setup_scale:.3f}")
    return metrics, host, note


def traced_pass(wl, seed: int, work: Path):
    """One pass with the layer boundaries wrapped: samples, tracer records, CLI timings."""
    from tracer import Tracer

    if wl.in_process:
        tracer = Tracer()
        tracer.install()
        try:
            samples = run_passes(wl, seed, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        return samples, [tracer.record()], None
    wl.trace_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        samples = run_passes(wl, seed, 1)
    finally:
        records = [json.loads(p.read_text()) for p in sorted(wl.trace_dir.iterdir(), key=lambda p: int(p.stem))]
        wl.trace_dir = None
    expected = {op.id: op.expected_exit for op in wl.ops}
    mismatch = sum(s["exit"] != expected[s["op"]] for s in samples)
    cli = {"import_s": [r["import_s"] for r in records], "main_s": [r["main_s"] for r in records],
           "exit_mismatch": mismatch}
    return samples, records, cli


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False, refs=None) -> dict:
    """Set up, warm up and run one workload; everything the output reports."""
    import workloads
    from tracer import LAYER_METRICS, layer_metrics

    refs = workloads.load_references() if refs is None else refs
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        wl = workloads.BUILDERS[name](seed, refs, small, work)
        for op in wl.warmup:
            op.run()
        host = None
        if trace:
            plain = run_passes(wl, seed, 1)
            samples, records, cli = traced_pass(wl, seed, work)
            overhead = _busy(samples) / _busy(plain) - 1.0
            metrics = layer_metrics(records, cli, overhead)
            units = dict(LAYER_METRICS)
            samples = plain + samples
            note = f"one untraced and one traced pass of {len(wl.ops)} ops"
        else:
            setups, setup_probes, probes = [], [], []
            for _ in range(SETUP_RUNS // 2):
                setups.append(setup_time(name, seed, small))
                setup_probes.append(process_probe())
            samples = run_passes(wl, seed, wl.min_passes, seconds, probes=probes)
            for _ in range(SETUP_RUNS - len(setups)):
                setups.append(setup_time(name, seed, small))
                setup_probes.append(process_probe())
            metrics, host, note = end_to_end(wl, samples, setups, probes, setup_probes)
            units = dict(END_TO_END)
            records = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not s["ok"] for s in samples)
    return {"workload": name, "seed": seed, "trace": int(trace), "env": environment(seed, wl.definition()),
            "note": note, "host": host, "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "samples": samples, "spans": [sp for rec in records for sp in rec["spans"]]}


def write_record(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{result['workload']}_seed{result['seed']}_trace{result['trace']}"
    spans = result.pop("spans")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(sp) + "\n" for sp in spans)
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def report(result: dict) -> dict:
    """Print the human-readable lines; return the summary for the last line."""
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"ops {result['attempted']}  failed {result['failed']}  ({result['note']})")
    measured = (result["host"] or {}).get("measured", {})
    for key, m in result["metrics"].items():
        as_measured = f"  (as measured: {measured[key]:.6g})" if measured.get(key, m["value"]) != m["value"] else ""
        print(f"{key:<32} {m['value']:>14.6g} {m['unit']}{as_measured}")
    for s in result["samples"]:
        if not s["ok"]:
            print(f"# FAILED {s['op']}: {s['error'] or 'output disagrees with the reference'}")
    metrics = dict(result["metrics"])
    metrics.pop("fail_share", None)  # 0 on a healthy run; "failed" / "attempted" carry it
    return {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; a combined summary at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


def use_checkout_sources() -> bool:
    """Import thetalab from this checkout's src/, here and in every child."""
    if not (SRC / "thetalab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help="set up, print 'ready' and exit")
    args = p.parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no thetalab sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads

        (BENCH / ".work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
        try:
            wl = workloads.BUILDERS[args.workload](args.seed, workloads.load_references(), args.small, work)
            for op in wl.warmup:
                op.run()
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    summary = report(result)
    print(f"# record {write_record(result).relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
