"""Self-test of the benchmark, on reduced inputs.

    python3 -m pytest bench -q

Checks that every declared metric is reported with its unit, that a wrong
reference makes ops fail, and that counts and output digests repeat exactly.
"""

import collections
import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

assert run.use_checkout_sources()
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = dict(seconds=0.0, small=True)


def _digests(result):
    return sorted((s["op"], s["digest"]) for s in result["samples"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name):
    result = run.measure(name, seed=3, trace=False, **SMALL)
    assert result["failed"] == 0
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == dict(run.END_TO_END)
    summary = run.report(result)
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in summary["metrics"].values())

    traced = run.measure(name, seed=3, trace=True, **SMALL)
    assert traced["failed"] == 0
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == dict(LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == dict(LAYER_METRICS)


@pytest.mark.parametrize("name,entry", [
    ("theta-structured", "polarity(3)c"),
    ("construct-search", "furedi(5,2)"),
    ("cli-mix", "theta --graph c5.json --tol 1e-6"),
])
def test_a_corrupted_reference_fails_its_op(name, entry):
    refs = copy.deepcopy(workloads.load_references())
    ref = refs[name][entry]
    if "lower" in ref:  # move the bracket off theta
        ref["lower"], ref["upper"] = ref["upper"] + 1.0, ref["upper"] + 2.0
    else:
        key = "sha256" if "sha256" in ref else "stdout_sha256"
        ref[key] = "0" * 64
    result = run.measure(name, seed=3, trace=False, refs=refs, **SMALL)
    assert result["metrics"]["fail_share"]["value"] > 0
    assert {s["op"] for s in result["samples"] if not s["ok"]} == {entry}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_and_digests_repeat(name):
    first = run.measure(name, seed=5, trace=True, **SMALL)
    second = run.measure(name, seed=5, trace=True, **SMALL)
    for key in ("theta.iterations.sum", "theta.iterations.p50", "theta.iterations.max",
                "linalg.eigh_calls", "ffield.arith_calls"):
        assert first["metrics"][key] == second["metrics"][key], key
    assert _digests(first) == _digests(second)
    if name == "construct-search":
        assert first["metrics"]["linalg.eigh_calls"]["value"] == 0
        assert first["metrics"]["theta.solves"]["value"] == 0
        assert first["metrics"]["ffield.arith_calls"]["value"] > 0


def test_later_passes_repeat_cheap_ops():
    def sleeper(op_id, seconds):
        return workloads.Op(op_id, lambda: time.sleep(seconds), str, lambda out: True)

    wl = workloads.Workload("sleep", [sleeper("cheap", 0.01), sleeper("dear", 0.1)], [], min_passes=2,
                            params={}, op_budget_s=0.1)
    counts = collections.Counter(s["op"] for s in run.run_passes(wl, seed=0, passes=2))
    assert counts["dear"] == 2
    assert 5 <= counts["cheap"] <= 11  # one, then round(0.1 s / its first latency)


def test_timings_are_scaled_by_the_reference_over_the_measured_probe():
    ops = [workloads.Op(name, None, str, bool) for name in ("a", "b")]
    wl = workloads.Workload("probe", ops, [], min_passes=1, params={})
    samples = [{"op": "a", "s": 0.1, "ok": True}, {"op": "b", "s": 0.3, "ok": True}]
    ref = run.REFERENCE_PROBE_S
    metrics, host, _ = run.end_to_end(wl, samples, [1.0, 2.0, 3.0], [2 * ref["cpu"]] * 3, [4 * ref["process"]])
    assert host["measured"]["op_s.p50"] == pytest.approx(0.2)
    assert metrics["op_s.p50"] == pytest.approx(0.1)
    assert metrics["op_s.tail"] == pytest.approx(0.15)
    assert metrics["ops_per_s"] == pytest.approx(10.0)
    assert metrics["setup_s"] == pytest.approx(0.5)


def test_seed_changes_the_random_corpus_but_not_its_size():
    a, b = workloads.random_corpus(0, 30), workloads.random_corpus(1, 30)
    assert len(a) == len(b) == 30 and a != b
    assert a == workloads.random_corpus(0, 30)


def test_fails_without_the_program_sources():
    bare = run.BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload", "cli-mix", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
