"""Command-line behavior: outputs, exit codes, determinism."""

import ast
import gc
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetalab
from thetalab.cli import main
from thetalab.experiments import EXPERIMENT_NAMES, run_experiment, run_experiments
from thetalab.graph import (clique_union_parts, complete_graph, cycle_graph, empty_graph, from_edges, graph_from_json,
                            graph_to_json)
from thetalab.ortho import OrthoRep, basis_rep_from_clique_cover, rep_to_json, umbrella_rep
from thetalab.constructions import clique_union

SQRT5 = 2.23606797749979


def write_graph(path, g):
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_furedi(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, _, _ = run(capsys, ["construct", "furedi", "--q", "5", "--t", "2", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    g = graph_from_json(obj)
    assert g.n == 12
    assert obj["provenance"]["family"] == "furedi"
    assert obj["provenance"]["loops_removed"]


def test_construct_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, ["construct", "furedi", "--q", "5", "--t", "3"])
    assert code == 2
    assert "error" in err


def test_construct_cliques_parts(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, ["construct", "cliques", "--n", "10", "--t", "3", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["provenance"]["parts"] == [3, 3, 3, 1]
    assert graph_from_json(obj).edge_count() == 9


def test_construct_polarity_absolute_points(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, ["construct", "polarity", "--q", "3", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert graph_from_json(obj).n == 13
    assert len(obj["provenance"]["loops_removed"]) == 4


def test_theta_command_json(tmp_path, capsys):
    path = write_graph(tmp_path / "c5.json", cycle_graph(5))
    code, out, _ = run(capsys, ["theta", "--graph", path, "--json"])
    assert code == 0
    obj = json.loads(out)
    # reported floats are rounded to 9 significant digits, half an ulp here is 5e-9
    assert obj["lower"] - 1e-8 <= SQRT5 <= obj["upper"] + 1e-8
    assert obj["gap_reached"] is True
    x = np.array(obj["primal_x"])
    assert x.shape == (5, 5)
    assert abs(np.trace(x) - 1.0) <= 1e-6


def test_theta_command_gap_failure_exit(tmp_path, capsys):
    path = write_graph(tmp_path / "c5.json", cycle_graph(5))
    code, out, err = run(capsys, ["theta", "--graph", path, "--tol", "1e-8",
                                  "--iteration-cap", "3"])
    assert code == 1
    assert "warning" in err
    assert "lower:" in out  # partial bracket still reported


def test_theta_missing_file(capsys):
    code, _, err = run(capsys, ["theta", "--graph", "/nonexistent.json"])
    assert code == 2
    assert "error" in err


def test_spectrum_text(tmp_path, capsys):
    path = write_graph(tmp_path / "k3.json", clique_union(3, 3))
    code, out, _ = run(capsys, ["spectrum", "--graph", path])
    assert code == 0
    assert out.split("\n")[:3] == ["2", "-1", "-1"]


def test_check_free_exit_codes(tmp_path, capsys):
    path = write_graph(tmp_path / "c5.json", cycle_graph(5))
    code, out, _ = run(capsys, ["check", "free", "--pattern", "C4", "--graph", path])
    assert code == 0 and "free: true" in out
    code, out, _ = run(capsys, ["check", "free", "--pattern", "C5", "--graph", path])
    assert code == 1 and "free: false" in out
    code, _, err = run(capsys, ["check", "free", "--pattern", "X9", "--graph", path])
    assert code == 2 and "error" in err
    code, out, err = run(capsys, ["check", "free", "--pattern", "C1_0", "--graph", path])
    assert code == 2 and out == "" and "unrecognized pattern 'C1_0'" in err
    # K3,398 has 401 vertices, so 400 isolated vertices are free of it without the C(400,3) search
    path = write_graph(tmp_path / "e400.json", from_edges(400, []))
    assert run(capsys, ["check", "free", "--pattern", "K3,398", "--graph", path]) == (0, "free: true\n", "")


def test_rep_validate_and_gram(tmp_path, capsys):
    path = tmp_path / "umb.json"
    path.write_text(json.dumps(rep_to_json(umbrella_rep(False))))
    code, out, _ = run(capsys, ["rep", "validate", "--file", str(path)])
    assert code == 0 and "valid: true" in out
    code, out, _ = run(capsys, ["rep", "gram", "--file", str(path), "--json"])
    assert code == 0
    m = np.array(json.loads(out)["gram"])
    assert m.shape == (5, 5)
    assert np.allclose(np.diag(m), 1.0, atol=1e-8)


def test_rep_validate_accepts_the_empty_representation(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(rep_to_json(OrthoRep(3, np.zeros((3, 0)), empty_graph(0)))))
    assert run(capsys, ["rep", "validate", "--file", str(path)]) == (0, "valid: true\nmax_residual: 0\n", "")


@pytest.mark.parametrize("check, code, needle", [
    (["--check", "schnirelmann"], 2, "error: spectrum needs n >= 1"),
    (["--check", "trace-power", "--t", "1", "--parity", "odd"], 2, "error: spectrum needs n >= 1"),
    (["--check", "msr-chain", "--t", "1"], 0, "tr(M^2): 0\n"),
], ids=["schnirelmann", "trace-power", "msr-chain"])
def test_rep_certify_on_the_empty_representation(tmp_path, capsys, check, code, needle):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(rep_to_json(OrthoRep(3, np.zeros((3, 0)), empty_graph(0)))))
    got, out, err = run(capsys, ["rep", "certify", "--file", str(path)] + check)
    assert got == code and needle in out + err and "Traceback" not in err


@pytest.mark.parametrize("entry", [1e200, 1.3e154])
def test_rep_validate_refuses_an_overflowing_gram(tmp_path, capsys, entry):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(rep_to_json(OrthoRep(1, np.array([[entry, 1.0]]), from_edges(2, [(0, 1)])))))
    for action in ("validate", "gram"):
        assert run(capsys, ["rep", action, "--file", str(path)]) == (
            2, "", "error: Gram matrix overflows float64: vector entries are too large\n")


def test_rep_certify_takes_a_t_beyond_the_float64_range(tmp_path, capsys):
    g = clique_union(9, 3)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(basis_rep_from_clique_cover(g, clique_union_parts(9, 3)))))
    huge = str(10**400)
    code, out, _ = run(capsys, ["rep", "certify", "--file", str(path), "--check", "msr-chain", "--t", huge, "--json"])
    assert code == 0 and json.loads(out)["ok"] is True
    for parity in ("odd", "even"):
        code, _, err = run(capsys, ["rep", "certify", "--file", str(path), "--check", "trace-power",
                                    "--t", huge, "--parity", parity])
        assert code == 2 and err.startswith(f"error: {parity}-parity bound ") and "exceeds the float64 limit" in err


def test_rep_certify_paths(tmp_path, capsys):
    g = clique_union(9, 3)
    rep = basis_rep_from_clique_cover(g, clique_union_parts(9, 3))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, out, _ = run(capsys, ["rep", "certify", "--file", str(path),
                                "--check", "schnirelmann"])
    assert code == 0 and "ok: true" in out
    code, out, _ = run(capsys, ["rep", "certify", "--file", str(path),
                                "--check", "msr-chain", "--t", "3", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["trace_sq"] == 27.0
    code, _, err = run(capsys, ["rep", "certify", "--file", str(path),
                                "--check", "trace-power", "--t", "1"])
    assert code == 2 and "parity" in err


def test_verify_unknown_experiment(capsys):
    code, _, err = run(capsys, ["verify", "paper", "--experiment", "bogus"])
    assert code == 2
    assert "unknown experiment" in err


def test_verify_single_experiment_json(capsys):
    code, out, _ = run(capsys, ["verify", "paper", "--experiment", "theta-sandwich", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["experiment"] == "theta-sandwich"
    assert obj["pass"] is True
    assert all(c["pass"] for c in obj["checks"])
    assert isinstance(obj["runtime_ms"], int)


def test_verify_output_deterministic(capsys):
    argv = ["verify", "paper", "--experiment", "polarity-c4", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert code1 == code2 == 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_multiple_canonical_order(capsys):
    argv = ["verify", "paper", "--experiment", "theta-sandwich",
            "--experiment", "polarity-c4", "--experiment", "theta-sandwich", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    objs = json.loads(out)
    # canonical order, each once, regardless of the order flags were given in
    assert [o["experiment"] for o in objs] == ["polarity-c4", "theta-sandwich"]


def test_verify_parallel_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "paper", "--experiment", "polarity-c4", "--parallel"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, needle", [
    (["construct", "cliques", "--n", "0", "--t", "1"], "clique union needs n >= 1 and t >= 1, got n = 0, t = 1"),
    (["construct", "cliques", "--n", "4", "--t", "-2"], "clique union needs n >= 1 and t >= 1, got n = 4, t = -2"),
    (["verify", "paper", "--experiment", "schnirelmann", "--seed", "-1"], "experiment seed must be >= 0, got -1"),
], ids=["argv0---n >= 1", "argv1---t >= 1", "argv2---seed >= 0"])  # fixed ids: rewording a message renames no case
def test_bad_parameters_exit_two(capsys, argv, needle):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err


# fixed ids, the names these cases were first collected under: rewording a message renames no case
@pytest.mark.parametrize("args, needle", [
    pytest.param(["construct", "furedi", "--q", "4999", "--t", "2"],
                 "n = 12495000 vertices, above the vertex cap 20000",
                 id="args0-n = 12495000 vertices, above the vertex cap 20000"),
    pytest.param(["construct", "polarity", "--q", "149"], "n = 22351 vertices, above the vertex cap 20000",
                 id="args1-n = 22351 vertices, above the vertex cap 20000"),
    pytest.param(["theta", "--graph", "{c5}", "--tol", "nan"], "tol must be finite",
                 id="args2-tol must be finite"),
    pytest.param(["theta", "--graph", "{c5}", "--tol", "inf"], "tol must be finite",
                 id="args3-tol must be finite"),
    pytest.param(["theta", "--graph", "{c5}", "--iteration-cap", "-5"], "iteration_cap must be >= 1",
                 id="args4-iteration_cap must be >= 1"),
    pytest.param(["theta", "--graph", "{c5}", "--iteration-cap", "0"], "iteration_cap must be >= 1",
                 id="args5-iteration_cap must be >= 1"),
    pytest.param(["rep", "certify", "--file", "{rep}", "--check", "msr-chain", "--t", "0"], "t >= 1",
                 id="args6-t >= 1"),
    pytest.param(["rep", "certify", "--file", "{rep}", "--check", "msr-chain", "--t", "-2"], "t >= 1",
                 id="args7-t >= 1"),
    pytest.param(["rep", "validate", "--file", "{str_entry}"],
                 "is not a representation file: vector entry must be a number, got '1'",
                 id="args8-is not a representation file: vector entry must be a number, got '1'"),
    pytest.param(["rep", "validate", "--file", "{bool_entry}"],
                 "is not a representation file: vector entry must be a number, got True",
                 id="args9-is not a representation file: vector entry must be a number, got True"),
    pytest.param(["rep", "validate", "--file", "{huge_entry}"],
                 "is not a representation file: vector entry is too large for a float",
                 id="args10-is not a representation file: vector entry is too large for a float"),
    pytest.param(["rep", "gram", "--file", "{overflow_entry}"], "Gram matrix overflows float64",
                 id="args11-Gram matrix overflows float64"),
    pytest.param(["spectrum", "--graph", "{huge_n}"],
                 "is not a graph file: n = 100000000000000000000000 vertices, above the vertex cap 20000",
                 id="args12-is not a graph file: n = 100000000000000000000000 vertices, above the vertex cap 20000"),
    pytest.param(["spectrum", "--graph", "{billion_n}"],
                 "is not a graph file: n = 1000000000 vertices, above the vertex cap 20000",
                 id="args13-is not a graph file: n = 1000000000 vertices, above the vertex cap 20000"),
    # refused before the irreducible-modulus search of GF(2^30) and GF(3^19)
    pytest.param(["construct", "polarity", "--q", "1073741824"],
                 "n = 1152921505680588801 vertices, above the vertex cap",
                 id="args14-n = 1152921505680588801 vertices, above the vertex cap"),
    pytest.param(["construct", "polarity", "--q", "1162261467"],
                 "n = 1350851718835253557 vertices, above the vertex cap",
                 id="args15-n = 1350851718835253557 vertices, above the vertex cap"),
    pytest.param(["construct", "furedi", "--q", "1162261467", "--t", "2"],
                 "n = 675425858836496044 vertices, above the vertex cap",
                 id="args16-n = 675425858836496044 vertices, above the vertex cap"),
    # refused before any row is built
    pytest.param(["construct", "cliques", "--n", "99999999999", "--t", "1"],
                 "n = 99999999999 vertices, above the vertex cap 20000",
                 id="args17-n = 99999999999 vertices, above the vertex cap 20000"),
    # a 0-vertex graph has no spectrum; this ended in a ValueError traceback
    pytest.param(["spectrum", "--graph", "{zero_n}"], "spectrum needs n >= 1: the empty matrix has no eigenvalues",
                 id="args18-graph must have at least one vertex"),
    # refused before the bound's power is computed; these ended in an OverflowError traceback and a hang
    pytest.param(["rep", "certify", "--file", "{rep}", "--check", "trace-power", "--t", "200", "--parity", "odd"],
                 "odd-parity bound 1200^400*9 for t = 200 exceeds the float64 limit 1.7976931348623157e+308",
                 id="args19-odd-parity bound 1200^400*9 for t = 200 exceeds the float64 limit 1.7976931348623157e+308"),
    pytest.param(["rep", "certify", "--file", "{rep}", "--check", "trace-power", "--t", "100000000000", "--parity", "even"],
                 "exceeds the float64 limit",
                 id="args20-exceeds the float64 limit"),
    # the bound fits, but tr(M^81) is above Spectrum.power_sum's limit; this ended in a ValueError traceback
    pytest.param(["rep", "certify", "--file", "{rep}", "--check", "trace-power", "--t", "40", "--parity", "odd"],
                 "trace power 81 for t = 40 is above the power-sum limit 64",
                 id="args21-trace power 81 for t = 40 is above the power-sum limit 64"),
    # refused before q is factored, which took up to sqrt(q)/2 trial divisions
    pytest.param(["construct", "polarity", "--q", "2305843009213693951"],
                 "field order 2305843009213693951 exceeds 2147483648", id="polarity-order-above-the-cap"),
    # the C7 search of K_{8,8} takes 45,760 walk steps, above the cap of 10^4 set below
    pytest.param(["check", "free", "--pattern", "C7", "--graph", "{k88}"],
                 "C7 search exceeds the step cap 10000", id="cycle-search-above-the-step-cap"),
    # json.load recurses once per nesting level; these ended in a RecursionError traceback with exit 1
    pytest.param(["check", "free", "--pattern", "C3", "--graph", "{deep_labels}"],
                 "deep_labels.json: maximum recursion depth exceeded", id="labels-nested-50000-deep"),
    pytest.param(["spectrum", "--graph", "{deep_open}"],
                 "deep_open.json: maximum recursion depth exceeded", id="100000-unclosed-brackets"),
])
def test_refused_inputs_exit_two(tmp_path, capsys, monkeypatch, args, needle):
    monkeypatch.setattr(thetalab.graph, "SEARCH_STEP_CAP", 10**4)
    files = {"c5": write_graph(tmp_path / "c5.json", cycle_graph(5)), "rep": str(tmp_path / "rep.json")}
    files["k88"] = write_graph(tmp_path / "k88.json", from_edges(16, [(u, 8 + v) for u in range(8) for v in range(8)]))
    g = clique_union(9, 3)
    (tmp_path / "rep.json").write_text(json.dumps(rep_to_json(basis_rep_from_clique_cover(g, clique_union_parts(9, 3)))))
    for name, vectors in (("str_entry", [["1"], [1.0]]), ("bool_entry", [[1.0], [True]]), ("huge_entry", [[10**400], [1.0]]),
                          ("overflow_entry", [[1.7e308], [1.0]])):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps({"d": 1, "vectors": vectors, "graph": {"n": 2, "edges": [[0, 1]]}}))
    for name, n in (("huge_n", 10**23), ("billion_n", 10**9), ("zero_n", 0)):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": n, "edges": []}))
    for name, text in (("deep_labels", '{"n": 1, "edges": [], "labels": ' + "[" * 50000 + "]" * 50000 + "}"),
                       ("deep_open", "[" * 100000)):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    code, out, err = run(capsys, [a.format(**files) for a in args])
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err and "Traceback" not in err


def test_clique_search_above_the_step_cap_exits_two(tmp_path, capsys, monkeypatch):
    # G(150, 0.9), one draw per pair in lexicographic order: the K60 search ran on with no cap
    rng = np.random.default_rng(1)
    g = from_edges(150, [(u, v) for u in range(150) for v in range(u + 1, 150) if rng.random() < 0.9])
    monkeypatch.setattr(thetalab.graph, "SEARCH_STEP_CAP", 10**5)
    code, out, err = run(capsys, ["check", "free", "--pattern", "K60", "--graph", write_graph(tmp_path / "g.json", g)])
    assert (code, out) == (2, "")
    assert err == "error: clique search exceeds the step cap 100000\n"


@pytest.mark.parametrize("pattern, build", [
    pytest.param("C1200", cycle_graph, id="C1200"),
    pytest.param("K1100", complete_graph, id="K1100"),
])
def test_search_deeper_than_the_recursion_limit_exits_one(tmp_path, pattern, build):
    """C1200 on C1200 and K1100 on K1100 are found, though each search is deeper than Python's recursion limit."""
    write_graph(tmp_path / "g.json", build(int(pattern[1:])))
    proc = subprocess.run([sys.executable, "-m", "thetalab.cli", "check", "free", "--pattern", pattern, "--graph", "g.json"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "free: false" in proc.stdout and "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("obj, needle", [
    ({"n": 2.5, "edges": []}, "n must be an integer, got 2.5"),
    ({"n": 3.0, "edges": [[0, 2]]}, "n must be an integer, got 3.0"),
    ({"n": True, "edges": []}, "n must be an integer, got True"),
    ({"n": 3, "edges": [[0.9, 2.7]]}, "edge endpoint must be an integer, got 0.9"),
    ({"n": 3, "edges": [[0, 2.0]]}, "edge endpoint must be an integer, got 2.0"),
    ({"n": 3, "edges": [[False, 2]]}, "edge endpoint must be an integer, got False"),
    ([1, 2], "expected a JSON object, got list"),
    ("abc", "expected a JSON object, got str"),
    ({"n": 3, "edges": [], "labels": "abc"}, "labels must be a list, got str"),
    ({"n": 2, "edges": [], "labels": [None, 1.5]}, "label must be a string, got None"),
    ({"n": 2, "edges": [], "labels": ["a", 1.5]}, "label must be a string, got 1.5"),
    ({"n": 1, "edges": [], "labels": [7]}, "label must be a string, got 7"),
])
def test_non_integer_graph_json_exits_two(tmp_path, capsys, obj, needle):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["spectrum", "--graph", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{path} is not a graph file" in err and needle in err


@pytest.mark.parametrize("d, needle", [(3.0, "got 3.0"), (2.5, "got 2.5"), (True, "got True")])
def test_non_integer_rep_dimension_exits_two(tmp_path, capsys, d, needle):
    obj = rep_to_json(umbrella_rep(False))
    obj["d"] = d
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["rep", "validate", "--file", str(path)])
    assert code == 2 and out == ""
    assert f"{path} is not a representation file: d must be an integer, {needle}" in err


def test_rep_with_non_object_graph_exits_two(tmp_path, capsys):
    obj = rep_to_json(umbrella_rep(False))
    obj["graph"] = [5, [[0, 1]]]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["rep", "validate", "--file", str(path)])
    assert code == 2 and out == ""
    assert f"{path} is not a representation file: expected a JSON object, got list" in err


def test_unwritable_out_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "f.json"
    code, _, err = run(capsys, ["construct", "cliques", "--n", "4", "--t", "2", "--out", str(target)])
    assert code == 2
    assert f"cannot write {target}" in err
    assert not target.exists()


def test_verify_known_failing_experiment_exits_one(capsys):
    code, out, _ = run(capsys, ["verify", "paper", "--experiment", "msr-cycle"])
    assert code == 1
    assert "28/78" in out
    assert "first miss n=5, t=3" in out


def test_experiment_reports_are_seed_deterministic():
    a = run_experiment("trace-power", seed=1)
    b = run_experiment("trace-power", seed=1)
    assert [c.to_json() for c in a.checks] == [c.to_json() for c in b.checks]
    assert a.passed and a.seed == 1


def test_trace_power_searches_each_sample_once(monkeypatch):
    from thetalab import graph, ortho

    searched = []
    real = graph.contains_cycle

    def spy(g, k):
        searched.append(k)
        return real(g, k)

    monkeypatch.setattr(graph, "contains_cycle", spy)  # the binding experiments reads
    monkeypatch.setattr(ortho, "contains_cycle", spy)  # the binding require_cycle_free reads
    assert run_experiment("trace-power").passed
    assert sorted(searched) == [3] * 50 + [4] * 20  # one search per sample, the certificate's


def test_msr_cycle_searches_each_grid_point_once(monkeypatch):
    from thetalab import graph

    searched = []
    real = graph.contains_cycle

    def spy(g, k):
        searched.append(k)
        return real(g, k)

    monkeypatch.setattr(graph, "contains_cycle", spy)  # the binding contains_pattern reads
    assert not run_experiment("msr-cycle").passed  # criterion 7's known failure
    assert sorted(searched) == [3] * 26 + [4] * 26 + [5] * 26  # one search per grid point, the certificate's


def test_msr_cycle_reads_the_chain_certificate(monkeypatch):
    from thetalab import ortho

    gram_callers, chains = [], []
    real_gram, real_chain = ortho.gram, ortho.msr_lower_chain_check

    def gram_spy(rep):
        gram_callers.append(sys._getframe(1).f_globals["__name__"])
        return real_gram(rep)

    def chain_spy(rep, t):
        chains.append((rep.n, t + 1))
        return real_chain(rep, t)

    monkeypatch.setattr(ortho, "gram", gram_spy)
    monkeypatch.setattr(ortho, "msr_lower_chain_check", chain_spy)
    report = run_experiment("msr-cycle")
    assert not report.passed  # criterion 7's known failure, with its detail unchanged
    assert report.checks[2].observed == "28/78 (first miss n=5, t=3: tr(M^2) = 9, n(t-1) = 10)"
    assert set(gram_callers) == {"thetalab.ortho"}  # only the certificates form a Gram
    assert sorted(chains) == [(n, t) for n in range(5, 31) for t in (3, 4, 5)]  # one chain check per grid point


def test_run_experiments_rejects_unknown():
    from thetalab.errors import PreconditionViolated

    with pytest.raises(PreconditionViolated):
        run_experiments(["theta-sandwich", "nope"])
    for name in EXPERIMENT_NAMES:  # refused before the runner starts: schnirelmann's rng raised an untyped ValueError
        with pytest.raises(PreconditionViolated, match="experiment seed must be >= 0, got -1"):
            run_experiment(name, seed=-1)


def test_experiment_name_listing_is_complete():
    assert set(EXPERIMENT_NAMES) == {
        "furedi-spectral", "polarity-c4", "theta-sandwich", "schnirelmann",
        "msr-cycle", "trace-power", "claim1-sandwich", "layer-coloring",
        "even-cycle-bound",
    }


PACKAGE_DIR = Path(thetalab.__file__).resolve().parent


def child_env(**env_extra):
    """The environment of a child process that imports this thetalab."""
    env = {k: v for k, v in os.environ.items() if k != "LAB_MAX_N"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    env.update(env_extra)
    return env


def blank_runtime(out: bytes) -> bytes:
    """out with the wall-clock runtime_ms of experiment reports set to 0."""
    return re.sub(rb'"runtime_ms": [0-9]+', b'"runtime_ms": 0', out)


def run_child(cwd, argv, **env_extra):
    """Exit code and stdout bytes of a fresh thetalab process; runtime_ms is blanked."""
    proc = subprocess.run([sys.executable, "-m", "thetalab.cli", *argv], cwd=cwd, env=child_env(**env_extra),
                          capture_output=True, timeout=120)
    return proc.returncode, blank_runtime(proc.stdout)


@pytest.mark.parametrize("argv", [["theta", "--graph", "c5.json"],
                                  ["verify", "paper", "--experiment", "even-cycle-bound", "--json"]],
                         ids=["theta", "even-cycle-bound"])
def test_lab_max_n_in_the_environment_changes_nothing(tmp_path, argv):
    write_graph(tmp_path / "c5.json", cycle_graph(5))
    code, out = run_child(tmp_path, argv)
    assert code == 0 and out
    for value in ("abc", "4"):
        assert run_child(tmp_path, argv, LAB_MAX_N=value) == (code, out)


def test_package_reads_no_environment():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        assert not re.search(r"os\.environ|getenv", path.read_text()), path.name


def test_cli_leaves_value_ranges_to_the_library():
    """cli.py orders no parsed option against a bound: each range rule is checked by the function that takes the value."""
    ranges = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = [ast.unparse(node) for node in ast.walk(ast.parse((PACKAGE_DIR / "cli.py").read_text()))
             if isinstance(node, ast.Compare) and any(isinstance(op, ranges) for op in node.ops)
             and any(ast.unparse(side).startswith("args.") for side in (node.left, *node.comparators))]
    assert found == []


def test_package_uses_every_name_it_imports():
    """No module of the package or of its tests imports a name it never reads.  constructions binds
    clique_union, which it does not call, because bench/tracer.py wraps thetalab.constructions.clique_union there."""
    exempt = {("constructions.py", "clique_union")}
    for path in [*sorted(PACKAGE_DIR.glob("*.py")), *sorted(Path(__file__).parent.glob("*.py"))]:
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name for name in imported - read if (path.name, name) not in exempt}
        assert not unused, (path.name, sorted(unused))


def test_no_function_takes_a_graph_beside_a_representation():
    """An OrthoRep carries its graph as target, so no function of the package takes a Graph as well."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                kinds = {ast.unparse(a.annotation).rpartition(".")[2]
                         for a in (*args.posonlyargs, *args.args, *args.kwonlyargs) if a.annotation is not None}
                assert not {"OrthoRep", "Graph"} <= kinds, (path.name, node.name)


def test_package_raises_only_its_own_error_classes():
    """Every raise in the package names a class of thetalab.errors, or is a bare re-raise.  ValueError
    reaches a caller only from numpy or json, for cli._load to convert.  The package's module __getattr__
    raises AttributeError, because the attribute protocol (hasattr, from-import) needs it."""
    own = {node.name for node in ast.parse((PACKAGE_DIR / "errors.py").read_text()).body
           if isinstance(node, ast.ClassDef)}
    exempt = {("__init__.py", "AttributeError")}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc)
                assert name in own or (path.name, name) in exempt, (path.name, node.lineno, name)


def test_package_catches_no_key_or_type_error():
    """No except clause in the package names KeyError or TypeError: a malformed value is refused by a check,
    not caught after a lookup or an operation on it fails.  The one exemption is the dict lookup in the
    package's module __getattr__, which turns a missing name into the AttributeError the protocol needs."""
    exempt = {("__init__.py", "KeyError")}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for name in map(ast.unparse, names):
                    assert name not in ("KeyError", "TypeError") or (path.name, name) in exempt, (
                        path.name, node.lineno, name)


def test_package_reads_every_private_name_it_defines():
    """No module-level private function, class or constant of the package goes unread by the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        unread = {d for d in defined if d.startswith("_") and not d.startswith("__")} - read
        assert not unread, (name, sorted(unread))


def test_limits_are_module_constants():
    from thetalab.graph import chromatic_number_exact, contains_complete_bipartite, contains_cycle
    from thetalab.linalg import Spectrum, sym_from_dense
    from thetalab.ortho import msr_lower_chain_check, validate_rep
    from thetalab.theta import transitive_identity_check

    for fn in (contains_cycle, contains_complete_bipartite, chromatic_number_exact, validate_rep, msr_lower_chain_check,
               transitive_identity_check, Spectrum.rank, sym_from_dense):
        assert not {"cap", "tol"} & set(inspect.signature(fn).parameters), fn.__name__
    assert not hasattr(thetalab, "solver_cap")


# every name the package exports, by owning module
PACKAGE_EXPORTS = {
    "errors": "ComplexityRefused ConvergenceFailure DimensionMismatch DivisionByZero GapNotReached "
              "HandleOrthogonalToVector IndexOutOfRange LoopRejected NoEdges NotACliqueCover NotPrime "
              "OrderUnavailable Overflow PreconditionViolated RepInvalid ThetalabError UnsupportedPattern",
    "ffield": "FieldElement FieldSpec element_of_order field_create field_from_order is_prime prime_power_split "
              "subgroup",
    "graph": "Graph LayerColoringReport bfs_layers chromatic_number_exact clique_union clique_union_parts complement "
             "complete_graph contains_clique contains_complete_bipartite contains_cycle contains_pattern cycle_graph "
             "empty_graph from_edges graph_from_json graph_to_json induced_subgraph "
             "layer_chromatic_check max_clique_size parse_pattern",
    "linalg": "Spectrum SymMatrix adjacency_sym eigen_sym eigvals_sym sym_from_dense",
    "constructions": "FurediGraph SquareIdentityReport furedi_graph furedi_square_identity polarity_graph "
                     "polarity_graph_with_loops",
    "ortho": "MsrChainReport OrthoRep RepValidation SchnirelmannReport TracePowerReport basis_rep_from_clique_cover "
             "gram greedy_clique_cover msr_lower_chain_check msr_upper_certificate random_rep rep_from_json "
             "rep_sum_length rep_sum_length_aligned rep_to_json schnirelmann_check trace_power_certificate "
             "umbrella_rep validate_rep",
    "theta": "BoundFormulaReport L_bounds ThetaResult bound_formula_check theta_lower_from_rep theta_sdp "
             "theta_spectral_lower_of_complement theta_upper_from_rep transitive_identity_check",
    "experiments": "EXPERIMENT_NAMES ExperimentCheck ExperimentReport run_experiment run_experiments",
}


@pytest.mark.parametrize("module", PACKAGE_EXPORTS)
def test_package_names_are_their_modules_names(module):
    owner = importlib.import_module(f"thetalab.{module}")
    assert getattr(thetalab, module) is owner is sys.modules[f"thetalab.{module}"]
    for name in PACKAGE_EXPORTS[module].split():
        assert getattr(thetalab, name) is getattr(owner, name), name
        assert name in thetalab.__all__ and name in dir(thetalab), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        thetalab.no_such_name  # noqa: B018


def test_package_exports_no_other_names():
    assert sorted(thetalab.__all__) == sorted(name for names in PACKAGE_EXPORTS.values() for name in names.split())


def _load_bench_module(name: str, monkeypatch):
    """bench/<name>.py, registered under its own name for as long as the test runs (workloads.py
    imports tracer by that name, and its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_hooks_resolve(monkeypatch):
    """Every name bench/tracer.py wraps or patches exists, so `bench/run.py --trace 1` can install."""
    from thetalab.ffield import FieldSpec
    from thetalab.theta import ThetaResult

    tracer = _load_bench_module("tracer", monkeypatch)
    assert tracer._FUNCTIONS
    for modname, attr, _, _ in tracer._FUNCTIONS:
        assert callable(getattr(sys.modules[modname], attr, None)), f"{modname}.{attr}"
    assert set(tracer._FIELD_OPS) <= set(vars(FieldSpec))
    assert "__post_init__" in vars(ThetaResult)


def test_cli_mix_matches_bench_references(tmp_path, capsys, monkeypatch):
    """Every cli-mix command, run in process, gives the exit code and stdout digest bench/references.json pins."""
    _load_bench_module("tracer", monkeypatch)
    workloads = _load_bench_module("workloads", monkeypatch)
    refs = workloads.load_references()["cli-mix"]
    workloads.write_cli_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert len(workloads.CLI_COMMANDS) == 25
    for command in workloads.CLI_COMMANDS:
        code = main(command.split())
        out = capsys.readouterr().out.encode()
        assert (code, workloads.stdout_digest(out)) == (refs[command]["exit"], refs[command]["stdout_sha256"]), command


def test_construct_search_matches_bench_references(monkeypatch):
    """Every construct-search op, run in process, passes the check against bench/references.json:
    same edges, labels, loops and verdict for all 136 Füredi and polarity graphs."""
    _load_bench_module("tracer", monkeypatch)
    workloads = _load_bench_module("workloads", monkeypatch)
    ops = workloads.construct_search(1, workloads.load_references(), False, None).ops
    assert len(ops) == 136
    for op in ops:
        assert op.check(op.run()), op.id


# run in a fresh process: which thetalab modules are registered, which have run, and whether numpy was imported
_LAYER_PROBE = """
import json, sys, types
import thetalab.cli

def executed():
    return sorted(k.removeprefix("thetalab.") for k, m in sys.modules.items()
                  if k.startswith("thetalab.") and k != "thetalab.cli" and type(m) is types.ModuleType)

registered = sorted(k.removeprefix("thetalab.") for k in sys.modules if k.startswith("thetalab."))
thetalab.cli._parser()
at_start = executed()
code = thetalab.cli.main(sys.argv[1:])
print(json.dumps([registered, at_start, executed(), "numpy" in sys.modules, code]), file=sys.stderr)
"""

# (argv, layers run, numpy imported, exit code)
_EXPERIMENT_LAYERS = {
    "furedi-spectral": ("constructions errors experiments ffield graph linalg theta", 0),
    "polarity-c4": ("constructions errors experiments ffield graph linalg", 0),
    "theta-sandwich": ("errors experiments graph linalg theta", 0),
    "schnirelmann": ("errors experiments graph linalg ortho", 0),
    "msr-cycle": ("errors experiments graph linalg ortho", 1),  # criterion 7's known failure
    "trace-power": ("errors experiments graph linalg ortho", 0),
    "claim1-sandwich": ("errors experiments graph linalg ortho theta", 0),
    "layer-coloring": ("errors experiments graph", 0),
    "even-cycle-bound": ("constructions errors experiments ffield graph linalg ortho theta", 0),
}
_LAYER_CASES = {
    "check-free": ("check free --pattern C4 --graph c5.json", "errors graph", True, 0),
    "check-free-c5": ("check free --pattern C5 --graph c5.json", "errors graph", False, 1),
    "spectrum": ("spectrum --graph c5.json", "errors graph linalg", True, 0),
    "construct": ("construct cliques --n 4 --t 2", "errors graph", False, 0),
    "rep": ("rep validate --file rep.json", "errors graph linalg ortho", True, 0),
    "theta": ("theta --graph c5.json", "errors graph linalg theta", True, 0),
    **{f"verify-{name}": (f"verify paper --experiment {name}", layers, True, code)
       for name, (layers, code) in _EXPERIMENT_LAYERS.items()},
    "verify-unknown": ("verify paper --experiment nope", "errors experiments", False, 2),
}


@pytest.mark.parametrize("argv, layers, numpy, code", _LAYER_CASES.values(), ids=_LAYER_CASES)
def test_commands_run_only_their_layers(tmp_path, argv, layers, numpy, code):
    write_graph(tmp_path / "c5.json", cycle_graph(5))
    (tmp_path / "rep.json").write_text(json.dumps(rep_to_json(umbrella_rep())))
    proc = subprocess.run([sys.executable, "-c", _LAYER_PROBE, *argv.split()], cwd=tmp_path, env=child_env(),
                          capture_output=True, timeout=120)
    *messages, probe = proc.stderr.decode().splitlines()
    registered, at_start, after, numpy_imported, exit_code = json.loads(probe)
    assert registered == sorted(["cli", *PACKAGE_EXPORTS])
    assert at_start == ["errors"]  # building the parser runs no layer
    assert (after, numpy_imported, exit_code) == (layers.split(), numpy, code)
    if code == 2:  # a refusal names every experiment it would have accepted
        assert messages == [f"error: unknown experiment 'nope'; expected one of: {', '.join(EXPERIMENT_NAMES)}"]


def test_module_run_writes_nothing_to_stderr(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "thetalab.cli", "construct", "cliques", "--n", "4", "--t", "2"],
                          cwd=tmp_path, env=child_env(), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["provenance"]["parts"] == [2, 2]


def test_in_process_main_leaves_the_collector_alone(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv, expected in ((["construct", "cliques", "--n", "4", "--t", "2"], 0),
                           (["construct", "cliques", "--n", "0", "--t", "1"], 2)):
        assert run(capsys, argv)[0] == expected
        assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv", ["construct polarity --q 7", "theta --graph c5.json --json",
                                  "verify paper --experiment polarity-c4 --json", "check free --pattern C5 --graph c5.json"],
                         ids=["construct", "theta", "verify", "check-free-exit-1"])
def test_process_exit_keeps_main_output(tmp_path, capsys, monkeypatch, argv):
    """A process that freezes its heap before exiting prints what main() prints in process, and
    nothing on stderr under -X dev (which reports unclosed files and other shutdown warnings)."""
    write_graph(tmp_path / "c5.json", cycle_graph(5))
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "thetalab.cli", *argv.split()], cwd=tmp_path,
                          env=child_env(), capture_output=True, timeout=120)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, argv.split())
    assert (proc.returncode, blank_runtime(proc.stdout), proc.stderr) == (code, blank_runtime(out.encode()), b"")


_EXIT_PROBE = """
import atexit, gc, sys
import thetalab.cli
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
thetalab.cli.run()
"""


def test_run_freezes_the_heap_before_exiting(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, "construct", "cliques", "--n", "4", "--t", "2"],
                          cwd=tmp_path, env=child_env(), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"True\n")
    assert json.loads(proc.stdout)["provenance"]["parts"] == [2, 2]


def test_installed_script_and_module_run_share_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    (call,) = [ast.unparse(stmt) for stmt in block.body]
    assert call == "run()"
    assert pyproject["project"]["scripts"]["thetalab"] == "thetalab.cli:run"


def test_theta_flags_default_to_the_solver_constants(tmp_path):
    from thetalab.theta import DEFAULT_ITERATION_CAP, DEFAULT_TOL

    assert (DEFAULT_TOL, DEFAULT_ITERATION_CAP) == (1e-6, 50_000)
    write_graph(tmp_path / "c5.json", cycle_graph(5))
    plain = run_child(tmp_path, ["theta", "--graph", "c5.json"])
    assert plain[0] == 0 and plain[1].startswith(b"n: 5\n")
    assert run_child(tmp_path, ["theta", "--graph", "c5.json", "--tol", "1e-6", "--iteration-cap", "50000"]) == plain
