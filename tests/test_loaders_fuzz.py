"""Fuzzing of the JSON loaders and the pattern parser, in process and through the CLI.

Every input must give a value or one of the errors a caller is expected to
handle: ValueError, KeyError, TypeError or a ThetalabError.  The CLI turns
those into exit 2, so a command on any such file exits 0, 1 or 2.  All
integers in the files are small, so no case asks for a large graph; a
certificate's --t may also be 0 or far beyond the float64 range.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from thetalab.cli import main
from thetalab.errors import ThetalabError
from thetalab.graph import Graph, graph_from_json, graph_to_json, parse_pattern
from thetalab.ortho import OrthoRep, rep_from_json, rep_to_json

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
CLI_FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
EXPECTED = (ValueError, KeyError, TypeError, ThetalabError)

small_ints = st.integers(-2, 9)
json_leaves = st.none() | st.booleans() | small_ints | st.floats(-4.0, 4.0) | st.text(max_size=3)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _spoil(draw, obj: dict, keys) -> dict:
    """obj as drawn, or with one key dropped or its value replaced by any JSON value."""
    how = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
    if how == "keep":
        return obj
    key = draw(st.sampled_from(keys))
    obj = dict(obj)
    if how == "drop":
        obj.pop(key, None)
    else:
        obj[key] = draw(json_values)
    return obj


def _mostly(good, bad):
    return st.one_of(good, good, good, bad)


@st.composite
def graph_dicts(draw, n):
    """The JSON of a graph on n >= 0 vertices, labelled or not."""
    edges = []
    if n >= 2:  # u and u + k (mod n) for 0 < k < n: distinct ends, so no loops
        pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        edges = draw(st.lists(pairs.map(lambda e: [e[0], (e[0] + e[1]) % n]), max_size=8))
    obj = {"n": n, "edges": edges}
    if draw(st.booleans()):
        obj["labels"] = draw(st.lists(st.text(max_size=2), min_size=n, max_size=n))
    return obj


@st.composite
def graph_objects(draw, n=None):
    """Graph JSON: a small graph, maybe with a bad edge or labels, or with one key spoilt."""
    if n is None:
        n = draw(_mostly(st.integers(0, 8), small_ints))
    obj = draw(graph_dicts(max(n, 0)))
    obj["n"] = n
    if draw(st.integers(0, 3)) == 3:
        obj["edges"].append(draw(st.lists(st.integers(-1, max(n, 0)), max_size=3) | json_values))
    if draw(st.integers(0, 3)) == 3:
        obj["labels"] = draw(st.lists(json_leaves, max_size=max(n, 0) + 1))
    return _spoil(draw, obj, ["n", "edges", "labels"])


@st.composite
def rep_objects(draw):
    """Representation JSON: n vectors of d entries for an n-vertex graph, maybe
    with a bad row or entry, or with one part spoilt."""
    n, d = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    row = st.lists(st.floats(-2.0, 2.0) | st.integers(-2, 2), min_size=d, max_size=d)
    vectors = draw(st.lists(row, min_size=n, max_size=n))
    if vectors and draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, n - 1))
        vectors[i] = draw(st.lists(json_leaves, max_size=5) | json_leaves)
    obj = {"d": d, "graph": draw(_mostly(graph_dicts(n), graph_objects(n))), "vectors": vectors}
    return _spoil(draw, obj, ["d", "graph", "vectors"])


patterns = st.one_of(
    st.builds(lambda head, body: head + body, st.sampled_from(["C", "K", "c", "k", " K", "X", ""]),
              st.text(st.sampled_from("0123456789,-+ _"), max_size=6)),
    st.text(max_size=8),
)


@FUZZ
@given(graph_objects())
def test_graph_json_loader_fuzz(obj):
    try:
        g = graph_from_json(obj)
    except EXPECTED:
        return
    assert isinstance(g, Graph)
    assert graph_from_json(graph_to_json(g)) == g


@FUZZ
@given(rep_objects())
def test_rep_json_loader_fuzz(obj):
    try:
        rep = rep_from_json(obj)
    except EXPECTED:
        return
    assert isinstance(rep, OrthoRep)
    again = rep_from_json(rep_to_json(rep))
    assert again.target == rep.target and np.array_equal(again.vectors, rep.vectors)


@FUZZ
@given(patterns)
def test_parse_pattern_fuzz(text):
    try:
        kind, arg = parse_pattern(text)
    except ThetalabError:
        return
    assert kind in ("cycle", "clique", "biclique")
    if kind == "cycle":
        assert arg >= 3
    elif kind == "clique":
        assert arg >= 1
    else:
        assert 1 <= arg[0] <= arg[1]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


HUGE_T = 10**400
EMPTY_REP = {"d": 2, "graph": {"n": 0, "edges": []}, "vectors": []}
UNIT_REP = {"d": 1, "graph": {"n": 1, "edges": []}, "vectors": [[1.0]]}


@CLI_FUZZ
@given(graph_obj=graph_objects(), rep_obj=rep_objects(), pattern=patterns,
       t=st.sampled_from([0, HUGE_T]) | st.integers(-2, 9), parity=st.sampled_from([None, "odd", "even"]))
@example(graph_obj={"n": 1, "edges": []}, rep_obj=EMPTY_REP, pattern="C4", t=1, parity="odd")
@example(graph_obj={"n": 1, "edges": []}, rep_obj=UNIT_REP, pattern="C4", t=HUGE_T, parity="odd")
def test_cli_on_fuzzed_files_exits_cleanly(tmp_path_factory, graph_obj, rep_obj, pattern, t, parity):
    work = tmp_path_factory.mktemp("fuzz")
    graph_path, rep_path = work / "g.json", work / "rep.json"
    graph_path.write_text(json.dumps(graph_obj))
    rep_path.write_text(json.dumps(rep_obj))
    certify = ["rep", "certify", "--file", str(rep_path), "--t", str(t)] + (["--parity", parity] if parity else [])
    for argv in (["spectrum", "--graph", str(graph_path)],
                 ["check", "free", "--pattern", pattern, "--graph", str(graph_path)],
                 ["rep", "validate", "--file", str(rep_path)],
                 ["rep", "gram", "--file", str(rep_path)],
                 certify + ["--check", "schnirelmann"],
                 certify + ["--check", "trace-power"],
                 certify + ["--check", "msr-chain"]):
        code, err = _cli(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
