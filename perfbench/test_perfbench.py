"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as W

HERE = Path(__file__).resolve().parent


def _digest(name, seed, n):
    return W.input_digest(itertools.islice(W.WORKLOADS[name].ops(seed), n))


def test_same_seed_gives_same_inputs():
    for name, n in (("classify_q", 40), ("cyclotomic", 30), ("scan_q", 9)):
        assert _digest(name, 5, n) == _digest(name, 5, n)
        assert _digest(name, 5, n) != _digest(name, 6, n)


def test_inputs_never_repeat_within_a_run():
    # cyclotomic: about 62 rounds of 37 ops; classify_q: 40 rounds of 150 ops.
    # Both are more rounds than a 20 s run completes, and the streams must
    # neither repeat an input nor run out of new ones.
    for name, n in (("classify_q", 6000), ("cyclotomic", 2300), ("scan_q", 100)):
        keys = [op.key for op in itertools.islice(W.WORKLOADS[name].ops(11), n)]
        assert len(keys) == len(set(keys))
    assert len(keys) == 9  # scan_q ends after its nine (p, eps)


def test_exhausted_input_space_is_an_error_not_a_hang():
    unique = W._Unique(str)
    assert unique.take(lambda: ("a", 1), tries=3) == ("a", 1, "a")
    with pytest.raises(RuntimeError):
        unique.take(lambda: ("a", 1), tries=3)


def test_trace_lines_parse_and_spans_nest(tmp_path):
    wl = W.WORKLOADS["classify_q"]
    cyclo = list(itertools.islice(W.WORKLOADS["cyclotomic"].ops(3), 40))
    ops = list(itertools.islice(wl.ops(3), 6))
    ops += [next(op for op in cyclo if op.kind == kind) for kind in ("class", "group")]
    tracer = spans.Tracer()
    with tracer:
        for i, op in enumerate(ops):
            token = tracer.begin_op(i, "q" if op.m == 1 else "cyc")
            (W.run_classify if op.m == 1 else W.run_cyclotomic)(op)
            tracer.end(token)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {r["id"]: r for r in records}
    children = {}
    for r in records:
        assert r["self_ns"] >= 0
        if r["parent"] == -1:
            assert r["name"] == spans.OP_SPAN
            continue
        parent = by_id[r["parent"]]
        assert parent["start_ns"] <= r["start_ns"] <= r["end_ns"] <= parent["end_ns"]
        assert parent["op"] == r["op"]
        children.setdefault(r["parent"], []).append(r)
    for r in records:
        covered = sum(c["end_ns"] - c["start_ns"] for c in children.get(r["id"], []))
        assert r["self_ns"] == r["end_ns"] - r["start_ns"] - covered
    names = {r["name"] for r in records}
    assert {"classify.canonical_class", "linalg.row_reduce.q", "linalg.lie_closure.cyc"} <= names
    # the wrappers are gone again
    from phimod import classify, modules

    assert not hasattr(classify.canonical_class, "__wrapped__")
    assert not hasattr(modules.row_reduce, "__wrapped__")


def test_traced_and_untraced_scan_stdout_are_identical():
    op = W.Op("scan", 1, "7|1|3", (7, 1, 3), ())
    code, plain = W.run_scan(op)
    with spans.Tracer() as tracer:
        traced_code, traced_out = W.run_scan(op)
    assert code == traced_code == 0
    assert W.sha256(plain) == W.sha256(traced_out)
    assert any(s[1] == "scan.scan" for s in tracer.spans)


def test_wrong_expected_digest_counts_as_failed_op():
    op = W.Op("scan", 1, "7|0|2", (7, 0, 2), ())
    _, text = W.run_scan(op)
    good = {"7,0,2": W.sha256(text)}
    wrong = {"7,0,2": "0" * 64}
    ok = list(run.run_loop(W.WORKLOADS["scan_q"], [op], 0, lambda o, out: W.check_scan(o, out, good)))
    bad = list(run.run_loop(W.WORKLOADS["scan_q"], [op], 0, lambda o, out: W.check_scan(o, out, wrong)))
    assert [r.ok for r in ok] == [True]
    assert [r.ok for r in bad] == [False]


def test_stored_scan_digests_cover_the_workload():
    digests = W.load_scan_digests()
    for op in W.scan_q_ops(1):
        assert f"{op.args[0]},{op.args[1]},{op.args[2]}" in digests


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "scan_q", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
