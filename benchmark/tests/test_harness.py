"""Tests of the benchmark itself: seeded inputs, exact counts and span times.

Run with ``python3 -m pytest benchmark/tests``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

import run
import shirshov as sh
import workloads
from shirshov import cli
from tracing import COUNT_METRICS, LAYER_METRICS, Tracer

SMALL = {"elems": 5000, "letters": 2000}


def _fingerprint(inputs: dict) -> bytes:
    """Byte form of everything a workload's set-up hands to the library."""
    parts = []
    for name, seq in inputs.get("seqs", {}).items():
        parts += [name.encode(), np.asarray(seq.elems).tobytes()]
    for name, (alphabet, word) in inputs.get("words", {}).items():
        parts += [name.encode(), repr(alphabet.generators).encode(), " ".join(word).encode()]
    for name, argv in inputs.get("argv", {}).items():
        parts += [name.encode(), json.dumps(argv).encode()]
    if "spec" in inputs:
        parts.append(json.dumps(sh.algebra_to_json(inputs["spec"])).encode())
    return b"\0".join(parts)


def _fixture_spec():
    return workloads.fixture_setup(0)["spec"]


def test_same_seed_gives_identical_inputs():
    for name, workload in workloads.WORKLOADS.items():
        setup = workload.setup
        if name == "sequences":
            setup = lambda seed: workloads.sequences_setup(seed, **SMALL)
        assert _fingerprint(setup(7)) == _fingerprint(setup(7)), name


def test_other_seed_changes_sequences():
    one = workloads.sequences_setup(1, **SMALL)
    two = workloads.sequences_setup(2, **SMALL)
    for name in one["seqs"]:
        assert not np.array_equal(one["seqs"][name].elems, two["seqs"][name].elems)
    for name in one["words"]:
        assert one["words"][name][1] != two["words"][name][1]


def test_sequence_counts_repeat_exactly():
    inputs = workloads.sequences_setup(3, **SMALL)
    runs = []
    for _ in range(2):
        with Tracer() as tr:
            ops = workloads.sequences_pass(inputs)
        assert all(op.ok for op in ops)
        assert workloads.WORKLOADS["sequences"].cross_check(inputs, tr.counts, ops) == []
        runs.append({k: tr.metrics()[k] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    assert runs[0]["intervals.decompose.elems"] == 4 * SMALL["elems"] + 2 * SMALL["letters"]


def test_spanning_counts_repeat_and_match_reports():
    spec = _fixture_spec()
    x, y = workloads.fixture_setup(0)["letters"]
    params = {"d": 4}
    runs = []
    for _ in range(2):
        with Tracer() as tr:
            base = sh.is_shirshov_base(spec, [(x,), (y,)], h=2, d=4, D=8)
            graded = sh.check_graded_theorem(spec, [(y,), (x, x)], h=2, d=4, D=8)
        outputs = [
            workloads.Op("base_check", 0.0, True, sh.report_to_json(base)),
            workloads.Op("graded_check", 0.0, True, sh.report_to_json(graded)),
        ]
        assert workloads._spanning_cross_check(params, tr.counts, outputs) == []
        runs.append({k: tr.metrics()[k] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    assert runs[0]["rewriting.normalize.calls"] > 0


def test_self_times_are_nonnegative_and_children_fit():
    setup = workloads.fixture_setup(5)
    argv = setup["argv"]["graded_check"][:-1] + [
        setup["argv"]["graded_check"][-1].replace('"d": 8, "D": 16', '"d": 4, "D": 8')
    ]
    with Tracer() as tr:
        code = cli.main(argv)
        ops = workloads.sequences_pass(workloads.sequences_setup(5, **SMALL))
    assert code == 0 and all(op.ok for op in ops)
    assert tr.span_problems() == []
    assert min(tr.self_times()) >= 0.0
    names = set(tr.names)
    assert {"cli", "spanning.check", "rewriting.normalize", "words.factorize",
            "intervals.decompose"} <= names
    assert tr.metrics()["cli.payload_bytes"] == len(argv[-1].encode())


def test_tracer_restores_the_library():
    before = (sh.spanning.normalize, cli.check_graded_theorem, sh.RowEchelon.add)
    with Tracer():
        assert sh.spanning.normalize is not before[0]
    assert (sh.spanning.normalize, cli.check_graded_theorem, sh.RowEchelon.add) == before


def test_nf_counters_match_closed_form():
    setup = workloads.fixture_setup(9)
    assert workloads.nf_closed_form_problems(setup["spec"], setup["letters"]) == []


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert layer == {**LAYER_METRICS, run.OVERHEAD: ("s", "lower")}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "sequences", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
