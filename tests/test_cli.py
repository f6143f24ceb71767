"""Command-line interface: payloads, formats, and the exit-code contract."""

import json
import pathlib
import resource
import subprocess
import sys
import time

import pytest

import shirshov as sh
from shirshov.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_NOT_WITNESSED,
    EXIT_OK,
    main,
)

Z2_ALPHABET = {
    "group": {"cyclic": 2},
    "generators": [{"sym": "x", "grade": 1}, {"sym": "y", "grade": 0}],
}
FIXTURE_ALGEBRA = {
    "alphabet": Z2_ALPHABET,
    "rules": [{"lhs": ["x", "y"], "rhs": [{"coef": "1", "word": ["y", "y", "x"]}]}],
}
FREE_ALGEBRA = {"alphabet": Z2_ALPHABET, "rules": []}
PINGPONG_ALGEBRA = {
    "alphabet": {
        "group": {"cyclic": 2},
        "generators": [{"sym": "x", "grade": 1}, {"sym": "y", "grade": 1}],
    },
    "rules": [
        {"lhs": ["x", "y"], "rhs": [{"coef": "1", "word": ["y", "x"]}]},
        {"lhs": ["y", "x"], "rhs": [{"coef": "1", "word": ["x", "y"]}]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


# ----------------------------------------------------------------- decompose


def test_decompose_example(capsys):
    code, doc, _ = run_json(
        capsys, "decompose",
        "--json", '{"group":{"cyclic":2},"elems":[1,1,1,0]}',
    )
    assert code == EXIT_OK
    assert doc == {"intervals": [[2, 4]], "uncovered": [1], "coverage": 3,
                   "bound_ok": True}


def test_decompose_human_format(capsys):
    code, out, _ = run(
        capsys, "decompose", "--format", "human",
        "--json", '{"group":{"cyclic":2},"elems":[1,1,1,0]}',
    )
    assert code == EXIT_OK
    assert "intervals: [2,4]" in out
    assert "coverage 3 >= n-|G|+1 = 3: true" in out


def test_decompose_empty_sequence(capsys):
    code, doc, _ = run_json(
        capsys, "decompose", "--json", '{"group":{"cyclic":5},"elems":[]}'
    )
    assert code == EXIT_OK
    assert doc["intervals"] == [] and doc["coverage"] == 0


def test_decompose_element_out_of_range(capsys):
    code, _, err = run(
        capsys, "decompose", "--json", '{"group":{"cyclic":2},"elems":[1,5]}'
    )
    assert code == EXIT_BAD_INPUT
    assert "out of range" in err


def test_decompose_output_round_trips_through_verify(capsys):
    payload = '{"group":{"cyclic":3},"elems":[1,2,0,1,1,1,2]}'
    code, doc, _ = run_json(capsys, "decompose", "--json", payload)
    assert code == EXIT_OK
    seq = sh.sequence_from_json(json.loads(payload))
    dec = sh.decomposition_from_json(
        {k: doc[k] for k in ("intervals", "uncovered", "coverage")}
    )
    rep = sh.verify_decomposition(seq, dec)
    assert rep.violations == () and rep.bound_ok


def test_input_file_variant(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text('{"group":{"cyclic":2},"elems":[0,0]}', encoding="utf-8")
    code, doc, _ = run_json(capsys, "decompose", "--input", str(path))
    assert code == EXIT_OK
    assert doc["coverage"] == 2


def test_deeply_nested_input_file_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == "" and err == "error: bad JSON: nested too deeply.\n"


def test_deeply_nested_product_spec_exits_two(capsys):
    # A "product" group spec k deep recurses about twice as deep through
    # build_group as json.loads does, so near the JSON reader's limit a spec it
    # parses can still pass the recursion limit.  That depth moves with the
    # caller's stack, so every depth is tried from the first one the reader
    # refuses down to the first one that decomposes.
    def payload(k):
        spec = '{"product":[' * k + '{"cyclic":1}' + ',{"cyclic":1}]}' * k
        return '{"group":' + spec + ',"elems":[]}'

    refused = "error: bad JSON: nested too deeply.\n"
    k = next(2 ** i for i in range(17)
             if run(capsys, "decompose", "--json", payload(2 ** i))[2] == refused)
    while True:
        code, out, err = run(capsys, "decompose", "--json", payload(k))
        assert code in (EXIT_OK, EXIT_BAD_INPUT), (k, err)
        if code == EXIT_OK:
            break
        assert out == "" and err in (refused, "error: input nested too deeply.\n"), (k, err)
        k -= 1


def test_input_and_json_together_rejected(capsys):
    code, _, err = run(
        capsys, "decompose", "--input", "whatever.json", "--json", "{}"
    )
    assert code == EXIT_BAD_INPUT
    assert "not both" in err


def test_missing_input_rejected(capsys):
    code, _, err = run(capsys, "decompose")
    assert code == EXIT_BAD_INPUT
    assert "required" in err


def test_unreadable_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", "--input", str(tmp_path / "gone.json"))
    assert code == EXIT_BAD_INPUT
    assert "cannot read" in err


def test_non_utf8_input_file_exits_two(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: cannot read")


def test_bad_json_rejected(capsys):
    code, _, err = run(capsys, "decompose", "--json", "{nope")
    assert code == EXIT_BAD_INPUT
    assert "bad JSON" in err


# ----------------------------------------------------------------- factorize


def test_factorize_example_with_height(capsys):
    payload = json.dumps({"alphabet": Z2_ALPHABET, "word": ["x", "x", "x", "y"]})
    code, doc, _ = run_json(capsys, "factorize", "--h", "2", "--json", payload)
    assert code == EXIT_OK
    assert doc["segments"] == [
        {"tag": "Y", "span": [1, 1]}, {"tag": "A", "span": [2, 4]}
    ]
    assert doc["k"] == 1 and doc["y_total"] == 1
    assert doc["power_count"] == 3 and doc["height_bound"] == 5
    assert doc["within_bound"] is True


def test_factorize_empty_word(capsys):
    payload = json.dumps({"alphabet": Z2_ALPHABET, "word": []})
    code, doc, _ = run_json(capsys, "factorize", "--json", payload)
    assert code == EXIT_OK
    assert doc == {"segments": [], "k": 0, "y_total": 0}


def test_factorize_unknown_symbol(capsys):
    payload = json.dumps({"alphabet": Z2_ALPHABET, "word": ["z"]})
    code, _, err = run(capsys, "factorize", "--json", payload)
    assert code == EXIT_BAD_INPUT
    assert "unknown symbol" in err


def test_factorize_height_from_payload(capsys):
    payload = json.dumps(
        {"alphabet": Z2_ALPHABET, "word": ["y", "y"], "h": 3}
    )
    code, doc, _ = run_json(capsys, "factorize", "--json", payload)
    assert code == EXIT_OK
    assert doc["power_count"] == 3


def test_factorize_bad_height(capsys):
    payload = json.dumps({"alphabet": Z2_ALPHABET, "word": ["y"]})
    code, _, err = run(capsys, "factorize", "--h", "0", "--json", payload)
    assert code == EXIT_BAD_INPUT


# --------------------------------------------------------------- verify-base


def test_verify_base_witnessed_exit_zero(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]]})
    code, doc, _ = run_json(
        capsys, "verify-base", "--h", "2", "--d", "6", "--json", payload
    )
    assert code == EXIT_OK
    assert doc["verdict"] == "witnessed-spanning"
    assert doc["D"] == 12


def test_verify_base_not_witnessed_exit_three(capsys):
    payload = json.dumps({"algebra": FREE_ALGEBRA, "base": [["x"], ["y"]]})
    code, doc, _ = run_json(
        capsys, "verify-base", "--h", "2", "--d", "3", "--json", payload
    )
    assert code == EXIT_NOT_WITNESSED
    assert ["x", "y", "x"] in doc["missing"]


def test_verify_base_graded_flag(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["y"], ["x", "x"]]})
    code, doc, _ = run_json(
        capsys, "verify-base", "--graded", "--h", "2", "--d", "6", "--json", payload
    )
    assert code == EXIT_OK
    assert doc["verdict"] == "witnessed-spanning"
    assert doc["height"] == 5
    assert doc["neutral"]["verdict"] == "witnessed-spanning"


def test_verify_base_human_format(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["y"], ["x", "x"]],
                          "graded": True, "h": 2, "d": 6})
    code, out, _ = run(capsys, "verify-base", "--format", "human", "--json", payload)
    assert code == EXIT_OK
    assert "verdict: witnessed-spanning" in out
    assert "identity-grade phase" in out


README_EXAMPLES = [
    ({"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]], "h": 2, "d": 6}, EXIT_OK,
     "verdict: witnessed-spanning\n"
     "height 2, d 6, D 12\n"
     "rank products 148, rank joint 148\n"
     "confluent: true\n"),
    ({"algebra": FIXTURE_ALGEBRA, "base": [["y"], ["x", "x"]], "h": 2, "d": 6,
      "graded": True}, EXIT_OK,
     "verdict: witnessed-spanning\n"
     "height 5, d 6, D 12\n"
     "rank products 947, rank joint 947\n"
     "confluent: true\n"
     "identity-grade phase: witnessed-spanning (rank products 76, rank joint 76)\n"),
    ({"algebra": FREE_ALGEBRA, "base": [["x"], ["y"]], "h": 2, "d": 3}, EXIT_NOT_WITNESSED,
     "verdict: not-witnessed\n"
     "height 2, d 3, D 6\n"
     "rank products 42, rank joint 44\n"
     "confluent: true\n"
     "missing: x y x, y x y\n"),
]


@pytest.mark.parametrize("payload, exit_code, expected", README_EXAMPLES,
                         ids=["base", "graded", "free"])
def test_verify_base_readme_examples(capsys, payload, exit_code, expected):
    code, out, err = run(capsys, "verify-base", "--format", "human",
                         "--json", json.dumps(payload))
    assert (code, out, err) == (exit_code, expected, "")
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert expected in readme


def test_verify_base_budget_exit_four(capsys):
    payload = json.dumps({"algebra": PINGPONG_ALGEBRA, "base": [["x"], ["y"]]})
    code, _, err = run(
        capsys, "verify-base", "--h", "2", "--d", "3", "--steps", "40",
        "--json", payload,
    )
    assert code == EXIT_BUDGET
    assert "possibly non-terminating" in err


def test_verify_base_requires_h_and_d(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["x"]]})
    code, _, err = run(capsys, "verify-base", "--json", payload)
    assert code == EXIT_BAD_INPUT
    assert "integer" in err


@pytest.mark.parametrize("field, value", [("h", True), ("D", "5"), ("d", 5.0)])
def test_verify_base_rejects_non_integer_caps(capsys, field, value):
    doc = {"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]], "h": 2, "d": 3}
    doc[field] = value
    code, out, err = run(capsys, "verify-base", "--json", json.dumps(doc))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert f'verify-base "{field}" must be an integer' in err and "Traceback" not in err


def test_verify_base_reports_confluence(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]], "h": 2, "d": 3})
    code, doc, _ = run_json(capsys, "verify-base", "--json", payload)
    assert code == EXIT_OK and doc["confluent"] is True
    code, out, _ = run(capsys, "verify-base", "--format", "human", "--json", payload)
    assert "confluent: true" in out
    twisted = {
        "alphabet": {"group": {"cyclic": 1},
                     "generators": [{"sym": s, "grade": 0} for s in "xyzuv"]},
        "rules": [
            {"lhs": ["x", "y"], "rhs": [{"coef": "1", "word": ["u"]}]},
            {"lhs": ["y", "z"], "rhs": [{"coef": "1", "word": ["v"]}]},
        ],
    }
    payload = json.dumps({"algebra": twisted, "base": [["x"], ["y"], ["z"]], "h": 3, "d": 3})
    _, doc, _ = run_json(capsys, "verify-base", "--json", payload)
    assert doc["confluent"] is False
    _, out, _ = run(capsys, "verify-base", "--format", "human", "--json", payload)
    assert "confluent: false" in out


def test_verify_base_malformed_algebra(capsys):
    payload = json.dumps({"algebra": {"rules": []}, "base": [["x"]]})
    code, _, _ = run(capsys, "verify-base", "--h", "1", "--d", "2", "--json", payload)
    assert code == EXIT_BAD_INPUT


def test_verify_base_non_identity_graded_base(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["x"]]})
    code, _, err = run(
        capsys, "verify-base", "--graded", "--h", "2", "--d", "4", "--json", payload
    )
    assert code == EXIT_BAD_INPUT
    assert "not the identity" in err


# ---------------------------------------------------------------------- bench


def test_bench_small_run(capsys):
    code, doc, _ = run_json(
        capsys, "bench",
        "--json", '{"group":{"cyclic":17},"n":20000,"trials":2,"seed":0}',
    )
    assert code == EXIT_OK
    assert doc["n"] == 20000 and doc["trials"] == 2 and doc["seed"] == 0
    assert len(doc["results"]) == 2
    for row in doc["results"]:
        assert row["coverage"] >= 20000 - 16
        assert row["bound_ok"] is True
        assert row["seconds"] > 0


def test_bench_deterministic_coverage(capsys):
    argv = ("bench", "--json", '{"group":{"cyclic":5},"n":5000,"trials":2,"seed":9}')
    _, doc1, _ = run_json(capsys, *argv)
    _, doc2, _ = run_json(capsys, *argv)
    cov1 = [r["coverage"] for r in doc1["results"]]
    cov2 = [r["coverage"] for r in doc2["results"]]
    assert cov1 == cov2


def test_bench_defaults_and_flags(capsys):
    code, doc, _ = run_json(
        capsys, "bench", "--trials", "1", "--seed", "4", "--json", '{"n": 1000}'
    )
    assert code == EXIT_OK
    assert doc["group"] == {"cyclic": 17}
    assert doc["trials"] == 1 and doc["seed"] == 4


def test_bench_zero_length(capsys):
    code, doc, _ = run_json(capsys, "bench", "--json", '{"n": 0, "trials": 1}')
    assert code == EXIT_OK
    assert doc["results"][0]["coverage"] == 0
    assert doc["results"][0]["bound_ok"] is True


def test_bench_rejects_bad_config(capsys):
    assert run(capsys, "bench", "--json", '{"n": -1}')[0] == EXIT_BAD_INPUT
    assert run(capsys, "bench", "--json", '{"n": 100000001}')[0] == EXIT_BAD_INPUT
    assert run(capsys, "bench", "--json", '{"n": 10, "trials": 0}')[0] == EXIT_BAD_INPUT
    assert run(capsys, "bench", "--json", '{"group": {"cyclic": 0}}')[0] == EXIT_BAD_INPUT


# ------------------------------------------------------------ payload types


@pytest.mark.parametrize("argv, field", [
    (("bench", "--json", '{"n": true}'), '"n"'),
    (("factorize", "--json",
      json.dumps({"alphabet": Z2_ALPHABET, "word": ["y"], "h": True})), '"h"'),
    (("verify-base", "--json",
      json.dumps({"algebra": FREE_ALGEBRA, "base": [["x"]], "h": 2, "d": 3,
                  "graded": "no"})), '"graded"'),
], ids=["bench-n", "factorize-h", "verify-base-graded"])
def test_mistyped_payload_field_names_the_field(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert field in err and "Traceback" not in err


VERIFY_BASE_CAPS = {"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]], "h": 2, "d": 3}


@pytest.mark.parametrize("command, flag, value, payload, span", [
    ("factorize", "--h", 0, {"alphabet": Z2_ALPHABET, "word": ["y"]}, ">= 1"),
    ("bench", "--trials", 0, {"n": 10}, "in [1,1000]"),
    ("bench", "--seed", -1, {"n": 10, "trials": 1}, ">= 0"),
    ("verify-base", "--h", 0, VERIFY_BASE_CAPS, ">= 1"),
    ("verify-base", "--d", 0, VERIFY_BASE_CAPS, ">= 1"),
    ("verify-base", "--D", 0, VERIFY_BASE_CAPS, ">= 1"),
], ids=["factorize-h", "bench-trials", "bench-seed", "verify-base-h", "verify-base-d",
        "verify-base-D"])
def test_flag_and_field_give_the_same_range_error(capsys, command, flag, value, payload,
                                                  span):
    name = flag[2:]
    by_flag = run(capsys, command, flag, str(value), "--json", json.dumps(payload))
    by_field = run(capsys, command, "--json", json.dumps({**payload, name: value}))
    assert by_flag == by_field
    code, out, err = by_flag
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == f'error: {command} "{name}" must be an integer {span}, got {value}.\n'


def test_verify_base_steps_read_with_their_range_before_any_work(capsys):
    # --steps has no payload field.  At d = 20 the free algebra's targets
    # would trip the degree cap's guard, so the budget is read first.
    payload = json.dumps({"algebra": FREE_ALGEBRA, "base": [["x"]], "h": 1, "d": 20})
    code, out, err = run(capsys, "verify-base", "--steps", "0", "--json", payload)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == 'error: verify-base "steps" must be an integer >= 1, got 0.\n'


@pytest.mark.parametrize("argv", [
    ("--trials", "100000001", "--json", '{"n": 10}'),
    ("--json", '{"n": 10, "trials": 100000001}'),
], ids=["flag", "field"])
def test_bench_trials_capped_before_any_trial(argv):
    # Every trial keeps its result, so an uncapped count would run for hours
    # and grow without bound; the cap is checked before the first trial.
    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "bench", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == ""
    assert proc.stderr == ('error: bench "trials" must be an integer in [1,1000], '
                           'got 100000001.\n')


def test_given_flag_overrides_a_mistyped_field(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]], "h": "x", "d": 3})
    code, doc, err = run_json(capsys, "verify-base", "--h", "2", "--json", payload)
    assert (code, err) == (EXIT_OK, "")
    assert doc["height"] == 2 and doc["verdict"] == "witnessed-spanning"


def test_graded_flag_overrides_a_mistyped_field(capsys):
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["y"], ["x", "x"]],
                          "h": 2, "d": 4, "graded": "no"})
    code, doc, err = run_json(capsys, "verify-base", "--graded", "--json", payload)
    assert (code, err) == (EXIT_OK, "")
    assert doc["height"] == 5 and doc["neutral"]["verdict"] == "witnessed-spanning"


# ----------------------------------------------------------------- plumbing


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "decompose",
         "--json", '{"group":{"cyclic":2},"elems":[1,1]}'],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coverage"] == 2


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_closed_stdout_exits_quietly(tmp_path, fmt):
    # As under `| head -c 50`: the reader goes away long before the output,
    # far larger than a pipe buffer, is written.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"group": {"cyclic": 2}, "elems": [1] * 200000}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "shirshov.cli", "decompose", "--input", str(path),
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == "", err  # no BrokenPipeError traceback


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _verify_base_payload(algebra):
    return ("verify-base", "--json",
            json.dumps({"algebra": algebra, "base": [["x"]], "h": 1, "d": 1}))


def _one_rule(coef, field):
    rule = {"lhs": ["y", "x"], "rhs": [{"coef": coef, "word": ["x", "y"]}]}
    return {"alphabet": Z2_ALPHABET, "rules": [rule], "field": field}


@pytest.mark.parametrize("argv", [
    _verify_base_payload({"alphabet": Z2_ALPHABET, "rules": 5}),
    _verify_base_payload({"alphabet": Z2_ALPHABET, "rules": None}),
    ("bench", "--json", "[5]"),
    ("bench", "--json", "null"),
    _verify_base_payload(_one_rule(0.1, {"rationals": True})),
    _verify_base_payload(_one_rule(1, {"prime": 1000003})),
    ("decompose", "--json", '{"group": {"table": {"table": [[0,1],[1,false]]}}, "elems": [1]}'),
    ("decompose", "--json", '{"group": {"table": {"order": true, "table": [[0]]}}, "elems": [0]}'),
    ("decompose", "--json",
     '{"group": {"table": {"table": [[0,1],[1,1000000000000000000000000000000]]}}, "elems": [1]}'),
    ("decompose", "--json", '{"group": {"table": {"table": [[0]], "names": ["e", "s"]}}, "elems": [0]}'),
    ("factorize", "--json", json.dumps({"alphabet": {"group": {"cyclic": 2}, "generators": [
        {"sym": "", "grade": 0}]}, "word": []})),
    _verify_base_payload(_one_rule("1.5", {"prime": 1000003})),
], ids=["rules-int", "rules-null", "bench-list", "bench-null", "coef-float-q", "coef-int-fp",
        "table-false-entry", "table-true-order", "table-huge-entry", "table-extra-names",
        "empty-sym", "coef-decimal-fp"])
def test_malformed_payload_shapes_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: ")


def test_verify_base_expansion_cap_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(sh.spanning, "ENUM_CAP", 10)
    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]],
                          "h": 3, "d": 2, "D": 6})
    code, _, err = run(capsys, "verify-base", "--json", payload)
    assert code == EXIT_BAD_INPUT
    assert "expansion cap too large" in err


@pytest.mark.parametrize("group", [
    {"cyclic": 100000},
    {"product": [{"symmetric": 6}, {"symmetric": 6}]},
], ids=["cyclic-100000", "s6-x-s6"])
def test_oversized_group_exits_two_under_memory_limit(group):
    # A 2 GB address-space limit, as under `ulimit -v 2000000`: the order is
    # rejected before any table is allocated, so no MemoryError can occur.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "decompose",
         "--json", json.dumps({"group": group, "elems": [1]})],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert "exceeds the cap of 4096" in proc.stderr


def test_oversized_bench_exits_two_under_memory_limit():
    # A 2 GB address-space limit, as under `ulimit -v 2000000`: n is rejected
    # before any array is allocated, so no MemoryError can occur.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "bench",
         "--json", json.dumps({"n": 10 ** 12, "trials": 1})],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ('error: bench "n" must be an integer in [0,100000000], '
                           'got 1000000000000.\n')


@pytest.mark.parametrize("payload, message", [
    # 10^6 powers x^e of up to 10^6 letters: within ENUM_CAP, but their
    # expansions hold 5 * 10^11 letters.
    ({"algebra": {"alphabet": {"group": {"cyclic": 1},
                               "generators": [{"sym": "x", "grade": 0}]}, "rules": []},
      "base": [["x"]], "h": 1, "d": 1, "D": 10 ** 6}, "expansion cap too large"),
    # The irreducible words y^a x^b of length <= d hold about d^3 / 3 letters.
    ({"algebra": FIXTURE_ALGEBRA, "base": [["x"], ["y"]], "h": 1, "d": 10 ** 30},
     "degree cap too large"),
], ids=["product-letters", "target-letters"])
def test_letter_blowup_exits_two_under_memory_limit(payload, message):
    # A 2 GB address-space limit, as under `ulimit -v 2000000`: the letters
    # are counted as the products and words are, so no MemoryError can occur.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "verify-base", "--json", json.dumps(payload)],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}: more than 10000000 letters")
    assert "Traceback" not in proc.stderr


def test_normal_form_blowup_exits_two_under_memory_limit():
    # A 1.2 GB address-space limit, as under `ulimit -v 1200000`.  Under
    # x y -> y y x the graded check at d = 12 would hold about 1.9 G letters
    # in its echelon's pivots; the letter cap stops it at 10^8.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_200_000 * 1024,) * 2)

    payload = json.dumps({"algebra": FIXTURE_ALGEBRA, "base": [["y"], ["x", "x"]]})
    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "verify-base", "--graded", "--h", "2",
         "--d", "12", "--steps", "1000000000", "--json", payload],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: normal forms too large: more than 100000000 letters "
                           "in the echelon's rows.\n")


def test_verify_base_caps_count_the_primitive_bases(capsys):
    # x^2 .. x^6 are powers of x and add no product, so the letter cap that
    # all six bases would exceed is not reached.
    algebra = {
        "alphabet": {"group": {"cyclic": 1}, "generators": [{"sym": "x", "grade": 0}]},
        "rules": [],
    }
    payload = json.dumps({"algebra": algebra, "base": [["x"] * k for k in range(1, 7)],
                          "h": 6, "d": 20, "D": 60})
    code, doc, err = run_json(capsys, "verify-base", "--json", payload)
    assert (code, err) == (EXIT_OK, "")
    assert doc["verdict"] == "witnessed-spanning"
    assert (doc["rank_products"], doc["rank_joint"]) == (60, 60)


def test_largest_group_decomposes_under_memory_limit():
    # An 800 MB address-space limit, as under `ulimit -v 800000`: a group of
    # order MAX_ORDER holds one int32 table, which the scalar path reads in
    # place.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (800_000 * 1024,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "shirshov.cli", "decompose",
         "--json", json.dumps({"group": {"cyclic": 4096}, "elems": [1]})],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == {"intervals": [], "uncovered": [1], "coverage": 0,
                                       "bound_ok": True}


def test_degree_cap_beyond_the_last_irreducible_word_is_cheap(capsys):
    # Over {x | x x -> 0} only "x" is irreducible, so the target words are
    # found at once; the expansion cap then rejects D = 10^8.
    algebra = {
        "alphabet": {"group": {"cyclic": 1}, "generators": [{"sym": "x", "grade": 0}]},
        "rules": [{"lhs": ["x", "x"], "rhs": []}],
    }
    payload = json.dumps({"algebra": algebra, "base": [["x"]], "h": 1,
                          "d": 10 ** 8, "D": 10 ** 8})
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify-base", "--json", payload)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_BAD_INPUT and out == ""
    assert "expansion cap too large" in err
    assert elapsed < 2.0, elapsed
