"""The strict payload reader: every JSON object names its fields, and any
other field is rejected by name."""

import contextlib
import copy
import io
import json
import re

import numpy as np
import pytest

import shirshov as sh
from shirshov import _wire, cli, groups
from shirshov.cli import EXIT_BAD_INPUT, main

from fixture_algebras import fixture_algebra

ALPHABET = {
    "group": {"cyclic": 2},
    "generators": [{"sym": "x", "grade": 1}, {"sym": "y", "grade": 0}],
}
ALGEBRA = {
    "alphabet": ALPHABET,
    "rules": [{"lhs": ["x", "y"], "rhs": [{"coef": "1", "word": ["y", "y", "x"]}]}],
    "field": {"prime": 1000003},
}


def _cli(command):
    """A reader that runs the subcommand and raises ValueError on exit 2."""
    def read(doc):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--json", json.dumps(doc)])
        if code == EXIT_BAD_INPUT:
            raise ValueError(err.getvalue())
        return code
    return read


# (reader, a well-formed document, the path to the object that gets the key)
STRAY_KEY_CASES = {
    "group spec": (sh.spec_from_json, {"cyclic": 3}, ()),
    "group table spec": (sh.spec_from_json, {"table": {"table": [[0, 1], [1, 0]]}}, ("table",)),
    "sequence": (sh.sequence_from_json, {"group": {"cyclic": 2}, "elems": [1, 1]}, ()),
    "decomposition": (sh.decomposition_from_json,
                      {"intervals": [[1, 2]], "uncovered": [], "coverage": 2}, ()),
    "alphabet": (sh.alphabet_from_json, ALPHABET, ()),
    "generator": (sh.alphabet_from_json, ALPHABET, ("generators", 1)),
    "field": (sh.field_from_json, {"rationals": True}, ()),
    "algebra": (sh.algebra_from_json, ALGEBRA, ()),
    "rule": (sh.algebra_from_json, ALGEBRA, ("rules", 0)),
    "rhs term": (sh.algebra_from_json, ALGEBRA, ("rules", 0, "rhs", 0)),
    "segment": (sh.factorization_from_json, [{"tag": "A", "span": [1, 2]}], (0,)),
    "factorize payload": (_cli("factorize"),
                          {"alphabet": ALPHABET, "word": ["x", "x"], "h": 1}, ()),
    "verify-base payload": (_cli("verify-base"),
                            {"algebra": ALGEBRA, "base": [["x"], ["y"]], "h": 1, "d": 2,
                             "D": 3, "graded": False}, ()),
    "bench payload": (_cli("bench"), {"group": {"cyclic": 3}, "n": 10, "trials": 1, "seed": 0},
                      ()),
}


@pytest.mark.parametrize("name", STRAY_KEY_CASES)
def test_stray_key_is_rejected_by_name(name):
    read, doc, path = STRAY_KEY_CASES[name]
    read(doc)  # well-formed without the key
    doc = copy.deepcopy(doc)
    obj = doc
    for step in path:
        obj = obj[step]
    obj["zz"] = 0
    with pytest.raises(ValueError, match='"zz"'):
        read(doc)


def test_group_spec_names_exactly_one_kind():
    for doc in ({}, {"cyclic": 2, "dihedral": 3}):
        with pytest.raises(ValueError, match="group spec must name exactly one kind"):
            sh.spec_from_json(doc)
    with pytest.raises(ValueError, match='group spec has unknown field "banana"'):
        sh.spec_from_json({"banana": 3})
    with pytest.raises(ValueError, match="group spec must be an object"):
        sh.spec_from_json([1, 2])


def test_rules_typo_exits_two(capsys):
    algebra = {"alphabet": ALPHABET, "rule": []}
    doc = {"algebra": algebra, "base": [["x"], ["y"]], "h": 2, "d": 3}
    code = main(["verify-base", "--json", json.dumps(doc)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert 'unknown field "rule"' in err and '"rules"' in err


def test_bench_size_typo_exits_two(capsys):
    code = main(["bench", "--json", '{"N": 10}'])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_INPUT and captured.out == ""
    assert 'unknown field "N"' in captured.err


def test_decompose_output_reads_back(capsys):
    payload = {"group": {"cyclic": 3}, "elems": [1, 2, 0, 1, 1, 1, 2]}
    assert main(["decompose", "--json", json.dumps(payload)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_ok"] is True
    dec = sh.decomposition_from_json(doc)
    assert dec == sh.decompose_optimal(sh.sequence_from_json(payload))
    with pytest.raises(ValueError, match='"bound_ok"'):
        sh.decomposition_from_json({**doc, "bound_ok": 1})


def test_fields():
    assert _wire.fields({"a": 1}, "thing", required=("a",), optional=("b",)) == {"a": 1}
    with pytest.raises(ValueError, match='thing is missing field "a"'):
        _wire.fields({"b": 1}, "thing", required=("a",), optional=("b",))
    with pytest.raises(ValueError, match='thing has unknown field "c"; it takes "a", "b"'):
        _wire.fields({"a": 1, "c": 1}, "thing", required=("a",), optional=("b",))
    with pytest.raises(ValueError, match="thing must be an object"):
        _wire.fields([("a", 1)], "thing", required=("a",))


def test_scalars():
    assert _wire.integer(3, "n", lo=0, hi=3) == 3
    for value, match in ((True, "n must be an integer in"), (4, r"in \[0,3\]"), (3.0, "got 3.0")):
        with pytest.raises(ValueError, match=match):
            _wire.integer(value, "n", lo=0, hi=3)
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
        _wire.integer(0, "n", lo=1)
    assert _wire.string("x", "s") == "x"
    with pytest.raises(ValueError, match="s must be a string"):
        _wire.string(1, "s")
    assert _wire.boolean(False, "b") is False
    with pytest.raises(ValueError, match="b must be a boolean"):
        _wire.boolean(0, "b")


def test_array():
    assert _wire.array([1, 2], "pair", _wire.integer, 2) == [1, 2]
    with pytest.raises(ValueError, match="pair must be a list of length 2"):
        _wire.array([1], "pair", _wire.integer, 2)
    with pytest.raises(ValueError, match="pair entry must be an integer, got False"):
        _wire.array([1, False], "pair", _wire.integer, 2)
    with pytest.raises(ValueError, match="pair must be a list"):
        _wire.array("ab", "pair")


def _library_sites():
    """(parameter name, call) for every public count the library reads."""
    s3 = sh.build_group(sh.symmetric(3))
    c4 = sh.build_group(sh.cyclic(4))
    spec = fixture_algebra()
    S = [("x",), ("y",)]
    fact = sh.factorize(spec.alphabet, ("x", "x"))
    return {
        "cyclic": ("cyclic order", sh.cyclic),
        "dihedral": ("dihedral degree", sh.dihedral),
        "symmetric": ("symmetric degree", sh.symmetric),
        "mul-left": ("element index", lambda x: s3.mul(x, 1)),
        "mul-right": ("element index", lambda x: s3.mul(1, x)),
        "inverse": ("element index", s3.inverse),
        "name_of": ("element index", s3.name_of),
        "lemma_bound-n": ("sequence length", lambda x: sh.lemma_bound(x, 2)),
        "lemma_bound-m": ("group order", lambda x: sh.lemma_bound(5, x)),
        "alphabet-grade": ("grade of 'x'", lambda x: sh.GradedAlphabet(c4, [("x", x)]).generators),
        "power_count": ("height", lambda x: sh.power_count(fact, x)),
        "height_bound-h": ("height", lambda x: sh.height_bound(x, 2)),
        "height_bound-m": ("group order", lambda x: sh.height_bound(2, x)),
        "normalize": ("step budget", lambda x: sh.normalize(spec, ("x", "y"), x)),
        "check_confluence": ("step budget", lambda x: sh.check_confluence(spec, x)),
        "exponent": ("exponent", lambda x: sh.PoweredProduct(((("x",), x),))),
        "enumerate-h": ("height", lambda x: sh.enumerate_products(S, x, 4)),
        "enumerate-D": ("expansion cap", lambda x: sh.enumerate_products(S, 2, x)),
        **{f"{check.__name__}-{name}": (what, lambda x, check=check, name=name:
                                         check(spec, [("y",)], **{"h": 1, "d": 1, name: x}))
           for check in (sh.is_shirshov_base, sh.check_graded_theorem)
           for name, what in (("h", "height"), ("d", "degree cap"), ("D", "expansion cap"),
                              ("step_budget", "step budget"))},
    }


LIBRARY_SITES = _library_sites()


@pytest.mark.parametrize("site", LIBRARY_SITES)
def test_library_counts_are_read_as_ints(site):
    what, call = LIBRARY_SITES[site]
    for bad in (True, 2.5, "3", np.int64(3)):
        with pytest.raises(ValueError, match=f"^{what} must be an integer"):
            call(bad)
    # An int subclass other than bool is an int.
    Small = type("Small", (int,), {})
    assert call(Small(3)) == call(3)


TABLE_SITES = {
    "table": sh.table,
    "spec_from_json": lambda rows: sh.spec_from_json({"table": {"table": rows}}),
}


@pytest.mark.parametrize("site", TABLE_SITES)
def test_table_entries_are_read_as_ints(site):
    # table() reads every entry, for a library spec and a JSON one alike.
    call = TABLE_SITES[site]
    for bad in (True, 2.5, "3", np.int64(1), 2, -1):
        message = f"table entries must be integers in [0,1], got {bad!r} at (1,1)."
        with pytest.raises(ValueError, match=re.escape(message)):
            call([[0, 1], [1, bad]])
    Small = type("Small", (int,), {})
    assert sh.build_group(call([[0, 1], [1, Small(0)]])).mul(1, 1) == 0


ELEMENT_SITES = {
    "table": ("table entries", "(1,1)", lambda x: sh.build_group(sh.table([[0, 1], [1, x]]))),
    "spec_from_json": ("table entries", "(1,1)",
                       lambda x: sh.spec_from_json({"table": {"table": [[0, 1], [1, x]]}})),
    "FiniteGroup": ("table entries", "(1,1)", lambda x: sh.FiniteGroup([[0, 1], [1, x]])),
    "GradeSequence": ("sequence elements", "position 2",
                      lambda x: sh.GradeSequence(sh.build_group(sh.cyclic(2)), [0, x])),
}


@pytest.mark.parametrize("site", ELEMENT_SITES)
def test_group_elements_have_one_reader(site):
    # Table entries and sequence elements are group elements, read by one
    # check with one message, whichever site takes them.
    what, where, call = ELEMENT_SITES[site]
    for bad in (True, 2.5, "3", np.int64(1), 2, -1):
        message = f"{what} must be integers in [0,1], got {bad!r} at {where}."
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)


def test_group_element_arrays_are_read_and_shapes_refused():
    g = sh.build_group(sh.symmetric(3))
    rebuilt = sh.build_group(sh.table(g.cayley))
    assert np.array_equal(rebuilt.cayley, g.cayley) and rebuilt.inv_table == g.inv_table
    assert sh.spec_to_json(rebuilt.spec) == sh.spec_to_json(sh.table(g.cayley.tolist()))
    json.dumps(sh.spec_to_json(rebuilt.spec))
    c2 = sh.build_group(sh.cyclic(2))
    for call in (lambda: sh.FiniteGroup([0, 1]), lambda: sh.table([0, 1]),
                 lambda: sh.table([]), lambda: sh.table([[0, 1], [1]]),
                 lambda: sh.GradeSequence(c2, 5), lambda: sh.GradeSequence(c2, None)):
        with pytest.raises(ValueError):
            call()


def test_generator_symbols_are_read_as_strings():
    group = sh.build_group(sh.cyclic(2))
    for bad in (None, 3, ("x",)):
        with pytest.raises(ValueError, match=re.escape(f"symbol must be a string, got {bad!r}.")):
            sh.GradedAlphabet(group, [(bad, 0)])
    Name = type("Name", (str,), {})
    assert sh.GradedAlphabet(group, [(Name("x"), 1)]).symbols == ("x",)


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("stage", ["read", "parse"])
def test_payload_too_large_for_memory_exits_two(capsys, monkeypatch, tmp_path, stage):
    path = tmp_path / "payload.json"
    path.write_text('{"group": {"cyclic": 2}, "elems": [1, 1]}')
    if stage == "read":
        monkeypatch.setattr(cli, "open", _out_of_memory, raising=False)
    else:
        monkeypatch.setattr(cli.json, "loads", _out_of_memory)
    code = main(["decompose", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1


NAME_SITES = {
    "table": lambda names: sh.table([[0, 1], [1, 0]], names=names).names,
    "FiniteGroup": lambda names: sh.FiniteGroup([[0, 1], [1, 0]], names=names).names,
}


@pytest.mark.parametrize("site", NAME_SITES)
def test_element_names_are_read_as_strings(site):
    call = NAME_SITES[site]
    for bad in (None, 3, ("s",)):
        message = f"element name must be a string, got {bad!r}."
        with pytest.raises(ValueError, match=re.escape(message)):
            call(["e", bad])
    # One string is not a list of names, not even of one-letter ones.
    with pytest.raises(ValueError, match=re.escape("element names must be a list, got 'ab'.")):
        call("ab")
    Name = type("Name", (str,), {})
    assert call(["e", Name("s")]) == ("e", "s")


@pytest.mark.parametrize("argv", [
    ["decompose", "--json", '{"group": {"cyclic": 4096}, "elems": [1]}'],
    ["bench", "--json", '{"group": {"cyclic": 4096}, "n": 10, "trials": 1}'],
], ids=["decompose", "bench"])
def test_group_too_large_for_memory_exits_two(capsys, monkeypatch, argv):
    # Building a large table can run out of memory in the associativity test,
    # as under `ulimit -v 200000` for cyclic(4096).
    monkeypatch.setattr(groups, "_check_associativity", _out_of_memory)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err
