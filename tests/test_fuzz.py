"""Fuzz the four subcommands through cli.main: every payload gets an exit code.

Payloads mix well-formed values with arbitrary JSON at every field, so both
the validators and the computations behind them are exercised.  A second test
adds a stray key to one object of half the payloads, which must exit 2.
Sizes are bounded (group orders <= 64, n <= 200, h and d <= 3, D <= 8, bench
n <= 1000 and trials <= 2) so each example runs in milliseconds.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shirshov.cli import main  # noqa: E402

EXIT_CODES = {0, 2, 3, 4}
SYMBOLS = ("x", "y", "z")

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def mostly(good, bad):
    """Seven draws in eight from good, the rest from bad."""
    # one_of would merge the repeated branches, so the choice is drawn first.
    return st.integers(0, 7).flatmap(lambda k: bad if k == 7 else good)


def maybe(strategy):
    return mostly(strategy, junk)


def _cyclic_table(m):
    return [[(a + b) % m for b in range(m)] for a in range(m)]


# Group specs with their orders (0 where the spec is malformed), so elements
# and grades can be drawn in range most of the time.
small_groups = st.one_of(
    st.builds(lambda n: ({"cyclic": n}, max(n, 0)), st.integers(0, 8)),
    st.builds(lambda n: ({"dihedral": n}, 2 * n if n >= 2 else 0), st.integers(1, 4)),
    st.builds(lambda n: ({"symmetric": n}, [0, 1, 2, 6][n]), st.integers(0, 3)),
    st.builds(lambda m: ({"table": {"table": _cyclic_table(m)}}, m), st.integers(0, 5)),
)
groups = st.one_of(
    small_groups,
    st.builds(lambda n: ({"cyclic": n}, max(n, 0)), st.integers(-1, 64)),
    st.builds(lambda n: ({"dihedral": n}, 2 * n if n >= 2 else 0), st.integers(0, 32)),
    st.builds(lambda n: ({"symmetric": n}, [0, 1, 2, 6, 24][n]), st.integers(0, 4)),
    st.builds(lambda a, b: ({"product": [a[0], b[0]]}, a[1] * b[1]), small_groups, small_groups),
    # Rows that are not a group table, or not a table at all.
    st.builds(lambda rows: ({"table": {"table": rows}}, 0),
              st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3)),
    st.tuples(junk, st.just(0)),
)


def elements(order):
    return mostly(st.integers(0, max(order - 1, 0)), st.integers(-1, 65))


@st.composite
def sequences(draw):
    spec, order = draw(groups)
    inside = st.integers(0, max(order - 1, 0))
    elems = draw(mostly(st.lists(inside, max_size=200), st.lists(elements(order), max_size=3)))
    return {"group": spec, "elems": draw(maybe(st.just(elems)))}


@st.composite
def alphabets(draw, group=groups):
    spec, order = draw(group)
    gens = draw(mostly(st.just(SYMBOLS),
                       st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)))
    return {
        "group": spec,
        "generators": [{"sym": s, "grade": draw(maybe(elements(order)))} for s in gens],
    }


@st.composite
def algebras(draw):
    # Each right-hand word is shorter than its left-hand side or its sorted
    # rearrangement, so rewriting lowers words in deglex order and terminates.
    # Over the trivial group every rule is grade-homogeneous.
    rules = []
    for lhs in draw(st.lists(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3),
                             max_size=3)):
        terms = draw(st.lists(st.fixed_dictionaries({
            "coef": maybe(mostly(st.sampled_from(["1", "-1", "2/3", "3", "0"]),
                                 st.sampled_from(["x", "1/0", "1.5"]))),
            "word": st.lists(st.sampled_from(SYMBOLS), max_size=len(lhs) - 1)
            | st.just(sorted(lhs)),
        }), max_size=2))
        rules.append({"lhs": lhs, "rhs": terms})
    field = mostly(st.sampled_from([{"prime": 2}, {"prime": 5}, {"prime": 1000003},
                                    {"rationals": True}]),
                   st.sampled_from([{"prime": 4}, {"prime": 0}, {"rationals": False}]))
    trivial = st.just(({"cyclic": 1}, 1))
    return {
        "alphabet": draw(maybe(alphabets(trivial | groups))),
        "rules": draw(maybe(st.just(rules))),
        "field": draw(maybe(field)),
    }


def payload(required, optional):
    """An object with every required field and some of the optional ones."""
    return maybe(st.fixed_dictionaries(required, optional=optional))


small = maybe(mostly(st.integers(1, 3), st.integers(-1, 0)))


def words(max_size):
    """Words over the generators; one in eight may hold the unknown symbol w."""
    return mostly(st.lists(st.sampled_from(SYMBOLS), max_size=max_size),
                  st.lists(st.sampled_from(SYMBOLS + ("w",)), max_size=max_size))


no_flags = st.just([])
steps = no_flags | st.builds(lambda k: [f"--steps={k}"], st.integers(0, 8))
argvs = st.one_of(
    st.tuples(st.just("decompose"), maybe(sequences()), no_flags),
    st.tuples(st.just("factorize"), payload(
        {"alphabet": maybe(alphabets()), "word": maybe(words(200))},
        {"h": small},
    ), no_flags),
    st.tuples(st.just("verify-base"), payload(
        {"algebra": maybe(algebras()),
         "base": maybe(st.lists(words(4), max_size=3) | st.just([["x"], ["y"], ["z"]])),
         "h": small, "d": small},
        {"D": maybe(mostly(st.integers(1, 8), st.integers(-1, 0))),
         "graded": maybe(st.booleans())},
    ), steps),
    st.tuples(st.just("bench"), payload(
        {},
        {"group": st.builds(lambda g: g[0], groups),
         "n": maybe(mostly(st.integers(0, 1000), st.just(-1))),
         "trials": maybe(mostly(st.integers(1, 2), st.just(0))),
         "seed": maybe(mostly(st.integers(0, 5), st.just(-1)))},
    ), no_flags),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=argvs, fmt=st.sampled_from(["json", "human"]))
def test_every_subcommand_exits_with_a_code(argv, fmt):
    command, doc, flags = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--json=" + json.dumps(doc), "--format", fmt, *flags])
    assert code in EXIT_CODES, (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ")


def _objects(doc):
    """Every JSON object in doc, the outermost first."""
    if isinstance(doc, dict):
        yield doc
        for value in doc.values():
            yield from _objects(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _objects(value)


@st.composite
def stray_key_argvs(draw):
    """An argv from argvs with a stray key in one of its payload's objects.

    Every object the tool reads names its fields, and a group spec has one
    key, so the stray key alone makes the payload malformed.  None when the
    payload holds no object.
    """
    command, doc, flags = draw(argvs)
    doc = json.loads(json.dumps(doc))  # strategies may share objects between draws
    objects = list(_objects(doc))
    if not objects:
        return None
    draw(st.sampled_from(objects))["zz"] = draw(junk)
    return command, doc, flags


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=argvs | stray_key_argvs())
def test_a_stray_key_exits_two(argv):
    if argv is None:
        return
    command, doc, flags = argv
    stray = any("zz" in obj for obj in _objects(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--json=" + json.dumps(doc), *flags])
    assert code in EXIT_CODES, (code, err.getvalue())
    if stray:
        assert code == 2, (doc, out.getvalue())
        assert err.getvalue().startswith("error: ")
