"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible in the captured-output
summary) and enforces both the correctness property and its runtime limit.
"""

import itertools
import json
import random
import time

import shirshov as sh
from shirshov.cli import main
from fixture_algebras import fixture_algebra, z2_alphabet
from test_intervals import decompose_bruteforce


def _line(num, label, ok, dt, limit=None):
    status = "PASS" if ok else "FAIL"
    tail = f" in {dt:.2f} s" + (f" (limit {limit:.0f} s)" if limit else "")
    print(f"criterion {num} ({label}): {status}{tail}")


def test_criterion_1_lemma_bound_exhaustive():
    t0 = time.perf_counter()
    violations = 0
    for order, nmax in ((2, 10), (3, 8)):
        group = sh.build_group(sh.cyclic(order))
        for n in range(nmax + 1):
            for elems in itertools.product(range(order), repeat=n):
                seq = sh.GradeSequence(group, elems)
                if sh.decompose_optimal(seq).coverage < sh.lemma_bound(n, order):
                    violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 10.0
    _line(1, "lemma bound, exhaustive", ok, dt, 10.0)
    assert violations == 0
    assert dt < 10.0


def test_criterion_2_lemma_bound_randomized():
    t0 = time.perf_counter()
    rng = random.Random(202)
    violations = 0
    for spec in (sh.symmetric(3), sh.dihedral(4), sh.cyclic(12)):
        group = sh.build_group(spec)
        m = group.order
        for _ in range(10_000):
            n = rng.randrange(0, 201)
            seq = sh.GradeSequence(group, [rng.randrange(m) for _ in range(n)])
            if sh.decompose_optimal(seq).coverage < sh.lemma_bound(n, m):
                violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 30.0
    _line(2, "lemma bound, randomized", ok, dt, 30.0)
    assert violations == 0
    assert dt < 30.0


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for order in (2, 3):
        group = sh.build_group(sh.cyclic(order))
        for n in range(9):
            for elems in itertools.product(range(order), repeat=n):
                seq = sh.GradeSequence(group, elems)
                if sh.decompose_optimal(seq).coverage != \
                        decompose_bruteforce(seq).coverage:
                    mismatches += 1
    group = sh.build_group(sh.symmetric(3))
    rng = random.Random(303)
    for _ in range(500):
        n = rng.randrange(0, 11)
        seq = sh.GradeSequence(group, [rng.randrange(6) for _ in range(n)])
        if sh.decompose_optimal(seq).coverage != \
                decompose_bruteforce(seq).coverage:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 120.0
    _line(3, "oracle equivalence", ok, dt, 120.0)
    assert mismatches == 0
    assert dt < 120.0


def test_criterion_4_factorization_invariants():
    t0 = time.perf_counter()
    rng = random.Random(404)
    groups = [
        sh.build_group(s)
        for s in (
            sh.cyclic(1), sh.cyclic(2), sh.cyclic(3), sh.cyclic(4), sh.cyclic(5),
            sh.cyclic(6), sh.cyclic(7), sh.cyclic(8), sh.dihedral(2),
            sh.dihedral(3), sh.dihedral(4), sh.symmetric(3),
            sh.product(sh.cyclic(2), sh.cyclic(2)),
            sh.product(sh.cyclic(2), sh.cyclic(4)),
        )
    ]
    assert all(g.order <= 8 for g in groups)
    violations = 0
    for _ in range(10_000):
        group = rng.choice(groups)
        m = group.order
        nsym = rng.randrange(1, 7)
        alphabet = sh.GradedAlphabet(
            group, [(f"a{k}", rng.randrange(m)) for k in range(nsym)]
        )
        word = tuple(
            f"a{rng.randrange(nsym)}" for _ in range(rng.randrange(0, 101))
        )
        fact = sh.factorize(alphabet, word)
        if not sh.verify_factorization(alphabet, word, fact).ok:
            violations += 1
        for h in (1, 2, 3):
            if sh.power_count(fact, h) > (h + 1) * m - 1:
                violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 60.0
    _line(4, "factorization invariants", ok, dt, 60.0)
    assert violations == 0
    assert dt < 60.0


def test_criterion_5_worked_theorem_instance():
    t0 = time.perf_counter()
    alg = fixture_algebra()
    base_report = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=8, D=16)
    graded_report = sh.check_graded_theorem(
        alg, [("y",), ("x", "x")], h=2, d=8, D=16
    )
    dt = time.perf_counter() - t0
    ok = (
        base_report.verdict == sh.WITNESSED
        and graded_report.verdict == sh.WITNESSED
        and graded_report.height == 5
        and dt < 60.0
    )
    _line(5, "worked theorem instance", ok, dt, 60.0)
    assert base_report.verdict == sh.WITNESSED
    assert graded_report.verdict == sh.WITNESSED
    assert graded_report.height == 5
    assert dt < 60.0


def test_criterion_6_negative_control():
    t0 = time.perf_counter()
    free = sh.AlgebraSpec(alphabet=z2_alphabet(), rules=[])
    report = sh.is_shirshov_base(free, [("x",), ("y",)], h=2, d=3, D=6)
    dt = time.perf_counter() - t0
    ok = report.verdict == sh.NOT_WITNESSED and ("x", "y", "x") in report.missing
    _line(6, "negative control", ok, dt)
    assert report.verdict == sh.NOT_WITNESSED
    assert ("x", "y", "x") in report.missing


def test_criterion_7_field_consistency():
    t0 = time.perf_counter()
    verdicts = {}
    for name, field in (("prime", sh.PrimeField()), ("rational", sh.RationalField())):
        alg = fixture_algebra(field)
        base_report = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=8, D=16)
        graded_report = sh.check_graded_theorem(
            alg, [("y",), ("x", "x")], h=2, d=8, D=16
        )
        verdicts[name] = (
            base_report.verdict,
            graded_report.verdict,
            base_report.missing,
            graded_report.missing,
            base_report.rank_products,
            graded_report.rank_products,
        )
    dt = time.perf_counter() - t0
    ok = verdicts["prime"] == verdicts["rational"]
    _line(7, "field consistency", ok, dt)
    assert verdicts["prime"] == verdicts["rational"]
    assert verdicts["prime"][0] == sh.WITNESSED


def test_criterion_8_performance_linearity(capsys):
    def bench(n, trials):
        cfg = {"group": {"cyclic": 17}, "n": n, "trials": trials, "seed": 0}
        code = main(["bench", "--json", json.dumps(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)["results"]

    t0 = time.perf_counter()
    res_1m = bench(1_000_000, 5)
    res_2m = bench(2_000_000, 5)
    res_10m = bench(10_000_000, 3)
    dt = time.perf_counter() - t0

    coverage_ok = all(
        row["coverage"] >= n - 16
        for rows, n in ((res_1m, 10**6), (res_2m, 2 * 10**6), (res_10m, 10**7))
        for row in rows
    )
    t1 = min(r["seconds"] for r in res_1m)
    t2 = min(r["seconds"] for r in res_2m)
    t10 = min(r["seconds"] for r in res_10m)
    ratio = t2 / t1
    ok = coverage_ok and ratio <= 3.0 and t10 < 5.0
    with capsys.disabled():
        _line(8, f"performance, ratio {ratio:.2f}, n=1e7 in {t10:.2f} s", ok, dt)
    assert coverage_ok
    assert ratio <= 3.0
    assert t10 < 5.0
