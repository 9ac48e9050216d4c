"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from itertools import combinations
from math import prod

from qresidue.arith import factorize, integer_qth_root
from qresidue.cli import main
from qresidue.covering import covers, synthesize_covering, uncovered_count
from qresidue.criterion import (
    Verdict,
    decide,
    exponent_twist,
    oracle_check_exhaustive,
    oracle_check_random,
)
from qresidue.primescan import census, find_counterexample_prime
from qresidue.profiles import QInput


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def run_cli(capsys, *argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_cubic_paper_example(capsys):
    start = time.perf_counter()
    code, env = run_cli(capsys, "decide", "--q", "3", "--set", "2,3,6,12")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert env["result"]["verdict"] == "yes"
    assignment = env["result"]["covering"]["assignment"]
    normals = [(1, 0), (0, 1), (1, 1), (2, 1)]
    assert len(assignment) == 8  # the zero vector lies in every subspace
    for key, idx in assignment.items():
        v = tuple(int(x) for x in key.split(","))
        n = normals[idx]
        assert sum(a * b for a, b in zip(n, v)) % 3 == 0
    assert elapsed < 1.0
    report(1, f"decide q=3 {{2,3,6,12}} = Yes, 9/9 vectors covered, {elapsed:.3f}s")


def test_criterion_02_quintic_paper_example(capsys):
    start = time.perf_counter()
    code, env = run_cli(capsys, "decide", "--q", "5", "--set", "2,21,42,84,168,336")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert env["result"]["verdict"] == "yes"
    assert env["result"]["profile"]["exponent_matrix"] == [
        [1, 0, 1, 2, 3, 4],
        [0, 1, 1, 1, 1, 1],
        [0, 1, 1, 1, 1, 1],
    ]
    assert elapsed < 1.0
    report(2, f"decide q=5 sextet = Yes with exact exponent table, {elapsed:.3f}s")


def test_criterion_03_small_cubefree_sets_are_no():
    rng = random.Random(101)
    start = time.perf_counter()

    def random_cubefree():
        while True:
            n = rng.randrange(2, 10**4)
            if all(e < 3 for _, e in factorize(n).factors):
                return n

    for _ in range(1000):
        elems = tuple(random_cubefree() for _ in range(rng.randint(1, 3)))
        assert integer_qth_root(max(elems), 3) is None or max(elems) == 1
        assert decide(QInput(3, elems)).verdict is Verdict.NO
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"1000 cube-free sets of size <= 3 all decide No, {elapsed:.1f}s")


def test_criterion_04_twist_invariance():
    rng = random.Random(103)
    start = time.perf_counter()
    for _ in range(500):
        q = rng.choice([3, 5])
        # keep the support small so q^k enumeration stays within the guard
        top = 300 if q == 3 else 100
        elems = tuple(
            rng.choice([-1, 1]) * rng.randrange(2, top)
            for _ in range(rng.randint(1, 5))
        )
        qinput = QInput(q, elems)
        a = tuple(rng.randint(1, q - 1) for _ in elems)
        assert decide(qinput).verdict == decide(exponent_twist(qinput, a)).verdict
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"500 random exponent twists preserve the verdict, {elapsed:.1f}s")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    checked, bad = oracle_check_exhaustive(3, 2, 3)
    assert bad == []
    checked_r, bad_r = oracle_check_random(5, 3, 4, trials=200, seed=42)
    assert checked_r == 200 and bad_r == []
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        5,
        f"covering vs Skalba brute force agree on {checked} exhaustive + 200 "
        f"random instances, {elapsed:.1f}s",
    )


def test_criterion_06_certificate_exactness(capsys):
    code, env = run_cli(capsys, "certificate", "--q", "3", "--set", "2,3,6,12")
    assert code == 0
    cert = env["result"]["skalba_certificate"]
    assert sum(cert["f"]) % 3 != 0
    # independent re-verification of the integer identity
    qfree = env["result"]["profile"]["qfree_values"]
    prod = 1
    for b, e in zip(qfree, cert["exponents"]):
        prod *= b**e
    assert prod == cert["product"] == 216
    root = integer_qth_root(prod, 3)
    assert root == cert["root"] == 6 and root**3 == prod
    report(6, "certificate 2^2 * 3^2 * 6 = 216 = 6^3 re-verified independently")


def test_criterion_07_counterexample_prime(capsys):
    code, env = run_cli(capsys, "scan", "--q", "3", "--set", "2,3,6", "--bound", "100")
    assert code == 1
    assert env["result"]["counterexample_prime"] == 13
    cubes = {pow(x, 3, 13) for x in range(1, 13)}
    assert cubes == {1, 5, 8, 12}
    assert not cubes & {2, 3, 6}
    report(7, "scan finds p=13; cubes mod 13 = {1,5,8,12} avoid {2,3,6}")


def test_criterion_08_single_prime_density():
    start = time.perf_counter()
    rep = census([2], 3, 200_000)
    elapsed = time.perf_counter() - start
    emp = float(rep.empirical_density)
    assert abs(emp - 1 / 3) <= 0.03
    assert elapsed < 30.0
    report(8, f"census {{2}} q=3: empirical {emp:.4f} vs 1/3, {elapsed:.1f}s")


def test_criterion_09_no_false_failures_for_yes_instances():
    start = time.perf_counter()
    for q in (3, 5):
        for k in (2, 3):
            primes = [p for p in (3, 7, 11, 13) if p != q][:k]
            B = [prod(p**e for p, e in zip(primes, n)) for n in synthesize_covering(k, q)]
            assert decide(QInput(q, tuple(B))).verdict is Verdict.YES
            assert find_counterexample_prime(B, q, 10**5) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(9, f"4 pencil fixtures show no failing prime up to 1e5, {elapsed:.1f}s")


def test_criterion_10_covering_number_bound():
    for q in (3, 5):
        normals = synthesize_covering(2, q)
        assert len(normals) == q + 1 and covers(normals, 2, q).covered
        # uncovered_count builds the masks; covers answers q normals without them
        for subset in combinations(normals, q):
            assert uncovered_count(subset, 2, q) > 0
    report(10, "the pencils cover with q+1 planes; all q-subsets leave points uncovered")
