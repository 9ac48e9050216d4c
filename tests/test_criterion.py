import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, count, islice, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qresidue import covering, criterion, fqlinalg
from qresidue.arith import is_probable_prime
from qresidue.cli import main
from qresidue.covering import (GuardError, check_budget, check_family, covers, synthesize_covering,
                               uncovered_count)
from qresidue.criterion import (
    ORACLE_ENUMERATION_LIMIT,
    ORACLE_INSTANCE_LIMIT,
    Verdict,
    counterexample_c,
    decide,
    exponent_twist,
    first_odd_primes,
    oracle_check_exhaustive,
    oracle_check_random,
    skalba_condition_holds,
    skalba_oracle,
    skalba_solve,
    twisted_matrix,
)
from qresidue.fqlinalg import mat_vec, rref
from qresidue.profiles import QInput, build_profile, hyperplanes_of

CUBE_YES = QInput(3, (2, 3, 6, 12))
CUBE_NO = QInput(3, (2, 3, 6))
QUINTIC_YES = QInput(5, (2, 21, 42, 84, 168, 336))


def test_decide_examples():
    assert decide(CUBE_YES).verdict is Verdict.YES
    d = decide(CUBE_NO)
    assert d.verdict is Verdict.NO
    assert d.uncovered == (1, 1)
    d = decide(QInput(3, (5, -27)))
    assert d.verdict is Verdict.TRIVIALLY_YES
    assert d.trivial.root == -3
    assert decide(QUINTIC_YES).verdict is Verdict.YES


def test_decide_k1_is_no():
    d = decide(QInput(3, (2,)))
    assert d.verdict is Verdict.NO
    assert d.uncovered is not None and any(d.uncovered)


def _matrix(qinput):
    return build_profile(qinput).exponents


def test_skalba_condition_holds():
    assert skalba_condition_holds(_matrix(CUBE_YES), 3, [1, 1, 1, 1])
    assert not skalba_condition_holds(_matrix(CUBE_NO), 3, [1, 1, 2])
    # single column (1, 0): the row space of the 2x1 matrix is all of F_3^1
    assert not skalba_condition_holds(_matrix(QInput(3, (2,))), 3, [1])


def test_skalba_condition_rejects_zero_entries():
    M = _matrix(CUBE_YES)
    with pytest.raises(ValueError):
        skalba_condition_holds(M, 3, [1, 0, 1, 1])
    with pytest.raises(ValueError):
        skalba_condition_holds(M, 3, [1, 1])


def test_skalba_oracle():
    assert skalba_oracle(_matrix(CUBE_YES), 3)
    assert not skalba_oracle(_matrix(CUBE_NO), 3)
    assert skalba_oracle(_matrix(QUINTIC_YES), 5)


def test_skalba_oracle_refuses_over_its_limit_before_any_twist(monkeypatch):
    def untried(M, q):
        raise AssertionError("a twist was tried")

    monkeypatch.setattr(criterion, "_twist_test", untried)
    with pytest.raises(GuardError) as refused:
        skalba_oracle([[1] * 24], 3)
    assert str(refused.value) == "(q-1)^l = 2^24 exceeds oracle limit 10000000"


def test_skalba_oracle_refuses_a_long_row_without_computing_its_power():
    # 2^20000 has 6,021 digits, over the default limit of integer-to-text
    # conversion: the message names the power, not its value
    with pytest.raises(GuardError) as refused:
        skalba_oracle([[1] * 20000], 3)
    assert str(refused.value) == "(q-1)^l = 2^20000 exceeds oracle limit 10000000"


def test_skalba_solve_reference_certificate():
    cert = skalba_solve(build_profile(CUBE_YES), [1, 1, 1, 1])
    assert cert.f == (2, 2, 1, 0)
    assert sum(cert.f) % 3 != 0
    assert cert.product == 216 and cert.root == 6
    assert skalba_solve(build_profile(CUBE_NO), [1, 1, 2]) is None


def test_skalba_solve_holds_no_table_of_q_entries():
    # {2, 3} has no null space, so every twist fails; at q = 100,003 a table
    # of inverses would take megabytes
    profile = build_profile(QInput(100_003, (2, 3)))
    tracemalloc.start()
    try:
        assert skalba_solve(profile, [1, 2]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_skalba_certificates_verify_exactly():
    rng = random.Random(41)
    for _ in range(50):
        q = rng.choice([3, 5])
        elems = tuple(rng.randrange(2, 300) for _ in range(rng.randint(1, 5)))
        qinput = QInput(q, elems)
        decision = decide(qinput)
        if decision.verdict is not Verdict.YES:
            continue
        profile = decision.profile
        c = [rng.randint(1, q - 1) for _ in range(profile.l)]
        cert = skalba_solve(profile, c)
        assert cert is not None
        assert sum(cert.f) % q != 0
        prod = 1
        for b, ci, fi in zip(profile.qfree_values, cert.c, cert.f):
            prod *= b ** (ci * fi % q)
        assert prod == cert.product == cert.root**q


def test_counterexample_c_examples():
    assert counterexample_c(build_profile(CUBE_NO), (1, 1)) == (1, 1, 2)
    assert counterexample_c(build_profile(QInput(3, (2, 3))), (1, 1)) == (1, 1)
    assert counterexample_c(build_profile(QInput(3, (2,))), (2,)) == (2,)


def test_counterexample_c_yields_all_ones():
    rng = random.Random(43)
    for _ in range(100):
        q = rng.choice([3, 5])
        elems = tuple(rng.randrange(2, 300) for _ in range(rng.randint(1, 4)))
        decision = decide(QInput(q, elems))
        if decision.verdict is not Verdict.NO:
            continue
        profile = decision.profile
        d = decision.uncovered
        c = counterexample_c(profile, d)
        M = twisted_matrix(profile.exponents, q, c)
        assert mat_vec(zip(*M), d, q) == [1] * profile.l
        assert not skalba_condition_holds(profile.exponents, q, c)


def test_counterexample_c_rejects_covered_d():
    with pytest.raises(ValueError):
        counterexample_c(build_profile(CUBE_NO), (1, 0))  # annihilated by column of 3


def test_exponent_twist_examples():
    twisted = exponent_twist(CUBE_YES, (2, 2, 2, 2))
    assert twisted.elements == (4, 9, 36, 144)
    assert exponent_twist(CUBE_YES, (1, 1, 1, 1)).elements == CUBE_YES.elements
    with pytest.raises(ValueError):
        exponent_twist(CUBE_YES, (1, 1, 1, 0))
    with pytest.raises(ValueError) as refused:
        exponent_twist(CUBE_YES, (1, 1, 1))
    assert str(refused.value) == "a must have one entry per element"


@pytest.mark.parametrize("q", [3, 5, 7, 7919])
def test_first_odd_primes_matches_the_primality_test(q):
    # 7919 is the 999th odd prime: at k = 1000 the sieve must reach the 1001st
    expected = tuple(islice((p for p in count(3, 2) if p != q and is_probable_prime(p)), 1000))
    for k in range(1001):
        assert first_odd_primes(q, k) == expected[:k], k


def test_decide_invariant_under_twists():
    rng = random.Random(47)
    for _ in range(200):
        q = rng.choice([3, 5])
        elems = tuple(rng.randrange(2, 200) for _ in range(rng.randint(1, 5)))
        qinput = QInput(q, elems)
        a = tuple(rng.randint(1, q - 1) for _ in elems)
        assert decide(qinput).verdict == decide(exponent_twist(qinput, a)).verdict


def test_decide_invariant_under_sign_qth_powers_duplicates():
    rng = random.Random(53)
    for _ in range(100):
        q = rng.choice([3, 5])
        elems = list(rng.randrange(2, 200) for _ in range(rng.randint(1, 4)))
        base = decide(QInput(q, tuple(elems))).verdict
        j = rng.randrange(len(elems))
        negated = list(elems)
        negated[j] = -negated[j]
        assert decide(QInput(q, tuple(negated))).verdict == base
        scaled = list(elems)
        scaled[j] *= rng.randrange(2, 5) ** q
        assert decide(QInput(q, tuple(scaled))).verdict == base
        assert decide(QInput(q, tuple(elems + [elems[j]]))).verdict == base


def test_small_sets_are_never_yes():
    # fewer than q+1 elements cannot cover, so the verdict is No (or trivial)
    rng = random.Random(59)
    for _ in range(200):
        q = rng.choice([3, 5])
        # keep the support small so q^k enumeration stays within the guard
        top = 10**4 if q == 3 else 200
        elems = tuple(rng.randrange(2, top) for _ in range(rng.randint(1, q)))
        decision = decide(QInput(q, elems))
        assert decision.verdict in (Verdict.NO, Verdict.TRIVIALLY_YES)


def test_oracle_agreement_exhaustive_f3():
    checked, disagreements = oracle_check_exhaustive(3, 2, 3)
    assert checked == sum((3**1 - 1) ** l for l in (1, 2, 3)) + sum(
        (3**2 - 1) ** l for l in (1, 2, 3)
    )
    assert disagreements == []


def test_oracle_agreement_random_f5():
    checked, disagreements = oracle_check_random(5, 3, 4, trials=200, seed=42)
    assert checked == 200
    assert disagreements == []


def _random_draws(monkeypatch, q, k_max, l_max, trials, seed):
    monkeypatch.setattr(criterion, "_compare_routes", lambda q, instances: list(instances))
    return oracle_check_random(q, k_max, l_max, trials=trials, seed=seed)


@pytest.mark.parametrize("q, k_max, l_max", [(3, 2, 2), (5, 3, 4), (7, 4, 3)])
def test_oracle_random_draws_nonzero_columns_of_one_length(monkeypatch, q, k_max, l_max):
    instances = _random_draws(monkeypatch, q, k_max, l_max, 200, 0)
    assert len(instances) == 200
    for cols in instances:
        assert 1 <= len(cols) <= l_max
        assert 1 <= len(cols[0]) <= k_max
        assert all(len(col) == len(cols[0]) and any(col) for col in cols), cols
        assert all(0 <= x < q for col in cols for x in col), cols
    assert instances == _random_draws(monkeypatch, q, k_max, l_max, 200, 0)


def test_oracle_random_draws_every_nonzero_column(monkeypatch):
    instances = _random_draws(monkeypatch, 3, 2, 2, 200, 0)
    drawn = {col for cols in instances for col in cols}
    assert drawn == {v for k in (1, 2) for v in product(range(3), repeat=k) if any(v)}


def _no_sweep(monkeypatch):
    def fail(q, instances):
        raise AssertionError("the sweep ran before its budget check")

    monkeypatch.setattr(criterion, "_compare_routes", fail)


def test_oracle_exhaustive_budget_counts_exact_instances(monkeypatch):
    _no_sweep(monkeypatch)
    # (3^1 - 1)^19 = 2^19 <= 10^6, but the sweep holds sum_{l<=19} 2^l matrices
    assert sum(2**l for l in range(1, 20)) > ORACLE_INSTANCE_LIMIT
    with pytest.raises(GuardError):
        oracle_check_exhaustive(3, 1, 19)
    # 9,330 matrices are within budget, but they need 62,193,780 Skalba checks
    assert sum(6**l for l in range(1, 6)) <= ORACLE_INSTANCE_LIMIT
    assert sum(36**l for l in range(1, 6)) > ORACLE_ENUMERATION_LIMIT
    with pytest.raises(GuardError):
        oracle_check_exhaustive(7, 1, 5)
    with pytest.raises(GuardError):
        oracle_check_exhaustive(3, 10**9, 10**9)


@pytest.mark.parametrize("sweep", [
    oracle_check_exhaustive,
    lambda q, k_max, l_max: oracle_check_random(q, k_max, l_max, trials=1, seed=0),
], ids=["exhaustive", "random"])
def test_oracle_sizes_below_one_are_rejected(sweep, monkeypatch):
    # before any budget loop runs: k_max = 10^9 alone would take 10^9 steps
    with pytest.raises(ValueError, match="--l-max must be >= 1"):
        sweep(3, 10**9, 0)
    with pytest.raises(ValueError, match="--k-max must be >= 1"):
        sweep(3, 0, 10**9)
    # q as QInput takes it: q = 1 would draw nonzero columns forever
    _no_sweep(monkeypatch)
    for q in (1, 2, 9):
        with pytest.raises(ValueError, match=f"q must be an odd prime, got {q}"):
            sweep(q, 2, 2)


def test_oracle_random_budget(monkeypatch):
    _no_sweep(monkeypatch)
    with pytest.raises(GuardError):
        oracle_check_random(5, 2, 12, trials=1, seed=0)  # 4^12 > 10^7 checks
    with pytest.raises(GuardError):
        oracle_check_random(3, 2, 4, trials=ORACLE_ENUMERATION_LIMIT // 16 + 1, seed=0)
    with pytest.raises(GuardError):
        oracle_check_random(7, 2, 10**9, trials=1, seed=0)
    # the sweep's instance budget, also where the checks would fit
    with pytest.raises(GuardError, match=rf"--trials {ORACLE_INSTANCE_LIMIT + 1} exceeds limit"):
        oracle_check_random(3, 1, 1, trials=ORACLE_INSTANCE_LIMIT + 1, seed=0)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="--trials must be >= 1") as refused:
            oracle_check_random(3, 1, 1, trials=trials, seed=0)
        assert refused.type is ValueError  # a usage error, not over budget
    for q, k_max in ((3, 17), (3, 10**9), (10007, 3)):  # q^k_max > 10^8 points
        with pytest.raises(GuardError, match=rf"q\^k = {q}\^{k_max} "):
            oracle_check_random(q, k_max, 1, trials=1, seed=0)


@pytest.mark.parametrize("seed", range(10))
def test_oracle_random_mask_budget_is_refused_before_any_draw(monkeypatch, seed):
    # both sweeps are under the point budget, but their largest instance is
    # over the mask budget: l q^(k+1) = 97^5 and 2 * 1999^3 exceed 5 * 10^9.
    # Whether a draw reaches that instance depends on the seed; the refusal
    # must not.
    _no_sweep(monkeypatch)
    for q, k_max, l_max, trials in ((97, 4, 1, 3), (1999, 2, 2, 2)):
        with pytest.raises(GuardError, match=rf"l q\^\(k\+1\) = {l_max} \* {q}\^{k_max + 1} "
                                             r"exceeds mask work limit"):
            oracle_check_random(q, k_max, l_max, trials=trials, seed=seed)


@pytest.mark.parametrize("module, limit, value, k_max, l_max, message", [
    (covering, "POINT_ENUMERATION_LIMIT", 10**9, 19, 1,
     r"q\^k = 3\^19 exceeds enumeration limit 1000000000"),
    (criterion, "ORACLE_ENUMERATION_LIMIT", 10**8, 1, 27,
     r"1 trials x \(q-1\)\^27 exceeds 100000000 Skalba"),
    (covering, "MASK_WORK_LIMIT", 10**6, 12, 1,
     r"l q\^\(k\+1\) = 1 \* 3\^13 exceeds mask work limit 1000000"),
], ids=["points", "checks", "mask"])
def test_oracle_random_caps_follow_a_raised_limit(monkeypatch, module, limit, value, k_max,
                                                  l_max, message):
    # each refusal follows its limit: an exponent cap fixed for today's
    # limits (3^17 > 10^8, 2^24 > 10^7) would let the raised ones through,
    # and the sweep reads the lowered mask limit where covering keeps it
    # (3^12 points are admitted, 3^13 bits of mask work are not)
    assert 3**19 > 10**9 > 3**17 and 2**27 > 10**8 > 2**24 and 3**13 > 10**6 > 3**12
    monkeypatch.setattr(module, limit, value)
    _no_sweep(monkeypatch)
    with pytest.raises(GuardError, match=message):
        oracle_check_random(3, k_max, l_max, trials=1, seed=0)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_oracle_random_is_refused_up_front_iff_its_largest_instance_is(monkeypatch, q):
    # with small engine budgets, a random sweep is refused before any draw,
    # with the same message, exactly when check_family refuses l_max all-ones
    # normals of length k_max; check_family accepts every instance of an
    # admitted sweep, which _compare_routes builds without it.  The limits
    # leave both outcomes at each q.
    monkeypatch.setattr(covering, "POINT_ENUMERATION_LIMIT", 100)
    monkeypatch.setattr(covering, "MASK_WORK_LIMIT", 400)
    compare = criterion._compare_routes

    def checked_compare(q, instances):
        instances = list(instances)
        for cols in instances:
            check_family(cols, len(cols[0]), q)
        return compare(q, instances)

    outcomes = set()
    for k_max, l_max in product(range(1, 5), repeat=2):
        try:
            check_family([(1,) * k_max] * l_max, k_max, q)
        except GuardError as refused:
            outcomes.add("refused")
            _no_sweep(monkeypatch)
            with pytest.raises(GuardError) as swept:
                oracle_check_random(q, k_max, l_max, trials=20, seed=0)
            assert str(swept.value) == str(refused)
            monkeypatch.setattr(criterion, "_compare_routes", compare)
            continue
        outcomes.add("admitted")
        monkeypatch.setattr(criterion, "_compare_routes", checked_compare)
        for seed in range(20):
            checked, disagreements = oracle_check_random(q, k_max, l_max, trials=20, seed=seed)
            assert checked == 20 and disagreements == []
    assert outcomes == {"refused", "admitted"}


def test_every_exhaustive_cell_is_within_the_covering_budgets(monkeypatch):
    # _compare_routes builds each instance without covers' door, so every
    # (k, l) the exhaustive guard admits must pass check_budget.  Past
    # q = 3,163 even k = l = 1 is over the 10^7 Skalba checks.
    monkeypatch.setattr(criterion, "_compare_routes", lambda q, instances: "admitted")
    cells = []
    for q in filter(is_probable_prime, range(3, 3164, 2)):
        for k in count(1):
            row = []
            for l in count(1):  # the sweep (k, l) holds every smaller cell
                try:
                    oracle_check_exhaustive(q, k, l)
                except GuardError:
                    break
                check_budget(l, k, q)
                row.append((q, k, l))
            if not row:
                break
            cells += row
    # the edges: 2^1 + ... + 2^l matrices at q = 3, k = 1 hold 4^1 + ... + 4^l
    # Skalba checks, and (q^2 - 1)(q - 1) of them at k = 2, l = 1
    assert (3, 1, 11) in cells and (3, 1, 12) not in cells
    assert (211, 2, 1) in cells and (223, 2, 1) not in cells and (3163, 1, 1) in cells
    with pytest.raises(GuardError):
        oracle_check_exhaustive(3167, 1, 1)


@pytest.mark.parametrize("sweep", [
    lambda: oracle_check_exhaustive(3, 2, 3),
    lambda: oracle_check_random(5, 3, 4, trials=200, seed=42),
], ids=["exhaustive", "random"])
def test_oracle_sweeps_do_not_pass_covers_door(monkeypatch, sweep):
    def door(normals, k, q):
        raise AssertionError("a sweep instance went through check_family")

    monkeypatch.setattr(covering, "check_family", door)
    checked, disagreements = sweep()
    assert checked > 0 and disagreements == []


def test_oracle_budgets_admit_sweeps_at_the_limit(monkeypatch):
    monkeypatch.setattr(criterion, "_compare_routes", lambda q, instances: "admitted")
    trials = ORACLE_ENUMERATION_LIMIT // 16  # exactly 10^7 checks at q = 3, l = 4
    assert oracle_check_random(3, 2, 4, trials=trials, seed=0) == "admitted"
    assert oracle_check_random(3, 16, 1, trials=1, seed=0) == "admitted"  # 3^16 points
    # 4,094 matrices and 5,592,404 checks; one more column would need 22,369,620
    assert oracle_check_exhaustive(3, 1, 11) == "admitted"
    _no_sweep(monkeypatch)
    with pytest.raises(GuardError):
        oracle_check_exhaustive(3, 1, 12)


def test_oracle_sweeps_keep_every_row(monkeypatch):
    # the oracle reads the matrix of the columns a sweep drew, every row of
    # it, also at k = 12
    columns = ((1,) * 12, (0,) * 11 + (1,))
    matrices = []
    oracle = criterion.skalba_oracle
    monkeypatch.setattr(criterion, "skalba_oracle", lambda M, q: matrices.append(M) or oracle(M, q))
    assert criterion._compare_routes(3, [columns]) == (1, [])
    assert list(zip(*matrices[0])) == list(columns)
    checked, disagreements = oracle_check_random(3, 12, 2, trials=20, seed=3)
    assert checked == 20 and disagreements == []


def _elements(q, columns):
    """The set whose j-th element is prod_i p_i^col_j[i] over the first odd
    primes p_i other than q."""
    primes = first_odd_primes(q, len(columns[0]))
    return tuple(prod(p**e for p, e in zip(primes, col)) for col in columns)


def _profile(q, columns):
    return build_profile(QInput(q, _elements(q, columns)))


def _random_columns(q, rng, k, l):
    cols = []
    while len(cols) < l:
        col = tuple(rng.randrange(q) for _ in range(k))
        if any(col):
            cols.append(col)
    return cols


def _route_profiles(q, rng, count):
    """Profiles of pencil coverings of F_q^2 (for q = 3 with a random extra
    column half the time) and of random column sets."""
    pencil = synthesize_covering(2, q)
    for _ in range(count):
        if rng.random() < 0.4:
            scales = [rng.randrange(1, q) for _ in pencil]
            cols = [tuple(s * x % q for x in n) for s, n in zip(scales, pencil)]
            if q == 3 and rng.random() < 0.5:
                cols.append((rng.randrange(1, q), rng.randrange(q)))
            rng.shuffle(cols)
        else:
            k, l = rng.randint(1, 3), rng.randint(1, 6 if q == 3 else 4)
            cols = _random_columns(q, rng, k, l)
        yield _profile(q, cols)


@pytest.mark.parametrize("q", [3, 5])
def test_skalba_solve_agrees_with_row_space_route(q):
    rng = random.Random(61 + q)
    seen = {True: 0, False: 0}
    for profile in _route_profiles(q, rng, 30 if q == 3 else 12):
        covered = covers(hyperplanes_of(profile), profile.k, q).covered
        seen[covered] += 1
        for c in product(range(1, q), repeat=profile.l):
            cert = skalba_solve(profile, c)
            assert (cert is None) == (not skalba_condition_holds(profile.exponents, q, c))
            if covered:
                assert cert is not None
            if cert is not None:
                assert sum(cert.f) % q != 0
                assert cert.product == cert.root**q
    assert seen[True] >= 3 and seen[False] >= 3


def _rref_route_f(M, q, c):
    """f as row-reducing M(c) itself gives it: the first basis vector of
    Null(M(c)) with nonzero coordinate sum, or None."""
    basis = fqlinalg.null_space_basis(twisted_matrix(M, q, c), q)
    return next((tuple(v) for v in basis if sum(v) % q), None)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_skalba_solve_certificates_match_the_twisted_rref(q):
    # every twist in [1, q-1]^l, and twists whose entries all lie in
    # [-2q, 2q] outside [1, q-1]
    rng = random.Random(83 + q)
    outside = [x for x in range(-2 * q, 2 * q + 1) if x % q and not 0 < x < q]
    seen = {True: 0, False: 0}
    for _ in range(30):
        k, l = rng.randint(1, 3), rng.randint(1, {3: 5, 5: 4, 7: 3}[q])
        profile = _profile(q, _random_columns(q, rng, k, l))
        M = profile.exponents
        far = [tuple(rng.choice(outside) for _ in range(profile.l)) for _ in range(20)]
        for c in [*product(range(1, q), repeat=profile.l), *far]:
            f = _rref_route_f(M, q, c)
            cert = skalba_solve(profile, c)
            seen[f is not None] += 1
            if f is None:
                assert cert is None
                continue
            assert (cert.c, cert.f) == (tuple(cj % q for cj in c), f)
            total = prod(b ** (cj * fj % q) for b, cj, fj in zip(profile.qfree_values, c, f))
            assert cert.product == total == cert.root**q
    assert seen[True] > 0 and seen[False] > 0


def _per_twist(M, q):
    return all(skalba_condition_holds(M, q, c) for c in product(range(1, q), repeat=len(M[0])))


@pytest.mark.parametrize("q, k_max, l_max", [(3, 2, 3), (5, 2, 2), (7, 1, 3), (3, 2, 4)])
def test_skalba_oracle_matches_per_twist_route_exhaustively(q, k_max, l_max):
    seen = {True: 0, False: 0}
    for k in range(1, k_max + 1):
        nonzero = [v for v in product(range(q), repeat=k) if any(v)]
        for l in range(1, l_max + 1):
            for cols in product(nonzero, repeat=l):
                M = list(zip(*cols))
                verdict = skalba_oracle(M, q)
                assert verdict == _per_twist(M, q), cols
                seen[verdict] += 1
    # a covering of F_q^k needs k >= 2 and at least q + 1 columns
    assert seen[False] > 0 and (seen[True] > 0) == (k_max > 1 and l_max > q)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_twist_test_matches_skalba_condition_holds(q):
    # null spaces of dimension 2 and more: a twist may be orthogonal to one
    # basis vector of Null(M) and not to another
    rng = random.Random(71 + q)
    seen = {True: 0, False: 0}
    for _ in range(40):
        k, l = rng.randint(1, 3), rng.randint(2, 5 if q == 3 else 4 if q == 5 else 3)
        cols = _random_columns(q, rng, k, l)
        M = list(zip(*cols))
        passing = criterion._twist_test(M, q)
        for c in product(range(1, q), repeat=l):
            expected = skalba_condition_holds(M, q, c)
            g = passing([pow(cj, -1, q) for cj in c])
            assert (g is not None) == expected, (cols, c)
            if g is not None:
                assert fqlinalg.mat_vec(M, g, q) == [0] * k
                assert sum(gj * pow(cj, -1, q) for gj, cj in zip(g, c)) % q
            seen[expected] += 1
    assert seen[True] > 0 and seen[False] > 0


def _reference_twist_test(M, q):
    """The first basis vector of Null(M) with sum_j g_j c_j^-1 != 0, each
    inverse taken afresh: the order skalba_solve's certificates rely on."""
    basis = fqlinalg.null_space_basis(M, q)
    return lambda c: next(
        (g for g in basis if sum(gj * pow(cj, -1, q) for gj, cj in zip(g, c)) % q), None)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_twist_test_returns_the_reference_first_vector(q):
    rng = random.Random(113 + q)
    multi = 0
    for _ in range(30):
        k, l = rng.randint(1, 3), rng.randint(1, 5 if q == 3 else 4 if q == 5 else 3)
        M = list(zip(*_random_columns(q, rng, k, l)))
        passing, reference = criterion._twist_test(M, q), _reference_twist_test(M, q)
        multi += len(fqlinalg.null_space_basis(M, q)) > 1
        for c in product(range(1, q), repeat=l):
            assert passing([pow(cj, -1, q) for cj in c]) == reference(c), (M, c)
    assert multi > 0  # some twists pass on a later basis vector than the first


def test_counterexample_c_self_check_raises(monkeypatch):
    # the check d^T M(c) = (1, ..., 1) is the second mat_vec: corrupt it alone
    true_mat_vec = fqlinalg.mat_vec
    calls = []

    def corrupted(rows, x, q):
        calls.append(None)
        out = true_mat_vec(rows, x, q)
        return out if len(calls) == 1 else [(v + 1) % q for v in out]

    monkeypatch.setattr(fqlinalg, "mat_vec", corrupted)
    with pytest.raises(RuntimeError, match=r"d\^T M\(c\)"):
        counterexample_c(build_profile(CUBE_NO), (1, 1))
    assert len(calls) == 2


def test_self_checks_survive_python_O():
    # python -O strips assert statements; the self-checks are raised errors,
    # so a corrupted kernel still ends in the CLI's internal-error exit 3
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit(99)  # not running under -O\n"
        "from qresidue import cli, fqlinalg\n"
        "true_rref = fqlinalg.rref\n"
        "def corrupted(rows, q):\n"
        "    R, rank, pivots = true_rref(rows, q)\n"
        "    R[0][-1] = (R[0][-1] + 1) % q\n"
        "    return R, rank, pivots\n"
        "fqlinalg.rref = corrupted\n"
        "sys.exit(cli.main(['oracle-check', '--q', '3', '--k-max', '2', '--l-max', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert b"internal error: RuntimeError" in proc.stderr and b"fails Mx = 0" in proc.stderr


def test_skalba_oracle_row_reduces_once_per_profile(monkeypatch):
    calls = []
    rref = fqlinalg.rref

    def counted(rows, q):
        calls.append(rows)
        return rref(rows, q)

    def per_twist(*args):
        raise AssertionError("the Skalba route built or tested a twisted matrix")

    monkeypatch.setattr(fqlinalg, "rref", counted)
    monkeypatch.setattr(criterion, "skalba_condition_holds", per_twist)
    monkeypatch.setattr(criterion, "twisted_matrix", per_twist)
    cases = [(_matrix(CUBE_YES), 3), (_matrix(CUBE_NO), 3), (_matrix(QUINTIC_YES), 5)]
    assert [skalba_oracle(M, q) for M, q in cases] == [True, False, True]
    assert len(calls) == 3  # QUINTIC_YES alone has 4^6 = 4096 twists
    calls.clear()
    # the certificate reads the same null space: one rref, of M itself
    profile = build_profile(QUINTIC_YES)
    assert skalba_solve(profile, [1, 2, 3, 4, 6, -1]) is not None
    assert calls == [profile.exponents]
    calls.clear()
    checked, disagreements = oracle_check_exhaustive(5, 2, 2)
    assert disagreements == [] and len(calls) == checked == 620


@pytest.mark.parametrize("q, count", [(3, 40), (5, 12)])
def test_skalba_condition_holds_matches_enumeration(q, count):
    # the definition itself: c passes iff no d in F_q^k has d^T M(c) = (1, ..., 1)
    rng = random.Random(97 + q)
    seen = {True: 0, False: 0}
    wide_null_spaces = 0
    for _ in range(count):
        k, l = rng.randint(1, 3), rng.randint(1, 4)
        M = [[rng.randrange(q) for _ in range(l)] for _ in range(k)]
        wide_null_spaces += l - rref(M, q)[1] >= 2
        for c in product(range(1, q), repeat=l):
            Mc = twisted_matrix(M, q, c)
            reached = any(mat_vec(zip(*Mc), d, q) == [1] * l for d in product(range(q), repeat=k))
            assert skalba_condition_holds(M, q, c) == (not reached), (M, c)
            seen[not reached] += 1
    assert seen[True] > 0 and seen[False] > 0 and wide_null_spaces > 0


def projective_triangle(q):
    """The projective triangle of PG(2, q): the 3 vertices and the points
    (0, 1, -s), (-s, 0, 1), (1, -s, 0) for each nonzero square s mod q.  Its
    3(q+1)/2 normals cover F_q^3, yet no q+1 of them form a pencil (Blokhuis,
    Combinatorica 14, 1994)."""
    squares = sorted({x * x % q for x in range(1, q)})
    sides = [n for s in squares for n in ((0, 1, -s % q), (-s % q, 0, 1), (1, -s % q, 0))]
    return [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + sides


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_projective_triangle_covers_without_a_pencil(q):
    triangle = projective_triangle(q)
    assert len(set(triangle)) == len(triangle) == 3 * (q + 1) // 2
    assert covers(triangle, 3, q).covered
    if q <= 7:  # a pencil: q+1 normals spanning a 2-dimensional space
        assert all(rref(list(sub), q)[1] == 3 for sub in combinations(triangle, q + 1))
    for j in range(len(triangle)):
        dropped = triangle[:j] + triangle[j + 1:]
        assert uncovered_count(dropped, 3, q) == (q - 1) ** 2 // 2
        witness = covers(dropped, 3, q).witness
        assert 0 not in mat_vec(dropped, witness, q)


@pytest.mark.parametrize("q", [3, 5])
def test_skalba_oracle_on_projective_triangle(q):
    triangle = projective_triangle(q)
    assert skalba_oracle(list(zip(*triangle)), q)
    assert not skalba_oracle(list(zip(*triangle[:-1])), q)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_projective_triangle_decide_and_certificate(q, capsys):
    # elements over the first three odd primes other than q; each answer is
    # checked with plain ints
    triangle = projective_triangle(q)
    full, dropped = _elements(q, triangle), _elements(q, triangle[1:])
    assert decide(QInput(q, full)).verdict is Verdict.YES
    assert decide(QInput(q, dropped)).verdict is Verdict.NO

    def certificate(elements):
        code = main(["--json", "certificate", "--q", str(q), "--set", ",".join(map(str, elements))])
        return code, json.loads(capsys.readouterr().out)["result"]

    code, result = certificate(full)
    cert = result["skalba_certificate"]
    assert code == 0 and sum(cert["f"]) % q
    qfree = result["profile"]["qfree_values"]
    assert prod(b**e for b, e in zip(qfree, cert["exponents"])) == cert["product"] == cert["root"] ** q
    code, result = certificate(dropped)
    twist = result["failing_twist"]
    M = result["profile"]["exponent_matrix"]
    assert code == 1 and all(c % q for c in twist["c"])
    assert mat_vec(zip(*twisted_matrix(M, q, twist["c"])), twist["d"], q) == [1] * len(M[0])


@st.composite
def _base_families(draw):
    """(q, columns): a pencil of F_q^2 padded to k = 3 or 4 with zero
    coordinates and up to two extra columns, a projective triangle with or
    without one point, or random nonzero columns."""
    q = draw(st.sampled_from([3, 5]))
    kind = draw(st.sampled_from(["pencil", "triangle", "random"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "pencil":
        k = rng.randint(3, 4 if q == 3 else 3)
        return q, synthesize_covering(k, q) + _random_columns(q, rng, k, rng.randint(0, 2))
    if kind == "triangle":
        return q, projective_triangle(q)[rng.randint(0, 1):]
    return q, _random_columns(q, rng, rng.randint(1, 3), rng.randint(1, q + 3))


def test_verdict_is_invariant_on_yes_and_no_families():
    # pencils and triangles are Yes instances; the random draws of the older
    # invariance tests above are almost always No
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_base_families(), st.data())
    def check(family, data):
        q, columns = family
        elements = list(_elements(q, columns))
        l, k = len(elements), len(columns[0])
        verdict = decide(QInput(q, tuple(elements))).verdict
        seen.add(verdict)

        def same(variant):
            assert decide(QInput(q, tuple(variant))).verdict is verdict, (columns, variant)

        same(data.draw(st.permutations(elements)))
        signs = data.draw(st.lists(st.booleans(), min_size=l, max_size=l))
        same([-b if flip else b for b, flip in zip(elements, signs)])
        j, m = data.draw(st.integers(0, l - 1)), data.draw(st.integers(2, 6))
        same(elements[:j] + [elements[j] * m**q] + elements[j + 1:])
        a = data.draw(st.lists(st.integers(1, q - 1), min_size=l, max_size=l))
        same(exponent_twist(QInput(q, tuple(elements)), a).elements)
        entries = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
        A = data.draw(st.lists(entries, min_size=k, max_size=k).filter(lambda A: rref(A, q)[1] == k))
        same(_elements(q, [mat_vec(A, col, q) for col in columns]))

    check()
    assert seen == {Verdict.YES, Verdict.NO}
