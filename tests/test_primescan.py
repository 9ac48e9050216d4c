import random
from fractions import Fraction

import pytest

from qresidue import primescan
from qresidue.covering import GuardError
from qresidue.primescan import (
    SCAN_BOUND_LIMIT,
    DensityReport,
    census,
    find_counterexample_prime,
    has_qth_power_mod_p,
    predicted_failure_density,
    primes_up_to,
)


def test_primes_up_to_matches_naive():
    def naive(n):
        return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]

    for bound in (1, 2, 3, 10, 100, 541):
        assert list(primes_up_to(bound)) == naive(bound)


def test_primes_up_to_crosses_segment_boundary():
    primes = [p for p in primes_up_to(10**6 + 100) if p > 10**6]
    assert primes == [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]


def test_has_qth_power_mod_p():
    rep = has_qth_power_mod_p([2, 3, 6], 13, 3)
    assert rep.splits and not rep.outcome
    rep = has_qth_power_mod_p([2, 3, 6], 7, 3)
    assert rep.splits and rep.outcome
    rep = has_qth_power_mod_p([2, 3, 6, 12], 5, 3)
    assert not rep.splits and rep.outcome
    assert all(r for _, r in rep.per_element)
    with pytest.raises(ValueError):
        has_qth_power_mod_p([2, 3], 3, 3)
    with pytest.raises(ValueError):
        has_qth_power_mod_p([2, 3], 2, 3)


def test_qth_root_matches_enumeration():
    # every unit of F_p, split prime or not, against the q-th powers of
    # F_p* listed one by one; at p != 1 mod q every unit is a q-th power
    for q in (3, 5):
        for p in primes_up_to(200):
            if p == q:
                continue
            residues = {pow(x, q, p) for x in range(1, p)}
            B = range(1, p)
            rep = has_qth_power_mod_p(B, p, q)
            assert rep.splits == (p % q == 1)
            assert rep.per_element == tuple((b, b in residues) for b in B)


def test_residue_symbol_triviality_matches_enumeration():
    # Euler's criterion b^((p-1)/q) = 1 at split primes: the q-th power
    # residue symbol of b is trivial exactly when b is a q-th power mod p
    for q in (3, 5):
        for p in primes_up_to(500):
            if p % q != 1:
                continue
            residues = {pow(x, q, p) for x in range(1, p)}
            B = range(1, min(p, 30))
            rep = has_qth_power_mod_p(B, p, q)
            assert rep.splits
            assert rep.per_element == tuple((b, b in residues) for b in B)
            assert rep.outcome == any(b in residues for b in B)


def test_find_counterexample_prime():
    assert find_counterexample_prime([2, 3, 6], 3, 100) == 13
    assert find_counterexample_prime([2], 3, 10) == 7
    assert find_counterexample_prime([2, 3, 6, 12], 3, 10**5) is None


def test_predicted_density():
    assert predicted_failure_density([2], 3) == Fraction(1, 3)
    assert predicted_failure_density([2, 3, 6, 12], 3) == 0
    assert predicted_failure_density([2, 3, 6], 3) == Fraction(1, 9)
    assert predicted_failure_density([8, 5], 3) == 0  # trivially yes


def test_census_covered_set_never_fails():
    rep = census([2, 3, 6, 12], 3, 50_000)
    assert rep.failing_count == 0
    assert rep.predicted_density == 0


def test_census_single_prime_density():
    rep = census([2], 3, 200_000)
    assert abs(float(rep.empirical_density) - 1 / 3) <= 0.03
    assert rep.predicted_density == Fraction(1, 3)


def test_census_two_dim_density():
    rep = census([2, 3, 6], 3, 100_000)
    assert rep.predicted_density == Fraction(1, 9)
    assert abs(float(rep.empirical_density) - 1 / 9) <= 0.02
    assert rep.failing_primes[0] == 13


def _no_scan(monkeypatch):
    def fail(bound):
        raise AssertionError("primes were sieved before the guard")

    monkeypatch.setattr(primescan, "primes_up_to", fail)


def test_census_guard_fires_before_the_scan(monkeypatch):
    _no_scan(monkeypatch)
    eighteen_primes = [p for p in primes_up_to(67) if p != 3]  # 3^18 points
    with pytest.raises(GuardError):
        census(eighteen_primes, 3, 2 * 10**6)


def test_scan_bound_budget_fires_before_the_scan(monkeypatch):
    _no_scan(monkeypatch)
    with pytest.raises(GuardError):
        census([2], 3, SCAN_BOUND_LIMIT + 1)
    with pytest.raises(GuardError):
        find_counterexample_prime([2, 3, 6], 3, SCAN_BOUND_LIMIT + 1)
    with pytest.raises(ValueError):
        census([2], 3, 99)
    with pytest.raises(ValueError):
        find_counterexample_prime([2], 3, 1)


# --- reference: the original per-prime loops ------------------------------


def _plain_sieve(bound):
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, flag in enumerate(flags) if flag]


def _reference_scan(B, q, bound):
    """(DensityReport fields of the prime loop, first failing prime or None)."""
    prod = 1
    for b in B:
        prod *= b
    checked = excluded = split = 0
    failing = []
    for p in _plain_sieve(bound):
        if p == q or prod % p == 0:
            excluded += 1
            continue
        checked += 1
        if p % q != 1:
            continue
        split += 1
        if not any(pow(b, (p - 1) // q, p) == 1 for b in B):
            failing.append(p)
    fields = dict(
        bound=bound,
        primes_checked=checked,
        excluded_primes=excluded,
        split_primes=split,
        failing_count=len(failing),
        failing_primes=tuple(failing[:25]),
        empirical_density=Fraction(len(failing), checked) if checked else Fraction(0),
    )
    return fields, (failing[0] if failing else None)


def _scan_cases():
    rng = random.Random(2023)
    small = [2, 3, 5, 7, 11, 13]
    for q in (3, 5, 7):
        for i in range(4):
            # products of shared small primes with random signs; half the sets
            # hold a multiple of q, so p = q is excluded on either ground
            B = [q * rng.choice(small)] if i % 2 else []
            for _ in range(rng.randint(1, 3)):
                b = 1
                for p in rng.sample(small, rng.randint(1, 3)):
                    b *= p ** rng.randint(1, q - 1)
                B.append(b)
            yield q, [b if rng.random() < 0.5 else -b for b in B], 30_000
    yield 3, [-2, 3, -6, 324], 30_000  # covers F_3^2: no failing prime
    yield 3, [-10, 22, 35], 10**6 + 20_000  # two sieve segments


@pytest.mark.parametrize("q, B, bound", list(_scan_cases()))
def test_scan_matches_reference_loops(q, B, bound):
    fields, first = _reference_scan(B, q, bound)
    expected = DensityReport(**fields, predicted_density=predicted_failure_density(B, q))
    assert census(B, q, bound) == expected
    assert find_counterexample_prime(B, q, bound) == first
