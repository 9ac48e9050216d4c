import os
import random
import signal
import threading
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qresidue import arith, cli, covering, primescan, profiles
from qresidue.arith import FactoredInteger, factorize, odd_prime_flags
from qresidue.covering import GuardError
from qresidue.criterion import Verdict, decide
from qresidue.primescan import (
    SCAN_BOUND_LIMIT,
    DensityReport,
    census,
    find_counterexample_prime,
    has_qth_power_mod_p,
    primes_up_to,
)
from qresidue.fqlinalg import rref
from qresidue.profiles import QInput, TrivialCertificate, build_profile, hyperplanes_of


def _trial_division_primes(bound):
    return [p for p in range(2, bound + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def test_primes_up_to_matches_naive():
    # every bound puts the sieve's end on odd and even numbers, on primes
    # and on their squares
    for bound in range(301):
        primes = _trial_division_primes(bound)
        assert list(primes_up_to(bound)) == primes
        assert list(compress(range(3, bound + 1, 2), odd_prime_flags(bound))) == primes[1:]


def test_trial_primes_are_the_primes_below_4096():
    assert arith._TRIAL_PRIMES == tuple(_trial_division_primes(4095))
    assert len(arith._TRIAL_PRIMES) == 564


def test_primes_up_to_crosses_segment_boundary():
    # a large-bound spot check: the primes within 100 of 2 * 10^6 + 3
    edge = 3 + 2 * 10**6
    primes = [p for p in primes_up_to(edge + 100) if p > edge - 100]
    naive = [p for p in range(edge - 99, edge + 101) if all(p % d for d in range(2, isqrt(p) + 1))]
    assert primes == naive


def test_primes_up_to_guards_its_bound_before_sieving(monkeypatch):
    _no_scan(monkeypatch)
    with pytest.raises(GuardError):
        list(primes_up_to(SCAN_BOUND_LIMIT + 1))


def test_split_primes_match_the_filtered_primes():
    # the stride starts on the flag of 3 + 2i = 1 mod q, i = q - 1
    for bound in range(301):
        primes = list(primes_up_to(bound))
        flags = odd_prime_flags(bound)
        for q in (3, 5, 7):
            assert list(primescan._split_primes(flags, q, 1)) == [p for p in primes if p % q == 1]
            assert list(primescan._split_primes(flags, q, 2 * 7 * 13)) == \
                [p for p in primes if p % q == 1 and p not in (7, 13)]


def test_has_qth_power_mod_p():
    rep = has_qth_power_mod_p([2, 3, 6], 13, 3)
    assert rep.splits and not any(r for _, r in rep.per_element)
    rep = has_qth_power_mod_p([2, 3, 6], 7, 3)
    assert rep.splits and any(r for _, r in rep.per_element)
    rep = has_qth_power_mod_p([2, 3, 6, 12], 5, 3)
    assert not rep.splits and all(r for _, r in rep.per_element)
    with pytest.raises(ValueError):
        has_qth_power_mod_p([2, 3], 3, 3)
    with pytest.raises(ValueError):
        has_qth_power_mod_p([2, 3], 2, 3)
    # p must be a prime: 91 = 7 * 13 once gave a report with splits=True,
    # 0 a ZeroDivisionError and -7 a report; q must be an odd prime
    for p in (91, 0, -7, 1, 9):
        with pytest.raises(ValueError, match="p must be a prime"):
            has_qth_power_mod_p([2, 5], p, 3)
    for q in (9, 2, 1, -3):
        with pytest.raises(ValueError, match="q must be an odd prime"):
            has_qth_power_mod_p([2, 5], 7, q)


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


def test_find_counterexample_prime():
    assert find_counterexample_prime([2, 3, 6], 3, 100) == 13
    assert find_counterexample_prime([2], 3, 10) == 7
    assert find_counterexample_prime([2, 3, 6, 12], 3, 10**5) is None


def test_predicted_density():
    for B, density in (([2], Fraction(1, 3)), ([2, 3, 6, 12], 0), ([2, 3, 6], Fraction(1, 9)),
                       ([8, 5], 0)):  # the last is trivially yes
        assert census(B, 3, 100).predicted_density == density


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
    # every prime the scans see, split or not, comes from this one sieve
    def fail(bound):
        raise AssertionError("primes were sieved before the guard")

    monkeypatch.setattr(primescan, "odd_prime_flags", fail)


def test_census_guard_fires_before_the_scan(monkeypatch):
    eighteen_primes = [p for p in primes_up_to(67) if p != 3]  # 3^18 points
    _no_scan(monkeypatch)
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


def test_a_set_that_cannot_fail_is_not_scanned(monkeypatch):
    # 8 = 2^3 and -8 * 7^3 are +-(a cube), so a residue at every prime
    _no_scan(monkeypatch)
    assert find_counterexample_prime([8, 5], 3, SCAN_BOUND_LIMIT) is None
    assert find_counterexample_prime([5, -8 * 7**3, 7], 3, SCAN_BOUND_LIMIT) is None


def test_scan_rejects_what_qinput_rejects():
    # a zero element once sent the exact-product check into an endless loop
    for scan in (find_counterexample_prime, census):
        with pytest.raises(ValueError, match="nonzero"):
            scan([0, 2], 3, 100)
        with pytest.raises(ValueError, match="odd prime"):
            scan([2, 3], 9, 100)


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


def _pencil(q, a, b):
    """a and a^i b for 0 <= i < q: over the primes (a, b) their exponent
    vectors are one normal of each of the q + 1 lines of F_q^2."""
    return [a] + [a**i * b for i in range(q)]


# A 39-digit semiprime: factorize would run out of its rho budget on it.
_P1, _P2 = 10**19 + 51, 3 * 10**19 + 41
_SEMIPRIME = _P1 * _P2


def _factorize_knowing_the_semiprime(n):
    if n == _SEMIPRIME:
        return FactoredInteger(1, ((_P1, 1), (_P2, 1)))
    return factorize(n)


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
    yield 3, [-10, 22, 35], 10**6 + 20_000
    for q, singles in ((3, [5, -7]), (5, [7]), (7, [11, 13])):
        yield q, singles + _pencil(q, 2, 3), 30_000  # covers: none fails
        yield q, _pencil(q, 2, 3)[1:] + singles, 30_000  # a line short
    yield 3, [6, 10, 15, 60], 30_000  # composite pieces that gcds split
    yield 3, [6, 35, -210, 11], 30_000  # pieces 6 and 35 stay composite
    yield 5, [6, 7, 6 * 2**5, 36, -7 * 3**10, 42], 30_000  # repeated q-free classes
    yield 3, [5, -8 * 7**3, 7], 30_000  # a -(q-th power): no prime fails
    yield 5, [-1, 2, 3], 30_000
    yield 3, [_SEMIPRIME, 2, 2 * _SEMIPRIME, -4 * _SEMIPRIME, 5], 30_000  # covers
    yield 3, [_SEMIPRIME, -3 * _SEMIPRIME**2, 7], 30_000


def _prime_row_density(B, q):
    """U / (q^k (q-1)) over the support primes of B's residue profile."""
    profile = build_profile(QInput(q, B))
    if isinstance(profile, TrivialCertificate):
        return Fraction(0)
    U = covering.uncovered_count(hyperplanes_of(profile), profile.k, q)
    return Fraction(U, q**profile.k * (q - 1))


@pytest.mark.parametrize("q, B, bound", list(_scan_cases()))
def test_scan_matches_reference_loops(monkeypatch, q, B, bound):
    monkeypatch.setattr(profiles, "factorize", _factorize_knowing_the_semiprime)
    fields, first = _reference_scan(B, q, bound)
    expected = DensityReport(**fields, predicted_density=_prime_row_density(B, q))
    assert census(B, q, bound) == expected
    assert find_counterexample_prime(B, q, bound) == first


def _rank(B, q):
    """Rank over F_q of the exponent matrix of B's residue profile; 0 when B
    holds a q-th power."""
    profile = build_profile(QInput(q, B))
    return 0 if isinstance(profile, TrivialCertificate) else rref(profile.exponents, q)[1]


def _count_euler(monkeypatch):
    """Counter of the Euler exponentiations the scan makes, by prime."""
    calls = Counter()
    real = primescan._euler

    def counted(b, p, q):
        calls[p] += 1
        return real(b, p, q)

    monkeypatch.setattr(primescan, "_euler", counted)
    return calls


@pytest.mark.parametrize("q", [3, 5])
def test_pencil_needs_two_euler_tests_per_prime(monkeypatch, q):
    calls = _count_euler(monkeypatch)
    B = [7] + _pencil(q, 2, 3)  # the pencil's pivots must go first
    rep = census(B, q, 30_000)
    assert rep.failing_count == 0
    assert len(calls) == rep.split_primes and max(calls.values()) == 2
    # each element on its own would need up to q + 2 of them
    assert sum(calls.values()) < 2 * rep.split_primes


@pytest.mark.parametrize("q, B, bound", list(_scan_cases()))
def test_euler_tests_per_prime_at_most_rank(monkeypatch, q, B, bound):
    monkeypatch.setattr(profiles, "factorize", _factorize_knowing_the_semiprime)
    r = _rank(B, q)
    calls = _count_euler(monkeypatch)
    find_counterexample_prime(B, q, min(bound, 30_000))
    assert all(p % q == 1 for p in calls)
    assert max(calls.values(), default=0) <= r


def test_scan_needs_no_factoring_or_covering(monkeypatch):
    def fail(*args):
        raise AssertionError("the scan left modular arithmetic at p")

    for module, name in ((profiles, "factorize"), (covering, "covers"),
                         (profiles, "build_profile"), (primescan, "uncovered_count")):
        monkeypatch.setattr(module, name, fail)
    for q, B, bound in _scan_cases():
        bound = min(bound, 30_000)
        assert find_counterexample_prime(B, q, bound) == _reference_scan(B, q, bound)[1]


def test_census_needs_no_factoring(monkeypatch):
    # the prediction is counted over the coprime pieces S and 2, so an S that
    # factorize cannot split within its budget still gets a census
    def fail(n):
        raise AssertionError("census factored an element")

    monkeypatch.setattr(profiles, "factorize", fail)
    rep = census([_SEMIPRIME, 2], 3, 1000)
    assert rep.predicted_density == Fraction(2, 9)
    fields, _ = _reference_scan([_SEMIPRIME, 2], 3, 1000)
    assert rep == DensityReport(**fields, predicted_density=Fraction(2, 9))


def test_a_set_that_cannot_fail_walks_no_split_prime(monkeypatch):
    # 8 = 2^3 and -8 * 7^3 are +-(a cube): the census counts its split primes
    # on the sieve and walks none of them
    def fail(*args):
        raise AssertionError("a split prime was walked")

    monkeypatch.setattr(primescan, "_split_primes", fail)
    for B in ([8, 5], [5, -8 * 7**3, 7]):
        fields, _ = _reference_scan(B, 3, 10**5)
        assert census(B, 3, 10**5) == DensityReport(**fields, predicted_density=Fraction(0))


_PRIMES_BELOW_800 = _plain_sieve(800)


@st.composite
def _signed_sets(draw):
    """(q, B, bound): B holds +-1, multiples of q, and primes below 800
    times 1..12; the bound falls below or next to q, among the prime factors
    of B, or above max |B|.  q = 101 puts census bounds on both sides of q."""
    q = draw(st.sampled_from([3, 5, 7, 101]))
    element = st.one_of(
        st.just(1),
        st.integers(1, 30).map(lambda m: q * m),
        st.builds(lambda p, m: p * m, st.sampled_from(_PRIMES_BELOW_800), st.integers(1, 12)),
    )
    # one element at q = 101 keeps the prediction's q^k points few
    B = draw(st.lists(st.tuples(element, st.booleans()), min_size=1, max_size=4 if q < 100 else 1))
    B = [-b if negative else b for b, negative in B]
    top = max(map(abs, B))
    bound = draw(st.one_of(st.integers(2, q + 1), st.integers(q - 1, q + 1),
                           st.integers(2, max(top, 2)), st.integers(max(top, 2), top + 300)))
    return q, B, bound


def test_scans_match_reference_loops_on_random_sets():
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_signed_sets())
    def check(case):
        q, B, bound = case
        fields, first = _reference_scan(B, q, bound)
        assert find_counterexample_prime(B, q, bound) == first
        if bound >= 100:
            expected = DensityReport(**fields, predicted_density=_prime_row_density(B, q))
            assert census(B, q, bound) == expected

    check()


# --- the walk on several CPUs ---------------------------------------------


def _parallel(monkeypatch, prefix, workers):
    """Walk with a prefix of `prefix` indices and `workers` CPUs, so that
    small bounds are cut into many ranges."""
    monkeypatch.setattr(primescan, "_SERIAL_PREFIX", prefix)
    monkeypatch.setattr(primescan, "_workers", lambda: workers)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _check_against_reference(q, B, bound):
    fields, first = _reference_scan(B, q, bound)
    assert find_counterexample_prime(B, q, bound) == first
    expected = DensityReport(**fields, predicted_density=_prime_row_density(B, q))
    assert census(B, q, bound) == expected
    _assert_no_child()


@pytest.mark.parametrize("q, B, bound", list(_scan_cases()))
def test_parallel_walk_matches_reference_loops(monkeypatch, q, B, bound):
    monkeypatch.setattr(profiles, "factorize", _factorize_knowing_the_semiprime)
    _parallel(monkeypatch, 64, 3)
    _check_against_reference(q, B, min(bound, 30_000))


def test_parallel_walk_matches_reference_loops_on_random_sets(monkeypatch):
    rng = random.Random(25)
    small = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(24):
        q = rng.choice([3, 5, 7])
        B = []
        for _ in range(rng.randint(1, 4)):
            b = q if rng.random() < 0.2 else 1
            for p in rng.sample(small, rng.randint(1, 3)):
                b *= p ** rng.randint(1, q - 1)
            B.append(-b if rng.random() < 0.3 else b)
        _parallel(monkeypatch, rng.choice([1, 2, 5, 40]), rng.randint(2, 5))
        _check_against_reference(q, B, rng.randint(100, 12_000))


# q = 3: these elements over 2, 5, 7, 11 miss one line of F_3^4, so one prime
# in 81 fails.  The first failing one, 1579, is index 262 of the split slice
# flags[2::3], which stands for the primes 7 + 6j.
_SPARSE = [50, 55, 70, 110, 245, 490, 550, 605, 6050]
_SPARSE_FIRST = (1579 - 7) // 6


@pytest.mark.parametrize("bound, prefix, workers, where", [
    (20_000, 100, 2, "caller"),
    (3_000, 100, 4, "child"),
    (3_145, 100, 2, "boundary"),
    (2_341, 50, 3, "last"),
    (1_805, 100, 3, "empty"),
])
def test_first_failing_prime_in_every_kind_of_range(monkeypatch, bound, prefix, workers, where):
    _parallel(monkeypatch, prefix, workers)
    walked, forked = [], []
    walk, fork_walk = primescan._walk, primescan._fork_walk

    def recorded_walk(plan, q, flags, product, lo, hi, cap, drain):
        walked.append((lo, hi))
        return walk(plan, q, flags, product, lo, hi, cap, drain)

    def recorded_fork(walk, lo, hi, mask):
        forked.append((lo, hi))
        return fork_walk(walk, lo, hi, mask)

    monkeypatch.setattr(primescan, "_walk", recorded_walk)
    monkeypatch.setattr(primescan, "_fork_walk", recorded_fork)
    fields, first = _reference_scan(_SPARSE, 3, bound)
    assert first == 1579
    expected = DensityReport(**fields, predicted_density=Fraction(1, 81))
    assert census(_SPARSE, 3, bound) == expected
    # the census walks every range: the prefix, the caller's, the children's
    ranges = sorted(walked + forked)
    assert ranges[0] == (0, prefix) and len(ranges) == workers + 1
    assert [hi for _, hi in ranges[:-1]] == [lo for lo, _ in ranges[1:]]
    n = len(odd_prime_flags(bound)) // 3
    assert ranges[-1][1] == n
    home = next(r for r in ranges if r[0] <= _SPARSE_FIRST < r[1])
    failing = [(p - 7) // 6 for p in fields["failing_primes"]]
    if where == "caller":
        assert home in walked and home[0] == prefix
    elif where == "child":
        assert home in forked and home != ranges[-1]
    elif where == "boundary":
        assert home in forked and home[0] == _SPARSE_FIRST
    elif where == "last":
        assert home == ranges[-1] and all(home[0] <= j for j in failing)
    else:
        assert (prefix, prefix) in walked and home in forked
    assert find_counterexample_prime(_SPARSE, 3, bound) == 1579
    _assert_no_child()


def test_scan_that_stops_in_the_prefix_does_not_fork(monkeypatch):
    def fail():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fail)
    _parallel(monkeypatch, 300, 4)
    assert find_counterexample_prime(_SPARSE, 3, 20_000) == 1579


def test_walk_stays_serial_without_fork(monkeypatch):
    _parallel(monkeypatch, 50, 4)
    monkeypatch.delattr(os, "fork")
    _check_against_reference(3, _SPARSE, 20_000)


def test_walk_stays_serial_when_fork_fails(monkeypatch):
    calls = []

    def fork():
        calls.append(1)
        raise OSError("no more processes")

    _parallel(monkeypatch, 50, 4)
    monkeypatch.setattr(os, "fork", fork)
    _check_against_reference(3, _SPARSE, 20_000)
    assert len(calls) == 2  # one per walk, and no second try after a failure


def test_walk_ranges_no_child_took_when_a_later_fork_fails(monkeypatch):
    real, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) % 3 == 0:  # the last of each walk's three children
            raise OSError("no more processes")
        return real()

    _parallel(monkeypatch, 50, 4)
    monkeypatch.setattr(os, "fork", fork)
    _check_against_reference(3, _SPARSE, 20_000)
    _check_against_reference(3, [2], 20_000)


def test_walk_stays_serial_while_another_thread_runs(monkeypatch):
    def fail():
        raise AssertionError("forked with another thread running")

    _parallel(monkeypatch, 50, 4)
    monkeypatch.setattr(os, "fork", fail)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        _check_against_reference(3, _SPARSE, 20_000)
        _check_against_reference(3, [2, 3, 6], 20_000)
    finally:
        stop.set()
        thread.join(30)
    assert not thread.is_alive()


class _Interrupt(BaseException):
    """Stands for KeyboardInterrupt or a benchmark's op timeout."""


def test_an_exception_in_the_caller_mid_walk_leaves_no_child(monkeypatch):
    _parallel(monkeypatch, 100, 3)
    caller, fails = os.getpid(), primescan._fails

    def interrupted(plan, p, q):
        # past the prefix (primes up to 7 + 6 * 100), in the caller's range
        if os.getpid() == caller and p > 1000:
            raise _Interrupt
        return fails(plan, p, q)

    monkeypatch.setattr(primescan, "_fails", interrupted)
    for scan in (census, find_counterexample_prime):
        with pytest.raises(_Interrupt):
            scan(_SPARSE, 3, 20_000)
        _assert_no_child()


def test_an_interrupt_at_any_time_leaves_no_child_and_no_blocked_signal():
    # a SIGALRM handler that raises, as a benchmark's op timeout does, fired
    # at times spread over the sieve, the prefix, the forks and the replies
    def interrupt(signum, frame):
        raise _Interrupt

    expected = census([2, 3, 6, 12], 3, 100_000)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        for k in range(40):
            signal.setitimer(signal.ITIMER_REAL, 0.0005 * (k + 1))
            try:
                try:
                    assert census([2, 3, 6, 12], 3, 100_000) == expected
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _Interrupt:
                pass
            assert not signal.pthread_sigmask(signal.SIG_BLOCK, ())
            _assert_no_child()
    finally:
        signal.signal(signal.SIGALRM, previous)


def _broken_children(monkeypatch, reply):
    """Every forked child returns reply() from its walk instead of walking."""
    caller, walk = os.getpid(), primescan._walk

    def broken(*args):
        return walk(*args) if os.getpid() == caller else reply()

    monkeypatch.setattr(primescan, "_walk", broken)


@pytest.mark.parametrize("reply, message", [
    (lambda: os._exit(5), "exited with code 5"),
    (lambda: os.kill(os.getpid(), 9), "exited with code -9"),
    (lambda: 1 / 0, "exited with code 1"),
    (lambda: (1, ("x",)), "malformed reply"),
    (lambda: (0, (1579,)), "malformed reply"),  # fewer failing primes counted than listed
    (lambda: (30, tuple(range(30))), "malformed reply"),  # more than the census keeps
])
def test_a_broken_child_is_an_internal_error(monkeypatch, capsys, reply, message):
    _parallel(monkeypatch, 50, 3)
    _broken_children(monkeypatch, reply)
    with pytest.raises(RuntimeError, match=message):
        census(_SPARSE, 3, 20_000)
    _assert_no_child()
    argv = ["census", "--q", "3", "--set", ",".join(map(str, _SPARSE)), "--bound", "20000"]
    assert cli.main(argv) == 3
    assert "walk worker" in capsys.readouterr().err
    _assert_no_child()


def test_covering_and_scan_agree_on_random_sets():
    # The covering engine against Euler's criterion: a No has a failing prime
    # below 10^5, at which no element is a residue, and a Yes has none.  At
    # 10^5 the walk runs on every CPU with the real prefix.  Pencils, some a
    # line short, make Yes sets and close No sets.
    rng = random.Random(12)
    primes = [p for p in _PRIMES_BELOW_800 if p < 50]
    verdicts = Counter()
    for _ in range(30):
        q = rng.choice([3, 5])
        support = rng.sample([p for p in primes if p != q], rng.randint(1, 3))
        B = []
        if len(support) > 1 and rng.random() < 0.7:
            B = _pencil(q, *support[:2])
            if rng.random() < 0.5:
                B.pop(rng.randrange(len(B)))
        while len(B) < 2 * q and rng.random() < 0.7 or not B:
            b = prod(p ** rng.randint(0, q - 1) for p in support)
            if b > 1:
                B.append(b)
        B = [-b if rng.random() < 0.3 else b for b in B]
        verdict = decide(QInput(q, tuple(B))).verdict
        verdicts[verdict] += 1
        p = find_counterexample_prime(B, q, 10**5)
        if verdict is Verdict.NO:
            assert p is not None
            assert not any(r for _, r in has_qth_power_mod_p(B, p, q).per_element)
        else:
            assert p is None
        _assert_no_child()
    assert verdicts[Verdict.YES] >= 5 and verdicts[Verdict.NO] >= 5
