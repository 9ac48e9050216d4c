import random
import tracemalloc
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qresidue import arith
from qresidue.arith import (
    _MR_PSI,
    _MR_WITNESSES,
    _TRIAL_PRIMES,
    FactoredInteger,
    GuardError,
    _brent_rho,
    _mr_witness,
    coprime_base,
    factorize,
    integer_qth_root,
    is_probable_prime,
    odd_prime_flags,
    strip_power,
)


def reference_factorize(n):
    """Reference route, one element at a time: trial division by 2, 3, 5 and
    every odd d <= 10^6, then Miller-Rabin and rho on what is left."""
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts = {}
    for p in (2, 3, 5):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    d = 7
    while d <= 10**6 and d * d <= m:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d += 2
    if m > 1:
        rng = random.Random(m)
        stack = [m]
        while stack:
            v = stack.pop()
            if is_probable_prime(v):
                counts[v] = counts.get(v, 0) + 1
                continue
            g = _brent_rho(v, rng)
            stack.append(g)
            stack.append(v // g)
    return FactoredInteger(sign, tuple(sorted(counts.items())))


def random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_probable_prime(n):
            return n


def shared_prime_sets(seed, count):
    """Seeded (primes, elements) pairs: elements are signed products of a few
    primes in (10^6, 10^9) shared across the set, primes in (2^12, 10^5) and
    small primes, each to a power in {1, 2, 3, 4}; every set holds two equal
    elements, and one in ten also holds +1 or -1."""
    rng = random.Random(seed)
    for _ in range(count):
        primes = [random_prime(rng, 10**6, 10**9) for _ in range(rng.randint(1, 3))]
        primes += [random_prime(rng, 1 << 12, 10**5) for _ in range(rng.randint(0, 2))]
        primes += rng.sample([2, 3, 5, 7, 4093], rng.randint(0, 2))
        elements = []
        for _ in range(rng.randint(2, 5)):
            used = rng.sample(primes, rng.randint(1, min(3, len(primes))))
            b = prod(p ** rng.randint(1, 4) for p in used)
            elements.append(rng.choice([-1, 1]) * b)
        elements.append(rng.choice(elements))  # an equal element
        if rng.random() < 0.1:
            elements.append(rng.choice([-1, 1]))
        rng.shuffle(elements)
        yield sorted(set(primes)), elements


def test_is_probable_prime_examples():
    assert is_probable_prime(2)
    assert not is_probable_prime(1)
    assert not is_probable_prime(104)  # 2^3 * 13


def test_is_probable_prime_small_range():
    def naive(n):
        return n > 1 and all(n % d for d in range(2, n))

    for n in range(200):
        assert is_probable_prime(n) == naive(n)


def test_is_probable_prime_large():
    assert is_probable_prime(2**89 - 1)  # Mersenne prime
    assert not is_probable_prime(2**89 + 1)


def test_is_probable_prime_reports_every_psi_composite():
    # psi_t passes the first t witnesses, so it needs witness t + 1
    # (psi_12 passed all twelve that were once used below 3.3e24)
    for t, psi in enumerate(_MR_PSI, 1):
        s = ((psi - 1) & (1 - psi)).bit_length() - 1
        d = (psi - 1) >> s
        assert psi - 1 == d * 2**s and d % 2 == 1
        assert not any(_mr_witness(psi, a, d, s) for a in _MR_WITNESSES[:t]), t
        assert not is_probable_prime(psi), t
    assert not is_probable_prime(318665857834031151167461)


def test_factorize_splits_every_psi():
    factors = {psi: factorize(psi).factors for psi in set(_MR_PSI)}
    for psi, f in factors.items():
        assert prod(p**e for p, e in f) == psi
        assert len(f) > 1 and all(is_probable_prime(p) for p, _ in f)
    assert factors[318665857834031151167461] == ((399165290221, 1), (798330580441, 1))


def test_is_probable_prime_matches_the_sieve():
    # the sieve is no Miller-Rabin; the range crosses psi_1 and psi_2, where
    # the number of witnesses changes
    n = 2 * 10**6
    assert _MR_PSI[1] < n
    assert bytearray(map(is_probable_prime, range(3, n, 2))) == odd_prime_flags(n - 1)
    assert [m for m in range(3) if is_probable_prime(m)] == [2]
    assert not any(map(is_probable_prime, range(4, n, 2)))


def test_factorize_examples():
    f = factorize(24)
    assert (f.sign, f.factors) == (1, ((2, 3), (3, 1)))
    f = factorize(-104)
    assert (f.sign, f.factors) == (-1, ((2, 3), (13, 1)))
    f = factorize(7)
    assert (f.sign, f.factors) == (1, ((7, 1),))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_semiprime_beyond_trial_division():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_random_roundtrip():
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        assert f.sign * prod(p**e for p, e in f.factors) == n
        assert all(is_probable_prime(p) for p, _ in f.factors)
        assert all(e >= 1 for _, e in f.factors)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)


def test_factorize_matches_trial_division_reference():
    rng = random.Random(41)
    ns = [1, -1, 2, -2, 4093 * 4099, -(4099**3), 2**40 * 3**5, 4093**3, 4093**2 * 4099**2]
    for _ in range(20):
        p = random_prime(rng, 1 << 12, 10**6)
        ns += [p**2, -(p**3), p**2 * random_prime(rng, 3, 1 << 12)]
    for _ in range(4):
        ns.append(random_prime(rng, 10**6, 10**9) ** rng.randint(2, 3))
    for _, elements in shared_prime_sets(43, 2):
        ns += elements
    for n in ns:
        assert factorize(n) == reference_factorize(n), n


def test_factorize_small_primes_by_gcd_match_the_reference():
    # the gcd with the product of the trial primes, at its edges
    rng = random.Random(61)
    trial = prod(_TRIAL_PRIMES)
    big = random_prime(rng, 10**6, 10**9)
    below = next(p for p in range(4099**2 - 2, 0, -2) if is_probable_prime(p))
    ns = [trial, trial**2, -trial, 2 * big, 3 * big, 4093 * big, 4093 * 4099, below, 4099**2]
    for n in ns:
        assert factorize(n) == reference_factorize(n), n
    assert factorize(trial).factors == tuple((p, 1) for p in _TRIAL_PRIMES)
    assert factorize(below).factors == ((below, 1),)


def test_factorize_around_the_square_of_the_trial_bound():
    # no prime lies in [4096, 4099), so in [4096^2, 4099^2) the values with
    # no trial prime are the primes: each is factored as prime, alone and as
    # the cofactor left by trial division
    trial = prod(_TRIAL_PRIMES)
    window = [n for n in range(4096**2 + 1, 4099**2, 2) if gcd(n, trial) == 1]
    assert len(window) == 1505
    for p in window:
        assert factorize(p).factors == ((p, 1),), p
        assert factorize(-3 * p).factors == ((3, 1), (p, 1)), p
    # the first primes above the bound, and powers of them, as trial division has it
    above = [4099, 4111, 4127]
    assert all(is_probable_prime(a) for a in above) and 4093 == _TRIAL_PRIMES[-1]
    ns = [4099**2, 4099 * 4111] + [a**d for a in above for d in range(2, 8)]
    for n in ns:
        assert factorize(n) == reference_factorize(n), n


P = 10**19 + 51  # a prime far beyond the rho budget


def counting_rho(monkeypatch):
    """Wrap arith._brent_rho and return the list of cofactors it is called on."""
    calls = []

    def rho(n, rng):
        calls.append(n)
        return _brent_rho(n, rng)

    monkeypatch.setattr(arith, "_brent_rho", rho)
    return calls


def test_factorize_splits_perfect_powers_without_rho(monkeypatch):
    def no_rho(n, rng):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(arith, "_brent_rho", no_rho)
    rng = random.Random(59)
    primes = [random_prime(rng, 1 << 12, 10**9) for _ in range(6)] + [P]
    for p in primes:
        for d in range(2, 7):  # composite d = 4, 6 take two roots
            assert factorize(p**d) == FactoredInteger(1, ((p, d),)), (p, d)
            assert factorize(-(p**d)) == FactoredInteger(-1, ((p, d),)), (p, d)
    # the smallest values past trial division: no prime below 2^12, > 4093^2
    assert factorize(4099**2).factors == ((4099, 2),)
    assert factorize(4099**3).factors == ((4099, 3),)


def test_rho_budget_is_read_on_each_call(monkeypatch):
    # parting two primes above 10^6 takes rho about sqrt(10^6) = 1000 steps
    p, r = 1_000_003, 1_000_033
    monkeypatch.setattr(arith, "RHO_ITERATION_LIMIT", 50)
    with pytest.raises(GuardError, match=f"^no factor of the 40-bit cofactor {p * r} within 50 "
                                         "Pollard rho iterations$"):
        factorize(p * r)
    # the root split runs before rho, so a square needs none of the budget
    assert factorize(p * p) == FactoredInteger(1, ((p, 2),))


def test_factorize_takes_a_composite_root_once(monkeypatch):
    calls = counting_rho(monkeypatch)
    p, r = 1_000_003, 999_999_937
    assert factorize((p * r) ** 2).factors == ((p, 2), (r, 2))
    assert calls == [p * r]


def test_factorize_splits_a_non_power_then_its_power(monkeypatch):
    calls = counting_rho(monkeypatch)
    p, r = 1_000_003, 4099
    assert factorize(p**2 * r).factors == ((r, 1), (p, 2))
    assert calls[0] == p**2 * r
    assert factorize(P**2 * r).factors == ((r, 1), (P, 2))


RHO_PRIMES = (4099, 4111, 65537, 1_000_003, 999_999_937)  # within rho's reach


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    st.lists(st.sampled_from(RHO_PRIMES), min_size=1, max_size=3),
    st.integers(0, 2),
    st.integers(2, 7),
)
def test_factorize_of_a_power_scales_exponents(primes, big, d):
    # P is the one prime beyond the rho budget, so factorize(a) always splits
    a = prod(primes) * P**big
    f = factorize(a)
    scaled = tuple((p, e * d) for p, e in f.factors)
    assert factorize(a**d) == FactoredInteger(1, scaled)
    assert factorize(-(a**d)) == FactoredInteger(-1, scaled)


def test_coprime_base():
    assert coprime_base([]) == [] and coprime_base([1, 1]) == []
    assert sorted(coprime_base([12, 18])) == [2, 3]
    assert coprime_base([6, 6]) == [6]
    assert sorted(coprime_base([6, 35, 210])) == [6, 35]
    assert sorted(coprime_base([12, 6])) == [2, 3]  # 12 is no power of 6
    for primes, elements in shared_prime_sets(47, 60):
        base = coprime_base(abs(b) for b in elements)
        assert all(c > 1 for c in base)
        assert all(gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
        support = {p for b in elements for p in primes if b % p == 0}
        assert {p for c in base for p in primes if c % p == 0} == support
        for c in base:  # no prime outside the input's
            for p in support:
                while c % p == 0:
                    c //= p
            assert c == 1
        for b in elements:  # each input is an exact product of powers of pieces
            n = abs(b)
            for c in base:
                while n % c == 0:
                    n //= c
            assert n == 1, (b, base)


def test_coprime_base_split_work_limit(monkeypatch):
    # n distinct primes make n elements over n pieces; equal ones one piece
    monkeypatch.setattr(arith, "SPLIT_WORK_LIMIT", 20)
    assert coprime_base([2, 3, 5, 7]) == [2, 3, 5, 7]
    assert coprime_base([6] * 20) == [6]
    with pytest.raises(GuardError, match="^coprime split of 5 elements into 5 pieces exceeds "
                                         "split work limit 20$"):
        coprime_base([2, 3, 5, 7, 11])
    with pytest.raises(GuardError, match="of 21 elements into 1 pieces"):
        coprime_base([6] * 21)


def test_strip_power_matches_the_naive_loop():
    assert strip_power(1, 2) == (0, 1)
    assert strip_power(2**10 * 3, 2) == (10, 3)
    assert strip_power(48, 12) == (1, 4)  # 144 does not divide 48
    rng = random.Random(53)
    for _ in range(100):
        c, m = rng.randrange(2, 100), rng.randrange(1, 10**4)
        n = c ** rng.randrange(3000) * m
        e, rest = 0, n
        while rest % c == 0:
            rest //= c
            e += 1
        assert strip_power(n, c) == (e, rest), (c, m)


def test_integer_qth_root_examples():
    assert integer_qth_root(216, 3) == 6
    assert integer_qth_root(1, 5) == 1
    assert integer_qth_root(10, 3) is None
    for n in (0, -8):
        with pytest.raises(ValueError, match="n must be >= 1"):
            integer_qth_root(n, 3)
    for q in (1, 0, -3):
        with pytest.raises(ValueError, match="q must be >= 2"):
            integer_qth_root(8, q)


def test_integer_qth_root_matches_brute_force():
    # every n <= 4096 against the largest r with r^q <= n, on both sides of
    # the bit-length test (q >= bitlen(n) and q < bitlen(n))
    for q in range(2, 17):
        powers = {r**q: r for r in range(1, 4097) if r**q <= 4096}
        for n in range(1, 4097):
            assert integer_qth_root(n, q) == powers.get(n), (n, q)


def test_integer_qth_root_of_a_short_n_builds_no_power_of_q_bits():
    # 2 < 2^q: no root, decided by bit length; Newton's first step would
    # build 2^(q-1), a 10^9-bit integer (seconds and hundreds of MB)
    q = 10**9 + 7
    tracemalloc.start()
    try:
        assert integer_qth_root(2, q) is None
        assert integer_qth_root(1, q) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_integer_qth_root_random():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randrange(1, 10**6)
        q = rng.choice([3, 5, 7])
        assert integer_qth_root(r**q, q) == r
        if integer_qth_root(r**q + 1, q) is not None:
            assert integer_qth_root(r**q + 1, q) ** q == r**q + 1


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_integer_qth_root_next_to_a_power(q):
    # Newton from above ends at the floor root, so r^q is found and its
    # neighbours are not, up to r = 2^300
    rng = random.Random(q)
    roots = [2, 3, 2**300, 2**300 - 1, *(2**e + 1 for e in range(1, 300, 7)),
             *(rng.randrange(2, 2**300) for _ in range(50))]
    for r in roots:
        assert integer_qth_root(r**q, q) == r
        assert integer_qth_root(r**q - 1, q) is None
        assert integer_qth_root(r**q + 1, q) is None


def test_is_perfect_qth_power():
    # For odd q, n is a q-th power exactly when |n| is, with the root's sign
    # that of n; build_profile's trivial certificate rests on this test.
    def is_perfect_qth_power(n, q):
        return integer_qth_root(abs(n), q) is not None

    assert is_perfect_qth_power(-8, 3)
    assert is_perfect_qth_power(32, 5)
    assert not is_perfect_qth_power(12, 3)
    assert is_perfect_qth_power(1, 3) and is_perfect_qth_power(-1, 3)
