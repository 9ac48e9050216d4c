import random

import pytest

from qresidue.arith import (
    factorize,
    integer_qth_root,
    is_perfect_qth_power,
    is_probable_prime,
)


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
        assert f.value() == n
        assert all(is_probable_prime(p) for p, _ in f.factors)
        assert all(e >= 1 for _, e in f.factors)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)


def test_integer_qth_root_examples():
    assert integer_qth_root(216, 3) == 6
    assert integer_qth_root(1, 5) == 1
    assert integer_qth_root(10, 3) is None


def test_integer_qth_root_random():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randrange(1, 10**6)
        q = rng.choice([3, 5, 7])
        assert integer_qth_root(r**q, q) == r
        if integer_qth_root(r**q + 1, q) is not None:
            assert integer_qth_root(r**q + 1, q) ** q == r**q + 1


def test_is_perfect_qth_power():
    assert is_perfect_qth_power(-8, 3)
    assert is_perfect_qth_power(32, 5)
    assert not is_perfect_qth_power(12, 3)
    assert is_perfect_qth_power(1, 3) and is_perfect_qth_power(-1, 3)
