"""Arbitrary-precision integer arithmetic: primality, factorization, exact roots."""

import math
import random
from dataclasses import dataclass

TRIAL_DIVISION_BOUND = 10**6

# Miller-Rabin is deterministic below this bound with the first twelve prime
# witnesses (Sorenson & Webster).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 64


@dataclass(frozen=True)
class FactoredInteger:
    """Sign plus sorted (prime, exponent) pairs; reconstructs the integer exactly."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def _mr_witness(n, a):
    # returns True if a witnesses compositeness of n
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.3e24, else 64 Miller-Rabin rounds."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(n, a) for a in _MR_WITNESSES)
    rng = random.Random(n)
    return not any(
        _mr_witness(n, rng.randrange(2, n - 1)) for _ in range(_MR_RANDOM_ROUNDS)
    )


def _brent_rho(n, rng):
    # Pollard rho with Brent cycle detection; n odd composite, not a prime power
    # of a small prime.  Returns a nontrivial factor.
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> FactoredInteger:
    """Exact factorization: trial division to 10^6, then Brent-Pollard rho."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    d = 7
    while d <= TRIAL_DIVISION_BOUND and d * d <= m:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d += 2
    if m > 1:
        rng = random.Random(m)
        stack = [m]
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if is_probable_prime(v):
                counts[v] = counts.get(v, 0) + 1
                continue
            g = _brent_rho(v, rng)
            stack.append(g)
            stack.append(v // g)
    return FactoredInteger(sign, tuple(sorted(counts.items())))


def integer_qth_root(n: int, q: int) -> int | None:
    """Exact q-th root of n >= 1, or None if n is not a perfect q-th power."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    if n == 1:
        return 1
    # Newton iteration on integers, then exact verification
    x = 1 << ((n.bit_length() + q - 1) // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x**q > n:
        x -= 1
    return x if x**q == n else None


def is_perfect_qth_power(b: int, q: int) -> bool:
    """True iff b = r^q for some integer r; for odd q the sign is irrelevant."""
    if b == 0:
        raise ValueError("b must be nonzero")
    if q % 2 == 0 or not is_probable_prime(q):
        raise ValueError("q must be an odd prime")
    return integer_qth_root(abs(b), q) is not None
