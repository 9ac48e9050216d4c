"""Arbitrary-precision integer arithmetic: primality, factorization, exact roots.

factorize() takes the primes below _TRIAL_BOUND = 2^12 out with one gcd
against their product, then splits what is left with Miller-Rabin, exact
integer roots and Pollard-Brent rho: a cofactor a^d is split by its d-th root
before rho runs, so RHO_ITERATION_LIMIT (steps per factor found) bounds only
the smallest prime of a cofactor that is not a perfect power.  coprime_base()
splits a set of integers into pairwise coprime pieces with gcds alone, so
that a set whose elements share primes needs one factorization per piece, not
one per element, and SPLIT_WORK_LIMIT bounds its elements times its pieces;
strip_power() divides out the whole power of a divisor in O(log e) steps, not
e.  odd_prime_flags() is the package's one sieve of Eratosthenes, a bytearray
of flags over the odd numbers: it yields the trial primes here and every
prime that primescan counts or scans, and odd_primes() is its one plain read.
power_exceeds() is the package's one test of a power against a limit (points,
twists, orbits): it decides by bit length first, so it builds no power of
more than twice the limit's bits.

Primality is proven below psi_13 = 3.3e24: n < psi_t is tested with the
first t prime witnesses, where psi_t (OEIS A014233) is the least strong
pseudoprime to all of them.  A prime factor at or above psi_13 is accepted
after 64 seeded random Miller-Rabin rounds: it is a probable prime, not a
proven one.
"""

import math
import random
from bisect import bisect_right
from collections import namedtuple
from itertools import compress

# _MR_PSI[t - 1] is psi_t, the least odd composite that is a strong
# pseudoprime to each of the first t prime witnesses (OEIS A014233; Jaeschke,
# Math. Comp. 61, 1993; Sorenson & Webster, Math. Comp. 86, 2017, for psi_12
# and psi_13).  So the first t witnesses prove n < psi_t prime; twelve are not
# enough below psi_13, as psi_12 = 399165290221 * 798330580441 shows.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_WITNESS_PRODUCT = math.prod(_MR_WITNESSES)
_MR_PSI = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_RANDOM_ROUNDS = 64

# Steps of the rho iteration allowed per factor found: ten times sqrt(10^12),
# so a prime factor up to about 10^12 splits (Brent's variant needed at most
# 7.4 sqrt(p) steps on 3000 seeded semiprimes), and a cofactor whose smallest
# prime is far larger fails in a few seconds instead of running for hours.
# factorize splits a perfect power a^d with a root before rho runs, so the
# budget bounds only the smallest prime of a cofactor that is no perfect
# power: p^2 with p = 10^19 + 51 factors at once.
RHO_ITERATION_LIMIT = 10**7
# Elements times pieces that coprime_base may reach: it takes up to one gcd,
# and profiles.piece_exponents one C-level remainder, per element per piece,
# and a set of n distinct primes reaches n^2.  On a 2-vCPU VM with Python
# 3.11.7, 3,000 of them (9e6) split in 0.6-0.8 s, piece_exponents takes
# 1.5-2.1 s in all, and scan --bound 100 answers in 2.9-3.0 s; at 3,162 (the
# most the limit admits) piece_exponents takes 1.9 s.  4,000 primes are
# refused at the 3,163rd, 0.9-1.0 s into the whole scan process.  A step on
# a large element costs far more.  1,500 elements, each the product of a
# seeded random half of the first 1,500 odd primes (up to 2,731 digits;
# 2.25e6, 22.5% of the limit), take 15.6-16.0 s in piece_exponents and
# 127-149 s in the elimination of primescan._symbol_plan, so scan spends
# over two minutes before it walks; census refuses their 3^1500 points before
# that elimination.  Through the CLI, Linux's 128 KiB cap on one argv string
# bounds --set: on 250 such elements over 360 primes (129,815 bytes), the
# library's decide refuses in 0.2 s, census refuses in 0.2 s and scan answers
# in 1.1 s.
SPLIT_WORK_LIMIT = 10**7


class GuardError(ValueError):
    """A work or enumeration guard was exceeded."""


def odd_prime_flags(bound):
    """A sieve of Eratosthenes over the odd numbers 3..bound, for bound >= 0:
    a bytearray whose flag i is 1 iff 3 + 2i is prime."""
    flags = bytearray([1]) * ((bound - 1) // 2)
    for i in range((math.isqrt(bound) - 1) // 2):  # 3 + 2i <= isqrt(bound)
        if flags[i]:
            p = 3 + 2 * i
            start = (p * p - 3) // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return flags


def odd_primes(bound):
    """The odd primes up to bound, in order: the one plain read of
    odd_prime_flags."""
    return compress(range(3, bound + 1, 2), odd_prime_flags(bound))


def power_exceeds(base, exp, limit) -> bool:
    """base^exp > limit, for integers base, exp, limit >= 0, decided by bit
    length before any power is built.  A base >= 2 has base^exp >=
    2^((bitlen(base) - 1) exp), which exceeds the limit once that exponent
    reaches bitlen(limit); below it, base^exp < 2^(bitlen(base) exp) has
    under twice the limit's bits, and is built.  Bases 0 and 1 fall through
    to their powers, which take no space."""
    return (base.bit_length() - 1) * exp >= limit.bit_length() or base**exp > limit


# The trial-division bound: the 564 primes below it, 2 to 4093, and their
# product (5,811 bits); gcd(m, _TRIAL_PRODUCT) holds exactly the primes of m
# below _TRIAL_BOUND
_TRIAL_BOUND = 1 << 12
_TRIAL_PRIMES = (2, *odd_primes(_TRIAL_BOUND))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


class FactoredInteger(namedtuple("FactoredInteger", "sign factors")):
    """Sign plus sorted (prime, exponent) pairs: n = sign * prod p^e."""

    __slots__ = ()


def _mr_witness(n, a, d, s):
    # True if a witnesses compositeness of the odd n, where n - 1 = d 2^s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below psi_13 ~ 3.3e24, with the first t
    prime witnesses for n < psi_t; else 64 seeded Miller-Rabin rounds."""
    if n < 2:
        return False
    if math.gcd(n, _MR_WITNESS_PRODUCT) > 1:
        return n in _MR_WITNESSES
    t = bisect_right(_MR_PSI, n) + 1  # the least t with n < psi_t
    if t <= len(_MR_PSI):
        witnesses = _MR_WITNESSES[:t]
    else:
        rng = random.Random(n)
        witnesses = (rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the power of 2 in n - 1
    d = (n - 1) >> s
    return not any(_mr_witness(n, a, d, s) for a in witnesses)


def _brent_rho(n, rng):
    # Pollard rho with Brent cycle detection; n odd composite with no prime
    # factor below _TRIAL_BOUND.  Returns a nontrivial factor, or raises
    # GuardError once RHO_ITERATION_LIMIT steps of the iteration have found
    # none.
    budget = RHO_ITERATION_LIMIT

    def spend(steps):
        nonlocal budget
        budget -= steps
        if budget < 0:
            raise GuardError(
                f"no factor of the {n.bit_length()}-bit cofactor {n} within "
                f"{RHO_ITERATION_LIMIT} Pollard rho iterations"
            )

    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                spend(steps)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _perfect_power(v):
    # (a, d) with v = a^d for a prime d, or None.  v has no prime factor
    # below _TRIAL_BOUND, so a > _TRIAL_BOUND and only d with _TRIAL_BOUND^d
    # < v can hold.  Only the trial primes are tried as d: a root of degree
    # above _TRIAL_BOUND needs v above _TRIAL_BOUND^_TRIAL_BOUND, some 14,800
    # digits, and is left to rho.
    for d in _TRIAL_PRIMES:
        if _TRIAL_BOUND**d > v:
            return None
        a = integer_qth_root(v, d)
        if a is not None:
            return a, d
    return None


def factorize(n: int) -> FactoredInteger:
    """Exact factorization: the primes below _TRIAL_BOUND by one gcd with
    their product, then Miller-Rabin, exact roots and Brent-Pollard rho on
    the cofactor.

    g = gcd(|n|, _TRIAL_PRODUCT) is squarefree; trial division of g, not of
    n, finds its primes, and strip_power takes each one's whole power out of
    n.  A cofactor below _TRIAL_BOUND^2 is prime.  A composite cofactor that
    is a perfect power a^d is split by its d-th root, and a goes on at d
    times its multiplicity; only a composite that is no perfect power goes
    to rho.  Raises GuardError when rho needs more than RHO_ITERATION_LIMIT
    steps for one factor, which happens only above about 10^12 for the
    smallest prime of such a composite."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    g = math.gcd(m, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            counts[p], m = strip_power(m, p)
    if g > 1:  # no prime of g up to its square root
        counts[g], m = strip_power(m, g)
    if 1 < m < _TRIAL_BOUND**2:  # no prime factor below _TRIAL_BOUND, so m is prime
        counts[m] = 1
    elif m > 1:
        rng = None  # seeded by the cofactor on rho's first call
        stack = [(m, 1)]  # (value, multiplicity)
        while stack:
            v, e = stack.pop()
            if is_probable_prime(v):
                counts[v] = counts.get(v, 0) + e
                continue
            root = _perfect_power(v)
            if root is not None:
                stack.append((root[0], e * root[1]))
                continue
            rng = rng or random.Random(m)
            g = _brent_rho(v, rng)
            stack.append((g, e))
            stack.append((v // g, e))
    return FactoredInteger(sign, tuple(sorted(counts.items())))


def strip_power(n, d) -> tuple[int, int]:
    """(e, m) with n = d^e m and d not dividing m, for n >= 1 and d >= 2.

    Where d divides n, the same rule for d^2 gives n/d = d^(2e') m' with d^2
    not dividing m', and d divides m' at most once more.  The recursion is
    log2(e) deep, so it takes O(log e) divisions, not e."""
    if n % d:
        return 0, n
    e, m = strip_power(n // d, d * d)
    if m % d:
        return 2 * e + 1, m
    return 2 * e + 2, m // d


def coprime_base(ns) -> list[int]:
    """Pairwise coprime integers > 1, found with gcds alone, such that each
    of the positive integers ns is an exact product of powers of them; so
    their primes are exactly the primes of ns.

    Each x runs along the pieces found so far.  Where g = gcd(x, c) > 1, the
    piece c gives way to the coprime base of {g, c/g}, whose members are
    coprime to every other piece because c was, and x goes on as x/g^e from
    the same place, where g^e is the highest power of g dividing x (found by
    strip_power); x shrinks at every split, so the loop ends.  Every value
    seen so far stays a product of pieces: a split replaces c by pieces of
    which c = g * (c/g) is a product, and x is g^e, a product of the new
    pieces, times what it goes on as, and ends either as 1 or as a new piece.
    A GuardError once the elements so far times the pieces so far exceed
    SPLIT_WORK_LIMIT."""
    base = []
    for count, x in enumerate(ns, 1):
        i = 0
        while x > 1 and i < len(base):
            c = base[i]
            g = math.gcd(x, c)
            if g == 1:
                i += 1
                continue
            x = strip_power(x, g)[1]
            base[i : i + 1] = coprime_base((g, c // g)) if g < c else (c,)
        if x > 1:
            base.append(x)
        if count * len(base) > SPLIT_WORK_LIMIT:
            raise GuardError(f"coprime split of {count} elements into {len(base)} pieces "
                             f"exceeds split work limit {SPLIT_WORK_LIMIT}")
    return base


def integer_qth_root(n: int, q: int) -> int | None:
    """Exact q-th root of n >= 1, or None if n is not a perfect q-th power.

    Decided by bit length first: when q >= bitlen(n), n < 2^q <= r^q for
    every r >= 2, so only n = 1 has a root, and no power of q bits is built
    (Newton's first step would take x^(q-1) at x = 2).  Otherwise integer
    Newton from x = 2^ceil(bitlen(n) / q), above r = n^(1/q), ends at
    floor(r), so one test x^q == n settles it.  Each step gives
    y = floor(((q-1) x + n / x^(q-1)) / q), the inner floor being absorbed
    as (q-1) x is an integer.  By AM-GM that mean is at least r, so
    y >= floor(r); and while x > r, n / x^(q-1) < x makes y < x.  So the
    steps fall strictly to floor(r), where y >= x stops them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    if q >= n.bit_length():
        return 1 if n == 1 else None
    x = 1 << ((n.bit_length() + q - 1) // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    return x if x**q == n else None

