"""Per-prime Euler-criterion checks, counterexample search, and density census.

The statement concerns only primes p != q that divide no element of B; every
other prime is excluded.  Among the rest, only split primes (p = 1 mod q)
carry information: otherwise the q-th power map is a bijection on F_p* and
every element is a residue.  The census compares empirical failure rates
against the equidistribution prediction U / (q^k (q-1)), where U counts
vectors of F_q^k missed by every hyperplane of the residue profile; for a
single support prime this is the classical 1/q.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt, prod

from .covering import GuardError, uncovered_count
from .profiles import QInput, TrivialCertificate, build_profile, hyperplanes_of

SEGMENT_SIZE = 10**6
SCAN_BOUND_LIMIT = 10**7
_FAILING_LIST_CAP = 25


@dataclass(frozen=True)
class PrimeCheckReport:
    p: int
    splits: bool
    per_element: tuple[tuple[int, bool], ...]
    outcome: bool


@dataclass(frozen=True)
class DensityReport:
    bound: int
    primes_checked: int
    excluded_primes: int
    split_primes: int
    failing_count: int
    failing_primes: tuple[int, ...]  # truncated
    empirical_density: Fraction
    predicted_density: Fraction


def primes_up_to(bound):
    """Yield all primes <= bound via a segmented sieve of Eratosthenes."""
    if bound < 2:
        return
    root = isqrt(bound)
    base_sieve = bytearray([1]) * (root + 1)
    base_sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(root) + 1):
        if base_sieve[i]:
            base_sieve[i * i :: i] = bytearray(len(base_sieve[i * i :: i]))
    base_primes = list(compress(range(root + 1), base_sieve))
    yield from base_primes
    low = root + 1
    while low <= bound:
        high = min(low + SEGMENT_SIZE - 1, bound)
        seg = bytearray([1]) * (high - low + 1)
        for p in base_primes:
            start = max(p * p, (low + p - 1) // p * p)
            seg[start - low :: p] = bytearray(len(seg[start - low :: p]))
        yield from compress(range(low, high + 1), seg)
        low = high + 1


def _is_qth_power(b, p, q) -> bool:
    """Euler's criterion for a split prime p that does not divide b."""
    return pow(b, (p - 1) // q, p) == 1


def has_qth_power_mod_p(B, p, q) -> PrimeCheckReport:
    """Does some element of B have a q-th root mod p?  Requires p valid."""
    if p == q:
        raise ValueError("p = q is excluded")
    for b in B:
        if b % p == 0:
            raise ValueError(f"p = {p} divides element {b}; excluded prime")
    splits = p % q == 1
    per_element = tuple((b, not splits or _is_qth_power(b, p, q)) for b in B)
    return PrimeCheckReport(p, splits, per_element, any(r for _, r in per_element))


def _check_bound(bound, minimum):
    """The scan budget: minimum <= bound <= SCAN_BOUND_LIMIT."""
    if bound < minimum:
        raise ValueError(f"bound must be >= {minimum}")
    if bound > SCAN_BOUND_LIMIT:
        raise GuardError(f"bound {bound} exceeds scan limit {SCAN_BOUND_LIMIT}")


def _scan(B, q, bound):
    """Yield (p, fails) for each prime p <= bound.

    fails is None for an excluded prime, True for a split prime at which no
    element of B is a q-th power residue, and False otherwise.
    """
    product = prod(B)
    for p in primes_up_to(bound):  # the module global, so it can be replaced
        if p == q or product % p == 0:
            yield p, None
        else:
            yield p, p % q == 1 and not any(_is_qth_power(b, p, q) for b in B)


def find_counterexample_prime(B, q, bound) -> int | None:
    """First prime <= bound (outside the excluded set) where no element is a residue."""
    _check_bound(bound, 2)
    return next((p for p, fails in _scan(B, q, bound) if fails), None)


def predicted_failure_density(B, q) -> Fraction:
    """Equidistribution prediction U / (q^k (q-1)); 0 for trivially-yes sets."""
    profile = build_profile(QInput(q, tuple(B)))
    if isinstance(profile, TrivialCertificate):
        return Fraction(0)
    U = uncovered_count(hyperplanes_of(profile), profile.k, profile.q)
    return Fraction(U, q**profile.k * (q - 1))


def census(B, q, bound) -> DensityReport:
    """Scan all primes <= bound and tabulate failure density vs the prediction."""
    _check_bound(bound, 100)
    # first, so that a GuardError comes before the scan, not after it
    predicted = predicted_failure_density(B, q)
    checked = excluded = split = 0
    failing = []
    for p, fails in _scan(B, q, bound):
        if fails is None:
            excluded += 1
            continue
        checked += 1
        split += p % q == 1
        if fails:
            failing.append(p)
    empirical = Fraction(len(failing), checked) if checked else Fraction(0)
    return DensityReport(
        bound=bound,
        primes_checked=checked,
        excluded_primes=excluded,
        split_primes=split,
        failing_count=len(failing),
        failing_primes=tuple(failing[:_FAILING_LIST_CAP]),
        empirical_density=empirical,
        predicted_density=predicted,
    )
