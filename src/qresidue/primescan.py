"""Per-prime Euler-criterion checks, counterexample search, and density census.

The statement concerns only primes p != q that divide no element of B; every
other prime is excluded.  Among the rest, only split primes (p = 1 mod q)
carry information: otherwise the q-th power map is a bijection on F_p* and
every element is a residue.  The census compares empirical failure rates
against the equidistribution prediction U / (q^k (q-1)), where U counts
vectors of F_q^k missed by every hyperplane of the residue profile; for a
single support prime this is the classical 1/q.  Neither the scan nor the
prediction factors: both read the exponent vectors of B over the gcd coprime
pieces of |B| (profiles.piece_exponents).  U / q^k depends only on the row
space, which the pieces span as the support primes do.

Primes come from one sieve over the odd numbers up to the bound,
arith.odd_prime_flags: a bytearray in which flag i stands for 3 + 2i.  That
is 1 mod q exactly when i = -1 mod q, so the split primes are every q-th
flag from i = q - 1 on.  One walk over that strided slice yields the failing
split primes that divide no element, to scan and census alike; the census
counts all primes and the split ones with bytearray.count, less q and the
primes up to max |b| that divide an element.  No other prime takes a Python
step, and a set that cannot fail walks none.

At a split prime the Euler value b^((p-1)/q) mod p is a q-th root of unity,
and it is multiplicative in b.  So the scan runs Euler's criterion only on a
subset of B that is independent modulo q-th powers; every other element's
value is the product of its pivots' values.  That is at most r
exponentiations per split prime, where r is the rank of the exponent matrix,
and the verdict at p still comes from arithmetic mod p alone, not from the
covering engine.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import prod
from operator import itemgetter

from .arith import odd_prime_flags
from .covering import GuardError, uncovered_count
from .fqlinalg import rref
from .profiles import QInput, piece_exponents

# Bound on the bound of a scan or census, and of primes_up_to: the sieve holds
# bound / 2 flags at once.  On a 2-vCPU VM with Python 3.11, at 10^7 and
# q = 3, a census of the covering set {2, 3, 6, 12, 5, 7} (the Euler loop runs
# at every split prime) takes 1.0-1.6 s and a scan of it 1.1-1.6 s, peaking at
# 22 MB RSS; a census of {2} takes 0.7-1.1 s and peaks at 22 MB too, as it
# counts its 221,607 failing primes and keeps only the first 25.
SCAN_BOUND_LIMIT = 10**7
_FAILING_LIST_CAP = 25


@dataclass(frozen=True)
class PrimeCheckReport:
    p: int
    splits: bool
    per_element: tuple[tuple[int, bool], ...]


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
    """Yield all primes <= bound, in order.  Sieves bound / 2 bytes, so a
    bound over SCAN_BOUND_LIMIT is a GuardError before any sieving."""
    if bound < 2:
        return
    _check_bound(bound, 2)
    yield 2
    yield from compress(range(3, bound + 1, 2), odd_prime_flags(bound))


def _split_primes(flags, q, product):
    """The primes p = 1 mod q of odd_prime_flags' flags that do not divide
    product, in order.

    Flag i stands for 3 + 2i, which is 1 mod q exactly when i = -1 mod q, so
    the split primes sit at every q-th flag from i = q - 1 on.  Neither 2
    nor q is ever a split prime.
    """
    split = compress(range(2 * q + 1, 3 + 2 * len(flags), 2 * q), flags[q - 1 :: q])
    return filter(product.__mod__, split)


def _euler(b, p, q):
    """Euler's criterion value b^((p-1)/q) mod p at a split prime p that does
    not divide b: a q-th root of unity mod p, and 1 iff b is a q-th power."""
    return pow(b, (p - 1) // q, p)


def has_qth_power_mod_p(B, p, q) -> PrimeCheckReport:
    """Which elements of B have a q-th root mod p?  Requires p valid."""
    if p == q:
        raise ValueError("p = q is excluded")
    for b in B:
        if b % p == 0:
            raise ValueError(f"p = {p} divides element {b}; excluded prime")
    splits = p % q == 1
    per_element = tuple((b, not splits or _euler(b, p, q) == 1) for b in B)
    return PrimeCheckReport(p, splits, per_element)


def _check_bound(bound, minimum):
    """The scan budget: minimum <= bound <= SCAN_BOUND_LIMIT; the message of
    a bound below minimum names scan's and census's flag."""
    if bound < minimum:
        raise ValueError(f"--bound must be >= {minimum}")
    if bound > SCAN_BOUND_LIMIT:
        raise GuardError(f"bound {bound} exceeds scan limit {SCAN_BOUND_LIMIT}")


def _split(B, q):
    """Validated B as a tuple, and its vectors from profiles.piece_exponents."""
    qinput = QInput(q, tuple(B))
    return qinput.elements, piece_exponents(qinput)[1]


def _symbol_plan(B, vectors, q):
    """Euler's criterion on an independent subset of B, the rest by
    multiplicativity: a list of steps (pivot, ready), or None when some
    element is +-(a q-th power) and so a residue at every prime.

    Pivots that most other elements depend on come first.  ready holds one
    getter per element whose pivots are all among the steps so far: applied
    to the steps' Euler values, it picks each value c times, where c is the
    element's coefficient on that pivot, so the element's Euler value is the
    product of the picks.  An element on one pivot only is left out: its
    value is a power of that pivot's value by a unit mod q, so it is 1 only
    when the pivot's is.
    """
    if not all(any(v) for v in vectors):
        return None
    # column j of the rref writes element j on the pivot elements
    R, rank, pivots = rref(list(zip(*vectors)), q)
    dependents = [
        [(i, R[i][j]) for i in range(rank) if R[i][j]]
        for j in range(len(B)) if j not in pivots
    ]
    dependents = [d for d in dependents if len(d) > 1]
    uses = Counter(i for d in dependents for i, _ in d)
    order = sorted(range(rank), key=lambda i: -uses[i])
    step = {i: n for n, i in enumerate(order)}
    ready = [[] for _ in order]
    for d in dependents:
        picks = [step[i] for i, c in d for _ in range(c)]
        ready[max(picks)].append(itemgetter(*picks))
    return [(B[pivots[i]], ready[step[i]]) for i in order]


def _fails(plan, p, q):
    """True iff no element of B is a q-th power residue at the split prime p."""
    values = []
    for b, ready in plan:
        value = _euler(b, p, q)
        if value == 1:
            return False
        values.append(value)
        for picks in ready:
            if prod(picks(values)) % p == 1:
                return False
    return True


def _failing_primes(B, plan, q, flags):
    """The split primes of odd_prime_flags' flags, outside the excluded set,
    at which no element of B is a residue, in order; none if plan is None."""
    if plan is not None:
        yield from (p for p in _split_primes(flags, q, prod(B)) if _fails(plan, p, q))


def find_counterexample_prime(B, q, bound) -> int | None:
    """First prime <= bound (outside the excluded set) where no element is a residue."""
    _check_bound(bound, 2)
    B, vectors = _split(B, q)
    plan = _symbol_plan(B, vectors, q)
    if plan is None:  # no prime fails, so none is sieved
        return None
    return next(_failing_primes(B, plan, q, odd_prime_flags(bound)), None)


def _excluded(B, q, bound):
    """The primes <= bound other than q that divide an element: those up to
    min(bound, max |b|), as a prime that divides b != 0 is at most |b|."""
    product = prod(B)
    reach = min(bound, max(map(abs, B)))
    return [p for p in primes_up_to(reach) if p != q and product % p == 0]


def _density(vectors, q):
    """U / (q^k (q-1)) over the piece vectors, none of them zero."""
    k = len(vectors[0])
    U = uncovered_count(set(vectors), k, q)
    return Fraction(U, q**k * (q - 1))


def census(B, q, bound) -> DensityReport:
    """Count the primes <= bound, scan the split ones, and tabulate failure
    density vs the prediction."""
    _check_bound(bound, 100)
    B, vectors = _split(B, q)
    plan = _symbol_plan(B, vectors, q)
    # first, so that a GuardError comes before the scan, not after it
    predicted = Fraction(0) if plan is None else _density(vectors, q)
    divisors = _excluded(B, q, bound)
    excluded = len(divisors) + (q <= bound)
    flags = odd_prime_flags(bound)
    primes = 1 + flags.count(1)  # 2, since bound >= 100, and the odd primes
    split = flags[q - 1 :: q].count(1) - sum(p % q == 1 for p in divisors)
    failing_primes = _failing_primes(B, plan, q, flags)
    failing = tuple(islice(failing_primes, _FAILING_LIST_CAP))
    failing_count = len(failing) + sum(1 for _ in failing_primes)
    checked = primes - excluded
    empirical = Fraction(failing_count, checked) if checked else Fraction(0)
    return DensityReport(
        bound=bound,
        primes_checked=checked,
        excluded_primes=excluded,
        split_primes=split,
        failing_count=failing_count,
        failing_primes=failing,
        empirical_density=empirical,
        predicted_density=predicted,
    )
