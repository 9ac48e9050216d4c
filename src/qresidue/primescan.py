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

The walk uses the CPUs the process may run on.  The caller walks the first
_SERIAL_PREFIX indices of the split slice alone, and a scan that finds a
failing prime there returns without forking.  The rest is cut into one
contiguous range per CPU: the caller walks the first, and forked children
the others, each sending back through a pipe its failing count and first
failing primes.  The replies are merged in range order, so every answer is
the serial walk's.  The walk stays serial when os.fork is missing or fails,
when another thread runs, and when the slice holds fewer than twice
_SERIAL_PREFIX indices.

At a split prime the Euler value b^((p-1)/q) mod p is a q-th root of unity,
and it is multiplicative in b.  So the scan runs Euler's criterion only on a
subset of B that is independent modulo q-th powers; every other element's
value is the product of its pivots' values.  That is at most r
exponentiations per split prime, where r is the rank of the exponent matrix,
and the verdict at p still comes from arithmetic mod p alone, not from the
covering engine.
"""

import os
import reprlib
import signal
import sys
from collections import Counter, namedtuple
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress, islice
from math import prod
from operator import itemgetter

from .arith import is_probable_prime, odd_prime_flags
from .covering import uncovered_count
from .fqlinalg import rref
from .profiles import QInput, check_count, check_q, piece_exponents

# Bound on the bound of a scan or census, and of primes_up_to: the sieve holds
# bound / 2 flags at once.  On a 2-vCPU VM with Python 3.11, at 10^7 and
# q = 3, a census of the covering set {2, 3, 6, 12, 5, 7} (the Euler loop runs
# at every split prime) takes 0.98-1.01 s and a scan of it 0.94-0.98 s on
# both CPUs (1.35-1.80 s on one); a census of {2} takes 0.63-0.79 s (0.97-1.18
# s on one), as it counts its 221,607 failing primes and keeps only the first
# 25.  Each peaks at 22 MB RSS, and its forked child at 19 MB, of which 2 MB
# is private: the rest are pages it shares with the parent.
SCAN_BOUND_LIMIT = 10**7
# Indices of the split slice that the caller walks before it forks, and the
# fewest that each forked range holds.  One fork + pipe + reap costs about
# 2.6 ms from a 17 MB process on a 2-vCPU VM with Python 3.11: the time the
# walk takes for about 2,600 indices at bound 10^6 and q = 3 (1.0 us each).
# Index 4,096 stands for the prime 24,583 at q = 3; on perfbench's primes
# workload no scan of a No set walks that far, so none of them forks.
_SERIAL_PREFIX = 4096
_FAILING_LIST_CAP = 25


class PrimeCheckReport(namedtuple("PrimeCheckReport", "p splits per_element")):
    """Whether p splits, and an (element, is_residue) pair per element."""

    __slots__ = ()


class DensityReport(namedtuple("DensityReport", "bound primes_checked excluded_primes "
                               "split_primes failing_count failing_primes "
                               "empirical_density predicted_density")):
    """A census: its prime counts, the first _FAILING_LIST_CAP failing
    primes, and both densities as Fractions."""

    __slots__ = ()


def primes_up_to(bound):
    """Yield all primes <= bound, in order.  Sieves bound / 2 bytes, so a
    bound over SCAN_BOUND_LIMIT is a GuardError before any sieving."""
    if bound < 2:
        return
    check_count("--bound", bound, SCAN_BOUND_LIMIT, 2)
    yield 2
    yield from compress(range(3, bound + 1, 2), odd_prime_flags(bound))


def _split_primes(flags, q, product, lo, hi):
    """The primes p = 1 mod q of odd_prime_flags' flags that do not divide
    product and sit at indices lo..hi-1 of the split slice flags[q - 1 :: q],
    in order.

    Flag i stands for 3 + 2i, which is 1 mod q exactly when i = -1 mod q, so
    the split primes sit at every q-th flag from i = q - 1 on.  Neither 2
    nor q is ever a split prime.
    """
    start = q - 1 + q * lo
    stop = min(len(flags), q - 1 + q * hi)
    split = compress(range(3 + 2 * start, 3 + 2 * stop, 2 * q), flags[start:stop:q])
    return filter(product.__mod__, split)


def _euler(b, p, q):
    """Euler's criterion value b^((p-1)/q) mod p at a split prime p that does
    not divide b: a q-th root of unity mod p, and 1 iff b is a q-th power."""
    return pow(b, (p - 1) // q, p)


def has_qth_power_mod_p(B, p, q) -> PrimeCheckReport:
    """Which elements of B have a q-th root mod p?  A ValueError unless q is
    an odd prime and p a prime other than q that divides no element."""
    check_q(q)
    if not is_probable_prime(p):
        raise ValueError(f"p must be a prime, got {reprlib.repr(p)}")
    if p == q:
        raise ValueError("p = q is excluded")
    for b in B:
        if b % p == 0:
            raise ValueError(f"p = {p} divides element {b}; excluded prime")
    splits = p % q == 1
    per_element = tuple((b, not splits or _euler(b, p, q) == 1) for b in B)
    return PrimeCheckReport(p, splits, per_element)


def _plan(B, q, bound):
    """Validated B as a tuple, its vectors from profiles.piece_exponents and
    their _symbol_plan.  bound is checked first and B next, so that every
    refusal comes before any sieve."""
    check_count("--bound", bound, SCAN_BOUND_LIMIT, 2)
    qinput = QInput(q, B)
    vectors = piece_exponents(qinput)[1]
    return qinput.elements, vectors, _symbol_plan(qinput.elements, vectors, q)


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


def _walk(plan, q, flags, product, lo, hi, cap, drain):
    """(count, head) of the failing split primes at indices lo..hi-1 of the
    split slice: head holds the first cap of them, and count is their number
    if drain, else len(head).  The one per-prime loop of scan and census."""
    failing = (p for p in _split_primes(flags, q, product, lo, hi) if _fails(plan, p, q))
    head = tuple(islice(failing, cap))
    return len(head) + (sum(1 for _ in failing) if drain else 0), head


def _workers():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork():
    """True if the walk may fork: os.fork exists and no other thread runs,
    since a child of a threaded process may inherit a lock held forever."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None or threading.active_count() == 1)


def _failing_walk(plan, q, flags, product, cap, drain):
    """_walk over the whole split slice of flags; stops at the first failing
    prime unless drain.

    The caller walks the first _SERIAL_PREFIX indices alone.  The rest goes
    to as many workers as the process has CPUs, each with a contiguous range
    of at least _SERIAL_PREFIX indices: the caller takes the first range,
    short by the prefix it has walked, and forked children the others.
    Replies are merged in range order, so the result is the serial walk's.
    Every child is killed and reaped before this returns or raises.
    """
    def walk(lo, hi):
        return _walk(plan, q, flags, product, lo, hi, cap, drain)

    n = len(flags) // q
    count, head = walk(0, _SERIAL_PREFIX)
    if n <= _SERIAL_PREFIX or (head and not drain):
        return count, head
    workers = min(_workers(), n // _SERIAL_PREFIX) if _can_fork() else 1
    ends = [n * w // workers for w in range(1, workers + 1)]
    children = {}  # range index -> (pid, read end of its pipe)
    try:
        # no handler may raise between a fork and the child's entry here
        with _signals_held() as mask:
            for i, (lo, hi) in enumerate(zip(ends, ends[1:]), 1):
                child = _fork_walk(walk, lo, hi, mask)
                if child is None:  # the rest is walked here
                    break
                children[i] = child
        for i, (lo, hi) in enumerate(zip([_SERIAL_PREFIX, *ends], ends)):
            c, h = _reply(children, i, cap) if i in children else walk(lo, hi)
            count, head = count + c, (head + h)[:cap]
            if head and not drain:
                break
    finally:
        with _signals_held():
            for i in list(children):
                _reap(children, i)
    return count, head


@contextmanager
def _signals_held():
    """Block every signal in the block, so that no Python handler (SIGINT's,
    a timeout's SIGALRM) raises inside it; yields the mask to restore."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _fork_walk(walk, lo, hi, mask):
    """(pid, read end of a pipe) of a forked child that writes walk(lo, hi),
    (count, head), to the pipe as decimal integers and exits; None if the
    process cannot fork.  Called with every signal blocked; the child ignores
    SIGINT before it restores mask, writes nothing to stdio and never
    returns from here: it ends with os._exit."""
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                count, head = walk(lo, hi)
                os.write(w, " ".join(map(str, (count, *head))).encode())
                code = 0
            finally:
                os._exit(code)
    except OSError:
        os.close(r)
        return None
    finally:
        os.close(w)
    return pid, r


def _reap(children, i):
    """Take child i out of children, close its pipe, kill it and wait for it:
    its exit code.  A child that has closed its end of the pipe is already
    exiting, and the kill leaves the code it exits with as it is."""
    with _signals_held():
        pid, fd = children.pop(i)
        os.close(fd)
        os.kill(pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _reply(children, i, cap):
    """The (count, head) that child i wrote to its pipe, once it has exited;
    a RuntimeError if it died or wrote anything else.  Reaps the child."""
    pid, fd = children[i]
    data = b"".join(iter(lambda: os.read(fd, 4096), b""))
    code = _reap(children, i)
    if code != 0:
        raise RuntimeError(f"walk worker {pid} exited with code {code}")
    try:
        count, *head = map(int, data.split())
    except ValueError:
        count, head = -1, ()
    if not len(head) <= min(count, cap):
        raise RuntimeError(f"malformed reply from walk worker {pid}: {data[:100]!r}")
    return count, tuple(head)


def find_counterexample_prime(B, q, bound) -> int | None:
    """First prime <= bound (outside the excluded set) where no element is a residue."""
    B, _, plan = _plan(B, q, bound)
    if plan is None:  # no prime fails, so none is sieved
        return None
    _, head = _failing_walk(plan, q, odd_prime_flags(bound), prod(B), 1, False)
    return head[0] if head else None


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
    B, vectors, plan = _plan(B, q, bound)
    # first, so that a GuardError comes before the scan, not after it
    predicted = Fraction(0) if plan is None else _density(vectors, q)
    divisors = _excluded(B, q, bound)
    excluded = len(divisors) + (q <= bound)
    flags = odd_prime_flags(bound)
    primes = 1 + flags.count(1)  # 2, since bound >= 2, and the odd primes
    split = flags[q - 1 :: q].count(1) - sum(p % q == 1 for p in divisors)
    failing_count, failing = (0, ()) if plan is None else \
        _failing_walk(plan, q, flags, prod(B), _FAILING_LIST_CAP, True)
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
