"""The covering criterion for q-th power residues, with brute-force cross-checks.

decide() settles whether B contains a q-th power modulo almost every prime by
testing whether the hyperplanes of its residue profile cover F_q^k.  The
Skalba route reads the exponent matrix M (k rows, l columns) instead: a twist
c in (F_q^*)^l passes iff the all-ones row is not in the row space of
M(c) = M diag(c), that is, iff it is not orthogonal to Null(M(c)).  Since

    Null(M diag(c)) = diag(c)^-1 Null(M),

c passes iff some basis vector g of Null(M) has sum_j g_j c_j^-1 != 0 mod q.
So one null space of M serves every twist: the oracle tests all of them
against it, and skalba_solve turns the passing g into a certificate.  Since
c -> c^-1 is a bijection of (F_q^*)^l, the oracle enumerates u = c^-1
directly and takes no inverse.  The covering and oracle routes must agree.
Constructive witnesses are available in both directions.
"""

import random
from collections import namedtuple
from enum import Enum
from itertools import compress, islice, product
from math import log, prod
from operator import mul

from . import fqlinalg
from .arith import integer_qth_root, odd_prime_flags
from .covering import CoveringResult, GuardError, _point, check_budget, covers
from .profiles import (QInput, ResidueProfile, TrivialCertificate, build_profile, check_count,
                       check_q, hyperplanes_of)

# Bound on the Skalba checks, i.e. twist vectors c tried.  On a 2-vCPU VM
# with Python 3.11.7, skalba_oracle on a covering profile at q = 3, k = 3,
# l = 23 (2^23 = 8.4e6 twists, all of them passing) takes 20 s and 15 MB.
ORACLE_ENUMERATION_LIMIT = 10**7
ORACLE_INSTANCE_LIMIT = 10**6  # matrices in one oracle sweep


class Verdict(Enum):
    TRIVIALLY_YES = "trivially_yes"
    YES = "yes"
    NO = "no"


class Decision(namedtuple("Decision", "verdict profile trivial covering",
                          defaults=(None, None))):
    """The verdict, with the ResidueProfile (None when trivially Yes) and
    either the TrivialCertificate or the CoveringResult."""

    __slots__ = ()

    @property
    def uncovered(self) -> tuple[int, ...] | None:
        return self.covering.witness if self.covering is not None else None


class SkalbaCertificate(namedtuple("SkalbaCertificate", "c f product root")):
    """Vectors c, f with sum(f) != 0 mod q and prod qfree_j^(c_j f_j) = root^q."""

    __slots__ = ()


def decide(qinput: QInput) -> Decision:
    profile = build_profile(qinput)
    if isinstance(profile, TrivialCertificate):
        return Decision(Verdict.TRIVIALLY_YES, None, trivial=profile)
    result = covers(hyperplanes_of(profile), profile.k, profile.q)
    verdict = Verdict.YES if result.covered else Verdict.NO
    return Decision(verdict, profile, covering=result)


def twisted_matrix(M, q, c) -> list[list[int]]:
    """M(c) = M diag(c): entry (i, j) is M[i][j] * c_j mod q."""
    return [[e * cj % q for e, cj in zip(row, c)] for row in M]


def _check_c(M, q, c):
    if len(c) != len(M[0]):
        raise ValueError("c must have one entry per column of M")
    if any(cj % q == 0 for cj in c):
        raise ValueError("entries of c must be nonzero mod q")


def skalba_condition_holds(M, q, c) -> bool:
    """True iff the all-ones row is not in the row space of M(c).

    That row space is the annihilator of Null(M(c)), so this row-reduces M(c)
    itself, one rref per twist, and asks whether some basis vector has a
    nonzero coordinate sum: the one-twist reference for the oracle.
    """
    _check_c(M, q, c)
    return any(sum(g) % q for g in fqlinalg.null_space_basis(twisted_matrix(M, q, c), q))


def _twist_test(M, q):
    """For an inverted twist u = c^-1: the first basis vector g of Null(M)
    with sum_j g_j u_j != 0 mod q, or None if the twist c fails."""
    basis = fqlinalg.null_space_basis(M, q)

    def passing(u):
        for g in basis:
            if sum(map(mul, g, u)) % q:
                return g
        return None

    return passing


def skalba_oracle(M, q) -> bool:
    """Brute force over every c in (F_q \\ {0})^l; independent of the covering route.

    One rref per matrix: each twist is a dot-product test against a basis of
    Null(M) (see _twist_test), stopping at the first twist that fails.  Each
    tuple is read as u = c^-1, which runs over (F_q^*)^l as c does.  An l at
    or above the limit's bit length is refused without computing (q-1)^l.
    """
    l, limit = len(M[0]), ORACLE_ENUMERATION_LIMIT
    if l >= limit.bit_length() or (q - 1) ** l > limit:
        raise GuardError(f"(q-1)^l = {q - 1}^{l} exceeds oracle limit {limit}")
    return all(map(_twist_test(M, q), product(range(1, q), repeat=l)))


def skalba_solve(profile: ResidueProfile, c) -> SkalbaCertificate | None:
    """Constructive certificate for one twist vector c, or None if it fails.

    f = c_m diag(c)^-1 g, for the passing basis vector g of Null(M) (see
    _twist_test) and m the index of its last nonzero entry, the free column
    at which g has its rref 1.  That is the first basis vector of Null(M(c))
    with nonzero coordinate sum that row-reducing M(c) itself would give.
    The l entries of c are inverted once, u = c^-1, for both the test and f.
    The integer identity is verified exactly: integer_qth_root returns a
    root only when its q-th power is the product.
    """
    q = profile.q
    _check_c(profile.exponents, q, c)
    c = tuple(cj % q for cj in c)
    u = [pow(cj, -1, q) for cj in c]
    g = _twist_test(profile.exponents, q)(u)
    if g is None:
        return None
    free = max(j for j, gj in enumerate(g) if gj)
    f = tuple(c[free] * gj * uj % q for gj, uj in zip(g, u))
    total = prod(b ** (cj * fj % q) for b, cj, fj in zip(profile.qfree_values, c, f))
    root = integer_qth_root(total, q)
    if root is None:
        raise RuntimeError(
            f"certificate product {total} is not an exact {q}-th power; "
            "this contradicts the covering criterion"
        )
    return SkalbaCertificate(c, f, total, root)


def counterexample_c(profile: ResidueProfile, d) -> tuple[int, ...]:
    """Failing twist c_j = (sum_i exponent[i][j] d_i)^-1 from an uncovered witness d."""
    q = profile.q
    sums = fqlinalg.mat_vec(zip(*profile.exponents), d, q)
    if 0 in sums:
        raise ValueError("d is annihilated by some column; not an uncovered witness")
    c = tuple(pow(s, -1, q) for s in sums)
    if fqlinalg.mat_vec(zip(*twisted_matrix(profile.exponents, q, c)), d, q) != [1] * len(c):
        raise RuntimeError(f"d^T M(c) != (1, ..., 1) for d = {tuple(d)}, c = {c}")
    return c


def exponent_twist(qinput: QInput, a) -> QInput:
    """Replace each b_j by b_j^(a_j) for nonzero exponents a_j; verdict-invariant."""
    if len(a) != len(qinput.elements):
        raise ValueError("a must have one entry per element")
    if any(not 1 <= aj <= qinput.q - 1 for aj in a):
        raise ValueError("twist exponents must lie in [1, q-1]")
    return QInput(qinput.q, tuple(b**aj for b, aj in zip(qinput.elements, a)))


def first_odd_primes(q, k):
    """The first k odd primes other than q: the support primes of
    `synthesize` fixtures.

    They lie among the first k + 1 odd primes, p_2 .. p_(k+2), and Rosser's
    bound p_n < n (ln n + ln ln n) for n >= 6 bounds the sieve."""
    n = max(k + 2, 6)
    bound = int(n * (log(n) + log(log(n)))) + 1
    odd_primes = compress(range(3, bound + 1, 2), odd_prime_flags(bound))
    return tuple(islice((p for p in odd_primes if p != q), k))


# --- covering-vs-oracle agreement sweeps -----------------------------------

def _check_sizes(q, k_max, l_max):
    """Both sweeps need an odd prime q and k_max, l_max >= 1; the message
    names oracle-check's flag."""
    check_q(q)
    check_count("--k-max", k_max)
    check_count("--l-max", l_max)


def _compare_routes(q, instances):
    """(instances checked, column tuples on which covering and oracle disagree).

    Each instance is a CoveringResult built directly: no sweep's instance
    needs the checks of `covers` (`check_family`).  A random column is
    `_point(randrange(1, q^k))`, nonzero and of length k, and
    `check_budget(l_max, k_max, q)` runs before the first draw; both of its
    charges only grow with l and k.  The exhaustive columns are the nonzero
    vectors of F_q^k, and its instance limit (q^k-1)^l <= 10^6 gives
    q^k <= 10^6+1 and, at k >= 2, l q^(k+1) <= 10^9: within both budgets.
    """
    checked = 0
    disagreements = []
    for cols in instances:
        covering = CoveringResult(cols, len(cols[0]), q).covered
        checked += 1
        if covering != skalba_oracle(list(zip(*cols)), q):
            disagreements.append(cols)
    return checked, disagreements


def oracle_check_exhaustive(q, k_max, l_max):
    """Compare both routes on every nonzero-column matrix with k<=k_max, l<=l_max.

    Returns (instances checked, list of disagreeing column tuples).  Raises
    GuardError if the instance count sum (q^k-1)^l or the Skalba check count
    sum (q^k-1)^l (q-1)^l over the sweep exceeds its limit.
    """
    _check_sizes(q, k_max, l_max)
    matrices = checks = 0
    for k in range(1, k_max + 1):
        for l in range(1, l_max + 1):  # both sums only grow: stop at the first excess
            n = (q**k - 1) ** l
            matrices += n
            checks += n * (q - 1) ** l
            if matrices > ORACLE_INSTANCE_LIMIT or checks > ORACLE_ENUMERATION_LIMIT:
                raise GuardError(
                    f"exhaustive sweep exceeds {ORACLE_INSTANCE_LIMIT} instances "
                    f"or {ORACLE_ENUMERATION_LIMIT} Skalba checks"
                )

    def instances():
        for k in range(1, k_max + 1):
            nonzero = [v for v in product(range(q), repeat=k) if any(v)]
            for l in range(1, l_max + 1):
                yield from product(nonzero, repeat=l)

    return _compare_routes(q, instances())


def oracle_check_random(q, k_max, l_max, trials, seed):
    """Compare both routes on random nonzero-column matrices.

    Raises ValueError if trials < 1, and GuardError if trials exceeds
    ORACLE_INSTANCE_LIMIT, if trials (q-1)^l_max, a bound on the Skalba
    checks, exceeds ORACLE_ENUMERATION_LIMIT (its exponent capped at the
    limit's bit length, which any base >= 2 to that power exceeds), or if
    the largest instance the sweep can draw, l_max normals of length k_max,
    is over the covering engine's budgets (covering.check_budget).  All of
    these are raised before any instance is drawn.
    """
    _check_sizes(q, k_max, l_max)
    check_count("--trials", trials, ORACLE_INSTANCE_LIMIT)
    limit = ORACLE_ENUMERATION_LIMIT
    if trials * (q - 1) ** min(l_max, limit.bit_length()) > limit:
        raise GuardError(f"{trials} trials x (q-1)^{l_max} exceeds {limit} Skalba checks")
    check_budget(l_max, k_max, q)
    rng = random.Random(seed)

    def instances():
        for _ in range(trials):
            k = rng.randint(1, k_max)
            l = rng.randint(1, l_max)
            yield tuple(_point(rng.randrange(1, q**k), k, q) for _ in range(l))

    return _compare_routes(q, instances())
