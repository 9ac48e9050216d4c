"""Canonicalization of (B, q) into a residue profile.

Each input integer is reduced to its q-free part (exponents mod q); perfect
q-th powers short-circuit into a trivial certificate.  The surviving columns
form an exponent matrix over F_q whose columns are hyperplane normals.

The set is factored as a whole: arith.coprime_base splits the elements into
pairwise coprime pieces with gcds, factorize runs once per piece, and each
element's exponents are read by dividing the primes found out of it.  Primes
that several elements share are therefore found once.
"""

from dataclasses import dataclass
from math import prod

from .arith import coprime_base, factorize, integer_qth_root, is_probable_prime
from .covering import Hyperplane


@dataclass(frozen=True)
class QInput:
    """An odd prime q and a nonempty list of nonzero integers."""

    q: int
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.q < 3 or self.q % 2 == 0 or not is_probable_prime(self.q):
            raise ValueError("q must be an odd prime")
        if not self.elements:
            raise ValueError("element set must be nonempty")
        if any(b == 0 for b in self.elements):
            raise ValueError("elements must be nonzero")


@dataclass(frozen=True)
class TrivialCertificate:
    """Position and exact root of an element that is a perfect q-th power."""

    index: int
    root: int


@dataclass(frozen=True)
class ResidueProfile:
    """Support primes p_1..p_k and the k x l exponent matrix over F_q.

    Columns are deduplicated by q-free value; provenance maps each surviving
    column to the first input element that produced it.
    """

    q: int
    support_primes: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]  # k rows, l columns
    provenance: dict[int, int]
    qfree_values: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.support_primes)

    @property
    def l(self) -> int:
        return len(self.qfree_values)

    def column(self, j) -> tuple[int, ...]:
        return tuple(self.exponents[i][j] for i in range(self.k))


def _qfree_part(factors, q):
    """(q-free part, {prime: exponent mod q}) of (prime, exponent) pairs, with
    zero exponents dropped."""
    reduced = {p: e % q for p, e in factors if e % q}
    return prod(p**e for p, e in reduced.items()), reduced


def _valuations(n, primes):
    """(p, v_p(n)) for each p in primes that divides n."""
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e


def build_profile(qinput: QInput):
    """ResidueProfile for (B, q), or a TrivialCertificate if B contains r^q."""
    q = qinput.q
    for idx, b in enumerate(qinput.elements):
        r = integer_qth_root(abs(b), q)
        if r is not None:
            return TrivialCertificate(idx, r if b > 0 else -r)
    pieces = coprime_base(abs(b) for b in qinput.elements)
    primes = [p for c in pieces for p, _ in factorize(c).factors]
    columns = []  # (qfree value, {prime: exponent}, source element)
    seen = set()
    for b in qinput.elements:
        value, factors = _qfree_part(_valuations(abs(b), primes), q)
        if value in seen:
            continue
        seen.add(value)
        columns.append((value, factors, b))
    support = sorted({p for _, fac, _ in columns for p in fac})
    exponents = tuple(
        tuple(fac.get(p, 0) for _, fac, _ in columns) for p in support
    )
    provenance = {j: src for j, (_, _, src) in enumerate(columns)}
    qfree = tuple(value for value, _, _ in columns)
    return ResidueProfile(q, tuple(support), exponents, provenance, qfree)


def hyperplanes_of(profile: ResidueProfile) -> list[Hyperplane]:
    """One hyperplane per column normal, the first of any duplicates kept."""
    return [Hyperplane(n, profile.q) for n in dict.fromkeys(zip(*profile.exponents))]
