"""Canonicalization of (B, q) into a residue profile.

piece_exponents reads each element's exponent vector mod q over the gcd
coprime pieces of |B|; primescan reads the same vectors.  A zero vector marks
+-(a q-th power), which short-circuits into a trivial certificate.  Otherwise
factorize runs once per piece, and a prime p of the piece c gets the row
v_p(c) times c's row mod q.  The columns of this exponent matrix over F_q,
one per q-free part, are the hyperplane normals that covering reads, as
plain tuples.
"""

import reprlib
from collections import namedtuple
from itertools import filterfalse
from math import inf, prod

from .arith import (GuardError, coprime_base, factorize, integer_qth_root, is_probable_prime,
                    strip_power)


def check_q(q):
    """q if it is an odd prime, else a ValueError: the rule of QInput, the
    oracle sweeps and --q."""
    if q < 3 or q % 2 == 0 or not is_probable_prime(q):
        raise ValueError(f"q must be an odd prime, got {reprlib.repr(q)}")
    return q


def check_count(flag, count, limit=inf, minimum=1):
    """A ValueError if count < minimum and a GuardError if count > limit,
    each naming the flag: the rule of --twists, --trials, --k-max, --l-max,
    --bound and --k."""
    if count < minimum:
        raise ValueError(f"{flag} must be >= {minimum}")
    if count > limit:
        raise GuardError(f"{flag} {count} exceeds limit {limit}")


class QInput(namedtuple("QInput", "q elements")):
    """An odd prime q and a nonempty list of nonzero integers."""

    __slots__ = ()

    def __new__(cls, q, elements):
        elements = tuple(elements)
        check_q(q)
        if not elements:
            raise ValueError("element set must be nonempty")
        if any(b == 0 for b in elements):
            raise ValueError("elements must be nonzero")
        return super().__new__(cls, q, elements)

    # namedtuple's _make, which _replace calls, would skip the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))


class TrivialCertificate(namedtuple("TrivialCertificate", "index root")):
    """Position and exact root of an element that is a perfect q-th power."""

    __slots__ = ()


class ResidueProfile(namedtuple("ResidueProfile",
                                "q support_primes exponents provenance qfree_values")):
    """Support primes p_1..p_k and the k x l exponent matrix over F_q, as k
    row tuples of l entries.

    Columns are deduplicated by q-free value; provenance maps each surviving
    column to the first input element that produced it.  The columns are
    pairwise distinct: build_profile keys them by piece vector, and each kept
    piece is no q-th power, so one of its primes has an exponent e that is a
    unit mod q; that prime's row is e times the piece's row, so distinct
    piece vectors give distinct columns.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.support_primes)

    @property
    def l(self) -> int:
        return len(self.qfree_values)


def piece_exponents(qinput: QInput):
    """(pieces, vectors): the pairwise coprime pieces of |B|, found with gcds
    alone, and each element's exponent vector over them mod q.

    Each element is read only on the pieces that divide it, found with one
    C-level remainder per piece, and its exponent on each is taken with
    strip_power.  The remainders are taken of what is left of the element
    at the start of each run of 64 pieces, so a large element shrinks as
    its pieces are stripped; the pieces are coprime, so stripping one keeps
    every other's divisibility.  Pieces that are q-th powers, or on which
    every exponent is 0 mod q, are dropped, so a vector is zero iff its
    element is +-(a q-th power), and there are at most k pieces.  Raises
    RuntimeError when an element is not an exact product of powers of the
    pieces."""
    q = qinput.q
    pieces = coprime_base(abs(b) for b in qinput.elements)
    rows = []  # per element, its exponents mod q on the pieces that divide it
    for b in qinput.elements:
        n, row = abs(b), {}
        for start in range(0, len(pieces), 64):
            for c in filterfalse(n.__mod__, pieces[start : start + 64]):
                e, n = strip_power(n // c, c)  # c divides n: e + 1 times
                row[c] = (e + 1) % q
        if n != 1:
            raise RuntimeError(f"{b} is not a product of its coprime base")
        rows.append(row)
    used = {c for row in rows for c, e in row.items() if e}
    kept = [c for c in pieces if c in used and integer_qth_root(c, q) is None]
    return kept, [tuple([row.get(c, 0) for c in kept]) for row in rows]


def build_profile(qinput: QInput):
    """ResidueProfile for (B, q), or a TrivialCertificate if B contains r^q."""
    q = qinput.q
    pieces, vectors = piece_exponents(qinput)
    columns = {}  # vector -> first element with it; equal vectors, equal q-free parts
    for idx, (b, vector) in enumerate(zip(qinput.elements, vectors)):
        if not any(vector):
            r = integer_qth_root(abs(b), q)
            return TrivialCertificate(idx, r if b > 0 else -r)
        columns.setdefault(vector, b)
    rows = {p: tuple(e * a % q for a in row)  # v_p(c) times the row of c
            for c, row in zip(pieces, zip(*columns))
            for p, e in factorize(c).factors if e % q}
    support = tuple(sorted(rows))
    exponents = tuple(rows[p] for p in support)
    qfree = tuple(prod(p**e for p, e in zip(support, col)) for col in zip(*exponents))
    return ResidueProfile(q, support, exponents, dict(enumerate(columns.values())), qfree)


def hyperplanes_of(profile: ResidueProfile) -> list[tuple[int, ...]]:
    """The column normals, in column order; they are pairwise distinct."""
    return list(zip(*profile.exponents))
