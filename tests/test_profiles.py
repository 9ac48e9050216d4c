import random
from math import prod

import pytest

from test_arith import reference_factorize, shared_prime_sets
from test_primescan import _P1, _P2, _SEMIPRIME, _factorize_knowing_the_semiprime

from qresidue import profiles
from qresidue.arith import coprime_base, integer_qth_root, strip_power
from qresidue.primescan import primes_up_to
from qresidue.profiles import (
    QInput,
    ResidueProfile,
    TrivialCertificate,
    build_profile,
    hyperplanes_of,
)


def test_qinput_validation():
    # every way to build one checks: positional, keyword, and namedtuple's
    # _make and _replace, which bypass __new__ unless QInput overrides _make
    for fields, message in (({"q": 2, "elements": (2, 3)}, "q must be an odd prime"),
                            ({"q": 9, "elements": (2, 3)}, "q must be an odd prime"),
                            ({"q": 3, "elements": ()}, "element set must be nonempty"),
                            ({"q": 3, "elements": (2, 0)}, "elements must be nonzero")):
        for build in (lambda: QInput(*fields.values()), lambda: QInput(**fields),
                      lambda: QInput._make(fields.values()),
                      lambda: QInput(5, (7,))._replace(**fields)):
            with pytest.raises(ValueError, match=message):
                build()
    assert QInput(3, [2, 3]).elements == QInput(5, (7,))._replace(q=3, elements=[2, 3]).elements \
        == (2, 3)


def test_build_profile_cube_family():
    profile = build_profile(QInput(3, (2, 3, 6, 12)))
    assert isinstance(profile, ResidueProfile)
    assert profile.support_primes == (2, 3)
    assert list(zip(*profile.exponents)) == [(1, 0), (0, 1), (1, 1), (2, 1)]
    assert profile.qfree_values == (2, 3, 6, 12)


def test_build_profile_trivial():
    cert = build_profile(QInput(3, (-8, 5)))
    assert isinstance(cert, TrivialCertificate)
    assert (cert.index, cert.root) == (0, -2)
    assert build_profile(QInput(5, (7, 32))) == TrivialCertificate(1, 2)
    assert build_profile(QInput(3, (1,))) == TrivialCertificate(0, 1)
    assert build_profile(QInput(3, (-1,))) == TrivialCertificate(0, -1)
    assert isinstance(build_profile(QInput(3, (12,))), ResidueProfile)


def test_build_profile_quintic_family():
    profile = build_profile(QInput(5, (2, 21, 42, 84, 168, 336)))
    assert profile.support_primes == (2, 3, 7)
    assert profile.exponents == (
        (1, 0, 1, 2, 3, 4),
        (0, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 1, 1),
    )


def test_build_profile_dedupes_equal_qfree_parts():
    # 2, -2 and 54 = 2 * 27 all have q-free part 2 for q = 3
    profile = build_profile(QInput(3, (2, -2, 54, 3)))
    values = profile.qfree_values
    assert len(values) == len(set(values))
    assert profile.provenance[0] == 2


def test_rad_q_reference_values():
    # rad_q(b): the q-free part of b, read off build_profile's columns
    assert build_profile(QInput(3, (24, -104, 54))).qfree_values == (3, 13, 2)
    assert build_profile(QInput(3, (8,))) == TrivialCertificate(0, 2)


def test_rad_q_properties():
    # b, b * m^q and -b have one q-free part, so they make a single column
    rng = random.Random(21)
    for _ in range(200):
        q = rng.choice([3, 5])
        b = rng.randrange(2, 10**6)
        m = rng.randrange(2, 100)
        profile = build_profile(QInput(q, (b, b * m**q, -b)))
        if isinstance(profile, TrivialCertificate):
            assert profile.index == 0  # b is itself a q-th power
            continue
        assert profile.l == 1 and profile.provenance == {0: b}
        assert all(1 <= e <= q - 1 for (e,) in profile.exponents)


def test_hyperplanes_of():
    profile = build_profile(QInput(3, (2, 3, 6, 12)))
    assert hyperplanes_of(profile) == [(1, 0), (0, 1), (1, 1), (2, 1)]
    profile = build_profile(QInput(3, (2, 3, 6)))
    assert hyperplanes_of(profile) == [(1, 0), (0, 1), (1, 1)]
    assert hyperplanes_of(build_profile(QInput(3, (2,)))) == [(1,)]
    # columns in column order
    profile = ResidueProfile(3, (2, 3), ((1, 0, 2), (1, 1, 0)), {}, (6, 3, 4))
    assert hyperplanes_of(profile) == [(1, 1), (0, 1), (2, 0)]


def test_profile_columns_are_distinct():
    # elements equal up to a q-th power share a piece vector, and so one
    # column; no two distinct piece vectors may meet in one column
    rng = random.Random(44)
    for _ in range(300):
        q = rng.choice([3, 5, 7])
        primes = rng.sample([2, 3, 5, 7, 11, 13, 4093], rng.randint(1, 4))
        elems = []
        for _ in range(rng.randint(1, 6)):
            b = 1
            for p in rng.sample(primes, rng.randint(1, len(primes))):
                b *= p ** rng.randint(1, 2 * q)
            elems.append(rng.choice([-1, 1]) * b)
        copies = rng.sample(elems, rng.randint(0, len(elems)))
        elems += [b * rng.choice(primes) ** q for b in copies]
        profile = build_profile(QInput(q, tuple(elems)))
        if isinstance(profile, TrivialCertificate):
            continue
        columns = hyperplanes_of(profile)
        assert columns == list(zip(*profile.exponents))
        assert len(set(columns)) == len(columns) == profile.l


def test_profile_invariants_random():
    rng = random.Random(33)
    for _ in range(200):
        q = rng.choice([3, 5])
        elems = tuple(
            rng.choice([-1, 1]) * rng.randrange(2, 5000) for _ in range(rng.randint(1, 5))
        )
        try:
            qinput = QInput(q, elems)
        except ValueError:
            continue
        profile = build_profile(qinput)
        if isinstance(profile, TrivialCertificate):
            assert profile.root ** q == qinput.elements[profile.index]
            continue
        for j, col in enumerate(zip(*profile.exponents)):
            assert any(col)  # no zero columns
            value = 1
            for p, e in zip(profile.support_primes, col):
                value *= p**e
            assert value == profile.qfree_values[j]
        for p in profile.support_primes:
            assert any(v % p == 0 for v in profile.qfree_values)


def _reference_factors(n):
    """reference_factorize, told the two primes of the 39-digit semiprime."""
    known = {}
    for p in (_P1, _P2):
        while n % p == 0:
            n //= p
            known[p] = known.get(p, 0) + 1
    return list(reference_factorize(n).factors) + list(known.items())


def reference_build_profile(qinput):
    """Reference route: each element factored on its own by reference_factorize."""
    q = qinput.q
    for idx, b in enumerate(qinput.elements):
        r = integer_qth_root(abs(b), q)
        if r is not None:
            return TrivialCertificate(idx, r if b > 0 else -r)
    columns, seen = [], set()
    for b in qinput.elements:
        fac = {p: e % q for p, e in _reference_factors(abs(b)) if e % q}
        value = 1
        for p, e in fac.items():
            value *= p**e
        if value not in seen:
            seen.add(value)
            columns.append((value, fac, b))
    support = sorted({p for _, fac, _ in columns for p in fac})
    return ResidueProfile(
        q,
        tuple(support),
        tuple(tuple(fac.get(p, 0) for _, fac, _ in columns) for p in support),
        {j: src for j, (_, _, src) in enumerate(columns)},
        tuple(value for value, _, _ in columns),
    )


_FIXED_SETS = {
    3: [
        (12**3 * 5, 10),  # the piece 27 is a cube
        (6, 35, -210, 11),  # the pieces 6 and 35 stay composite
        (1,), (-1, 2), (2, -1), (-1,),
        (_SEMIPRIME, 2, 2 * _SEMIPRIME, -4 * _SEMIPRIME, 5),
        (_SEMIPRIME, -3 * _SEMIPRIME**2, 7),
    ],
    5: [(6, 7, 6 * 2**5, 36, -7 * 3**10, 42)],  # repeated q-free classes
    7: [(2**7 * 3, 3**8, 5, -(3**15) * 5**7)],  # repeated classes, a 7th-power piece
}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_build_profile_matches_per_element_reference(monkeypatch, q):
    monkeypatch.setattr(profiles, "factorize", _factorize_knowing_the_semiprime)
    seeded = [elements for _, elements in shared_prime_sets(50 + q, 5)]
    for elements in seeded + _FIXED_SETS[q]:
        qinput = QInput(q, tuple(elements))
        assert build_profile(qinput) == reference_build_profile(qinput), elements


def test_piece_exponents_on_a_pencil_of_high_powers():
    # the q + 1 pencil elements 3, 5 and 3 * 5^t for t < q: each valuation is
    # found in logarithmically many divisions, not t
    q = 2003
    elements = (3, 5) + tuple(3 * 5**t for t in range(1, q))
    pieces, vectors = profiles.piece_exponents(QInput(q, elements))
    assert pieces == [3, 5]
    assert vectors == [(1, 0), (0, 1)] + [(1, t) for t in range(1, q)]


def dense_piece_exponents(qinput):
    """piece_exponents read densely: every element on every piece, then a
    scan of every vector for each piece to choose the kept ones."""
    pieces = coprime_base(abs(b) for b in qinput.elements)
    vectors = []
    for b in qinput.elements:
        n, vector = abs(b), []
        for c in pieces:
            e, n = strip_power(n, c)
            vector.append(e % qinput.q)
        assert n == 1
        vectors.append(vector)
    keep = [i for i, c in enumerate(pieces)
            if any(v[i] for v in vectors) and integer_qth_root(c, qinput.q) is None]
    return [pieces[i] for i in keep], [tuple(v[i] for i in keep) for v in vectors]


_PIECE_SETS = [
    (8, 3), (216, 1080),  # the pieces 8 and 216 = 6^3 are cubes
    (1,), (-1, 6, -35, 210), (12**3 * 5, 10, -1),
    (_P1, _P2, -_P1 * _P2**2, _P1**3, 2 * _P2**5),  # primes above 10^6
]
# 150 pieces, more than one run of 64: elements on pieces of several runs
_ODD_PRIMES = list(primes_up_to(1000))[1:151]
_PIECE_SETS.append((*_ODD_PRIMES, -prod(p**2 for p in _ODD_PRIMES[60:70]),
                    _ODD_PRIMES[0] * _ODD_PRIMES[149] ** 4, prod(_ODD_PRIMES[::7])))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_piece_exponents_matches_the_dense_reading(q):
    # seeded sets share primes above 10^6 across elements, hold signs and
    # equal elements, and one in ten holds +-1
    seeded = [elements for _, elements in shared_prime_sets(70 + q, 40)]
    for elements in seeded + _PIECE_SETS:
        qinput = QInput(q, tuple(elements))
        assert profiles.piece_exponents(qinput) == dense_piece_exponents(qinput), elements
