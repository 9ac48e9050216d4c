import random
from itertools import combinations, product

import pytest

from qresidue.covering import (
    GuardError,
    Hyperplane,
    covers,
    minimal_cover,
    synthesize_covering,
    uncovered_count,
    zero_mask,
)
from qresidue.fqlinalg import rref


def planes(normals, q):
    return [Hyperplane(n, q) for n in normals]


# Reference: plain enumeration of all q^k points, the route the bitmask
# engine replaces.


def reference_covers(hyperplanes, k, q):
    """(covered, first gap or None, assignment or None), point by point."""
    assignment = {}
    zero = (0,) * k
    for v in product(range(q), repeat=k):
        idx = next((i for i, h in enumerate(hyperplanes) if h.contains(v)), None)
        if idx is None:
            return False, v, None
        if v != zero:
            assignment[v] = idx
    return True, None, assignment


def reference_uncovered_count(hyperplanes, k, q):
    return sum(
        1
        for v in product(range(q), repeat=k)
        if not any(h.contains(v) for h in hyperplanes)
    )


F32_COVER = [(1, 0), (0, 1), (1, 1), (2, 1)]


def test_covers_paper_cubic_family():
    hs = planes(F32_COVER, 3)
    result = covers(hs, 2, 3)
    assert result.covered
    # full verification of the assignment: one entry per nonzero point
    _, _, assignment = reference_covers(hs, 2, 3)
    assert len(result.assignment) == 3**2 - 1
    for idx, (v, expected) in zip(result.assignment, assignment.items(), strict=True):
        assert idx == expected and hs[idx].contains(v)
    with pytest.raises(TypeError):
        result.assignment[0] = 1


def test_covers_missing_plane():
    result = covers(planes([(1, 0), (0, 1), (1, 1)], 3), 2, 3)
    assert not result.covered
    assert result.witness == (1, 1)


def test_covers_empty_family():
    result = covers([], 2, 3)
    assert not result.covered
    assert result.witness == (0, 0)


def test_covers_paper_quintic_family():
    normals = [(1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)]
    assert covers(planes(normals, 5), 3, 5).covered


def test_covers_witness_verified():
    rng = random.Random(17)
    for _ in range(100):
        q = rng.choice([3, 5])
        k = rng.randint(1, 3)
        normals = []
        for _ in range(rng.randint(1, 6)):
            n = tuple(rng.randrange(q) for _ in range(k))
            if any(n):
                normals.append(n)
        if not normals:
            continue
        hs = planes(normals, q)
        result = covers(hs, k, q)
        if result.covered:
            for v in product(range(q), repeat=k):
                assert any(h.contains(v) for h in hs)
        else:
            assert all(not h.contains(result.witness) for h in hs)


def test_covers_k1_never_covered():
    for q in (3, 5):
        result = covers(planes([(1,), (2,)], q), 1, q)
        assert not result.covered
        assert any(x for x in result.witness)


def test_covers_mismatch_rejected():
    with pytest.raises(ValueError):
        covers(planes([(1, 0)], 3) + planes([(1,)], 3), 2, 3)


def test_covers_guard():
    with pytest.raises(GuardError):
        covers(planes([(1,) + (0,) * 19], 3), 20, 3)


def test_minimal_cover_is_exactly_q_plus_one():
    hs = planes(F32_COVER, 3)
    assert sorted(minimal_cover(hs, 2, 3)) == [0, 1, 2, 3]
    # no proper sub-family covers
    for size in range(len(hs)):
        for subset in combinations(range(len(hs)), size):
            assert not covers([hs[i] for i in subset], 2, 3).covered


def test_minimal_cover_drops_redundant_plane():
    # (1,2) spans the same subspace as (2,1)
    hs = planes(F32_COVER + [(1, 2)], 3)
    cover = minimal_cover(hs, 2, 3)
    assert len(cover) == 4
    assert covers([hs[i] for i in cover], 2, 3).covered


def test_minimal_cover_non_covering():
    assert minimal_cover(planes([(1, 0), (0, 1)], 3), 2, 3) is None


def test_synthesize_covering():
    hs = synthesize_covering(2, 3)
    assert [h.normal for h in hs] == [(1, 0), (0, 1), (1, 1), (1, 2)]
    assert covers(hs, 2, 3).covered

    hs = synthesize_covering(3, 3)
    assert all(h.normal[2] == 0 for h in hs)
    assert covers(hs, 3, 3).covered

    assert len(synthesize_covering(2, 5)) == 6
    with pytest.raises(ValueError):
        synthesize_covering(1, 3)


def test_synthesized_covers_meet_the_covering_number():
    for q in (3, 5):
        for k in (2, 3):
            hs = synthesize_covering(k, q)
            assert len(hs) == q + 1
            assert covers(hs, k, q).covered
            assert len(minimal_cover(hs, k, q)) == q + 1


def test_uncovered_count():
    assert uncovered_count(planes(F32_COVER, 3), 2, 3) == 0
    assert uncovered_count(planes([(1, 0), (0, 1), (1, 1)], 3), 2, 3) == 2
    assert uncovered_count(planes([(1,)], 3), 1, 3) == 2


def test_zero_mask_matches_enumeration():
    rng = random.Random(3)
    for _ in range(300):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 4)
        n = tuple(rng.randrange(q) for _ in range(k))
        if not any(n):
            continue
        h = Hyperplane(n, q)
        expected = sum(
            1 << j for j, v in enumerate(product(range(q), repeat=k)) if h.contains(v)
        )
        assert zero_mask(n, q) == expected


def _random_family(q, k, rng):
    """Random normals, half the time mixed into a transformed pencil so that it covers."""
    normals = []
    if k >= 2 and rng.random() < 0.5:
        while True:
            m = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
            if rref(m, q)[1] == k:
                break
        normals = [
            tuple(sum(m[i][j] * n[j] for j in range(k)) % q for i in range(k))
            for n in (h.normal for h in synthesize_covering(k, q))
        ]
    for _ in range(rng.randint(0, q + 2)):
        n = tuple(rng.randrange(q) for _ in range(k))
        if any(n):
            normals.append(n)
    rng.shuffle(normals)
    return planes(normals, q)


@pytest.mark.parametrize("q,k_max", [(3, 7), (5, 4), (7, 3)])
def test_bitmask_engine_matches_enumeration(q, k_max):
    rng = random.Random(q * 1000 + k_max)
    seen = set()
    for trial in range(120):
        k = rng.randint(1, k_max)
        hs = [] if trial < k_max else _random_family(q, k, rng)
        covered, witness, assignment = reference_covers(hs, k, q)
        result = covers(hs, k, q)
        assert result.covered == covered
        assert result.witness == witness
        if covered:
            # entry by entry, nonzero points in lexicographic order
            assert list(result.assignment) == list(assignment.values())
        else:
            assert result.assignment is None
        assert uncovered_count(hs, k, q) == reference_uncovered_count(hs, k, q)
        seen.add(covered)
    assert seen == {True, False}


def test_empty_family_witness_is_origin():
    for q, k in [(3, 1), (3, 4), (5, 3), (7, 2)]:
        assert covers([], k, q).witness == (0,) * k
        assert uncovered_count([], k, q) == q**k


@pytest.mark.parametrize("q,k", [(3, 2), (3, 3), (5, 2)])
def test_at_most_q_hyperplanes_never_cover(q, k):
    # Every family up to scalar multiples, one normal per class (the one whose
    # first nonzero entry is 1); repeating a hyperplane adds nothing.
    projective = [
        v for v in product(range(q), repeat=k) if any(v) and next(filter(None, v)) == 1
    ]
    for size in range(q + 1):
        for subset in combinations(projective, size):
            hs = planes(subset, q)
            assert not covers(hs, k, q).covered
            assert uncovered_count(hs, k, q) >= q - 1


def test_uncovered_count_matches_crapo_rota():
    # Critical problem (Crapo & Rota 1970): with r the rank of the normals E,
    # U = q^(k-r) * sum over X subset of E of (-1)^|X| q^(r - rank X).
    rng = random.Random(41)
    for _ in range(60):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 4)
        normals = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(rng.randint(0, 6))]
        normals = [n for n in normals if any(n)]

        def rank(rows):
            return rref([list(n) for n in rows], q)[1] if rows else 0

        r = rank(normals)
        total = sum(
            (-1) ** size * q ** (r - rank(subset))
            for size in range(len(normals) + 1)
            for subset in combinations(normals, size)
        )
        assert uncovered_count(planes(normals, q), k, q) == q ** (k - r) * total
