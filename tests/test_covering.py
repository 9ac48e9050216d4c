import random
from itertools import combinations, product

import pytest

from qresidue import covering
from qresidue.covering import (
    MASK_WORK_LIMIT,
    GuardError,
    covers,
    synthesize_covering,
    uncovered_count,
    zero_mask,
)
from qresidue.fqlinalg import rref

# Reference: plain enumeration of all q^k points, the route the bitmask
# engine replaces.


def contains(normal, v, q):
    """Does the hyperplane normal . x = 0 of F_q^k hold the point v?"""
    return sum(a * b for a, b in zip(normal, v)) % q == 0


def reference_covers(normals, k, q):
    """(covered, first gap or None, assignment or None), point by point."""
    assignment = {}
    zero = (0,) * k
    for v in product(range(q), repeat=k):
        idx = next((i for i, n in enumerate(normals) if contains(n, v, q)), None)
        if idx is None:
            return False, v, None
        if v != zero:
            assignment[v] = idx
    return True, None, assignment


def reference_uncovered_count(normals, k, q):
    return sum(
        1
        for v in product(range(q), repeat=k)
        if not any(contains(n, v, q) for n in normals)
    )


F32_COVER = [(1, 0), (0, 1), (1, 1), (2, 1)]


def test_covers_paper_cubic_family():
    result = covers(F32_COVER, 2, 3)
    assert result.covered
    # full verification of the assignment: one entry per nonzero point
    _, _, assignment = reference_covers(F32_COVER, 2, 3)
    assert len(result.assignment) == 3**2 - 1
    for idx, (v, expected) in zip(result.assignment, assignment.items(), strict=True):
        assert idx == expected and contains(F32_COVER[idx], v, 3)
    with pytest.raises(TypeError):
        result.assignment[0] = 1


def test_covers_missing_plane():
    result = covers([(1, 0), (0, 1), (1, 1)], 2, 3)
    assert not result.covered
    assert result.witness == (1, 1)


def test_covers_empty_family():
    result = covers([], 2, 3)
    assert not result.covered
    assert result.witness == (0, 0)


def test_covers_paper_quintic_family():
    normals = [(1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)]
    assert covers(normals, 3, 5).covered


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
        result = covers(normals, k, q)
        if result.covered:
            for v in product(range(q), repeat=k):
                assert any(contains(n, v, q) for n in normals)
        else:
            assert all(not contains(n, result.witness, q) for n in normals)


def test_covers_k1_never_covered():
    for q in (3, 5):
        result = covers([(1,), (2,)], 1, q)
        assert not result.covered
        assert any(x for x in result.witness)


def test_k1_families_skip_the_mask_budget():
    # at k = 1 every hyperplane is the origin alone, so its mask costs nothing
    q = 1_000_003  # l q^(k+1) = 2 q^2 is far over MASK_WORK_LIMIT
    assert covers([(1,), (2,)], 1, q).witness == (1,)
    assert uncovered_count([(1,)], 1, q) == q - 1


def test_covers_mismatch_rejected():
    with pytest.raises(ValueError):
        covers([(1, 0), (1,)], 2, 3)


@pytest.mark.parametrize("check", [covers, uncovered_count])
def test_bad_normals_rejected(check):
    with pytest.raises(ValueError, match="zero mod q"):
        check([(1, 0), (3, 0)], 2, 3)
    with pytest.raises(ValueError, match="length"):
        check([(1, 0), (1, 0, 0)], 2, 3)
    # the normal is checked before the size of the space
    with pytest.raises(ValueError, match="zero mod q"):
        check([(0,) * 20], 20, 3)


def test_covers_guard():
    with pytest.raises(GuardError, match=r"3\^20 "):
        covers([(1,) + (0,) * 19], 20, 3)


def test_mask_work_guard(monkeypatch):
    # a family over the budget must be refused before any mask is built
    def unbuilt(normal, q):
        raise AssertionError("zero mask built")

    monkeypatch.setattr(covering, "zero_mask", unbuilt)
    for q in (503, 1009, 9973):
        pencil = synthesize_covering(2, q)
        for check in (covers, uncovered_count):
            with pytest.raises(GuardError, match="mask work"):
                check(pencil, 2, q)
    # 38 * 3^17 = 4.9e9 is within the budget, 39 * 3^17 = 5.04e9 is not
    normal = (1,) + (0,) * 15
    assert 38 * 3**17 <= MASK_WORK_LIMIT < 39 * 3**17
    with pytest.raises(AssertionError, match="zero mask built"):
        uncovered_count([normal] * 38, 16, 3)
    with pytest.raises(GuardError, match="mask work"):
        uncovered_count([normal] * 39, 16, 3)


def test_minimal_cover_is_exactly_q_plus_one():
    assert covers(F32_COVER, 2, 3).covered
    # no proper sub-family covers
    for size in range(len(F32_COVER)):
        for subset in combinations(F32_COVER, size):
            assert not covers(subset, 2, 3).covered
            assert uncovered_count(subset, 2, 3) > 0


def test_synthesize_covering():
    normals = synthesize_covering(2, 3)
    assert normals == [(1, 0), (0, 1), (1, 1), (1, 2)]
    assert covers(normals, 2, 3).covered

    normals = synthesize_covering(3, 3)
    assert all(n[2] == 0 for n in normals)
    assert covers(normals, 3, 3).covered

    assert len(synthesize_covering(2, 5)) == 6
    with pytest.raises(ValueError):
        synthesize_covering(1, 3)


def test_synthesized_covers_meet_the_covering_number():
    for q in (3, 5):
        for k in (2, 3):
            normals = synthesize_covering(k, q)
            assert len(normals) == q + 1
            assert covers(normals, k, q).covered
            # uncovered_count builds the masks; covers answers q normals without them
            for subset in combinations(normals, q):
                assert uncovered_count(subset, k, q) > 0


def test_uncovered_count():
    assert uncovered_count(F32_COVER, 2, 3) == 0
    assert uncovered_count([(1, 0), (0, 1), (1, 1)], 2, 3) == 2
    assert uncovered_count([(1,)], 1, 3) == 2


def test_zero_mask_matches_enumeration():
    rng = random.Random(3)
    for _ in range(300):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 4)
        n = tuple(rng.randrange(q) for _ in range(k))
        if not any(n):
            continue
        expected = sum(
            1 << j for j, v in enumerate(product(range(q), repeat=k)) if contains(n, v, q)
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
            for n in synthesize_covering(k, q)
        ]
    for _ in range(rng.randint(0, q + 2)):
        n = tuple(rng.randrange(q) for _ in range(k))
        if any(n):
            normals.append(n)
    rng.shuffle(normals)
    return normals


@pytest.mark.parametrize("q,k_max", [(3, 7), (5, 4), (7, 3)])
def test_bitmask_engine_matches_enumeration(q, k_max):
    rng = random.Random(q * 1000 + k_max)
    seen = set()
    for trial in range(120):
        k = rng.randint(1, k_max)
        normals = [] if trial < k_max else _random_family(q, k, rng)
        covered, witness, assignment = reference_covers(normals, k, q)
        result = covers(normals, k, q)
        assert result.covered == covered
        assert result.witness == witness
        if covered:
            # entry by entry, nonzero points in lexicographic order
            assert list(result.assignment) == list(assignment.values())
        else:
            assert result.assignment is None
        assert uncovered_count(normals, k, q) == reference_uncovered_count(normals, k, q)
        seen.add(covered)
    assert seen == {True, False}


@pytest.mark.parametrize("copies", [300, 70_000])
def test_assignment_past_one_and_two_byte_indices(copies):
    # copies of the pencil's first normal, then the pencil: the later copies
    # own no point, and the pencil's owners have indices over 255 or 65,535
    normals = [(1, 0)] * copies + synthesize_covering(2, 3)
    _, _, assignment = reference_covers(normals, 2, 3)
    assert max(assignment.values()) == copies + 3
    assert list(covers(normals, 2, 3).assignment) == list(assignment.values())


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
            assert not covers(subset, k, q).covered
            assert uncovered_count(subset, k, q) >= q - 1


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
        assert uncovered_count(normals, k, q) == q ** (k - r) * total
