import random
import re
import tracemalloc
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest

from qresidue import covering
from qresidue.arith import integer_qth_root
from qresidue.covering import (
    MASK_WORK_LIMIT,
    CoveringResult,
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
    # an empty family has no normal whose length would refuse k < 0
    with pytest.raises(ValueError, match=r"k must be >= 0, got -1"):
        check([], -1, 3)


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


def enumerated_mask(normal, q):
    """zero_mask by plain enumeration: bit j for the j-th point of the hyperplane."""
    points = product(range(q), repeat=len(normal))
    return sum(1 << j for j, v in enumerate(points) if contains(normal, v, q))


def test_zero_mask_matches_enumeration():
    rng = random.Random(3)
    for _ in range(300):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 4)
        n = tuple(rng.randrange(q) for _ in range(k))
        if not any(n):
            continue
        assert zero_mask(n, q) == enumerated_mask(n, q)
    # every nonzero normal of a few small spaces: each pattern of zero and
    # nonzero coefficients, with every coefficient
    for q, k_max in [(3, 5), (5, 3), (7, 3)]:
        for k in range(1, k_max + 1):
            for n in product(range(q), repeat=k):
                if any(n):
                    assert zero_mask(n, q) == enumerated_mask(n, q)
    # sparse normals, as real sets give them, with entries below 0 or at least q
    rng = random.Random(29)
    for _ in range(200):
        q, k = rng.choice([(3, 6), (5, 5), (7, 4)])
        k = rng.randint(1, k)
        n = tuple(rng.randrange(-2 * q, 2 * q) if rng.random() < 0.5 else 0 for _ in range(k))
        if any(x % q for x in n):
            assert zero_mask(n, q) == enumerated_mask(n, q)


def test_zero_mask_invariances():
    rng = random.Random(31)
    for _ in range(200):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 4)
        n = tuple(rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(k))
        if not any(n):
            continue
        mask = zero_mask(n, q)
        # a scalar multiple has the same hyperplane
        for lam in range(1, q):
            assert zero_mask(tuple(lam * x for x in n), q) == mask
        # a free last coordinate turns each point into q points in a row
        spread = sum(((1 << q) - 1) << (j * q) for j in range(q**k) if mask >> j & 1)
        assert zero_mask(n + (0,), q) == spread
        # a free first coordinate lays q copies of the mask side by side
        assert zero_mask((0,) + n, q) == sum(mask << (x * q**k) for x in range(q))


@pytest.mark.parametrize("normal", [(0,), (3,), (-6,), (0, 0), (3, 0, -3), (0, 6, 0, 0)])
def test_zero_mask_rejects_a_normal_zero_mod_q(normal):
    with pytest.raises(ValueError, match=re.escape(f"normal {normal} is zero mod q = 3")):
        zero_mask(normal, 3)


def _transformed_pencil(q, k, rng):
    """The pencil covering of F_q^k under a random invertible matrix: it covers."""
    while True:
        m = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        if rref(m, q)[1] == k:
            break
    return [
        tuple(sum(m[i][j] * n[j] for j in range(k)) % q for i in range(k))
        for n in synthesize_covering(k, q)
    ]


def _random_family(q, k, rng):
    """Random normals, half the time mixed into a transformed pencil so that it covers."""
    normals = []
    if k >= 2 and rng.random() < 0.5:
        normals = _transformed_pencil(q, k, rng)
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


def projective_class(normal, q):
    """The multiple of normal whose first nonzero entry is 1 mod q."""
    inverse = pow(next(x for x in normal if x % q), -1, q)
    return tuple(x * inverse % q for x in normal)


def reference_walk(normals, k, q):
    """The distinct projective classes of the normals in input order, up to
    and including the one whose hyperplane completes a cover, if one does."""
    held, walked = set(), []
    for n in normals:
        if len(held) == q**k:
            break
        c = projective_class(n, q)
        if c not in walked:
            walked.append(c)
            held.update(v for v in product(range(q), repeat=k) if contains(c, v, q))
    return walked


@pytest.fixture
def built(monkeypatch):
    """The normals zero_mask is called with, in call order."""
    calls = []

    def counted(normal, q):
        calls.append(normal)
        return zero_mask(normal, q)

    monkeypatch.setattr(covering, "zero_mask", counted)
    return calls


def test_scalar_multiples_share_one_mask(built):
    def check(normals, k, q):
        # one mask per projective class up to the cover, in input order, in
        # each call: the multiples reuse it, and no class after it is built
        walked = reference_walk(normals, k, q)
        built.clear()
        covered, witness, assignment = reference_covers(normals, k, q)
        result = covers(normals, k, q)
        assert (result.covered, result.witness) == (covered, witness)
        if covered:
            assert list(result.assignment) == list(assignment.values())
        assert built == walked
        built.clear()
        assert uncovered_count(normals, k, q) == reference_uncovered_count(normals, k, q)
        assert built == walked

    # 2 and 4 at q = 3 have exponent vectors (1, 0) and (2, 0): one hyperplane
    check([(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)], 2, 3)
    check([(2, 0), (1, 0), (0, 1), (1, 1), (2, 1), (4, 2), (0, -1)], 2, 3)
    # five normals but three classes: no covering, decided before any mask
    normals = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1)]
    built.clear()
    assert not covers(normals, 2, 3).covered and built == []
    check(normals, 2, 3)
    rng = random.Random(37)
    for _ in range(150):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 3)
        normals = _random_family(q, k, rng)
        for _ in range(rng.randint(1, 4) if normals else 0):
            lam = rng.choice([x for x in range(-q, 2 * q) if x % q not in (0, 1)])
            multiple = tuple(lam * x for x in rng.choice(normals))
            normals.insert(rng.randint(0, len(normals)), multiple)
        check(normals, k, q)


@pytest.mark.parametrize("copies", [300, 70_000])
def test_assignment_past_one_and_two_byte_indices(copies):
    # copies of the pencil's first normal, then the pencil: the later copies
    # own no point, and the pencil's owners have indices over 255 or 65,535
    normals = [(1, 0)] * copies + synthesize_covering(2, 3)
    _, _, assignment = reference_covers(normals, 2, 3)
    assert max(assignment.values()) == copies + 3
    assert list(covers(normals, 2, 3).assignment) == list(assignment.values())


def pencil_owner(x1, x2, q):
    """The first normal of synthesize_covering(2, q) whose line holds (x1, x2):
    x1 = 0 is normal 0, x2 = 0 normal 1, and x1 + t x2 = 0 normal 1 + t."""
    if x1 % q == 0:
        return 0
    if x2 % q == 0:
        return 1
    return 1 + (-x1 * pow(x2, -1, q)) % q


def test_assignment_of_the_q_257_pencil_crosses_the_owner_group_boundary():
    # 258 normals, each owning a point: owners 256-258 are a second group of 255
    q = 257
    result = covers(synthesize_covering(2, q), 2, q)
    expected = [pencil_owner(x1, x2, q) for x1, x2 in product(range(q), repeat=2)][1:]
    assert max(expected) == 257
    assert list(result.assignment) == expected


def reference_owners(normals, k, q):
    """The index of the first normal that holds each point, None where none does."""
    return [next((i for i, n in enumerate(normals) if contains(n, v, q)), None)
            for v in product(range(q), repeat=k)]


def reference_label_columns(normals, k, q, labels, owners=None):
    """The byte columns of write_labels point by point: byte t of the label of
    the point's owner (by default the first normal that holds it), 0 where
    it has none."""
    if owners is None:
        owners = reference_owners(normals, k, q)
    return [bytes(0 if i is None else labels[i][t] for i in owners) for t in range(len(labels[0]))]


def written_columns(result, labels):
    """The byte columns write_labels writes into a zeroed buffer, one label a row."""
    width = len(labels[0])
    out = bytearray(width * result.q**result.k)
    result.write_labels(labels, out, 0, width)
    return [bytes(out[t::width]) for t in range(width)]


def check_written_over_ff(result, labels, owners=None):
    """write_labels into 0xFF bytes, two before each label and one after:
    each label byte t that some owner's label has nonzero ends as the
    reference column, and every other byte is still 0xFF.  Returns the
    number of label bytes left unwritten."""
    normals, k, q = result.normals, result.k, result.q
    if owners is None:
        owners = reference_owners(normals, k, q)
    width, n = len(labels[0]), q**k
    out = bytearray(b"\xff") * ((width + 3) * n)
    result.write_labels(labels, out, 2, width + 3)
    expected = reference_label_columns(normals, k, q, labels, owners)
    used = {i for i in owners if i is not None}
    skipped = 0
    for t in range(width + 3):
        column = bytes(out[t :: width + 3])
        if 2 <= t < width + 2 and any(labels[i][t - 2] for i in used):
            assert column == expected[t - 2]
        else:
            assert column == b"\xff" * n
            skipped += 2 <= t < width + 2
    return skipped


def label_kinds(l):
    """The library's 4-byte labels and the CLI's NUL-padded decimal ones."""
    return ([i.to_bytes(4, "little") for i in range(l)],
            [str(i).rjust(len(str(l - 1)), "\0").encode() for i in range(l)])


@pytest.mark.parametrize("normals, k, q", [
    # later scalar multiples, some right after their class's first normal
    ([(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 2), (2, 1)], 2, 3),
    ([(0, 1, 1), (1, 0, 0), (0, 2, 2), (1, 1, 0), (2, 2, 0), (0, 1, 0), (1, 2, 1), (2, 0, 0),
      (0, 0, 1), (1, 1, 1), (0, 1, 2), (2, 1, 2), (1, 0, 1)], 3, 3),
    ([(1, 0), (3, 0), (0, 1), (1, 1), (2, 2), (1, 2), (4, 3), (1, 3), (1, 4), (0, 4), (2, 3),
      (3, 1)], 2, 5),
])
def test_later_scalar_multiples_own_nothing(normals, k, q):
    result = covers(normals, k, q)
    covered, _, assignment = reference_covers(normals, k, q)
    assert covered and list(result.assignment) == list(assignment.values())
    first = {}
    for i, n in enumerate(normals):
        first.setdefault(projective_class(n, q), i)
    assert set(assignment.values()) <= set(first.values())
    for labels in label_kinds(len(normals)):
        assert written_columns(result, labels) == reference_label_columns(normals, k, q, labels)


def test_written_labels_of_an_uncovered_family_are_zero_off_the_union():
    # byte 0 where no normal holds the point, under both kinds of label; 11
    # or more normals make the decimal labels two digits wide
    rng = random.Random(83)
    uncovered = 0
    for q, k in [(3, 3), (3, 4), (5, 2), (5, 3), (7, 2)] * 4:
        normals = [n for n in (tuple(rng.randrange(q) for _ in range(k)) for _ in range(14))
                   if any(n)]
        result = CoveringResult(normals, k, q)
        if result.covered:
            continue
        uncovered += 1
        for labels in label_kinds(len(normals)):
            expected = reference_label_columns(normals, k, q, labels)
            assert written_columns(result, labels) == expected
            assert 0 in expected[-1]
            check_written_over_ff(result, labels)
    assert uncovered >= 10
    # the q = 257 pencil without its last line: 257 owners in two groups
    q = 257
    normals = synthesize_covering(2, q)[:-1]
    owners = [pencil_owner(x1, x2, q) for x1, x2 in product(range(q), repeat=2)]
    owners = [None if i == q else i for i in owners]
    result = CoveringResult(normals, 2, q)
    assert not result.covered
    for labels in label_kinds(len(normals)):
        expected = reference_label_columns(normals, 2, q, labels, owners)
        assert written_columns(result, labels) == expected
        check_written_over_ff(result, labels, owners)


def test_write_labels_leaves_label_bytes_no_owner_uses():
    # Only the first four normals own a point, so with 12 normals the tens
    # byte of every owner's decimal label is NUL; with 4-byte labels bytes
    # 1-3 are 0 for every owner below 256.
    pencil = synthesize_covering(2, 3)
    padded = CoveringResult(pencil + [(2, 0), (0, 2), (2, 2), (2, 1)] * 2, 2, 3)
    assert padded.covered and len(padded.normals) == 12
    assert [check_written_over_ff(padded, labels) for labels in label_kinds(12)] == [3, 1]
    # owners 0-257 of the q = 257 pencil: byte 1 is nonzero only in the
    # second group of 255, bytes 2 and 3 in none; the decimal labels are
    # three digits wide and each byte is used
    q = 257
    result = CoveringResult(synthesize_covering(2, q), 2, q)
    owners = [pencil_owner(x1, x2, q) for x1, x2 in product(range(q), repeat=2)]
    assert [check_written_over_ff(result, labels, owners) for labels in label_kinds(q + 1)] == [2, 0]


@pytest.mark.parametrize("normal", [(0, 0), (3, 6), ()])
def test_projective_class_rejects_a_normal_zero_mod_q(normal):
    with pytest.raises(ValueError, match=re.escape(f"normal {normal} is zero mod q = 3")):
        covering.projective_class(normal, 3)


def test_projective_class_scales_the_first_entry_nonzero_mod_q_to_one():
    assert covering.projective_class((0, 3, 2, 4), 3) == (0, 0, 1, 2)


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


def test_uncovered_count_matches_the_union_of_all_masks():
    # the walk's owned points, counted as it goes, are the popcount of the OR
    # of every normal's zero mask
    rng = random.Random(61)
    for _ in range(300):
        q = rng.choice([3, 5, 7])
        k = rng.randint(1, 4 if q == 3 else 3)
        drawn = (tuple(rng.randrange(-q, 2 * q) for _ in range(k))
                 for _ in range(rng.randint(0, 2 * q + 2)))
        normals = [n for n in drawn if any(x % q for x in n)]
        normals += [tuple(2 * x for x in n) for n in normals[:2]]  # multiples share a class
        expected = q**k - reduce(or_, [zero_mask(n, q) for n in normals], 0).bit_count()
        assert uncovered_count(normals, k, q) == expected, (normals, k, q)


@pytest.mark.parametrize("q, k", [(3, 4), (5, 3), (7, 3)])
def test_no_mask_is_built_after_a_cover(built, q, k):
    # a transformed pencil, then padding normals: the pencil covers, so the
    # padding, multiples or not, builds no mask and owns no point
    rng = random.Random(q * 100 + k)
    pencil = _transformed_pencil(q, k, rng)
    padding = [tuple(rng.randrange(1, q) for _ in range(k)) for _ in range(2 * q)]
    normals = pencil + padding + [tuple(2 * x for x in pencil[0])]
    classes = [projective_class(n, q) for n in pencil]
    _, _, assignment = reference_covers(normals, k, q)
    result = covers(normals, k, q)
    assert result.covered and built == classes
    assert list(result.assignment) == list(assignment.values())
    assert max(result.assignment) == q
    built.clear()
    assert uncovered_count(normals, k, q) == 0 and built == classes


def test_the_k_1_mask_and_the_qth_root_of_1():
    # the general paths: a nonzero k = 1 normal is the origin alone, and
    # Newton from x = 2 falls to the root 1 of n = 1
    for q in (3, 5, 7, 11, 257):
        for c in (1, q - 1, -1, q + 2, 2 * q - 1):
            assert zero_mask((c,), q) == 1, (c, q)
        assert integer_qth_root(1, q) == 1
    assert integer_qth_root(1, 2) == 1


def test_uncovered_count_holds_one_mask_at_a_time():
    # 34 dense normals at q = 3, k = 14: all 34 masks together take 20 MB;
    # the union and one mask being built take a few masks' worth
    rng = random.Random(5)
    q, k = 3, 14
    normals = [tuple(rng.randrange(1, q) for _ in range(k)) for _ in range(34)]
    mask_bytes = q**k // 8
    tracemalloc.start()
    try:
        assert uncovered_count(normals, k, q) == 28
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * mask_bytes, peak


def _row_basis_from_the_last(rows, q):
    """The rows kept walking from the last row up, each kept iff it is
    independent of the rows kept so far, in their order in `rows`."""
    kept = []
    for i in reversed(range(len(rows))):
        if rref([rows[j] for j in kept] + [rows[i]], q)[1] > len(kept):
            kept.append(i)
    return sorted(kept)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_a_row_basis_from_the_last_row_up_keeps_verdict_witness_and_count(q):
    # normals in F_q^r, a pencil covering with extra classes or random ones,
    # lifted into F_q^k (q^k <= 3^7) by a k x r matrix of rank r: the rows
    # of the exponent matrix then have rank at most r < k.  Restricted to
    # the kept rows R, the verdict stays, U_k = q^(k-r) U_r, and a No's
    # first witness is 0 off R and the restricted witness on R.
    rng = random.Random(131 + q)
    k_top = {3: 7, 5: 4, 7: 3}[q]
    seen = {True: 0, False: 0}
    for _ in range(100):
        k = rng.randint(2, k_top)
        r = rng.randint(1, k - 1)
        small = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(rng.randint(1, 2 * q))]
        if r > 1 and rng.random() < 0.5:
            small += synthesize_covering(r, q)
        small = [m for m in small if any(m)] or [(1,) * r]
        lift = [[rng.randrange(q) for _ in range(r)] for _ in range(k)]
        while rref(lift, q)[1] < r:
            lift = [[rng.randrange(q) for _ in range(r)] for _ in range(k)]
        normals = [tuple(sum(a * b for a, b in zip(row, m)) % q for row in lift) for m in small]
        rows = list(zip(*normals))
        R = _row_basis_from_the_last(rows, q)
        r = len(R)  # below the lift's r when the small normals span less
        assert r == rref(rows, q)[1] < k
        restricted = [tuple(n[i] for i in R) for n in normals]
        full, reduced = covers(normals, k, q), covers(restricted, r, q)
        assert full.covered == reduced.covered, normals
        assert uncovered_count(normals, k, q) == q ** (k - r) * uncovered_count(restricted, r, q)
        if not full.covered:
            witness = full.witness
            assert all(witness[i] == 0 for i in range(k) if i not in R), normals
            assert tuple(witness[i] for i in R) == reduced.witness, normals
        seen[full.covered] += 1
    assert seen[True] > 0 and seen[False] > 0
