import random
from itertools import product

from qresidue.fqlinalg import mat_vec, null_space_basis, rref

M_2346_12 = [[1, 0, 1, 2], [0, 1, 1, 1]]  # exponent matrix of {2, 3, 6, 12} mod 3


def brute_row_space_solution(rows, v, q):
    """Exhaustive search over all q^rows coefficient vectors."""
    for d in product(range(q), repeat=len(rows)):
        if mat_vec(zip(*rows), d, q) == list(v):
            return list(d)
    return None


def test_rref_examples():
    R, rank, pivots = rref([[1, 0], [0, 1]], 3)
    assert (R, rank, pivots) == ([[1, 0], [0, 1]], 2, [0, 1])
    R, rank, pivots = rref(M_2346_12, 3)
    assert (R, rank, pivots) == (M_2346_12, 2, [0, 1])
    R, rank, pivots = rref([[0, 0, 0], [0, 0, 0]], 5)
    assert (R, rank, pivots) == ([[0, 0, 0], [0, 0, 0]], 0, [])


def test_null_space_examples():
    identity3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert null_space_basis(identity3, 5) == []
    basis = null_space_basis(M_2346_12, 3)
    assert basis == [[2, 2, 1, 0], [1, 2, 0, 1]]
    assert len(null_space_basis([[0, 0]], 3)) == 2


def random_matrix(rng, q, max_dim=5):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def test_rref_idempotent_and_rank_stable():
    rng = random.Random(3)
    for _ in range(300):
        q = rng.choice([3, 5])
        M = random_matrix(rng, q)
        R, rank, pivots = rref(M, q)
        R2, rank2, pivots2 = rref(R, q)
        assert (R2, rank2, pivots2) == (R, rank, pivots)


def test_null_space_properties():
    rng = random.Random(9)
    for _ in range(200):
        q = rng.choice([3, 5])
        M = random_matrix(rng, q, max_dim=4)
        _, rank, _ = rref(M, q)
        basis = null_space_basis(M, q)
        cols = len(M[0])
        assert len(basis) == cols - rank
        for v in basis:
            assert all(x == 0 for x in mat_vec(M, v, q))
        # span has exactly q^(cols - rank) distinct vectors
        span = set()
        for coeffs in product(range(q), repeat=len(basis)):
            vec = tuple(
                sum(c * b[i] for c, b in zip(coeffs, basis)) % q for i in range(cols)
            )
            span.add(vec)
        assert len(span) == q ** len(basis)


def test_row_space_null_space_duality():
    # v in row space of M  <=>  v is orthogonal to every basis vector of
    # null(M): membership by enumeration, orthogonality from the basis
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for _ in range(100):
        q = 3
        M = random_matrix(rng, q, max_dim=4)
        v = [rng.randrange(q) for _ in M[0]]
        in_row_space = brute_row_space_solution(M, v, q) is not None
        orthogonal = all(mat_vec([v], g, q) == [0] for g in null_space_basis(M, q))
        assert in_row_space == orthogonal
        seen[in_row_space] += 1
    assert seen[True] > 0 and seen[False] > 0
