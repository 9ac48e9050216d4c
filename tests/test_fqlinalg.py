import random
from itertools import product

import pytest

from qresidue import fqlinalg
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


# --- the textbook kernels the fast ones must match bit for bit ---------------

def reference_rref(rows, q):
    """Gauss-Jordan that scales every pivot row and rebuilds every other row."""
    R = [[x % q for x in row] for row in rows]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = pow(R[r][c], -1, q)
        R[r] = [x * inv % q for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [(a - f * b) % q for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, r, pivots


def reference_null_space_basis(rows, q):
    R, rank, pivots = reference_rref(rows, q)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i][f]) % q
        basis.append(v)
    return basis


def parity_matrices(seed=29, count=400):
    """Seeded matrices of 1-6 rows and columns with entries in [-2q, 2q),
    and zero and duplicate rows mixed in."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice([3, 5, 7, 11, 13])
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randrange(-2 * q, 2 * q) for _ in range(ncols)] for _ in range(nrows)]
        for i in range(nrows):
            roll = rng.random()
            if roll < 0.15:
                rows[i] = [0] * ncols
            elif roll < 0.3 and i:
                rows[i] = list(rows[rng.randrange(i)])
        yield rows, q


def test_rref_and_null_space_match_reference():
    shapes = set()
    for rows, q in parity_matrices():
        assert rref(rows, q) == reference_rref(rows, q), (rows, q)
        assert null_space_basis(rows, q) == reference_null_space_basis(rows, q), (rows, q)
        shapes.add((len(rows), len(rows[0])))
    assert len(shapes) == 36  # every shape from 1 x 1 to 6 x 6


def test_rref_does_not_modify_its_input():
    # null_space_basis checks Mx = 0 against the rows it passed to rref
    rows = [[4, 2, 0], [1, 1, 1], [4, 2, 0]]
    snapshot = [list(row) for row in rows]
    rref(rows, 3)
    null_space_basis(rows, 3)
    assert rows == snapshot


def test_null_space_self_check_raises(monkeypatch):
    # a wrong rref must fail the Mx = 0 check, as an error that python -O keeps
    true_rref = fqlinalg.rref

    def corrupted(rows, q):
        R, rank, pivots = true_rref(rows, q)
        R[0][-1] = (R[0][-1] + 1) % q
        return R, rank, pivots

    monkeypatch.setattr(fqlinalg, "rref", corrupted)
    with pytest.raises(RuntimeError, match="fails Mx = 0"):
        null_space_basis(M_2346_12, 3)
