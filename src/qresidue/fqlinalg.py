"""Exact linear algebra over the prime field F_q: rref and null space.

Matrices are lists of rows of ints; all arithmetic is reduced mod q after
every operation.  q is assumed prime.
"""


def mat_vec(rows, x, q):
    return [sum(a * b for a, b in zip(row, x)) % q for row in rows]


def rref(rows, q):
    """Reduced row-echelon form; returns (R, rank, pivot_columns)."""
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


def null_space_basis(rows, q):
    """Basis of {x : Mx = 0}; one vector per free column, verified by Mx = 0."""
    R, rank, pivots = rref(rows, q)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i][f]) % q
        assert all(x == 0 for x in mat_vec(rows, v, q))
        basis.append(v)
    return basis
