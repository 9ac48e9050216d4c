"""Exact linear algebra over the prime field F_q: rref, row space, null space.

Matrices are lists of rows of ints; all arithmetic is reduced mod q after
every operation.  q is assumed prime.
"""


def _reduced(rows, q):
    return [[x % q for x in row] for row in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_vec(rows, x, q):
    return [sum(a * b for a, b in zip(row, x)) % q for row in rows]


def vec_mat(d, rows, q):
    """d^T M for a coefficient vector d over the rows of M."""
    cols = len(rows[0])
    return [sum(d[i] * rows[i][j] for i in range(len(rows))) % q for j in range(cols)]


def rref(rows, q):
    """Reduced row-echelon form; returns (R, rank, pivot_columns)."""
    R = _reduced(rows, q)
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


def solve_linear(rows, b, q):
    """Some x with Mx = b (free variables set to zero), or None if inconsistent."""
    if len(b) != len(rows):
        raise ValueError("dimension mismatch")
    aug = [list(row) + [bi] for row, bi in zip(rows, b)]
    R, rank, pivots = rref(aug, q)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, c in enumerate(pivots):
        x[c] = R[i][ncols]
    return x


def row_space_contains(rows, v, q):
    """Coefficients d with d^T M = v^T if v lies in the row space, else None."""
    if len(v) != len(rows[0]):
        raise ValueError("dimension mismatch")
    return solve_linear(transpose(rows), v, q)


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
