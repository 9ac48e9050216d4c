"""Exact linear algebra over the prime field F_q: rref and null space.

Matrices are lists of rows of ints; all arithmetic is reduced mod q after
every operation.  q is assumed prime.  The oracle sweep row-reduces one
small matrix per instance, so rref does no work a row does not need: a
pivot that is already 1 is not scaled, and a row with a zero in the pivot
column is not rebuilt.  Each null-space vector is checked against Mx = 0,
and a failed check is a RuntimeError, which python -O does not strip.
"""

from operator import mul


def mat_vec(rows, x, q):
    return [sum(map(mul, row, x)) % q for row in rows]


def rref(rows, q):
    """Reduced row-echelon form; returns (R, rank, pivot_columns)."""
    R = [[x % q for x in row] for row in rows]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if R[i][c]:
                break
        else:
            continue
        pivot_row = R[i]
        R[i] = R[r]
        lead = pivot_row[c]
        if lead != 1:
            inv = pow(lead, -1, q)
            pivot_row = [x * inv % q for x in pivot_row]
        R[r] = pivot_row
        for i, row in enumerate(R):
            f = row[c]
            if f and i != r:
                R[i] = [(a - f * b) % q for a, b in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, r, pivots


def null_space_basis(rows, q):
    """Basis of {x : Mx = 0}; one vector per free column, verified by Mx = 0."""
    R, _, pivots = rref(rows, q)
    ncols = len(rows[0]) if rows else 0
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(R, pivots):
            v[c] = -row[f] % q
        if any(mat_vec(rows, v, q)):
            raise RuntimeError(f"null-space vector {v} fails Mx = 0 mod {q}")
        basis.append(v)
    return basis
