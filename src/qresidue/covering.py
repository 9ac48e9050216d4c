"""Hyperplane coverings of F_q^k: coverage tests, witnesses, pencil synthesis.

A hyperplane is given by its normal, a tuple of k ints that is nonzero mod q;
it is the subspace {x : normal . x = 0}.  Coverage is decided on bitmasks.
The points of F_q^k are numbered in lexicographic order, first coordinate
most significant, and point j is bit j of a Python int.  zero_mask() builds
the point set of one hyperplane as such a mask.  A family covers F_q^k iff
the OR of its masks has all q^k bits set; its lexicographically first gap is
the lowest zero bit of the OR, and the number of uncovered points is q^k
minus the popcount.  The Yes assignment lists, in the same order, the index
of the first normal whose hyperplane holds each nonzero point.  It is read
off the owned masks, those points of each mask that no earlier one has: the
library as an index array, the CLI as text written straight from them.
"""

import sys
from array import array
from functools import cached_property, reduce
from operator import or_

from .arith import GuardError

POINT_ENUMERATION_LIMIT = 10**8
# Bound on l q^(k+1), the bit work of building l zero masks at k >= 2 (about
# q^2 shifts per coordinate).  On a 2-vCPU VM with Python 3.11, 34 masks at
# q = 3, k = 16 (4.4e9) take 0.34 s and 221 MB, and 308 masks at q = 307,
# k = 2 (8.9e9) take 2.3 s.
MASK_WORK_LIMIT = 5 * 10**9


def zero_mask(normal, q) -> int:
    """Bitmask of {x in F_q^k : normal . x = 0}, where k = len(normal) >= 1.

    Bit j stands for the j-th point of product(range(q), repeat=k).  The mask
    is built from the last coordinate forwards.  classes[r] holds the suffixes
    u (the trailing coordinates seen so far, q^s of them) with
    (suffix of normal) . u = r.  Prepending a coordinate with coefficient c
    lays q of these masks side by side: block x, for the new coordinate = x,
    is the class r - c*x.  The first coordinate needs only the class r = 0.
    At k = 1 the hyperplane is the origin alone.
    """
    if len(normal) == 1:
        return 1
    classes = [1] + [0] * (q - 1)
    size = 1
    for c in reversed(normal[1:]):
        classes = [
            sum(classes[(r - c * x) % q] << (x * size) for x in range(q))
            for r in range(q)
        ]
        size *= q
    return sum(classes[-normal[0] * x % q] << (x * size) for x in range(q))


def _point(j, k, q) -> tuple[int, ...]:
    """The j-th point of F_q^k in lexicographic order."""
    digits = []
    for _ in range(k):
        j, d = divmod(j, q)
        digits.append(d)
    return tuple(reversed(digits))


def spread(mask, n, byte=1) -> bytes:
    """One byte per point of an n-point mask, point n-1 first: byte where the
    mask has the point, 0 where not."""
    return format(mask, f"0{n}b").encode().translate(bytes.maketrans(b"01", bytes((0, byte))))


def _first_containing(owned, n) -> array:
    """Entry j: index of the owned mask with bit j set (0 where none has it).

    The bits of owned mask i are spread to one 32-bit cell per point and
    scaled by i; the masks are disjoint, so the sum holds every point's index.
    """
    cells = 0
    for i, own in enumerate(owned):
        if i and own:
            # bytes 0/1 -> code points 0/1 -> big-endian 32-bit cells
            cells += i * int.from_bytes(spread(own, n).decode("latin-1").encode("utf-32-be"), "big")
    first = array("I", cells.to_bytes(4 * n, "little"))
    if sys.byteorder == "big":
        first.byteswap()
    return first


class CoveringResult:
    """Whether the hyperplanes of some normals cover F_q^k, with an assignment
    or a witness.

    `covered` is settled on construction.  `witness`, the lexicographically
    first uncovered point, is None when covered; `assignment` is None when
    not.  Otherwise it is a read-only memoryview of q^k - 1 normal indices,
    one per nonzero point in lexicographic order: the first normal (in input
    order) whose hyperplane contains the point.  Both are derived on first
    use from the zero masks, which are built at most once.  The assignment is
    read off `owned`, the points that each normal is the first to hold, and
    so is the CLI's text of it, which never builds the index array.
    """

    def __init__(self, normals, k, q):
        self.normals = tuple(normals)
        self.k, self.q = k, q
        # Each hyperplane holds q^(k-1) points, the origin among them, so q of
        # them leave at least q - 1 points uncovered.
        self.covered = len(self.normals) > q and self.union == (1 << q**k) - 1

    @cached_property
    def masks(self) -> list[int]:
        return [zero_mask(n, self.q) for n in self.normals]

    @cached_property
    def union(self) -> int:
        return reduce(or_, self.masks, 0)

    @cached_property
    def owned(self) -> list[int]:
        """Mask i's own points, those of hyperplane i on no earlier hyperplane:
        mask i & ~(masks 0..i-1).  They are disjoint; over a covering their
        union is every point, and point j's assigned index is the i whose
        owned mask has bit j."""
        remaining = (1 << self.q**self.k) - 1
        owned = []
        for mask in self.masks:
            own = mask & remaining
            remaining ^= own
            owned.append(own)
        return owned

    @cached_property
    def witness(self) -> tuple[int, ...] | None:
        if self.covered:
            return None
        gap = ~self.union & (self.union + 1)
        return _point(gap.bit_length() - 1, self.k, self.q)

    @cached_property
    def assignment(self) -> memoryview | None:
        if not self.covered:
            return None
        first = _first_containing(self.owned, self.q**self.k)
        return memoryview(first)[1:].toreadonly()  # entry 0 is the origin


def check_family(normals, k, q):
    """Normals of length k, nonzero mod q, within the point and mask budgets."""
    for n in normals:
        if len(n) != k:
            raise ValueError(f"normal {n} does not have length k = {k}")
        if not any(x % q for x in n):
            raise ValueError(f"normal {n} is zero mod q = {q}")
    if q**k > POINT_ENUMERATION_LIMIT:
        raise GuardError(f"q^k = {q}^{k} exceeds enumeration limit {POINT_ENUMERATION_LIMIT}")
    if k > 1 and len(normals) * q ** (k + 1) > MASK_WORK_LIMIT:
        raise GuardError(
            f"l q^(k+1) = {len(normals)} * {q}^{k + 1} exceeds mask work limit {MASK_WORK_LIMIT}"
        )


def covers(normals, k, q) -> CoveringResult:
    """Do the hyperplanes of the normals cover F_q^k?  Full assignment or
    first gap on demand.

    An empty family covers nothing: even the zero vector has no containing
    subspace, so the witness is then (0, ..., 0).
    """
    check_family(normals, k, q)
    return CoveringResult(normals, k, q)


def uncovered_count(normals, k, q) -> int:
    """Number of vectors of F_q^k lying on none of the hyperplanes."""
    check_family(normals, k, q)
    return q**k - CoveringResult(normals, k, q).union.bit_count()


def synthesize_covering(k, q) -> list[tuple[int, ...]]:
    """Normals of the pencil covering of F_q^k by q+1 hyperplanes.

    x_1 = 0, x_2 = 0 and x_1 + t x_2 = 0 for t = 1..q-1, zero-padded to
    dimension k.  Every point has v_1 = 0, v_2 = 0, or v_1 = -t v_2.
    """
    if k < 2:
        raise ValueError("pencil covering requires k >= 2")
    pad = (0,) * (k - 2)
    return [(1, 0) + pad, (0, 1) + pad] + [(1, t) + pad for t in range(1, q)]
