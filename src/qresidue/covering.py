"""Hyperplane coverings of F_q^k: coverage tests, witnesses, pencil synthesis.

A hyperplane is given by its normal, a tuple of k ints that is nonzero mod q;
it is the subspace {x : normal . x = 0}.  Coverage is decided on bitmasks.
The points of F_q^k are numbered in lexicographic order, first coordinate
most significant, and point j is bit j of a Python int.  zero_mask() builds
the point set of one hyperplane as such a mask.  A family covers F_q^k iff
the OR of its masks has all q^k bits set; its lexicographically first gap is
the lowest zero bit of the OR, and the number of uncovered points is q^k
minus the popcount.  The Yes assignment lists, in the same order, the index
of the first normal whose hyperplane holds each nonzero point.  Only
CoveringResult.label_columns reads it off the masks, one byte column per
byte of a label: the library's index array takes 4-byte labels, the CLI's
text its decimal ones.
"""

import sys
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


class CoveringResult:
    """Whether the hyperplanes of some normals cover F_q^k, with an assignment
    or a witness.

    `covered` is settled on construction.  `witness`, the lexicographically
    first uncovered point, is None when covered; `assignment` is None when
    not.  Otherwise it is a read-only memoryview of q^k - 1 normal indices,
    one per nonzero point in lexicographic order: the first normal (in input
    order) whose hyperplane contains the point.  Both are derived on first
    use from the zero masks, which are built at most once: the assignment
    through `label_columns`, which the CLI's text of it reads too.
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
    def witness(self) -> tuple[int, ...] | None:
        if self.covered:
            return None
        gap = ~self.union & (self.union + 1)
        return _point(gap.bit_length() - 1, self.k, self.q)

    @cached_property
    def assignment(self) -> memoryview | None:
        if not self.covered:
            return None
        cells = bytearray(4 * self.q**self.k)  # one native 32-bit cell per point
        labels = [i.to_bytes(4, sys.byteorder) for i in range(len(self.normals))]
        for t, column in enumerate(self.label_columns(labels)):
            cells[t::4] = column
        return memoryview(cells).cast("I")[1:].toreadonly()  # entry 0 is the origin

    def label_columns(self, labels):
        """Byte columns of the assignment under labels, one bytes label per
        normal, all of one length: column t has one byte per point of F_q^k in
        lexicographic order, the origin first, byte t of the label of the
        first normal whose hyperplane holds the point (0 where none does).

        Normal i owns mask i & ~(masks 0..i-1), the points no earlier normal
        holds.  The owned masks are disjoint, so for each t the owned masks
        whose labels share byte t are ORed, and each union is spread to bytes
        once and added into the column.
        """
        n = self.q**self.k
        remaining = (1 << n) - 1
        unions = [{} for _ in labels[0]]  # per t: byte t of a label -> its points
        for label, mask in zip(labels, self.masks):
            own = mask & remaining
            remaining ^= own
            for by_byte, byte in zip(unions, label):
                by_byte[byte] = by_byte.get(byte, 0) | own
        for by_byte in unions:
            # each union as one byte per point, point n-1 first: byte where it has the point
            spreads = (format(own, f"0{n}b").encode().translate(bytes.maketrans(b"01", bytes((0, byte))))
                       for byte, own in by_byte.items() if byte and own)
            column = sum(int.from_bytes(spread, "big") for spread in spreads)
            yield column.to_bytes(n, "little")


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
