"""Hyperplane coverings of F_q^k: coverage tests, minimal covers, witnesses.

Coverage is decided on bitmasks.  The points of F_q^k are numbered in
lexicographic order, first coordinate most significant, and point j is bit j
of a Python int.  zero_mask() builds the point set of one hyperplane as such a
mask.  A family covers F_q^k iff the OR of its masks has all q^k bits set; its
lexicographically first gap is the lowest zero bit of the OR, and the number
of uncovered points is q^k minus the popcount.  The Yes assignment lists, in
the same order, the index of the first hyperplane that holds each nonzero
point.
"""

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .arith import GuardError

POINT_ENUMERATION_LIMIT = 10**8


@dataclass(frozen=True)
class Hyperplane:
    """Proper subspace of F_q^k cut out by normal . x = 0; normal is nonzero."""

    normal: tuple[int, ...]
    q: int

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(x % self.q for x in self.normal))
        if all(x == 0 for x in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def contains(self, v) -> bool:
        return sum(a * b for a, b in zip(self.normal, v)) % self.q == 0


def zero_mask(normal, q) -> int:
    """Bitmask of {x in F_q^k : normal . x = 0}, where k = len(normal) >= 1.

    Bit j stands for the j-th point of product(range(q), repeat=k).  The mask
    is built from the last coordinate forwards.  classes[r] holds the suffixes
    u (the trailing coordinates seen so far, q^s of them) with
    (suffix of normal) . u = r.  Prepending a coordinate with coefficient c
    lays q of these masks side by side: block x, for the new coordinate = x,
    is the class r - c*x.  The first coordinate needs only the class r = 0.
    """
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


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _first_containing(masks, n) -> array:
    """Entry j: index of the first mask with bit j set (0 where none has it).

    Each mask's own bits, those no earlier mask has, are spread to one 32-bit
    cell per point and scaled by the mask's index; the cells of different
    masks are disjoint, so their sum holds every point's index.
    """
    remaining = (1 << n) - 1
    cells = 0
    for i, mask in enumerate(masks):
        own = mask & remaining
        remaining ^= own
        if i and own:
            spread = format(own, f"0{n}b").encode().translate(_BIT_BYTES)
            # bytes 0/1 -> code points 0/1 -> big-endian 32-bit cells
            cells += i * int.from_bytes(spread.decode("latin-1").encode("utf-32-be"), "big")
    first = array("I", cells.to_bytes(4 * n, "little"))
    if sys.byteorder == "big":
        first.byteswap()
    return first


class CoveringResult:
    """Whether a hyperplane family covers F_q^k, with an assignment or a witness.

    `covered` is settled on construction.  `witness`, the lexicographically
    first uncovered point, is None when covered; `assignment` is None when
    not.  Otherwise it is a read-only memoryview of q^k - 1 hyperplane
    indices, one per nonzero point in lexicographic order: the first
    hyperplane (in input order) that contains the point.  Both are derived on
    first use from the zero masks, which are built at most once.
    """

    def __init__(self, hyperplanes, k, q):
        self.hyperplanes = tuple(hyperplanes)
        self.k, self.q = k, q
        # Each hyperplane holds q^(k-1) points, the origin among them, so q of
        # them leave at least q - 1 points uncovered.
        self.covered = len(self.hyperplanes) > q and self.union == (1 << q**k) - 1

    @cached_property
    def masks(self) -> list[int]:
        return [zero_mask(h.normal, self.q) for h in self.hyperplanes]

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
        first = _first_containing(self.masks, self.q**self.k)
        return memoryview(first)[1:].toreadonly()  # entry 0 is the origin


def _check_family(hyperplanes, k, q):
    for h in hyperplanes:
        if len(h.normal) != k or h.q != q:
            raise ValueError("hyperplane dimension/modulus mismatch")
    if q**k > POINT_ENUMERATION_LIMIT:
        raise GuardError(f"q^k = {q**k} exceeds enumeration limit {POINT_ENUMERATION_LIMIT}")


def covers(hyperplanes, k, q) -> CoveringResult:
    """Do the hyperplanes cover F_q^k?  Full assignment or first gap on demand.

    An empty family covers nothing: even the zero vector has no containing
    subspace, so the witness is then (0, ..., 0).
    """
    _check_family(hyperplanes, k, q)
    return CoveringResult(hyperplanes, k, q)


def uncovered_count(hyperplanes, k, q) -> int:
    """Number of vectors of F_q^k lying on none of the hyperplanes."""
    _check_family(hyperplanes, k, q)
    return q**k - CoveringResult(hyperplanes, k, q).union.bit_count()


def minimal_cover(hyperplanes, k, q) -> list[int] | None:
    """Minimum-cardinality covering sub-family, by exact branch and bound.

    Returns indices into the input list, or None if the family does not cover.
    Only k >= 2 can be covered, and then any cover has size >= q+1, which
    serves as a stopping bound.
    """
    result = covers(hyperplanes, k, q)
    if not result.covered:
        return None
    masks = result.masks
    universe = (1 << q**k) - 1
    best = list(range(len(hyperplanes)))

    def branch(chosen, covered):
        nonlocal best
        if covered == universe:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        if len(best) == q + 1:
            return
        # branch on the lexicographically first uncovered point
        target = ~covered & (covered + 1)
        for i, mask in enumerate(masks):
            if mask & target and i not in chosen:
                branch(chosen + [i], covered | mask)

    branch([], 1)  # the zero vector lies on every hyperplane
    return best


def synthesize_covering(k, q) -> list[Hyperplane]:
    """The pencil covering of F_q^k by q+1 hyperplanes.

    Normals: x_1 = 0, x_2 = 0 and x_1 + t x_2 = 0 for t = 1..q-1, zero-padded
    to dimension k.  Every point has v_1 = 0, v_2 = 0, or v_1 = -t v_2.
    """
    if k < 2:
        raise ValueError("pencil covering requires k >= 2")
    pad = (0,) * (k - 2)
    normals = [(1, 0) + pad, (0, 1) + pad]
    normals += [(1, t) + pad for t in range(1, q)]
    return [Hyperplane(n, q) for n in normals]

