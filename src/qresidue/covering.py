"""Hyperplane coverings of F_q^k: coverage tests, witnesses, pencil synthesis.

A hyperplane is given by its normal, a tuple of k ints that is nonzero mod q;
it is the subspace {x : normal . x = 0}.  Coverage is decided on bitmasks.
The points of F_q^k are numbered in lexicographic order, first coordinate
most significant, and point j is bit j of a Python int.  zero_mask() builds
the point set of one hyperplane as such a mask, from the last coordinate
forwards, at a cost that follows the normal's nonzero coordinates: the
coordinates after the last nonzero one fill one block of ones, a free
coordinate lays q copies of the pattern so far side by side, and a nonzero
one gathers each class of the suffix as one C-level sum of q shifted
classes.  Scalar multiples of a normal have its hyperplane, so one mask
is built per projective class.  Both covers and uncovered_count read one
walk, _walk: in input order, each class owns the points of its mask that
no earlier class holds, and the walk keeps the gaps, the points nothing
holds yet, stops building masks once there are none, and returns them.  A
family covers F_q^k iff no gap is left; its lexicographically first gap is
the lowest set bit of the gaps, and the number of uncovered points is
their popcount (uncovered_count keeps no owned part; covers keeps them all
for its assignment).  The Yes assignment lists, in the same order, the
index of the first normal whose hyperplane holds each nonzero point: its
owner.  Only CoveringResult.write_labels reads it off the owned points,
under one byte-string label per normal, into a strided buffer.  It builds
one owner column (one byte per point, its owner's number) from the bit
planes of those numbers, and translates that column once per label byte
that some owner's label has nonzero, written with one strided slice
assignment.
"""

import reprlib
import sys
from functools import cached_property, reduce
from operator import lshift, mul, or_

from .arith import GuardError, power_exceeds

# Bound on q^k, the points: the gaps, each owned part, the Yes assignment and
# each owner and label column hold one bit or cell per point.
POINT_ENUMERATION_LIMIT = 10**8
# Bound on l q^(k+1), the bit work of building l zero masks at k >= 2.  It
# bounds dense normals: the q classes at the second nonzero coordinate and
# class 0 at the first are each a sum of q shifted masks.  A normal with at
# most one nonzero coordinate before its last one sums class 0 alone, q
# shifted blocks making its q^k bits: about half the bit work.  On a 2-vCPU
# VM with Python 3.11.7, 34 dense masks at q = 3, k = 16 (4.4e9) take
# 0.7-0.8 s and 229 MB in covers and its witness, which keep each mask's
# owned part, and 0.7-0.8 s and 47 MB in uncovered_count, which keeps
# none.  Each mask is freed once its owned part is cut, and the allocator
# returns and refaults the freed pages.  308 pencil masks at q = 307, k = 2
# (8.9e9, over the limit) take 0.2-0.4 s.
MASK_WORK_LIMIT = 5 * 10**9


def _repeat(masks, width, q, times):
    """Prepend `times` free coordinates to each mask of `width` bits: each
    coordinate lays q copies side by side.  Returns the masks and their width."""
    for _ in range(times):
        offsets = range(0, q * width, width)
        masks = [sum(map(lshift, [m] * q, offsets)) for m in masks]
        width *= q
    return masks, width


def zero_mask(normal, q) -> int:
    """Bitmask of {x in F_q^k : normal . x = 0}, where k = len(normal) >= 1.

    Bit j stands for the j-th point of product(range(q), repeat=k).  A normal
    that is zero mod q is a ValueError.  The mask is built from the last
    coordinate forwards, and only a nonzero coefficient costs a gather.
    classes[r] holds the suffixes u (the trailing coordinates seen so far) with
    (suffix of normal) . u = r.

    Let t be the last coordinate with c_t != 0.  The coordinates after it are
    free, so class 0 of the suffix from t on is one block of q^(k-1-t) ones,
    at x_t = 0.  Class r is the same block at x_t = r / c_t, and it stays
    class 0 shifted by (r / c_t) blocks while free coordinates are prepended,
    each of which only lays q copies of the mask side by side.  Prepending a
    further coefficient c makes block x of class r the old class r - c*x;
    with m = -c*x, that is class r + m at block x = -m / c.  So class r is
    one C-level sum over the q classes r, r+1, ..., r-1 (a slice of the list
    taken twice), each shifted by its block.  A free coordinate between two
    nonzero ones repeats each class; the first nonzero coordinate needs only
    class 0, and the free coordinates before it repeat the final mask.  At
    k = 1 the hyperplane is the origin alone.
    """
    nonzero = [i for i, c in enumerate(normal) if c % q]
    if not nonzero:
        raise ValueError(f"normal {tuple(normal)} is zero mod q = {q}")
    last = nonzero.pop()
    block = q ** (len(normal) - 1 - last)
    classes, width = [(1 << block) - 1], block * q
    start = last  # the coordinate the classes begin at
    for i in reversed(nonzero):
        classes, width = _repeat(classes, width, q, start - 1 - i)
        if len(classes) == 1:  # class r is class 0 at x_last = r / c_last
            inverse = pow(normal[last], -1, q)
            classes = [classes[0] << (r * inverse % q * block) for r in range(q)]
        inverse = pow(-normal[i], -1, q)
        offsets = [m * inverse % q * width for m in range(q)]
        twice = classes + classes
        needed = range(q) if i > nonzero[0] else range(1)
        classes = [sum(map(lshift, twice[r : r + q], offsets)) for r in needed]
        width *= q
        start = i
    return _repeat(classes, width, q, start)[0][0]


def projective_class(normal, q) -> tuple[int, ...]:
    """The multiple of a normal whose first nonzero entry is 1.  Normals of
    one class have one hyperplane.  A normal that is zero mod q, the empty
    one among them, is a ValueError."""
    for lead in normal:
        if lead % q:
            scale = pow(lead, -1, q)
            return tuple([c * scale % q for c in normal])
    raise ValueError(f"normal {tuple(normal)} is zero mod q = {q}")


def _point(j, k, q) -> tuple[int, ...]:
    """The j-th point of F_q^k in lexicographic order."""
    digits = []
    for _ in range(k):
        j, d = divmod(j, q)
        digits.append(d)
    return tuple(reversed(digits))


def _walk(classes, q, n, owners=None) -> int:
    """The gaps of the walk of classes in input order: the mask of the points
    of F_q^k, n = q^k of them, that no class holds.

    Each class owns the points of its mask that no earlier class holds; the
    owned parts are disjoint, and with the gaps they make up F_q^k.  One zero
    mask is built per distinct class (a later copy owns nothing), and none
    once the gaps are empty: the classes after a full cover own nothing
    either.  (i, own) is appended to owners, when a list is given, for each
    class i that owns a point; without one the walk holds the gaps and one
    mask at a time."""
    gaps, seen = (1 << n) - 1, set()
    for i, c in enumerate(classes):
        if not gaps:
            break
        if c not in seen:
            seen.add(c)
            own = zero_mask(c, q) & gaps
            if own and owners is not None:
                owners.append((i, own))
            gaps ^= own
            del own  # without owners, only the gaps and one mask are alive
    return gaps


class CoveringResult:
    """Whether the hyperplanes of some normals cover F_q^k, with an assignment
    or a witness.

    `covered` is settled on construction.  `witness`, the lexicographically
    first uncovered point, is None when covered; `assignment` is None when
    not.  Otherwise it is a read-only memoryview of q^k - 1 normal indices,
    one per nonzero point in lexicographic order: the first normal (in input
    order) whose hyperplane contains the point.  All three read one walk of
    the projective classes (see `projective_classes` and `_walk`), run at
    most once and kept as `_walked`: the gaps, the points no normal holds,
    and the points each normal owns.  A family of at most q classes covers
    nothing and is walked only when `witness` or `write_labels` asks.  The
    walk stops at a full cover, so a normal after it builds no mask.  The
    assignment is written by `write_labels`.  The witness is checked against
    every normal before it is returned: a RuntimeError if one holds it.
    """

    def __init__(self, normals, k, q):
        self.normals = tuple(normals)
        self.k, self.q = k, q
        # Each hyperplane holds q^(k-1) points, the origin among them, so the
        # hyperplanes of q classes leave at least q - 1 points uncovered.
        self.covered = (len(self.normals) > q and len(set(self.projective_classes)) > q
                        and not self._walked[0])

    @cached_property
    def projective_classes(self) -> list[tuple[int, ...]]:
        """Each normal's projective class (see `projective_class`)."""
        return [projective_class(n, self.q) for n in self.normals]

    @cached_property
    def _walked(self) -> tuple[int, list[tuple[int, int]]]:
        """(gaps, owners) of one `_walk`: the mask of the points no normal
        holds, and (i, own) for each normal i that owns a point."""
        owners = []
        return _walk(self.projective_classes, self.q, self.q**self.k, owners), owners

    @cached_property
    def witness(self) -> tuple[int, ...] | None:
        if self.covered:
            return None
        gaps = self._walked[0]
        point = _point((gaps & -gaps).bit_length() - 1, self.k, self.q)
        if any(sum(map(mul, n, point)) % self.q == 0 for n in self.normals):
            raise RuntimeError(f"witness {point} lies on a hyperplane of the family")
        return point

    @cached_property
    def assignment(self) -> memoryview | None:
        if not self.covered:
            return None
        cells = bytearray(4 * self.q**self.k)  # one native 32-bit cell per point
        labels = [i.to_bytes(4, sys.byteorder) for i in range(len(self.normals))]
        self.write_labels(labels, cells, 0, 4)
        return memoryview(cells).cast("I")[1:].toreadonly()  # entry 0 is the origin

    def write_labels(self, labels, out, at, stride):
        """Write the assignment under labels, one bytes label per normal, all
        of one length, into out: byte t of the label of the first normal whose
        hyperplane holds point j of F_q^k (lexicographic order, the origin
        j = 0), or 0 where none does, goes to out[at + t + j * stride].

        Precondition: out holds 0 at every label byte out[at + t + j * stride],
        since a byte t that is 0 in every owner's label is left untouched.

        The owners are read off `_walked`, the one walk that also settles
        `covered`: normal i owns the points no earlier normal holds, and no
        normal after a full cover owns any.  They are numbered 1, 2, ... in
        input order, and each group of 255 of them gets one owner column:
        each point's number in its group, 0 where no owner of the group holds
        it (see _owner_column).  Column t is then one translate of each owner
        column, number i to byte t of owner i's label, and the groups'
        columns are added, as their points are disjoint.
        """
        n, owners = self.q**self.k, self._walked[1]
        groups = [owners[g : g + 255] for g in range(0, len(owners), 255)]
        columns = [_owner_column([own for _, own in group], n) for group in groups]
        for t in range(len(labels[0])):
            parts = []
            for group, column in zip(groups, columns):
                table = bytes([0, *[labels[i][t] for i, _ in group]]).rstrip(b"\0")
                if table:
                    parts.append(column.translate(table.ljust(256, b"\0")))
            if len(parts) > 1:  # disjoint parts: their sum is their union
                parts = [sum(int.from_bytes(part, "little") for part in parts).to_bytes(n, "little")]
            if parts:  # none where every owner's byte t is 0, which out already holds
                out[at + t :: stride] = parts[0]


def _owner_column(owned, n) -> bytes:
    """One byte per point of F_q^k, the origin first: the number i (from 1)
    of the mask owned[i-1] that holds the point, 0 where none does.  The
    masks are disjoint and at most 255.  Bit plane j, the OR of the masks
    whose number has bit j set, is spread to one byte per point (2^j where
    it has the point), and the planes' spreads are summed: a point's sum is
    its number, at most 255, so no carry crosses a byte."""
    total = 0
    for j in range(len(owned).bit_length()):
        plane = reduce(or_, [own for i, own in enumerate(owned, 1) if i >> j & 1])
        # point n-1 first
        spread = format(plane, f"0{n}b").encode().translate(bytes.maketrans(b"01", bytes((0, 1 << j))))
        total += int.from_bytes(spread, "big")
    return total.to_bytes(n, "little")


def check_budget(l, k, q):
    """GuardError unless l normals of length k over F_q are within the point
    budget (q^k) and the mask budget (l q^(k+1) at k >= 2).

    Both charges grow with l and k, so a caller that may meet any family of
    at most l normals of length at most k asks once, for (l, k, q).  The
    point test is arith.power_exceeds, which builds no q^k far past the
    limit; past it, q^(k+1) is at most q times the limit.  So no power grows
    large.  The point refusal writes q as check_q does, cut short past 40
    digits; the mask refusal needs no cut, as q^2 <= q^k is within the point
    limit."""
    if power_exceeds(q, k, POINT_ENUMERATION_LIMIT):
        raise GuardError(f"q^k = {reprlib.repr(q)}^{k} exceeds enumeration limit "
                         f"{POINT_ENUMERATION_LIMIT}")
    if k > 1 and l * q ** (k + 1) > MASK_WORK_LIMIT:
        raise GuardError(f"l q^(k+1) = {l} * {q}^{k + 1} exceeds mask work limit {MASK_WORK_LIMIT}")


def check_family(normals, k, q):
    """Normals of length k >= 0, nonzero mod q, within the budgets of
    check_budget for len(normals) of them."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    for n in normals:
        if len(n) != k:
            raise ValueError(f"normal {n} does not have length k = {k}")
        if not any(x % q for x in n):
            raise ValueError(f"normal {n} is zero mod q = {q}")
    check_budget(len(normals), k, q)


def covers(normals, k, q) -> CoveringResult:
    """Do the hyperplanes of the normals cover F_q^k?  Full assignment or
    first gap on demand.

    An empty family covers nothing: even the zero vector has no containing
    subspace, so the witness is then (0, ..., 0).
    """
    check_family(normals, k, q)
    return CoveringResult(normals, k, q)


def uncovered_count(normals, k, q) -> int:
    """Number of vectors of F_q^k lying on none of the hyperplanes.

    The popcount of the gaps that `_walk` returns.  It keeps no owned part,
    so only the gaps and one mask are alive at a time, where CoveringResult
    keeps every owned part for its assignment; no mask is built after a full
    cover."""
    check_family(normals, k, q)
    return _walk([projective_class(n, q) for n in normals], q, q**k).bit_count()


def synthesize_covering(k, q) -> list[tuple[int, ...]]:
    """Normals of the pencil covering of F_q^k by q+1 hyperplanes.

    x_1 = 0, x_2 = 0 and x_1 + t x_2 = 0 for t = 1..q-1, zero-padded to
    dimension k.  Every point has v_1 = 0, v_2 = 0, or v_1 = -t v_2.
    """
    if k < 2:
        raise ValueError("pencil covering requires k >= 2")
    pad = (0,) * (k - 2)
    return [(1, 0) + pad, (0, 1) + pad] + [(1, t) + pad for t in range(1, q)]
