"""Seeded inputs for the four benchmark workloads.

An op is a dict ``{"argv": [...], "expect": {...}}``: the CLI arguments that
follow ``--json`` and what the verifier needs to check the answer.  Every
expected verdict is fixed by construction (a transformed pencil covers, a
family of hyperplanes that all miss a planted point w does not), never by
running qresidue.  Only plain ints and ``pow`` are used here.

Ops come in rounds.  Each round holds the same fixed cells (command, q, k,
kind, size) in a seeded order; the seed changes the primes, normals, signs,
padding and order, not the cost mix.  run.py samples whole rounds only.  A
round has 10m+5 ops: the latencies of one cell, taken over R rounds, form a
cluster of R values, and the median and 90th percentile of 10m+5 clusters
then fall in the middle of a cluster, never on the edge between two, where
the spread of the two edge values would move them from run to run.
"""

import random
from fractions import Fraction
from math import prod

WORKLOADS = ("decide-cover", "decide-factor", "primes", "oracle-sweep")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PRIMES_BELOW_1000 = tuple(
    p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))
)

# Rounds generated per workload: enough for a minute of closed-loop work on
# the seed code.  A faster program wraps around to the first round.
ROUNDS = {"decide-cover": 12, "decide-factor": 30, "primes": 40, "oracle-sweep": 80}


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (first twelve prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def dot(a, b, q):
    return sum(x * y for x, y in zip(a, b)) % q


def rank_mod_q(rows, q):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def pencil(k, q):
    """Normals of the pencil covering of F_q^k: x1=0, x2=0, x1+t*x2=0."""
    pad = (0,) * (k - 2)
    return [(1, 0) + pad, (0, 1) + pad] + [(1, t) + pad for t in range(1, q)]


def _random_invertible(k, q, rng):
    """Random invertible M whose first two columns have no common zero row.

    The pencil spans the first two coordinates, so M @ pencil then touches
    every coordinate, and every support prime appears in some element.
    """
    while True:
        m = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        if all(row[0] or row[1] for row in m) and rank_mod_q(m, q) == k:
            return m


def _transform(m, n, q):
    return tuple(dot(row, n, q) for row in m)


def _nonzero(k, q, rng, max_entry=None):
    top = q if max_entry is None else max_entry + 1
    while True:
        v = tuple(rng.randrange(top) for _ in range(k))
        if any(v):
            return v


def _missing_w(w, k, q, rng, max_entry=None):
    """A random nonzero normal whose hyperplane does not contain w."""
    while True:
        n = _nonzero(k, q, rng, max_entry)
        if dot(n, w, q):
            return n


def _touches_all(normals, k):
    return all(any(n[i] for n in normals) for i in range(k))


def _decision_op(cmd, q, primes, normals, rng, *, verdict, pad_power):
    """A decide/certificate op on elements whose q-free exponents are `normals`.

    `primes` are the support primes in increasing order (coordinate i of
    F_q^k is primes[i]).  Each element is multiplied by pad_power(normal)^q
    and has its sign flipped at random; neither changes the verdict.
    """
    elements, qfree = [], set()
    for n in normals:
        value = prod(p**e for p, e in zip(primes, n))
        qfree.add(value)
        b = value * pad_power(n) ** q
        if rng.random() < 0.5:
            b = -b
        elements.append(b)
    support = [p for i, p in enumerate(primes) if any(n[i] for n in normals)]
    expect = {
        "q": q,
        "elements": elements,
        "verdict": verdict,
        "exit": 0 if verdict == "yes" else 1,
        "support": support,
        "qfree": sorted(qfree),
    }
    argv = [cmd, "--q", str(q), "--set=" + ",".join(map(str, elements))]
    return {"argv": argv, "expect": expect}


# --- decide-cover: covering.covers and the assignment digest do the work ----

COVER_GRID = ((3, 8), (3, 9), (3, 10), (5, 5), (5, 6), (7, 4), (7, 5))


def _cover_yes(q, k, rng):
    m = _random_invertible(k, q, rng)
    normals = [_transform(m, n, q) for n in pencil(k, q)]
    normals += [_nonzero(k, q, rng) for _ in range(2)]
    # a scalar multiple names the same hyperplane under a new q-free value
    base = rng.choice(normals)
    normals.append(tuple(2 * x % q for x in base))
    return normals


def _cover_no_late(q, k, rng):
    """Normals whose only uncovered points are the multiples of w = (1, -1, ..., -1).

    x1 = 0 covers every point with v1 = 0; x_i = a*x1 for a = 0..q-2 covers
    every point with v_i != -v1.  Extra normals are drawn with n.w != 0, so
    w stays uncovered and is the lexicographically first gap: covers()
    enumerates about 2/q of F_q^k before it stops.
    """
    w = (1,) + (q - 1,) * (k - 1)
    normals = [(1,) + (0,) * (k - 1)]
    for i in range(1, k):
        for a in range(q - 1):
            n = [0] * k
            n[0] = -a % q
            n[i] = 1
            normals.append(tuple(n))
    normals += [_missing_w(w, k, q, rng) for _ in range(2)]
    return normals


def _cover_no_early(q, k, rng):
    w = _nonzero(k, q, rng)
    while True:
        normals = [_missing_w(w, k, q, rng) for _ in range(3)]
        if _touches_all(normals, k):
            return normals


def _cover_op(cmd, q, k, kind, rng):
    primes = sorted(rng.sample([p for p in SMALL_PRIMES if p != q], k))
    construct = {"yes": _cover_yes, "no-late": _cover_no_late, "no-early": _cover_no_early}
    normals = construct[kind](q, k, rng)
    # Yes sets come shuffled.  A late No set keeps its construction order:
    # covers() scans hyperplanes in input order, so the order sets the cost,
    # and a fixed one keeps the k=10 No ops, which sit at the 90th
    # percentile, from spreading it from run to run.
    if kind == "yes":
        rng.shuffle(normals)

    def pad(n):
        return rng.choice(SMALL_PRIMES) if rng.random() < 0.25 else 1

    verdict = "yes" if kind == "yes" else "no"
    return _decision_op(cmd, q, primes, normals, rng, verdict=verdict, pad_power=pad)


def _round_decide_cover(rng):
    """35 ops: per (q, k), Yes and late No by decide and certificate, one early No."""
    ops = []
    for i, (q, k) in enumerate(COVER_GRID):
        for kind in ("yes", "no-late"):
            for cmd in ("decide", "certificate"):
                ops.append(_cover_op(cmd, q, k, kind, rng))
        ops.append(_cover_op(("decide", "certificate")[i % 2], q, k, "no-early", rng))
    return ops


# --- decide-factor: arith.factorize does the work ---------------------------

FACTOR_PRIME_RANGE = (10**6, 10**9)


def _large_prime(rng):
    """A prime drawn log-uniformly from FACTOR_PRIME_RANGE."""
    lo, hi = FACTOR_PRIME_RANGE
    while True:
        n = int(lo * (hi / lo) ** rng.random()) | 1
        if n > lo and is_prime(n):
            return n


def _factor_primes(k, rng):
    primes = set()
    while len(primes) < k:
        primes.add(_large_prime(rng))
    return sorted(primes)


def _factor_pad(primes):
    """q-th power padding that lifts a single-prime element above 10^12.

    Every element then keeps a cofactor > 10^12 after trial division, so
    trial division runs to its bound and rho always runs.
    """

    def pad(n):
        nz = [j for j, e in enumerate(n) if e]
        if len(nz) == 1 and n[nz[0]] == 1:
            return primes[(nz[0] + 1) % len(primes)]
        return 1

    return pad


def _factor_yes(q, k, rng):
    """Pencil on two coordinates plus one unit normal per further coordinate."""
    axes = rng.sample(range(k), k)
    normals = []
    for n in pencil(2, q):
        v = [0] * k
        v[axes[0]], v[axes[1]] = n
        normals.append(tuple(v))
    for a in axes[2:]:
        v = [0] * k
        v[a] = 1
        normals.append(tuple(v))
    return normals


def _factor_no(q, k, size, rng):
    w = _nonzero(k, q, rng)
    while True:
        normals = [_missing_w(w, k, q, rng, max_entry=2) for _ in range(size)]
        if _touches_all(normals, k):
            return normals


def _factor_op(cmd, q, k, kind, size, rng):
    primes = _factor_primes(k, rng)
    if kind == "yes":
        normals = _factor_yes(q, k, rng)
    else:
        normals = _factor_no(q, k, size, rng)
    rng.shuffle(normals)
    return _decision_op(
        cmd, q, primes, normals, rng, verdict="yes" if kind == "yes" else "no",
        pad_power=_factor_pad(primes),
    )


def _trivial_op(cmd, q, size, rng):
    """`size` elements, one of them a large exact q-th power: no factoring at all."""
    primes = _factor_primes(2, rng)
    elements = [
        -b if rng.random() < 0.5 else b
        for b in (_large_prime(rng) * _large_prime(rng) for _ in range(size))
    ]
    index = rng.randrange(size)
    root = prod(primes) * (-1 if rng.random() < 0.5 else 1)
    elements[index] = root**q
    expect = {"q": q, "elements": elements, "verdict": "trivially_yes", "exit": 0,
              "index": index, "root": root}
    argv = [cmd, "--q", str(q), "--set=" + ",".join(map(str, elements))]
    return {"argv": argv, "expect": expect}


# (command, q, k, kind, elements): q=3 needs >= 4 and q=5 needs >= 6
# distinct normals to cover, so Yes sets have 4-6 elements.  No sets have 3,
# and two ops in fifteen are trivially Yes, which keeps the mean op near
# three factorizations: about a hundred ops in a 28-second run.
FACTOR_CELLS = (
    ("decide", 3, 2, "yes", 4),
    ("certificate", 3, 3, "yes", 5),
    ("decide", 5, 2, "yes", 6),
    ("decide", 3, 2, "no", 3),
    ("certificate", 3, 2, "no", 3),
    ("decide", 3, 3, "no", 3),
    ("certificate", 3, 3, "no", 3),
    ("decide", 3, 4, "no", 3),
    ("certificate", 3, 4, "no", 3),
    ("decide", 5, 2, "no", 3),
    ("certificate", 5, 3, "no", 3),
    ("decide", 5, 3, "no", 3),
    ("certificate", 5, 4, "no", 3),
    ("decide", 3, 0, "trivially_yes", 4),
    ("certificate", 5, 0, "trivially_yes", 5),
)


def _round_decide_factor(rng):
    ops = []
    for cmd, q, k, kind, size in FACTOR_CELLS:
        if kind == "trivially_yes":
            ops.append(_trivial_op(cmd, q, size, rng))
        else:
            ops.append(_factor_op(cmd, q, k, kind, size, rng))
    return ops


# --- primes: primescan (sieve, Euler loop, scans) does the work --------------

PRIME_BOUNDS = (200_000, 300_000, 450_000, 670_000, 1_000_000)


def _small_set_cover(q, k, rng):
    """Pencil on two small primes plus single primes < 1000: covers F_q^k.

    Returns (primes, normals) with primes sorted and all elements < 1000.
    """
    while True:
        a, b = rng.sample([p for p in SMALL_PRIMES[:6] if p != q], 2)
        if a * b ** (q - 1) < 1000:
            break
    others = rng.sample([p for p in PRIMES_BELOW_1000 if p not in (a, b, q)], k - 2)
    primes = sorted([a, b] + others)
    ia, ib = primes.index(a), primes.index(b)
    normals = []
    for n in pencil(2, q):
        v = [0] * k
        v[ia], v[ib] = n
        normals.append(tuple(v))
    for p in others:
        v = [0] * k
        v[primes.index(p)] = 1
        normals.append(tuple(v))
    return primes, normals


def _small_set_no(q, k, rng):
    """Elements on disjoint groups of primes: independent normals, U known.

    With m independent normals in F_q^k, exactly (q-1)^m q^(k-m) points lie
    on none of the hyperplanes.  Returns (primes, normals, U), elements < 1000.
    """
    primes = sorted(rng.sample([p for p in PRIMES_BELOW_1000[:40] if p != q], k))
    order = rng.sample(range(k), k)
    normals, i = [], 0
    while i < k:
        group = order[i : i + rng.choice((1, 1, 2))]
        i += len(group)
        v = [0] * k
        for j in group:
            v[j] = rng.randrange(1, q)
        if prod(p**e for p, e in zip(primes, v)) >= 1000:
            v = [1 if e else 0 for e in v]
        if prod(p**e for p, e in zip(primes, v)) < 1000:
            normals.append(tuple(v))
            continue
        for j in group:
            normals.append(tuple(int(x == j) for x in range(k)))
    m = len(normals)
    return primes, normals, (q - 1) ** m * q ** (k - m)


def _first_failing_prime(elements, q, bound):
    """First prime p <= bound, p != q, dividing no element, where no element
    is a q-th power residue; by plain trial division and Euler's criterion."""
    p = 1
    while p < bound:
        p += 1
        if p == q or any(b % p == 0 for b in elements) or not is_prime(p):
            continue
        if p % q == 1 and all(pow(b, (p - 1) // q, p) != 1 for b in elements):
            return p
    return None


def _primes_op(cmd, covering, bound, q, k, rng):
    if covering:
        primes, normals = _small_set_cover(q, k, rng)
        uncovered = 0
    else:
        primes, normals, uncovered = _small_set_no(q, k, rng)
    elements = [prod(p**e for p, e in zip(primes, n)) for n in normals]
    elements = [-b if rng.random() < 0.3 else b for b in elements]
    rng.shuffle(elements)
    expect = {"q": q, "elements": elements, "bound": bound, "exit": 0}
    if cmd == "census":
        expect["covering"] = covering
        expect["predicted"] = str(Fraction(uncovered, q**k * (q - 1)))
    else:
        p = None if covering else _first_failing_prime(elements, q, bound)
        expect["first_failing"] = p
        expect["exit"] = 0 if p is None else 1
    argv = [cmd, "--q", str(q), "--set=" + ",".join(map(str, elements)), "--bound", str(bound)]
    return {"argv": argv, "expect": expect}


# (q, k) per bound: k <= 8 for q=3 and k <= 5 for q=5 keep q^k small enough
# that uncovered_count is a minor share of a census.
PRIME_SHAPES = ((3, 8), (5, 4), (3, 6), (5, 5), (3, 4))


def _round_primes(rng):
    """15 ops: at each bound, one census (covering or not), one scan of a
    covering set (drains the sieve) and one scan of a No set (stops early)."""
    ops = []
    for i, (bound, (q, k)) in enumerate(zip(PRIME_BOUNDS, PRIME_SHAPES)):
        ops.append(_primes_op("census", i % 2 == 0, bound, q, k, rng))
        ops.append(_primes_op("scan", True, bound, q, k, rng))
        ops.append(_primes_op("scan", False, bound, q, k, rng))
    return ops


# --- oracle-sweep: fqlinalg.rref and the Skalba oracle do the work ----------

# (q, k_max, l_max) for exhaustive sweeps, each well under a second
ORACLE_EXHAUSTIVE = ((3, 2, 3), (3, 3, 2), (5, 1, 3), (5, 2, 2), (7, 1, 3), (7, 2, 2))


def _exhaustive_count(q, k_max, l_max):
    return sum((q**k - 1) ** l for k in range(1, k_max + 1) for l in range(1, l_max + 1))


def _oracle_exhaustive(q, k_max, l_max):
    argv = ["oracle-check", "--q", str(q), "--k-max", str(k_max), "--l-max", str(l_max),
            "--mode", "exhaustive"]
    return {"argv": argv, "expect": {"exit": 0, "instances": _exhaustive_count(q, k_max, l_max)}}


# (q, k_max, l_max) for random sweeps of ORACLE_TRIALS instances
ORACLE_RANDOM = tuple((q, k, l) for q in (3, 5, 7) for k, l in ((2, 3), (3, 3), (3, 4)))
ORACLE_TRIALS = 200


def _oracle_random(q, k_max, l_max, rng):
    argv = ["oracle-check", "--q", str(q), "--k-max", str(k_max), "--l-max", str(l_max),
            "--mode", "random", "--trials", str(ORACLE_TRIALS), "--seed", str(rng.randrange(2**31))]
    return {"argv": argv, "expect": {"exit": 0, "instances": ORACLE_TRIALS}}


def _round_oracle(rng):
    """15 ops: six exhaustive sweeps and nine seeded random ones."""
    ops = [_oracle_exhaustive(*cell) for cell in ORACLE_EXHAUSTIVE]
    return ops + [_oracle_random(*cell, rng) for cell in ORACLE_RANDOM]


_ROUNDS = {
    "decide-cover": _round_decide_cover,
    "decide-factor": _round_decide_factor,
    "primes": _round_primes,
    "oracle-sweep": _round_oracle,
}


def generate(workload, seed, rounds=None):
    """The op list of `workload` for `seed`: `rounds` shuffled rounds."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(ROUNDS[workload] if rounds is None else rounds):
        batch = _ROUNDS[workload](rng)
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def warmup_op(workload):
    """One fixed, cheap op per workload, run before any timing."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "decide-cover":
        return _cover_op("decide", 3, 4, "yes", rng)
    if workload == "decide-factor":
        return _factor_op("decide", 3, 2, "no", 1, rng)
    if workload == "primes":
        return _primes_op("census", True, 100_000, 3, 4, rng)
    return _oracle_exhaustive(3, 2, 2)
