"""Independent checks of qresidue's JSON answers.

Written with plain ints and ``pow``; nothing here calls qresidue.  Each check
returns None when the answer is right, else a one-line reason.
"""

import json
from bisect import bisect_right
from fractions import Fraction
from math import prod

from inputs import dot, is_prime

# Yes assignments are spot-checked at this many evenly spaced entries.
ASSIGNMENT_SAMPLES = 64


class Mismatch(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


def _normals(exponents, k, l):
    """Columns of the exponent matrix, duplicates collapsed in column order."""
    out = []
    for j in range(l):
        n = tuple(exponents[i][j] for i in range(k))
        if n not in out:
            out.append(n)
    return out


def _check_profile(exp, res):
    q = exp["q"]
    prof = res["profile"]
    primes, E, qfree = prof["support_primes"], prof["exponent_matrix"], prof["qfree_values"]
    _require(primes == exp["support"], f"support primes {primes} != {exp['support']}")
    _require(sorted(qfree) == exp["qfree"], "q-free values differ from the construction")
    k, l = len(primes), len(qfree)
    _require(len(E) == k and all(len(row) == l for row in E), "exponent matrix shape")
    for j in range(l):
        col = [E[i][j] for i in range(k)]
        _require(all(0 <= e < q for e in col) and any(col), f"column {j} not a nonzero F_q vector")
        _require(prod(p**e for p, e in zip(primes, col)) == qfree[j], f"column {j} != its q-free value")
    return q, k, l, E, qfree


def _check_trivial(exp, res):
    cert = res["trivial_certificate"]
    i, b, root = cert["index"], cert["element"], cert["root"]
    _require(i == exp["index"] and b == exp["elements"][i], "trivial certificate names the wrong element")
    _require(root ** exp["q"] == b, "trivial root^q != element")


def _uncovered(E, d, q, k, l):
    return all(sum(E[i][j] * d[i] for i in range(k)) % q for j in range(l))


def check_decision(exp, res, certificate):
    _require(res["verdict"] == exp["verdict"], f"verdict {res['verdict']} != {exp['verdict']}")
    if exp["verdict"] == "trivially_yes":
        return _check_trivial(exp, res)
    q, k, l, E, qfree = _check_profile(exp, res)
    if exp["verdict"] == "yes" and not certificate:
        cov = res["covering"]
        assignment = cov["assignment"]
        _require(cov["points_assigned"] == len(assignment) == q**k - 1, "assignment is not every nonzero point")
        normals = _normals(E, k, l)
        keys = list(assignment)
        step = max(1, len(keys) // ASSIGNMENT_SAMPLES)
        for key in keys[::step] + keys[-1:]:
            v = tuple(map(int, key.split(",")))
            n = normals[assignment[key]]
            _require(len(v) == k and dot(n, v, q) == 0, f"point {key} is not on its assigned normal")
    elif exp["verdict"] == "yes":
        cert = res["skalba_certificate"]
        c, f, e = cert["c"], cert["f"], cert["exponents"]
        _require(len(c) == len(f) == len(e) == l, "certificate vector lengths")
        _require(all(x % q for x in c), "twist c has a zero entry")
        _require(all(ej == cj * fj % q for ej, cj, fj in zip(e, c, f)), "exponents != c*f mod q")
        _require(sum(f) % q != 0, "sum(f) == 0 mod q")
        product = prod(b**ej for b, ej in zip(qfree, e))
        _require(product == cert["product"], "product of b_j^e_j differs")
        _require(cert["root"] ** q == product, "root^q != product")
    else:
        key = "failing_twist" if certificate else "uncovered_witness"
        d = res[key]["d"] if certificate else res[key]
        _require(len(d) == k and _uncovered(E, d, q, k, l), f"witness {d} lies on some hyperplane")
        if certificate:
            c = res[key]["c"]
            row = [sum(E[i][j] * d[i] for i in range(k)) * c[j] % q for j in range(l)]
            _require(len(c) == l and row == [1] * l, "d^T M(c) != (1, ..., 1)")
    return None


class Verifier:
    """Checks one op's exit code and JSON envelope against its expectation.

    Holds a sieve for prime counts, built on first use.
    """

    def __init__(self):
        self._limit = 0
        self._primes = []
        self._split = {}

    def _sieve(self, bound):
        if bound <= self._limit:
            return
        self._limit = max(bound, 10**6)
        flags = bytearray([1]) * (self._limit + 1)
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(self._limit**0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        self._primes = [i for i, f in enumerate(flags) if f]
        self._split = {}

    def _pi(self, bound, q=None):
        self._sieve(bound)
        if q is None:
            return bisect_right(self._primes, bound)
        if q not in self._split:
            self._split[q] = [p for p in self._primes if p % q == 1]
        return bisect_right(self._split[q], bound)

    def _check_failing_prime(self, p, q, elements):
        _require(is_prime(p) and p != q, f"{p} is not a valid prime")
        _require(all(b % p for b in elements), f"{p} divides an element")
        _require(p % q == 1, f"{p} is not 1 mod q")
        _require(all(pow(b, (p - 1) // q, p) != 1 for b in elements), f"some element is a residue mod {p}")

    def check_census(self, exp, res):
        q, elements, bound = exp["q"], exp["elements"], exp["bound"]
        _require(res["bound"] == bound, "bound not echoed")
        excluded = {p for p in range(2, 1000) if is_prime(p) and any(b % p == 0 for b in elements)}
        excluded.add(q)
        _require(res["primes_checked"] + res["excluded_primes"] == self._pi(bound), "prime count != pi(bound)")
        _require(res["excluded_primes"] == len(excluded), "excluded prime count")
        split = self._pi(bound, q) - sum(1 for p in excluded if p % q == 1)
        _require(res["split_primes"] == split, f"split primes {res['split_primes']} != {split}")
        listed = res["failing_primes_truncated"]
        _require(len(listed) == min(res["failing_count"], 25), "failing list length")
        for p in listed:
            self._check_failing_prime(p, q, elements)
        if exp["covering"]:
            _require(res["failing_count"] == 0, "covering set has failing primes")
        empirical = Fraction(res["empirical_density"]["fraction"])
        _require(empirical == Fraction(res["failing_count"], res["primes_checked"]), "empirical density")
        predicted = Fraction(res["predicted_density"]["fraction"])
        _require(predicted == Fraction(exp["predicted"]), f"predicted density {predicted} != {exp['predicted']}")

    def check_scan(self, exp, res):
        p = res["counterexample_prime"]
        _require(p == exp["first_failing"], f"scan returned {p}, expected {exp['first_failing']}")
        if p is not None:
            self._check_failing_prime(p, exp["q"], exp["elements"])
            _require(res["splits"] is True, "failing prime reported as non-split")
            per = res["per_element"]
            _require([x["element"] for x in per] == exp["elements"], "per-element list")
            _require(not any(x["is_residue"] for x in per), "failing prime with a residue")

    def check(self, op, code, stdout):
        """None if (exit code, stdout) is the right answer for op, else why not."""
        exp = op["expect"]
        try:
            _require(code == exp["exit"], f"exit code {code}, expected {exp['exit']}")
            res = json.loads(stdout)["result"]
            cmd = op["argv"][0]
            if cmd in ("decide", "certificate"):
                check_decision(exp, res, cmd == "certificate")
            elif cmd == "census":
                self.check_census(exp, res)
            elif cmd == "scan":
                self.check_scan(exp, res)
            else:
                _require(res["disagreements"] == 0, f"{res['disagreements']} oracle disagreements")
                _require(res["instances_checked"] == exp["instances"], "instance count")
        except Mismatch as e:
            return str(e)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return f"malformed answer: {e!r}"
        return None
