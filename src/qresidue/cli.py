"""Command-line front end: decide, certificate, scan, census, synthesize, oracle-check.

Human-readable text by default; --json emits a single envelope object
{schema_version, command, input, result, timing_ms} on stdout.  Exit codes:
0 for success/Yes, 1 for a definitive No (or disagreements), 2 for usage and
guard errors (a factoring input over the Pollard rho budget among them), 3 for
an internal error (a failed self-check or any other unexpected exception), 130
when the run is interrupted (Ctrl-C), and 141 when the reader closes stdout
before the output is written (a broken pipe, as 128 + SIGPIPE); the last three
are never a verdict.  An exception raised while the answer is rendered or
written maps to these codes like one raised by the command; the answer is all
rendered before its first byte is written, so a failed rendering writes none.
"""

import argparse
import json
import os
import random
import reprlib
import sys
import time
from functools import cache
from itertools import product
from math import prod

from . import criterion, primescan
from .arith import is_probable_prime
from .covering import CoveringResult, GuardError, check_family, synthesize_covering
from .criterion import Verdict, decide
from .profiles import QInput

SCHEMA_VERSION = "1"
TWIST_ORBIT_LIMIT = 10**5
# Bound on the bytes of text of a Yes assignment (W (q^k - 1), W the entry
# width of _render_assignment) and of the twists of synthesize, each counted
# before it is built.  It admits q = 3, k = 13: on a 2-vCPU VM, Python 3.11,
# main() on --json decide of a pencil and 11 padding elements there (bound
# 5.3e7 bytes, 5.1e7 written to /dev/null) takes 0.29-0.38 s and peaks at
# 125 MB RSS: two copies of the text are alive at a time (the buffer and the
# text cut from it, then the text and the bytes written).
ASSIGNMENT_TEXT_LIMIT = 6 * 10**7
# Bound on synthesize --k: the fixture prints k primes and q+1 normals of
# length k, and the first 10^3 odd primes take about 20 ms to find.
SYNTHESIZE_K_LIMIT = 10**3


class UsageError(ValueError):
    pass


def _parse_int(text, name, malformed=None):
    """int(text), or a UsageError about `name`: that text has more digits
    than Python's int-to-str limit, or else `malformed` (by default, that
    name must be an integer, with text quoted cut short)."""
    try:
        return int(text)
    except ValueError as e:
        digits, limit = text.strip().lstrip("+-").replace("_", ""), sys.get_int_max_str_digits()
        if digits.isdigit() and 0 < limit < len(digits):
            raise UsageError(f"{name} has {len(digits)} digits, over Python's limit of {limit} "
                             "(PYTHONINTMAXSTRDIGITS=0 lifts it)") from e
        raise UsageError(malformed or f"{name} must be an integer, got {reprlib.repr(text)}") from e


def _parse_q(value):
    q = _parse_int(value, "--q")
    if q == 2:
        raise UsageError("q must be an odd prime; q = 2 is out of scope")
    if q < 3 or q % 2 == 0 or not is_probable_prime(q):
        raise UsageError(f"q must be an odd prime, got {q}")
    return q


def _parse_set(text, name, entries):
    items = [x for x in text.split(",") if x.strip()]
    try:
        elems = [int(x) for x in items]
    except ValueError:
        # an entry is not an integer: _parse_int raises the error for the first
        malformed = f"malformed integer list: {reprlib.repr(text)}"
        for i, x in enumerate(items, 1):
            _parse_int(x, f"{name} entry {i}", malformed)
    if not elems:
        raise UsageError(f"{name} must be nonempty")
    if any(b == 0 for b in elems):
        raise UsageError(f"{entries} must be nonzero")
    return elems


def _render_assignment(covering, head, mid, sep):
    """The Yes assignment as text: one entry head + key + mid + index per
    nonzero point of F_q^k in lexicographic order, joined by sep.  The key is
    the point's coordinates joined by commas; the index is that of the
    point's hyperplane.

    No Python object is made per point.  All q^k entries get one width W,
    each coordinate and the index padded on the left with NULs to the width
    of the largest, so the text has at most W (q^k - 1) bytes; over
    ASSIGNMENT_TEXT_LIMIT, that is a GuardError before any buffer is built.
    The entries are one bytearray whose byte columns are written by
    extended-slice assignments.  The buffer starts as the origin's entry and
    takes the coordinates from the last: it is repeated q times, and copy d
    gets digit d in the column of the coordinate.  Byte t of the index is
    the covering's label column t under the NUL-padded decimal indices.  Then
    the origin's entry, the last separator and the NULs are cut out.
    """
    q, k, n, l = covering.q, covering.k, covering.q**covering.k, len(covering.normals)
    keys = [str(d).rjust(len(str(q - 1)), "\0").encode() for d in range(q)]
    labels = [str(i).rjust(len(str(l - 1)), "\0").encode() for i in range(l)]
    entry = b"%s%s%s%s%s" % (head.encode(), b",".join([keys[0]] * k), mid.encode(), labels[0],
                             sep.encode())
    width, step = len(entry), len(keys[0]) + 1
    if width * (n - 1) > ASSIGNMENT_TEXT_LIMIT:
        raise GuardError(f"the assignment of {q}^{k} - 1 points needs up to {width * (n - 1)} "
                         f"bytes of output, over the limit {ASSIGNMENT_TEXT_LIMIT}")
    out = bytearray(entry)
    for at in reversed(range(len(head), len(head) + k * step, step)):
        run = len(out) // width
        out *= q
        for t in range(step - 1):
            out[at + t :: width] = b"".join([key[t : t + 1] * run for key in keys])
    at = width - len(sep) - len(labels[0])
    for t, column in enumerate(covering.label_columns(labels)):
        out[at + t :: width] = column
    del out[:width], out[-len(sep) :]  # the origin's entry and the last separator
    # one statement each, so that at most two copies of the text are alive
    out = out.translate(None, b"\0")
    return out.decode()


def _decision_result(args):
    """(decision, result) for --q/--set; result holds the verdict and either
    the trivial certificate or the residue profile."""
    qinput = QInput(args.q, tuple(args.set))
    decision = decide(qinput)
    result = {"verdict": decision.verdict.value}
    if decision.verdict is Verdict.TRIVIALLY_YES:
        cert = decision.trivial
        result["trivial_certificate"] = {
            "index": cert.index,
            "element": qinput.elements[cert.index],
            "root": cert.root,
        }
        return decision, result
    profile = decision.profile
    result["profile"] = {
        "support_primes": list(profile.support_primes),
        "exponent_matrix": [list(row) for row in profile.exponents],
        "qfree_values": list(profile.qfree_values),
        "provenance": {str(j): b for j, b in profile.provenance.items()},
    }
    return decision, result


def cmd_decide(args):
    decision, result = _decision_result(args)
    if decision.verdict is Verdict.YES:
        covering = decision.covering
        # main() writes the covering's assignment as text in its place
        result["covering"] = {"points_assigned": covering.q**covering.k - 1, "assignment": covering}
    elif decision.verdict is Verdict.NO:
        result["uncovered_witness"] = list(decision.uncovered)
        return 1, result
    return 0, result


def cmd_certificate(args):
    decision, result = _decision_result(args)
    profile = decision.profile
    if decision.verdict is Verdict.YES:
        c = args.c if args.c is not None else [1] * profile.l
        if len(c) != profile.l:
            raise UsageError(
                f"--c must have {profile.l} entries (one per deduplicated column)"
            )
        cert = criterion.skalba_solve(profile, c)
        if cert is None:
            raise RuntimeError("Skalba condition failed on a Yes-instance")
        exponents = [ci * fi % args.q for ci, fi in zip(cert.c, cert.f)]
        result["skalba_certificate"] = {
            "c": list(cert.c),
            "f": list(cert.f),
            "exponents": exponents,
            "product": cert.product,
            "root": cert.root,
            "identity": " * ".join(
                f"{b}^{e}" for b, e in zip(profile.qfree_values, exponents)
            )
            + f" = {cert.product} = {cert.root}^{args.q}",
        }
    elif decision.verdict is Verdict.NO:
        d = decision.uncovered
        c = criterion.counterexample_c(profile, d)
        result["failing_twist"] = {
            "d": list(d),
            "c": list(c),
            "row_combination": [1] * profile.l,
        }
        return 1, result
    return 0, result


def cmd_scan(args):
    p = primescan.find_counterexample_prime(args.set, args.q, args.bound)
    if p is None:
        return 0, {"counterexample_prime": None, "bound": args.bound}
    report = primescan.has_qth_power_mod_p(args.set, p, args.q)
    return 1, {
        "counterexample_prime": p,
        "splits": report.splits,
        "per_element": [{"element": b, "is_residue": r} for b, r in report.per_element],
    }


def cmd_census(args):
    rep = primescan.census(args.set, args.q, args.bound)
    return 0, {
        "bound": rep.bound,
        "primes_checked": rep.primes_checked,
        "excluded_primes": rep.excluded_primes,
        "split_primes": rep.split_primes,
        "failing_count": rep.failing_count,
        "failing_primes_truncated": list(rep.failing_primes),
        "empirical_density": {
            "fraction": str(rep.empirical_density),
            "float": float(rep.empirical_density),
        },
        "predicted_density": {
            "fraction": str(rep.predicted_density),
            "float": float(rep.predicted_density),
            "derived": True,
        },
    }


def cmd_synthesize(args):
    if args.k < 2:
        raise UsageError("k must be >= 2")
    if args.k > SYNTHESIZE_K_LIMIT:
        raise GuardError(f"k = {args.k} exceeds limit {SYNTHESIZE_K_LIMIT}")
    if args.primes is not None:
        primes = args.primes
        if len(primes) < args.k:
            raise UsageError(f"need at least {args.k} primes")
        if len(set(primes)) != len(primes):
            raise UsageError("primes must be distinct")
        for p in primes:
            if not is_probable_prime(p):
                raise UsageError(f"{p} is not prime")
        primes = primes[: args.k]
    else:
        primes = list(criterion.first_odd_primes(args.q, args.k))
    normals = synthesize_covering(args.k, args.q)
    # The pencil lives on the first two coordinates, so decide() sees k = 2:
    # refuse an over-budget q before building q+1 elements p1^a p2^t.
    check_family([n[:2] for n in normals], 2, args.q)
    B = [prod(p**e for p, e in zip(primes, n)) for n in normals]
    decision = decide(QInput(args.q, tuple(B)))
    if decision.verdict is not Verdict.YES:
        raise RuntimeError("synthesized set failed its own covering check")
    result = {
        "primes": primes,
        "normals": [list(n) for n in normals],
        "set": B,
        "verdict": decision.verdict.value,
    }
    if args.twists is None:
        return 0, result
    q = args.q
    if args.twists == "all":
        count = (q - 1) ** len(B)
        if count > TWIST_ORBIT_LIMIT:
            raise GuardError(f"(q-1)^l = {count} exceeds orbit limit; use --twists N")
        exponents = product(range(1, q), repeat=len(B))
    else:
        count = _parse_int(args.twists, "--twists",
                           f"--twists must be 'all' or an integer, got {reprlib.repr(args.twists)}")
        _check_count("--twists", count, TWIST_ORBIT_LIMIT)
        rng = random.Random(args.seed)
        exponents = ([rng.randint(1, q - 1) for _ in B] for _ in range(count))
    # b^a with a <= q-1 is below 2^((q-1) bitlen b): at most (q-1) bitlen(b) / 3 + 1
    # digits, and 2 bytes a power and 8 a twist hold separators, brackets and indent
    size = count * (sum((q - 1) * b.bit_length() // 3 + 3 for b in B) + 8)
    if size > ASSIGNMENT_TEXT_LIMIT:
        raise GuardError(f"{count} twists need up to {size} bytes of output, over the limit "
                         f"{ASSIGNMENT_TEXT_LIMIT}")
    result["twists"] = [[b**a for b, a in zip(B, e)] for e in exponents]
    return 0, result


def cmd_oracle_check(args):
    if args.mode == "exhaustive":
        checked, bad = criterion.oracle_check_exhaustive(args.q, args.k_max, args.l_max)
    else:
        _check_count("--trials", args.trials, criterion.ORACLE_INSTANCE_LIMIT)
        checked, bad = criterion.oracle_check_random(
            args.q, args.k_max, args.l_max, args.trials, args.seed
        )
    result = {
        "mode": args.mode,
        "instances_checked": checked,
        "disagreements": len(bad),
        "disagreeing_columns": [list(map(list, cols)) for cols in bad[:10]],
    }
    return (0 if not bad else 1), result


def _check_count(flag, count, limit):
    if count < 1:
        raise UsageError(f"{flag} must be >= 1")
    if count > limit:
        raise GuardError(f"{flag} {count} exceeds limit {limit}")


# The renderers return the output as a list of strings, with every newline a
# string of its own, as print writes it: a pipe whose reader leaves during a
# long write takes part of it with no error, and only the next write raises
# BrokenPipeError.
def _render_text(envelope):
    """The text form of an envelope: its command, then one "key: value" line
    per entry of its result, a nested dict or list one level deeper."""
    out = [f"command: {envelope['command']}", "\n"]

    def emit(obj, pad):
        if isinstance(obj, dict):
            for key, val in obj.items():
                if isinstance(val, CoveringResult):
                    body = _render_assignment(val, pad + "  ", ": ", "\n")
                    out.extend((f"{pad}{key}:", "\n", body, "\n"))
                elif isinstance(val, (dict, list)) and val and not _is_flat(val):
                    out.extend((f"{pad}{key}:", "\n"))
                    emit(val, pad + "  ")
                else:
                    out.extend((f"{pad}{key}: {val}", "\n"))
        else:
            for item in obj:
                if isinstance(item, (dict, list)) and not _is_flat(item):
                    emit(item, pad)
                else:
                    out.extend((f"{pad}- {item}", "\n"))

    emit(envelope["result"], "")
    return out


def _render_json(envelope):
    """The JSON form of an envelope."""
    coverings = []

    def default(obj):
        if not isinstance(obj, CoveringResult):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        coverings.append(obj)
        return "\0"

    # dumps, not dump: only the one-shot encoder runs in C
    text = json.dumps(envelope, default=default)
    if not coverings:
        return [text, "\n"]
    # The assignment is spliced in at the NUL that stands for it, which dumps
    # writes as "\u0000"; no other string of a decide envelope holds a NUL.
    head, _, tail = text.partition('"\\u0000"')
    return [head + "{", _render_assignment(coverings[0], '"', '": ', ", "), "}" + tail, "\n"]


def _is_flat(val):
    return isinstance(val, list) and all(not isinstance(x, (dict, list)) for x in val)


@cache
def build_parser():
    """The argument parser, built once per process: parse_args() keeps no
    state between calls, and building six subparsers costs more than a small
    op."""
    parser = argparse.ArgumentParser(
        prog="qresidue",
        description="Decide q-th power residues modulo almost every prime "
        "via hyperplane coverings of F_q^k",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("decide", cmd_decide, help="verdict + covering certificate or witness")
    p.add_argument("--q", required=True)
    p.add_argument("--set", required=True)

    p = add("certificate", cmd_certificate, help="Skalba certificate or failing twist")
    p.add_argument("--q", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--c", default=None, help="twist vector, comma-separated")

    p = add("scan", cmd_scan, help="search for a counterexample prime")
    p.add_argument("--q", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--bound", required=True)

    p = add("census", cmd_census, help="empirical vs predicted failure density")
    p.add_argument("--q", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--bound", required=True)

    p = add("synthesize", cmd_synthesize, help="generate pencil-covering fixtures")
    p.add_argument("--q", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--primes", default=None)
    p.add_argument("--twists", default=None, help="'all' or a sample count")
    p.add_argument("--seed", default=0)

    p = add("oracle-check", cmd_oracle_check, help="covering vs Skalba brute force")
    p.add_argument("--q", required=True)
    p.add_argument("--k-max", dest="k_max", required=True)
    p.add_argument("--l-max", dest="l_max", required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--trials", default=200)
    p.add_argument("--seed", default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        args.q = _parse_q(args.q)
        # integer flags, parsed here and not by argparse, which quotes a bad value whole
        for flag in ("--bound", "--k", "--trials", "--seed", "--k-max", "--l-max"):
            attr = flag[2:].replace("-", "_")
            if getattr(args, attr, None) is not None:
                setattr(args, attr, _parse_int(getattr(args, attr), flag))
        # integer lists: (attribute, name of the list, name of its entries)
        for attr, name, entries in (
            ("set", "element set", "elements"),
            ("c", "--c", "--c entries"),
            ("primes", "--primes", "--primes entries"),
        ):
            if getattr(args, attr, None) is not None:
                setattr(args, attr, _parse_set(getattr(args, attr), name, entries))
        start = time.perf_counter()
        code, result = args.func(args)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "input": {
                key: val
                for key, val in vars(args).items()
                if key not in ("func", "json", "command") and val is not None
            },
            "result": result,
            "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
        # rendered in full before the first byte is written
        sys.stdout.writelines(_render_json(envelope) if args.json else _render_text(envelope))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, GuardError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as e:  # a failed self-check or any other crash: never a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
