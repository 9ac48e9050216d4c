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
The six commands and their flags are declared once, in COMMANDS.  main parses
a plain argv straight from that table: an optional leading --json, a command
name, then each of its flags at most once, spelled in full, as --flag=value or
as --flag value with a value that does not start with "-", with every
required flag given and every choice valid.  Each flag's converter runs in
argv order, as argparse would run it.  Any other argv (help, an abbreviated or
repeated flag, --set -2,3, an unknown or missing flag) goes to argparse, whose
parser build_parser builds from the same table, and argparse is imported only
then.  Each usage error, argparse's own included, is one bounded "error:"
line on stderr, with no usage text.
--q is converted only to an integer: each command tests that it is an odd
prime once before any answer or refusal that depends on q, at the library
entry it passes through (QInput, the oracle sweeps, or check_q first in
synthesize), and once more for each library door it enters after that: the
QInput of synthesize's self-check, and has_qth_power_mod_p when scan reports
a failing prime (which it tests too).  So an argv with two faults, such as
scan --q 4 --set 2 --bound 1, may be refused for its other fault first, with
exit 2 either way.
"""

import json
import os
import random
import reprlib
import sys
import time
from collections import namedtuple
from functools import cache
from itertools import product
from math import prod
from types import SimpleNamespace

from . import criterion
from .arith import is_probable_prime, power_exceeds
from .covering import CoveringResult, GuardError, check_budget, synthesize_covering
from .criterion import Verdict, decide
from .profiles import QInput, check_count, check_q

SCHEMA_VERSION = "1"
TWIST_ORBIT_LIMIT = 10**5
# Bound on the bytes of text of a Yes assignment (W (q^k - 1), W the entry
# width of _render_assignment) and of the twists of synthesize, each counted
# before it is built.  It admits q = 3, k = 13: on a 2-vCPU VM, Python
# 3.11.7, main() on --json decide of a pencil and 11 padding elements there
# (bound 5.3e7 bytes, 5.1e7 written to /dev/null) takes 0.21-0.25 s and peaks
# at 125 MB RSS: two copies of the text are alive at a time (the buffer and
# the text cut from it, then the text and the bytes written).
ASSIGNMENT_TEXT_LIMIT = 6 * 10**7
# Bound on synthesize --k: the fixture prints k primes and q+1 normals of
# length k.  Finding the first 10^3 odd primes takes 0.2-0.4 ms (timeit, 2-vCPU
# VM, Python 3.11.7), so the bound is on the output, not on that search.
SYNTHESIZE_K_LIMIT = 10**3


class UsageError(Exception):  # no ValueError: argparse rewrites those from a type= converter
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


def _parse_set(text, name="element set", entries="elements"):
    items = (x for x in text.split(",") if x.strip())
    elems = [_parse_int(x, f"{name} entry {i}") for i, x in enumerate(items, 1)]
    if not elems:
        raise UsageError(f"{name} must be nonempty")
    if any(b == 0 for b in elems):
        raise UsageError(f"{entries} must be nonzero")
    return elems


def _parse_twists(text):
    if text == "all":
        return text
    return _parse_int(text, "--twists",
                      f"--twists must be 'all' or an integer, got {reprlib.repr(text)}")


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
    extended-slice assignments.  The buffer starts as one entry with NUL in
    every key and index byte, and takes the coordinates from the last: it is
    repeated q times, and copy d gets digit d in the column of the
    coordinate.  Then the covering's write_labels writes the NUL-padded
    decimal indices into the index bytes, which still hold 0 as its
    precondition asks.  Last, the origin's entry and the last separator are
    cut out, and the NULs too when q > 10 or l > 10: only then is a key or
    an index padded.
    """
    q, k, n, l = covering.q, covering.k, covering.q**covering.k, len(covering.normals)
    keys = [str(d).rjust(len(str(q - 1)), "\0").encode() for d in range(q)]
    labels = [str(i).rjust(len(str(l - 1)), "\0").encode() for i in range(l)]
    entry = b"%s%s%s%s%s" % (head.encode(), b",".join([bytes(len(keys[0]))] * k), mid.encode(),
                             bytes(len(labels[0])), sep.encode())
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
    covering.write_labels(labels, out, width - len(sep) - len(labels[0]), width)
    del out[:width], out[-len(sep) :]  # the origin's entry and the last separator
    if len(keys[0]) > 1 or len(labels[0]) > 1:  # some padding: q > 10 or l > 10
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
        cert = criterion.skalba_solve(profile, args.c or [1] * profile.l)
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
    from . import primescan  # only scan and census load it
    p = primescan.find_counterexample_prime(args.set, args.q, args.bound)
    if p is None:
        return 0, {"counterexample_prime": None, "bound": args.bound}
    report = primescan.has_qth_power_mod_p(args.set, p, args.q)
    if any(r for _, r in report.per_element):
        raise RuntimeError(f"scan's prime {p} has a {args.q}-th power residue in the set")
    return 1, {
        "counterexample_prime": p,
        "splits": report.splits,
        "per_element": [{"element": b, "is_residue": r} for b, r in report.per_element],
    }


def cmd_census(args):
    from . import primescan
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
    check_q(args.q)  # before check_budget, which would answer an even q with a budget message
    check_count("--k", args.k, SYNTHESIZE_K_LIMIT, 2)
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
    # The q+1 pencil normals live on the first two coordinates, so decide()
    # sees k = 2: refuse an over-budget q before building q+1 elements p1^a p2^t.
    check_budget(args.q + 1, 2, args.q)
    normals = synthesize_covering(args.k, args.q)
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
        if power_exceeds(q - 1, len(B), TWIST_ORBIT_LIMIT):
            raise GuardError(f"(q-1)^l = {q - 1}^{len(B)} exceeds orbit limit {TWIST_ORBIT_LIMIT}; "
                             "use --twists N")
        count = (q - 1) ** len(B)
        exponents = product(range(1, q), repeat=len(B))
    else:
        count = args.twists
        check_count("--twists", count, TWIST_ORBIT_LIMIT)
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


# The renderers return the output as a list of strings, with every newline a
# string of its own, as print writes it: a pipe whose reader leaves during a
# long write takes part of it with no error, and only the next write raises
# BrokenPipeError.
def _render_text(envelope):
    """The text form of an envelope: its command, then one "key: value" line
    per entry of its result, a nested dict or list one level deeper.  As in
    YAML, "- " opens each item of a list, and the other lines of a nested
    item sit two spaces deeper."""
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
                if isinstance(item, (dict, list)) and item and not _is_flat(item):
                    start = len(out)
                    emit(item, pad + "  ")
                    out[start] = f"{pad}- {out[start][len(pad) + 2:]}"
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


REQUIRED = object()  # the default of a flag that must be given


# A flag of a command: its name, the converter of its text, its default
# (REQUIRED if it must be given), its choices and its help.
Flag = namedtuple("Flag", "name convert default choices help", defaults=(REQUIRED, None, None))


def _int_flag(name, default=REQUIRED):  # an integer flag, named in its errors
    return Flag(name, lambda text: _parse_int(text, name), default)


_Q, _BOUND, _SEED = _int_flag("--q"), _int_flag("--bound"), _int_flag("--seed", 0)
_SET = Flag("--set", _parse_set)

# Each command: its handler, its help and its flags, in the order of the
# envelope's input and of the help text.
COMMANDS = {
    "decide": (cmd_decide, "verdict + covering certificate or witness", (_Q, _SET)),
    "certificate": (cmd_certificate, "Skalba certificate or failing twist", (
        _Q, _SET, Flag("--c", lambda text: _parse_set(text, "--c", "--c entries"), None,
                       help="twist vector, comma-separated"))),
    "scan": (cmd_scan, "search for a counterexample prime", (_Q, _SET, _BOUND)),
    "census": (cmd_census, "empirical vs predicted failure density", (_Q, _SET, _BOUND)),
    "synthesize": (cmd_synthesize, "generate pencil-covering fixtures", (
        _Q, _int_flag("--k"),
        Flag("--primes", lambda text: _parse_set(text, "--primes", "--primes entries"), None),
        Flag("--twists", _parse_twists, None, help="'all' or a sample count"), _SEED)),
    "oracle-check": (cmd_oracle_check, "covering vs Skalba brute force", (
        _Q, _int_flag("--k-max"), _int_flag("--l-max"),
        Flag("--mode", str, "exhaustive", ("exhaustive", "random")),
        _int_flag("--trials", 200), _SEED)),
}


def _parse_plain(argv):
    """(json, command, values) of a plain argv, or None for any other argv.
    values maps each flag, named as argparse names its dest, to its
    converted value or its default, in the table's order; the converters run
    in argv order, so a bad value raises what argparse would raise first."""
    as_json = argv[:1] == ["--json"]
    command, *rest = (argv[1:] if as_json else argv) or [None]
    if command not in COMMANDS:
        return None
    flags = {flag.name: flag for flag in COMMANDS[command][2]}
    texts = {}
    tokens = iter(rest)
    for token in tokens:
        name, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, "-")  # no value at the end: not plain
            if text.startswith("-"):
                return None
        if name not in flags or name in texts:
            return None
        texts[name] = text
    for flag in flags.values():
        if flag.name not in texts:
            if flag.default is REQUIRED:
                return None
        elif flag.choices and texts[flag.name] not in flag.choices:
            return None
    values = {name: flags[name].convert(text) for name, text in texts.items()}
    return as_json, command, {name[2:].replace("-", "_"): values.get(name, flag.default)
                              for name, flag in flags.items()}


@cache
def build_parser():
    """The argument parser of COMMANDS, built once per process: parse_args()
    keeps no state between calls, and building six subparsers costs more than
    a small op.  Only an argv that is not plain comes here."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse's own usage errors
            if len(message) > 200:  # a long value keeps its head and tail
                message = f"{message[:100]}...{message[-100:]}"
            raise UsageError(message)

    parser = Parser(
        prog="qresidue",
        description="Decide q-th power residues modulo almost every prime "
        "via hyperplane coverings of F_q^k",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag in flags:
            required = flag.default is REQUIRED
            p.add_argument(flag.name, type=flag.convert, required=required,
                           default=None if required else flag.default, choices=flag.choices,
                           help=flag.help)
    return parser


def _parse_args(argv):
    """(json, command, values) of argv as argparse parses it."""
    values = vars(build_parser().parse_args(argv))
    return values.pop("json"), values.pop("command"), values


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        as_json, command, values = _parse_plain(argv) or _parse_args(argv)
        start = time.perf_counter()
        code, result = COMMANDS[command][0](SimpleNamespace(**values))
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "input": {key: val for key, val in values.items() if val is not None},
            "result": result,
            "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
        # rendered in full before the first byte is written
        sys.stdout.writelines(_render_json(envelope) if as_json else _render_text(envelope))
        sys.stdout.flush()
        return code
    except SystemExit as e:  # -h: argparse has printed the help
        return e.code
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
