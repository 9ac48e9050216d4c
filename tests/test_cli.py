import json
import os
import random
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_covering import pencil_owner

from qresidue import arith, cli, covering, criterion, profiles
from qresidue.arith import coprime_base
from qresidue.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    envelope = json.loads(out) if out else None
    return code, envelope, err


def test_decide_yes(capsys):
    code, env, _ = run_json(capsys, "decide", "--q", "3", "--set", "2,3,6,12")
    assert code == 0
    assert env["schema_version"] == "1"
    assert env["command"] == "decide"
    assert env["result"]["verdict"] == "yes"
    assert env["result"]["covering"]["points_assigned"] == 8
    assert "timing_ms" in env


def test_decide_no(capsys):
    code, env, _ = run_json(capsys, "decide", "--q", "3", "--set", "2,3,6")
    assert code == 1
    assert env["result"]["verdict"] == "no"
    assert env["result"]["uncovered_witness"] == [1, 1]


def test_decide_splits_a_strong_pseudoprime_to_twelve_bases(capsys):
    # psi_12 passes Miller-Rabin to the first twelve prime bases
    code, env, _ = run_json(capsys, "decide", "--q", "3", "--set", "318665857834031151167461,2")
    assert code == 1 and env["result"]["verdict"] == "no"
    assert env["result"]["profile"]["support_primes"] == [2, 399165290221, 798330580441]


def test_decide_trivial(capsys):
    code, env, _ = run_json(capsys, "decide", "--q", "3", "--set", "5,-27")
    assert code == 0
    assert env["result"]["verdict"] == "trivially_yes"
    assert env["result"]["trivial_certificate"]["root"] == -3


def test_decide_guards(capsys):
    code, _, err = run(capsys, "decide", "--q", "2", "--set", "2,3")
    assert code == 2 and "odd prime" in err
    code, _, err = run(capsys, "decide", "--q", "3", "--set", "2,x")
    assert code == 2
    code, _, err = run(capsys, "decide", "--q", "3", "--set", "2,0")
    assert code == 2


def test_certificate_yes(capsys):
    code, env, _ = run_json(capsys, "certificate", "--q", "3", "--set", "2,3,6,12")
    assert code == 0
    cert = env["result"]["skalba_certificate"]
    assert cert["f"] == [2, 2, 1, 0]
    assert cert["product"] == 216 and cert["root"] == 6
    assert sum(cert["f"]) % 3 != 0


def test_certificate_no(capsys):
    code, env, _ = run_json(capsys, "certificate", "--q", "3", "--set", "2,3,6")
    assert code == 1
    twist = env["result"]["failing_twist"]
    assert twist == {"d": [1, 1], "c": [1, 1, 2], "row_combination": [1, 1, 1]}


def test_certificate_trivial(capsys):
    code, env, _ = run_json(capsys, "certificate", "--q", "3", "--set", "8,5")
    assert code == 0
    assert env["result"]["trivial_certificate"] == {"index": 0, "element": 8, "root": 2}


def test_scan(capsys):
    code, env, _ = run_json(capsys, "scan", "--q", "3", "--set", "2,3,6", "--bound", "100")
    assert code == 1
    assert env["result"]["counterexample_prime"] == 13
    code, env, _ = run_json(capsys, "scan", "--q", "3", "--set", "2", "--bound", "10")
    assert code == 1 and env["result"]["counterexample_prime"] == 7
    code, env, _ = run_json(
        capsys, "scan", "--q", "3", "--set", "2,3,6,12", "--bound", "100000"
    )
    assert code == 0 and env["result"]["counterexample_prime"] is None


def test_scan_bound_guard(capsys):
    for command in ("scan", "census"):
        code, out, err = run(capsys, command, "--q", "3", "--set", "2", "--bound", str(10**8))
        assert (code, out, err) == (2, "", "error: --bound 100000000 exceeds limit 10000000\n")
        code, out, err = run(capsys, command, "--q", "3", "--set", "2", "--bound", "1")
        assert (code, out, err) == (2, "", "error: --bound must be >= 2\n")
    # census --bound 2 answers: its one prime, 2, divides the element
    code, env, _ = run_json(capsys, "census", "--q", "3", "--set", "2", "--bound", "2")
    assert code == 0
    assert (env["result"]["primes_checked"], env["result"]["excluded_primes"]) == (0, 1)


def test_census(capsys):
    code, env, _ = run_json(capsys, "census", "--q", "3", "--set", "2", "--bound", "10000")
    assert code == 0
    result = env["result"]
    assert result["predicted_density"]["fraction"] == "1/3"
    assert abs(result["empirical_density"]["float"] - 1 / 3) < 0.05


def test_synthesize(capsys):
    code, env, _ = run_json(capsys, "synthesize", "--q", "3", "--k", "2", "--primes", "3,2")
    assert code == 0
    assert env["result"]["set"] == [3, 2, 6, 12]
    assert env["result"]["verdict"] == "yes"

    code, env, _ = run_json(capsys, "synthesize", "--q", "5", "--k", "2")
    assert code == 0 and len(env["result"]["set"]) == 6

    # the default primes: the first k odd primes other than q
    for q, primes in (("3", [5, 7, 11]), ("5", [3, 7, 11])):
        code, env, _ = run_json(capsys, "synthesize", "--q", q, "--k", "3")
        assert code == 0 and env["result"]["primes"] == primes

    # every --primes entry is checked, also those past the first k
    for primes, message in (("5,7,4,4,-9", "must be distinct"), ("5,7,4,-9", "4 is not prime"),
                            ("5,7,-9", "-9 is not prime")):
        code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--primes", primes)
        assert code == 2 and out == "" and message in err


def test_synthesize_mask_work_budget(capsys, monkeypatch):
    # 1010 masks of 1009^2 bits: refused before any mask is built
    def unbuilt(normal, q):
        raise AssertionError("zero mask built")

    monkeypatch.setattr(covering, "zero_mask", unbuilt)
    code, out, err = run(capsys, "synthesize", "--q", "1009", "--k", "2")
    assert code == 2 and out == ""
    assert err.strip() == "error: l q^(k+1) = 1010 * 1009^3 exceeds mask work limit 5000000000"


def test_synthesize_refuses_over_budget_q_before_building_the_set(capsys, monkeypatch):
    # 9974 elements p1^a p2^t with t up to 9972 would take minutes to profile
    def unprofiled(qinput):
        raise AssertionError("set profiled")

    monkeypatch.setattr(profiles, "piece_exponents", unprofiled)
    code, out, err = run(capsys, "synthesize", "--q", "9973", "--k", "2")
    assert code == 2 and out == ""
    assert err.strip() == "error: l q^(k+1) = 9974 * 9973^3 exceeds mask work limit 5000000000"


def test_synthesize_budget_counts_only_the_pencil_coordinates(capsys):
    # the padding primes divide no element, so the set is decided at k = 2:
    # 3^20 points would be over the point budget, 3^2 are not
    code, env, _ = run_json(capsys, "synthesize", "--q", "3", "--k", "20")
    assert code == 0 and env["result"]["verdict"] == "yes"
    assert len(env["result"]["primes"]) == 20


def test_synthesize_k_budget(capsys, monkeypatch):
    # an over-budget k is refused before a single prime is looked for
    def unsearched(q, k):
        raise AssertionError("primes searched")

    monkeypatch.setattr(criterion, "first_odd_primes", unsearched)
    code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "1001")
    assert code == 2 and out == ""
    assert err.strip() == "error: --k 1001 exceeds limit 1000"


def test_synthesize_twists(capsys):
    code, env, _ = run_json(
        capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "all"
    )
    assert code == 0
    assert len(env["result"]["twists"]) == 2**4
    assert env["result"]["set"] in env["result"]["twists"]


def test_oracle_check(capsys):
    code, env, _ = run_json(
        capsys, "oracle-check", "--q", "3", "--k-max", "2", "--l-max", "3",
        "--mode", "exhaustive",
    )
    assert code == 0 and env["result"]["disagreements"] == 0
    code, env, _ = run_json(
        capsys, "oracle-check", "--q", "3", "--k-max", "1", "--l-max", "1",
        "--mode", "exhaustive",
    )
    assert code == 0 and env["result"]["disagreements"] == 0


def test_list_usage_errors_name_their_flag(capsys):
    code, out, err = run(capsys, "certificate", "--q", "3", "--set", "2,3,6,12", "--c", "0,1,1,1")
    assert code == 2 and out == "" and err.strip() == "error: --c entries must be nonzero"
    code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--primes", ",")
    assert code == 2 and out == "" and err.strip() == "error: --primes must be nonempty"
    code, _, err = run(capsys, "decide", "--q", "3", "--set", ",")
    assert code == 2 and err.strip() == "error: element set must be nonempty"


@pytest.mark.parametrize("argv, message", [
    (("certificate", "--q", "3", "--set", "2,3,6,12", "--c", "1,1"),
     "--c must have 4 entries (one per deduplicated column)"),
    (("synthesize", "--q", "3", "--k", "1"), "--k must be >= 2"),
    (("synthesize", "--q", "3", "--k", "3", "--primes", "5,7"), "need at least 3 primes"),
    (("synthesize", "--q", "7", "--k", "2", "--twists", "all"),
     "(q-1)^l = 6^8 exceeds orbit limit 100000; use --twists N"),
    # the largest q whose pencil the mask budget admits: the orbit's value
    # has 639 digits, so the message names its power
    (("synthesize", "--q", "263", "--k", "2", "--twists", "all"),
     "(q-1)^l = 262^264 exceeds orbit limit 100000; use --twists N"),
], ids=["c-entries", "k", "primes", "twists-all", "twists-all-263"])
def test_command_refusals_keep_their_message(capsys, argv, message):
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, *json_flag, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 100


@pytest.mark.parametrize("argv, code, out", [
    (("decide", "--set", "2"), 2, ""),
    (("decide", "--set", "1,2"), 0, "command: decide\nverdict: trivially_yes\ntrivial_certificate:\n"
                                    "  index: 0\n  element: 1\n  root: 1\n"),
    (("census", "--set", "2", "--bound", "100"), 2, ""),
    (("scan", "--set", "2,3", "--bound", "100"), 0, "command: scan\ncounterexample_prime: None\n"
                                                   "bound: 100\n"),
], ids=["decide-no-root", "decide-trivial", "census", "scan"])
def test_a_large_q_answers_without_a_power_of_q_bits(capsys, argv, code, out):
    # 2 < 2^q has no q-th root, decided by bit length: before that test each
    # of these took 6-15 s and over 400 MB, in a power 2^(q-1)
    got = run(capsys, argv[0], "--q", "1000000007", *argv[1:])
    err = "" if code == 0 else "error: q^k = 1000000007^1 exceeds enumeration limit 100000000\n"
    assert got == (code, out, err)


def test_integer_usage_errors_name_their_flag(capsys):
    code, out, err = run(capsys, "decide", "--q", "abc", "--set", "2")
    assert code == 2 and out == "" and err.strip() == "error: --q must be an integer, got 'abc'"
    code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "abc")
    assert code == 2 and out == ""
    assert err.strip() == "error: --twists must be 'all' or an integer, got 'abc'"


@pytest.mark.parametrize("argv, code", [
    (("decide", "--set", "2"), 2),
    (("certificate", "--set", "2"), 2),
    (("scan", "--set", "2,3", "--bound", "100"), 0),
    (("census", "--set", "2", "--bound", "100"), 2),
    (("oracle-check", "--k-max", "1", "--l-max", "1"), 2),
    (("synthesize", "--k", "2"), 2),
], ids=["decide", "certificate", "scan", "census", "oracle-check", "synthesize"])
def test_each_command_tests_q_for_primality_once(capsys, monkeypatch, argv, code):
    q = 2**521 - 1
    calls = []

    def counted(n):
        calls.append(n)
        return arith.is_probable_prime(n)

    monkeypatch.setattr(profiles, "is_probable_prime", counted)
    got, out, err = run(capsys, argv[0], "--q", str(q), *argv[1:])
    assert got == code and calls.count(q) == 1
    # a refusal names q as check_q does, cut short: no 157-digit line
    assert len(err.encode()) < 200
    if argv[0] in ("decide", "certificate"):
        assert err == ("error: q^k = 686479766013060971...2574028291115057151^1 exceeds "
                       "enumeration limit 100000000\n")


@pytest.mark.parametrize("argv", [
    ("decide", "--set", "2"),
    ("certificate", "--set", "2,3,6,12"),
    ("scan", "--set", "2,3", "--bound", "100"),
    ("census", "--set", "2", "--bound", "100"),
    ("oracle-check", "--k-max", "1", "--l-max", "1"),
    ("synthesize", "--k", "2"),
], ids=["decide", "certificate", "scan", "census", "oracle-check", "synthesize"])
@pytest.mark.parametrize("q", ["4", "9", "1", "-3", "100000000000000000000"])
def test_every_command_refuses_a_q_that_is_no_odd_prime(capsys, argv, q):
    # synthesize at q = 10^20 is also past the mask budget: check_q comes first
    for json_flag in ((), ("--json",)):
        got = run(capsys, *json_flag, argv[0], "--q", q, *argv[1:])
        assert got == (2, "", f"error: q must be an odd prime, got {q}\n")


def test_repeated_calls_share_no_state(capsys):
    # the parser is built once per process; each call still parses afresh
    assert cli.build_parser() is cli.build_parser()
    code, env, _ = run_json(capsys, "certificate", "--q", "3", "--set", "2,3,6,12", "--c", "1,2,1,1")
    assert code == 0 and env["result"]["skalba_certificate"]["c"] == [1, 2, 1, 1]
    code, env, _ = run_json(capsys, "certificate", "--q", "3", "--set", "2,3,6,12")
    assert code == 0 and env["result"]["skalba_certificate"]["c"] == [1, 1, 1, 1]
    assert env["input"] == {"q": 3, "set": [2, 3, 6, 12]}
    code, out, _ = run(capsys, "decide", "--q", "3", "--set", "2,3,6")
    assert code == 1 and out.startswith("command: decide\n")
    code, env, _ = run_json(capsys, "synthesize", "--q", "5", "--k", "2")
    assert code == 0 and env["input"] == {"q": 5, "k": 2, "seed": 0}


def test_closed_pipe_is_not_a_verdict():
    # A reader that stops after one byte: the rest of the output meets a
    # broken pipe, which must exit 141 without a traceback, not 1 ("No").
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = ["--json", "synthesize", "--q", "5", "--k", "3", "--twists", "20000"]
    with subprocess.Popen(
        [sys.executable, "-m", "qresidue.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        try:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 141
            assert err == b""
        finally:  # a failed assert leaves no child for a later test to reap
            proc.kill()
            proc.wait(timeout=60)


def test_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    # stdout a pipe whose reader is gone: the devnull descriptor that takes
    # its place is closed again
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        code = main(["decide", "--q", "3", "--set", "2,3,6"])
        after = len(os.listdir("/proc/self/fd"))
    assert code == 141 and after == before


@pytest.mark.parametrize("mode", [("--json",), ()])
@pytest.mark.parametrize(
    "error, expected", [(ValueError, 2), (RuntimeError, 3), (KeyboardInterrupt, 130), (MemoryError, 3)]
)
def test_render_failure_is_not_a_verdict(capsys, monkeypatch, mode, error, expected):
    # the answer is rendered after the command has run; an exception there
    # ends like one in the command, before a byte reaches stdout
    def broken(covering, head, tail, sep):
        raise error("render failed")

    monkeypatch.setattr(cli, "_render_assignment", broken)
    code, out, err = run(capsys, *mode, "decide", "--q", "3", "--set", "2,3,6,12")
    assert code == expected and out == ""
    assert err.strip() == {
        2: "error: render failed",
        3: f"internal error: {error.__name__}: render failed",
        130: "interrupted",
    }[expected]


@pytest.fixture
def digit_limit():
    # Python's default limit on the digits of an int converted to or from text
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_an_entry_over_the_digit_limit_is_named(capsys, digit_limit):
    code, out, err = run(capsys, "decide", "--q", "3", "--set", "2," + "7" * 5000)
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: element set entry 2 has 5000 digits, over Python's limit of 4300 "
        "(PYTHONINTMAXSTRDIGITS=0 lifts it)"
    )
    code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--primes", "3,x" + "7" * 5000)
    assert code == 2 and out == "" and len(err.encode()) < 300
    assert err.startswith("error: --primes entry 2 must be an integer, got 'x777")
    code, out, err = run(capsys, "decide", "--q", "7" * 5000, "--set", "2")
    assert code == 2 and out == ""
    assert err == (
        "error: --q has 5000 digits, over Python's limit of 4300 (PYTHONINTMAXSTRDIGITS=0 lifts it)\n"
    )


SEVENS = "7" * 5000


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--q", ("decide", "--q", SEVENS + "x", "--set", "2")),
        ("--bound", ("scan", "--q", "3", "--set", "2", "--bound", SEVENS)),
        ("--k", ("synthesize", "--q", "3", "--k", SEVENS)),
        ("--trials", ("oracle-check", "--q", "3", "--k-max", "2", "--l-max", "2",
                      "--mode", "random", "--trials", SEVENS)),
        ("--twists", ("synthesize", "--q", "3", "--k", "2", "--twists", SEVENS)),
    ],
)
def test_an_over_long_integer_flag_is_named_briefly(capsys, digit_limit, flag, argv):
    # the error names the flag and quotes at most a bounded part of its value
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.encode()) < 300
    if argv[-1] == SEVENS:
        assert err == (f"error: {flag} has 5000 digits, over Python's limit of 4300 "
                       "(PYTHONINTMAXSTRDIGITS=0 lifts it)\n")
    else:
        assert err.startswith(f"error: {flag} must be an integer, got '7777")


@pytest.mark.parametrize("mode", [("--json",), ()])
@pytest.mark.parametrize(
    "named, argv",
    [
        ("command", (SEVENS,)),
        ("unrecognized arguments: 7777", ("decide", "--q", "3", "--set", "2", SEVENS)),
        ("--mode", ("oracle-check", "--q", "3", "--k-max", "2", "--l-max", "2", "--mode", SEVENS)),
        ("--set", ("decide", "--q", "3")),
    ],
    ids=["command", "extra-argument", "--mode", "missing--set"],
)
def test_an_argparse_usage_error_is_one_brief_line(capsys, mode, named, argv):
    # argparse's own usage errors leave through main's handler: no usage
    # text, and a long value quoted by its head and tail only
    code, out, err = run(capsys, *mode, *argv)
    assert code == 2 and out == "" and len(err.encode()) < 300
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_help_exits_zero(capsys):
    for argv in (("-h",), ("decide", "-h")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: qresidue") and err == ""


@pytest.mark.parametrize("mode", [("--json",), ()])
def test_an_answer_over_the_digit_limit_is_a_usage_error(capsys, digit_limit, mode):
    # one twist of the q = 89 pencil holds powers of about 5,400 digits
    code, out, err = run(capsys, *mode, "synthesize", "--q", "89", "--k", "2", "--twists", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: Exceeds the limit (4300 digits)")


def test_a_certificate_product_over_the_digit_limit_is_a_usage_error(capsys, digit_limit):
    # the q = 13 pencil P1, P2, P1 P2^t over the Mersenne primes 2^521 - 1 and
    # 2^607 - 1: every element has under 2,400 digits, the Skalba product 4,415
    p1, p2 = 2**521 - 1, 2**607 - 1
    elements = [p1, p2] + [p1 * p2**t for t in range(1, 13)]
    assert max(len(str(b)) for b in elements) < 2400
    argv = ("--q", "13", "--set", ",".join(map(str, elements)))
    code, env, _ = run_json(capsys, "decide", *argv)
    assert code == 0 and env["result"]["verdict"] == "yes"
    code, out, err = run(capsys, "--json", "certificate", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: Exceeds the limit (4300 digits)")


def test_synthesize_twist_size_budget(capsys, monkeypatch):
    # 10^5 twists of 90 powers of up to about 18,000 bits: refused before a
    # single exponent is drawn
    def undrawn(self, a, b):
        raise AssertionError("twist exponent drawn")

    monkeypatch.setattr(random.Random, "randint", undrawn)
    code, out, err = run(capsys, "synthesize", "--q", "89", "--k", "2", "--twists", "100000")
    assert code == 2 and out == ""
    assert err.startswith("error: 100000 twists need up to ")
    assert err.strip().endswith(f"bytes of output, over the limit {cli.ASSIGNMENT_TEXT_LIMIT}")


def test_synthesize_twist_size_bound(capsys, monkeypatch):
    # The bound is over the twists' text in both modes, and --twists all is
    # under it too.  q = 3 over 5 and 7: 16 twists of 5^a, 7^a, 35^a, 245^a,
    # a <= 2, each bounded by 5 + 5 + 7 + 8 bytes and 8 more.
    code, env, _ = run_json(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "all")
    assert code == 0 and len(json.dumps(env["result"]["twists"])) <= 16 * 33
    code, out, _ = run(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "all")
    assert code == 0 and len(out.partition("twists:\n")[2]) <= 16 * 33
    monkeypatch.setattr(cli, "ASSIGNMENT_TEXT_LIMIT", 16 * 33 - 1)
    code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "all")
    assert code == 2 and out == ""
    assert err.strip() == "error: 16 twists need up to 528 bytes of output, over the limit 527"


def test_text_output_default(capsys):
    code, out, _ = run(capsys, "decide", "--q", "3", "--set", "2,3,6")
    assert code == 1
    assert "verdict: no" in out
    assert "uncovered_witness: [1, 1]" in out


def test_text_output_opens_each_list_item(capsys):
    # as in YAML, "- " opens each item of a list, so the items of a list of
    # dicts, or of lists, do not run together
    code, out, _ = run(capsys, "scan", "--q", "3", "--set", "7,13", "--bound", "100")
    assert code == 1
    assert out == ("command: scan\ncounterexample_prime: 31\nsplits: True\nper_element:\n"
                   "  - element: 7\n    is_residue: False\n"
                   "  - element: 13\n    is_residue: False\n")
    envelope = {"command": "oracle-check",
                "result": {"disagreements": 2, "disagreeing_columns": [[[1, 0], [0, 1]], [[1, 1]]]}}
    assert "".join(cli._render_text(envelope)) == (
        "command: oracle-check\ndisagreements: 2\ndisagreeing_columns:\n"
        "  - - [1, 0]\n    - [0, 1]\n  - - [1, 1]\n")


def _reference_covering(covering):
    # the assignment as a dict with one "x1,...,xk" key per nonzero point
    digits = [str(x) for x in range(covering.q)]
    keys = islice(map(",".join, product(digits, repeat=covering.k)), 1, None)
    assignment = covering.assignment
    return {"points_assigned": len(assignment), "assignment": dict(zip(keys, assignment))}


def _reference_text(result):
    # the generic text printer, which writes a dict as one "key: value" line
    # per entry, one level deeper
    lines = []

    def flat(val):
        return "[" + ", ".join(map(str, val)) + "]" if isinstance(val, list) else str(val)

    def is_flat(val):
        return isinstance(val, list) and all(not isinstance(x, (dict, list)) for x in val)

    def emit(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key, val in obj.items():
                if isinstance(val, (dict, list)) and val and not is_flat(val):
                    lines.append(f"{pad}{key}:")
                    emit(val, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {flat(val)}")
        else:
            for item in obj:
                lines.append(f"{pad}- {flat(item)}" if is_flat(item) else f"{pad}- {item}")

    emit(result, 0)
    return "".join(line + "\n" for line in lines)


def _assert_yes_output_matches_the_dict_reference(capsys, monkeypatch, q, elements):
    argv = ("decide", "--q", str(q), "--set", ",".join(map(str, elements)))
    covering = criterion.decide(profiles.QInput(q, tuple(elements))).covering
    expected = _reference_covering(covering)

    # the CLI writes the text with the covering's write_labels and never
    # builds the index array that covering.assignment reads
    def unbuilt(self):
        raise AssertionError("the index array was built")

    monkeypatch.setattr("qresidue.covering.CoveringResult.assignment", property(unbuilt))
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    env = json.loads(out)
    env["result"]["covering"] = expected
    assert out == json.dumps(env) + "\n"

    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "command: decide\n" + _reference_text(env["result"])
    return expected


@pytest.mark.parametrize(
    "q, k, padding_first",
    [(3, 2, False), (3, 5, False), (3, 7, True), (3, 10, True), (5, 3, True), (5, 5, False),
     (7, 2, False), (7, 5, True), (11, 2, False), (11, 3, True), (13, 3, True), (101, 2, False)],
)
def test_yes_output_matches_the_dict_reference(capsys, monkeypatch, q, k, padding_first):
    # a pencil on the first two primes and one padding element per further
    # prime; with padding first, the pencil's indices reach 10 and more.  At
    # q = 101 the coordinates and the indices have 1 to 3 digits.
    p = criterion.first_odd_primes(q, k)
    pencil = [p[0], p[1]] + [p[0] * p[1] ** t for t in range(1, q)]
    elements = list(p[2:]) + pencil if padding_first else pencil + list(p[2:])
    expected = _assert_yes_output_matches_the_dict_reference(capsys, monkeypatch, q, elements)
    if len(elements) > 10:
        assert max(expected["assignment"].values()) >= 10


@pytest.mark.parametrize("elements", [[2, 3, 6, 18, 4, 9], [4, 3, 2, 6, 18], [2, 4, 3, 6, 18, 12]])
def test_yes_output_with_idle_normals_matches_the_dict_reference(capsys, monkeypatch, elements):
    # 2, 4 = 2^2, 18 = 2 * 3^2 and 12 = 2^2 * 3 have the normals (1, 0),
    # (2, 0), (1, 2) and (2, 1): a scalar multiple of an earlier normal owns
    # no point
    expected = _assert_yes_output_matches_the_dict_reference(capsys, monkeypatch, 3, elements)
    assert set(expected["assignment"].values()) < set(range(len(elements)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_rendered_assignment_matches_the_dict_reference(data):
    # a pencil and random further normals, in random order: the indices run
    # to 1-3 digits and some normals own no point
    q = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    k = data.draw(st.integers(2, {3: 6, 5: 4, 7: 3}.get(q, 2)))
    normal = st.tuples(*[st.integers(0, q - 1)] * k).filter(any)
    size = data.draw(st.sampled_from([0, 5, 105]))
    extra = data.draw(st.lists(normal, min_size=size, max_size=size))
    normals = data.draw(st.permutations(covering.synthesize_covering(k, q) + extra))
    result = covering.covers(normals, k, q)
    envelope = {"schema_version": "1", "command": "decide", "input": {"q": q},
                "result": {"verdict": "yes", "covering": {"points_assigned": q**k - 1, "assignment": result}},
                "timing_ms": 1.0}
    reference = dict(envelope, result={"verdict": "yes", "covering": _reference_covering(result)})
    assert "".join(cli._render_json(envelope)) == json.dumps(reference) + "\n"
    assert "".join(cli._render_text(envelope)) == "command: decide\n" + _reference_text(reference["result"])


@pytest.mark.parametrize("q, elements", [
    (3, [5, 7, 35, 245, 11, 13]),  # l = 6: no key or index is padded
    (3, [5, 7, 35, 245, 11, 13, 17, 19, 23, 29, 31]),  # l = 11: each index is padded to 2 digits
    (11, [3, 5, *[3 * 5**t for t in range(1, 11)]]),  # keys and indices are padded
])
def test_padded_and_unpadded_texts_match_the_dict_reference(capsys, monkeypatch, q, elements):
    expected = _assert_yes_output_matches_the_dict_reference(capsys, monkeypatch, q, elements)
    # only the q + 1 pencil normals own points
    assert set(expected["assignment"].values()) == set(range(q + 1))


def test_q_257_pencil_text_matches_the_closed_form_owners(capsys):
    # 258 owners cross the 255-owner group boundary; the keys and the indices
    # are both padded to 3 digits
    q = 257
    argv = ("decide", "--q", str(q), "--set", ",".join(map(str, [3, 5, *[3 * 5**t for t in range(1, q)]])))
    assignment = {f"{x1},{x2}": pencil_owner(x1, x2, q)
                  for x1, x2 in islice(product(range(q), repeat=2), 1, None)}
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    env = json.loads(out)
    assert env["result"]["covering"]["assignment"] == assignment
    env["result"]["covering"] = {"points_assigned": q**2 - 1, "assignment": assignment}
    assert out == json.dumps(env) + "\n"
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert text == "command: decide\n" + _reference_text(env["result"])


@pytest.mark.parametrize("copies", [300, 70_000])
def test_rendered_wide_indices_match_the_per_point_reference(copies):
    # copies of the pencil's first normal, then the pencil: the later copies
    # own no point, and the pencil's owners have indices over 255 or 65,535
    # (2- or 3-byte labels in the library's array, 3 or 5 digits here)
    q = 3
    normals = [(1, 0)] * copies + covering.synthesize_covering(2, q)
    result = covering.covers(normals, 2, q)
    assignment = {
        f"{x},{y}": next(i for i, (a, b) in enumerate(normals) if (a * x + b * y) % q == 0)
        for x, y in islice(product(range(q), repeat=2), 1, None)
    }
    assert max(assignment.values()) == copies + 3
    envelope = {"schema_version": "1", "command": "decide", "input": {"q": q},
                "result": {"verdict": "yes", "covering": {"points_assigned": 8, "assignment": result}},
                "timing_ms": 1.0}
    reference = dict(envelope, result={"verdict": "yes",
                                       "covering": {"points_assigned": 8, "assignment": assignment}})
    assert "".join(cli._render_json(envelope)) == json.dumps(reference) + "\n"
    assert "".join(cli._render_text(envelope)) == "command: decide\n" + _reference_text(reference["result"])


def test_yes_assignment_output_budget(capsys, monkeypatch):
    # q = 3, k = 13 is admitted; k = 14 (4.8e6 points) is refused before any
    # label is written.  The bound is W (3^k - 1), W the entry width of
    # the mode: k digits, k - 1 commas, a 2-digit index, and 7 bytes of
    # indent, ": " and newline in text, 6 of quotes, '": ' and ", " in JSON.
    built = []
    write_labels = covering.CoveringResult.write_labels

    def recorded(self, *args):
        built.append(self.k)
        return write_labels(self, *args)

    def decide_pencil(k, *mode):
        p = criterion.first_odd_primes(3, k)
        elements = [p[0], p[1], p[0] * p[1], p[0] * p[1] ** 2, *p[2:]]
        return run(capsys, *mode, "decide", "--q", "3", "--set", ",".join(map(str, elements)))

    monkeypatch.setattr(covering.CoveringResult, "write_labels", recorded)
    code, out, _ = decide_pencil(13, "--json")
    # the envelope up to its 1.6e6-entry assignment
    head = out.partition(', "covering": ')[0] + "}}"
    assert code == 0 and built == [13] and json.loads(head)["result"]["verdict"] == "yes"
    del out
    for mode, extra in ((("--json",), 6), ((), 7)):
        code, out, err = decide_pencil(14, *mode)
        assert code == 2 and out == "" and built == [13]
        size = (3**14 - 1) * (14 + 13 + 2 + extra)
        assert err.strip() == (
            f"error: the assignment of 3^14 - 1 points needs up to {size} bytes of output, "
            f"over the limit {cli.ASSIGNMENT_TEXT_LIMIT}"
        )


@pytest.mark.parametrize(
    "error", [RuntimeError, AssertionError, KeyError, IndexError, ZeroDivisionError]
)
def test_internal_error_is_not_a_verdict(capsys, monkeypatch, error):
    def broken(profile, c):
        raise error("self-check failed")

    monkeypatch.setattr(criterion, "skalba_solve", broken)
    code, out, err = run(capsys, "--json", "certificate", "--q", "3", "--set", "2,3,6,12")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "self-check failed" in err


def test_failed_cli_self_checks_exit_3(capsys, monkeypatch):
    # certificate's Skalba solve and synthesize's covering check of its own set
    monkeypatch.setattr(criterion, "skalba_solve", lambda profile, c: None)
    code, out, err = run(capsys, "certificate", "--q", "3", "--set", "2,3,6,12")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: Skalba condition failed on a Yes-instance\n"
    monkeypatch.undo()
    # the Skalba certificate's exact-root check of its own product
    monkeypatch.setattr(criterion, "integer_qth_root", lambda n, q: None)
    code, out, err = run(capsys, "certificate", "--q", "3", "--set", "2,3,6,12")
    assert (code, out) == (3, "")
    assert err == ("internal error: RuntimeError: certificate product 216 is not an exact 3-th "
                   "power; this contradicts the covering criterion\n")
    no = criterion.decide(profiles.QInput(3, (2, 3, 6)))
    assert no.verdict is criterion.Verdict.NO
    monkeypatch.setattr(cli, "decide", lambda qinput: no)
    code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: synthesized set failed its own covering check\n"


def test_oracle_disagreements_exit_1(capsys, monkeypatch):
    # an oracle that negates every answer disagrees on every instance
    oracle = criterion.skalba_oracle
    monkeypatch.setattr(criterion, "skalba_oracle", lambda M, q: not oracle(M, q))
    argv = ("oracle-check", "--q", "3", "--k-max", "2", "--l-max", "2")
    code, env, _ = run_json(capsys, *argv)
    result = env["result"]
    assert code == 1 and result["instances_checked"] == result["disagreements"] == 78
    assert len(result["disagreeing_columns"]) == 10
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and "instances_checked: 78" in lines and "disagreements: 78" in lines
    assert sum(line.startswith("  - ") for line in lines) == 10


@pytest.mark.parametrize("cmd", ["scan", "census", "decide", "certificate"])
def test_inexact_coprime_base_is_not_a_verdict(capsys, monkeypatch, cmd):
    # a base that misses a piece leaves 2 as no product of the pieces
    monkeypatch.setattr(profiles, "coprime_base", lambda ns: coprime_base(ns)[1:])
    bound = ("--bound", "1000") if cmd in ("scan", "census") else ()
    code, out, err = run(capsys, cmd, "--q", "3", "--set", "2,3,6", *bound)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "coprime base" in err


def test_synthesize_twist_count_budget(capsys):
    code, _, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "100000000")
    assert code == 2 and "exceeds limit" in err
    for count in ("0", "-3"):
        code, out, err = run(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", count)
        assert code == 2 and out == "" and ">= 1" in err
    code, env, _ = run_json(capsys, "synthesize", "--q", "3", "--k", "2", "--twists", "5")
    assert code == 0 and len(env["result"]["twists"]) == 5
    assert env["input"]["twists"] == 5  # the count, as the other integer flags


def test_oracle_check_instance_budget(capsys):
    base = ("oracle-check", "--q", "3", "--k-max", "2", "--l-max", "2")
    code, _, err = run(capsys, *base, "--mode", "random", "--trials", str(10**6 + 1))
    assert code == 2 and "exceeds" in err
    for trials in ("0", "-1"):
        code, _, err = run(capsys, *base, "--mode", "random", "--trials", trials)
        assert code == 2 and ">= 1" in err
    code, _, err = run(
        capsys, "oracle-check", "--q", "3", "--k-max", "4", "--l-max", "4",
        "--mode", "exhaustive",
    )
    assert code == 2 and "exceeds" in err
    code, env, _ = run_json(capsys, *base, "--mode", "random", "--trials", "7")
    assert code == 0 and env["result"]["instances_checked"] == 7


def test_oracle_check_random_point_budget(capsys, monkeypatch):
    # q^k at k = k_max is refused before any instance is drawn, and written as a power
    def unchecked(q, instances):
        raise AssertionError("instances checked")

    monkeypatch.setattr(criterion, "_compare_routes", unchecked)
    code, out, err = run(
        capsys, "oracle-check", "--q", "3", "--k-max", "1000000000", "--l-max", "1",
        "--mode", "random", "--trials", "1",
    )
    assert code == 2 and out == ""
    assert err.strip() == "error: q^k = 3^1000000000 exceeds enumeration limit 100000000"


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_oracle_check_sizes_below_one_are_usage_errors(capsys, mode):
    for flag, sizes in (("--k-max", ("0", "2")), ("--l-max", ("2", "-1"))):
        code, out, err = run(
            capsys, "oracle-check", "--q", "3", "--k-max", sizes[0], "--l-max", sizes[1],
            "--mode", mode,
        )
        assert code == 2 and out == "" and err.strip() == f"error: {flag} must be >= 1"


def test_oracle_check_exhaustive_work_budget(capsys):
    # (3 - 1)^19 = 524,288 is under the instance limit, but the sweep holds
    # sum_{l <= 19} 2^l = 1,048,574 matrices
    code, out, err = run(
        capsys, "oracle-check", "--q", "3", "--k-max", "1", "--l-max", "19",
        "--mode", "exhaustive",
    )
    assert code == 2 and out == "" and "exceeds" in err


def test_rho_budget_is_a_guard_error(capsys):
    # S = (10^19 + 51)(3 * 10^19 + 41): 39 digits, no factor below 10^19
    s = (10**19 + 51) * (3 * 10**19 + 41)
    code, out, err = run(capsys, "decide", "--q", "3", "--set", f"2,3,{s}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Pollard rho iterations" in err


@pytest.mark.parametrize("cmd", ["decide", "certificate", "scan", "census"])
def test_split_work_limit_is_a_guard_error(capsys, monkeypatch, cmd):
    # 5 distinct primes are 5 elements over 5 pieces: 25 steps, over 20
    monkeypatch.setattr(arith, "SPLIT_WORK_LIMIT", 20)
    bound = ("--bound", "1000") if cmd in ("scan", "census") else ()
    code, out, err = run(capsys, cmd, "--q", "3", "--set", "2,3,5,7,11", *bound)
    assert (code, out) == (2, "")
    assert err == "error: coprime split of 5 elements into 5 pieces exceeds split work limit 20\n"


def test_a_perfect_power_beyond_the_rho_budget_is_decided(capsys):
    # P^2 with P = 10^19 + 51 is split by its square root, not by rho
    p = 10**19 + 51
    code, env, err = run_json(capsys, "decide", "--q", "3", "--set", f"2,{p**2}")
    assert code == 1, err
    result = env["result"]
    assert result["verdict"] == "no"
    assert result["profile"]["support_primes"] == [2, p]
    assert result["profile"]["exponent_matrix"] == [[1, 0], [0, 2]]
    assert result["uncovered_witness"] == [1, 1]
    code, env, err = run_json(capsys, "certificate", "--q", "3", "--set", f"2,{p**2}")
    assert code == 1, err
    assert env["result"]["failing_twist"]["c"] == [1, 2]


def test_keyboard_interrupt_is_not_a_verdict(capsys, monkeypatch):
    def interrupted(qinput):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "decide", interrupted)
    code, out, err = run(capsys, "--json", "decide", "--q", "3", "--set", "2,3,6")
    assert code == 130
    assert out == "" and err.strip() == "interrupted"


# Every `qresidue` line of the README's CLI block: its exit code, a fact its
# comment states, and the check of that fact on the JSON result.
README_EXAMPLES = {
    "decide --q 3 --set 2,3,6,12": (0, "Yes", lambda r: r["verdict"] == "yes"),
    "decide --q 3 --set 2,3,6": (1, "witness (1,1)", lambda r: r["uncovered_witness"] == [1, 1]),
    "certificate --q 3 --set 2,3,6,12": (
        0, "= 216 = 6^3", lambda r: r["skalba_certificate"]["identity"].endswith("= 216 = 6^3")
    ),
    "certificate --q 3 --set 2,3,6": (
        1, "c = (1,1,2)", lambda r: r["failing_twist"]["c"] == [1, 1, 2]
    ),
    "scan --q 3 --set 2,3,6 --bound 100": (1, "13", lambda r: r["counterexample_prime"] == 13),
    "census --q 3 --set 2 --bound 200000": (0, "1/3", lambda r: r["predicted_density"]["fraction"] == "1/3"),
    "synthesize --q 5 --k 2": (0, "6 elements", lambda r: len(r["set"]) == 6),
    "oracle-check --q 3 --k-max 2 --l-max 3 --mode exhaustive": (
        0, "", lambda r: r["disagreements"] == 0
    ),
    "scan --q 3 --set=-2,3,6 --bound 100": (1, "negative", lambda r: r["counterexample_prime"] == 13),
}


def test_readme_cli_examples(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("qresidue ")]
    examples = {}
    for line in lines:
        command, _, comment = line.removeprefix("qresidue ").partition("#")
        examples[" ".join(command.split())] = comment
    assert sorted(examples) == sorted(README_EXAMPLES)
    for command, comment in examples.items():
        expected_code, fact, check = README_EXAMPLES[command]
        assert fact in comment, command
        code, env, err = run_json(capsys, *command.split())
        assert code == expected_code, (command, err)
        assert check(env["result"]), command
