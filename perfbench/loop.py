"""One fresh process that runs one workload as a closed loop with one client.

    python3 perfbench/loop.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/loop.py --setup --workload W

Every op calls ``qresidue.cli.main(["--json", ...])`` in-process with stdout
and stderr captured; the next op starts when the previous one returns.  The
op is timed around ``cli.main`` alone, JSON output included.  Its answer is
then checked outside the timed region.  The last stdout line is one JSON
object with the raw results; run.py turns it into metrics.

With --setup the process imports ``qresidue.cli``, runs the workload's
warm-up op, prints ``ready`` and exits: run.py times that from process start.
"""

import argparse
import io
import json
import math
import resource
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from verify import Verifier  # noqa: E402

# An op that runs longer than this is aborted and counted as failed.
OP_LIMIT_S = 20.0

# On a shared virtual machine the host's speed drifts: on a 2-vCPU VM the
# same ops in the same process ran up to 40% slower or faster a minute
# later.  A fixed kernel, timed after every op, measures that speed; run.py
# scales each round's times by REF_NOMINAL_S / (the round's median kernel
# time), i.e. to a host on which the kernel takes REF_NOMINAL_S.
REF_NOMINAL_S = 2.0e-3
_KERNEL_MODULUS = 2**521 - 1


def reference_kernel():
    """Seconds taken by fixed work that does not touch qresidue.

    The geometric mean of two timed parts: an interpreter loop on small ints,
    and tuple-keyed dicts, a JSON dump and big-integer products.  Measured on
    eight runs of each workload, the first part tracked the host best for
    decide-factor and primes, the second for the dict- and string-heavy
    decide-cover, and their mean nearly as well as the better one on each.
    """
    start = perf_counter()
    x = 0
    for i in range(20000):
        x += i * i % 7
    middle = perf_counter()
    table = {(i, i * 7 % 13, i % 5): i for i in range(1500)}
    json.dumps({",".join(map(str, key)): value for key, value in table.items()})
    for i in range(6000):
        x += i * i % 7
    n = 3**300
    for _ in range(60):
        n = n * n % _KERNEL_MODULUS
    return math.sqrt((middle - start) * (perf_counter() - middle))


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so no handler in the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(cli, op):
    """(exit code or None, stdout, latency s, error) for one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    code, error, latency = None, None, 0.0
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = cli.main(["--json", *op["argv"]])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            latency = perf_counter() - start
    except OpTimeout:
        error = f"aborted after {OP_LIMIT_S} s"
    except Exception as e:  # the op raised: a failure, not a benchmark crash
        error = f"raised {e!r}"
    if code == 2 and error is None:
        error = f"exit code 2: {err.getvalue().strip()[-200:]}"
    return code, out.getvalue(), latency, error


class Loop:
    """Runs ops in order from a list, wrapping around, and checks each answer."""

    def __init__(self, cli, ops, verifier, tracer=None):
        self.cli = cli
        self.ops = ops
        self.verifier = verifier
        self.tracer = tracer
        self.next = 0
        self.latencies = []
        self.ok = []
        self.failures = []
        self.kernel = []

    def step(self, op):
        code, out, latency, error = run_op(self.cli, op)
        if self.tracer is not None:
            self.tracer.counters["cli.main.output_bytes"] += len(out)
            self.tracer.end_op()
        if error is None:
            error = self.verifier.check(op, code, out)
        self.kernel.append(reference_kernel())
        self.latencies.append(latency)
        self.ok.append(error is None)
        if error is not None:
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(op['argv'])[:120]}: {error}")

    def run_for(self, seconds):
        """Closed loop until `seconds` of wall time (checks included) are spent."""
        start = perf_counter()
        while perf_counter() - start < seconds:
            self.step(self.ops[self.next % len(self.ops)])
            self.next += 1

    def run_count(self, count):
        for i in range(count):
            self.step(self.ops[i % len(self.ops)])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)

    from qresidue import cli

    warmup = inputs.warmup_op(args.workload)
    code, out, _, error = run_op(cli, warmup)
    if args.setup:
        print("ready", flush=True)
        return 0
    verifier = Verifier()
    error = error or verifier.check(warmup, code, out)
    if error is not None:
        print(f"warm-up op failed: {error}", file=sys.stderr)
        return 1

    ops = inputs.generate(args.workload, args.seed)
    result = {"ops_generated": len(ops), "round_size": len(ops) // inputs.ROUNDS[args.workload]}
    if not args.trace:
        loop = Loop(cli, ops, verifier)
        loop.run_for(args.seconds)
        result["peak_rss_mb"] = _peak_rss_mb()
        result["latencies"] = loop.latencies
        result["ok"] = loop.ok
        result["kernel_s"] = loop.kernel
        runs = [loop]
    else:
        import spans

        # Half the time traced, then the same ops untraced: the ratio of
        # their op times is the tracing overhead, on identical inputs.
        tracer = spans.Tracer()
        tracer.install()
        try:
            loop = Loop(cli, ops, verifier, tracer)
            loop.run_for(args.seconds / 2)
        finally:
            tracer.remove()
        replay = Loop(cli, ops, verifier)
        replay.run_count(len(loop.latencies))
        result["layers"] = spans.report(tracer, loop.latencies, replay.latencies)
        runs = [loop, replay]
    result["attempted"] = sum(len(r.latencies) for r in runs)
    result["failed"] = sum(r.ok.count(False) for r in runs)
    result["failures"] = [f for r in runs for f in r.failures]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
