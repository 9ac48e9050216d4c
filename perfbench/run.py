"""End-to-end and per-layer benchmark of the qresidue CLI.

    python3 perfbench/run.py --workload decide-cover --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from the repository root, with the package sources under ``src/``.
``--trace 0`` reports the end-to-end metrics: set-up time (the median of
several fresh processes that import ``qresidue.cli`` and run one warm-up op)
and, from one fresh process that runs the closed loop for ``--seconds``,
throughput, median and 90th-percentile latency and peak RSS.  Times are
scaled to a nominal host speed measured by a reference kernel (see
``loop.REF_NOMINAL_S``); the unscaled wall-clock values are printed too.  ``--trace 1``
runs the loop with timing spans around every layer's public functions and
reports per-layer metrics and the tracing overhead instead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Every answer is checked by verify.py; an op that raises,
exits with the wrong code, fails a check or runs past the op time limit
counts as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from loop import REF_NOMINAL_S, reference_kernel  # noqa: E402

# Fresh processes timed for setup_s; the median is reported.
SETUP_RUNS = 9
# Seconds a child may take beyond its own loop time before it is killed.
CHILD_GRACE_S = 90


class BenchError(RuntimeError):
    pass


def _git_commit():
    """HEAD of the checkout's git repository, read from files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_cmd(*args):
    return [sys.executable, str(HERE / "loop.py"), *map(str, args)]


def _setup_once(workload):
    """(seconds to ready, reference kernel time measured just before)."""
    kernel = statistics.median(reference_kernel() for _ in range(5))
    start = perf_counter()
    proc = subprocess.Popen(
        _child_cmd("--setup", "--workload", workload),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed, kernel


def _loop(workload, seed, seconds, trace):
    cmd = _child_cmd("--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"loop process ran past {seconds + CHILD_GRACE_S} s") from e
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"loop process failed ({proc.returncode}): {proc.stderr.strip()[-1000:]}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def end_to_end(raw, setup):
    """(metrics, raw wall-clock metrics, ops sampled) from the loop's results.

    Only whole rounds count, so every run measures the same op mix whatever
    its length.  Times are scaled to the nominal host speed (see
    loop.REF_NOMINAL_S): each round's by the reference kernel timed after its
    ops, set-up by the kernel timed before each set-up process.  Throughput
    is the median over rounds, which a short stall moves less than a mean.
    """
    size = raw["round_size"]
    whole = len(raw["latencies"]) // size * size
    if whole == 0:  # shorter than one round: one partial round
        size = whole = len(raw["latencies"])
    wall_lat, nominal_lat, wall_rates, nominal_rates = [], [], [], []
    for i in range(0, whole, size):
        lat = raw["latencies"][i : i + size]
        scale = REF_NOMINAL_S / statistics.median(raw["kernel_s"][i : i + size])
        rate = sum(raw["ok"][i : i + size]) / sum(lat)
        wall_lat += lat
        nominal_lat += [t * scale for t in lat]
        wall_rates.append(rate)
        nominal_rates.append(rate / scale)

    def timings(setup_s, rates, lat):
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3, "ms"),
        }

    wall = timings([t for t, _ in setup], wall_rates, wall_lat)
    metrics = timings([t * REF_NOMINAL_S / k for t, k in setup], nominal_rates, nominal_lat)
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    return metrics, wall, whole


def run_workload(workload, seed, seconds, trace):
    """(metrics {name: (value, unit)}, raw loop result) for one workload."""
    if trace:
        raw = _loop(workload, seed, seconds, 1)
        metrics = {name: tuple(v) for name, v in raw["layers"].items()}
    else:
        setup = [_setup_once(workload) for _ in range(SETUP_RUNS)]
        raw = _loop(workload, seed, seconds, 0)
        if len(raw["latencies"]) < 2:
            raise BenchError("fewer than two ops completed; raise --seconds")
        metrics, wall, raw["samples"] = end_to_end(raw, setup)
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": raw["attempted"], "samples": raw.get("samples"), "round_size": raw["round_size"],
        "ops_generated": raw["ops_generated"],
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": _git_commit(),
    }
    if not trace:
        meta["kernel_ms"] = statistics.median(raw["kernel_s"]) * 1e3
        meta["wall"] = {name: value for name, (value, _) in wall.items()}
    print("meta " + json.dumps(meta))
    for failure in raw["failures"]:
        print(f"FAILED {failure}")
    if not trace:
        print(f"{workload}: {raw['attempted']} ops, {raw['failed']} failed, "
              f"{raw['samples']} ops in whole rounds of {raw['round_size']} sampled")
        print(f"  {'metric':16} {'nominal host':>14} {'wall clock':>14}")
        for name, (value, unit) in metrics.items():
            measured = wall[name][0] if name in wall else value
            print(f"  {name:16} {value:14.6f} {measured:14.6f} {unit}")
        print(f"  {'failed_ops_frac':16} {raw['failed'] / raw['attempted']:14.6f} {'':14} ratio")
    return metrics, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qresidue" / "cli.py").is_file():
        print(f"error: no qresidue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            m, raw = run_workload(workload, args.seed, args.seconds, args.trace)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: v for name, v in m.items()})
            attempted += raw["attempted"]
            failed += raw["failed"]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
