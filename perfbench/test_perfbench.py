"""Tests of the benchmark itself: seeded inputs, the verifier, the loop, tracing."""

import copy
import json
import signal

import pytest

import inputs
import loop
import run
import spans
from verify import Verifier


def cli():
    from qresidue import cli as module

    return module


def _run(op):
    code, out, _, error = loop.run_op(cli(), op)
    assert error is None
    return code, json.loads(out)


def _first(workload, pred, seed=3):
    return next(op for op in inputs.generate(workload, seed, rounds=1) if pred(op))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    a = inputs.generate(workload, 11, rounds=2)
    assert a == inputs.generate(workload, 11, rounds=2)
    assert a != inputs.generate(workload, 12, rounds=2)


def _rejects(op, code, envelope):
    return Verifier().check(op, code, json.dumps(envelope)) is not None


def test_verifier_rejects_corrupted_witness():
    op = _first("decide-cover", lambda o: o["argv"][0] == "decide" and o["expect"]["verdict"] == "no")
    code, env = _run(op)
    assert Verifier().check(op, code, json.dumps(env)) is None
    bad = copy.deepcopy(env)
    bad["result"]["uncovered_witness"] = [0] * len(env["result"]["uncovered_witness"])
    assert _rejects(op, code, bad)
    assert _rejects(op, 0, env)  # a No answer with the Yes exit code


def test_verifier_rejects_corrupted_certificates():
    op = _first("decide-cover", lambda o: o["argv"][0] == "certificate" and o["expect"]["verdict"] == "yes")
    code, env = _run(op)
    assert Verifier().check(op, code, json.dumps(env)) is None
    bad = copy.deepcopy(env)
    bad["result"]["skalba_certificate"]["root"] += 1
    assert _rejects(op, code, bad)
    bad = copy.deepcopy(env)
    bad["result"]["skalba_certificate"]["f"] = [0] * len(env["result"]["skalba_certificate"]["f"])
    assert _rejects(op, code, bad)

    op = _first("decide-cover", lambda o: o["argv"][0] == "certificate" and o["expect"]["verdict"] == "no")
    code, env = _run(op)
    assert Verifier().check(op, code, json.dumps(env)) is None
    bad = copy.deepcopy(env)
    bad["result"]["failing_twist"]["c"][0] = bad["result"]["failing_twist"]["c"][0] % 2 + 1
    assert _rejects(op, code, bad)


def test_verifier_rejects_corrupted_assignment():
    op = _first("decide-cover", lambda o: o["argv"][0] == "decide" and o["expect"]["verdict"] == "yes")
    code, env = _run(op)
    assert Verifier().check(op, code, json.dumps(env)) is None
    result = env["result"]
    q, E = op["expect"]["q"], result["profile"]["exponent_matrix"]
    normals = list(dict.fromkeys(zip(*E)))
    key = list(result["covering"]["assignment"])[-1]
    point = [int(x) for x in key.split(",")]
    wrong = next(i for i, n in enumerate(normals) if inputs.dot(n, point, q))
    bad = copy.deepcopy(env)
    bad["result"]["covering"]["assignment"][key] = wrong
    assert _rejects(op, code, bad)


def test_verifier_rejects_corrupted_census_and_scan():
    censuses = [o for o in inputs.generate("primes", 3, rounds=1)
                if o["argv"][0] == "census" and o["expect"]["covering"]]
    op = min(censuses, key=lambda o: o["expect"]["bound"])
    code, env = _run(op)
    assert Verifier().check(op, code, json.dumps(env)) is None
    bad = copy.deepcopy(env)
    bad["result"]["failing_count"] = 1
    bad["result"]["failing_primes_truncated"] = [7]
    assert _rejects(op, code, bad)
    bad = copy.deepcopy(env)
    bad["result"]["predicted_density"]["fraction"] = "1/9"
    assert _rejects(op, code, bad)
    bad = copy.deepcopy(env)
    bad["result"]["split_primes"] += 1
    assert _rejects(op, code, bad)

    op = _first("primes", lambda o: o["argv"][0] == "scan" and o["expect"]["exit"] == 1)
    code, env = _run(op)
    assert Verifier().check(op, code, json.dumps(env)) is None
    bad = copy.deepcopy(env)
    bad["result"]["counterexample_prime"] += 2
    assert _rejects(op, code, bad)


def test_op_over_the_time_limit_is_aborted(monkeypatch):
    monkeypatch.setattr(loop, "OP_LIMIT_S", 0.01)
    op = inputs.generate("primes", 1, rounds=1)
    op = next(o for o in op if o["argv"][0] == "census" and o["expect"]["bound"] > 700_000)
    previous = signal.signal(signal.SIGALRM, loop._on_alarm)
    try:
        code, _, latency, error = loop.run_op(cli(), op)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code is None and error.startswith("aborted") and latency < 0.5


def test_tracer_spans_nest_and_wrappers_come_off():
    from qresidue import covering, criterion, primescan

    originals = (covering.covers, criterion.covers, primescan.primes_up_to)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert criterion.covers is covering.covers is not originals[0]
        ops = [_first("decide-cover", lambda o: o["expect"]["verdict"] == "yes"),
               _first("primes", lambda o: o["argv"][0] == "census")]
        wall = 0.0
        for op in ops:
            code, out, latency, error = loop.run_op(cli(), op)
            assert error is None and Verifier().check(op, code, out) is None
            root_ns = tracer.end_op()
            wall += latency
            assert root_ns / 1e9 <= latency
    finally:
        tracer.remove()
    assert (covering.covers, criterion.covers, primescan.primes_up_to) == originals
    assert sum(tracer.self_ns.values()) == tracer.root_ns
    assert tracer.root_ns / 1e9 == pytest.approx(wall, rel=0.05)
    assert tracer.calls["covering.covers"] == 1 and tracer.calls["primescan.census"] == 1
    assert tracer.counters["covering.covers.assigned"] > 0
    assert tracer.counters["primescan.primes_up_to.primes"] > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_runs_end_to_end(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms",
                                      "latency_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "oracle-sweep", "--seed", "5", "--seconds", "1", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert any(line.startswith("self times sum to") and line.endswith(": ok") for line in lines)
