"""Timing spans around qresidue's public functions, installed from outside.

Tracer.install() replaces every binding of each traced function in the
qresidue modules (the package uses ``from .x import f``, so ``covers`` is
bound in both ``covering`` and ``criterion``) with a wrapper that records a
span: name, start, end, parent span and op id.  Tracer.remove() puts the
originals back.  Self time is a span's duration minus the time covered by
its child spans; the self times of one op therefore sum to its root span,
the ``cli.main`` call.
"""

import importlib
from collections import defaultdict
from itertools import islice
from time import perf_counter_ns

MODULES = ("arith", "fqlinalg", "profiles", "covering", "criterion", "primescan", "cli")

TRACED = {
    "arith": ("factorize", "integer_qth_root", "is_probable_prime"),
    "fqlinalg": ("rref",),
    "profiles": ("build_profile", "hyperplanes_of"),
    "covering": ("covers", "uncovered_count"),
    "criterion": ("decide", "skalba_solve", "counterexample_c", "skalba_oracle",
                  "skalba_condition_holds", "oracle_check_exhaustive", "oracle_check_random"),
    "primescan": ("primes_up_to", "census", "find_counterexample_prime",
                  "has_qth_power_mod_p"),
    "cli": ("main",),
}

# primes_up_to is a generator: its next() work is timed in chunks this long.
PRIME_CHUNK = 4096


def _covers_points(args, result):
    """Points covers() enumerated: q^k, or the witness's lexicographic index + 1."""
    _, k, q = args[:3]
    if result.covered:
        return q**k
    index = 0
    for x in result.witness:
        index = index * q + x
    return index + 1


def _build_k(args, result):
    return getattr(result, "k", 0)


def _product_bits(args, result):
    return result.product.bit_length() if result is not None else 0


def _rref_cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


# Counters derived from a traced call's arguments and return value.
# cli.main.output_bytes and primescan.primes_up_to.primes are counted by the
# loop and the generator wrapper, which see the output.
COUNTERS = {
    "covering.covers": {
        "points": _covers_points,
        "assigned": lambda a, r: len(r.assignment) if r.covered else 0,
    },
    "covering.uncovered_count": {"points": lambda a, r: a[2] ** a[1]},
    "arith.factorize": {"input_bits": lambda a, r: abs(a[0]).bit_length()},
    "profiles.build_profile": {"k": _build_k},
    "criterion.skalba_solve": {"product_bits": _product_bits},
    "fqlinalg.rref": {"cells": _rref_cells},
    "primescan.census": {"split_primes": lambda a, r: r.split_primes},
}

# Layer metric -> the end-to-end metrics it should move, on which workload.
EXPECTED_EFFECTS = {
    "covering.covers.{calls,self_ms,points,assigned}": ("ops_per_s latency_p90_ms peak_rss_mb", "decide-cover"),
    "cli.main.{self_ms,output_bytes}": ("latency_p50_ms ops_per_s", "decide-cover"),
    "arith.factorize.{calls,self_ms,input_bits}": ("ops_per_s latency_p50_ms", "decide-factor"),
    "arith.{integer_qth_root,is_probable_prime}.{calls,self_ms}": ("latency_p90_ms", "decide-factor"),
    "profiles.build_profile.{calls,self_ms,k}, profiles.hyperplanes_of.self_ms": ("latency_p50_ms", "decide-factor"),
    "criterion.{decide,skalba_solve,counterexample_c}.self_ms, skalba_solve.product_bits": ("latency_p90_ms", "decide-factor"),
    "criterion.{skalba_oracle,oracle_check_exhaustive,oracle_check_random}.{calls,self_ms}, "
    "skalba_condition_holds.calls": ("ops_per_s", "oracle-sweep"),
    "fqlinalg.rref.{calls,self_ms,cells}": ("ops_per_s", "oracle-sweep"),
    "primescan.primes_up_to.{self_ms,primes}": ("ops_per_s latency_p90_ms", "primes"),
    "primescan.census.{calls,self_ms,split_primes}": ("ops_per_s", "primes"),
    "primescan.{find_counterexample_prime,has_qth_power_mod_p}.self_ms": ("latency_p90_ms", "primes"),
    "covering.uncovered_count.{calls,self_ms,points}": ("ops_per_s (minor share)", "primes"),
}


def function_names():
    return [f"{mod}.{fn}" for mod in MODULES for fn in TRACED[mod]]


def counter_names():
    names = [f"{fn}.{c}" for fn, cs in COUNTERS.items() for c in cs]
    return names + ["cli.main.output_bytes", "primescan.primes_up_to.primes"]


class Tracer:
    """Records spans of the current op and folds them into per-function totals."""

    def __init__(self):
        self.op = 0
        self.spans = []  # (id, name, start_ns, end_ns, parent id, op, is_call, failed)
        self.stack = []
        self.next_id = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self.root_ns = 0
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _open(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent, is_call, failed):
        end = perf_counter_ns()
        self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op, is_call, failed))

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, {})

        def traced(*args, **kwargs):
            sid, parent = self._open()
            failed = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(sid, name, start, parent, True, failed)
            for cname, count in counters.items():
                self.counters[f"{name}.{cname}"] += count(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                failed = True
                start = perf_counter_ns()
                try:
                    chunk = list(islice(it, PRIME_CHUNK))
                    failed = False
                finally:
                    self._close(sid, name, start, parent, False, failed)
                self.counters[f"{name}.primes"] += len(chunk)
                yield from chunk
                if len(chunk) < PRIME_CHUNK:
                    return

        return traced

    def end_op(self):
        """Fold the current op's spans into the totals; returns its root time in ns."""
        child_ns = defaultdict(int)
        for sid, name, start, end, parent, op, is_call, failed in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        root = 0
        for sid, name, start, end, parent, op, is_call, failed in self.spans:
            self.self_ns[name] += end - start - child_ns[sid]
            self.calls[name] += is_call
            self.errors[name] += failed
            if parent is None:
                root += end - start
        self.root_ns += root
        self.spans.clear()
        self.stack.clear()
        self.op += 1
        return root

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in the qresidue modules."""
        modules = [importlib.import_module("qresidue")]
        modules += [importlib.import_module(f"qresidue.{m}") for m in MODULES]
        for mod in MODULES:
            for fn_name in TRACED[mod]:
                original = getattr(importlib.import_module(f"qresidue.{mod}"), fn_name)
                name = f"{mod}.{fn_name}"
                if fn_name == "primes_up_to":
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._saved.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def remove(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def layer_self_ns(self):
        totals = dict.fromkeys(MODULES, 0)
        for name, ns in self.self_ns.items():
            totals[name.split(".")[0]] += ns
        return totals

    def metrics(self, ops):
        """Per-op averages of calls, self time, errors and counters."""
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = (self.calls[name] / ops, "count/op")
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6 / ops, "ms/op")
            out[f"{name}.errors"] = (self.errors[name] / ops, "count/op")
        for name in counter_names():
            out[name] = (self.counters[name] / ops, "count/op")
        for mod, ns in self.layer_self_ns().items():
            out[f"layer.{mod}.self_ms"] = (ns / 1e6 / ops, "ms/op")
        return out


def report(tracer, traced, untraced):
    """Print the traced-run report; return the per-layer metrics.

    `traced` and `untraced` are the op latencies of the same ops with and
    without the wrappers installed.
    """
    ops = len(traced)
    traced_s, untraced_s = sum(traced), sum(untraced)
    total_ms = tracer.root_ns / 1e6
    print(f"traced run: {ops} ops, {traced_s:.3f} s in ops traced, "
          f"{untraced_s:.3f} s untraced (same ops)")
    print(f"{'function':40} {'calls/op':>10} {'self ms/op':>11} {'share':>7} {'errors':>7}")
    for name in function_names():
        share = tracer.self_ns[name] / 1e6 / total_ms if total_ms else 0.0
        print(f"{name:40} {tracer.calls[name] / ops:10.2f} "
              f"{tracer.self_ns[name] / 1e6 / ops:11.3f} {share:7.1%} {tracer.errors[name]:7d}")
    for name in counter_names():
        print(f"  counter {name:40} {tracer.counters[name] / ops:14.1f} /op")
    layers = tracer.layer_self_ns()
    print("layer self-time shares: " + ", ".join(
        f"{mod} {ns / 1e6 / total_ms:.1%}" for mod, ns in layers.items()))
    gap = abs(total_ms / 1e3 - traced_s) / traced_s
    print(f"self times sum to {total_ms / 1e3:.4f} s vs traced op wall {traced_s:.4f} s "
          f"(gap {gap:.3%}, tolerance 2%): {'ok' if gap < 0.02 else 'MISMATCH'}")
    slowdown = traced_s / untraced_s
    print(f"tracing overhead: traced {ops / traced_s:.3f} ops/s vs untraced "
          f"{ops / untraced_s:.3f} ops/s, slowdown x{slowdown:.3f}")
    print("expected effects (layer metric -> end-to-end metric, workload):")
    for layer, (e2e, workload) in EXPECTED_EFFECTS.items():
        print(f"  {layer} -> {e2e} on {workload}")
    metrics = tracer.metrics(ops)
    metrics["trace.ops_per_s"] = (ops / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (ops / untraced_s, "1/s")
    metrics["trace.slowdown"] = (slowdown, "ratio")
    metrics["trace.self_sum_gap"] = (gap, "ratio")
    return metrics
