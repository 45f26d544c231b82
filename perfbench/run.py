"""Benchmark of the uceauction package: certified-outcome latency on three
workloads, measured end to end with tracing off, and per layer in a separate
traced run.

    python3 perfbench/run.py --workload wide-coarse --seed 0 --seconds 25 --trace 0

The harness is a closed loop with one client in one process.  It generates
the workload's market pool from --seed, writes it to files, and times one
operation after another through the package's public entry points, in whole
passes over the pool, until --seconds of operation time have passed.
End-to-end times are scaled to a reference host speed (see `host_kernel`).
Every operation's output is checked afterwards, outside the timed region.
Human-readable lines go first; the last line of stdout is one JSON object
with the metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones.  See perfbench/README.md.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
GOLDENS = HERE / "goldens.json"
WORK = REPO / ".perfbench_work"

SETUPS = 3
# Host-speed scale: reported times are wall times scaled to a host on which
# `host_kernel` takes this long.
KERNEL_REFERENCE_S = 0.010
MODULES = ("cli", "model", "auction", "demand", "pricing", "oracle", "lp", "subgradient", "generate")

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTED = (
    "oracle.certify_calls", "oracle.dp_calls", "oracle.price_fn_calls", "oracle.price_fn_distinct",
    "demand.envelope_queries", "demand.maximizers", "pricing.line_evals", "pricing.updates",
    "demand.linear_queries", "demand.balance_tests", "lp.solves", "lp.pivots",
)
EXACT = (
    "rounds.uce", "rounds.linear", "rounds.parallel",
    "queries.uce", "queries.linear", "queries.parallel",
    "auction.refine_count", "cli.trace_bytes", "demand.contiguity_violations",
    "lp.rows", "lp.cols", "subgradient.iterations", "subgradient.dual_gap",
)
UNITS = {"cli.trace_bytes": "bytes", "subgradient.dual_gap": "value"}
PER_LAYER = (
    [(name, "s") for name, _, _ in layers.TIME_METRICS]
    + [(name, "count") for name in COUNTED]
    + [("oracle.price_fn_per_distinct", "calls/pair")]
    + [(name, UNITS.get(name, "count")) for name in EXACT]
    + [("tracing.overhead_s", "s")]
)


class WarningCounter(logging.Handler):
    """Takes the demand monitor's warnings off stderr and counts them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def import_package():
    """A fresh import of every uceauction module (earlier imports dropped)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "uceauction" or m.startswith("uceauction.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("uceauction." + m) for m in MODULES})


class OpRecord:
    def __init__(self, phase, market, summary, error, violations):
        self.phase = phase
        self.market = market
        self.summary = summary
        self.error = error
        self.violations = violations


class Bench:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.opdir = os.path.join(workdir, "op")
        self.records = []
        self.pkg = None
        self.pool = None

    def setup(self, index):
        """Import the package, generate and write the pool, run one warm-up op."""
        started = perf_counter()
        self.pkg = import_package()
        self.pool = workloads.build_pool(self.pkg, self.workload, self.seed)
        workloads.write_pool(self.pkg, self.pool, os.path.join(self.workdir, "pool%d" % index))
        os.makedirs(self.opdir, exist_ok=True)
        self.execute("warm-up", self.pool[0])
        return perf_counter() - started

    def execute(self, phase, market, around=None):
        """Run one op; returns its wall seconds.  Bookkeeping stays outside
        the timed region: the contiguity monitor's module list is measured
        and truncated back after every op, so no op sees another's entries."""
        contiguity = self.pkg.demand.contiguity_counterexamples
        before = len(contiguity)
        outputs, error = None, None

        def op():
            return self.workload.run_op(self.pkg, market, self.opdir)

        started = perf_counter()
        try:
            outputs = around(op) if around else op()
        except Exception:  # a raising op is a failed op; the loop goes on
            error = traceback.format_exc(limit=3)
        seconds = perf_counter() - started
        violations = len(contiguity) - before
        del contiguity[before:]
        summary = None
        if outputs is not None:
            try:
                summary = self.workload.summarize(self.pkg, market, outputs)
            except (OSError, ValueError, KeyError) as exc:
                error = "unreadable output: %r" % (exc,)
        self.records.append(OpRecord(phase, market, summary, error, violations))
        return seconds

    def check_all(self, goldens):
        """Check every op's output; returns (attempted, failed)."""
        references = {}
        first_exact = {}
        failed = 0
        # Warm-up ops ran on earlier imports; check them on this one's markets.
        markets = {m.id: m for m in self.pool}
        for record in self.records:
            market = markets[record.market.id]
            if record.summary is None:
                problems = [record.error]
            else:
                if market.id not in references:
                    references[market.id] = self.workload.reference(self.pkg, market)
                problems = self.workload.check(
                    self.pkg, market, record.summary, references[market.id]
                )
                if goldens is not None:
                    problems += workloads.golden_problems(
                        self.pkg, self.workload, market, record.summary, goldens.get(market.id)
                    )
                exact = self.workload.exact(record.summary)
                if first_exact.setdefault(market.id, exact) != exact:
                    problems.append("outcome differs from an earlier run of the same market")
            if problems:
                failed += 1
                print("FAILED %s op on %s: %s" % (record.phase, market.id, "; ".join(problems)),
                      file=sys.stderr)
        return len(self.records), failed


def host_kernel():
    """Wall seconds a fixed pure-Python kernel takes now: exact rational sums
    and dict updates, the kind of work the package does.  This host's CPU
    speed drifts by tens of per cent within minutes; timing the kernel next
    to every op lets a run report its times at one reference speed."""
    started = perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1)
        table[i % 13, i % 7] = total
    return perf_counter() - started


def at_reference_speed(seconds, kernel_before, kernel_after):
    return seconds * KERNEL_REFERENCE_S / ((kernel_before + kernel_after) / 2)


def market_medians(markets, times):
    """Each pool market's median op time over the passes, cheapest first.
    A fixed order statistic of these reads the same markets however many
    passes fit into a run."""
    by_market = {}
    for market, seconds in zip(markets, times):
        by_market.setdefault(market, []).append(seconds)
    return sorted(statistics.median(ts) for ts in by_market.values())


def passes(bench, seconds, run_op):
    """Closed loop: whole passes over the pool, in pool order, until `seconds`
    of op time have passed.  Whole passes keep every run's mix of markets the
    same, however many passes fit."""
    spent = 0.0
    while spent < seconds:
        for market in bench.pool:
            spent += run_op(market)


def end_to_end(bench, args, setups, goldens):
    """End-to-end metrics.  `setups` holds (seconds, kernel before, kernel
    after) per set-up; each op is likewise scaled by the kernel timed just
    before and just after it."""
    wall, markets = [], []
    kernels = [host_kernel()]

    def run_op(market):
        wall.append(bench.execute("measured", market))
        markets.append(market.id)
        kernels.append(host_kernel())
        return wall[-1]

    passes(bench, args.seconds, run_op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [at_reference_speed(t, a, b) for t, a, b in zip(wall, kernels, kernels[1:])]
    setup_times = [at_reference_speed(*s) for s in setups]
    medians = market_medians(markets, times)
    metrics = {
        "op_p50_s": statistics.median(medians),
        "op_tail_s": medians[-1],
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted, failed = bench.check_all(goldens)
    exact = Counter()
    first_pass = [r for r in bench.records if r.phase == "measured"][: len(bench.pool)]
    for record in first_pass:
        if record.summary is not None:
            exact.update(bench.workload.exact_counts(record.summary))
    print("exact counts over one pass of the pool: %s"
          % ", ".join("%s=%s" % kv for kv in sorted(exact.items())))
    print("ops measured: %d over %d distinct markets, %.2f s of op wall time"
          % (len(wall), len({r.market.id for r in bench.records if r.phase == "measured"}),
             sum(wall)))
    size = len(bench.pool)
    print("pass wall times: %s s" % ", ".join(
        "%.2f" % sum(wall[i:i + size]) for i in range(0, len(wall), size)))
    print("median op time per market over %d passes, cheapest first: %s s"
          % (len(wall) // size, ", ".join("%.3f" % t for t in medians)))
    print("op_p50_s is the median of these %d market medians, op_tail_s the largest"
          % len(medians))
    print("setup_s: median of %d setups %s" % (len(setup_times),
                                                ["%.3f" % t for t in setup_times]))
    unscaled = market_medians(markets, wall)
    print("host kernel: median %.2f ms against the %.2f ms reference; unscaled wall time: "
          "op_p50_s %.4f, op_tail_s %.4f, ops_per_s %.4f, setup_s %.4f"
          % (1000 * statistics.median(kernels), 1000 * KERNEL_REFERENCE_S,
             statistics.median(unscaled), unscaled[-1], len(wall) / sum(wall),
             statistics.median(s[0] for s in setups)))
    print("failed_ops: %d of %d ops checked (%.4f)" % (failed, attempted, failed / attempted))
    return metrics, attempted, failed


def layer_run(bench, args, goldens):
    """Per-layer metrics: untraced and traced runs of each op alternate over
    whole passes of the pool, then two counting passes repeat it once each."""
    pkg = bench.pkg
    recorder = layers.SpanRecorder()
    untraced, traced, traced_markets = [], [], []

    def with_spans(op_id):
        def around(op):
            recorder.install(pkg)
            try:
                return recorder.op(op_id, op)
            finally:
                recorder.uninstall()

        return around

    def run_op(market):
        untraced.append(bench.execute("untraced", market))
        traced.append(bench.execute("traced", market, with_spans(len(traced))))
        traced_markets.append(market.id)
        return untraced[-1] + traced[-1]

    passes(bench, args.seconds, run_op)

    counted = []
    for _ in range(2):
        counter = layers.CountingPass()
        counter.install(pkg)
        per_op = []
        try:
            for market in bench.pool:
                bench.execute("counting", market)
                record = bench.records[-1]
                counts = counter.take()
                if record.summary is not None:
                    counts.update(bench.workload.exact_counts(record.summary))
                counts["demand.contiguity_violations"] = record.violations
                per_op.append(counts)
        finally:
            counter.uninstall()
        counted.append(per_op)

    problems = []
    if counted[0] != counted[1]:
        problems.append("two counting passes over the same ops gave different counts")
    ops, span_problems = recorder.analyse(traced)
    problems += span_problems
    by_market = {m.id: counts for m, counts in zip(bench.pool, counted[0])}
    for op_id, market_id in enumerate(traced_markets):
        for span_name, metric in layers.SPAN_COUNTERS.items():
            if ops[op_id]["calls"][span_name] != by_market[market_id].get(metric, 0):
                problems.append("op %d: %d %s spans but %d counted"
                                % (op_id, ops[op_id]["calls"][span_name], span_name,
                                   by_market[market_id].get(metric, 0)))

    attempted, failed = bench.check_all(goldens)

    metrics = {}
    n_traced = len(ops)
    for name, spans, inclusive in layers.TIME_METRICS:
        kind = "incl" if inclusive else "self"
        metrics[name] = sum(op[kind][s] for op in ops.values() for s in spans) / n_traced
    totals = Counter()
    for counts in counted[0]:
        totals.update(counts)
    for name in COUNTED + EXACT:
        metrics[name] = totals.get(name, 0)
    distinct = totals.get("oracle.price_fn_distinct", 0)
    metrics["oracle.price_fn_per_distinct"] = (
        totals.get("oracle.price_fn_calls", 0) / distinct if distinct else 0.0
    )
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["tracing.overhead_s"] = overhead

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / ("spans-%s-seed%d.jsonl" % (bench.workload.name, bench.seed))
    recorder.write(spans_path)

    op_total = sum(op["duration"] for op in ops.values())
    shares = {}
    for op in ops.values():
        for name, value in op["self"].items():
            shares[name] = shares.get(name, 0.0) + value
    print("layer self-time shares of %d traced ops (%.2f s):" % (n_traced, op_total))
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print("  %-36s %6.1f %%  %.4f s/op" % (name, 100 * value / op_total, value / n_traced))
    median = statistics.median(op["duration"] for op in ops.values())
    slow = [op for op in ops.values() if op["duration"] > median]
    if slow:
        slow_total = sum(op["duration"] for op in slow)
        top = max(shares, key=lambda s: sum(op["self"][s] for op in slow))
        print("ops above the median (%d): largest self time %s, %.1f %% of their time"
              % (len(slow), top, 100 * sum(op["self"][top] for op in slow) / slow_total))
    print("counts: totals over one pass of the %d-market pool; times: seconds per traced op"
          % len(bench.pool))
    print("tracing overhead: traced op_p50 %.4f s - untraced op_p50 %.4f s = %.4f s"
          % (statistics.median(traced), statistics.median(untraced), overhead))
    print("no wait-time metrics: the program is single-threaded and no layer queues")
    print("spans written to %s" % spans_path.relative_to(REPO))
    for problem in problems:
        print("SELF-TEST FAILED: %s" % problem, file=sys.stderr)
    print("self-tests: %s" % ("passed" if not problems else "%d failed" % len(problems)))
    return metrics, attempted, failed, not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uceauction" / "__init__.py").is_file():
        print("perfbench: no uceauction sources at %s" % SRC, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    goldens = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)[workload.name]

    warnings = WarningCounter()
    demand_log = logging.getLogger("uceauction.demand")
    demand_log.addHandler(warnings)
    demand_log.propagate = False

    workdir = WORK / ("run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, str(workdir))
        setups = []
        for i in range(SETUPS):
            before = host_kernel()
            seconds = bench.setup(i)
            setups.append((seconds, before, host_kernel()))
        print("workload %s  seed %d  pool %d markets  %s"
              % (workload.name, args.seed, len(bench.pool),
                 "checked against goldens and oracles" if goldens is not None
                 else "checked against oracles (no goldens for this seed)"))
        if args.trace:
            metrics, attempted, failed, self_tests = layer_run(bench, args, goldens)
            units = PER_LAYER
        else:
            metrics, attempted, failed = end_to_end(bench, args, setups, goldens)
            self_tests = True
            units = END_TO_END
        print("demand monitor warnings routed off stderr: %d" % warnings.count)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units:
        print("%-34s %14.6f %s" % (name, float(metrics[name]), unit))
    result = {
        "correct": failed == 0 and self_tests,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
