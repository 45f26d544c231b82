"""Outside-in layer instrumentation: spans and counters installed by replacing
the module attributes each layer is entered through, and removed afterwards.

Spans (name, start, end, parent, op id) are kept in memory and give per-layer
self time.  Counters run in a separate pass, so their per-call cost never
lands in a span.  The simplex pivot count comes from a profile hook that is
active only inside `lp.solve` and counts calls of its nested `pivot` code.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs wrapped by the span pass.  The name a caller looks
# up is the one that has to be replaced: `auction` imported the demand and
# pricing functions by name, so they are wrapped in `auction`'s namespace.
SPANNED = (
    ("cli", "main"),
    ("cli", "load_instance"),
    ("model", "load_instance"),
    ("auction", "run_uce_auction"),
    ("auction", "run_linear_auction"),
    ("auction", "run_parallel_auction"),
    ("auction", "demand_set"),
    ("auction", "demand_at_linear_price"),
    ("auction", "diagnose"),
    ("auction", "apply_over_demand_update"),
    ("auction", "apply_under_demand_update"),
    ("auction", "final_allocation"),
    ("auction", "vcg_payments"),
    ("oracle", "certify_uce"),
    ("lp", "build_uce_dual"),
    ("lp", "solve"),
    ("subgradient", "run_subgradient"),
)

# Per-layer time metrics: (metric, span names, inclusive?).  Self time unless
# the metric is a whole engine.
TIME_METRICS = (
    ("oracle.certify_s", ("oracle.certify_uce",), False),
    ("auction.payments_s", ("auction.vcg_payments",), False),
    ("auction.final_allocation_s", ("auction.final_allocation",), False),
    ("demand.envelope_s", ("auction.demand_set",), False),
    ("pricing.update_s", ("auction.apply_over_demand_update", "auction.apply_under_demand_update"), False),
    ("demand.linear_s", ("auction.demand_at_linear_price",), False),
    ("demand.balance_s", ("auction.diagnose",), False),
    ("auction.uce_s", ("auction.run_uce_auction",), True),
    ("auction.linear_s", ("auction.run_linear_auction",), True),
    ("auction.parallel_s", ("auction.run_parallel_auction",), True),
    ("auction.self_s", ("auction.run_uce_auction",), False),
    ("cli.self_s", ("cli.main",), False),
    ("model.load_s", ("cli.load_instance", "model.load_instance"), False),
    ("lp.build_s", ("lp.build_uce_dual",), False),
    ("lp.solve_s", ("lp.solve",), False),
    ("subgradient.run_s", ("subgradient.run_subgradient",), False),
)

# Span names whose call count the counting pass also takes, for the
# cross-check that both passes saw the same calls.
SPAN_COUNTERS = {
    "auction.demand_set": "demand.envelope_queries",
    "auction.demand_at_linear_price": "demand.linear_queries",
    "auction.diagnose": "demand.balance_tests",
    "oracle.certify_uce": "oracle.certify_calls",
    "lp.solve": "lp.solves",
}

ROOT = "op"
# What installing and removing the span wrappers may add to an op's wall time
# beyond its spans: the larger of these seconds and this share of the op.
WRAP_SLACK_S = 0.002
WRAP_SLACK_SHARE = 0.01


class Patches:
    """Replaced module attributes, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._patches = Patches()

    def _wrap(self, name):
        spans, stack = self.spans, self._stack

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(spans)
                parent = stack[-1] if stack else None
                op_id = spans[parent][4] if stack else None
                spans.append([name, perf_counter(), None, parent, op_id])
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = perf_counter()

            return traced

        return make

    def install(self, pkg):
        for module, attr in SPANNED:
            self._patches.replace(getattr(pkg, module), attr, self._wrap("%s.%s" % (module, attr)))

    def uninstall(self):
        self._patches.restore()

    def op(self, op_id, fn):
        """Run fn() as the root span of op `op_id` and return its result."""
        idx = len(self.spans)
        self.spans.append([ROOT, perf_counter(), None, None, op_id])
        self._stack.append(idx)
        try:
            return fn()
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")

    def analyse(self, op_seconds):
        """Per-op self and inclusive time by span name, span counts, and the
        nesting self-test: every span belongs to an op and lies inside its
        parent, and each op's self times sum to the wall seconds the harness
        timed for that op on its own (`op_seconds[op_id]`), less at most the
        cost of installing and removing the wrappers."""
        child_time = defaultdict(float)
        problems = []
        for span in self.spans:
            name, start, end, parent, op_id = span
            if op_id is None:
                problems.append("span %s ran outside any op" % name)
            if parent is not None:
                p = self.spans[parent]
                child_time[parent] += end - start
                if start < p[1] or end > p[2] or p[4] != op_id:
                    problems.append("span %s escapes its parent %s" % (name, p[0]))
        ops = {}
        for idx, (name, start, end, parent, op_id) in enumerate(self.spans):
            op = ops.setdefault(op_id, {"self": Counter(), "incl": Counter(), "calls": Counter(),
                                        "duration": 0.0})
            duration = end - start
            op["self"][name] += duration - child_time[idx]
            op["incl"][name] += duration
            op["calls"][name] += 1
            if name == ROOT:
                op["duration"] = duration
        for op_id, op in ops.items():
            if op_id is None:
                continue
            total = sum(op["self"].values())
            wall = op_seconds[op_id]
            if not 0.0 <= wall - total <= max(WRAP_SLACK_S, WRAP_SLACK_SHARE * wall):
                problems.append("op %s: self times sum to %.6f s, the op took %.6f s"
                                % (op_id, total, wall))
        return ops, problems


def _pivot_code(lp_module):
    for const in lp_module.solve.__code__.co_consts:
        if getattr(const, "co_name", None) == "pivot":
            return const
    raise RuntimeError("lp.solve has no nested pivot function to count")


class CountingPass:
    """Per-op call counts of the high-frequency layer entry points."""

    def __init__(self):
        self.counts = Counter()
        self._patches = Patches()

    def install(self, pkg):
        counts = self.counts
        replace = self._patches.replace

        def counting(metric, extra=None):
            def make(fn):
                def counted(*args, **kwargs):
                    counts[metric] += 1
                    result = fn(*args, **kwargs)
                    if extra is not None:
                        extra(result)
                    return result

                return counted

            return make

        def count_maximizers(report):
            counts["demand.maximizers"] += len(report.maximizers)

        replace(pkg.pricing, "line_price", counting("pricing.line_evals"))
        replace(pkg.auction, "demand_set", counting("demand.envelope_queries", count_maximizers))
        replace(pkg.auction, "demand_at_linear_price", counting("demand.linear_queries"))
        replace(pkg.auction, "diagnose", counting("demand.balance_tests"))
        replace(pkg.auction, "apply_over_demand_update", counting("pricing.updates"))
        replace(pkg.auction, "apply_under_demand_update", counting("pricing.updates"))
        replace(pkg.oracle, "efficient_value", counting("oracle.dp_calls"))
        replace(pkg.oracle, "revenue_max", counting("oracle.dp_calls"))

        def certify(fn):
            def counted(instance, price_fn):
                counts["oracle.certify_calls"] += 1
                seen = set()

                def counted_price(i, k):
                    counts["oracle.price_fn_calls"] += 1
                    seen.add((i, k))
                    return price_fn(i, k)

                try:
                    return fn(instance, counted_price)
                finally:
                    counts["oracle.price_fn_distinct"] += len(seen)

            return counted

        replace(pkg.oracle, "certify_uce", certify)

        pivot = _pivot_code(pkg.lp)

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is pivot:
                counts["lp.pivots"] += 1

        def solve(fn):
            def counted(*args, **kwargs):
                counts["lp.solves"] += 1
                previous = sys.getprofile()
                sys.setprofile(hook)
                try:
                    return fn(*args, **kwargs)
                finally:
                    sys.setprofile(previous)

            return counted

        replace(pkg.lp, "solve", solve)

    def uninstall(self):
        self._patches.restore()

    def take(self):
        """Counts since the last take, as a plain dict."""
        taken = dict(self.counts)
        self.counts.clear()
        return taken
