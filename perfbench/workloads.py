"""Market pools, the operation each workload times, and the checks on its output.

Every pool is a fixed base list of seeded markets.  Seed 0 runs the base list
itself, which is what the goldens were recorded on.  Any other seed changes
every value of every market, in a way chosen per workload so that the cost of
an operation stays comparable from seed to seed while the outcomes change:

- auction markets: each value moves by a uniform whole number of epsilon-steps
  in [-jitter, +jitter].  Round counts, and with them op cost, move by about
  `jitter` rounds per market.
- dual markets: each market's values are multiplied by its own integer factor
  in [2, 9].  Bland's rule then takes the same pivots, whereas any additive
  change can reroute the simplex and change a solve's time several-fold; the
  optimum, the price table and the subgradient path (fixed step 1/2) change.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 0
SUBGRADIENT_STEP = Fraction(1, 2)
SUBGRADIENT_ITERATIONS = 200


class Market:
    """One generated market: its id in the pool, the instance, and its file."""

    def __init__(self, market_id, instance, path=None):
        self.id = market_id
        self.instance = instance
        self.path = path


# ---------------------------------------------------------------------------
# Base pools
# ---------------------------------------------------------------------------

def _product_mix_family(pkg, generator_seeds, **params):
    for m in generator_seeds:
        for direction in ("ascending", "descending"):
            inst = pkg.generate.generate_product_mix(seed=m, direction=direction, **params)
            yield "s%02d-%s" % (m, direction), inst


def wide_coarse_base(pkg):
    # The first markets of the acceptance criterion-7 family.
    return _product_mix_family(
        pkg, [0, 3, 4, 5],
        n=12, K=12, epsilon=Fraction(1, 10), value_steps_max=14, gamma_max=2,
    )


def narrow_fine_base(pkg):
    return _product_mix_family(
        pkg, range(5), n=4, K=12, epsilon=Fraction(1, 100), value_steps_max=150,
    )


def dual_small_base(pkg):
    # The first markets of the acceptance criterion-5 set.
    rng = random.Random(777)
    for idx in range(8):
        if idx % 2:
            inst = pkg.generate.random_multi_unit_instance(rng, n_max=3, K_max=4, units_max=3)
        else:
            inst = pkg.generate.random_product_mix_instance(rng, n_max=3, K_max=5, gamma_max=3)
        yield "c5-%02d" % idx, inst


def _descending_start(model, agents, eps):
    # The generators' rule: one step above the highest per-unit value.
    return eps + max(
        v.marginals[0] if isinstance(v, model.MultiUnitValuation) else v.v_s for v in agents
    )


def _rebuilt(model, inst, agents, p_init):
    return model.Instance(
        agents=tuple(agents), K=inst.K, delta=inst.delta, epsilon=inst.epsilon,
        p_init=p_init, direction=inst.direction, update_mode=inst.update_mode,
    )


def perturb(pkg, inst, rng, jitter):
    """The same market shape with every value moved by up to `jitter` steps."""
    model = pkg.model
    eps = inst.epsilon

    def moved(q, floor):
        return max(floor, int(q / eps) + rng.randint(-jitter, jitter))

    agents = []
    for v in inst.agents:
        if isinstance(v, model.MultiUnitValuation):
            marginals = sorted((moved(m, 0) for m in v.marginals), reverse=True)
            marginals[0] = max(marginals[0], 1)
            agents.append(model.MultiUnitValuation(tuple(m * eps for m in marginals)))
        elif v.v_w == 0:
            agents.append(model.ProductMixValuation(0, moved(v.v_s, 1) * eps, v.gamma))
        else:
            w = moved(v.v_w, 1)
            s = max(w + 1, moved(v.v_s, 1))
            agents.append(model.ProductMixValuation(w * eps, s * eps, v.gamma))
    p_init = inst.p_init
    if inst.direction == "descending":
        p_init = _descending_start(model, agents, eps)
    return _rebuilt(model, inst, agents, p_init)


def rescale(pkg, inst, factor):
    """The same market with every value, and the start price, times `factor`."""
    model = pkg.model
    agents = []
    for v in inst.agents:
        if isinstance(v, model.MultiUnitValuation):
            agents.append(model.MultiUnitValuation(tuple(m * factor for m in v.marginals)))
        else:
            agents.append(model.ProductMixValuation(v.v_w * factor, v.v_s * factor, v.gamma))
    return _rebuilt(model, inst, agents, inst.p_init * factor)


def golden_entry(pkg, workload, market, summary):
    """What goldens.json stores for one market: its digest and exact outcome."""
    return dict(workload.exact(summary), digest=pkg.cli.instance_digest(market.instance))


def golden_problems(pkg, workload, market, summary, golden):
    if golden is None:
        return ["no golden recorded for %s" % market.id]
    if golden["digest"] != pkg.cli.instance_digest(market.instance):
        return ["market differs from the one the goldens were recorded on"]
    if golden != golden_entry(pkg, workload, market, summary):
        return ["outcome differs from golden"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class AuctionWorkload:
    """One op runs `uceauction run` on a market file for each engine in turn."""

    def __init__(self, name, base, jitter, engines, csv):
        self.name = name
        self.base = base
        self.jitter = jitter
        self.engines = engines
        self.csv = csv

    def vary(self, pkg, inst, rng):
        return perturb(pkg, inst, rng, self.jitter)

    def run_op(self, pkg, market, workdir):
        outputs = {}
        for engine in self.engines:
            json_path = os.path.join(workdir, "trace-%s.json" % engine)
            argv = ["run", market.path, "--trace-json", json_path]
            files = [json_path]
            if self.csv:
                csv_path = os.path.join(workdir, "trace-%s.csv" % engine)
                argv += ["--engine", engine, "--trace-csv", csv_path]
                files.append(csv_path)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = pkg.cli.main(argv)
            outputs[engine] = (code, stdout.getvalue(), files)
        return outputs

    def summarize(self, pkg, market, outputs):
        """Exact outcome per engine, read back from the files the CLI wrote."""
        summary = {}
        for engine, (code, stdout, files) in outputs.items():
            entry = {"exit": code, "stdout": stdout, "trace_bytes": 0}
            for path in files:
                if os.path.exists(path):
                    entry["trace_bytes"] += os.path.getsize(path)
            if code == 0:
                with open(files[0], encoding="utf-8") as fh:
                    doc = json.load(fh)
                outcome = doc["outcome"]
                entry.update(
                    rounds=outcome["rounds"],
                    queries=outcome["queries"],
                    allocation=outcome["allocation"],
                    payments=outcome.get("payments"),
                    details=outcome["details"],
                    refines=sum(
                        1
                        for record in doc["records"]
                        for update in record.get("updates", ())
                        if update["direction"] == "refine"
                    ),
                )
            for path in files:
                if os.path.exists(path):
                    os.unlink(path)
            summary[engine] = entry
        return summary

    def exact(self, summary):
        """The parts of a summary that must repeat exactly and match goldens."""
        return {
            engine: {k: entry.get(k) for k in ("exit", "rounds", "queries", "allocation", "payments")}
            for engine, entry in summary.items()
        }

    def reference(self, pkg, market):
        _, payoffs, _, values = pkg.oracle.vcg_from_definition(market.instance)
        return {"payoffs": payoffs, "welfare": values[0]}

    def check(self, pkg, market, summary, reference):
        """Problems with one op's output; an empty list means it passed."""
        inst = market.instance
        n = inst.n
        parse = pkg.model.parse_rational
        problems = []
        for engine, entry in summary.items():
            if entry["exit"] != 0:
                problems.append("%s exited %s" % (engine, entry["exit"]))
                continue
            allocation = {
                int(i): pkg.model.Bundle(*k) for i, k in entry["allocation"].items()
            }
            if sum(k.size for k in allocation.values()) > inst.K or not all(
                inst.valuation(i).contains(k) for i, k in allocation.items()
            ):
                problems.append("%s allocation infeasible" % engine)
                continue
            if engine == "uce":
                if "certification passed" not in entry["stdout"]:
                    problems.append("uce did not report certified prices")
                payments = {int(i): parse(q) for i, q in entry["payments"].items()}
                payoffs = {
                    i: inst.adjusted_value(i, allocation[i]) - payments[i]
                    for i in range(1, n + 1)
                }
                if payoffs != reference["payoffs"]:
                    problems.append("uce payoffs differ from oracle VCG payoffs")
                welfare = sum((inst.adjusted_value(i, k) for i, k in allocation.items()), Fraction(0))
                if welfare != reference["welfare"]:
                    problems.append("uce allocation is not efficient")
            elif engine == "linear":
                if entry["queries"] != entry["rounds"] * n:
                    problems.append("linear queries != rounds * n")
            elif engine == "parallel":
                per_economy = {int(j): r for j, r in entry["details"]["rounds_per_economy"].items()}
                expected = sum(r * (n if j == 0 else n - 1) for j, r in per_economy.items())
                if entry["queries"] != expected or entry["rounds"] != max(per_economy.values()):
                    problems.append("parallel rounds/queries inconsistent with its economies")
        return problems

    def exact_counts(self, summary):
        counts = {}
        for engine, entry in summary.items():
            counts["rounds." + engine] = entry.get("rounds", 0)
            counts["queries." + engine] = entry.get("queries", 0)
        counts["auction.refine_count"] = sum(e.get("refines", 0) for e in summary.values())
        counts["cli.trace_bytes"] = sum(e["trace_bytes"] for e in summary.values())
        return counts


class DualWorkload:
    """One op builds and solves the UCE dual exactly, then runs the
    subgradient baseline against that optimum."""

    name = "dual-small"

    @staticmethod
    def base(pkg):
        return dual_small_base(pkg)

    def vary(self, pkg, inst, rng):
        return rescale(pkg, inst, rng.randint(2, 9))

    def run_op(self, pkg, market, workdir):
        inst = pkg.model.load_instance(market.path)
        program = pkg.lp.build_uce_dual(inst)
        result = pkg.lp.solve(program)
        run = pkg.subgradient.run_subgradient(
            inst, SUBGRADIENT_STEP, SUBGRADIENT_ITERATIONS, lp_optimum=result.objective
        )
        return program, result, run

    def summarize(self, pkg, market, outputs):
        program, result, run = outputs
        table = {}
        for name, value in (result.solution or {}).items():
            if name.startswith("rho_i"):
                agent, bundle = name[len("rho_i"):].split("_", 1)
                kw, ks = bundle[1:].split("s")
                table[(int(agent), pkg.model.Bundle(int(kw), int(ks)))] = value
        return {
            "status": result.status,
            "optimum": result.objective,
            "best_objective": run.best_objective,
            "iterations": len(run.log),
            "rows": len(program.constraints),
            "cols": len(program.variables),
            "prices": table,
        }

    def exact(self, summary):
        return {
            "status": summary["status"],
            "optimum": str(summary["optimum"]),
            "best_objective": str(summary["best_objective"]),
        }

    def reference(self, pkg, market):
        """Lemma 1: the universal optimum is the sum of per-economy optima."""
        inst = market.instance
        lp = pkg.lp
        return {
            "optimum": sum(
                (lp.solve(lp.build_ce_primal(inst, j)).objective for j in range(inst.n + 1)),
                Fraction(0),
            )
        }

    def check(self, pkg, market, summary, reference):
        inst = market.instance
        if summary["status"] != "optimal":
            return ["dual not solved to optimality: %s" % summary["status"]]
        problems = []
        if summary["optimum"] != reference["optimum"]:
            problems.append("dual optimum differs from the per-economy sum (Lemma 1)")
        prices = summary["prices"]
        if not pkg.oracle.certify_uce(inst, lambda i, k: prices[(i, k)]).passed:
            problems.append("dual prices fail CE certification")
        if summary["best_objective"] < summary["optimum"]:
            problems.append("subgradient bound below the exact optimum")
        if summary["iterations"] != SUBGRADIENT_ITERATIONS:
            problems.append("subgradient ran %d iterations" % summary["iterations"])
        return problems

    def exact_counts(self, summary):
        return {
            "subgradient.dual_gap": summary["best_objective"] - summary["optimum"],
            "subgradient.iterations": summary["iterations"],
            "lp.rows": summary["rows"],
            "lp.cols": summary["cols"],
        }


WORKLOADS = {
    w.name: w
    for w in (
        AuctionWorkload("wide-coarse", wide_coarse_base, jitter=2, engines=("uce",), csv=False),
        AuctionWorkload(
            "narrow-fine", narrow_fine_base, jitter=3, engines=("uce", "linear", "parallel"),
            csv=True,
        ),
        DualWorkload(),
    )
}


def build_pool(pkg, workload, seed):
    base = list(workload.base(pkg))
    if seed == DEFAULT_SEED:
        return [Market(mid, inst) for mid, inst in base]
    rng = random.Random("%s:%d" % (workload.name, seed))
    return [Market(mid, workload.vary(pkg, inst, rng)) for mid, inst in base]


def write_pool(pkg, pool, directory):
    os.makedirs(directory, exist_ok=True)
    for idx, market in enumerate(pool):
        market.path = os.path.join(directory, "%02d-%s.json" % (idx, market.id))
        text = json.dumps(pkg.model.instance_to_dict(market.instance), indent=2, sort_keys=True)
        with open(market.path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
