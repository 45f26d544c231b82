"""Exactness sweep: one sha256 per run, for diffing two checkouts.

    python3 tools/exactness_sweep.py [CHECKOUT] > sweep.txt

CHECKOUT (default: the checkout holding this script) is the tree whose
`src/uceauction` and `perfbench/workloads.py` are imported.  Run the sweep on
a parent checkout and on a change and diff the two outputs; each line is
`<run> <sha256>`, so a differing line names the run whose output changed.

Runs, each through `uceauction run --engine uce|linear|parallel` with
`--trace-json` and `--trace-csv`, hashing the exit code, stdout, stderr and
both trace files:

- acceptance criterion 3's 200 instances;
- the perfbench `wide-coarse` and `narrow-fine` seed-0 pools (each holds both
  directions), in both update modes;
- 200 seeded product-mix markets on the tie face v_s - delta = v_w with
  delta > 0, where every split of a demanded size is a maximizer, so the
  final allocation's choice among them shows;
- 30 seeded multi-unit markets on epsilon grids 1, 1/2 and 1/10 with a
  strong-unit bias delta > 0, so that adjusted marginals run through zero and
  below it, with zero marginals and 20 to 40 units per bidder: many
  breakpoints for the uniform-price clocks;
- two large multi-unit markets at epsilon = 1/100,
  `generate_multi_unit(seed=3, n=12, K=200)` and `(seed=3, n=30, K=600)`,
  whose capacities (up to 2K/n units per bidder) make the terminal phase's
  optima and the clocks' kappa sums range over many marginals;
- one large product-mix market, `generate_product_mix(seed=3, n=40, K=400)`
  at epsilon = 1/100, whose UCE run holds long runs of identical rounds
  over 40 agents' envelopes of 40 price lines each;
- and, with `--round-cap` 1, 2 and half the engine's uncapped round count,
  Table 1, the 12-bidder single-mode market whose UCE run refines, and the
  first ascending and descending markets of the `wide-coarse` and
  `narrow-fine` seed-0 pools, so the partial traces and the round-cap exit
  are hashed too (a parallel run capped at half its rounds can stop inside
  a later economy's sub-auction).

LP runs, each through `uceauction lp --build KIND --emit-lp --solve` for
every build kind, on Table 1, the `dual-small` seed-0 markets and those
markets with every value moved by up to one epsilon-step, hashing the exit
code, stdout and the emitted text, and `lp.solve`'s status, objective,
vertex, dual and pivot count on each emitted program.

And `subgradient.run_subgradient` on the 8 `dual-small` markets of seeds 0
and 3, at steps 1/2, 1/3 and 2/7 and at 0, 1 and 200 iterations, hashing the
log, the best objective and iteration, and the final state.  Steps 1/3 and
2/7 put the iterates on a finer lattice than the markets' values.

Standard library only; the pool definitions are read, never written.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ENGINES = ("uce", "linear", "parallel")
MODES = ("batch", "single")
SUBGRADIENT_STEPS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))
SUBGRADIENT_ITERATIONS = (0, 1, 200)


def import_checkout(root: Path):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    modules = ("auction", "cli", "generate", "lp", "model", "subgradient")
    pkg = SimpleNamespace(**{m: importlib.import_module("uceauction." + m) for m in modules})
    return pkg, importlib.import_module("workloads")


def with_mode(instance, mode):
    """The instance in update mode `mode`, rebuilt through its constructor,
    which Instance has whether it is a dataclass or a record."""
    return type(instance)(
        agents=instance.agents, K=instance.K, delta=instance.delta, epsilon=instance.epsilon,
        p_init=instance.p_init, direction=instance.direction, update_mode=mode,
    )


def criterion3_instances(generate):
    """Acceptance criterion 3's instances, in its order."""
    rng = random.Random(12345)
    for idx in range(200):
        family = (
            generate.random_multi_unit_instance if idx % 2 else generate.random_product_mix_instance
        )
        mode = MODES[(idx // 2) % 2]
        direction = ("ascending", "descending")[(idx // 4) % 2]
        instance = family(rng, direction=direction)
        yield "c3-%03d" % idx, with_mode(instance, mode)


def biased_multi_unit_markets(model):
    """30 multi-unit markets with delta > 0 on three epsilon grids, both
    directions.  Marginals are drawn from 0..24 or 0..200 epsilon-steps, so
    some equal delta (zero adjusted marginal), some lie below it and trailing
    zeros fall outside the consumption set; capacities are 20 to 40 units."""
    rng = random.Random(2718)
    for idx in range(30):
        epsilon = (Fraction(1), Fraction(1, 2), Fraction(1, 10))[idx % 3]
        delta = rng.randint(1, 6) * epsilon
        span = rng.choice((24, 200))
        agents = []
        for _ in range(rng.randint(2, 4)):
            units = rng.randint(20, 40)
            steps = sorted((rng.randint(0, span) for _ in range(units)), reverse=True)
            steps[0] = max(steps[0], 1)
            agents.append(model.MultiUnitValuation(tuple(q * epsilon for q in steps)))
        direction = ("ascending", "descending")[(idx // 3) % 2]
        top = max(v.marginals[0] for v in agents)
        instance = model.Instance(
            agents=tuple(agents), K=rng.randint(4, 60), delta=delta, epsilon=epsilon,
            p_init=Fraction(0) if direction == "ascending" else top + epsilon,
            direction=direction,
        )
        yield "mu-%02d" % idx, instance


def tie_face_markets(model):
    """200 product-mix markets whose bidders mostly sit on the tie face
    v_s - delta = v_w (delta > 0), in both directions and update modes; the
    rest value strong units strictly more, or only strong units."""
    rng = random.Random(1618)
    for idx in range(200):
        epsilon = (Fraction(1), Fraction(1, 2), Fraction(1, 10))[idx % 3]
        delta = rng.randint(1, 4) * epsilon
        agents = []
        for _ in range(rng.randint(2, 5)):
            v_w = rng.randint(1, 12) * epsilon
            kind = rng.random()
            if kind < 0.7:
                v_s = v_w + delta
            elif kind < 0.85:
                v_s = v_w + delta + rng.randint(1, 4) * epsilon
            else:
                v_w, v_s = Fraction(0), v_w + delta
            agents.append(model.ProductMixValuation(v_w=v_w, v_s=v_s, gamma=rng.randint(1, 5)))
        direction = ("ascending", "descending")[(idx // 2) % 2]
        top = max(v.v_s for v in agents)
        instance = model.Instance(
            agents=tuple(agents), K=rng.randint(2, 12), delta=delta, epsilon=epsilon,
            p_init=Fraction(0) if direction == "ascending" else top + epsilon,
            direction=direction, update_mode=MODES[idx % 2],
        )
        yield "tie-%03d" % idx, instance


def table1(model):
    """The three-agent, four-unit worked example of the tests."""
    marginals = ((8, 5, 4, 2), (7, 3, 2, 0), (6, 1, 0, 0))
    agents = tuple(model.MultiUnitValuation(tuple(Fraction(m) for m in ms)) for ms in marginals)
    return model.Instance(agents=agents, K=4)


def digest(parts) -> str:
    """sha256 over length-prefixed parts, so no two part lists collide."""
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(b"%d:" % len(data))
        h.update(data)
    return h.hexdigest()


def read_or_missing(path: str) -> bytes:
    if not os.path.exists(path):
        return b"<missing>"
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    return data


def engine_hash(pkg, instance_path: str, engine: str, workdir: str, cap=None) -> str:
    trace_json = os.path.join(workdir, "trace.json")
    trace_csv = os.path.join(workdir, "trace.csv")
    argv = ["run", instance_path, "--engine", engine,
            "--trace-json", trace_json, "--trace-csv", trace_csv]
    if cap is not None:
        argv += ["--round-cap", str(cap)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is an output too
            code = "exception %s: %s" % (type(exc).__name__, exc)
    return digest([code, stdout.getvalue(), stderr.getvalue(),
                   read_or_missing(trace_json), read_or_missing(trace_csv)])


def auction_runs(pkg, workloads):
    """(label, instance, engines) of every auction run."""
    for label, instance in criterion3_instances(pkg.generate):
        yield label, instance, ENGINES
    for name in ("wide-coarse", "narrow-fine"):
        pool = workloads.build_pool(pkg, workloads.WORKLOADS[name], workloads.DEFAULT_SEED)
        for mode in MODES:
            for market in pool:
                yield ("%s-%s-%s" % (name, market.id, mode),
                       with_mode(market.instance, mode), ENGINES)
    for label, instance in tie_face_markets(pkg.model):
        yield label, instance, ENGINES
    for label, instance in biased_multi_unit_markets(pkg.model):
        yield label, instance, ENGINES
    for n, K in ((12, 200), (30, 600)):
        instance = pkg.generate.generate_multi_unit(seed=3, n=n, K=K, epsilon=Fraction(1, 100))
        yield "mu-seed3-n%d-K%d" % (n, K), instance, ENGINES
    instance = pkg.generate.generate_product_mix(seed=3, n=40, K=400, epsilon=Fraction(1, 100))
    yield "pm-seed3-n40-K400", instance, ENGINES


def capped_runs(pkg, workloads):
    """(label, instance, engine, cap) of every round-capped run."""
    markets = [
        ("table1", table1(pkg.model)),
        ("refine", pkg.generate.generate_product_mix(
            seed=1, n=12, K=12, epsilon=Fraction(1, 10), value_steps_max=14, gamma_max=3,
            update_mode="single")),
    ]
    for name in ("wide-coarse", "narrow-fine"):
        pool = workloads.build_pool(pkg, workloads.WORKLOADS[name], workloads.DEFAULT_SEED)
        for direction in ("ascending", "descending"):
            market = next(m for m in pool if m.instance.direction == direction)
            markets.append(("%s-%s" % (name, market.id), market.instance))
    for label, instance in markets:
        for engine in ENGINES:
            rounds = getattr(pkg.auction, "run_%s_auction" % engine)(instance)[0].rounds
            for cap in sorted({1, 2, max(rounds // 2, 1)}):
                yield "%s-cap%d" % (label, cap), instance, engine, cap


def solve_parts(pkg, text: bytes):
    """lp.solve's outcome on an emitted program, as hashable parts."""
    result = pkg.lp.solve(pkg.lp.parse_lp_text(text.decode("utf-8")))
    return [result.status, result.objective, result.pivots,
            sorted((name, str(q)) for name, q in (result.solution or {}).items()),
            sorted((name, str(q)) for name, q in (result.dual or {}).items())]


def lp_hash(pkg, instance_path: str, build: str, workdir: str) -> str:
    emitted = os.path.join(workdir, "program.lp")
    argv = ["lp", instance_path, "--build", build, "--emit-lp", emitted, "--solve"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is an output too
            code = "exception %s: %s" % (type(exc).__name__, exc)
    parts = [code, stdout.getvalue()]
    for path in (emitted, emitted + ".dual"):
        text = read_or_missing(path)
        parts.append(text)
        if text != b"<missing>":
            parts.extend(solve_parts(pkg, text))
    # Paths in stdout name the work directory, which differs per run.
    return digest(part.replace(workdir, "<dir>") if isinstance(part, str) else part
                  for part in parts)


def lp_markets(pkg, workloads):
    """Table 1, the `dual-small` seed-0 pool, and that pool with every value
    moved by up to one epsilon-step.  The rescaled seeds follow the seed-0
    pivot paths; most perturbed markets take others (uce-dual pivots 17, 69,
    72, 61 and 28 where the pool takes 35, 81, 70, 63 and 27)."""
    yield "table1", table1(pkg.model)
    pool = workloads.build_pool(pkg, workloads.WORKLOADS["dual-small"], 0)
    for market in pool:
        yield "dual-small-seed0-%s" % market.id, market.instance
    rng = random.Random("exactness:dual-small-perturbed")
    for market in pool:
        yield ("dual-small-seed0-perturbed-%s" % market.id,
               workloads.perturb(pkg, market.instance, rng, 1))


def subgradient_hash(pkg, instance, step: Fraction, iterations: int) -> str:
    run = pkg.subgradient.run_subgradient(instance, step, iterations)
    state = run.state
    return digest([
        json.dumps(run.log, sort_keys=True),
        run.best_objective,
        run.best_iteration,
        sorted((key, str(q)) for key, q in state.rho.items()),
        [str(q) for q in state.p],
        sorted((key, str(q)) for key, q in state.alpha.items()),
        state.step,
    ])


def main(argv) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parent.parent
    pkg, workloads = import_checkout(root)
    with tempfile.TemporaryDirectory(prefix="exactness-") as workdir:
        instance_path = os.path.join(workdir, "instance.json")
        for label, instance, engines in auction_runs(pkg, workloads):
            with open(instance_path, "w", encoding="utf-8") as fh:
                json.dump(pkg.model.instance_to_dict(instance), fh, indent=2, sort_keys=True)
            for engine in engines:
                run_hash = engine_hash(pkg, instance_path, engine, workdir)
                print("%s-%s %s" % (label, engine, run_hash), flush=True)
        for label, instance, engine, cap in capped_runs(pkg, workloads):
            with open(instance_path, "w", encoding="utf-8") as fh:
                json.dump(pkg.model.instance_to_dict(instance), fh, indent=2, sort_keys=True)
            run_hash = engine_hash(pkg, instance_path, engine, workdir, cap)
            print("%s-%s %s" % (label, engine, run_hash), flush=True)
        for label, instance in lp_markets(pkg, workloads):
            with open(instance_path, "w", encoding="utf-8") as fh:
                json.dump(pkg.model.instance_to_dict(instance), fh, indent=2, sort_keys=True)
            for build in pkg.cli.BUILDS:
                run_hash = lp_hash(pkg, instance_path, build, workdir)
                print("lp-%s-%s %s" % (label, build, run_hash), flush=True)
    dual = workloads.WORKLOADS["dual-small"]
    for step in SUBGRADIENT_STEPS:
        # Step 1/2 runs keep the labels they had before the other steps.
        tag = "" if step == Fraction(1, 2) else "-step%s" % step
        for seed in (0, 3):
            for market in workloads.build_pool(pkg, dual, seed):
                for iterations in SUBGRADIENT_ITERATIONS:
                    print("dual-small-seed%d-%s%s-it%d %s"
                          % (seed, market.id, tag, iterations,
                             subgradient_hash(pkg, market.instance, step, iterations)),
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
