"""Command-line interface: run auctions, verify invariants, emit LPs, generate
instances, and print side-by-side engine comparisons.

Exit codes: 0 success, 2 usage/validation error, 3 invariant or certification
failure or round cap reached.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import auction, generate, lp, oracle, subgradient
from .demand import demand_set
from .model import (
    Instance,
    InstanceValidationError,
    NotUniversal,
    ZERO_BUNDLE,
    format_rational,
    instance_to_dict,
    load_instance,
    parse_rational,
)
from .traces import (
    state_from_record,
    write_csv,
    write_json,
    write_text,
    write_trace_csv,
    write_trace_json,
)

# The interpreter's builtin SHA-256; hashlib would load OpenSSL's libcrypto
# for one digest per run.
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3

ENGINES = ("uce", "linear", "parallel", "subgradient")
BUILDS = ("ce-primal", "ce-dual", "uce-primal", "uce-dual", "restricted-dual", "general-uce")


class OptionError(ValueError):
    """An option value outside the range its instance allows (exit 2)."""


def instance_digest(inst: Instance) -> str:
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True).encode("utf-8")
    return sha256(canonical).hexdigest()[:16]


def _out_path(args, name: str) -> str:
    out_dir = args.out_dir
    if out_dir is None:  # read when the command runs: the parser is built once
        out_dir = os.environ.get("UCEAUCTION_OUT", ".")
    return os.path.join(out_dir, name)


def _allocation_split(allocation) -> tuple:
    weak = sum(k.kw for k in allocation.values())
    strong = sum(k.ks for k in allocation.values())
    return weak, strong


def _format_allocation(allocation, n: int) -> str:
    parts = []
    for i in range(1, n + 1):
        k = allocation.get(i, ZERO_BUNDLE)
        parts.append("%d:(%d,%d)" % (i, k.kw, k.ks))
    return " ".join(parts)


def _format_payments(payments, n: int) -> str:
    return " ".join(
        "%d:%s" % (i, format_rational(payments[i])) for i in range(1, n + 1)
    )


def _run_engine(inst, engine, args):
    if engine == "uce":
        return auction.run_uce_auction(inst, round_cap=args.round_cap)
    if engine == "linear":
        return auction.run_linear_auction(inst, round_cap=args.round_cap)
    if engine == "parallel":
        return auction.run_parallel_auction(inst, round_cap=args.round_cap)
    raise ValueError(engine)


def cmd_run(args) -> int:
    inst = load_instance(args.instance)
    digest = instance_digest(inst)
    n = inst.n

    if args.engine == "subgradient":
        run = subgradient.run_subgradient(
            inst, step=args.step, iterations=args.iterations, lp_optimum=args.lp_optimum
        )
        print("instance %s  engine subgradient  step %s" % (digest, args.step))
        print("iterations %d  best objective %s at iteration %d"
              % (len(run.log), format_rational(run.best_objective), run.best_iteration))
        if args.lp_optimum is not None:
            print("gap to LP optimum: %s"
                  % format_rational(run.best_objective - args.lp_optimum))
        if args.trace_csv:
            header = ["iteration", "objective", "best_objective", "max_subgradient"]
            if args.lp_optimum is not None:
                header.append("gap")
            write_csv(args.trace_csv, header, ([entry[h] for h in header] for entry in run.log))
        if args.trace_json:
            write_json(args.trace_json, {"instance_digest": digest, "log": run.log})
        return EXIT_OK

    if args.compare:
        return _cmd_compare(inst, digest, args)

    try:
        outcome, trace = _run_engine(inst, args.engine, args)
    except auction.RoundLimitExceeded as exc:
        _write_traces(args, digest, n, exc.trace)
        raise
    certification = "passed" if args.engine == "uce" else "n/a"

    weak, strong = _allocation_split(outcome.allocation)
    print("instance %s  engine %s  direction %s  mode %s"
          % (digest, args.engine, inst.direction, inst.update_mode))
    print("rounds %d  queries %d  allocation weak=%d strong=%d"
          % (outcome.rounds, outcome.queries, weak, strong))
    print("allocation %s" % _format_allocation(outcome.allocation, n))
    if outcome.payments is not None:
        print("payments %s" % _format_payments(outcome.payments, n))
    else:
        print("payments not available (engine does not elicit enough information)")
    print("certification %s" % certification)
    for key, val in outcome.details.items():
        print("%s %s" % (key, val))

    _write_traces(args, digest, n, trace)
    return EXIT_OK


def _write_traces(args, digest: str, n: int, trace) -> None:
    """Write --trace-csv and --trace-json.  A trace without an outcome is one
    the round cap stopped; both files then end with a round-cap marker."""
    if args.trace_csv:
        write_trace_csv(args.trace_csv, args.engine, trace)
    if args.trace_json:
        write_trace_json(args.trace_json, args.engine, digest, trace, n)


def _cmd_compare(inst, digest, args) -> int:
    """Run all three engines on one instance and print one summary table."""
    rows = []
    for engine in ("uce", "linear", "parallel"):
        outcome, _ = _run_engine(inst, engine, args)
        weak, strong = _allocation_split(outcome.allocation)
        payments = (
            _format_payments(outcome.payments, inst.n)
            if outcome.payments is not None
            else "-"
        )
        rows.append((engine, outcome.rounds, outcome.queries, weak, strong, payments))
    print("instance %s  direction %s  mode %s" % (digest, inst.direction, inst.update_mode))
    header = ("auction", "rounds", "queries", "weak", "strong", "payments")
    widths = [max(len(str(r[c])) for r in rows + [header]) for c in range(6)]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return EXIT_OK


def _dump_counterexample(args, payload: dict) -> str:
    path = _out_path(args, "counterexample-%d.json" % payload["index"])
    write_json(path, payload)
    return path


def _verify_instances(args):
    rng = random.Random(args.seed)
    for _ in range(args.count):
        if args.family == "multi_unit":
            yield generate.random_multi_unit_instance(
                rng, n_max=3, K_max=4, value_max=8, units_max=3,
                update_mode=args.mode, direction=args.direction,
            )
        else:
            yield generate.random_product_mix_instance(
                rng, n_max=3, K_max=5, gamma_max=3, value_max=8,
                update_mode=args.mode, direction=args.direction,
            )


def cmd_verify(args) -> int:
    if args.instance:
        instances = [load_instance(args.instance)]
    else:
        instances = list(_verify_instances(args))

    failures = 0
    for idx, inst in enumerate(instances):
        try:
            if args.suite == "lemma1":
                total = lp.solve(lp.build_uce_primal(inst)).objective
                split = sum(
                    (lp.solve(lp.build_ce_primal(inst, j)).objective for j in range(0, inst.n + 1)),
                    Fraction(0),
                )
                ok = total == split
                detail = {"uce_optimum": str(total), "per_economy_sum": str(split)}
            elif args.suite == "vcg":
                outcome, _ = auction.run_uce_auction(inst)
                _, payoffs, _, values = oracle.vcg_from_definition(inst)
                engine_payoffs = {
                    i: inst.adjusted_value(i, outcome.allocation.get(i, ZERO_BUNDLE))
                    - outcome.payments[i]
                    for i in range(1, inst.n + 1)
                }
                ok = engine_payoffs == payoffs
                detail = {
                    "engine_payoffs": {i: str(q) for i, q in engine_payoffs.items()},
                    "oracle_payoffs": {i: str(q) for i, q in payoffs.items()},
                }
            elif args.suite == "descent":
                inst = Instance(
                    agents=inst.agents, K=inst.K, delta=inst.delta,
                    epsilon=inst.epsilon, p_init=inst.p_init,
                    direction=inst.direction, update_mode="single",
                )
                _, trace = auction.run_uce_auction(inst)
                objectives = [parse_rational(r["dual_objective"]) for r in trace.records]
                ok = all(b < a for a, b in zip(objectives, objectives[1:]))
                detail = {"objectives": [str(o) for o in objectives]}
            else:
                print("unknown suite %r" % args.suite, file=sys.stderr)
                return EXIT_VALIDATION
        except (auction.RoundLimitExceeded, NotUniversal) as exc:
            ok = False
            detail = {"error": str(exc)}
        if not ok:
            failures += 1
            path = _dump_counterexample(
                args,
                {
                    "suite": args.suite,
                    "index": idx,
                    "instance": instance_to_dict(inst),
                    "detail": detail,
                },
            )
            print("FAIL %s instance %d (counterexample: %s)" % (args.suite, idx, path))
    print("%s: %d/%d passed" % (args.suite, len(instances) - failures, len(instances)))
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def cmd_gen(args) -> int:
    market = dict(
        seed=args.seed,
        n=args.agents,
        K=args.supply,
        epsilon=args.epsilon,
        gamma_max=args.gamma_max,
        delta_steps=args.delta_steps,
        direction=args.direction,
        update_mode=args.update_mode,
    )
    if args.strong_fraction is not None:
        if args.family == "multi_unit":
            raise OptionError(
                "argument --strong-fraction: not used by --family multi_unit, whose"
                " bidders have no weak units"
            )
        market["strong_only_fraction"] = args.strong_fraction
    if args.family == "multi_unit":
        inst = generate.generate_multi_unit(**market)
    else:
        inst = generate.generate_product_mix(**market)
    doc = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    write_text(args.output, doc)
    print("wrote %s (digest %s)" % (args.output, instance_digest(inst)))
    return EXIT_OK


def _build_program(inst, args):
    if args.build == "ce-primal":
        return [lp.build_ce_primal(inst, args.economy)]
    if args.build == "ce-dual":
        return [lp.build_ce_dual(inst, args.economy)]
    if args.build == "uce-primal":
        return [lp.build_uce_primal(inst)]
    if args.build == "uce-dual":
        return [lp.build_uce_dual(inst)]
    if args.build == "general-uce":
        primal, dual = lp.build_general_uce_lps(lp.encode_two_item_instance(inst))
        return [primal, dual]
    # restricted-dual: reconstruct the price state at the requested round from
    # the trace (the last one by default), recompute demand reports, and build
    # the program there.
    _, trace = auction.run_uce_auction(inst)
    rounds = len(trace.records)
    at_round = rounds if args.at_round is None else args.at_round
    if at_round > rounds:
        raise OptionError(
            "argument --at-round: must be at most %d, the number of rounds, got %d"
            % (rounds, at_round)
        )
    state = state_from_record(trace.records[at_round - 1], inst.n, inst.delta)
    reports = {i: demand_set(inst.valuation(i), state, i) for i in range(1, inst.n + 1)}
    return [lp.build_restricted_dual(inst, state, reports)]


def cmd_lp(args) -> int:
    inst = load_instance(args.instance)
    if args.economy > inst.n:
        raise OptionError(
            "argument --economy: must be at most %d, the number of agents, got %d"
            % (inst.n, args.economy)
        )
    programs = _build_program(inst, args)
    if args.emit_lp:
        paths = (
            [args.emit_lp]
            if len(programs) == 1
            else [args.emit_lp, args.emit_lp + ".dual"]
        )
        for program, path in zip(programs, paths):
            write_text(path, lp.emit_lp_text(program))
            print("wrote %s (%s)" % (path, program.name))
    if args.solve:
        # For the general pair only the (cheaper) primal is solved; its
        # optimum equals the dual's by strong duality.
        program = programs[0]
        result = lp.solve(program)
        print("%s: status %s" % (program.name, result.status))
        if result.status == "optimal":
            print("optimum %s" % format_rational(result.objective))
    return EXIT_OK


def _bounded(convert, low, high=None):
    """argparse type for a number option in [low, high], or at least low when
    high is None: errors name the option."""

    def parse(text):
        value = convert(text)
        if not (low <= value and (high is None or value <= high)):
            bound = "at least %s" % low if high is None else "between %s and %s" % (low, high)
            raise argparse.ArgumentTypeError("must be %s, got %s" % (bound, text))
        return value

    parse.__name__ = convert.__name__  # "invalid int value" for non-numbers
    return parse


def _rational_option(text: str) -> Fraction:
    """argparse type for exact rational options: errors name the option."""
    try:
        return parse_rational(text)
    except InstanceValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_rational(text: str) -> Fraction:
    """argparse type for an exact rational option that must exceed 0."""
    value = _rational_option(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %s" % text)
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    is, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="uceauction",
        description="Iterative single-price-path Vickrey auctions: simulate, verify, solve.",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="directory for report files (default: $UCEAUCTION_OUT or the cwd)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an auction engine on an instance file")
    p_run.add_argument("instance")
    p_run.add_argument("--engine", choices=ENGINES, default="uce")
    p_run.add_argument("--compare", action="store_true",
                       help="run uce, linear, and parallel and print one table")
    p_run.add_argument("--trace-csv", help="write the per-round trace as CSV")
    p_run.add_argument("--trace-json", help="write the full trace as JSON")
    p_run.add_argument("--round-cap", type=_bounded(int, 1), default=None)
    p_run.add_argument("--step", type=_rational_option, default="1/2",
                       help="subgradient step size")
    p_run.add_argument("--iterations", type=_bounded(int, 1), default=200)
    p_run.add_argument("--lp-optimum", type=_rational_option, default=None,
                       help="known dual optimum for subgradient gap reporting")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="batch invariant checks against oracles")
    p_verify.add_argument("--suite", choices=("lemma1", "vcg", "descent"), required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=_bounded(int, 1), default=20)
    p_verify.add_argument("--family", choices=("multi_unit", "product_mix"),
                          default="multi_unit")
    p_verify.add_argument("--mode", choices=("batch", "single"), default="batch")
    p_verify.add_argument("--direction", choices=("ascending", "descending"),
                          default="ascending")
    p_verify.add_argument("--instance", default=None,
                          help="check a single instance file instead of a random batch")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded synthetic instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--family", choices=("product_mix", "multi_unit"),
                       default="product_mix")
    p_gen.add_argument("--agents", type=_bounded(int, 1), default=17)
    p_gen.add_argument("--supply", type=_bounded(int, 1), default=100)
    p_gen.add_argument("--epsilon", type=_positive_rational, default="1/100")
    p_gen.add_argument("--strong-fraction", type=_bounded(float, 0, 1), default=None,
                       help="product_mix: share of strong-only bidders")
    p_gen.add_argument("--gamma-max", type=_bounded(int, 1), default=None)
    p_gen.add_argument("--delta-steps", type=_bounded(int, 0), default=0)
    p_gen.add_argument("--direction", choices=("ascending", "descending"),
                       default="ascending")
    p_gen.add_argument("--update-mode", choices=("batch", "single"), default="batch")
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_lp = sub.add_parser("lp", help="build, emit, and solve the linear programs")
    p_lp.add_argument("instance")
    p_lp.add_argument("--build", choices=BUILDS, required=True)
    p_lp.add_argument("--economy", type=_bounded(int, 0), default=0)
    p_lp.add_argument("--solve", action="store_true")
    p_lp.add_argument("--emit-lp", default=None)
    p_lp.add_argument("--at-round", type=_bounded(int, 1), default=None,
                      help="restricted-dual: build at this round of the trace")
    p_lp.set_defaults(func=cmd_lp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceValidationError as exc:
        print("invalid instance: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except lp.InstanceTooLarge as exc:
        print("instance too large: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OptionError as exc:  # worded as argparse words its own errors
        print("%s %s: error: %s" % (parser.prog, args.command, exc), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # missing or unreadable file, a directory given as one
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except auction.RoundLimitExceeded as exc:
        print("round cap reached: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT
    except NotUniversal as exc:
        print("certification FAILED: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT
    except auction.OffLattice as exc:
        print("invariant failed: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
