import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uceauction import auction, cli, subgradient, traces
from uceauction.cli import main
from uceauction.generate import generate_multi_unit, generate_product_mix
from uceauction.model import (
    Instance,
    MultiUnitValuation,
    dump_instance,
    instance_to_dict,
    load_instance,
)
from uceauction.records import replace


@pytest.fixture
def table1_file(table1, tmp_path):
    path = tmp_path / "table1.json"
    dump_instance(table1, path)
    return str(path)


def test_run_uce_summary(table1_file, capsys):
    assert main(["run", table1_file]) == 0
    out = capsys.readouterr().out
    assert "rounds 5" in out
    assert "allocation 1:(0,2) 2:(0,1) 3:(0,1)" in out
    assert "payments 1:5 2:4 3:4" in out
    assert "certification passed" in out


def test_run_linear_has_no_payments(table1_file, capsys):
    assert main(["run", table1_file, "--engine", "linear"]) == 0
    out = capsys.readouterr().out
    assert "rounds 5" in out
    assert "payments not available" in out


def test_run_parallel_query_identity(table1_file, capsys):
    assert main(["run", table1_file, "--engine", "parallel"]) == 0
    out = capsys.readouterr().out
    assert "payments 1:5 2:4 3:4" in out


def test_run_compare_prints_table(table1_file, capsys):
    assert main(["run", table1_file, "--compare"]) == 0
    out = capsys.readouterr().out
    assert "auction" in out and "rounds" in out and "queries" in out
    assert "uce" in out and "linear" in out and "parallel" in out


def test_trace_csv_columns(table1_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["run", table1_file, "--trace-csv", str(trace)]) == 0
    capsys.readouterr()
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "round", "economy", "p", "sum_kappa_min", "sum_kappa_max", "diagnosis", "action",
    ]
    # 5 rounds x 4 economies.
    assert len(rows) == 1 + 20


def _refine_market():
    """A criterion-7-family market whose run takes one refine step."""
    return generate_product_mix(
        seed=1, n=12, K=12, epsilon=Fraction(1, 10), value_steps_max=14, gamma_max=3,
        update_mode="single",
    )


@pytest.fixture
def refine_file(tmp_path):
    path = tmp_path / "refine.json"
    dump_instance(_refine_market(), path)
    return str(path)


@pytest.mark.parametrize(
    "market, engine, rows, digest",
    [
        ("table1", "linear", 5, "52bac24d4292254cda3faf9953222623aa4ece7d4bf76866498786be9c7f88db"),
        ("table1", "parallel", 14, "c0b8581f2b13545748d070221230a8088d1f6a9989216c29e97fe1cf27b67465"),
        ("refine", "uce", 169, "6bcc5e9fbcbe188856ce3089b3f3e278e785667878aa8bd7bb899eef36e3d3f0"),
    ],
    ids=["table1-linear", "table1-parallel", "refine-uce"],
)
def test_trace_csv_bytes_are_pinned(
    table1_file, refine_file, tmp_path, capsys, market, engine, rows, digest
):
    """Whole --trace-csv files, pinned by sha256, with one writer for every
    engine."""
    path = tmp_path / "trace.csv"
    instance = table1_file if market == "table1" else refine_file
    assert main(["run", instance, "--engine", engine, "--trace-csv", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert data.count(b"\r\n") == 1 + rows
    if market == "refine":
        assert data.count(b",refine\r\n") == 13
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("engine", ["uce", "linear", "parallel"])
def test_no_action_after_settling_under_demanded_at_zero(tmp_path, capsys, engine):
    """Every economy of this market is under-demanded at price 0, where no
    engine takes a step: every action cell is empty."""
    market = tmp_path / "under.json"
    dump_instance(
        Instance(
            agents=(
                MultiUnitValuation((Fraction(3), Fraction(2))),
                MultiUnitValuation((Fraction(2), Fraction(1))),
            ),
            K=20,
        ),
        market,
    )
    path = tmp_path / "trace.csv"
    assert main(["run", str(market), "--engine", engine, "--trace-csv", str(path)]) == 0
    capsys.readouterr()
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    assert all(row[2] == "0" and row[5] == "under" and row[6] == "" for row in rows)


def test_trace_json_embeds_digest(table1_file, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["run", table1_file, "--trace-json", str(trace)]) == 0
    capsys.readouterr()
    doc = json.loads(open(trace).read())
    assert len(doc["instance_digest"]) == 16
    assert doc["outcome"]["rounds"] == 5
    assert doc["outcome"]["payments"] == {"1": "5", "2": "4", "3": "4"}


def _json_documents(table1, pm_small):
    """Trace documents of all three engines, a capped trace, subgradient logs
    (one holding Fractions) and a document of edge cases."""
    docs = []
    for inst in (table1, pm_small):
        for engine in ("uce", "linear", "parallel"):
            out, trace = cli._run_engine(inst, engine, argparse.Namespace(round_cap=None))
            docs.append({
                "instance_digest": cli.instance_digest(inst),
                "engine": engine,
                "records": trace.records,
                "outcome": traces.outcome_to_dict(out, inst.n),
            })
    with pytest.raises(auction.RoundLimitExceeded) as capped:
        auction.run_uce_auction(table1, round_cap=2)
    docs.append({"records": capped.value.trace.records, "outcome": None, "round_cap_reached": True})
    run = subgradient.run_subgradient(table1, Fraction(1, 2), 3)
    docs.append({"instance_digest": "0" * 16, "log": run.log})
    docs.append({"log": [{"iteration": 1, "objective": Fraction(7, 3), "gap": Fraction(-1, 2)}]})
    docs.append({
        "na\u00efve": ["\u20ac \u2014 \u00fc", "\u2603", "\x00\n\t\"\\/", ""],
        5: {}, -3: -7, "empty": [], "nested": (1, (2, ()), [[]]),
        "flags": [True, False, None], "fraction": Fraction(0),
        "floats": [1.5, -0.0, 1e300, 2.5e-08, float("nan"), float("inf"), float("-inf")],
    })
    return docs


def _trace_markets(table1, pm_small):
    """Markets whose traces hold every record variant: a one-bidder market, a
    descending one whose parallel run takes 5 rounds in economy 0 and 8 in
    economy 1, and the 12-bidder market whose single-mode run refines."""
    one_bidder = Instance(
        agents=(MultiUnitValuation((Fraction(3), Fraction(2), Fraction(1))),), K=2
    )
    descending = replace(table1, direction="descending", p_init=Fraction(9))
    return [table1, pm_small, one_bidder, descending, _refine_market()]


def test_trace_json_bytes_equal_json_dump(table1, pm_small, tmp_path):
    """Every JSON file the CLI writes holds the bytes json.dump(indent=2,
    default=str) writes, plus the final newline: documents through
    write_json, and each engine's trace, uncapped and capped, through
    _write_traces and its record renderers."""
    path = tmp_path / "doc.json"
    for doc in _json_documents(table1, pm_small):
        traces.write_json(str(path), doc)
        expected = json.dumps(doc, indent=2, default=str) + "\n"
        assert path.read_bytes() == expected.encode("ascii")
    seen = set()
    for inst in _trace_markets(table1, pm_small):
        for engine in ("uce", "linear", "parallel"):
            for cap in (None, 1, 2, 5):
                try:
                    _, trace = cli._run_engine(inst, engine, argparse.Namespace(round_cap=cap))
                except auction.RoundLimitExceeded as exc:
                    trace = exc.trace
                args = argparse.Namespace(engine=engine, trace_csv=None, trace_json=str(path))
                digest = cli.instance_digest(inst)
                cli._write_traces(args, digest, inst.n, trace)
                doc = {"instance_digest": digest, "engine": engine, "records": trace.records}
                if trace.outcome is None:
                    doc.update(outcome=None, round_cap_reached=True)
                    seen.add("capped " + engine)
                else:
                    doc["outcome"] = traces.outcome_to_dict(trace.outcome, inst.n)
                expected = json.dumps(doc, indent=2, default=str) + "\n"
                assert path.read_bytes() == expected.encode("ascii"), (engine, cap, inst)
                records = trace.records
                if engine == "uce":
                    seen.update("witness" for r in records if "witness" in r)
                    seen.update("no updates" for r in records if not r["updates"])
                elif engine == "parallel" and trace.outcome is None:
                    if len(records[0]["economies"]) > 1:
                        seen.add("capped in a later sub-auction")
                seen.update((inst.direction, "n=%d" % inst.n))
    assert seen >= {
        "witness", "no updates", "capped uce", "capped linear", "capped parallel",
        "capped in a later sub-auction", "n=1", "n=12", "ascending", "descending",
    }
    for bad in ({(1, 2): 0}, {"outer": [{(1, 2): 0}]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, default=str)
        with pytest.raises(TypeError):
            traces.write_json(str(path), bad)


def test_run_subgradient_engine(table1_file, capsys):
    rc = main([
        "run", table1_file, "--engine", "subgradient",
        "--step", "1/2", "--iterations", "30", "--lp-optimum", "91",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best objective" in out
    assert "gap to LP optimum" in out


def test_verify_suites_pass(table1_file, tmp_path, capsys):
    os.environ.pop("UCEAUCTION_OUT", None)
    for suite in ("vcg", "descent"):
        rc = main([
            "--out-dir", str(tmp_path),
            "verify", "--suite", suite, "--instance", table1_file,
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "%s: 1/1 passed" % suite in out


def test_out_dir_falls_back_to_the_environment_of_each_call(tmp_path, capsys, monkeypatch):
    """The parser is built once per process, and each command reads
    $UCEAUCTION_OUT, --out-dir's fallback, when it runs; a usage error
    between two calls leaves the shared parser working."""
    from uceauction import oracle

    assert cli.build_parser() is cli.build_parser()
    real = oracle.vcg_from_definition

    def skewed(inst):
        payments, payoffs, allocation, values = real(inst)
        return payments, {i: q + 1 for i, q in payoffs.items()}, allocation, values

    monkeypatch.setattr(cli.oracle, "vcg_from_definition", skewed)
    argv = ["verify", "--suite", "vcg", "--seed", "3", "--count", "1"]
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        out.mkdir()
        monkeypatch.setenv("UCEAUCTION_OUT", str(out))
        assert main(argv) == 3
        if out == first:
            with pytest.raises(SystemExit) as caught:
                main(argv + ["--count", "0"])
            assert caught.value.code == 2
    capsys.readouterr()
    assert sorted(p.name for p in first.iterdir()) == ["counterexample-0.json"]
    assert sorted(p.name for p in second.iterdir()) == ["counterexample-0.json"]


def test_verify_random_batch(tmp_path, capsys):
    rc = main([
        "--out-dir", str(tmp_path),
        "verify", "--suite", "lemma1", "--seed", "7", "--count", "5",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "lemma1: 5/5 passed" in out


def test_gen_round_trips_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["gen", "--seed", "9", "--agents", "6", "--supply", "20"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    inst = load_instance(out1)
    assert inst.n == 6 and inst.K == 20


def test_gen_smoke_runs_all_engines(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert main([
        "gen", "--seed", "17", "--agents", "4", "--supply", "8",
        "--epsilon", "1/4", "--output", str(path),
    ]) == 0
    for engine in ("uce", "linear", "parallel"):
        assert main(["run", str(path), "--engine", engine]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("gamma_max, units", [([], 3), (["--gamma-max", "2"], 2)])
def test_gen_multi_unit_honours_its_options(tmp_path, capsys, gamma_max, units):
    """Exactly --agents bidders and --supply units, on the --epsilon grid,
    delta = --delta-steps * epsilon and at most --gamma-max units each (by
    default 2 * supply // agents)."""
    path = tmp_path / "mu.json"
    assert main([
        "gen", "--seed", "1", "--family", "multi_unit", "--epsilon", "1/2",
        "--delta-steps", "3", "--agents", "3", "--supply", "5", "--output", str(path),
    ] + gamma_max) == 0
    capsys.readouterr()
    inst = load_instance(path)
    assert (inst.n, inst.K, inst.epsilon, inst.delta) == (3, 5, Fraction(1, 2), Fraction(3, 2))
    assert all(isinstance(v, MultiUnitValuation) for v in inst.agents)
    assert max(len(v.marginals) for v in inst.agents) <= units
    for engine in ("uce", "linear", "parallel"):
        assert main(["run", str(path), "--engine", engine]) == 0
    capsys.readouterr()


def test_lp_general_uce_on_a_large_market_exits_2_at_once(tmp_path, capsys, monkeypatch):
    """The default gen market has far too many allocations for the general
    program; the size cap stops their enumeration early."""
    from uceauction import lp as lpmod

    path = tmp_path / "big.json"
    assert main(["gen", "--seed", "7", "--output", str(path)]) == 0
    listed = []
    check = lpmod._check_general_size

    def counted_check(size):
        listed.append(size)
        check(size)

    monkeypatch.setattr(lpmod, "_check_general_size", counted_check)
    assert main(["lp", str(path), "--build", "general-uce"]) == 2
    assert "instance too large" in capsys.readouterr().err
    # One check per allocation found: at most the cap's worth, not all of them.
    assert 0 < len(listed) <= lpmod.GENERAL_SIZE_CAP


def test_lp_solve_on_the_default_gen_market_exits_2(tmp_path, capsys):
    """The default gen market's UCE dual has 1090 variables x 16796
    constraints: solve refuses it before the first pivot, while --emit-lp
    alone still writes it."""
    path = tmp_path / "big.json"
    assert main(["gen", "--seed", "7", "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["lp", str(path), "--build", "uce-dual", "--solve"]) == 2
    err = capsys.readouterr().err
    assert "instance too large" in err and "18307640 tableau cells" in err


def test_lp_tableau_cap_is_checked_before_solving(table1, table1_file, tmp_path, capsys,
                                                  monkeypatch):
    from uceauction import lp as lpmod, simplex

    """A program with more variables x constraints than TABLEAU_CAP is
    refused before solving, and only solving: --emit-lp still writes it."""
    program = lpmod.build_uce_dual(table1)
    cells = len(program.variables) * len(program.constraints)
    monkeypatch.setattr(simplex, "TABLEAU_CAP", cells)
    assert lpmod.solve(program).status == "optimal"
    monkeypatch.setattr(simplex, "TABLEAU_CAP", cells - 1)
    with pytest.raises(lpmod.InstanceTooLarge, match="cap is %d" % (cells - 1)):
        lpmod.solve(program)
    emitted = tmp_path / "dual.lp"
    assert main(["lp", table1_file, "--build", "uce-dual", "--emit-lp", str(emitted)]) == 0
    assert emitted.read_text() == lpmod.emit_lp_text(program)
    assert main(["lp", table1_file, "--build", "uce-dual", "--solve"]) == 2
    assert "instance too large" in capsys.readouterr().err


def test_instance_digest_is_the_sha256_of_the_canonical_instance(table1):
    """The builtin SHA-256 gives hashlib's digests."""
    markets = [table1]
    for seed in range(8):
        markets.append(generate_product_mix(
            seed=seed, n=5, K=20, epsilon=Fraction(1, 10), delta_steps=seed
        ))
        markets.append(generate_multi_unit(seed=seed, n=3, K=10, epsilon=Fraction(1, 4)))
    for inst in markets:
        canonical = json.dumps(instance_to_dict(inst), sort_keys=True).encode("utf-8")
        assert cli.instance_digest(inst) == hashlib.sha256(canonical).hexdigest()[:16]


def test_cli_import_leaves_openssl_unloaded():
    code = "import sys, uceauction.cli; print('_hashlib' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_lp_solve_uce_dual(table1_file, capsys):
    assert main(["lp", table1_file, "--build", "uce-dual", "--solve"]) == 0
    out = capsys.readouterr().out
    assert "optimum 91" in out


def test_lp_emit_round_trip(table1_file, tmp_path, capsys):
    from uceauction import lp as lpmod

    path = tmp_path / "ce.lp"
    assert main([
        "lp", table1_file, "--build", "ce-primal", "--economy", "2",
        "--emit-lp", str(path),
    ]) == 0
    capsys.readouterr()
    parsed = lpmod.parse_lp_text(path.read_text())
    res = lpmod.solve(parsed)
    assert res.objective == 23


def test_lp_restricted_dual_at_round_one(table1_file, capsys):
    assert main([
        "lp", table1_file, "--build", "restricted-dual", "--at-round", "1", "--solve",
    ]) == 0
    out = capsys.readouterr().out
    assert "optimum -35/6" in out


def test_lp_general_emits_pair(table1_file, tmp_path, capsys):
    path = tmp_path / "general.lp"
    assert main([
        "lp", table1_file, "--build", "general-uce", "--emit-lp", str(path), "--solve",
    ]) == 0
    out = capsys.readouterr().out
    assert os.path.exists(path) and os.path.exists(str(path) + ".dual")
    assert "optimum 91" in out


def test_missing_instance_is_validation_error(capsys):
    assert main(["run", "/nonexistent/instance.json"]) == 2
    capsys.readouterr()


def test_directory_instance_is_validation_error(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_invalid_instance_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"agents": [], "K": 0}))
    assert main(["run", str(path)]) == 2
    capsys.readouterr()


def test_verify_failure_dumps_counterexample(tmp_path, capsys, monkeypatch):
    """Force a payoff mismatch on two instances: nonzero exit and one dump per
    failing instance, each named on its FAIL line."""
    from uceauction import cli, oracle

    real = oracle.vcg_from_definition

    def skewed(inst):
        payments, payoffs, allocation, values = real(inst)
        payoffs = {i: q + 1 for i, q in payoffs.items()}
        return payments, payoffs, allocation, values

    monkeypatch.setattr(cli.oracle, "vcg_from_definition", skewed)
    rc = main([
        "--out-dir", str(tmp_path),
        "verify", "--suite", "vcg", "--seed", "3", "--count", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 3
    for idx in (0, 1):
        path = tmp_path / ("counterexample-%d.json" % idx)
        assert "FAIL vcg instance %d (counterexample: %s)" % (idx, path) in out
        dump = json.loads(path.read_text())
        assert dump["suite"] == "vcg" and dump["index"] == idx
        assert "instance" in dump and "detail" in dump
    assert not (tmp_path / "counterexample.json").exists()


@pytest.mark.parametrize("extra", [[], ["--compare"]])
def test_round_cap_exits_3_with_one_line(table1_file, capsys, extra):
    assert main(["run", table1_file, "--round-cap", "2"] + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("round cap reached:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "engine, rows_per_round", [("uce", 4), ("linear", 1), ("parallel", 1)]
)
def test_round_cap_writes_partial_trace(table1_file, tmp_path, capsys, engine, rows_per_round):
    trace_json = tmp_path / "trace.json"
    trace_csv = tmp_path / "trace.csv"
    rc = main([
        "run", table1_file, "--engine", engine, "--round-cap", "2",
        "--trace-json", str(trace_json), "--trace-csv", str(trace_csv),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("round cap reached:") and err.count("\n") == 1
    doc = json.loads(trace_json.read_text())
    assert doc["round_cap_reached"] is True and doc["outcome"] is None
    assert [r["round"] for r in doc["records"]] == [1, 2]
    with open(trace_csv) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * rows_per_round + 1
    assert {row[0] for row in rows[1:-1]} == {"1", "2"}
    assert rows[-1] == ["2", "", "", "", "", "", "round_cap"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "{instance}", "--engine", "subgradient", "--step", "abc"], "--step"),
        (["run", "{instance}", "--engine", "subgradient", "--lp-optimum", "1/0"], "--lp-optimum"),
        (["gen", "--seed", "1", "--epsilon", "1/0", "--output", "{out}"], "--epsilon"),
    ],
    ids=["step", "lp-optimum", "gen-epsilon"],
)
def test_bad_rational_option_names_the_option(table1_file, tmp_path, capsys, argv, option):
    out = tmp_path / "gen.json"
    argv = [a.format(instance=table1_file, out=out) for a in argv]
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: not an exact rational" % option in err
    assert "invalid instance" not in err
    assert not out.exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "{instance}", "--round-cap", "0"], "--round-cap"),
        (["run", "{instance}", "--engine", "subgradient", "--iterations", "0"], "--iterations"),
        (["lp", "{instance}", "--build", "restricted-dual", "--at-round", "999"], "--at-round"),
        (["lp", "{instance}", "--build", "restricted-dual", "--at-round", "0"], "--at-round"),
        (["lp", "{instance}", "--build", "restricted-dual", "--at-round", "-1"], "--at-round"),
        (["lp", "{instance}", "--build", "ce-primal", "--economy", "7"], "--economy"),
        (["lp", "{instance}", "--build", "ce-primal", "--economy", "-1"], "--economy"),
        (["gen", "--seed", "1", "--gamma-max", "0", "--output", "{out}"], "--gamma-max"),
        (["gen", "--seed", "1", "--family", "multi_unit", "--agents", "0", "--output", "{out}"],
         "--agents"),
        (["gen", "--seed", "1", "--family", "multi_unit", "--supply", "0", "--output", "{out}"],
         "--supply"),
        (["gen", "--seed", "1", "--strong-fraction", "1.5", "--output", "{out}"],
         "--strong-fraction"),
        (["gen", "--seed", "1", "--strong-fraction", "-0.1", "--output", "{out}"],
         "--strong-fraction"),
        (["verify", "--suite", "vcg", "--count", "0"], "--count"),
        (["gen", "--seed", "1", "--epsilon", "-1", "--output", "{out}"], "--epsilon"),
        (["gen", "--seed", "1", "--epsilon", "0", "--output", "{out}"], "--epsilon"),
        (["gen", "--seed", "1", "--delta-steps", "-1", "--output", "{out}"], "--delta-steps"),
        (["gen", "--seed", "1", "--family", "multi_unit", "--strong-fraction", "0.5",
          "--output", "{out}"], "--strong-fraction"),
    ],
    ids=[
        "round-cap-0", "iterations-0", "at-round-999", "at-round-0", "at-round-negative",
        "economy-7", "economy-negative", "gamma-max-0", "multi-unit-agents-0", "multi-unit-supply-0",
        "strong-fraction-above-1", "strong-fraction-negative", "verify-count-0",
        "epsilon-negative", "epsilon-0", "delta-steps-negative", "multi-unit-strong-fraction",
    ],
)
def test_out_of_range_option_exits_2_naming_it(table1_file, tmp_path, capsys, argv, option):
    out = tmp_path / "gen.json"
    argv = [a.format(instance=table1_file, out=out) for a in argv]
    assert _exit_code(["--out-dir", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert sum("argument %s: " % option in line for line in lines) == 1
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


_AGENTS = [
    {"type": "product_mix", "v_w": "3", "v_s": "5", "gamma": 3},
    {"type": "multi_unit", "marginals": ["8", "5"]},
]


def _doc(**changes):
    doc = {"K": 4, "agents": [dict(a) for a in _AGENTS]}
    for key, value in changes.items():
        if key == "gamma":
            doc["agents"][0]["gamma"] = value
        else:
            doc[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        _doc(delta="abc"),
        _doc(epsilon="1/0"),
        _doc(delta=True),
        _doc(K=2.7),
        _doc(K=True),
        _doc(gamma=2.7),
        _doc(gamma=True),
        _doc(agents={"type": "multi_unit", "marginals": ["1"]}),
        json.dumps([json.loads(_doc())]),
        _doc()[:-5],
    ],
    ids=[
        "rational-not-a-number", "rational-zero-denominator", "rational-boolean",
        "K-fractional", "K-boolean", "gamma-fractional", "gamma-boolean",
        "agents-not-a-list", "top-level-list", "malformed-json",
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid instance:") and err.count("\n") == 1


# Fuzzed instance documents: a small valid instance in which any top-level
# field, any agent field and any whole agent may be dropped or replaced by a
# small JSON value or a malformed rational; now and then a document that is
# no instance at all.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Scalars of the wrong type are weighted over nested values.
_JUNK = st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-5, 5) | _JSON | st.sampled_from(
    ["1/0", "abc", "", "nan", "inf", "-1", "2.5", "1e2", "1/3"]
)
_AGENT = st.lists(st.integers(0, 9), max_size=4).map(
    lambda marginals: {
        "type": "multi_unit",
        "marginals": [str(m) for m in sorted(marginals, reverse=True)],
    }
) | st.builds(
    lambda v_w, gap, gamma: {
        "type": "product_mix", "v_w": str(v_w), "v_s": str(v_w + gap), "gamma": gamma,
    },
    st.integers(0, 9), st.integers(1, 9), st.integers(0, 4),
)
_VALID = st.fixed_dictionaries(
    {"K": st.integers(1, 6), "agents": st.lists(_AGENT, min_size=1, max_size=3)},
    optional={
        "delta": st.sampled_from(["0", "1"]),
        "epsilon": st.sampled_from(["1", "1/2"]),
        "p_init": st.sampled_from(["0", "2", "10"]),
        "direction": st.sampled_from(["ascending", "descending"]),
        "update_mode": st.sampled_from(["batch", "single"]),
    },
)
_TOP_FIELDS = ("K", "agents", "delta", "epsilon", "p_init", "direction", "update_mode")
_AGENT_FIELDS = ("type", "marginals", "v_w", "v_s", "gamma")


def _corrupt(draw, container, keys):
    """Drop, or replace by junk, each of these entries with chance 1/30 each."""
    for key in keys:
        roll = draw(st.integers(0, 29))
        if roll == 0 and isinstance(container, dict):
            container.pop(key, None)
        elif roll <= 1:
            container[key] = draw(_JUNK)


@st.composite
def _documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = draw(_VALID)
    for agent in doc["agents"]:
        _corrupt(draw, agent, _AGENT_FIELDS)
    _corrupt(draw, doc["agents"], range(len(doc["agents"])))
    _corrupt(draw, doc, _TOP_FIELDS)
    return doc


@given(_documents())
@settings(
    max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
def test_fuzzed_instances_exit_0_2_or_3(document):
    """Whatever JSON document it is given, `run` ends with a documented exit
    code, never with an exception."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", path, "--round-cap", "50"])
    assert code in (0, 2, 3)
