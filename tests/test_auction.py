import random
from fractions import Fraction
from functools import lru_cache

import pytest

from uceauction import auction, demand, oracle, pricing
from uceauction.auction import (
    NoFeasibleSelection,
    RoundLimitExceeded,
    final_allocation,
    run_linear_auction,
    run_parallel_auction,
    run_uce_auction,
    terminal_tables,
    value_tables,
)
from uceauction.demand import DemandReport, best_value_by_size
from uceauction.generate import (
    generate_product_mix,
    random_multi_unit_instance,
    random_product_mix_instance,
)
from uceauction.model import (
    Bundle,
    Instance,
    MultiUnitValuation,
    ZERO_BUNDLE,
    parse_rational,
    visible_economies,
)
from uceauction.oracle import uce_dual_objective
from uceauction.pricing import EnvelopePriceState, rho_adjusted
from uceauction.records import replace
from uceauction.traces import state_from_record

F = Fraction


def test_golden_trace_batch(table1):
    out, trace = run_uce_auction(table1)
    assert out.rounds == 5
    kappa_mins = [
        tuple(r["reports"][i]["kappa_min"] for i in (1, 2, 3)) for r in trace.records
    ]
    assert kappa_mins == [(4, 3, 2), (4, 3, 1), (3, 2, 1), (3, 1, 1), (2, 1, 1)]
    assert out.cleared_round == {1: 2, 2: 3, 3: 4, 0: 5}
    assert {i: k.size for i, k in out.allocation.items()} == {1: 2, 2: 1, 3: 1}
    assert out.final_state.p == (F(4), F(1), F(2), F(3))


def test_payments_table1_both_modes(table1, table1_single):
    for inst in (table1, table1_single):
        out, _ = run_uce_auction(inst)
        assert out.payments == {1: F(5), 2: F(4), 3: F(4)}


def test_single_mode_touches_one_economy_per_round(table1_single):
    _, trace = run_uce_auction(table1_single)
    for record in trace.records[:-1]:
        assert len(record["updates"]) == 1


def test_batch_dual_objective_descends(table1):
    _, trace = run_uce_auction(table1)
    objectives = [parse_rational(r["dual_objective"]) for r in trace.records]
    assert objectives == [F(114), F(103), F(95), F(92), F(91)]


def test_single_dual_objective_strictly_descends(table1_single):
    _, trace = run_uce_auction(table1_single)
    objectives = [parse_rational(r["dual_objective"]) for r in trace.records]
    assert all(b < a for a, b in zip(objectives, objectives[1:]))
    assert objectives[0] == F(114)


def test_one_update_call_per_round(table1, table1_single, monkeypatch):
    """A round is one price step: stepped, one update call per round,
    covering every economy the round records an update for.  Event-driven,
    one call of L steps stands for L such rounds."""
    calls = []
    for name in ("apply_over_demand_update", "apply_under_demand_update"):
        update = getattr(auction, name)
        monkeypatch.setattr(
            auction, name,
            lambda state, economies, kappa, steps, _update=update: (
                calls.append((list(economies), steps)) or _update(state, economies, kappa, steps)
            ),
        )
    down = Instance(agents=table1.agents, K=4, p_init=F(9), direction="descending")
    fine = generate_product_mix(seed=0, n=4, K=12, epsilon=F(1, 100), value_steps_max=150)
    for inst in (table1, table1_single, down, fine):
        calls.clear()
        _, trace = run_uce_auction(inst)
        stepped = [
            [u["economy"] for u in record["updates"]]
            for record in trace.records
            if record["updates"] and record["updates"][0]["direction"] != "refine"
        ]
        assert [economies for economies, steps in calls for _ in range(steps)] == stepped
        if inst is fine:
            assert len(calls) < len(stepped) // 5
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(auction, "_MAX_JUMP", 1)
            run_uce_auction(inst)
        assert calls == [(economies, 1) for economies in stepped]
        if inst is table1:
            # The worked example's batch rounds update several economies each.
            assert len(calls) == 4 and sum(len(economies) for economies, _ in calls) > len(calls)


def test_query_accounting(table1):
    out, trace = run_uce_auction(table1)
    assert out.queries == out.rounds * table1.n
    assert len(trace.records) == out.rounds


def test_payoffs_match_oracle(table1):
    out, _ = run_uce_auction(table1)
    _, payoffs, _, _ = oracle.vcg_from_definition(table1)
    for i in (1, 2, 3):
        value = table1.adjusted_value(i, out.allocation.get(i, ZERO_BUNDLE))
        assert value - out.payments[i] == payoffs[i]


def test_descending_run_reaches_same_payoffs(table1):
    inst = Instance(
        agents=table1.agents, K=4, p_init=F(9), direction="descending"
    )
    out, trace = run_uce_auction(inst)
    _, payoffs, _, _ = oracle.vcg_from_definition(table1)
    for i in (1, 2, 3):
        value = inst.adjusted_value(i, out.allocation.get(i, ZERO_BUNDLE))
        assert value - out.payments[i] == payoffs[i]
    # Prices only come down on a descending path.
    for a, b in zip(trace.records, trace.records[1:]):
        for j in range(0, 4):
            assert parse_rational(b["p"][j]) <= parse_rational(a["p"][j])


def test_round_cap_enforced(table1):
    with pytest.raises(RoundLimitExceeded):
        run_uce_auction(table1, round_cap=2)


def test_round_cap_keeps_completed_rounds(table1):
    """The cap exception carries every completed round, in each engine's
    record schema, exactly as the uncapped run records it."""
    for engine, inst, cap in (
        (run_uce_auction, table1, 2),
        (run_linear_auction, table1, 2),
        (run_uce_auction, table1, 4),
    ):
        _, full = engine(inst)
        with pytest.raises(RoundLimitExceeded) as caught:
            engine(inst, round_cap=cap)
        assert caught.value.trace.outcome is None
        assert caught.value.trace.records == full.records[:cap]
    # Descending, economy 0 clears in 5 rounds and economy 1 needs 8, so a
    # cap of 6 stops the second sub-auction; economies 2 and 3 never start.
    down = Instance(agents=table1.agents, K=4, p_init=Fraction(9), direction="descending")
    _, full = run_parallel_auction(down)
    with pytest.raises(RoundLimitExceeded) as caught:
        run_parallel_auction(down, round_cap=6)
    records = caught.value.trace.records
    assert [sorted(r["economies"]) for r in records] == [[0, 1]] * 5 + [[1]]
    for got, want in zip(records, full.records):
        assert got["economies"] == {j: want["economies"][j] for j in got["economies"]}


def test_linear_auction_table1(table1):
    out, trace = run_linear_auction(table1)
    assert out.payments is None
    assert out.rounds == 5
    assert out.details["clearing_price"] == "4"
    assert {i: k.size for i, k in out.allocation.items()} == {1: 2, 2: 1, 3: 1}
    assert [r["p"] for r in trace.records] == ["0", "1", "2", "3", "4"]


def test_parallel_auction_table1(table1):
    out, trace = run_parallel_auction(table1)
    assert out.payments == {1: F(5), 2: F(4), 3: F(4)}
    # n+1 clocks, each charging one query per member agent per round.
    expected_queries = sum(
        rounds * (3 if j == 0 else 2)
        for j, rounds in out.details["rounds_per_economy"].items()
    )
    assert out.queries == expected_queries
    assert out.rounds == max(out.details["rounds_per_economy"].values())


def test_parallel_matches_definition_oracle(rng):
    for _ in range(20):
        inst = random_multi_unit_instance(rng, n_max=3, K_max=4, value_max=8, units_max=3)
        out, _ = run_parallel_auction(inst)
        payments, _, _, _ = oracle.vcg_from_definition(inst)
        for i in range(1, inst.n + 1):
            value_engine = inst.adjusted_value(i, out.allocation.get(i, ZERO_BUNDLE))
            payments_alloc = value_engine - out.payments[i]
            _, payoffs, _, _ = oracle.vcg_from_definition(inst)
            assert payments_alloc == payoffs[i]


def test_final_allocation_handles_size_gaps():
    """A demanded-size gap defeats one-at-a-time trimming; the fallback must
    still find an exact split of the supply among demanded bundles."""
    reports = {
        1: DemandReport(1, F(3), 1, 3, (Bundle(0, 1), Bundle(0, 3))),
        2: DemandReport(2, F(0), 3, 3, (Bundle(0, 3),)),
    }
    values = {1: [F(0), F(1), F(2), F(3)], 2: [F(0), F(1), F(2), F(3)]}
    allocation = final_allocation(reports, 4, values)
    assert allocation[1].size + allocation[2].size == 4
    assert allocation[1] in reports[1].maximizers
    assert allocation[2] in reports[2].maximizers


def test_final_allocation_picks_best_bundle_of_each_size():
    """Every demanded bundle of one size is worth that size's table value,
    so ties go to more strong units; and no fitting tuple is an error, not a
    guess."""
    reports = {
        1: DemandReport(1, F(0), 2, 2, (Bundle(0, 2), Bundle(1, 1), Bundle(2, 0))),
        2: DemandReport(2, F(0), 1, 2, (Bundle(0, 1), Bundle(1, 1))),
    }
    values = {1: [F(0), F(1), F(2)], 2: [F(0), F(1), F(2)]}
    assert final_allocation(reports, 4, values) == {1: Bundle(0, 2), 2: Bundle(1, 1)}
    with pytest.raises(NoFeasibleSelection):
        final_allocation(reports, 2, values)


def test_balanced_but_unsupported_state_gets_repaired():
    """Single-mode runs can pass every balance test at prices that support no
    allocation of exactly K units; the engine must detect this and still end
    at certified prices with definition-grade payoffs."""
    from uceauction.model import ProductMixValuation

    inst = Instance(
        agents=(
            ProductMixValuation(v_w=F(3), v_s=F(9), gamma=1),
            ProductMixValuation(v_w=F(0), v_s=F(9), gamma=4),
            ProductMixValuation(v_w=F(6), v_s=F(7), gamma=5),
        ),
        K=2,
        update_mode="single",
    )
    out, trace = run_uce_auction(inst)
    refine_rounds = [
        r["round"]
        for r in trace.records
        if any(u["direction"] == "refine" for u in r["updates"])
    ]
    assert refine_rounds, "expected at least one repair round"
    _, payoffs, _, _ = oracle.vcg_from_definition(inst)
    engine = {
        i: inst.valuation(i).value(out.allocation[i], inst.delta) - out.payments[i]
        for i in out.payments
    }
    assert engine == payoffs
    objectives = [parse_rational(r["dual_objective"]) for r in trace.records]
    assert all(b < a for a, b in zip(objectives, objectives[1:]))


def test_uniform_clearing_price_brackets_supply(table1):
    from uceauction.terminal import _uniform_clearing_price
    from uceauction.demand import demand_at_linear_price

    # Pooled marginals of the full economy: 8,7,6,5,4,3,2,2,1,... so the
    # fifth-highest clears four units.
    values = value_tables(table1)
    assert _uniform_clearing_price(table1, 0, values) == F(4)
    for j in range(0, 4):
        p = _uniform_clearing_price(table1, j, values)
        from uceauction.model import economy_members

        reports = [
            demand_at_linear_price(table1.valuation(i), i, p, table1.delta)
            for i in economy_members(j, table1.n)
        ]
        assert sum(r.kappa_min for r in reports) <= table1.K
        assert p == 0 or sum(r.kappa_max for r in reports) >= table1.K


def _criterion3_instances():
    """The 200 instances of acceptance criterion 3, in its order."""
    rng = random.Random(12345)
    for idx in range(200):
        family = random_multi_unit_instance if idx % 2 else random_product_mix_instance
        mode = ("batch", "single")[(idx // 2) % 2]
        direction = ("ascending", "descending")[(idx // 4) % 2]
        yield replace(family(rng, direction=direction), update_mode=mode)


def _price_fn(state):
    """rho_adjusted at one state, memoized: the oracles price each (agent,
    bundle) pair many times."""
    return lru_cache(maxsize=None)(lambda i, k: rho_adjusted(state, i, k))


def _oracle_failures(inst, state):
    return set(oracle.certify_uce(inst, _price_fn(state)).failures())


def test_certification_matches_oracle_on_random_states():
    """Per-economy verdicts from the size tables equal the oracle's on random
    price states, most of which support no equilibrium somewhere."""
    rng = random.Random(99)
    checked = failing = 0
    for inst in _criterion3_instances():
        for _ in range(5):
            n = inst.n
            state = EnvelopePriceState(
                n=n,
                p=tuple(F(rng.randint(0, 20), 2) for _ in range(n + 1)),
                alpha={
                    (i, j): F(rng.randint(0, 12), 2)
                    for i in range(1, n + 1)
                    for j in range(0, n + 1)
                    if j != i
                },
                delta=inst.delta,
            )
            expected = _oracle_failures(inst, state)
            assert set(terminal_tables(inst, state, value_tables(inst)).failures()) == expected
            checked += 1
            failing += bool(expected)
    assert checked >= 1000
    assert failing > checked // 2


def _real_value_tables(inst):
    """Every agent's best adjusted value per size in real units, the units
    of outcome.final_state and of the states the records hold (value_tables
    counts epsilon steps)."""
    return {i: best_value_by_size(inst.valuation(i), inst.delta) for i in range(1, inst.n + 1)}


def test_terminal_tables_match_oracle_on_engine_states():
    """At every terminal state of criterion 3's runs and of biased multi-unit
    runs (zero and negative adjusted marginals), including the rejected ones
    a refine step follows, verdicts, optima and payments equal the
    oracle's."""
    rejected = biased = 0
    for inst in list(_criterion3_instances()) + list(_biased_multi_unit_markets(30)):
        values = _real_value_tables(inst)
        out, trace = run_uce_auction(inst)
        for record in trace.records:
            if "witness" in record:
                state = state_from_record(record, inst.n, inst.delta)
                expected = _oracle_failures(inst, state)
                assert expected
                assert set(terminal_tables(inst, state, values).failures()) == expected
                assert set(record["witness"]) == expected
                rejected += 1
        state = out.final_state
        price_fn = _price_fn(state)
        tables = terminal_tables(inst, state, values)
        certification = oracle.certify_uce(inst, price_fn)
        assert tables.failures() == {} and certification.passed
        for j in range(0, inst.n + 1):
            assert tables.welfare[j] == oracle.efficient_value(inst, j)[0]
            assert tables.revenue[j] == oracle.revenue_max(inst, j, price_fn)[0]
        assert out.payments == oracle.vcg_from_uce(inst, price_fn, out.allocation, certification)
        biased += inst.delta > 0 and inst.epsilon != 1
    assert rejected > 0 and biased >= 10


def _normalized(state):
    """Each agent's offsets shifted down by their minimum: the zero bundle
    then costs nothing."""
    alpha = dict(state.alpha)
    for i in range(1, state.n + 1):
        shift = min(state.alpha[(i, j)] for j in visible_economies(i, state.n))
        for j in visible_economies(i, state.n):
            alpha[(i, j)] -= shift
    return state.replace(alpha=alpha)


def test_record_dual_objective_is_the_pricing_dual_objective():
    """Every round record's dual objective is pricing.uce_dual_objective at
    the record's state, normalized; refine rounds included."""
    # Criterion 7's family with three units per bidder, in single mode: half
    # of these runs take a refine step.
    criterion7 = [
        generate_product_mix(
            seed=seed, n=12, K=12, epsilon=F(1, 10), value_steps_max=14, gamma_max=3,
            update_mode="single",
        )
        for seed in range(12)
    ]
    for markets in (list(_criterion3_instances()), criterion7):
        records = refines = 0
        for inst in markets:
            _, trace = run_uce_auction(inst)
            for record in trace.records:
                state = state_from_record(record, inst.n, inst.delta)
                assert uce_dual_objective(inst, _normalized(state)) == parse_rational(
                    record["dual_objective"]
                )
                records += 1
                refines += "witness" in record
        assert records > 100 and refines >= 5


def test_uce_run_never_evaluates_a_price_line(table1, monkeypatch):
    """The engine prices bundles by size tables only: no run calls
    pricing.line_price, refine steps included."""
    calls = []
    real = pricing.line_price
    monkeypatch.setattr(
        pricing, "line_price", lambda *args: calls.append(args) or real(*args)
    )
    refining = generate_product_mix(
        seed=1, n=12, K=12, epsilon=F(1, 10), value_steps_max=14, gamma_max=3,
        update_mode="single",
    )
    for inst in (table1, refining):
        _, trace = run_uce_auction(inst)
        assert calls == []
    assert sum("witness" in record for record in trace.records) == 1


def test_refine_record_carries_certification_witness():
    """A refine step records, for each unsupported economy, efficient welfare
    strictly below the members' utility sum plus the revenue optimum."""
    for inst in _criterion3_instances():
        _, trace = run_uce_auction(inst)
        refines = [r for r in trace.records if "witness" in r]
        if refines:
            break
    else:
        pytest.fail("no criterion-3 instance takes a refine step")
    for record in refines:
        assert [u["direction"] for u in record["updates"]] == ["refine"] * (inst.n + 1)
        assert record["witness"]
        for witness in record["witness"].values():
            welfare, utility_sum, revenue = (
                parse_rational(witness[key]) for key in ("welfare", "utility_sum", "revenue")
            )
            assert welfare < utility_sum + revenue


def _reference_demand_markets():
    """Criterion 3's 200 instances, 40 product-mix ones with a strong-unit
    bias, and the 10 markets of the narrow-fine benchmark pool."""
    yield from _criterion3_instances()
    rng = random.Random(4242)
    for idx in range(40):
        direction = ("ascending", "descending")[idx % 2]
        yield random_product_mix_instance(rng, delta_max=3, direction=direction)
    for seed in range(5):
        for direction in ("ascending", "descending"):
            yield generate_product_mix(
                seed=seed, n=4, K=12, epsilon=F(1, 100), value_steps_max=150,
                direction=direction,
            )


def _run_all_engines(inst):
    return [engine(inst) for engine in (run_uce_auction, run_linear_auction, run_parallel_auction)]


def test_engines_unchanged_under_the_enumeration_reference(monkeypatch):
    """Every engine gives the same outcome and the same trace records when
    its demand queries go to the bundle-enumeration reference instead.  The
    engines query in epsilon units: the reference gets the state and prices
    in real units, and its report goes back in epsilon units."""
    markets = list(_reference_demand_markets())
    fast = [_run_all_engines(inst) for inst in markets]

    def in_units(report, unit):
        steps = report.max_utility / unit
        assert steps.denominator == 1
        return replace(report, max_utility=steps.numerator)

    def envelope_reference(v, state, i, values, face, unit, rising):
        real = EnvelopePriceState(
            n=state.n,
            p=tuple(q * unit for q in state.p),
            alpha={key: q * unit for key, q in state.alpha.items()},
            delta=state.delta * unit,
        )
        return in_units(oracle.demand_set_by_enumeration(v, real, i), unit)

    def linear_reference(v, i, p, delta, values, face, unit, rising):
        report = oracle.demand_at_linear_price_by_enumeration(v, i, p * unit, delta * unit)
        return in_units(report, unit)

    monkeypatch.setattr(auction, "demand_set", envelope_reference)
    monkeypatch.setattr(auction, "demand_at_linear_price", linear_reference)
    biased = 0
    for inst, runs in zip(markets, fast):
        for (out, trace), (ref_out, ref_trace) in zip(runs, _run_all_engines(inst)):
            assert out == ref_out
            assert trace.records == ref_trace.records
        biased += inst.delta > 0
    assert biased > 10


def test_running_offset_sum_is_the_offsets_sum():
    """The engine's running offset sum, the dual objective's only input not
    in the record, equals the sum of the record's offsets in every round:
    criterion 3's runs and a single-mode market that takes a refine step."""
    refining = generate_product_mix(
        seed=1, n=12, K=12, epsilon=F(1, 10), value_steps_max=14, gamma_max=3,
        update_mode="single",
    )
    records = refines = 0
    for inst in list(_criterion3_instances()) + [refining]:
        _, trace = run_uce_auction(inst)
        for record in trace.records:
            utilities = sum(parse_rational(r["max_utility"]) for r in record["reports"].values())
            prices = sum(parse_rational(q) for q in record["p"])
            offsets = sum(parse_rational(a) for a in record["alpha"].values())
            running = (
                parse_rational(record["dual_objective"]) - inst.n * utilities - inst.K * prices
            )
            assert running == offsets
            records += 1
            refines += "witness" in record
    assert records > 500 and refines >= 2


def _biased_multi_unit_markets(count):
    """Multi-unit markets with a strong-unit bias delta > 0: marginals equal
    to delta (zero adjusted marginals), below it (negative ones) and zero
    (outside the consumption set), up to 40 units per bidder, both
    directions."""
    rng = random.Random(31337)
    for idx in range(count):
        epsilon = F(1, rng.choice((1, 2, 4)))
        delta = rng.randint(1, 5) * epsilon
        agents = []
        for _ in range(rng.randint(1, 4)):
            steps = sorted((rng.randint(0, 30) for _ in range(rng.randint(1, 40))), reverse=True)
            steps[0] = max(steps[0], 1)
            agents.append(MultiUnitValuation(tuple(q * epsilon for q in steps)))
        descending = idx % 2
        top = max(v.marginals[0] for v in agents)
        yield Instance(
            agents=tuple(agents), K=rng.randint(1, 40), delta=delta, epsilon=epsilon,
            p_init=top + epsilon if descending else F(0),
            direction=("ascending", "descending")[descending],
        )


def _narrow_fine_pool():
    """The perfbench narrow-fine seed-0 markets, in both update modes."""
    for seed in range(5):
        for direction in ("ascending", "descending"):
            for mode in ("batch", "single"):
                yield generate_product_mix(
                    seed=seed, n=4, K=12, epsilon=F(1, 100), value_steps_max=150,
                    direction=direction, update_mode=mode,
                )


def _clock_runs(inst, round_cap=None):
    """Each uniform-price clock's (outcome, records), or the records of the
    round cap's exception."""
    runs = []
    for engine in (run_linear_auction, run_parallel_auction):
        try:
            out, trace = engine(inst, round_cap=round_cap)
            runs.append((out, trace.records))
        except RoundLimitExceeded as exc:
            runs.append(("round cap", exc.trace.records))
    return runs


def test_event_driven_clocks_equal_the_stepped_reference(monkeypatch):
    """Querying once per run of identical reports gives the outcomes (queries
    included) and every trace record of the clocks that query each round."""
    markets = (
        list(_criterion3_instances())
        + list(_narrow_fine_pool())
        + list(_biased_multi_unit_markets(60))
    )
    fast = [_clock_runs(inst) for inst in markets]
    monkeypatch.setattr(auction, "_MAX_JUMP", 1)
    zero = negative = long_runs = 0
    for inst, runs in zip(markets, fast):
        assert runs == _clock_runs(inst)
        marginals = {
            best[s] - best[s - 1] for best in value_tables(inst).values() for s in range(1, len(best))
        }
        zero += 0 in marginals
        negative += any(m < 0 for m in marginals)
        long_runs += runs[0][0].rounds > len(marginals) + 2
    assert zero >= 10 and negative >= 10 and long_runs >= 10


def _wide_coarse_pool():
    """The perfbench wide-coarse seed-0 markets, in both update modes."""
    for seed in (0, 3, 4, 5):
        for direction in ("ascending", "descending"):
            for mode in ("batch", "single"):
                yield generate_product_mix(
                    seed=seed, n=12, K=12, epsilon=F(1, 10), value_steps_max=14, gamma_max=2,
                    direction=direction, update_mode=mode,
                )


def _uce_run(inst, caplog, round_cap=None):
    """A UCE run's (outcome, records), or the records of the round cap's
    exception, and the demand monitor's warnings."""
    caplog.clear()
    before = len(demand.contiguity_counterexamples)
    try:
        out, trace = run_uce_auction(inst, round_cap=round_cap)
        run = (out, trace.records)
    except RoundLimitExceeded as exc:
        run = ("round cap", exc.trace.records)
    del demand.contiguity_counterexamples[before:]
    return run + (list(caplog.messages),)


def test_event_driven_uce_equals_the_stepped_reference(monkeypatch, caplog):
    """Querying once per run of identical rounds gives the outcome (rounds,
    queries and cleared rounds included), every trace record and every
    contiguity warning of the engine that queries each round."""
    markets = (
        list(_criterion3_instances())
        + list(_narrow_fine_pool())
        + list(_wide_coarse_pool())
        + list(_biased_multi_unit_markets(60))
    )
    steps = []
    for name in ("apply_over_demand_update", "apply_under_demand_update"):
        update = getattr(auction, name)
        monkeypatch.setattr(
            auction, name,
            lambda state, economies, kappa, step, _update=update: (
                steps.append(step) or _update(state, economies, kappa, step)
            ),
        )
    fast, longest = [], []
    for inst in markets:
        steps.clear()
        fast.append(_uce_run(inst, caplog))
        longest.append(max(steps, default=0))
    monkeypatch.setattr(auction, "_MAX_JUMP", 1)
    for inst, run in zip(markets, fast):
        assert _uce_run(inst, caplog) == run
    assert sum(length > 10 for length in longest) >= 10
    assert sum(bool(warnings) for _, _, warnings in fast) >= 5


def test_capped_uce_equals_the_stepped_reference(table1, monkeypatch, caplog):
    """At every round cap up to the uncapped length, the event-driven and
    the stepped engine stop at the same round with the same records, or
    finish with the same outcome: Table 1 and a 12-bidder market whose run
    refines."""
    refining = generate_product_mix(
        seed=1, n=12, K=12, epsilon=F(1, 10), value_steps_max=14, gamma_max=3,
        update_mode="single",
    )
    for inst in (table1, refining):
        uncapped = _uce_run(inst, caplog)
        caps = range(1, uncapped[0].rounds + 1)
        fast = [_uce_run(inst, caplog, cap) for cap in caps]
        with monkeypatch.context() as patch:
            patch.setattr(auction, "_MAX_JUMP", 1)
            stepped = [_uce_run(inst, caplog, cap) for cap in caps]
        assert fast == stepped
        assert fast[-1] == uncapped and fast[0][0] == "round cap"
    assert any("witness" in record for record in uncapped[1])


def _under_demanded_at_zero():
    """Descending market whose supply exceeds every bidder's capacity: each
    clock ends under-demanded at price 0."""
    return Instance(
        agents=(MultiUnitValuation((F(5), F(3))), MultiUnitValuation((F(4), F(1)))),
        K=10, epsilon=F(1, 2), p_init=F(11, 2), direction="descending",
    )


def test_capped_clocks_equal_the_stepped_reference(table1, monkeypatch):
    """At every round cap up to the uncapped length both settings stop at the
    same round with the same records, or finish with the same outcome."""
    for inst in (table1, _under_demanded_at_zero()):
        uncapped = _clock_runs(inst)
        assert all(out != "round cap" for out, _ in uncapped)
        length = max(out.rounds for out, _ in uncapped)
        fast = [_clock_runs(inst, cap) for cap in range(1, length + 1)]
        with monkeypatch.context() as patch:
            patch.setattr(auction, "_MAX_JUMP", 1)
            stepped = [_clock_runs(inst, cap) for cap in range(1, length + 1)]
        assert fast == stepped
        assert fast[-1] == uncapped and fast[0][0][0] == "round cap"
    assert uncapped[0][0].details == {"clearing_price": "0"}
    assert uncapped[0][1][-1]["diagnosis"] == "under"


def test_clock_queries_once_per_run(monkeypatch):
    """On a narrow-fine market each uniform-price clock asks each of its
    members once, at the settling round, yet reports the paper's count, one
    query per member per round."""
    inst = generate_product_mix(seed=0, n=4, K=12, epsilon=F(1, 100), value_steps_max=150)
    calls = []
    real = auction.demand_at_linear_price
    monkeypatch.setattr(
        auction, "demand_at_linear_price", lambda *args: calls.append(args) or real(*args)
    )
    out, trace = run_linear_auction(inst)
    assert out.queries == out.rounds * inst.n
    # (valuation, agent, price in epsilon units, ...) per call.
    assert sorted(args[1] for args in calls) == list(range(1, inst.n + 1))
    assert {args[2] for args in calls} == {parse_rational(trace.records[-1]["p"]) / inst.epsilon}
    assert out.rounds > 10
    calls.clear()
    out, _ = run_parallel_auction(inst)
    assert len(calls) == inst.n * inst.n
    assert out.queries == sum(
        rounds * (inst.n if j == 0 else inst.n - 1)
        for j, rounds in out.details["rounds_per_economy"].items()
    )


def test_clock_kappa_sums_match_enumeration():
    """Every uniform-price clock row's kappa sums, read off the sorted pool
    of marginals, equal the sums of the enumeration reference's reports at
    the row's price: criterion 3's instances and biased multi-unit markets."""
    rows = 0
    for inst in list(_criterion3_instances()) + list(_biased_multi_unit_markets(30)):
        _, trace = run_linear_auction(inst)
        for row in trace.records:
            p = parse_rational(row["p"])
            reports = [
                oracle.demand_at_linear_price_by_enumeration(inst.valuation(i), i, p, inst.delta)
                for i in range(1, inst.n + 1)
            ]
            assert (row["sum_kappa_min"], row["sum_kappa_max"]) == (
                sum(r.kappa_min for r in reports),
                sum(r.kappa_max for r in reports),
            )
            rows += 1
    assert rows > 1000


def test_off_lattice_clock_price_is_an_invariant_failure(table1):
    """A start price or a value off the epsilon-lattice raises in every
    engine; it is never rounded."""
    off_price = replace(table1)
    object.__setattr__(off_price, "p_init", F(1, 2))
    off_value = replace(table1)
    agents = (MultiUnitValuation((F(8), F(9, 2), F(4), F(2))),) + table1.agents[1:]
    object.__setattr__(off_value, "agents", agents)
    for tampered, label in ((off_price, "p_init = 1/2"), (off_value, "agent 1 marginal 2 = 9/2")):
        for engine in (run_uce_auction, run_linear_auction, run_parallel_auction):
            with pytest.raises(auction.OffLattice, match=label):
                engine(tampered)


def test_engines_compute_on_lattice_integers(table1, monkeypatch):
    """Every price state and uniform price the engines quote, and every max
    utility they are told, is an int count of epsilon steps."""
    seen = {"state": [], "price": [], "utility": []}
    envelope, linear = auction.demand_set, auction.demand_at_linear_price

    def watched_envelope(v, state, *rest):
        seen["state"].extend((*state.p, *state.alpha.values(), state.delta))
        report = envelope(v, state, *rest)
        seen["utility"].append(report.max_utility)
        return report

    def watched_linear(v, i, p, delta, *rest):
        seen["price"].extend((p, delta))
        report = linear(v, i, p, delta, *rest)
        seen["utility"].append(report.max_utility)
        return report

    monkeypatch.setattr(auction, "demand_set", watched_envelope)
    monkeypatch.setattr(auction, "demand_at_linear_price", watched_linear)
    fine = generate_product_mix(seed=0, n=4, K=12, epsilon=F(1, 100), value_steps_max=150)
    for inst in (table1, fine):
        _run_all_engines(inst)
    for kind, numbers in seen.items():
        assert numbers, kind
        assert all(type(q) is int for q in numbers), kind


def test_contiguity_record_is_in_real_units():
    """The contiguity monitor writes an engine run's marginals and quoted
    prices in real units, not in epsilon steps."""
    inst = Instance(
        agents=(
            MultiUnitValuation((F(11, 10), F(4, 5), F(1, 2))),
            MultiUnitValuation((F(6, 5), F(7, 10), F(2, 5), F(2, 5))),
        ),
        K=4, delta=F(3, 10), epsilon=F(1, 10),
    )
    before = len(demand.contiguity_counterexamples)
    run_uce_auction(inst)
    assert demand.contiguity_counterexamples[before:] == [{
        "agent": 2,
        "sizes": [2, 4],
        "marginals": ["6/5", "7/10", "2/5", "2/5"],
        "prices": ["0", "1/2", "1", "3/2", "9/5"],
    }]
    del demand.contiguity_counterexamples[before:]
