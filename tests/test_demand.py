import random
from fractions import Fraction

from uceauction import auction, demand, oracle
from uceauction.demand import (
    BALANCED,
    OVER_DEMAND,
    UNDER_DEMAND,
    best_value_by_size,
    demand_at_linear_price,
    demand_from_size_tables,
    demand_set,
    diagnose,
    economy_kappa_sums,
)
from uceauction.generate import generate_product_mix
from uceauction.model import Bundle, MultiUnitValuation, ProductMixValuation
from uceauction.pricing import (
    EnvelopePriceState,
    envelope_price_by_size,
    initial_state,
    line_by_size,
)

F = Fraction


def test_multi_unit_demand_at_zero_prices(table1):
    state = initial_state(3, F(0))
    r = demand_set(table1.valuation(1), state, 1)
    assert r.max_utility == F(19)
    assert (r.kappa_min, r.kappa_max) == (4, 4)


def test_linear_demand_marginal_cutoff():
    v = MultiUnitValuation((F(8), F(5), F(4), F(2)))
    r = demand_at_linear_price(v, 1, F(4), F(0))
    # The fourth unit is worth 2 < 4; the third exactly 4, so it is optional.
    assert (r.kappa_min, r.kappa_max) == (2, 3)
    assert r.max_utility == F(5)


def test_demand_ties_report_every_maximizer():
    v = MultiUnitValuation((F(4), F(4)))
    r = demand_at_linear_price(v, 1, F(4), F(0))
    assert set(r.maximizers) == {Bundle(0, 0), Bundle(0, 1), Bundle(0, 2)}
    assert r.max_utility == 0


def test_product_mix_demand_prefers_better_ratio():
    v = ProductMixValuation(v_w=F(3), v_s=F(5), gamma=2)
    r = demand_at_linear_price(v, 1, F(2), F(0))
    # Margins: weak 1, strong 3; both positive, so fill up with strong units.
    assert r.maximizers == (Bundle(0, 2),)
    r2 = demand_at_linear_price(v, 1, F(2), F(1))
    # With bias 1 the strong margin drops to 2, still above the weak margin.
    assert r2.maximizers == (Bundle(0, 2),)
    r3 = demand_at_linear_price(v, 1, F(2), F(2))
    # Equal margins of 1: every full bundle maximizes.
    assert set(r3.maximizers) == {Bundle(2, 0), Bundle(1, 1), Bundle(0, 2)}


def test_contiguity_monitor_records_gap():
    before = len(demand.contiguity_counterexamples)
    v = MultiUnitValuation((F(7), F(3), F(2)))
    prices = [F(0), F(4), F(8), F(9)]
    r = demand_from_size_tables(v, 9, best_value_by_size(v), prices)
    assert sorted(k.size for k in r.maximizers) == [1, 3]
    assert len(demand.contiguity_counterexamples) == before + 1
    assert demand.contiguity_counterexamples[-1]["agent"] == 9
    # The record carries quoted prices: the bias is added back per unit.
    biased = MultiUnitValuation((F(8), F(4), F(3)))
    r = demand_from_size_tables(biased, 9, best_value_by_size(biased, F(1)), prices, F(1))
    assert (r.kappa_min, r.kappa_max) == (1, 3)
    assert demand.contiguity_counterexamples[-1]["prices"] == ["0", "5", "10", "12"]


def test_diagnose_thresholds(table1):
    state = initial_state(3, F(0))
    reports = {i: demand_set(table1.valuation(i), state, i) for i in (1, 2, 3)}
    sums = economy_kappa_sums(reports)
    assert sums[0] == (9, 9)
    assert diagnose(*sums[0], 4) == OVER_DEMAND
    assert diagnose(*sums[0], 9) == BALANCED
    assert diagnose(*sums[0], 12) == UNDER_DEMAND
    # Marginal economy 1 drops agent 1's four units.
    assert sums[1] == (5, 5)


def test_best_value_by_size_closed_forms():
    assert best_value_by_size(MultiUnitValuation((F(8), F(5), F(0))), F(1)) == [0, 7, 11]
    assert best_value_by_size(ProductMixValuation(F(3), F(5), 2), F(1)) == [0, 4, 8]
    assert best_value_by_size(ProductMixValuation(F(3), F(5), 2), F(3)) == [0, 3, 6]
    # Strong-only agents cannot fall back on weak units, even at a loss.
    assert best_value_by_size(ProductMixValuation(F(0), F(2), 2), F(3)) == [0, -1, -2]


def _random_valuation(rng, delta):
    kind = rng.randrange(4)
    if kind == 0:
        # Multi-unit, zero marginals included (they sit past the capacity).
        marginals = sorted((F(rng.randint(0, 12)) for _ in range(rng.randint(1, 6))), reverse=True)
        return MultiUnitValuation(tuple(marginals))
    gamma = rng.randint(0, 7)
    if kind == 1:
        return ProductMixValuation(F(0), F(rng.randint(1, 12)), gamma)
    v_w = F(rng.randint(1, 10))
    if kind == 2:
        # The tie face: strong units net of the bias worth exactly v_w.
        return ProductMixValuation(v_w, v_w + delta if delta > 0 else v_w + 1, gamma)
    return ProductMixValuation(v_w, v_w + rng.randint(1, 6), gamma)


def test_reports_equal_the_enumeration_reference():
    """Full report equality (utility, kappas, every maximizer in order) with
    enumeration over every bundle, at envelope and at linear prices."""
    rng = random.Random(31337)
    ties = 0
    for _ in range(1500):
        delta = F(rng.randint(0, 3))
        v = _random_valuation(rng, delta)
        n = rng.randint(1, 4)
        i = rng.randint(1, n)
        state = EnvelopePriceState(
            n=n,
            p=tuple(F(rng.randint(0, 30), rng.choice((1, 2, 3))) for _ in range(n + 1)),
            alpha={
                (a, j): F(rng.randint(-20, 40), rng.choice((1, 2)))
                for a in range(1, n + 1)
                for j in range(0, n + 1)
                if j != a
            },
            delta=delta,
        )
        assert demand_set(v, state, i) == oracle.demand_set_by_enumeration(v, state, i)
        p = F(rng.randint(0, 24), rng.choice((1, 2)))
        fast = demand_at_linear_price(v, i, p, delta)
        assert fast == oracle.demand_at_linear_price_by_enumeration(v, i, p, delta)
        ties += len({k.size for k in fast.maximizers}) < len(fast.maximizers)
    # The sweep reaches reports with several maximizers of one size.
    assert ties > 0


def _lattice_bidder(rng):
    """(valuation, delta steps, epsilon): a multi-unit bidder with up to 100
    units or a product-mix bidder on one of the three maximizer faces, with
    a strong-unit bias of 2 to 5 epsilon-steps."""
    epsilon = F(1, rng.choice((1, 2, 10)))
    bias = rng.randint(2, 5)
    kind = rng.randrange(5)
    if kind == 0:
        steps = sorted((rng.randint(0, 40) for _ in range(rng.randint(1, 100))), reverse=True)
        steps[0] = max(steps[0], 1)
        return MultiUnitValuation(tuple(q * epsilon for q in steps)), bias, epsilon
    gamma = rng.randint(0, 100) if rng.randrange(2) else rng.randint(0, 8)
    weak = rng.randint(1, 20)
    strong = {
        1: weak + bias + rng.randint(1, 5),  # strong ray
        2: weak + bias,  # every split
        3: weak + rng.randint(1, bias - 1),  # weak ray
    }.get(kind)
    if strong is None:  # strong only
        return ProductMixValuation(0, rng.randint(1, 30) * epsilon, gamma), bias, epsilon
    return ProductMixValuation(weak * epsilon, strong * epsilon, gamma), bias, epsilon


def _lattice_state(rng, values, n, i, bias):
    """A random envelope state in epsilon steps for agent i of n, with one of
    the agent's lines moved, half of the time, to tie the best other line's
    maximum, so that several lines are optimal."""
    p = tuple(rng.randint(0, 45) for _ in range(n + 1))
    alpha = {
        (a, j): rng.randint(-100, 300) for a in range(1, n + 1) for j in range(0, n + 1) if j != a
    }
    lines = [j for j in range(0, n + 1) if j != i]
    if len(lines) > 1 and rng.randrange(2):
        def line_max(j):
            return max(v - s * p[j] - alpha[(i, j)] for s, v in enumerate(values))

        moved, *others = rng.sample(lines, len(lines))
        alpha[(i, moved)] += line_max(moved) - max(map(line_max, others))
    return EnvelopePriceState(n=n, p=p, alpha=alpha, delta=bias)


def _with_records(query):
    """query()'s report and the contiguity records it left."""
    before = len(demand.contiguity_counterexamples)
    report = query()
    records = demand.contiguity_counterexamples[before:]
    del demand.contiguity_counterexamples[before:]
    return report, records


def test_closed_form_demand_equals_the_size_tables():
    """Report for report, and contiguity record for record, the line-interval
    demand equals the size-table reference under envelope and linear prices,
    in epsilon-step ints and in real-unit Fractions, and the enumeration
    reference where the capacity is at most 8."""
    rng = random.Random(20261018)
    gaps = splits = weak = enumerated = 0
    for _ in range(600):
        v, bias, epsilon = _lattice_bidder(rng)
        n = rng.randint(1, 5)
        i = rng.randint(1, n)
        steps = [(q / epsilon).numerator for q in best_value_by_size(v, bias * epsilon)]
        state = _lattice_state(rng, steps, n, i, bias)
        real = EnvelopePriceState(
            n=n,
            p=tuple(q * epsilon for q in state.p),
            alpha={key: q * epsilon for key, q in state.alpha.items()},
            delta=bias * epsilon,
        )
        face = demand.maximizer_face(v, real.delta)
        rising = demand.rising_marginals(steps)
        in_steps = _with_records(lambda: demand_set(v, state, i, steps, face, epsilon, rising))
        assert in_steps == _with_records(lambda: demand_from_size_tables(
            v, i, steps, envelope_price_by_size(state, i, v.capacity), bias, face, epsilon
        ))
        in_units = _with_records(lambda: demand_set(v, real, i))
        assert in_units == _with_records(lambda: demand_from_size_tables(
            v, i, best_value_by_size(v, real.delta),
            envelope_price_by_size(real, i, v.capacity), real.delta,
        ))
        # The same demand, its records written in real units either way.
        assert in_units[0].max_utility == in_steps[0].max_utility * epsilon
        assert in_units[0].maximizers == in_steps[0].maximizers
        assert in_units[1] == in_steps[1]
        price = rng.randint(0, 45)
        linear = demand_at_linear_price(v, i, price, bias, steps, face, epsilon, rising)
        assert linear == demand_from_size_tables(
            v, i, steps, line_by_size(price, 0, v.capacity), bias, face, epsilon
        )
        linear_units = demand_at_linear_price(v, i, price * epsilon, real.delta)
        assert linear_units.maximizers == linear.maximizers
        if v.capacity <= 8:
            assert in_units[0] == oracle.demand_set_by_enumeration(v, real, i)
            assert linear_units == oracle.demand_at_linear_price_by_enumeration(
                v, i, price * epsilon, real.delta
            )
            enumerated += 1
        gaps += bool(in_steps[1])
        splits += face == demand.EVERY_SPLIT and in_steps[0].kappa_max > 1
        weak += face == demand.WEAK_RAY and in_steps[0].kappa_max > 0
    assert gaps >= 10 and splits >= 10 and weak >= 10 and enumerated >= 100


def test_uce_demand_builds_no_size_table(table1, monkeypatch):
    """Stepped through every round, the Table-1 run and the narrow-fine
    seed-0 markets never build a per-size envelope price in demand_set: no
    report there has a gap for the contiguity monitor to record."""
    built, queried = [], []
    size_table, query = demand.envelope_price_by_size, auction.demand_set
    monkeypatch.setattr(
        demand, "envelope_price_by_size", lambda *args: built.append(args) or size_table(*args)
    )
    monkeypatch.setattr(auction, "demand_set", lambda *args: queried.append(args) or query(*args))
    monkeypatch.setattr(auction, "_MAX_JUMP", 1)
    markets = [table1] + [
        generate_product_mix(
            seed=seed, n=4, K=12, epsilon=F(1, 100), value_steps_max=150, direction=direction
        )
        for seed in range(5)
        for direction in ("ascending", "descending")
    ]
    rounds = sum(inst.n * auction.run_uce_auction(inst)[0].rounds for inst in markets)
    assert len(queried) == rounds > 1000
    assert built == []
