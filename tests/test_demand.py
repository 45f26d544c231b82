import random
from fractions import Fraction

from uceauction import demand, oracle
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
from uceauction.model import Bundle, MultiUnitValuation, ProductMixValuation
from uceauction.pricing import EnvelopePriceState, initial_state

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
