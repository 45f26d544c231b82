import random
from fractions import Fraction

import pytest

from uceauction import oracle
from uceauction.auction import run_uce_auction
from uceauction.generate import random_multi_unit_instance, random_product_mix_instance
from uceauction.model import Bundle, ZERO_BUNDLE
from uceauction.pricing import rho_adjusted

F = Fraction


def test_efficient_values_table1(table1):
    # Economy optima: main 26, then 18 / 23 / 24 without agents 1 / 2 / 3.
    expected = {0: F(26), 1: F(18), 2: F(23), 3: F(24)}
    for j, want in expected.items():
        value, allocation = oracle.efficient_value(table1, j)
        assert value == want
        assert sum(k.size for k in allocation.values()) <= table1.K
    assert sum(expected.values()) == F(91)


def test_efficient_value_matches_greedy_on_multi_unit(rng):
    """For non-increasing marginals the top-K greedy pick is already optimal,
    which gives an independent check of the assignment search."""
    for _ in range(50):
        inst = random_multi_unit_instance(rng)
        value, _ = oracle.efficient_value(inst, 0)
        assert value == oracle.efficient_value_greedy(inst)


def test_vcg_from_definition_table1(table1):
    payments, payoffs, allocation, values = oracle.vcg_from_definition(table1)
    assert values == {0: F(26), 1: F(18), 2: F(23), 3: F(24)}
    assert payments == {1: F(5), 2: F(4), 3: F(4)}
    assert payoffs == {1: F(8), 2: F(3), 3: F(2)}
    assert {i: k.size for i, k in allocation.items()} == {1: 2, 2: 1, 3: 1}


def test_enumerate_efficient_allocations_contains_oracle_pick(table1):
    allocations = oracle.enumerate_efficient_allocations(table1, 0)
    _, best = oracle.efficient_value(table1, 0)
    normalized = [
        {i: a.get(i, ZERO_BUNDLE) for i in (1, 2, 3)} for a in allocations
    ]
    assert {i: best.get(i, ZERO_BUNDLE) for i in (1, 2, 3)} in normalized
    for a in allocations:
        total = sum((table1.adjusted_value(i, k) for i, k in a.items()), F(0))
        assert total == F(26)


def test_certify_uce_accepts_terminal_prices(table1):
    out, _ = run_uce_auction(table1)
    state = out.final_state
    cert = oracle.certify_uce(table1, lambda i, k: rho_adjusted(state, i, k))
    assert cert.passed
    assert set(cert.results) == {0, 1, 2, 3}


def test_certify_uce_rejects_zero_prices(table1):
    cert = oracle.certify_uce(table1, lambda i, k: F(0))
    assert not cert.passed
    witness = next(iter(cert.failures().values()))["witness"]
    assert witness["kind"] in ("demand", "revenue")


def test_vcg_from_uce_matches_definition(table1):
    out, _ = run_uce_auction(table1)
    state = out.final_state
    payments = oracle.vcg_from_uce(table1, lambda i, k: rho_adjusted(state, i, k))
    definition, _, _, _ = oracle.vcg_from_definition(table1)
    assert payments == definition


def test_vcg_from_uce_requires_universal_prices(table1):
    with pytest.raises(oracle.NotUniversal):
        oracle.vcg_from_uce(table1, lambda i, k: F(0))


def test_vcg_from_uce_takes_the_callers_certification(table1, monkeypatch):
    """A certification the caller holds is used, not recomputed, and gives
    the same payments; without one the prices are certified first, and a
    failed one is refused."""
    out, _ = run_uce_auction(table1)
    state = out.final_state

    def price_fn(i, k):
        return rho_adjusted(state, i, k)

    certification = oracle.certify_uce(table1, price_fn)
    rejected = oracle.certify_uce(table1, lambda i, k: F(0))
    calls = []
    real = oracle.certify_uce
    monkeypatch.setattr(oracle, "certify_uce", lambda *args: calls.append(args) or real(*args))
    given = oracle.vcg_from_uce(table1, price_fn, certification=certification)
    assert calls == []
    assert given == oracle.vcg_from_uce(table1, price_fn) == out.payments
    assert len(calls) == 1
    with pytest.raises(oracle.NotUniversal):
        oracle.vcg_from_uce(table1, price_fn, certification=rejected)


def test_vcg_payoffs_allocation_independent(rng):
    """Payments derived from terminal prices depend on the efficient
    allocation chosen, but value minus payment always equals the payoff."""
    checked = 0
    while checked < 10:
        inst = random_product_mix_instance(rng, n_max=3, K_max=4, gamma_max=2, value_max=6)
        allocations = oracle.enumerate_efficient_allocations(inst, 0)
        if len(allocations) < 2:
            continue
        out, _ = run_uce_auction(inst)
        state = out.final_state
        checked += 1
        _, payoffs, _, _ = oracle.vcg_from_definition(inst)
        for a in allocations[:4]:
            payments = oracle.vcg_from_uce(
                inst, lambda i, k: rho_adjusted(state, i, k), allocation=a
            )
            for i in range(1, inst.n + 1):
                value = inst.adjusted_value(i, a.get(i, ZERO_BUNDLE))
                assert value - payments[i] == payoffs[i]


def test_revenue_max_zero_prices_is_zero(table1):
    value, _ = oracle.revenue_max(table1, 0, lambda i, k: F(0))
    assert value == 0
