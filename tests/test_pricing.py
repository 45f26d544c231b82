import random
from fractions import Fraction

from uceauction.demand import best_value_by_size
from uceauction.model import (
    Bundle,
    Instance,
    MultiUnitValuation,
    ProductMixValuation,
    economy_members,
    visible_economies,
)
from uceauction.oracle import uce_dual_objective
from uceauction.pricing import (
    EnvelopePriceState,
    apply_over_demand_update,
    apply_under_demand_update,
    dual_objective,
    envelope_argmin,
    envelope_price_by_size,
    initial_state,
    line_price,
    offset_step_total,
    rho,
    rho_adjusted,
    state_to_dict,
)

F = Fraction


def test_initial_state_shape():
    s = initial_state(3, F(0))
    assert s.p == (F(0),) * 4
    assert all(v == 0 for v in s.alpha.values())
    assert (1, 1) not in s.alpha


def test_rho_is_lower_envelope():
    s = initial_state(2, F(0))
    s = s.replace(p=(F(3), F(5), F(1)), alpha={
        (1, 0): F(0), (1, 2): F(4),
        (2, 0): F(1), (2, 1): F(0),
    })
    k = Bundle(0, 2)
    # Agent 1 sees lines through economies 0 and 2.
    assert line_price(s, 1, 0, k) == 2 * 3 + 0
    assert line_price(s, 1, 2, k) == 2 * 1 + 4
    assert rho(s, 1, k) == F(6)
    assert envelope_argmin(s, 1, k) == (0, 2)
    # A bigger bundle tips the envelope to the cheaper unit price.
    assert rho(s, 1, Bundle(0, 5)) == 5 * 1 + 4
    assert envelope_argmin(s, 1, Bundle(0, 5)) == (2,)


def test_delta_raises_strong_unit_quote_only():
    s = initial_state(1, F(2), delta=F(1))
    assert rho(s, 1, Bundle(1, 1)) == 2 + (2 + 1)
    assert rho_adjusted(s, 1, Bundle(1, 1)) == 4
    assert rho_adjusted(s, 1, Bundle(2, 0)) == rho(s, 1, Bundle(2, 0))


def test_over_demand_update_moves_one_line():
    s = initial_state(2, F(0))
    kappa = {1: 2, 2: 1}
    t = apply_over_demand_update(s, [0], kappa, F(1))
    assert t.p == (F(1), F(0), F(0))
    # Offsets shift on every other line so quotes through them keep pace.
    assert t.alpha[(1, 2)] == F(2)
    assert t.alpha[(2, 1)] == F(1)
    # Lines through the updated economy itself keep their offsets.
    assert t.alpha[(1, 0)] == F(0)
    assert t.alpha[(2, 0)] == F(0)


def test_under_demand_update_is_the_mirror():
    s = initial_state(2, F(3))
    kappa = {1: 2, 2: 1}
    up = apply_over_demand_update(s, [1], kappa, F(1))
    down = apply_under_demand_update(up, [1], kappa, F(1))
    assert down.p == s.p
    assert down.alpha == s.alpha


def test_dual_objective_at_table1_terminal(table1):
    """The normalized terminal state of the worked example attains the known
    optimum 91; normalization itself never changes quoted price differences.
    Normalizing an agent shifts its offsets down by their minimum, so the
    zero bundle costs it nothing."""
    from uceauction.auction import run_uce_auction

    out, _ = run_uce_auction(table1)
    s = out.final_state
    assert s.p == (F(4), F(1), F(2), F(3))
    alpha = dict(s.alpha)
    for i in (1, 2, 3):
        shift = min(s.alpha[(i, j)] for j in visible_economies(i, 3))
        for j in visible_economies(i, 3):
            alpha[(i, j)] -= shift
    normalized = s.replace(alpha=alpha)
    assert all(rho(normalized, i, Bundle(0, 0)) == 0 for i in (1, 2, 3))
    assert uce_dual_objective(table1, normalized) == F(91)
    for i in (1, 2, 3):
        for k in table1.valuation(i).bundles():
            gap = rho(s, i, k) - rho(s, i, Bundle(0, 0))
            assert rho(normalized, i, k) - rho(normalized, i, Bundle(0, 0)) == gap


def test_state_serialization_round_trip():
    s = initial_state(2, F(1))
    s = apply_over_demand_update(s, [0], {1: 1, 2: 1}, F(1))
    doc = state_to_dict(s)
    assert doc["p"] == ["2", "1", "1"]
    # Row of agent i has a null at its own marginal economy.
    assert doc["alpha"][0][1] is None
    assert doc["alpha"][1][2] is None


def test_envelope_price_by_size_is_the_adjusted_envelope():
    s = initial_state(2, F(0), delta=F(1))
    s = s.replace(p=(F(3), F(5), F(1)), alpha={
        (1, 0): F(0), (1, 2): F(4),
        (2, 0): F(1), (2, 1): F(0),
    })
    for i in (1, 2):
        prices = envelope_price_by_size(s, i, 6)
        for k in (Bundle(kw, ks) for kw in range(7) for ks in range(7 - kw)):
            assert prices[k.size] == rho_adjusted(s, i, k)
            assert prices[k.size] + s.delta * k.ks == rho(s, i, k)


def test_update_leaves_the_old_state_untouched():
    s = initial_state(2, F(0))
    t = apply_over_demand_update(s, [0], {1: 2, 2: 1}, F(1))
    u = apply_under_demand_update(t, [2], {1: 1, 2: 1}, F(1))
    assert t.alpha is not s.alpha and u.alpha is not t.alpha
    assert all(v == 0 for v in s.alpha.values()) and s.p == (F(0),) * 3
    assert t.alpha[(1, 2)] == F(2) and u.alpha[(1, 2)] == F(2)
    assert u.alpha[(1, 0)] == F(-1) and u.p == (F(1), F(0), F(-1))


def _one_economy_update(state, j, kappa, step):
    """The single-economy step as the primal-dual method states it: p[j]
    moves by step, and on every other economy each member's offset moves by
    step * kappa[i]."""
    p = list(state.p)
    p[j] += step
    alpha = dict(state.alpha)
    for ell in range(0, state.n + 1):
        if ell != j:
            for i in economy_members(ell, state.n):
                alpha[(i, ell)] += step * kappa[i]
    return state.replace(p=p, alpha=alpha)


def test_one_call_equals_the_sequential_single_economy_updates():
    """Updating m economies in one call gives exactly the state of m
    single-economy updates in a row, offsets in the same key order, and moves
    the offsets' sum by offset_step_total."""
    rng = random.Random(2026)
    zero_kappa = own_marginal = 0
    for n in range(1, 6):
        for m in range(1, n + 2):
            for _ in range(8):
                state = EnvelopePriceState(
                    n=n,
                    p=tuple(F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n + 1)),
                    alpha={
                        (i, j): F(rng.randint(-20, 20), rng.randint(1, 6))
                        for i in range(1, n + 1)
                        for j in visible_economies(i, n)
                    },
                    delta=F(rng.randint(0, 2)),
                )
                kappa = {i: rng.choice((0, rng.randint(1, 6))) for i in range(1, n + 1)}
                targets = rng.sample(range(n + 1), m)
                epsilon = F(1, rng.choice((1, 2, 10, 100)))
                zero_kappa += 0 in kappa.values()
                own_marginal += any(j >= 1 for j in targets)
                for update, step in (
                    (apply_over_demand_update, epsilon),
                    (apply_under_demand_update, -epsilon),
                ):
                    one = update(state, targets, kappa, epsilon)
                    chained = reference = state
                    for j in targets:
                        chained = update(chained, [j], kappa, epsilon)
                        reference = _one_economy_update(reference, j, kappa, step)
                    assert one.p == chained.p == reference.p
                    assert (
                        list(one.alpha.items())
                        == list(chained.alpha.items())
                        == list(reference.alpha.items())
                    )
                    assert one.delta == state.delta
                    assert sum(one.alpha.values()) - sum(state.alpha.values()) == (
                        offset_step_total(n, targets, kappa, step)
                    )
    assert zero_kappa > 20 and own_marginal > 100


def _random_agent(rng):
    if rng.randrange(2):
        marginals = sorted((F(rng.randint(0, 9)) for _ in range(rng.randint(1, 4))), reverse=True)
        return MultiUnitValuation(tuple(marginals))
    v_w = F(rng.randint(0, 6))
    return ProductMixValuation(v_w, v_w + rng.randint(1, 5), rng.randint(0, 4))


def test_dual_objective_matches_the_enumeration_reference():
    """The one dual-objective formula, given each agent's clamped utility from
    the per-size tables, equals the oracle's bundle enumeration on random
    unnormalized states whose offsets take both signs."""
    rng = random.Random(60606)
    clamped = 0
    for _ in range(1200):
        agents = tuple(_random_agent(rng) for _ in range(rng.randint(1, 4)))
        delta = F(rng.randint(0, 2))
        inst = Instance(agents=agents, K=rng.randint(1, 8), delta=delta)
        n = inst.n
        state = EnvelopePriceState(
            n=n,
            p=tuple(F(rng.randint(-2, 16), 2) for _ in range(n + 1)),
            alpha={
                (i, j): F(rng.randint(-12, 12), 2)
                for i in range(1, n + 1)
                for j in visible_economies(i, n)
            },
            delta=delta,
        )
        utilities = []
        for i in range(1, n + 1):
            v = inst.valuation(i)
            prices = envelope_price_by_size(state, i, v.capacity)
            u = max(value - price for value, price in zip(best_value_by_size(v, delta), prices))
            clamped += u < 0
            utilities.append(max(u, F(0)))
        assert dual_objective(inst.K, utilities, state.p, state.alpha.values()) == (
            uce_dual_objective(inst, state)
        )
    assert clamped >= 100
