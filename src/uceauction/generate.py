"""Seeded random instance generators.

All values are drawn as integer multiples of epsilon, so generated instances
always pass validation.  Generation is deterministic under a fixed seed.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .model import (
    Instance,
    InstanceValidationError,
    MultiUnitValuation,
    ProductMixValuation,
)


def _descending_start(agents, epsilon) -> Fraction:
    """An epsilon-multiple unit price strictly above every per-unit value."""
    top = Fraction(0)
    for v in agents:
        if isinstance(v, MultiUnitValuation):
            if v.marginals:
                top = max(top, v.marginals[0])
        else:
            top = max(top, v.v_s)
    return top + Fraction(epsilon)


def random_multi_unit_instance(
    rng: random.Random,
    n_max: int = 4,
    K_max: int = 6,
    value_max: int = 10,
    units_max: int = 4,
    update_mode: str = "batch",
    direction: str = "ascending",
) -> Instance:
    """Small multi-unit instance with integer values and epsilon = 1."""
    n = rng.randint(1, n_max)
    K = rng.randint(1, K_max)
    agents = []
    for _ in range(n):
        length = rng.randint(1, units_max)
        marginals = sorted(
            (rng.randint(0, value_max) for _ in range(length)), reverse=True
        )
        if marginals[0] == 0:
            marginals[0] = rng.randint(1, value_max)
        agents.append(MultiUnitValuation(tuple(Fraction(m) for m in marginals)))
    p_init = Fraction(0) if direction == "ascending" else _descending_start(agents, 1)
    return Instance(
        agents=tuple(agents),
        K=K,
        delta=Fraction(0),
        epsilon=Fraction(1),
        p_init=p_init,
        direction=direction,
        update_mode=update_mode,
    )


def random_product_mix_instance(
    rng: random.Random,
    n_max: int = 5,
    K_max: int = 12,
    gamma_max: int = 6,
    value_max: int = 10,
    strong_only_prob: float = 0.4,
    delta_max: int = 0,
    update_mode: str = "batch",
    direction: str = "ascending",
) -> Instance:
    """Small product-mix instance with integer values and epsilon = 1."""
    n = rng.randint(1, n_max)
    K = rng.randint(1, K_max)
    delta = Fraction(rng.randint(0, delta_max))
    agents = []
    for _ in range(n):
        gamma = rng.randint(1, gamma_max)
        if rng.random() < strong_only_prob:
            v_w = Fraction(0)
            v_s = Fraction(rng.randint(1, value_max))
        else:
            v_w = Fraction(rng.randint(1, value_max - 1))
            v_s = Fraction(rng.randint(int(v_w) + 1, value_max))
        agents.append(ProductMixValuation(v_w=v_w, v_s=v_s, gamma=gamma))
    p_init = Fraction(0) if direction == "ascending" else _descending_start(agents, 1)
    return Instance(
        agents=tuple(agents),
        K=K,
        delta=delta,
        epsilon=Fraction(1),
        p_init=p_init,
        direction=direction,
        update_mode=update_mode,
    )


# Largest value, in epsilon steps, the synthetic generators draw by default.
VALUE_STEPS_MAX = 600


def generate_product_mix(
    seed: int,
    n: int,
    K: int,
    epsilon: Fraction = Fraction(1, 100),
    value_steps_max: int = VALUE_STEPS_MAX,
    strong_only_fraction: float = 0.2,
    gamma_max: int | None = None,
    delta_steps: int = 0,
    direction: str = "ascending",
    update_mode: str = "batch",
) -> Instance:
    """Synthetic product-mix market: n bidders, supply K, values on the epsilon
    grid, a fixed fraction of strong-only bidders, and total capacity >= K.

    Deterministic under the seed; re-running with identical arguments yields a
    byte-identical instance file.
    """
    rng, epsilon, units = _opening(seed, n, K, epsilon, gamma_max)
    if value_steps_max < 2:
        raise InstanceValidationError("value_steps_max must be at least 2")
    strong_only = max(0, min(n, round(strong_only_fraction * n)))
    agents = []
    for idx in range(n):
        gamma = units()
        if idx < strong_only:
            v_w = Fraction(0)
            v_s = rng.randint(2, value_steps_max) * epsilon
        else:
            w_steps = rng.randint(1, value_steps_max - 1)
            v_w = w_steps * epsilon
            v_s = rng.randint(w_steps + 1, value_steps_max) * epsilon
        agents.append(ProductMixValuation(v_w=v_w, v_s=v_s, gamma=gamma))
    # Guarantee the market can absorb the supply.
    shortfall = K - sum(v.gamma for v in agents)
    if shortfall > 0:
        grown = agents[-1]
        agents[-1] = ProductMixValuation(
            v_w=grown.v_w, v_s=grown.v_s, gamma=grown.gamma + shortfall
        )
    return _market(agents, K, delta_steps * epsilon, epsilon, direction, update_mode)


def generate_multi_unit(
    seed: int,
    n: int,
    K: int,
    epsilon: Fraction = Fraction(1, 100),
    gamma_max: int | None = None,
    delta_steps: int = 0,
    direction: str = "ascending",
    update_mode: str = "batch",
) -> Instance:
    """Synthetic multi-unit market: n bidders, supply K, non-increasing
    marginals on the epsilon grid and at most gamma_max units per bidder.

    Deterministic under the seed, like generate_product_mix.
    """
    rng, epsilon, units = _opening(seed, n, K, epsilon, gamma_max)
    agents = []
    for _ in range(n):
        steps = sorted((rng.randint(1, VALUE_STEPS_MAX) for _ in range(units())), reverse=True)
        agents.append(MultiUnitValuation(tuple(q * epsilon for q in steps)))
    return _market(agents, K, delta_steps * epsilon, epsilon, direction, update_mode)


def _opening(seed, n, K, epsilon, gamma_max):
    """The seeded rng, epsilon as a Fraction, and a draw of one bidder's unit
    count: between gamma_max // 2 and gamma_max, which defaults to 2K/n."""
    if n < 1 or K < 1:
        raise InstanceValidationError("n and K must be positive")
    if gamma_max is None:
        gamma_max = max(1, 2 * K // n)
    rng = random.Random(seed)
    return rng, Fraction(epsilon), lambda: rng.randint(max(1, gamma_max // 2), gamma_max)


def _market(agents, K, delta, epsilon, direction, update_mode) -> Instance:
    p_init = (
        Fraction(0) if direction == "ascending" else _descending_start(agents, epsilon)
    )
    return Instance(
        agents=tuple(agents),
        K=K,
        delta=delta,
        epsilon=epsilon,
        p_init=p_init,
        direction=direction,
        update_mode=update_mode,
    )
