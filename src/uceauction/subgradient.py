"""Fixed-step subgradient auction over explicit per-bundle prices.

Unlike the envelope engine, this method keeps a full price table rho[(i, k)]
as Lagrange multipliers and is not guaranteed to reach the exact optimum; it
tracks the best dual objective seen over a fixed iteration budget.

A run computes on one lattice.  Prices start at multiples of p_init, move by
whole multiples of the step and clamp at 0, and utilities and margins take
them from adjusted values, so every quantity is a whole multiple of 1 / lcm
of the denominators of the step, p_init and the adjusted values.  The
iterations work in Python ints of that unit; the log, the best objective and
the final state are Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .model import (
    Instance,
    InstanceValidationError,
    economy_members,
    format_rational,
    lattice_formatter,
    visible_economies,
)
from .pricing import dual_objective
from .records import field, record

MAX_TABLE_BUNDLES = 10**5


@record
class SubgradientState:
    rho: dict  # (agent, Bundle) -> Fraction
    p: list  # economy -> Fraction
    alpha: dict  # (agent, economy) -> Fraction, recomputed each iteration
    step: Fraction


@record
class SubgradientRun:
    log: list = field(default_factory=list)
    best_objective: Fraction | None = None
    best_iteration: int = 0
    state: SubgradientState | None = None


def _lex_argmax(candidates):
    """(best value, bundle): maximize by value, breaking ties on the
    lexicographically smallest (kw, ks).

    The bundle is None when the best value is negative: the relaxed problem
    then sets the whole selection block to zero, and picking a bundle anyway
    would not be a valid subgradient.
    """
    best_value = max(v for _, v in candidates)
    if best_value < 0:
        return best_value, None
    return best_value, min(k for k, v in candidates if v == best_value)


def _seller_side(n, values, rho, p):
    """alpha[(i, j)], the best seller-side margin of agent i's prices on
    economy j, and the seller-side pick[(j, i)] attaining it, from one
    candidate list per (agent, visible economy)."""
    alpha, pick = {}, {}
    for i in range(1, n + 1):
        for j in visible_economies(i, n):
            alpha[(i, j)], pick[(j, i)] = _lex_argmax(
                [(k, rho[(i, k)] - k.size * p[j]) for k, _ in values[i]]
            )
    return alpha, pick


def run_subgradient(
    instance: Instance,
    step: Fraction,
    iterations: int = 200,
    lp_optimum: Fraction | None = None,
) -> SubgradientRun:
    """Iterate the multiplier updates for a fixed budget, tracking the best
    dual objective seen.  Bundle prices start at size times the initial price."""
    total_bundles = sum(v.bundle_count() for v in instance.agents)
    if total_bundles > MAX_TABLE_BUNDLES:
        raise InstanceValidationError(
            "instance has %d bundles; the per-bundle price table is capped at %d"
            % (total_bundles, MAX_TABLE_BUNDLES)
        )

    n = instance.n
    step = Fraction(step)
    # Adjusted values never change across iterations: (bundle, value) pairs
    # per agent, in bundle order.
    real_values = {
        i: [(k, instance.adjusted_value(i, k)) for k in instance.valuation(i).bundles()]
        for i in range(1, n + 1)
    }
    scale = math.lcm(
        step.denominator,
        instance.p_init.denominator,
        *(value.denominator for pairs in real_values.values() for _, value in pairs),
    )
    unit = Fraction(1, scale)
    fmt = lattice_formatter(unit)
    values = {
        i: [(k, (value * scale).numerator) for k, value in pairs]
        for i, pairs in real_values.items()
    }
    step_units = (step * scale).numerator
    p_init = (instance.p_init * scale).numerator
    rho = {(i, k): k.size * p_init for i in range(1, n + 1) for k, _ in values[i]}
    p = [p_init] * (n + 1)
    run = SubgradientRun()
    best = gap = None
    # Seller-side selection per (economy, agent), from prices alone; alpha
    # comes from the same candidate lists, so both are built once per
    # iteration, at the prices the next iteration starts from.
    alpha, beta_pick = _seller_side(n, values, rho, p)

    for it in range(1, iterations + 1):
        # Agent-side selection: one demanded bundle per agent, reused for
        # every economy the agent participates in.
        z_pick = {}
        for i in range(1, n + 1):
            _, z_pick[i] = _lex_argmax([(k, value - rho[(i, k)]) for k, value in values[i]])

        max_component = 0
        new_p = list(p)
        for j in range(0, n + 1):
            grad = (
                sum(
                    beta_pick[(j, i)].size
                    for i in economy_members(j, n)
                    if beta_pick[(j, i)] is not None
                )
                - instance.K
            )
            max_component = max(max_component, abs(grad))
            # Projected step: unit prices stay in the dual's feasible region.
            new_p[j] = max(p[j] + step_units * grad, 0)
        new_rho = dict(rho)
        for i in range(1, n + 1):
            for k, _ in values[i]:
                z_count = n if k == z_pick[i] else 0
                b_count = sum(
                    1 for j in visible_economies(i, n) if beta_pick[(j, i)] == k
                )
                grad = z_count - b_count
                if grad:
                    max_component = max(max_component, abs(grad))
                    new_rho[(i, k)] = rho[(i, k)] + step_units * grad
        rho, p = new_rho, new_p

        alpha, beta_pick = _seller_side(n, values, rho, p)
        # pi, p and alpha clamped at zero keep the evaluation inside the
        # dual's feasible region, so the value is always a valid bound.
        pi = (max(max(value - rho[(i, k)] for k, value in values[i]), 0) for i in values)
        objective = dual_objective(
            instance.K, pi, [max(q, 0) for q in p], (max(a, 0) for a in alpha.values())
        )
        if best is None or objective < best:
            best = objective
            run.best_objective = best * unit
            run.best_iteration = it
            if lp_optimum is not None:
                gap = format_rational(run.best_objective - lp_optimum)
        entry = {
            "iteration": it,
            "objective": fmt(objective),
            "best_objective": fmt(best),
            "max_subgradient": format_rational(max_component),
        }
        if lp_optimum is not None:
            entry["gap"] = gap
        run.log.append(entry)

    # alpha is the last iteration's, computed from the final rho and p.
    run.state = SubgradientState(
        rho={key: q * unit for key, q in rho.items()},
        p=[q * unit for q in p],
        alpha={key: q * unit for key, q in alpha.items()},
        step=step,
    )
    return run
