"""Fixed-step subgradient auction over explicit per-bundle prices.

Unlike the envelope engine, this method keeps a full price table rho[(i, k)]
as Lagrange multipliers and is not guaranteed to reach the exact optimum; it
tracks the best dual objective seen over a fixed iteration budget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import Instance, InstanceValidationError, economy_members, format_rational, visible_economies
from .pricing import dual_objective

ZERO = Fraction(0)

MAX_TABLE_BUNDLES = 10**5


@dataclass
class SubgradientState:
    rho: dict  # (agent, Bundle) -> Fraction
    p: list  # economy -> Fraction
    alpha: dict  # (agent, economy) -> Fraction, recomputed each iteration
    step: Fraction


@dataclass
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
    rho = {
        (i, k): k.size * instance.p_init
        for i in range(1, n + 1)
        for k in instance.valuation(i).bundles()
    }
    p = [Fraction(instance.p_init)] * (n + 1)
    # Adjusted values never change across iterations: (bundle, value) pairs
    # per agent, in bundle order.
    values = {
        i: [(k, instance.adjusted_value(i, k)) for k in instance.valuation(i).bundles()]
        for i in range(1, n + 1)
    }
    run = SubgradientRun()
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

        max_component = ZERO
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
            max_component = max(max_component, abs(Fraction(grad)))
            # Projected step: unit prices stay in the dual's feasible region.
            new_p[j] = max(p[j] + step * grad, ZERO)
        new_rho = dict(rho)
        for i in range(1, n + 1):
            for k, _ in values[i]:
                z_count = n if k == z_pick[i] else 0
                b_count = sum(
                    1 for j in visible_economies(i, n) if beta_pick[(j, i)] == k
                )
                grad = z_count - b_count
                if grad:
                    max_component = max(max_component, abs(Fraction(grad)))
                    new_rho[(i, k)] = rho[(i, k)] + step * grad
        rho, p = new_rho, new_p

        alpha, beta_pick = _seller_side(n, values, rho, p)
        # pi, p and alpha clamped at zero keep the evaluation inside the
        # dual's feasible region, so the value is always a valid bound.
        pi = (max(max(value - rho[(i, k)] for k, value in values[i]), ZERO) for i in values)
        objective = dual_objective(
            instance.K, pi, [max(q, ZERO) for q in p], (max(a, ZERO) for a in alpha.values())
        )
        if run.best_objective is None or objective < run.best_objective:
            run.best_objective = objective
            run.best_iteration = it
        entry = {
            "iteration": it,
            "objective": format_rational(objective),
            "best_objective": format_rational(run.best_objective),
            "max_subgradient": format_rational(max_component),
        }
        if lp_optimum is not None:
            entry["gap"] = format_rational(run.best_objective - lp_optimum)
        run.log.append(entry)

    # alpha is the last iteration's, computed from the final rho and p.
    run.state = SubgradientState(rho=rho, p=p, alpha=alpha, step=step)
    return run
