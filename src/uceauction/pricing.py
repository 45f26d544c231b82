"""Lower-envelope price state: per-economy unit prices plus per-agent offsets.

The quoted price of a bundle to agent i is the minimum, over every economy
that agent i participates in, of an affine line: kw*p + ks*(p+delta) + alpha.
Price updates follow the closed-form improving direction of the primal-dual
method: each updated economy's unit price moves by epsilon, and every other
economy's offsets move by epsilon times the agent's reported kappa.  One call
applies a whole round's step, all its economies at once, in a single pass over
the offsets.  `dual_objective` is the one formula for the UCE dual objective.

Every function computes in the exact numbers it is given: Fractions in real
units, or the engines' integer multiples of epsilon.
"""
from __future__ import annotations

from fractions import Fraction

from .model import Bundle, visible_economies
from .records import record


@record(frozen=True)
class EnvelopePriceState:
    """Immutable price state: p indexed by economy 0..n, alpha[(i, j)] offsets.

    alpha is defined exactly for pairs with j != i; an agent never sees its
    own marginal economy.  Total dimensionality is n^2 + n + 1 scalars.
    """

    n: int
    p: tuple  # length n+1, index = economy
    alpha: dict  # (agent i, economy j) -> Fraction, j != i
    delta: Fraction = 0

    def replace(self, p=None, alpha=None) -> "EnvelopePriceState":
        return EnvelopePriceState(
            n=self.n,
            p=tuple(p if p is not None else self.p),
            alpha=dict(alpha if alpha is not None else self.alpha),
            delta=self.delta,
        )


def initial_state(n: int, p_init: Fraction, delta: Fraction = 0) -> EnvelopePriceState:
    alpha = {(i, j): 0 for i in range(1, n + 1) for j in visible_economies(i, n)}
    return EnvelopePriceState(n=n, p=(p_init,) * (n + 1), alpha=alpha, delta=delta)


def line_price(state: EnvelopePriceState, i: int, j: int, k: Bundle) -> Fraction:
    """Quoted price of bundle k on the affine line of economy j."""
    return k.kw * state.p[j] + k.ks * (state.p[j] + state.delta) + state.alpha[(i, j)]


def rho(state: EnvelopePriceState, i: int, k: Bundle) -> Fraction:
    """Quoted lower-envelope price of bundle k for agent i."""
    return min(line_price(state, i, j, k) for j in visible_economies(i, state.n))


def rho_adjusted(state: EnvelopePriceState, i: int, k: Bundle) -> Fraction:
    """Envelope price net of the strong-item bias: min over j of |k|*p + alpha.

    This is the price in the bias-adjusted economy, where values are
    v(k) - delta*ks; utilities agree with the quoted convention exactly.
    """
    return rho(state, i, k) - state.delta * k.ks


def envelope_price_by_size(state: EnvelopePriceState, i: int, capacity: int) -> list:
    """Agent i's adjusted envelope price of a bundle of each size 0..capacity.

    The strong-unit bias cancels in the adjusted price, min over j of
    |k|*p[j] + alpha[(i, j)], so it depends on the size alone; the quoted
    price of bundle k is this plus delta * ks.
    """
    lines = [
        line_by_size(state.p[j], state.alpha[(i, j)], capacity)
        for j in visible_economies(i, state.n)
    ]
    return [min(prices) for prices in zip(*lines)]


def line_by_size(unit: Fraction, offset: Fraction, capacity: int) -> list:
    """offset + size * unit for each size 0..capacity, by repeated addition
    (exact, and cheaper than one product per size)."""
    values = [offset]
    for _ in range(capacity):
        values.append(values[-1] + unit)
    return values


def envelope_argmin(state: EnvelopePriceState, i: int, k: Bundle) -> tuple:
    """All economies attaining the envelope minimum for (i, k), ties included."""
    prices = [(j, line_price(state, i, j, k)) for j in visible_economies(i, state.n)]
    best = min(price for _, price in prices)
    return tuple(j for j, price in prices if price == best)


def apply_over_demand_update(
    state: EnvelopePriceState, economies, kappa_min: dict, epsilon: Fraction
) -> EnvelopePriceState:
    """One ascent step on the given economies: raise each one's unit price by
    epsilon, and raise each agent's offset on economy l by
    epsilon * kappa_min[i] for every updated economy other than l."""
    return _apply_step(state, economies, kappa_min, epsilon)


def apply_under_demand_update(
    state: EnvelopePriceState, economies, kappa_max: dict, epsilon: Fraction
) -> EnvelopePriceState:
    """Mirror of the over-demand update with signs flipped (kappa_max driven)."""
    return _apply_step(state, economies, kappa_max, -epsilon)


def _apply_step(state, economies, kappa, step):
    """The m distinct economies' updates in one pass: offset (i, l) gains
    (m - [l updated]) * step * kappa[i], which is exactly what applying the
    single-economy updates one after another adds up to."""
    p = list(state.p)
    for j in economies:
        p[j] += step
    updated = set(economies)
    m = len(updated)
    alpha = dict(state.alpha)
    for i in range(1, state.n + 1):
        if not kappa[i]:
            continue
        shift = step * kappa[i]
        full, partial = m * shift, (m - 1) * shift
        for ell in visible_economies(i, state.n):
            increment = partial if ell in updated else full
            if increment:
                alpha[(i, ell)] += increment
    return EnvelopePriceState(n=state.n, p=tuple(p), alpha=alpha, delta=state.delta)


def offset_step_total(n: int, economies, kappa: dict, step: Fraction) -> Fraction:
    """What one _apply_step call adds to the sum of all n^2 offsets.  Agent i
    sees the m updated economies less its own marginal economy if that one is
    updated, so by _apply_step's increments its offsets gain
    step * kappa[i] * ((n - 1) * m + [i updated]) in total."""
    updated = set(economies)
    m = len(updated)
    return step * sum(kappa[i] * ((n - 1) * m + (i in updated)) for i in range(1, n + 1))


def dual_objective(K: int, utilities, p, offsets) -> Fraction:
    """The UCE dual objective: the sum over economies j of the members'
    utilities pi_i, K * p[j] and the members' offsets alpha[(i, j)].

    Every agent belongs to n of the n+1 economies, so its utility enters n
    times, and every offset (i, j) belongs to exactly one economy's sum.
    utilities holds each agent's pi, offsets every alpha (or terms with the
    same sum); callers pass the values their own clamps and normalization
    produce.
    """
    n = len(p) - 1
    return n * sum(utilities) + K * sum(p) + sum(offsets)


def state_to_dict(state: EnvelopePriceState) -> dict:
    """Trace serialization: p as a length n+1 array, alpha as n rows of n+1
    entries with null at the agent's own marginal economy."""
    from .model import format_rational

    rows = []
    for i in range(1, state.n + 1):
        row = []
        for j in range(0, state.n + 1):
            row.append(None if j == i else format_rational(state.alpha[(i, j)]))
        rows.append(row)
    return {
        "p": [format_rational(q) for q in state.p],
        "alpha": rows,
        "delta": format_rational(state.delta),
    }
