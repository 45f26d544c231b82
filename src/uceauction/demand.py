"""Agent-side demand oracle under envelope or linear prices.

Every price the engines quote is a per-size price plus delta per strong unit,
so in bias-adjusted terms an agent's utility for a bundle k is its adjusted
value minus a price that depends on |k| alone.  An envelope price is the
minimum of the agent's affine price lines, offset + size * p, one per economy
it sees, and its best adjusted value per size (in closed form per valuation
family) is concave in the size.  So on each line the utility peaks on an
interval of sizes read off the agent's ascending adjusted marginals with two
bisections: those strictly above p are bought, those equal to p optional.
The agent's max utility is the best line maximum, its demanded sizes are the
union of the optimal lines' intervals, and its maximizers are the bundles of
those sizes that attain the best value.  A linear price is the single line
(p, 0).  Ties are resolved by exact rational equality only; there is no
tolerance parameter anywhere.  Every function computes in the exact numbers
it is given: Fractions in real units, or the engines' integer multiples of
epsilon.
"""
from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .model import Bundle, MultiUnitValuation, Valuation, visible_economies
from .pricing import EnvelopePriceState, envelope_price_by_size
from .records import record

log = logging.getLogger(__name__)

BALANCED = "balanced"
OVER_DEMAND = "over"
UNDER_DEMAND = "under"

# Maximizer faces: which bundles of a demanded size attain its best value.
STRONG_RAY = "strong"
WEAK_RAY = "weak"
EVERY_SPLIT = "split"

# Multi-unit maximizer-size contiguity is verified, not assumed; violations
# are recorded here (and logged) instead of silently accepted.
contiguity_counterexamples = []


@record(frozen=True)
class DemandReport:
    agent: int
    max_utility: Fraction
    kappa_min: int
    kappa_max: int
    maximizers: tuple  # every utility-maximizing bundle, in (kw, ks) order


def maximizer_face(valuation: Valuation, delta: Fraction = 0) -> str:
    """Which bundles of a size attain its best bias-adjusted value: only the
    pure-strong one (multi-unit bidders, bidders without weak units, and
    v_s - delta > v_w), only the pure-weak one (v_s - delta < v_w), or on the
    tie every split.  Fixed for a run, so the engines compute it once."""
    if isinstance(valuation, MultiUnitValuation) or valuation.v_w == 0:
        return STRONG_RAY
    strong = valuation.v_s - delta
    if strong > valuation.v_w:
        return STRONG_RAY
    if strong < valuation.v_w:
        return WEAK_RAY
    return EVERY_SPLIT


def best_value_by_size(valuation: Valuation, delta: Fraction = 0) -> list:
    """Best bias-adjusted value of a bundle of each size 0..capacity.

    Multi-unit: prefix sums of the marginals, less delta per unit.
    Product-mix: every unit is worth the better of v_s - delta and v_w, or
    v_s - delta alone when weak units are outside the consumption set.
    """
    if isinstance(valuation, MultiUnitValuation):
        values = [0]
        for m in valuation.marginals[: valuation.capacity]:
            values.append(values[-1] + m - delta)
        return values
    unit = valuation.v_s - delta
    if valuation.v_w > 0 and valuation.v_w > unit:
        unit = valuation.v_w
    return [s * unit for s in range(valuation.gamma + 1)]


def _maximizers(face: str, sizes: list) -> tuple:
    """The bundles of the demanded sizes on the agent's maximizer face,
    sorted."""
    if face == STRONG_RAY:
        return tuple([Bundle(0, s) for s in sizes])
    if face == WEAK_RAY:
        return tuple([Bundle(s, 0) for s in sizes])
    return tuple(sorted(Bundle(s - ks, ks) for s in sizes for ks in range(s + 1)))


def _report(valuation, agent, best, sizes, face, delta) -> DemandReport:
    """The report of demanded sizes, ascending, and their best utility."""
    if face is None:
        face = maximizer_face(valuation, delta)
    return DemandReport(
        agent=agent,
        max_utility=best,
        kappa_min=sizes[0],
        kappa_max=sizes[-1],
        maximizers=_maximizers(face, sizes),
    )


def _check_contiguity(agent, sizes, valuation, prices, delta, unit):
    if all(b - a <= 1 for a, b in zip(sizes, sizes[1:])):
        return
    record = {
        "agent": agent,
        "sizes": list(sizes),
        "marginals": [str(m) for m in valuation.marginals],
        # Quoted prices of the pure-strong bundles, bias included, in real
        # units.
        "prices": [str((price + s * delta) * unit) for s, price in enumerate(prices)],
    }
    contiguity_counterexamples.append(record)
    log.warning("multi-unit demand sizes not contiguous: %s", record)


def demand_from_size_tables(
    valuation: Valuation,
    agent: int,
    values: list,
    prices: list,
    delta: Fraction = 0,
    face: str | None = None,
    unit: Fraction = 1,
) -> DemandReport:
    """Demand report from the best adjusted value and the adjusted price of
    each size 0..capacity: the size-table reference for demand_set.

    delta is the strong-unit bias, which restores the quoted prices the
    contiguity monitor records.  face is the agent's maximizer_face at that
    bias (computed here when not given).  unit is the real value of one unit
    of the numbers given (1 for real-unit Fractions), so the contiguity
    record is written in real units.
    """
    utilities = [v - p for v, p in zip(values, prices)]
    best = max(utilities)
    sizes = [s for s, u in enumerate(utilities) if u == best]
    if isinstance(valuation, MultiUnitValuation):
        _check_contiguity(agent, sizes, valuation, prices, delta, unit)
    return _report(valuation, agent, best, sizes, face, delta)


def rising_marginals(values: list) -> list:
    """The adjusted marginals values[s] - values[s-1] of one best-value
    table, ascending; non-increasing in s, so this is the table's marginals
    reversed."""
    return sorted([b - a for a, b in zip(values, values[1:])])


def line_maxima(lines, values: list, rising: list) -> list:
    """(low, maximum) on each price line (p, offset): the utility
    values[s] - s*p - offset is concave in s and peaks exactly on the sizes
    from low, the count of the agent's marginals above p, to the count of
    those at least p."""
    count = len(rising)
    maxima = []
    for p, offset in lines:
        low = count - bisect_right(rising, p)
        maxima.append((low, values[low] - low * p - offset))
    return maxima


def line_demand(lines: list, values: list, rising: list) -> tuple:
    """(max utility, demanded sizes ascending) against the minimum of price
    lines, given as (unit price, offset) pairs: the best line maximum, and
    the union of the optimal lines' intervals."""
    maxima = line_maxima(lines, values, rising)
    best = max(u for _, u in maxima)
    count = len(rising)
    spans = sorted({
        (low, count - bisect_left(rising, p))
        for (p, _), (low, u) in zip(lines, maxima)
        if u == best
    })
    sizes = []
    for low, high in spans:
        sizes.extend(range(max(low, sizes[-1] + 1) if sizes else low, high + 1))
    return best, sizes


def demand_set(
    valuation: Valuation,
    state: EnvelopePriceState,
    agent: int,
    values: list | None = None,
    face: str | None = None,
    unit: Fraction = 1,
    rising: list | None = None,
) -> DemandReport:
    """Demand report of one agent against the current envelope prices.

    values is the agent's best_value_by_size table at the state's delta,
    face its maximizer_face and rising its rising_marginals, in the state's
    units; engines build all three once per run and pass them in, with the
    real value of their unit.  The per-size envelope price is built only
    for the contiguity monitor's record, when a multi-unit agent's demanded
    sizes have a gap.
    """
    if values is None:
        values = best_value_by_size(valuation, state.delta)
    if rising is None:
        rising = rising_marginals(values)
    p, alpha = state.p, state.alpha
    best, sizes = line_demand(
        [(p[j], alpha[(agent, j)]) for j in visible_economies(agent, state.n)], values, rising
    )
    if isinstance(valuation, MultiUnitValuation) and sizes[-1] - sizes[0] >= len(sizes):
        prices = envelope_price_by_size(state, agent, valuation.capacity)
        _check_contiguity(agent, sizes, valuation, prices, state.delta, unit)
    return _report(valuation, agent, best, sizes, face, state.delta)


def demand_at_linear_price(
    valuation: Valuation,
    agent: int,
    p: Fraction,
    delta: Fraction,
    values: list | None = None,
    face: str | None = None,
    unit: Fraction = 1,
    rising: list | None = None,
) -> DemandReport:
    """Demand report at uniform prices: p per weak unit, p + delta per strong
    unit, which is the single line (p, 0) in adjusted terms.  values, face,
    unit and rising are as for demand_set; one line's sizes have no gap."""
    if values is None:
        values = best_value_by_size(valuation, delta)
    if rising is None:
        rising = rising_marginals(values)
    best, sizes = line_demand([(p, 0)], values, rising)
    return _report(valuation, agent, best, sizes, face, delta)


def economy_kappa_sums(reports: dict) -> dict:
    """(sum of kappa_min, sum of kappa_max) of every economy, in one pass:
    economy 0 sums every report, and economy j >= 1 is that total less agent
    j's report.  Keys are 0 followed by the agents, in the order of reports."""
    low = sum(r.kappa_min for r in reports.values())
    high = sum(r.kappa_max for r in reports.values())
    sums = {0: (low, high)}
    for i, r in reports.items():
        sums[i] = (low - r.kappa_min, high - r.kappa_max)
    return sums


def diagnose(low: int, high: int, K: int) -> str:
    """Balance test of one economy from its members' kappa sums: over-demanded
    when even the smallest demanded sizes exceed the supply, under-demanded
    when even the largest fall short of it."""
    if low > K:
        return OVER_DEMAND
    if high < K:
        return UNDER_DEMAND
    return BALANCED
