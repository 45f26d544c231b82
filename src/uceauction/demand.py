"""Agent-side demand oracle under envelope or linear prices.

Every price the engines quote is a per-size price plus delta per strong unit,
so in bias-adjusted terms an agent's utility for a bundle k is its adjusted
value minus a price that depends on |k| alone.  Demand is therefore fixed by
two tables over sizes 0..capacity: the best adjusted value of each size (in
closed form per valuation family) and the per-size price.  The demanded sizes
are those where their difference peaks, and the maximizers are the bundles of
those sizes that attain the best value.  Ties are resolved by exact rational
equality only; there is no tolerance parameter anywhere.  Every function
computes in the exact numbers it is given: Fractions in real units, or the
engines' integer multiples of epsilon.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .model import Bundle, MultiUnitValuation, Valuation
from .pricing import EnvelopePriceState, envelope_price_by_size, line_by_size

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


@dataclass(frozen=True)
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
    each size 0..capacity.

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
    if face is None:
        face = maximizer_face(valuation, delta)
    return DemandReport(
        agent=agent,
        max_utility=best,
        kappa_min=sizes[0],
        kappa_max=sizes[-1],
        maximizers=_maximizers(face, sizes),
    )


def demand_set(
    valuation: Valuation,
    state: EnvelopePriceState,
    agent: int,
    values: list | None = None,
    face: str | None = None,
    unit: Fraction = 1,
) -> DemandReport:
    """Demand report of one agent against the current envelope prices.

    values is the agent's best_value_by_size table at the state's delta and
    face its maximizer_face, in the state's units; engines build both once
    per run and pass them in, with the real value of their unit.
    """
    if values is None:
        values = best_value_by_size(valuation, state.delta)
    prices = envelope_price_by_size(state, agent, valuation.capacity)
    return demand_from_size_tables(valuation, agent, values, prices, state.delta, face, unit)


def demand_at_linear_price(
    valuation: Valuation,
    agent: int,
    p: Fraction,
    delta: Fraction,
    values: list | None = None,
    face: str | None = None,
    unit: Fraction = 1,
) -> DemandReport:
    """Demand report at uniform prices: p per weak unit, p + delta per strong
    unit, which is s * p per size in adjusted terms.  values, face and unit
    are as for demand_set."""
    if values is None:
        values = best_value_by_size(valuation, delta)
    prices = line_by_size(p, 0, valuation.capacity)
    return demand_from_size_tables(valuation, agent, values, prices, delta, face, unit)


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
