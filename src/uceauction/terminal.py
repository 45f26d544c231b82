"""Terminal phase of the envelope-price engine, and the size-table optima
the uniform-price clocks share.

Once every economy passes its balance test, the engine certifies the prices
from per-size tables (terminal_tables), selects a supported allocation
(final_allocation) and reads the VCG payments off the same tables
(vcg_payments), or repairs a state the tests accept but that supports no
equilibrium (refine_state).  Every table is concave in the size, so every
"best K units" question is a count or a slice of the sorted marginals
(marginal_pool).
"""
from __future__ import annotations

from bisect import bisect_right

from .model import economy_members
from .pricing import dual_objective, envelope_price_by_size
from .records import record


class NoFeasibleSelection(RuntimeError):
    """No combination of demanded bundles fits the supply; balance was
    violated upstream."""


def marginal_pool(tables, members) -> list:
    """The members' adjusted marginals t[s] - t[s-1], repeats kept, sorted
    ascending; tables maps each agent to a table over sizes 0..capacity.

    Every table the engines build is concave in the size: best adjusted
    values are prefix sums of non-increasing marginals (multi-unit) or linear
    (product-mix), and envelope prices are a minimum of lines.  So an agent
    facing unit price p demands exactly its sizes up to its count of
    marginals above p, and at its discretion those equal to p, and the best
    "at most K units" total of an economy takes its K largest positive
    marginals: every such question is a count or a slice of this list.
    """
    return sorted([b - a for i in members for a, b in zip(tables[i], tables[i][1:])])


def _economy_optimum(tables, members, K):
    """Max of sum_i tables[i][s_i] over the members' sizes with sum s_i <= K:
    the size-0 entries plus the K largest positive marginals."""
    pool = marginal_pool(tables, members)
    start = max(len(pool) - K, bisect_right(pool, 0))
    return sum(tables[i][0] for i in members) + sum(pool[start:])


def _uniform_clearing_price(instance, economy, values):
    """Market-clearing uniform unit price of one economy, in adjusted terms.

    Prices the supply at the (K+1)-th highest of the members' marginal
    values, clamped at zero.  At that price at most K units are strictly
    profitable and at least K are weakly profitable, so demand brackets the
    supply; below the clamp the price floor binds instead.
    """
    pool = marginal_pool(values, economy_members(economy, instance.n))
    if len(pool) <= instance.K:
        return 0
    return max(pool[-instance.K - 1], 0)


def refine_state(instance, state, values, reports):
    """Exact repair step for a state every balance test accepts but that
    supports no competitive equilibrium in some economy.

    Envelope prices are concave in the bundle, so utilities are convex and
    demand sets collect extreme points: the demanded sizes need not form a
    contiguous range, and the interval test between their sums can pass while
    the supply itself is unreachable.  The epsilon updates have no target
    left at such a state, so finish the descent in one move, to an optimum of
    the price program built from per-economy clearing prices.  Take p[j] as a
    uniform clearing price of economy j and set each offset to
    u_i(p[j]) - min over visible economies of u_i(p[j']), where u_i is agent
    i's utility at the uniform price, the max over sizes s of
    values[i][s] - s*p[j].  Every agent is then indifferent across its price
    lines, each economy's clearing allocation stays demanded under the
    envelope, and the objective telescopes to the sum of the per-economy
    optima, so the state is optimal.  Returns the new state, or None when the
    current state already achieves that value.

    reports are the demand reports at the current state; both objectives
    take pi at its minimal feasible level, max(u_i, 0).  At the new state
    agent i is indifferent across its lines, so its utility there is floor,
    which is never negative: the empty bundle is worth 0 at any price.
    """
    n = instance.n
    p = [_uniform_clearing_price(instance, j, values) for j in range(0, n + 1)]
    alpha, floors = {}, []
    for i in range(1, n + 1):
        utility = {
            j: max(value - size * p[j] for size, value in enumerate(values[i]))
            for j in range(0, n + 1)
            if j != i
        }
        floor = min(utility.values())
        floors.append(floor)
        for j, u in utility.items():
            alpha[(i, j)] = u - floor
    pi = [max(r.max_utility, 0) for r in reports.values()]
    current = dual_objective(instance.K, pi, state.p, state.alpha.values())
    if dual_objective(instance.K, floors, p, alpha.values()) >= current:
        return None
    return state.replace(p=tuple(p), alpha=alpha)


def final_allocation(reports, K, values):
    """Select a supported allocation once the main economy balances: one
    demanded bundle per agent, total size <= K, maximizing total value (ties:
    larger total size, then earlier agents with larger bundles).

    values are the run's value tables.  Every demanded bundle of one size
    attains the best adjusted value of that size, values[i][size], so each
    demanded size stands for its first maximizer, the one with the most
    strong units.  At supporting prices value splits into constant utility
    plus price, so this choice is simultaneously efficient and
    revenue-maximal; greedier unit-removal schemes can land on a demanded
    but revenue-deficient tuple.
    """
    agents = sorted(reports)
    # best[u] = (value, choices) over the agents processed so far using
    # exactly u units; kappa_min choices guarantee feasibility at balance.
    best = {0: (0, ())}
    for i in agents:
        first = {}
        for k in reports[i].maximizers:
            first.setdefault(k.size, k)
        options = [(first[size], values[i][size]) for size in sorted(first, reverse=True)]
        new = {}
        for used, (value, chosen) in best.items():
            for k, gain in options:
                u = used + k.size
                if u > K:
                    continue
                cand = (value + gain, chosen + (k,))
                if u not in new or cand[0] > new[u][0]:
                    new[u] = cand
        best = new
        if not best:
            raise NoFeasibleSelection(
                "no combination of demanded bundles fits in %d units" % K
            )
    _, _, chosen = max(
        ((value, used, chosen) for used, (value, chosen) in best.items()),
        key=lambda t: (t[0], t[1]),
    )
    return dict(zip(agents, chosen))


@record(frozen=True)
class TerminalTables:
    """Exact per-economy optima at one price state, all from size tables.

    prices[i][s] is agent i's adjusted envelope price of a size-s bundle;
    welfare[j], revenue[j] and utility_sum[j] are economy j's efficient
    value, revenue optimum and the sum of its members' indirect utilities,
    all in the units of the state and values they were computed from.
    """

    prices: dict
    welfare: list
    revenue: list
    utility_sum: list

    def failures(self) -> dict:
        """Witnesses of the economies these prices do not support.

        Every feasible allocation has welfare = utility + revenue <= the
        utility sum plus the revenue optimum, with equality exactly when every
        bundle is demanded and the allocation maximizes revenue.  So economy
        j is supported iff welfare[j] == utility_sum[j] + revenue[j], for any
        choice of efficient allocation.
        """
        return {
            j: {
                "welfare": self.welfare[j],
                "utility_sum": self.utility_sum[j],
                "revenue": self.revenue[j],
            }
            for j in range(len(self.welfare))
            if self.welfare[j] != self.utility_sum[j] + self.revenue[j]
        }


def terminal_tables(instance, state, values) -> TerminalTables:
    """Certification and payment data for every economy at one price state.
    values are the agents' best value tables in the state's units: the run's
    value_tables(instance) for a state in epsilon units.  Each economy's
    welfare and revenue optimum is read off the sorted marginals of its
    members' value and price tables (marginal_pool).
    """
    n, K = instance.n, instance.K
    prices, utility = {}, {}
    for i in range(1, n + 1):
        prices[i] = envelope_price_by_size(state, i, len(values[i]) - 1)
        utility[i] = max(v - p for v, p in zip(values[i], prices[i]))
    total = sum(utility.values())
    economies = [economy_members(j, n) for j in range(0, n + 1)]
    return TerminalTables(
        prices=prices,
        welfare=[_economy_optimum(values, members, K) for members in economies],
        revenue=[_economy_optimum(prices, members, K) for members in economies],
        utility_sum=[total] + [total - utility[i] for i in range(1, n + 1)],
    )


def vcg_payments(tables: TerminalTables, allocation):
    """VCG payments from certified prices: for each agent, the revenue optimum
    of its marginal economy minus the revenue the others generate under the
    final allocation."""
    revenue = {i: tables.prices[i][allocation[i].size] for i in tables.prices}
    total = sum(revenue.values())
    return {i: tables.revenue[i] - (total - revenue[i]) for i in tables.prices}
