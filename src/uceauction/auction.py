"""Iterative auction engines and outcome computation.

Three engines share the instance format: the envelope-price engine (single
price path, computes VCG payments), a uniform-price benchmark (no payments),
and a parallel benchmark running one uniform-price auction per economy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .demand import (
    BALANCED,
    DEFAULT_ENUMERATION_BOUND,
    OVER_DEMAND,
    UNDER_DEMAND,
    demand_at_linear_price,
    demand_set,
    diagnose,
    kappa_sums,
)
from .model import (
    Bundle,
    Instance,
    ZERO_BUNDLE,
    economy_members,
    format_rational,
    visible_economies,
)
from .pricing import (
    EnvelopePriceState,
    apply_over_demand_update,
    apply_under_demand_update,
    initial_state,
    rho,
    uce_dual_objective,
)

ZERO = Fraction(0)


class RoundLimitExceeded(RuntimeError):
    """The engine did not terminate within the round cap.

    `trace` holds the records of every completed round, in the engine's own
    record schema, with no outcome.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class NoFeasibleSelection(RuntimeError):
    """No unit removal stays within demand sets; balance was violated upstream."""


@dataclass
class AuctionOutcome:
    allocation: dict  # agent -> Bundle
    payments: dict | None
    final_state: EnvelopePriceState | None
    rounds: int
    queries: int
    cleared_round: dict  # economy -> round index of first (current) balance
    details: dict = field(default_factory=dict)


@dataclass
class AuctionTrace:
    records: list = field(default_factory=list)
    outcome: AuctionOutcome | None = None


def default_round_cap(instance: Instance) -> int:
    span = max(instance.max_adjusted_value(), instance.p_init)
    steps = span / instance.epsilon
    return (instance.n + 1) * instance.K * (int(steps) + 1) + 16


def _dual_objective_from_reports(instance, state, reports) -> Fraction:
    """UCE dual objective of the normalized state, with pi at its minimal
    feasible level.

    Normalizing agent i shifts its offsets down by m_i = min_j alpha and its
    utilities up by m_i, so the normalized objective equals the raw sum with
    pi taken as the (possibly negative) raw max utility, unclamped.  After
    normalization the zero bundle costs 0, so pi >= 0 holds automatically.
    """
    n = instance.n
    total = ZERO
    for j in range(0, n + 1):
        members = economy_members(j, n)
        total += sum((reports[i].max_utility for i in members), ZERO)
        total += instance.K * state.p[j]
        total += sum((state.alpha[(i, j)] for i in members), ZERO)
    return total


def _settled(diag: str, price: Fraction) -> bool:
    # Under-demand at a zero unit price is a valid resting point: the price
    # cannot descend further without leaving the dual's feasible region.
    return diag == BALANCED or (diag == UNDER_DEMAND and price == 0)


def _report_row(reports):
    return {
        i: {
            "kappa_min": r.kappa_min,
            "kappa_max": r.kappa_max,
            "max_utility": format_rational(r.max_utility),
            "maximizer_extremes": [list(k) for k in (r.maximizers[:1] + r.maximizers[-1:])],
        }
        for i, r in sorted(reports.items())
    }


def run_uce_auction(
    instance: Instance,
    round_cap: int | None = None,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
):
    """Run the envelope-price auction; returns (AuctionOutcome, AuctionTrace).

    Each round broadcasts envelope prices, collects one demand report per
    agent, tests every economy's balance condition, and either terminates
    (certification, allocation + payments) or applies price updates.
    update_mode "single" updates one imbalanced economy per round (lowest
    index, over-demand first); "batch" updates all over-demanded economies
    (or, if none, all under-demanded ones), composing the offset increments
    additively.
    """
    n = instance.n
    cap = round_cap if round_cap is not None else default_round_cap(instance)
    state = initial_state(n, instance.p_init, instance.delta)
    trace = AuctionTrace()
    cleared_round: dict = {}
    settled_now: set = set()
    rounds = 0
    queries = 0

    while rounds < cap:
        rounds += 1
        reports = {
            i: demand_set(instance.valuation(i), state, i, enumeration_bound)
            for i in range(1, n + 1)
        }
        queries += n
        diagnosis = {j: diagnose(reports, instance.K, j, n) for j in range(0, n + 1)}
        for j in range(0, n + 1):
            if _settled(diagnosis[j], state.p[j]):
                if j not in settled_now:
                    cleared_round[j] = rounds
                    settled_now.add(j)
            else:
                settled_now.discard(j)

        record = {
            "round": rounds,
            "p": [format_rational(q) for q in state.p],
            "alpha": {
                "%d,%d" % key: format_rational(val) for key, val in sorted(state.alpha.items())
            },
            "reports": _report_row(reports),
            "kappa_sums": {j: kappa_sums(reports, j, n) for j in range(0, n + 1)},
            "diagnosis": dict(diagnosis),
            "dual_objective": format_rational(
                _dual_objective_from_reports(instance, state, reports)
            ),
            "updates": [],
        }
        trace.records.append(record)

        if all(_settled(diagnosis[j], state.p[j]) for j in range(0, n + 1)):
            tables = terminal_tables(instance, state)
            witness = tables.failures()
            if witness:
                # Balance tests can accept prices at which some economy
                # still has no supported allocation (demanded sizes need
                # not span a contiguous range).  Take one exact descent
                # step and keep going.
                witness = {
                    j: {key: format_rational(q) for key, q in w.items()}
                    for j, w in witness.items()
                }
                refined = _refine_state(instance, state)
                if refined is None:
                    raise oracle.NotUniversal(
                        "final prices fail CE certification and no"
                        " improving direction exists: %s" % witness
                    )
                state = refined
                record["witness"] = witness
                for j in range(0, n + 1):
                    record["updates"].append({"economy": j, "direction": "refine"})
                continue
            allocation = final_allocation(
                reports,
                instance.K,
                {i: instance.valuation(i) for i in range(1, n + 1)},
                lambda i, k: instance.valuation(i).value(k) - rho(state, i, k),
                value_fn=instance.adjusted_value,
            )
            payments = vcg_payments(tables, allocation)
            outcome = AuctionOutcome(
                allocation=allocation,
                payments=payments,
                final_state=state,
                rounds=rounds,
                queries=queries,
                cleared_round=dict(cleared_round),
            )
            trace.outcome = outcome
            return outcome, trace

        over = [j for j in range(0, n + 1) if diagnosis[j] == OVER_DEMAND]
        under = [
            j
            for j in range(0, n + 1)
            if diagnosis[j] == UNDER_DEMAND and state.p[j] > 0
        ]
        if instance.update_mode == "single":
            targets = [(over[0], OVER_DEMAND)] if over else [(under[0], UNDER_DEMAND)]
        else:
            # Over-demand updates take the round; under-demand waits, keeping
            # each round a pure ascent or descent step.
            targets = [(j, OVER_DEMAND) for j in over] or [(j, UNDER_DEMAND) for j in under]
        kappa_min = {i: reports[i].kappa_min for i in range(1, n + 1)}
        kappa_max = {i: reports[i].kappa_max for i in range(1, n + 1)}
        for j, kind in targets:
            if kind == OVER_DEMAND:
                state = apply_over_demand_update(state, j, kappa_min, instance.epsilon)
            else:
                state = apply_under_demand_update(state, j, kappa_max, instance.epsilon)
            record["updates"].append({"economy": j, "direction": kind})

    raise RoundLimitExceeded("no termination within %d rounds" % cap, trace)


def _uniform_clearing_price(instance, economy):
    """Market-clearing uniform unit price of one economy, in adjusted terms.

    Pools every member's per-unit marginal values (differences of the best
    adjusted value per bundle size, which is concave for the supported
    valuation families) and prices the supply at the (K+1)-th highest
    marginal, clamped at zero.  At that price at most K units are strictly
    profitable and at least K are weakly profitable, so demand brackets the
    supply; below the clamp the price floor binds instead.
    """
    pool = []
    for i in economy_members(economy, instance.n):
        best = _best_value_by_size(instance, i)
        for size in range(1, len(best)):
            pool.append(best[size] - best[size - 1])
    pool.sort(reverse=True)
    if len(pool) <= instance.K:
        return ZERO
    return max(pool[instance.K], ZERO)


def _refine_state(instance, state):
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
    i's utility at the uniform price.  Every agent is then indifferent across
    its price lines, each economy's clearing allocation stays demanded under
    the envelope, and the objective telescopes to the sum of the per-economy
    optima, so the state is optimal.  Returns the new state, or None when the
    current state already achieves that value.
    """
    n = instance.n
    p = [_uniform_clearing_price(instance, j) for j in range(0, n + 1)]
    alpha = {}
    for i in range(1, n + 1):
        v = instance.valuation(i)
        utility = {
            j: max(instance.adjusted_value(i, k) - k.size * p[j] for k in v.bundles())
            for j in range(0, n + 1)
            if j != i
        }
        floor = min(utility.values())
        for j, u in utility.items():
            alpha[(i, j)] = u - floor
    refined = state.replace(p=tuple(p), alpha=alpha)
    if uce_dual_objective(instance, refined) >= uce_dual_objective(instance, state):
        return None
    return refined


def final_allocation(reports, K, valuations, utility_fn, value_fn=None):
    """Select a supported allocation once the main economy balances.

    With exhaustive demand reports and a value function, picks the exact
    value-maximizing combination of one demanded bundle per agent within the
    supply.  At supporting prices value splits into constant utility plus
    price, so this choice is simultaneously efficient and revenue-maximal;
    greedier unit-removal schemes can land on a demanded but revenue-deficient
    tuple.  Without a value function (or with truncated reports), falls back
    to removing units one at a time from the largest demanded bundles,
    preferring strong units, keeping every intermediate bundle demanded.
    """
    if value_fn is not None and all(r.exhaustive for r in reports.values()):
        return _demanded_tuple_optimum(reports, K, value_fn)
    allocation = {i: reports[i].largest_bundle() for i in reports}

    def demanded(i, k):
        return valuations[i].contains(k) and utility_fn(i, k) == reports[i].max_utility

    total = sum(k.size for k in allocation.values())
    while total > K:
        removed = False
        for i in sorted(allocation):
            k = allocation[i]
            if k.size == 0:
                continue
            candidates = []
            if k.ks > 0:
                candidates.append(Bundle(k.kw, k.ks - 1))
            if k.kw > 0:
                candidates.append(Bundle(k.kw - 1, k.ks))
            for cand in candidates:
                if demanded(i, cand):
                    allocation[i] = cand
                    removed = True
                    break
            if removed:
                break
        if not removed:
            return _demanded_tuple_optimum(reports, K, value_fn)
        total -= 1
    return allocation


def _demanded_tuple_optimum(reports, K, value_fn):
    """One demanded bundle per agent, total size <= K, maximizing total value
    (ties: larger total size, then earlier agents with larger bundles)."""
    if value_fn is None:
        raise NoFeasibleSelection(
            "cannot reduce allocation to %d units within demand sets" % K
        )
    agents = sorted(reports)
    # best[u] = (value, size, choices) over the agents processed so far using
    # exactly u units; kappa_min choices guarantee feasibility at balance.
    best = {0: (ZERO, ())}
    for i in agents:
        options = sorted(
            set(reports[i].maximizers), key=lambda k: (k.size, k.ks, k.kw), reverse=True
        )
        new = {}
        for used, (value, chosen) in best.items():
            for k in options:
                u = used + k.size
                if u > K:
                    continue
                cand = (value + value_fn(i, k), chosen + (k,))
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


def _best_value_by_size(instance, i):
    """Agent i's best adjusted value of a bundle of each size 0..capacity."""
    best = [None] * (instance.valuation(i).capacity + 1)
    for k in instance.valuation(i).bundles():
        value = instance.adjusted_value(i, k)
        if best[k.size] is None or value > best[k.size]:
            best[k.size] = value
    return best


def _envelope_price_by_size(state, i, capacity):
    """Agent i's adjusted envelope price of a bundle of each size 0..capacity.

    The strong-unit bias cancels in the adjusted price, min over j of
    |k|*p[j] + alpha[(i, j)], so the price depends on the size alone.
    """
    lines = [(state.p[j], state.alpha[(i, j)]) for j in visible_economies(i, state.n)]
    return [min(size * p + a for p, a in lines) for size in range(capacity + 1)]


def _merge(table, gains, K):
    """(max,+) merge of an "at most u units" table with one more agent, who
    takes exactly one size s (zero included) and gains gains[s]."""
    top = len(gains) - 1
    return [
        max(table[u - s] + gains[s] for s in range(min(u, top) + 1))
        for u in range(K + 1)
    ]


def _economy_optima(per_agent, K):
    """Optimum of sum_i per_agent[i][s_i] over sizes with sum s_i <= K, for
    the main economy (index 0) and every marginal economy i (agent i out).

    Prefix and suffix group-knapsack tables over the agents are built once;
    economy i joins prefix i-1 and suffix i+1 in one O(K) pass.
    """
    n = len(per_agent)
    prefix = [[ZERO] * (K + 1)]
    for i in range(1, n + 1):
        prefix.append(_merge(prefix[-1], per_agent[i], K))
    suffix = [[ZERO] * (K + 1)]
    for i in range(n, 0, -1):
        suffix.append(_merge(suffix[-1], per_agent[i], K))
    suffix.reverse()  # suffix[t] covers agents t+1..n
    optima = [prefix[n][K]]
    for i in range(1, n + 1):
        before, after = prefix[i - 1], suffix[i]
        optima.append(max(before[u] + after[K - u] for u in range(K + 1)))
    return optima


@dataclass(frozen=True)
class TerminalTables:
    """Exact per-economy optima at one price state, all from size tables.

    prices[i][s] is agent i's adjusted envelope price of a size-s bundle;
    welfare[j], revenue[j] and utility_sum[j] are economy j's efficient
    value, revenue optimum and the sum of its members' indirect utilities.
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


def terminal_tables(instance, state) -> TerminalTables:
    """Certification and payment data for every economy at one price state,
    in O(n*K*gamma) exact steps (gamma: the largest agent capacity)."""
    n = instance.n
    values, prices, utility = {}, {}, {}
    for i in range(1, n + 1):
        values[i] = _best_value_by_size(instance, i)
        prices[i] = _envelope_price_by_size(state, i, len(values[i]) - 1)
        utility[i] = max(v - p for v, p in zip(values[i], prices[i]))
    total = sum(utility.values(), ZERO)
    return TerminalTables(
        prices=prices,
        welfare=_economy_optima(values, instance.K),
        revenue=_economy_optima(prices, instance.K),
        utility_sum=[total] + [total - utility[i] for i in range(1, n + 1)],
    )


def vcg_payments(tables: TerminalTables, allocation):
    """VCG payments from certified prices: for each agent, the revenue optimum
    of its marginal economy minus the revenue the others generate under the
    final allocation."""
    revenue = {i: tables.prices[i][allocation[i].size] for i in tables.prices}
    total = sum(revenue.values(), ZERO)
    return {i: tables.revenue[i] - (total - revenue[i]) for i in tables.prices}


def _run_linear(instance, members, round_cap, enumeration_bound):
    """Uniform-price loop on a subset of agents; returns per-run summary."""
    p = instance.p_init
    rounds = 0
    queries = 0
    rows = []
    while rounds < round_cap:
        rounds += 1
        queries += len(members)
        reports = {
            i: demand_at_linear_price(
                instance.valuation(i), i, p, instance.delta, enumeration_bound
            )
            for i in members
        }
        low = sum(r.kappa_min for r in reports.values())
        high = sum(r.kappa_max for r in reports.values())
        if low > instance.K:
            diag = OVER_DEMAND
        elif high < instance.K:
            diag = UNDER_DEMAND
        else:
            diag = BALANCED
        rows.append(
            {
                "round": rounds,
                "p": format_rational(p),
                "sum_kappa_min": low,
                "sum_kappa_max": high,
                "diagnosis": diag,
            }
        )
        if _settled(diag, p):
            allocation = final_allocation(
                reports,
                instance.K,
                {i: instance.valuation(i) for i in members},
                lambda i, k: instance.valuation(i).value(k)
                - (k.kw * p + k.ks * (p + instance.delta)),
                value_fn=instance.adjusted_value,
            )
            return {
                "allocation": allocation,
                "clearing_price": p,
                "rounds": rounds,
                "queries": queries,
                "rows": rows,
            }
        p = p + instance.epsilon if diag == OVER_DEMAND else p - instance.epsilon
    raise RoundLimitExceeded(
        "linear auction: no termination within %d rounds" % round_cap,
        AuctionTrace(records=rows),
    )


def run_linear_auction(
    instance: Instance,
    round_cap: int | None = None,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
):
    """Uniform-price benchmark on the main economy; elicits no payment data."""
    cap = round_cap if round_cap is not None else default_round_cap(instance)
    try:
        run = _run_linear(instance, economy_members(0, instance.n), cap, enumeration_bound)
    except RoundLimitExceeded as exc:
        exc.trace.records = [dict(row, economy=0) for row in exc.trace.records]
        raise
    outcome = AuctionOutcome(
        allocation=run["allocation"],
        payments=None,
        final_state=None,
        rounds=run["rounds"],
        queries=run["queries"],
        cleared_round={0: run["rounds"]},
        details={"clearing_price": format_rational(run["clearing_price"])},
    )
    trace = AuctionTrace(records=[dict(row, economy=0) for row in run["rows"]], outcome=outcome)
    return outcome, trace


def _parallel_records(rows_by_economy):
    """One record per round, holding the row of every sub-auction still open."""
    rounds = max((len(rows) for rows in rows_by_economy.values()), default=0)
    return [
        {
            "round": r,
            "economies": {
                j: rows[r - 1] for j, rows in rows_by_economy.items() if r <= len(rows)
            },
        }
        for r in range(1, rounds + 1)
    ]


def run_parallel_auction(
    instance: Instance,
    round_cap: int | None = None,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
):
    """n+1 independent uniform-price auctions, one per economy.

    Rounds are the maximum across the parallel runs; queries are summed.
    Payments come from comparing the main and marginal clearing outcomes.
    """
    cap = round_cap if round_cap is not None else default_round_cap(instance)
    runs = {}
    for j in range(0, instance.n + 1):
        try:
            runs[j] = _run_linear(instance, economy_members(j, instance.n), cap, enumeration_bound)
        except RoundLimitExceeded as exc:
            # Economies after j never started; the trace ends with j's rows.
            rows = {ell: run["rows"] for ell, run in runs.items()}
            rows[j] = exc.trace.records
            exc.trace.records = _parallel_records(rows)
            raise

    welfare = {
        j: sum(
            (instance.adjusted_value(i, runs[j]["allocation"].get(i, ZERO_BUNDLE)) for i in economy_members(j, instance.n)),
            ZERO,
        )
        for j in range(0, instance.n + 1)
    }
    main_alloc = runs[0]["allocation"]
    payments = {
        i: instance.adjusted_value(i, main_alloc.get(i, ZERO_BUNDLE)) - (welfare[0] - welfare[i])
        for i in range(1, instance.n + 1)
    }
    rounds = max(run["rounds"] for run in runs.values())
    queries = sum(run["queries"] for run in runs.values())
    records = _parallel_records({j: run["rows"] for j, run in runs.items()})

    outcome = AuctionOutcome(
        allocation=main_alloc,
        payments=payments,
        final_state=None,
        rounds=rounds,
        queries=queries,
        cleared_round={j: run["rounds"] for j, run in runs.items()},
        details={
            "clearing_prices": {
                j: format_rational(run["clearing_price"]) for j, run in runs.items()
            },
            "rounds_per_economy": {j: run["rounds"] for j, run in runs.items()},
        },
    )
    return outcome, AuctionTrace(records=records, outcome=outcome)
