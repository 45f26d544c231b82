"""Iterative auction engines and outcome computation.

Three engines share the instance format: the envelope-price engine (single
price path, computes VCG payments), a uniform-price benchmark (no payments),
and a parallel benchmark running one uniform-price auction per economy.

Every engine computes on the epsilon-lattice.  Values, delta and p_init are
whole multiples of epsilon (Instance.validate), clock prices move by epsilon
and offsets by epsilon times a unit count, so each run scales its numbers once
to Python ints in epsilon units (`lattice`) and turns them back into Fractions
only for its outcome and its records.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .demand import (
    BALANCED,
    OVER_DEMAND,
    UNDER_DEMAND,
    best_value_by_size,
    demand_at_linear_price,
    demand_set,
    diagnose,
    economy_kappa_sums,
    maximizer_face,
)
from .model import (
    Instance,
    NotUniversal,
    economy_members,
    lattice_formatter,
)
from .pricing import (
    EnvelopePriceState,
    apply_over_demand_update,
    apply_under_demand_update,
    dual_objective,
    envelope_price_by_size,
    initial_state,
    offset_step_total,
)


class RoundLimitExceeded(RuntimeError):
    """The engine did not terminate within the round cap.

    `trace` holds the records of every completed round, in the engine's own
    record schema, with no outcome.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class OffLattice(RuntimeError):
    """A value, delta or p_init of the instance is not a whole number of
    epsilon steps.  Instance.validate rules this out, so it is an invariant
    failure; the engines never round to the lattice."""


class NoFeasibleSelection(RuntimeError):
    """No combination of demanded bundles fits the supply; balance was
    violated upstream."""


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


def _steps(q, unit, label: str) -> int:
    """q as a whole number of unit steps; OffLattice when it is not one."""
    steps = q / unit
    if steps.denominator != 1:
        raise OffLattice(
            "%s = %s is not a whole number of epsilon = %s steps" % (label, q, unit)
        )
    return steps.numerator


def value_tables(instance: Instance) -> dict:
    """Every agent's best adjusted value per bundle size, in epsilon units,
    built once per run and shared by the demand queries and the terminal
    computations.  This is the engines' entry check: every value, delta and
    p_init must be a whole number of epsilon steps (OffLattice otherwise), so
    every entry, a sum of them, is an int."""
    unit = instance.epsilon
    for label, q in instance.lattice_numbers():
        _steps(q, unit, label)
    tables = {}
    for i in range(1, instance.n + 1):
        best = best_value_by_size(instance.valuation(i), instance.delta)
        tables[i] = [(v / unit).numerator for v in best]
    return tables


@dataclass(frozen=True)
class Lattice:
    """One run's numbers in epsilon units.

    unit is epsilon; delta and p_init are ints; values holds value_tables and
    faces each agent's maximizer_face, both fixed for the run.  fmt writes
    k units as format_rational(k * unit) would, memoized.
    """

    unit: Fraction
    delta: int
    p_init: int
    values: dict
    faces: dict
    fmt: object


def lattice(instance: Instance) -> Lattice:
    """The instance's numbers in epsilon units; OffLattice if one is not a
    whole number of steps."""
    unit = instance.epsilon
    values = value_tables(instance)  # the entry check
    return Lattice(
        unit=unit,
        delta=_steps(instance.delta, unit, "delta"),
        p_init=_steps(instance.p_init, unit, "p_init"),
        values=values,
        faces={
            i: maximizer_face(instance.valuation(i), instance.delta)
            for i in range(1, instance.n + 1)
        },
        fmt=lattice_formatter(unit),
    )


def _real_state(state: EnvelopePriceState, unit: Fraction) -> EnvelopePriceState:
    """A lattice price state in real units."""
    return EnvelopePriceState(
        n=state.n,
        p=tuple([q * unit for q in state.p]),
        alpha={key: q * unit for key, q in state.alpha.items()},
        delta=state.delta * unit,
    )


def default_round_cap(instance: Instance, lat: Lattice) -> int:
    """(n+1)*K rounds per epsilon-step spanning the start price and the
    highest adjusted bundle value, plus slack.  Each value table holds the
    empty bundle's 0."""
    best = max(max(table) for table in lat.values.values())
    return (instance.n + 1) * instance.K * (max(best, lat.p_init) + 1) + 16


def settled(diag: str, price: Fraction) -> bool:
    """Whether an economy with this diagnosis takes no step at this unit price.

    Under-demand at a zero unit price is a valid resting point: the price
    cannot descend further without leaving the dual's feasible region.
    """
    return diag == BALANCED or (diag == UNDER_DEMAND and price == 0)


def _report_row(reports, fmt):
    return {
        i: {
            "kappa_min": r.kappa_min,
            "kappa_max": r.kappa_max,
            "max_utility": fmt(r.max_utility),
            "maximizer_extremes": [list(k) for k in (r.maximizers[:1] + r.maximizers[-1:])],
        }
        for i, r in sorted(reports.items())
    }


def run_uce_auction(instance: Instance, round_cap: int | None = None):
    """Run the envelope-price auction; returns (AuctionOutcome, AuctionTrace).

    Each round broadcasts envelope prices, collects one demand report per
    agent, tests every economy's balance condition, and either terminates
    (certification, allocation + payments) or applies price updates.
    update_mode "single" updates one imbalanced economy per round (lowest
    index, over-demand first); "batch" updates all over-demanded economies
    (or, if none, all under-demanded ones).  Either way a round is one price
    step, applied by one update call that composes the economies' offset
    increments in a single pass.  The run computes in epsilon units.
    """
    n = instance.n
    lat = lattice(instance)
    values, faces, unit, fmt = lat.values, lat.faces, lat.unit, lat.fmt
    cap = round_cap if round_cap is not None else default_round_cap(instance, lat)
    state = initial_state(n, lat.p_init, lat.delta)
    # The record's offset keys, in order, and their labels.
    offset_keys = sorted(state.alpha)
    offset_labels = ["%d,%d" % key for key in offset_keys]
    # sum(state.alpha.values()), kept step by step in O(n) per round.
    alpha_sum = 0
    trace = AuctionTrace()
    cleared_round: dict = {}
    settled_now: set = set()
    rounds = 0
    queries = 0

    while rounds < cap:
        rounds += 1
        reports = {
            i: demand_set(instance.valuation(i), state, i, values[i], faces[i], unit)
            for i in range(1, n + 1)
        }
        queries += n
        sums = economy_kappa_sums(reports)
        diagnosis = {j: diagnose(low, high, instance.K) for j, (low, high) in sums.items()}
        for j in range(0, n + 1):
            if settled(diagnosis[j], state.p[j]):
                if j not in settled_now:
                    cleared_round[j] = rounds
                    settled_now.add(j)
            else:
                settled_now.discard(j)

        record = {
            "round": rounds,
            "p": [fmt(q) for q in state.p],
            "alpha": {
                label: fmt(state.alpha[key]) for label, key in zip(offset_labels, offset_keys)
            },
            "reports": _report_row(reports, fmt),
            "kappa_sums": sums,
            "diagnosis": diagnosis,
            # The objective of the normalized state.  Normalizing agent i
            # shifts its offsets down by min_j alpha[(i, j)] and its utility
            # up by as much, so it is the raw sum with pi at the raw max
            # utility, unclamped; after normalization the zero bundle costs
            # 0, so that pi is feasible.
            "dual_objective": fmt(dual_objective(
                instance.K, [r.max_utility for r in reports.values()], state.p, (alpha_sum,)
            )),
            "updates": [],
        }
        trace.records.append(record)

        if all(settled(diagnosis[j], state.p[j]) for j in range(0, n + 1)):
            tables = terminal_tables(instance, state, values)
            witness = tables.failures()
            if witness:
                # Balance tests can accept prices at which some economy
                # still has no supported allocation (demanded sizes need
                # not span a contiguous range).  Take one exact descent
                # step and keep going.
                witness = {
                    j: {key: fmt(q) for key, q in w.items()} for j, w in witness.items()
                }
                refined = _refine_state(instance, state, values, reports)
                if refined is None:
                    raise NotUniversal(
                        "final prices fail CE certification and no"
                        " improving direction exists: %s" % witness
                    )
                state = refined
                alpha_sum = sum(state.alpha.values())
                record["witness"] = witness
                for j in range(0, n + 1):
                    record["updates"].append({"economy": j, "direction": "refine"})
                continue
            allocation = final_allocation(reports, instance.K, values)
            payments = vcg_payments(tables, allocation)
            outcome = AuctionOutcome(
                allocation=allocation,
                payments={i: q * unit for i, q in payments.items()},
                final_state=_real_state(state, unit),
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
        # Over-demand updates take the round; under-demand waits, keeping
        # each round a pure ascent or descent step.
        kind, targets = (OVER_DEMAND, over) if over else (UNDER_DEMAND, under)
        if instance.update_mode == "single":
            targets = targets[:1]
        # One epsilon step is one unit.
        if kind == OVER_DEMAND:
            kappa = {i: reports[i].kappa_min for i in range(1, n + 1)}
            state = apply_over_demand_update(state, targets, kappa, 1)
            step = 1
        else:
            kappa = {i: reports[i].kappa_max for i in range(1, n + 1)}
            state = apply_under_demand_update(state, targets, kappa, 1)
            step = -1
        alpha_sum += offset_step_total(n, targets, kappa, step)
        record["updates"].extend({"economy": j, "direction": kind} for j in targets)

    raise RoundLimitExceeded("no termination within %d rounds" % cap, trace)


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


def _refine_state(instance, state, values, reports):
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


@dataclass(frozen=True)
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


# Longest run of rounds that one evaluation of the kappa sums may stand for
# in a uniform-price clock; None leaves runs unbounded, and 1 evaluates every
# round, which is the epsilon-stepped reference the event-driven clock must
# equal.
_MAX_JUMP = None


def _run_length(pool, p, diag):
    """Rounds the clock takes from p, stepping one epsilon unit in the
    direction of diag, before it reaches the next marginal of the pool (or
    0, descending).  Every price it passes lies strictly between two
    neighbouring marginals, as p does, so all of them give p's kappa sums.
    A price on a marginal is a run of one."""
    at = bisect_left(pool, p)
    if at < len(pool) and pool[at] == p:
        return 1
    if diag == OVER_DEMAND:
        # Above every marginal nothing is demanded, so one lies above p.
        target = pool[at]
    else:
        target = max(pool[at - 1], 0) if at else 0
    return abs(target - p)


def _clock_row(round_, p, low, high, diag):
    """A clock row; p is the round's price, already written."""
    return {
        "round": round_,
        "p": p,
        "sum_kappa_min": low,
        "sum_kappa_max": high,
        "diagnosis": diag,
    }


def _run_linear(instance, members, round_cap, lat):
    """Uniform-price clock on a subset of agents; returns per-run summary,
    its clearing price in epsilon units.

    At unit price p the members demand between their counts of marginals
    above p and at least p (marginal_pool), so the clock reads its kappa
    sums off the sorted pool with two bisections.  It is event-driven: one
    evaluation stands for a run of rounds with equal sums (see _run_length),
    whose rows it appends at once.  Rounds, queries and rows count and read
    exactly as if it queried every member every epsilon step; the members
    are queried only at the settling round, for the reports final_allocation
    selects from.  It settles only at a run's first round.
    """
    values, faces, fmt = lat.values, lat.faces, lat.fmt
    pool = marginal_pool(values, members)
    p = lat.p_init
    rounds = 0
    queries = 0
    rows = []
    while rounds < round_cap:
        low = len(pool) - bisect_right(pool, p)
        high = len(pool) - bisect_left(pool, p)
        diag = diagnose(low, high, instance.K)
        if settled(diag, p):
            rounds += 1
            queries += len(members)
            rows.append(_clock_row(rounds, fmt(p), low, high, diag))
            reports = {
                i: demand_at_linear_price(
                    instance.valuation(i), i, p, lat.delta, values[i], faces[i], lat.unit
                )
                for i in members
            }
            allocation = final_allocation(reports, instance.K, values)
            return {
                "allocation": allocation,
                "clearing_price": p,
                "rounds": rounds,
                "queries": queries,
                "rows": rows,
            }
        length = min(_run_length(pool, p, diag), round_cap - rounds)
        if _MAX_JUMP is not None:
            length = min(length, _MAX_JUMP)
        step = 1 if diag == OVER_DEMAND else -1
        queries += length * len(members)
        for _ in range(length):
            rounds += 1
            rows.append(_clock_row(rounds, fmt(p), low, high, diag))
            p += step
    raise RoundLimitExceeded(
        "linear auction: no termination within %d rounds" % round_cap,
        AuctionTrace(records=rows),
    )


def run_linear_auction(instance: Instance, round_cap: int | None = None):
    """Uniform-price benchmark on the main economy; elicits no payment data."""
    lat = lattice(instance)
    cap = round_cap if round_cap is not None else default_round_cap(instance, lat)
    try:
        run = _run_linear(instance, economy_members(0, instance.n), cap, lat)
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
        details={"clearing_price": lat.fmt(run["clearing_price"])},
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


def run_parallel_auction(instance: Instance, round_cap: int | None = None):
    """n+1 independent uniform-price auctions, one per economy.

    Rounds are the maximum across the parallel runs; queries are summed.
    Payments come from comparing the main and marginal clearing outcomes.
    """
    lat = lattice(instance)
    values = lat.values
    cap = round_cap if round_cap is not None else default_round_cap(instance, lat)
    runs = {}
    for j in range(0, instance.n + 1):
        try:
            runs[j] = _run_linear(instance, economy_members(j, instance.n), cap, lat)
        except RoundLimitExceeded as exc:
            # Economies after j never started; the trace ends with j's rows.
            rows = {ell: run["rows"] for ell, run in runs.items()}
            rows[j] = exc.trace.records
            exc.trace.records = _parallel_records(rows)
            raise

    welfare = {
        j: sum(values[i][k.size] for i, k in runs[j]["allocation"].items())
        for j in range(0, instance.n + 1)
    }
    main_alloc = runs[0]["allocation"]
    payments = {
        i: (values[i][main_alloc[i].size] - (welfare[0] - welfare[i])) * lat.unit
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
                j: lat.fmt(run["clearing_price"]) for j, run in runs.items()
            },
            "rounds_per_economy": {j: run["rounds"] for j, run in runs.items()},
        },
    )
    return outcome, AuctionTrace(records=records, outcome=outcome)
