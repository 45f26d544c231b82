"""Iterative auction engines.

Three engines share the instance format: the envelope-price engine (single
price path, computes VCG payments), a uniform-price benchmark (no payments),
and a parallel benchmark running one uniform-price auction per economy.  The
envelope-price engine's terminal phase is in `terminal`.

Every engine computes on the epsilon-lattice.  Values, delta and p_init are
whole multiples of epsilon (Instance.validate), clock prices move by epsilon
and offsets by epsilon times a unit count, so each run scales its numbers once
to Python ints in epsilon units (`lattice`) and turns them back into Fractions
only for its outcome and its records.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .demand import (
    BALANCED,
    OVER_DEMAND,
    UNDER_DEMAND,
    demand_at_linear_price,
    demand_set,
    diagnose,
    best_value_by_size,
    economy_kappa_sums,
    line_maxima,
    maximizer_face,
    rising_marginals,
)
from .model import (
    Instance,
    MultiUnitValuation,
    NotUniversal,
    economy_members,
    lattice_formatter,
    visible_economies,
)
from .pricing import (
    EnvelopePriceState,
    apply_over_demand_update,
    apply_under_demand_update,
    dual_objective,
    initial_state,
    offset_step_total,
)
from .records import field, record
from .terminal import (  # noqa: F401  NoFeasibleSelection is auction's too
    NoFeasibleSelection,
    final_allocation,
    marginal_pool,
    refine_state,
    terminal_tables,
    vcg_payments,
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


@record
class AuctionOutcome:
    allocation: dict  # agent -> Bundle
    payments: dict | None
    final_state: EnvelopePriceState | None
    rounds: int
    queries: int
    cleared_round: dict  # economy -> round index of first (current) balance
    details: dict = field(default_factory=dict)


@record
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


@record(frozen=True)
class Lattice:
    """One run's numbers in epsilon units.

    unit is epsilon; delta and p_init are ints; values holds value_tables,
    rising each table's rising_marginals and faces each agent's
    maximizer_face, all fixed for the run.  fmt writes k units as
    format_rational(k * unit) would, memoized.
    """

    unit: Fraction
    delta: int
    p_init: int
    values: dict
    rising: dict
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
        rising={i: rising_marginals(table) for i, table in values.items()},
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


# Longest run of rounds that one round of demand queries may stand for, in
# every engine; None leaves runs unbounded, and 1 queries every round, which
# is the epsilon-stepped reference the event-driven engines must equal.
_MAX_JUMP = None


def _run_length(pool, p, diag):
    """Rounds a price takes from p, stepping one epsilon unit in the
    direction of diag, before it reaches the next value of the ascending
    pool (or 0, descending); None when it ascends above every value.  Every
    price it passes lies strictly between two neighbouring values, as p
    does.  A price on a value is a run of one."""
    at = bisect_left(pool, p)
    if at < len(pool) and pool[at] == p:
        return 1
    if diag == OVER_DEMAND:
        return pool[at] - p if at < len(pool) else None
    return p - (max(pool[at - 1], 0) if at else 0)


def _envelope_run(state, targets, step, kappa, lat, breaks, limit):
    """(length, slopes): how many rounds, at most limit, one round's reports
    stand for when every round applies the same update, and each agent's
    change of max utility per round over them (None for a run of one).

    Each round moves every target's price by step and each offset (i, l) by
    step * kappa[i] * (m - [l is a target]), for m targets.  Until a moving
    price reaches a marginal of an agent that sees its line (breaks[j] holds
    those marginals, see _run_length), every line's demanded interval stays
    put and every line maximum changes by a fixed amount per round.  Until a
    line maximum below an agent's optimum catches up with it, the optimal
    lines stay the same, and with them the reports, the diagnoses and the
    targets.  Optimal lines whose maxima change at different rates part at
    once, a run of one.
    """
    n, p, alpha = state.n, state.p, state.alpha
    moving = set(targets)
    m = len(moving)
    kind = OVER_DEMAND if step > 0 else UNDER_DEMAND
    length = limit
    for j in moving:
        bound = _run_length(breaks[j], p[j], kind)
        if bound is not None:
            length = min(length, bound)
    slopes = {}
    for i in range(1, n + 1):
        if length == 1:
            return 1, None
        visible = visible_economies(i, n)
        maxima = line_maxima(
            [(p[ell], alpha[(i, ell)]) for ell in visible], lat.values[i], lat.rising[i]
        )
        shift = step * kappa[i]
        still = -m * shift
        lines = [
            (u, still + shift - low * step if ell in moving else still)
            for ell, (low, u) in zip(visible, maxima)
        ]
        best = max(u for u, _ in lines)
        rates = {slope for u, slope in lines if u == best}
        if len(rates) > 1:
            return 1, None
        rate = rates.pop()
        for u, slope in lines:
            if slope > rate:
                # The first round at which this line's maximum reaches best.
                length = min(length, -((u - best) // (slope - rate)))
        slopes[i] = rate
    return (length, slopes) if length > 1 else (1, None)


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

    The engine is event-driven: after a round's queries it computes how many
    rounds keep the same reports, diagnoses and targets (_envelope_run), and
    applies that many steps with one update call.  Prices, offsets, max
    utilities and the dual objective are affine over such a run, so its
    records are written from their affine forms.  Rounds, queries,
    cleared_round, every record and the contiguity monitor's warnings read
    exactly as if it queried every round: a round where a multi-unit report
    has a gap in its sizes is a run of one.
    """
    n, K = instance.n, instance.K
    lat = lattice(instance)
    values, faces, rising, unit, fmt = lat.values, lat.faces, lat.rising, lat.unit, lat.fmt
    cap = round_cap if round_cap is not None else default_round_cap(instance, lat)
    state = initial_state(n, lat.p_init, lat.delta)
    # The record's offset keys, in order, and their labels.
    offset_keys = sorted(state.alpha)
    offset_labels = ["%d,%d" % key for key in offset_keys]
    # The distinct adjusted marginals of the agents that see each economy's
    # line, ascending: the prices at which a moving line's intervals change.
    breaks = [
        sorted({m for i in economy_members(j, n) for m in rising[i]}) for j in range(0, n + 1)
    ]
    multi_unit = [
        i for i in range(1, n + 1) if isinstance(instance.valuation(i), MultiUnitValuation)
    ]
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
            i: demand_set(instance.valuation(i), state, i, values[i], faces[i], unit, rising[i])
            for i in range(1, n + 1)
        }
        queries += n
        sums = economy_kappa_sums(reports)
        diagnosis = {j: diagnose(low, high, K) for j, (low, high) in sums.items()}
        for j in range(0, n + 1):
            if settled(diagnosis[j], state.p[j]):
                if j not in settled_now:
                    cleared_round[j] = rounds
                    settled_now.add(j)
            else:
                settled_now.discard(j)

        # The objective of the normalized state.  Normalizing agent i shifts
        # its offsets down by min_j alpha[(i, j)] and its utility up by as
        # much, so it is the raw sum with pi at the raw max utility,
        # unclamped; after normalization the zero bundle costs 0, so that pi
        # is feasible.
        utilities = [r.max_utility for r in reports.values()]
        objective = dual_objective(K, utilities, state.p, (alpha_sum,))
        row = _report_row(reports, fmt)
        record = {
            "round": rounds,
            "p": [fmt(q) for q in state.p],
            "alpha": {
                label: fmt(state.alpha[key]) for label, key in zip(offset_labels, offset_keys)
            },
            "reports": row,
            "kappa_sums": sums,
            "diagnosis": diagnosis,
            "dual_objective": fmt(objective),
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
                refined = refine_state(instance, state, values, reports)
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
            allocation = final_allocation(reports, K, values)
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
            step = 1
        else:
            kappa = {i: reports[i].kappa_max for i in range(1, n + 1)}
            step = -1
        updates = [{"economy": j, "direction": kind} for j in targets]
        record["updates"] = updates
        offsets_step = offset_step_total(n, targets, kappa, step)

        length = cap - rounds + 1
        if _MAX_JUMP is not None:
            length = min(length, _MAX_JUMP)
        # A multi-unit report with a gap in its sizes is a run of one, so the
        # contiguity monitor logs every such query, as when stepping.
        if length > 1 and not any(
            reports[i].kappa_max - reports[i].kappa_min >= len(reports[i].maximizers)
            for i in multi_unit
        ):
            length, slopes = _envelope_run(state, targets, step, kappa, lat, breaks, length)
        else:
            length = 1
        if length > 1:
            # The run's later records, from the affine forms of its numbers.
            moving = set(targets)
            dp = [step if j in moving else 0 for j in range(0, n + 1)]
            alpha0 = [state.alpha[key] for key in offset_keys]
            dalpha = [step * kappa[i] * (len(moving) - (j in moving)) for i, j in offset_keys]
            rate = dual_objective(K, slopes.values(), dp, (offsets_step,))
            for r in range(1, length):
                trace.records.append({
                    "round": rounds + r,
                    "p": [fmt(q + r * dq) for q, dq in zip(state.p, dp)],
                    "alpha": {
                        label: fmt(a + r * da)
                        for label, a, da in zip(offset_labels, alpha0, dalpha)
                    },
                    "reports": {
                        i: dict(entry, max_utility=fmt(reports[i].max_utility + r * slopes[i]))
                        for i, entry in row.items()
                    },
                    "kappa_sums": sums,
                    "diagnosis": diagnosis,
                    "dual_objective": fmt(objective + r * rate),
                    "updates": updates,
                })
        if kind == OVER_DEMAND:
            state = apply_over_demand_update(state, targets, kappa, length)
        else:
            state = apply_under_demand_update(state, targets, kappa, length)
        alpha_sum += length * offsets_step
        rounds += length - 1
        queries += (length - 1) * n

    raise RoundLimitExceeded("no termination within %d rounds" % cap, trace)


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
                    instance.valuation(i), i, p, lat.delta, values[i], faces[i], lat.unit,
                    lat.rising[i],
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
        # Over-demand means some member buys a unit at p, so some marginal
        # lies above p and the run is bounded.
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
