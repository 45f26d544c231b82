"""Ground-truth brute-force procedures.

Demand reports by enumerating every bundle, the UCE dual objective of a
price state by the same enumeration, efficient allocations and VCG payments
straight from the definition, and competitive-equilibrium certification of
arbitrary price states.  The allocation and certification
procedures work in the bias-adjusted economy (values net of delta per strong
unit), which is the welfare problem the auctions solve; the demand references
take quoted prices, bias included, as the engines' demand oracle does.  These
are references for tests and `verify`; no engine path calls them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .demand import DemandReport
from .model import (
    Bundle,
    Instance,
    NotUniversal,
    ZERO_BUNDLE,
    economy_members,
)
from .pricing import rho, rho_adjusted
from .records import field, record

ZERO = Fraction(0)


def demand_by_enumeration(valuation, agent: int, price_fn) -> DemandReport:
    """Reference demand report: every bundle of the consumption set scored
    against a quoted price function (strong-unit bias included)."""
    scored = [(k, valuation.value(k) - price_fn(k)) for k in valuation.bundles()]
    best = max(u for _, u in scored)
    maximizers = tuple(sorted(k for k, u in scored if u == best))
    sizes = [k.size for k in maximizers]
    return DemandReport(
        agent=agent,
        max_utility=best,
        kappa_min=min(sizes),
        kappa_max=max(sizes),
        maximizers=maximizers,
    )


def demand_set_by_enumeration(valuation, state, agent: int) -> DemandReport:
    """Reference for `demand.demand_set`: enumeration at envelope prices."""
    return demand_by_enumeration(valuation, agent, lambda k: rho(state, agent, k))


def demand_at_linear_price_by_enumeration(valuation, agent: int, p, delta) -> DemandReport:
    """Reference for `demand.demand_at_linear_price`: enumeration at p per
    weak unit and p + delta per strong unit."""
    return demand_by_enumeration(valuation, agent, lambda k: k.kw * p + k.ks * (p + delta))


def uce_dual_objective(instance: Instance, state) -> Fraction:
    """Reference for `pricing.dual_objective` at envelope prices: the UCE dual
    objective of the state, every agent's pi taken by enumerating its bundles.

    pi is taken at its minimal feasible level max(0, max_k v_adj(k) - rho_adj(k)),
    which only depends on the agent (the envelope is economy-independent), so
    the value is a valid bound regardless of normalization history.
    """
    n = instance.n
    pi = {}
    for i in range(1, n + 1):
        v = instance.valuation(i)
        pi[i] = max(
            max(v.value(k, instance.delta) - rho_adjusted(state, i, k) for k in v.bundles()),
            ZERO,
        )
    total = ZERO
    for j in range(0, n + 1):
        members = economy_members(j, n)
        total += sum((pi[i] for i in members), ZERO)
        total += instance.K * state.p[j]
        total += sum((state.alpha[(i, j)] for i in members), ZERO)
    return total


def _best_assignment(members, valuations, K, value_fn):
    """Maximize sum of value_fn(i, k) over feasible allocations (sum |k| <= K).

    Deterministic tie-break: earlier agents get more units, then more strong
    units.  Returns (optimal value, {agent: bundle}).
    """
    members = tuple(members)

    @lru_cache(maxsize=None)
    def solve(idx, units):
        if idx == len(members):
            return (ZERO, ())
        i = members[idx]
        best = None
        # Larger bundles first so ties resolve toward earlier agents.
        options = sorted(
            valuations[i].bundles(), key=lambda k: (k.size, k.ks, k.kw), reverse=True
        )
        for k in options:
            if k.size > units:
                continue
            sub_value, sub_alloc = solve(idx + 1, units - k.size)
            total = value_fn(i, k) + sub_value
            if best is None or total > best[0]:
                best = (total, (k,) + sub_alloc)
        return best

    value, bundles = solve(0, K)
    solve.cache_clear()
    allocation = dict(zip(members, bundles))
    return value, allocation


def efficient_value(instance: Instance, economy: int):
    """Exact V(N^{-j}) with one maximizing allocation, by dynamic program."""
    members = economy_members(economy, instance.n)
    valuations = {i: instance.valuation(i) for i in members}
    if not members:
        return ZERO, {}
    return _best_assignment(
        members, valuations, instance.K, lambda i, k: instance.adjusted_value(i, k)
    )


def efficient_value_greedy(instance: Instance) -> Fraction:
    """Independent multi-unit oracle: greedily take the top K adjusted marginals.

    Valid because decreasing marginals make the greedy exact.  Only defined
    when every agent is multi-unit.
    """
    marginals = []
    for i in range(1, instance.n + 1):
        v = instance.valuation(i)
        marginals.extend(m - instance.delta for m in v.marginals[: v.capacity])
    positive = sorted((m for m in marginals if m > 0), reverse=True)
    return sum(positive[: instance.K], ZERO)


def revenue_max(instance: Instance, economy: int, price_fn):
    """Revenue-maximizing feasible allocation of one economy at adjusted prices."""
    members = economy_members(economy, instance.n)
    valuations = {i: instance.valuation(i) for i in members}
    if not members:
        return ZERO, {}
    return _best_assignment(members, valuations, instance.K, price_fn)


def vcg_from_definition(instance: Instance):
    """VCG payments g_i = v_i(k_i) - [V(N) - V(N^{-i})] from first principles.

    Returns (payments, payoffs, main allocation, {economy: V value}).
    """
    values = {}
    allocations = {}
    for j in range(0, instance.n + 1):
        values[j], allocations[j] = efficient_value(instance, j)
    payments = {}
    payoffs = {}
    for i in range(1, instance.n + 1):
        payoffs[i] = values[0] - values[i]
        payments[i] = instance.adjusted_value(i, allocations[0].get(i, ZERO_BUNDLE)) - payoffs[i]
    return payments, payoffs, allocations[0], values


def enumerate_efficient_allocations(instance: Instance, economy: int = 0):
    """All allocations attaining V(N^{-j}); exponential, tiny instances only."""
    members = economy_members(economy, instance.n)
    optimum, _ = efficient_value(instance, economy)
    results = []

    def recurse(idx, units, partial, value):
        if idx == len(members):
            if value == optimum:
                results.append(dict(partial))
            return
        i = members[idx]
        for k in instance.valuation(i).bundles():
            if k.size > units:
                continue
            partial[i] = k
            recurse(idx + 1, units - k.size, partial, value + instance.adjusted_value(i, k))
        partial.pop(members[idx], None)

    recurse(0, instance.K, {}, ZERO)
    return results


@record
class Certification:
    """Per-economy CE verdicts; failures carry witnesses, not exceptions."""

    results: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r["supported"] for r in self.results.values())

    def failures(self):
        return {j: r for j, r in self.results.items() if not r["supported"]}


def certify_uce(instance: Instance, price_fn) -> Certification:
    """Check that adjusted prices price_fn(i, k) are CE prices for every economy.

    For each economy: take an oracle-efficient allocation, verify every
    assigned bundle is demanded at the prices, and verify the allocation
    attains the revenue maximum.  Checking one efficient allocation suffices
    because supporting prices support them all.
    """
    cert = Certification()
    for j in range(0, instance.n + 1):
        _, allocation = efficient_value(instance, j)
        verdict = {"supported": True, "allocation": allocation}
        for i in economy_members(j, instance.n):
            v = instance.valuation(i)
            assigned = allocation.get(i, ZERO_BUNDLE)
            best = max(v.value(k, instance.delta) - price_fn(i, k) for k in v.bundles())
            got = instance.adjusted_value(i, assigned) - price_fn(i, assigned)
            if got != best:
                verdict["supported"] = False
                verdict["witness"] = {
                    "kind": "demand",
                    "agent": i,
                    "assigned": assigned,
                    "utility": got,
                    "max_utility": best,
                }
                break
        if verdict["supported"]:
            best_rev, rev_alloc = revenue_max(instance, j, price_fn)
            got_rev = sum(
                (price_fn(i, allocation.get(i, ZERO_BUNDLE)) for i in economy_members(j, instance.n)),
                ZERO,
            )
            if got_rev != best_rev:
                verdict["supported"] = False
                verdict["witness"] = {
                    "kind": "revenue",
                    "revenue": got_rev,
                    "max_revenue": best_rev,
                    "better_allocation": rev_alloc,
                }
        cert.results[j] = verdict
    return cert


def vcg_from_uce(instance: Instance, price_fn, allocation=None, certification=None):
    """Payments from prices alone: marginal-economy revenue optimum minus the
    revenue others generate under the chosen main allocation.

    Independent cross-check of the engine's payment rule; requires prices to
    certify as UCE first.  certification is certify_uce's verdict on the same
    instance and prices when the caller already holds it; without one the
    prices are certified here.
    """
    cert = certification if certification is not None else certify_uce(instance, price_fn)
    if not cert.passed:
        raise NotUniversal("prices are not universal CE prices: %s" % cert.failures())
    if allocation is None:
        allocation = cert.results[0]["allocation"]
    payments = {}
    for i in range(1, instance.n + 1):
        marginal_revenue, _ = revenue_max(instance, i, price_fn)
        others = sum(
            (price_fn(ell, allocation.get(ell, ZERO_BUNDLE)) for ell in economy_members(i, instance.n)),
            ZERO,
        )
        payments[i] = marginal_revenue - others
    return payments


def certify_general(general, price_fn) -> dict:
    """Set-based CE check for an explicit-allocation instance.

    `general` needs: n, bundles, allocations (tuples of per-agent bundle
    labels), empty (label of the zero bundle), value(i, x).  price_fn(i, x)
    gives agent i's price for bundle label x.  Returns per-economy verdicts.
    """
    results = {}
    for j in range(0, general.n + 1):
        members = [i for i in range(1, general.n + 1) if i != j]
        feasible = [
            y for y in general.allocations
            if j == 0 or y[j - 1] == general.empty
        ]
        if not feasible:
            results[j] = {"supported": False, "witness": {"kind": "no-feasible-allocation"}}
            continue

        def welfare(y):
            return sum((general.value(i, y[i - 1]) for i in members), ZERO)

        def revenue(y):
            return sum((price_fn(i, y[i - 1]) for i in members), ZERO)

        best_welfare = max(welfare(y) for y in feasible)
        efficient = next(y for y in feasible if welfare(y) == best_welfare)
        verdict = {"supported": True, "allocation": efficient}
        for i in members:
            best = max(general.value(i, x) - price_fn(i, x) for x in general.bundles)
            got = general.value(i, efficient[i - 1]) - price_fn(i, efficient[i - 1])
            if got != best:
                verdict["supported"] = False
                verdict["witness"] = {"kind": "demand", "agent": i}
                break
        if verdict["supported"]:
            best_rev = max(revenue(y) for y in feasible)
            if revenue(efficient) != best_rev:
                verdict["supported"] = False
                verdict["witness"] = {"kind": "revenue"}
        results[j] = verdict
    return results
