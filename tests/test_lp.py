import itertools
import random
import re
from fractions import Fraction

import pytest

from uceauction import lp, oracle
from uceauction.auction import run_uce_auction
from uceauction.demand import OVER_DEMAND, UNDER_DEMAND, demand_set
from uceauction.model import Bundle, Instance, MultiUnitValuation, ProductMixValuation
from uceauction.pricing import initial_state
from uceauction.records import replace

F = Fraction


def _solve(prog):
    """Solve, and check the certificate of every optimal result exactly."""
    res = lp.solve(prog)
    if res.status == "optimal":
        assert lp.check_optimal(prog, res)
    return res


def _rho_from_solution(solution, prefix="rho_i"):
    """Turn rho_i{i}_w{a}s{b} solution entries into a price function."""
    table = {}
    for name, value in solution.items():
        if not name.startswith(prefix):
            continue
        agent_part, bundle_part = name[len(prefix):].split("_", 1)
        kw, ks = bundle_part[1:].split("s")
        table[(int(agent_part), Bundle(int(kw), int(ks)))] = value
    return lambda i, k: table[(i, k)]


def test_simplex_small_max():
    prog = lp.LinearProgram(name="toy", sense="max")
    prog.add_variable("x")
    prog.add_variable("y")
    prog.objective = {"x": F(3), "y": F(2)}
    prog.add_constraint("c1", {"x": F(1), "y": F(1)}, "<=", F(4))
    prog.add_constraint("c2", {"x": F(1)}, "<=", F(2))
    res = _solve(prog)
    assert res.status == "optimal"
    assert res.objective == F(10)
    assert res.solution["x"] == F(2) and res.solution["y"] == F(2)


def test_simplex_free_variable_and_fractions():
    prog = lp.LinearProgram(name="toy2", sense="min")
    prog.add_variable("x", free=True)
    prog.objective = {"x": F(1)}
    prog.add_constraint("lb", {"x": F(3)}, ">=", F(-2))
    res = _solve(prog)
    assert res.status == "optimal"
    assert res.objective == F(-2, 3)


def test_simplex_infeasible_and_unbounded():
    bad = lp.LinearProgram(name="bad", sense="max")
    bad.add_variable("x")
    bad.add_constraint("c1", {"x": F(1)}, "<=", F(-1))
    assert _solve(bad).status == "infeasible"

    unb = lp.LinearProgram(name="unb", sense="max")
    unb.add_variable("x")
    unb.objective = {"x": F(1)}
    unb.add_constraint("c1", {"x": F(-1)}, "<=", F(5))
    assert _solve(unb).status == "unbounded"


def _random_coef(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 3))


def _random_boxed_program(rng, sense):
    """Up to 4 variables, one of them free, each boxed by bound rows, and up
    to 4 rows mixing <=, >= and = with non-integer coefficients and
    right-hand sides of either sign."""
    names = ["x%d" % v for v in range(rng.randint(1, 4))]
    free = rng.choice(names)
    prog = lp.LinearProgram(name="random", sense=sense)
    for name in names:
        prog.add_variable(name, free=name == free)
    prog.objective = {name: _random_coef(rng) for name in names}
    for r in range(rng.randint(1, 4)):
        coeffs = {name: _random_coef(rng) for name in rng.sample(names, rng.randint(1, len(names)))}
        rhs = F(rng.randint(-6, 6), rng.randint(1, 3))
        prog.add_constraint("r%d" % r, coeffs, rng.choice(("<=", ">=", "=")), rhs)
    for name in names:
        prog.add_constraint("ub_" + name, {name: F(1)}, "<=", F(rng.randint(1, 5)))
    prog.add_constraint("lb_" + free, {free: F(1)}, ">=", F(-rng.randint(1, 5)))
    return prog


def _solve_square(matrix, rhs):
    """The unique x with matrix . x = rhs, by exact Gauss-Jordan
    elimination, or None when the matrix is singular."""
    n = len(rhs)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            factor = aug[r][c]
            if r != c and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def _vertex_optimum(prog):
    """Best objective over the feasible vertices, or None when there is
    none.  A vertex is the solution of a square system of tight
    constraints (rows and sign bounds); a bounded program that is feasible
    attains its optimum at one."""
    names = [v.name for v in prog.variables]
    tight = [(con.coeffs, con.rhs) for con in prog.constraints]
    tight += [({v.name: F(1)}, F(0)) for v in prog.variables if not v.free]
    better = max if prog.sense == "max" else min
    best = None
    for subset in itertools.combinations(tight, len(names)):
        x = _solve_square(
            [[coeffs.get(name, F(0)) for name in names] for coeffs, _ in subset],
            [rhs for _, rhs in subset],
        )
        if x is not None and lp.check_feasible(prog, dict(zip(names, x))):
            value = lp.objective_value(prog, dict(zip(names, x)))
            best = value if best is None else better(best, value)
    return best


@pytest.mark.parametrize("sense", ["min", "max"])
def test_simplex_matches_vertex_enumeration(sense):
    rng = random.Random("vertex-enumeration:" + sense)
    statuses = []
    for _ in range(60):
        prog = _random_boxed_program(rng, sense)
        best = _vertex_optimum(prog)
        res = _solve(prog)
        statuses.append(res.status)
        if best is None:
            assert res.status == "infeasible", lp.emit_lp_text(prog)
        else:
            assert res.status == "optimal", lp.emit_lp_text(prog)
            assert res.objective == best, lp.emit_lp_text(prog)
    assert statuses.count("optimal") >= 20 and statuses.count("infeasible") >= 5


@pytest.mark.parametrize("sense", ["min", "max"])
def test_simplex_reports_contradictions_and_open_rays(sense):
    rng = random.Random("rays:" + sense)
    unbounded = 0
    for _ in range(30):
        prog = _random_boxed_program(rng, sense)
        # A variable t with no upper bound and an improving cost that only
        # loosens the rows it enters opens a ray from every feasible point.
        # Those rows hold for t large enough, so the program is feasible
        # exactly when the rest of its rows are.
        rest = replace(prog, constraints=[])
        ray = replace(
            prog,
            variables=prog.variables + [lp.Variable("t")],
            objective={**prog.objective, "t": F(1 if sense == "max" else -1)},
            constraints=[],
        )
        for con in prog.constraints:
            loosen = rng.randint(0, 3) if con.rel != "=" and con.name.startswith("r") else 0
            if loosen:
                t = F(-loosen if con.rel == "<=" else loosen)
                ray.constraints.append(replace(con, coeffs={**con.coeffs, "t": t}))
            else:
                ray.constraints.append(con)
                rest.constraints.append(con)
        feasible = _vertex_optimum(rest) is not None
        assert _solve(ray).status == ("unbounded" if feasible else "infeasible"), lp.emit_lp_text(ray)
        unbounded += feasible
        # Two rows that bound the same sum from both sides, one step apart.
        total = {v.name: F(1) for v in prog.variables}
        cut = F(rng.randint(-3, 3))
        prog.add_constraint("clash_lo", total, ">=", cut + 1)
        prog.add_constraint("clash_hi", total, "<=", cut)
        assert _vertex_optimum(prog) is None
        assert _solve(prog).status == "infeasible"
    assert unbounded >= 10


def _signed_toy(sense):
    """min x + 2y + w (or max of its negation) with a flipped <= row, a
    bound row and an equality row with a negative right-hand side."""
    s = 1 if sense == "min" else -1
    prog = lp.LinearProgram(name="signed", sense=sense)
    prog.add_variable("x")
    prog.add_variable("y")
    prog.add_variable("w", free=True)
    prog.objective = {"x": F(s), "y": F(2 * s), "w": F(s)}
    prog.add_constraint("a", {"x": F(-1), "y": F(-1)}, "<=", F(-3))
    prog.add_constraint("b", {"x": F(1)}, "<=", F(1))
    prog.add_constraint("c", {"w": F(1), "y": F(-1)}, "=", F(-1))
    return prog


@pytest.mark.parametrize("sense", ["min", "max"])
def test_dual_multipliers_undo_row_flip_and_sense(sense):
    s = 1 if sense == "min" else -1
    res = _solve(_signed_toy(sense))
    assert res.objective == 6 * s
    assert res.solution == {"x": F(1), "y": F(2), "w": F(1)}
    assert res.dual == {"a": F(-3 * s), "b": F(-2 * s), "c": F(s)}


def test_check_optimal_rejects_perturbed_certificates(table1):
    prog = lp.build_uce_dual(table1)
    res = _solve(prog)
    for name in res.dual:
        dual = dict(res.dual)
        dual[name] += F(1, 7)
        assert not lp.check_optimal(prog, replace(res, dual=dual)), name
    missing = dict(res.dual)
    missing.popitem()
    assert not lp.check_optimal(prog, replace(res, dual=missing))
    point = dict(res.solution)
    point["p_e0"] += 1
    assert not lp.check_optimal(prog, replace(res, solution=point))
    assert not lp.check_optimal(prog, replace(res, objective=res.objective - 1))
    # A feasible but suboptimal point has no dual certifying it.
    toy = _signed_toy("min")
    toy_res = _solve(toy)
    worse = replace(toy_res, solution={"x": F(0), "y": F(3), "w": F(2)}, objective=F(8))
    assert lp.check_feasible(toy, worse.solution)
    assert not lp.check_optimal(toy, worse)
    assert not lp.check_optimal(toy, lp.SolveResult(status="unbounded"))


@pytest.mark.parametrize(
    "dual, ok",
    [
        ({"w_lo": F(1), "x_lo": F(0)}, True),
        ({"w_lo": F(1, 2), "x_lo": F(0)}, False),  # free w: reduced cost 1/2, not 0
        ({"w_lo": F(1), "x_lo": F(-1)}, False),  # wrong sign on a >= row
    ],
)
def test_check_optimal_dual_conditions(dual, ok):
    """Zero right-hand sides make b.y = 0 for every y, so only the sign and
    reduced-cost conditions can reject these multipliers."""
    prog = lp.LinearProgram(name="zero_rhs", sense="min")
    prog.add_variable("w", free=True)
    prog.add_variable("x")
    prog.objective = {"w": F(1), "x": F(1)}
    prog.add_constraint("w_lo", {"w": F(1)}, ">=", F(0))
    prog.add_constraint("x_lo", {"x": F(1)}, ">=", F(0))
    assert lp.check_optimal(prog, _solve(prog))
    result = lp.SolveResult(
        status="optimal", objective=F(0), solution={"w": F(0), "x": F(0)}, dual=dual
    )
    assert lp.check_optimal(prog, result) is ok


TABLE1_UCE_DUAL_RHO = {
    "rho_i1_w0s0": F(-5), "rho_i1_w0s1": F(3), "rho_i1_w0s2": F(8),
    "rho_i1_w0s3": F(12), "rho_i1_w0s4": F(15),
    "rho_i2_w0s0": F(-3), "rho_i2_w0s1": F(4), "rho_i2_w0s2": F(7), "rho_i2_w0s3": F(9),
    "rho_i3_w0s0": F(-2), "rho_i3_w0s1": F(4), "rho_i3_w0s2": F(5),
}


def test_pivot_counts_and_vertex_are_pinned(table1):
    dual = _solve(lp.build_uce_dual(table1))
    assert dual.pivots == 78
    assert {k: v for k, v in dual.solution.items() if k.startswith("rho_")} == TABLE1_UCE_DUAL_RHO
    assert _solve(lp.build_uce_primal(table1)).pivots == 139


def test_ce_primal_per_economy_optima(table1):
    expected = {0: F(26), 1: F(18), 2: F(23), 3: F(24)}
    for j, want in expected.items():
        res = _solve(lp.build_ce_primal(table1, j))
        assert res.status == "optimal"
        assert res.objective == want


def test_ce_dual_strong_duality(table1):
    primal = _solve(lp.build_ce_primal(table1, 0)).objective
    dual = _solve(lp.build_ce_dual(table1, 0)).objective
    assert primal == dual == F(26)


def test_universal_primal_equals_economy_sum(table1):
    total = _solve(lp.build_uce_primal(table1)).objective
    split = sum(
        (_solve(lp.build_ce_primal(table1, j)).objective for j in range(0, 4)),
        F(0),
    )
    assert total == split == F(91)


def test_tied_allocation_variables_do_not_change_optimum(table1):
    """Adding z = beta equalities (the simplification that decomposes the
    program per economy) leaves the optimum unchanged."""
    prog = lp.build_uce_primal(table1)
    for v in list(prog.variables):
        if v.name.startswith("z_"):
            tie = v.name[len("z_"):]
            prog.add_constraint("tie_" + tie, {v.name: F(1), "b_" + tie: F(-1)}, "=", F(0))
    tied = _solve(prog)
    assert tied.status == "optimal"
    assert tied.objective == F(91)


def test_universal_dual_prices_certify(table1):
    res = _solve(lp.build_uce_dual(table1))
    assert res.objective == F(91)
    price_fn = _rho_from_solution(res.solution)
    cert = oracle.certify_uce(table1, price_fn)
    assert cert.passed
    payments = oracle.vcg_from_uce(table1, price_fn)
    assert payments == {1: F(5), 2: F(4), 3: F(4)}


def _reports_at(inst, state):
    return {i: demand_set(inst.valuation(i), state, i) for i in range(1, inst.n + 1)}


def test_restricted_dual_negative_at_start(table1):
    state = initial_state(3, F(0))
    reports = _reports_at(table1, state)
    prog = lp.build_restricted_dual(table1, state, reports)
    res = _solve(prog)
    assert res.status == "optimal"
    assert res.objective == F(-35, 6)


def test_over_demand_direction_is_feasible_and_improving(table1):
    state = initial_state(3, F(0))
    reports = _reports_at(table1, state)
    prog = lp.build_restricted_dual(table1, state, reports)
    point = lp.improving_direction(table1, reports, 0, OVER_DEMAND)
    assert lp.check_feasible(prog, point)
    assert lp.objective_value(prog, point) == F(-5, 4)


def test_under_demand_direction_is_feasible_and_improving(table1):
    inst = Instance(agents=table1.agents, K=4, p_init=F(9), direction="descending")
    state = initial_state(3, F(9))
    reports = _reports_at(inst, state)
    # Everyone sits on the zero bundle at the opening price.
    assert all(r.kappa_max == 0 for r in reports.values())
    prog = lp.build_restricted_dual(inst, state, reports)
    point = lp.improving_direction(inst, reports, 0, UNDER_DEMAND)
    assert lp.check_feasible(prog, point)
    assert lp.objective_value(prog, point) < 0


def test_restricted_dual_zero_at_terminal(table1):
    out, _ = run_uce_auction(table1)
    state = out.final_state
    reports = _reports_at(table1, state)
    res = _solve(lp.build_restricted_dual(table1, state, reports))
    assert res.status == "optimal"
    assert res.objective == F(0)


def test_render_coefficient_decimal_versus_fraction():
    assert lp.render_coefficient(F(3)) == "3"
    assert lp.render_coefficient(F(1, 4)) == "0.25"
    assert lp.render_coefficient(F(-1, 8)) == "-0.125"
    assert lp.render_coefficient(F(1, 3)) == "1/3"
    assert lp.render_coefficient(F(7, 50)) == "0.14"


def test_emit_parse_round_trip(table1):
    programs = [
        lp.build_ce_primal(table1, 0),
        lp.build_ce_dual(table1, 2),
        lp.build_uce_dual(table1),
    ]
    state = initial_state(3, F(0))
    programs.append(lp.build_restricted_dual(table1, state, _reports_at(table1, state)))
    for prog in programs:
        text = lp.emit_lp_text(prog)
        back = lp.parse_lp_text(text)
        assert back.canonical() == prog.canonical()
        assert lp.emit_lp_text(back) == text


_VALID_LP = [
    "Maximize", " obj: + 3 x", "Subject To", " c1: + 1 x + 2 y <= 4", "Bounds", " y free",
    "General", " x", " y", "End",
]


def _with_line(index, line):
    return "\n".join(_VALID_LP[:index] + [line] + _VALID_LP[index + 1:]) + "\n"


@pytest.mark.parametrize("text, line", [
    pytest.param("hello world\n", "hello world", id="no-header"),
    pytest.param(_with_line(1, " obj: + 3"), "obj: + 3", id="truncated-term"),
    pytest.param(_with_line(1, " obj: + 1/0 x"), "obj: + 1/0 x", id="zero-denominator"),
    pytest.param(_with_line(1, " obj: + three x"), "obj: + three x", id="bad-coefficient"),
    pytest.param(_with_line(1, " obj: + 3 x + 5 z"), "obj: + 3 x + 5 z", id="undeclared-objective"),
    pytest.param(_with_line(3, " c1: + 1 x + 2 y <="), "c1: + 1 x + 2 y <=", id="no-rhs"),
    pytest.param(_with_line(3, " c1: + 1 x + 2 y 4"), "c1: + 1 x + 2 y 4", id="no-relation"),
    pytest.param(_with_line(3, " c1: + 1 x + 2 y < 4"), "c1: + 1 x + 2 y < 4", id="strict-relation"),
    pytest.param(_with_line(3, " + 1 x + 2 y <= 4"), "+ 1 x + 2 y <= 4", id="no-name"),
    pytest.param(_with_line(3, " c1: + 1 x + 2 y <= 1/0"), "c1: + 1 x + 2 y <= 1/0", id="bad-rhs"),
    pytest.param(_with_line(3, " c1: + 1 x + 2 z <= 4"), "c1: + 1 x + 2 z <= 4", id="undeclared"),
    pytest.param(_with_line(5, " y free now"), "y free now", id="three-token-bound"),
    pytest.param(_with_line(5, " y"), "y", id="one-token-bound"),
    pytest.param(_with_line(7, " x y"), "x y", id="two-names"),
    pytest.param("\n".join(_VALID_LP + ["x"]) + "\n", "x", id="after-end"),
])
def test_parse_rejects_garbage(text, line):
    """Every malformed line raises LpFormatError, and the message quotes it."""
    with pytest.raises(lp.LpFormatError, match=re.escape(repr(line))):
        lp.parse_lp_text(text)


def test_parse_accepts_the_valid_lines():
    prog = lp.parse_lp_text("\n".join(_VALID_LP) + "\n")
    assert prog.constraints == [lp.Constraint("c1", {"x": F(1), "y": F(2)}, "<=", F(4))]
    assert [(v.name, v.free) for v in prog.variables] == [("x", False), ("y", True)]


def test_general_instance_pair_solves_and_certifies():
    bundles = ("none", "a", "b", "ab")
    values = {
        (1, "a"): F(6), (1, "b"): F(5), (1, "ab"): F(9),
        (2, "a"): F(5), (2, "b"): F(4), (2, "ab"): F(7),
    }
    allocations = (
        ("none", "none"),
        ("a", "none"), ("b", "none"), ("ab", "none"),
        ("none", "a"), ("none", "b"), ("none", "ab"),
        ("a", "b"), ("b", "a"),
    )
    general = lp.GeneralInstance(
        n=2, bundles=bundles, empty="none", values=values, allocations=allocations
    )
    primal, dual = lp.build_general_uce_lps(general)
    primal_res = _solve(primal)
    dual_res = _solve(dual)
    # V(N) + V(-1) + V(-2) = 10 + 7 + 9.
    assert primal_res.objective == F(26)
    assert dual_res.objective == F(26)
    table = {
        (i, x): dual_res.solution.get("rho_i%d_x%s" % (i, x), F(0))
        for i in (1, 2)
        for x in bundles
    }
    verdicts = oracle.certify_general(general, lambda i, x: table[(i, x)])
    assert all(v["supported"] for v in verdicts.values())


def test_two_item_encoding_matches_bundle_spaces(table1):
    general = lp.encode_two_item_instance(table1)
    assert general.n == 3
    assert general.empty == "w0s0"
    # Every feasible allocation respects the supply of four units.
    def size(label):
        kw, ks = label[1:].split("s")
        return int(kw) + int(ks)

    for y in general.allocations:
        assert sum(size(x) for x in y) <= 4
    # Values carry over from the original valuations.
    assert general.value(1, "w0s2") == F(13)
    assert general.value(2, "w0s0") == F(0)


def test_variable_cap_raises(monkeypatch):
    inst = Instance(
        agents=(MultiUnitValuation(tuple(F(10 - t) for t in range(10))),),
        K=10,
    )
    monkeypatch.setattr(lp, "VARIABLE_CAP", 3)
    with pytest.raises(lp.InstanceTooLarge):
        lp.build_uce_dual(inst)


def test_two_item_encoding_stops_at_the_size_cap():
    """The general size cap is checked while the allocations are listed, so
    an instance with astronomically many allocations fails at once."""
    inst = Instance(
        agents=tuple(ProductMixValuation(v_w=F(1), v_s=F(2), gamma=10) for _ in range(17)),
        K=100,
    )
    with pytest.raises(lp.InstanceTooLarge, match="over the cap of 10000"):
        lp.encode_two_item_instance(inst)
