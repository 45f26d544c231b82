"""The auction's linear programs: builders and text I/O.

Builders emit the competitive-equilibrium primal/dual, their universal
(all-economies) counterparts, the restricted dual that drives price updates,
and the fully general explicit-allocation forms, on the program model of
`simplex`, whose exact solver (`solve`, `check_optimal`) and size guards
are also reached through this module.
"""
from __future__ import annotations

from fractions import Fraction

from .demand import OVER_DEMAND, UNDER_DEMAND
from .model import Bundle, Instance, economy_members, visible_economies
from .pricing import EnvelopePriceState, envelope_argmin
from .records import record
from .simplex import (  # noqa: F401  the solver's names are lp's too
    ITERATION_LIMIT,
    ONE,
    RELATIONS,
    TABLEAU_CAP,
    ZERO,
    Constraint,
    InstanceTooLarge,
    IterationLimit,
    LinearProgram,
    SolveResult,
    Variable,
    check_feasible,
    check_optimal,
    objective_value,
    solve,
)

# Builders' size guards, read at call time: a builder refuses a program
# before building it.  The solver's guards are simplex.TABLEAU_CAP and
# simplex.ITERATION_LIMIT.
VARIABLE_CAP = 10**5
GENERAL_SIZE_CAP = 10**4


class LpFormatError(ValueError):
    """Malformed LP text."""


# ---------------------------------------------------------------------------
# Builders for the two-item instance programs.
# ---------------------------------------------------------------------------

def _bundle_tag(k: Bundle) -> str:
    return "w%ds%d" % (k.kw, k.ks)


def _check_variables(count, what):
    if count > VARIABLE_CAP:
        raise InstanceTooLarge("%s needs %d variables, cap is %d" % (what, count, VARIABLE_CAP))


def _check_general_size(size):
    """size is |bundles| x |allocations| x n, or a lower bound on it."""
    if size > GENERAL_SIZE_CAP:
        raise InstanceTooLarge(
            "|bundles| x |allocations| x n is at least %d, over the cap of %d"
            % (size, GENERAL_SIZE_CAP)
        )


def build_ce_primal(instance: Instance, economy: int) -> LinearProgram:
    """Efficient-allocation program of one economy over bias-adjusted values."""
    members = economy_members(economy, instance.n)
    count = sum(instance.valuation(i).bundle_count() for i in members)
    _check_variables(count, "allocation primal")
    lp = LinearProgram(name="ce_primal_e%d" % economy, sense="max")
    for i in members:
        for k in instance.valuation(i).bundles():
            name = "z_i%d_%s" % (i, _bundle_tag(k))
            lp.add_variable(name)
            lp.objective[name] = instance.adjusted_value(i, k)
    supply = {}
    for i in members:
        cap_row = {}
        for k in instance.valuation(i).bundles():
            name = "z_i%d_%s" % (i, _bundle_tag(k))
            cap_row[name] = ONE
            if k.size:
                supply[name] = Fraction(k.size)
        lp.add_constraint("one_bundle_i%d" % i, cap_row, "<=", ONE)
    lp.add_constraint("supply", supply, "<=", Fraction(instance.K))
    return lp


def build_ce_dual(instance: Instance, economy: int) -> LinearProgram:
    """Dual of the allocation program: agent utilities plus a unit price."""
    members = economy_members(economy, instance.n)
    _check_variables(len(members) + 1, "clearing-price dual")
    lp = LinearProgram(name="ce_dual_e%d" % economy, sense="min")
    lp.add_variable("p")
    lp.objective["p"] = Fraction(instance.K)
    for i in members:
        lp.add_variable("pi_i%d" % i)
        lp.objective["pi_i%d" % i] = ONE
    for i in members:
        for k in instance.valuation(i).bundles():
            lp.add_constraint(
                "util_i%d_%s" % (i, _bundle_tag(k)),
                {"pi_i%d" % i: ONE, "p": Fraction(k.size)},
                ">=",
                instance.adjusted_value(i, k),
            )
    return lp


def build_uce_dual(instance: Instance) -> LinearProgram:
    """All-economies dual with per-agent envelope prices as free variables."""
    n = instance.n
    count = 0
    for j in range(0, n + 1):
        count += 2 * len(economy_members(j, n)) + 1
    count += sum(v.bundle_count() for v in instance.agents)
    _check_variables(count, "universal dual")

    lp = LinearProgram(name="uce_dual", sense="min")
    for j in range(0, n + 1):
        lp.add_variable("p_e%d" % j)
        lp.objective["p_e%d" % j] = Fraction(instance.K)
        for i in economy_members(j, n):
            lp.add_variable("pi_i%d_e%d" % (i, j))
            lp.objective["pi_i%d_e%d" % (i, j)] = ONE
            lp.add_variable("a_i%d_e%d" % (i, j))
            lp.objective["a_i%d_e%d" % (i, j)] = ONE
    for i in range(1, n + 1):
        for k in instance.valuation(i).bundles():
            lp.add_variable("rho_i%d_%s" % (i, _bundle_tag(k)), free=True)
    for j in range(0, n + 1):
        for i in economy_members(j, n):
            for k in instance.valuation(i).bundles():
                tag = _bundle_tag(k)
                lp.add_constraint(
                    "util_i%d_e%d_%s" % (i, j, tag),
                    {"pi_i%d_e%d" % (i, j): ONE, "rho_i%d_%s" % (i, tag): ONE},
                    ">=",
                    instance.adjusted_value(i, k),
                )
                lp.add_constraint(
                    "env_i%d_e%d_%s" % (i, j, tag),
                    {
                        "rho_i%d_%s" % (i, tag): ONE,
                        "p_e%d" % j: -Fraction(k.size),
                        "a_i%d_e%d" % (i, j): -ONE,
                    },
                    "<=",
                    ZERO,
                )
    return lp


def build_uce_primal(instance: Instance) -> LinearProgram:
    """All-economies allocation program with paired z/beta variables."""
    n = instance.n
    count = 2 * sum(
        instance.valuation(i).bundle_count()
        for j in range(0, n + 1)
        for i in economy_members(j, n)
    )
    _check_variables(count, "universal primal")

    lp = LinearProgram(name="uce_primal", sense="max")
    for j in range(0, n + 1):
        for i in economy_members(j, n):
            for k in instance.valuation(i).bundles():
                tag = _bundle_tag(k)
                zname = "z_i%d_e%d_%s" % (i, j, tag)
                bname = "b_i%d_e%d_%s" % (i, j, tag)
                lp.add_variable(zname)
                lp.add_variable(bname)
                lp.objective[zname] = instance.adjusted_value(i, k)
    for j in range(0, n + 1):
        supply = {}
        for i in economy_members(j, n):
            z_row = {}
            b_row = {}
            for k in instance.valuation(i).bundles():
                tag = _bundle_tag(k)
                z_row["z_i%d_e%d_%s" % (i, j, tag)] = ONE
                b_row["b_i%d_e%d_%s" % (i, j, tag)] = ONE
                if k.size:
                    supply["b_i%d_e%d_%s" % (i, j, tag)] = Fraction(k.size)
            lp.add_constraint("one_z_i%d_e%d" % (i, j), z_row, "<=", ONE)
            lp.add_constraint("one_b_i%d_e%d" % (i, j), b_row, "<=", ONE)
        lp.add_constraint("supply_e%d" % j, supply, "<=", Fraction(instance.K))
    for i in range(1, n + 1):
        for k in instance.valuation(i).bundles():
            tag = _bundle_tag(k)
            row = {}
            for j in visible_economies(i, n):
                row["z_i%d_e%d_%s" % (i, j, tag)] = ONE
                row["b_i%d_e%d_%s" % (i, j, tag)] = -ONE
            lp.add_constraint("match_i%d_%s" % (i, tag), row, "=", ZERO)
    return lp


def build_restricted_dual(
    instance: Instance, state: EnvelopePriceState, reports: dict
) -> LinearProgram:
    """The improving-direction program over demanded bundles and envelope-tight
    economies.  A negative optimum yields a price update; optimum 0 certifies
    the current prices as optimal."""
    n = instance.n
    lp = LinearProgram(name="restricted_dual", sense="min")
    for j in range(0, n + 1):
        lp.add_variable("q_e%d" % j, free=True)
        lp.objective["q_e%d" % j] = Fraction(instance.K)
        lp.add_constraint("q_lb_e%d" % j, {"q_e%d" % j: ONE}, ">=", -ONE)
        for i in economy_members(j, n):
            lam = "lam_i%d_e%d" % (i, j)
            nu = "nu_i%d_e%d" % (i, j)
            lp.add_variable(lam, free=True)
            lp.add_variable(nu, free=True)
            lp.objective[lam] = ONE
            lp.objective[nu] = ONE
            lp.add_constraint("lam_lb_i%d_e%d" % (i, j), {lam: ONE}, ">=", -ONE)
            lp.add_constraint("nu_lb_i%d_e%d" % (i, j), {nu: ONE}, ">=", -ONE)
    for i in range(1, n + 1):
        for k in instance.valuation(i).bundles():
            tag = _bundle_tag(k)
            r = "r_i%d_%s" % (i, tag)
            lp.add_variable(r, free=True)
            lp.add_constraint("r_lb_i%d_%s" % (i, tag), {r: ONE}, ">=", -ONE)
    for i in range(1, n + 1):
        demanded = set(reports[i].maximizers)
        for k in instance.valuation(i).bundles():
            tag = _bundle_tag(k)
            r = "r_i%d_%s" % (i, tag)
            if k in demanded:
                for j in visible_economies(i, n):
                    lp.add_constraint(
                        "dem_i%d_e%d_%s" % (i, j, tag),
                        {"lam_i%d_e%d" % (i, j): ONE, r: ONE},
                        ">=",
                        ZERO,
                    )
            for j in envelope_argmin(state, i, k):
                lp.add_constraint(
                    "env_i%d_e%d_%s" % (i, j, tag),
                    {"nu_i%d_e%d" % (i, j): ONE, r: -ONE, "q_e%d" % j: Fraction(k.size)},
                    ">=",
                    ZERO,
                )
    return lp


def improving_direction(instance: Instance, reports: dict, j: int, diagnosis: str) -> dict:
    """Closed-form feasible restricted-dual point for economy j, over- or
    under-demanded: the price step.  Over-demand raises q_e[j] and reads
    kappa_min, with r = min(|k|, kappa); under-demand is its mirror, with
    signs flipped, kappa_max and r = -max(|k|, kappa)."""
    if diagnosis not in (OVER_DEMAND, UNDER_DEMAND):
        raise ValueError("no improving direction for a %r economy" % (diagnosis,))
    over = diagnosis == OVER_DEMAND
    sign = ONE if over else -ONE
    bound = min if over else max
    n, K = instance.n, Fraction(instance.K)
    kappa = {i: r.kappa_min if over else r.kappa_max for i, r in reports.items()}
    point = {}
    for ell in range(0, n + 1):
        point["q_e%d" % ell] = sign / K if ell == j else ZERO
        for i in economy_members(ell, n):
            point["lam_i%d_e%d" % (i, ell)] = -sign * kappa[i] / K
            point["nu_i%d_e%d" % (i, ell)] = ZERO if ell == j else sign * kappa[i] / K
    for i in range(1, n + 1):
        for k in instance.valuation(i).bundles():
            point["r_i%d_%s" % (i, _bundle_tag(k))] = sign * bound(k.size, kappa[i]) / K
    return point


# ---------------------------------------------------------------------------
# General explicit-allocation instances (fully nonlinear, non-anonymous).
# ---------------------------------------------------------------------------

@record(frozen=True)
class GeneralInstance:
    """Explicit bundle space, explicit feasible allocations, tabulated values.

    values maps (agent, bundle label) to a Fraction; absent pairs are outside
    the agent's consumption set.  The designated empty bundle has value 0.
    """

    n: int
    bundles: tuple  # labels
    empty: str
    values: dict  # (agent, label) -> Fraction
    allocations: tuple  # tuples of labels, length n

    def __post_init__(self):
        pool = set(self.bundles)
        if self.empty not in pool:
            raise ValueError("empty bundle %r is not in the bundle space" % (self.empty,))
        for y in self.allocations:
            if len(y) != self.n or any(x not in pool for x in y):
                raise ValueError("allocation %r is not drawn from the bundle space" % (y,))

    def available(self, i: int):
        return [x for x in self.bundles if (i, x) in self.values or x == self.empty]

    def value(self, i: int, x: str) -> Fraction:
        if x == self.empty:
            return self.values.get((i, x), ZERO)
        return self.values[(i, x)]


def build_general_uce_lps(general: GeneralInstance):
    """Universal primal and dual for a general instance; returns (primal, dual)."""
    _check_general_size(len(general.bundles) * len(general.allocations) * general.n)
    n = general.n

    dual = LinearProgram(name="general_uce_dual", sense="min")
    for j in range(0, n + 1):
        dual.add_variable("mu_e%d" % j)
        dual.objective["mu_e%d" % j] = ONE
        for i in economy_members(j, n):
            dual.add_variable("pi_i%d_e%d" % (i, j))
            dual.objective["pi_i%d_e%d" % (i, j)] = ONE
            dual.add_variable("a_i%d_e%d" % (i, j))
            for x in general.available(i):
                dual.add_variable("pg_i%d_x%s_e%d" % (i, x, j))
    for i in range(1, n + 1):
        for x in general.available(i):
            dual.add_variable("rho_i%d_x%s" % (i, x), free=True)
    for j in range(0, n + 1):
        for i in economy_members(j, n):
            for x in general.available(i):
                dual.add_constraint(
                    "util_i%d_e%d_x%s" % (i, j, x),
                    {"pi_i%d_e%d" % (i, j): ONE, "rho_i%d_x%s" % (i, x): ONE},
                    ">=",
                    general.value(i, x),
                )
                dual.add_constraint(
                    "env_i%d_e%d_x%s" % (i, j, x),
                    {
                        "rho_i%d_x%s" % (i, x): ONE,
                        "pg_i%d_x%s_e%d" % (i, x, j): -ONE,
                        "a_i%d_e%d" % (i, j): -ONE,
                    },
                    "<=",
                    ZERO,
                )
        for t, y in enumerate(general.allocations):
            row = {"mu_e%d" % j: ONE}
            for i in economy_members(j, n):
                x = y[i - 1]
                row["pg_i%d_x%s_e%d" % (i, x, j)] = row.get("pg_i%d_x%s_e%d" % (i, x, j), ZERO) - ONE
                row["a_i%d_e%d" % (i, j)] = row.get("a_i%d_e%d" % (i, j), ZERO) - ONE
            dual.add_constraint("rev_e%d_y%d" % (j, t), row, ">=", ZERO)

    primal = LinearProgram(name="general_uce_primal", sense="max")
    for j in range(0, n + 1):
        for t in range(len(general.allocations)):
            primal.add_variable("d_y%d_e%d" % (t, j))
        for i in economy_members(j, n):
            for x in general.available(i):
                zname = "z_i%d_x%s_e%d" % (i, x, j)
                bname = "b_i%d_x%s_e%d" % (i, x, j)
                primal.add_variable(zname)
                primal.add_variable(bname)
                primal.objective[zname] = general.value(i, x)
    for j in range(0, n + 1):
        primal.add_constraint(
            "mix_e%d" % j,
            {"d_y%d_e%d" % (t, j): ONE for t in range(len(general.allocations))},
            "<=",
            ONE,
        )
        for i in economy_members(j, n):
            primal.add_constraint(
                "one_z_i%d_e%d" % (i, j),
                {"z_i%d_x%s_e%d" % (i, x, j): ONE for x in general.available(i)},
                "<=",
                ONE,
            )
            row = {"b_i%d_x%s_e%d" % (i, x, j): ONE for x in general.available(i)}
            for t in range(len(general.allocations)):
                row["d_y%d_e%d" % (t, j)] = -ONE
            primal.add_constraint("one_b_i%d_e%d" % (i, j), row, "<=", ZERO)
            for x in general.available(i):
                row = {"b_i%d_x%s_e%d" % (i, x, j): ONE}
                for t, y in enumerate(general.allocations):
                    if y[i - 1] == x:
                        row["d_y%d_e%d" % (t, j)] = row.get("d_y%d_e%d" % (t, j), ZERO) - ONE
                primal.add_constraint("pick_i%d_x%s_e%d" % (i, x, j), row, "<=", ZERO)
    for i in range(1, n + 1):
        for x in general.available(i):
            row = {}
            for j in visible_economies(i, n):
                row["z_i%d_x%s_e%d" % (i, x, j)] = ONE
                row["b_i%d_x%s_e%d" % (i, x, j)] = -ONE
            primal.add_constraint("match_i%d_x%s" % (i, x), row, "=", ZERO)
    return primal, dual


def encode_two_item_instance(instance: Instance) -> GeneralInstance:
    """Re-express a two-item instance with explicit bundles and allocations.

    The size cap of build_general_uce_lps is checked as each allocation is
    found, so an oversized instance fails without listing them all."""
    labels = {}
    values = {}
    empty = "w0s0"
    pool = {empty}
    for i in range(1, instance.n + 1):
        for k in instance.valuation(i).bundles():
            label = _bundle_tag(k)
            pool.add(label)
            labels[label] = k
            values[(i, label)] = instance.adjusted_value(i, k)
    labels[empty] = Bundle(0, 0)

    allocations = []

    def recurse(i, remaining, partial):
        if i > instance.n:
            allocations.append(tuple(partial))
            _check_general_size(len(pool) * len(allocations) * instance.n)
            return
        for k in instance.valuation(i).bundles():
            if k.size <= remaining:
                partial.append(_bundle_tag(k))
                recurse(i + 1, remaining - k.size, partial)
                partial.pop()

    recurse(1, instance.K, [])
    return GeneralInstance(
        n=instance.n,
        bundles=tuple(sorted(pool)),
        empty=empty,
        values=values,
        allocations=tuple(allocations),
    )


# ---------------------------------------------------------------------------
# Text format: emit and parse, round-trip safe.
# ---------------------------------------------------------------------------

def render_coefficient(q: Fraction) -> str:
    """Decimal string when exact, otherwise p/q."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return "%d/%d" % (q.numerator, q.denominator)
    exp = max(twos, fives)
    scaled = q.numerator * 10**exp // q.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(exp + 1, "0")
    return "%s%s.%s" % (sign, digits[:-exp], digits[-exp:])


def _render_terms(coeffs: dict) -> str:
    parts = []
    for name in sorted(coeffs):
        coef = coeffs[name]
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        parts.append("%s %s %s" % (sign, render_coefficient(abs(coef)), name))
    if not parts:
        return "+ 0 _zero"
    return " ".join(parts)


def emit_lp_text(lp: LinearProgram) -> str:
    lines = []
    lines.append("Maximize" if lp.sense == "max" else "Minimize")
    lines.append(" obj: %s" % _render_terms(lp.objective))
    lines.append("Subject To")
    for c in lp.constraints:
        lines.append(" %s: %s %s %s" % (c.name, _render_terms(c.coeffs), c.rel, render_coefficient(c.rhs)))
    free = [v.name for v in lp.variables if v.free]
    lines.append("Bounds")
    for name in free:
        lines.append(" %s free" % name)
    lines.append("General")
    for v in lp.variables:
        lines.append(" %s" % v.name)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _parse_number(token, line):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise LpFormatError("bad number %r in line %r" % (token, line)) from None


def _parse_terms(tokens, line):
    """Signed `coefficient name` terms as {name: coefficient}; the `_zero`
    placeholder of an empty expression is dropped."""
    coeffs = {}
    idx = 0
    while idx < len(tokens):
        sign = 1
        if tokens[idx] in ("+", "-"):
            sign = -1 if tokens[idx] == "-" else 1
            idx += 1
        if idx + 2 > len(tokens):
            raise LpFormatError("truncated term in line %r" % line)
        coef = _parse_number(tokens[idx], line)
        name = tokens[idx + 1]
        idx += 2
        if name != "_zero":
            coeffs[name] = coeffs.get(name, ZERO) + sign * coef
    return coeffs


def parse_lp_text(text: str) -> LinearProgram:
    """The program written by emit_lp_text; LpFormatError naming the first
    malformed line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("\\")]
    if not lines or lines[0] not in ("Maximize", "Minimize"):
        raise LpFormatError(
            "expected Maximize or Minimize header, got %r" % (lines[0] if lines else "")
        )
    lp = LinearProgram(name="parsed", sense="max" if lines[0] == "Maximize" else "min")
    section = "objective"
    free = set()
    declared = []
    body_constraints = []
    for line in lines[1:]:
        if section == "End":
            raise LpFormatError("text after End: %r" % line)
        if line in ("Subject To", "Bounds", "General", "End"):
            section = line
            continue
        if section == "objective":
            if not line.startswith("obj:"):
                raise LpFormatError("expected objective line, got %r" % line)
            lp.objective = _parse_terms(line[len("obj:"):].split(), line)
            objective_line = line
        elif section == "Subject To":
            name, colon, rest = line.partition(":")
            tokens = rest.split()
            if not colon or len(tokens) < 2 or tokens[-2] not in RELATIONS:
                raise LpFormatError("expected 'name: terms <=|=|>= rhs', got %r" % line)
            body_constraints.append((
                line, name.strip(), _parse_terms(tokens[:-2], line), tokens[-2],
                _parse_number(tokens[-1], line),
            ))
        elif section == "Bounds":
            tokens = line.split()
            if len(tokens) != 2 or tokens[1] != "free":
                raise LpFormatError("unsupported bound line %r" % line)
            free.add(tokens[0])
        elif section == "General":
            tokens = line.split()
            if len(tokens) != 1:
                raise LpFormatError("expected one variable name, got %r" % line)
            declared.append(tokens[0])
    for name in declared:
        lp.add_variable(name, free=name in free)
    unknown = set(lp.objective) - set(declared)
    if unknown:
        raise LpFormatError(
            "objective references undeclared variables %s, in line %r"
            % (sorted(unknown), objective_line)
        )
    for line, name, coeffs, rel, rhs in body_constraints:
        try:
            lp.add_constraint(name, coeffs, rel, rhs)
        except ValueError as exc:
            raise LpFormatError("%s, in line %r" % (exc, line)) from None
    return lp
