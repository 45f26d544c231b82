"""Linear programs and their exact solver.

The program model (variables, constraints, objective), an exact two-phase
simplex on sparse integer rows (nonzero int numerators over one row
denominator) with a column-to-rows index, so a pivot visits only the rows
with a nonzero in the entering column; the least-index anti-cycling rule;
and a dual certificate that check_optimal verifies exactly.  `lp` builds the
auction's programs on this model and reads and writes them as text.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .records import field, record

ZERO = Fraction(0)
ONE = Fraction(1)

# Size guards, read at call time: solve refuses a program whose variables
# times constraints exceed TABLEAU_CAP before it builds the tableau, and
# gives up after ITERATION_LIMIT pivots in one phase.  TABLEAU_CAP counts
# dense cells although the rows are stored sparse: the rows fill in as pivots
# go, so the nonzeros of the input say little about the time a solve takes.
TABLEAU_CAP = 10**6
ITERATION_LIMIT = 200000


class InstanceTooLarge(ValueError):
    """The requested program exceeds a size cap."""


class IterationLimit(RuntimeError):
    """Simplex hit the safety cap; indicates a pivot-rule bug."""


RELATIONS = ("<=", "=", ">=")


@record(frozen=True)
class Variable:
    name: str
    free: bool = False  # default sign constraint is >= 0


@record(frozen=True)
class Constraint:
    name: str
    coeffs: dict  # var name -> Fraction
    rel: str  # one of <=, =, >=
    rhs: Fraction


@record
class LinearProgram:
    name: str
    sense: str  # max or min
    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)
    # The names in variables, kept by add_variable, so that add_constraint
    # checks a constraint in time linear in its terms.
    _declared: set = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._declared = {v.name for v in self.variables}

    def add_variable(self, name, free=False):
        self.variables.append(Variable(name, free))
        self._declared.add(name)
        return name

    def add_constraint(self, name, coeffs, rel, rhs):
        assert rel in RELATIONS
        unknown = set(coeffs) - self._declared
        if unknown:
            raise ValueError("constraint %s references undeclared variables %s" % (name, unknown))
        self.constraints.append(
            Constraint(name, {k: Fraction(v) for k, v in coeffs.items() if v != 0}, rel, Fraction(rhs))
        )

    def canonical(self):
        """Structure used for round-trip equality checks."""
        return (
            self.sense,
            tuple(sorted((n, c) for n, c in self.objective.items() if c != 0)),
            tuple(
                (tuple(sorted(c.coeffs.items())), c.rel, c.rhs) for c in self.constraints
            ),
            frozenset(v.name for v in self.variables if v.free),
            frozenset(v.name for v in self.variables),
        )


@record
class SolveResult:
    status: str  # optimal | infeasible | unbounded
    objective: Fraction | None = None
    solution: dict | None = None
    # Constraint name -> multiplier y with b.y equal to the optimum; see
    # check_optimal for the sign conventions.  Set only when optimal.
    dual: dict | None = None
    pivots: int = 0


def check_feasible(lp: LinearProgram, point: dict) -> bool:
    """Exact feasibility check of a full assignment (missing vars read as 0)."""
    for v in lp.variables:
        if not v.free and point.get(v.name, ZERO) < 0:
            return False
    for c in lp.constraints:
        lhs = sum((coef * point.get(var, ZERO) for var, coef in c.coeffs.items()), ZERO)
        if c.rel == "<=" and lhs > c.rhs:
            return False
        if c.rel == ">=" and lhs < c.rhs:
            return False
        if c.rel == "=" and lhs != c.rhs:
            return False
    return True


def objective_value(lp: LinearProgram, point: dict) -> Fraction:
    return sum((coef * point.get(var, ZERO) for var, coef in lp.objective.items()), ZERO)


def check_optimal(lp: LinearProgram, result: SolveResult) -> bool:
    """Exact optimality certificate check of an `optimal` solve result.

    With s = +1 for min and -1 for max, the dual y (one multiplier per
    constraint name) must satisfy s*y >= 0 on >= rows, s*y <= 0 on <= rows,
    s*(c_v - sum_r y_r a_rv) >= 0 for every variable v (= 0 if v is free),
    and b.y must equal c.x for the primal point x, which must be feasible.
    """
    if result.status != "optimal" or result.solution is None or result.dual is None:
        return False
    point, dual = result.solution, result.dual
    if not check_feasible(lp, point):
        return False
    if objective_value(lp, point) != result.objective:
        return False
    # Duplicate constraint names leave some row without its own multiplier.
    if len(dual) != len(lp.constraints) or set(dual) != {con.name for con in lp.constraints}:
        return False
    s = ONE if lp.sense == "min" else -ONE
    reduced = {v.name: lp.objective.get(v.name, ZERO) for v in lp.variables}
    dual_objective = ZERO
    for con in lp.constraints:
        y = dual[con.name]
        if (con.rel == ">=" and s * y < 0) or (con.rel == "<=" and s * y > 0):
            return False
        for name, coef in con.coeffs.items():
            reduced[name] -= y * coef
        dual_objective += y * con.rhs
    for v in lp.variables:
        d = s * reduced[v.name]
        if d < 0 or (v.free and d != 0):
            return False
    return dual_objective == result.objective


# ---------------------------------------------------------------------------
# Two-phase simplex with the least-index (Bland) anti-cycling rule, on sparse
# integer rows.  Each tableau row, the right-hand side included under the key
# `width`, is a dict of nonzero int numerators over one positive int row
# denominator, kept reduced by their gcd; the reduced-cost row is stored the
# same way as row m.  A column index lists the rows with a nonzero in each
# column, so a pivot visits only the rows it changes.
# ---------------------------------------------------------------------------

def _integer_row(fractions_by_column: dict):
    """Numerators over the least common denominator, which leaves them
    coprime with it."""
    den = lcm(*(q.denominator for q in fractions_by_column.values()))
    return {j: q.numerator * (den // q.denominator) for j, q in fractions_by_column.items()}, den


def solve(lp: LinearProgram) -> SolveResult:
    """Exact optimum, a vertex solution and a dual certificate, or
    infeasible/unbounded status."""
    cells = len(lp.variables) * len(lp.constraints)
    if cells > TABLEAU_CAP:
        raise InstanceTooLarge(
            "%s has %d variables x %d constraints = %d tableau cells, cap is %d"
            % (lp.name, len(lp.variables), len(lp.constraints), cells, TABLEAU_CAP)
        )
    columns = []  # (var name, sign) pairs; free vars split into +/- parts
    col_of = {}
    for v in lp.variables:
        col_of[v.name] = len(columns)
        columns.append((v.name, 1))
        if v.free:
            columns.append((v.name, -1))

    def spread(coeffs, sign):
        """sign * coeffs by column; a free variable's minus part carries the
        negated coefficient."""
        row = {}
        for name, coef in coeffs.items():
            if coef:
                idx = col_of[name]
                row[idx] = sign * coef
                if columns[idx + 1 : idx + 2] and columns[idx + 1][0] == name:
                    row[idx + 1] = -sign * coef
        return row

    minimize = lp.sense == "min"

    # Rows are flipped to a non-negative right-hand side.  Columns: the
    # structural ones, then row r's slack (+1), surplus (-1) or, for = rows,
    # an empty column at n_struct + r, then one artificial per >= and = row
    # in row order, then the right-hand side at `width`.  Artificials come
    # after the slacks, so phase 2 scans n_struct + m.
    n_struct = len(columns)
    m = len(lp.constraints)
    flipped = [con.rhs < 0 for con in lp.constraints]
    rels = [
        {"<=": ">=", ">=": "<=", "=": "="}[con.rel] if flip else con.rel
        for con, flip in zip(lp.constraints, flipped)
    ]
    arts = [r for r in range(m) if rels[r] != "<="]
    art_col = {r: n_struct + m + t for t, r in enumerate(arts)}
    width = n_struct + m + len(arts)
    rows, dens = [], []
    for r, (con, flip) in enumerate(zip(lp.constraints, flipped)):
        row = spread(con.coeffs, -1 if flip else 1)
        if rels[r] != "=":
            row[n_struct + r] = 1 if rels[r] == "<=" else -1
        if r in art_col:
            row[art_col[r]] = 1
        if con.rhs:
            row[width] = -con.rhs if flip else con.rhs
        nums, den = _integer_row(row)
        rows.append(nums)
        dens.append(den)
    rows.append({})  # row m: reduced costs, set by each phase
    dens.append(1)
    index = [set() for _ in range(width + 1)]
    for i, row in enumerate(rows):
        for j in row:
            index[j].add(i)
    basis = [art_col.get(r, n_struct + r) for r in range(m)]
    pivots = 0

    def eliminate(i, col, prow):
        """Subtract from row i the multiple of row prow that clears col;
        only prow's numerators matter, not its denominator."""
        row = rows[i]
        p = prow[col]
        b = row[col]
        g = gcd(p, b)
        den = dens[i]
        if g != p:
            scale = p // g
            for j in row:
                row[j] *= scale
            den *= scale
        b //= g
        for j, x in prow.items():
            old = row.get(j)
            if old is None:
                row[j] = -b * x
                index[j].add(i)
            else:
                new = old - b * x
                if new:
                    row[j] = new
                else:
                    del row[j]
                    index[j].discard(i)
        if den != 1:
            g = gcd(den, *row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
                den //= g
        dens[i] = den

    def pivot(r, col):
        """Pivot on (r, col): scale row r so its entry in col is 1, then
        clear col from every other row that has it."""
        nonlocal pivots
        pivots += 1
        prow = rows[r]
        g = gcd(*prow.values())
        if prow[col] < 0:
            g = -g
        if g != 1:
            for j in prow:
                prow[j] //= g
        dens[r] = prow[col]
        # Afterwards col is a unit column, so its index restarts as {r}
        # instead of keeping the table it grew to.
        others = index[col]
        index[col] = {r}
        for i in others:
            if i != r:
                eliminate(i, col, prow)
        basis[r] = col

    def set_costs(cost):
        """Make row m the reduced costs of `cost` (a dict by column) in the
        current basis."""
        for j in rows[m]:
            index[j].discard(m)
        rows[m], dens[m] = _integer_row(cost)
        for j in rows[m]:
            index[j].add(m)
        for r, bvar in enumerate(basis):
            if bvar in rows[m]:
                eliminate(m, bvar, rows[r])

    def run_phase(scan):
        """Pivot until no column below `scan` has a negative reduced cost;
        returns False when the entering column is unbounded."""
        z = rows[m]
        for _ in range(ITERATION_LIMIT):
            entering = min((j for j, x in z.items() if x < 0 and j < scan), default=None)
            if entering is None:
                return True
            # Least ratio rhs/a over rows with a > 0, ties to the least basic
            # variable; the row denominators cancel, so compare
            # rhs_i * a_leaving with rhs_leaving * a_i.
            leaving = None
            for i in index[entering]:
                if i == m:
                    continue
                a = rows[i][entering]
                if a > 0:
                    rhs = rows[i].get(width, 0)
                    if leaving is None:
                        leaving, best_a, best_rhs = i, a, rhs
                        continue
                    lhs, bound = rhs * best_a, best_rhs * a
                    if lhs < bound or (lhs == bound and basis[i] < basis[leaving]):
                        leaving, best_a, best_rhs = i, a, rhs
            if leaving is None:
                return False  # unbounded
            pivot(leaving, entering)
        raise IterationLimit("simplex exceeded %d iterations" % ITERATION_LIMIT)

    if arts:
        set_costs({art_col[r]: ONE for r in arts})
        if not run_phase(width):
            raise IterationLimit("phase 1 reported unbounded; malformed program")
        if rows[m].get(width, 0) < 0:
            return SolveResult(status="infeasible", pivots=pivots)
        # Drive artificials out of the basis where possible.
        for r in range(m):
            if basis[r] >= n_struct + m:
                target = min((j for j in rows[r] if j < n_struct + m), default=None)
                if target is not None:
                    pivot(r, target)

    set_costs(spread(lp.objective, ONE if minimize else -ONE))
    if not run_phase(n_struct + m):
        return SolveResult(status="unbounded", pivots=pivots)

    values = {bvar: Fraction(rows[r].get(width, 0), dens[r]) for r, bvar in enumerate(basis)}
    solution = {}
    for idx, (name, sign) in enumerate(columns):
        solution[name] = solution.get(name, ZERO) + sign * values.get(idx, ZERO)
    obj = objective_value(lp, solution)
    # z[col] = cost[col] - y.A[col] for the internal min problem, where the
    # slack of row r is +e_r, its surplus -e_r and its artificial +e_r (all
    # of cost 0 in phase 2); an = row reads its artificial.  Undo the row
    # flip and, for max, the cost sign.
    z, dz = rows[m], dens[m]
    dual = {}
    for r, con in enumerate(lp.constraints):
        if rels[r] == ">=":
            y = Fraction(z.get(n_struct + r, 0), dz)
        else:
            y = -Fraction(z.get(art_col.get(r, n_struct + r), 0), dz)
        if flipped[r]:
            y = -y
        dual[con.name] = y if minimize else -y
    return SolveResult(status="optimal", objective=obj, solution=solution, dual=dual, pivots=pivots)
