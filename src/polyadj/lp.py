"""Exact rational linear programming.

A problem maximizes c.x subject to inequality rows A x <= b, equality rows
E x = f, and x_j >= 0 for the variables listed in nonneg; every other
variable is free. The solver is a two-phase primal simplex over the
internal form M z = r, z >= 0. Each variable gets a column u_j, a free one
also a column w_j with x_j = u_j - w_j, and each inequality row a slack.
Rows are sign normalized so that r >= 0; inequality rows with negative
right hand side and all equality rows receive artificial variables for
phase 1. Pivoting follows Bland's rule (lexicographically smallest
entering index, ratio ties broken by the smallest basis variable index),
so runs are deterministic and never cycle.

The tableau is fraction free. Each row of M z = r, artificial columns
included, is scaled once to coprime integers; from then on a row stands
for its integer vector divided by its basic entry, which is kept
positive. A pivot on (r, c) replaces every other row T_i by
T_r[c] T_i - T_i[c] T_r divided by the gcd of its entries, and the reduced
cost row is an integer vector over one positive denominator. Bland's
entering test reads only signs, and the ratio test compares cross
products, T_i[-1] T_k[c] < T_k[-1] T_i[c]; both are invariant under
positive row scaling, so the pivots, the final basis and everything read
off it are exactly those of a Fraction tableau. Fractions reappear only
when the point, the value and the duals are returned.

Every optimal solve reads dual multipliers y off the final reduced costs
(of the slack column of each inequality row and of the artificial column
of each equality row) and validates them exactly against the original
rows: y >= 0 on inequality rows (free on equality rows), y.A_j = c_j on
free variables and >= c_j on nonnegative ones, and y.(b, f) equal to the
optimum. The checks run in integers: y is the integer vector of those
reduced costs over the cost row's one denominator, and each original row
is cleared of its denominators once, the same clearing that sets up the
tableau. A violation raises InternalInconsistencyError since it can only
mean a bug, never roundoff. LpResult.duals returns y as Fractions.

solve is the one route: is_feasible solves the system with the zero
objective, which phase 2 finds optimal at once on any feasible system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, Optional, Sequence, Union

from .errors import DimensionMismatchError, InternalInconsistencyError
from .ratmath import common_denominator, dot
from .record import record

Status = Literal["optimal", "infeasible", "unbounded"]
Exact = Union[int, Fraction]


@record
class LpProblem:
    """An LP with exact entries: each an int or a Fraction."""

    normals: tuple[tuple[Exact, ...], ...]
    rhs: tuple[Exact, ...]
    objective: tuple[Exact, ...]
    eq_normals: tuple[tuple[Exact, ...], ...] = ()
    eq_rhs: tuple[Exact, ...] = ()
    nonneg: tuple[int, ...] = ()


@record
class LpResult:
    """Outcome of a solve.

    On an optimal result duals holds the validated dual multipliers of the
    inequality rows and then of the equality rows; otherwise it is empty.
    """

    status: Status
    value: Optional[Fraction]
    point: Optional[tuple[Fraction, ...]]
    duals: tuple[Fraction, ...] = ()


def _exact(x) -> Exact:
    """x as it is when an int or a Fraction, else converted to a Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def make_problem(normals, rhs, objective, *, eq_normals=(), eq_rhs=(),
                 nonneg: Iterable[int] = ()) -> LpProblem:
    """Check an LP's shape and build it, keeping int and Fraction entries as they are."""
    normals = tuple(tuple(map(_exact, row)) for row in normals)
    rhs = tuple(map(_exact, rhs))
    eq_normals = tuple(tuple(map(_exact, row)) for row in eq_normals)
    eq_rhs = tuple(map(_exact, eq_rhs))
    objective = tuple(map(_exact, objective))
    d = len(objective)
    if (any(len(row) != d for row in normals + eq_normals) or len(normals) != len(rhs)
            or len(eq_normals) != len(eq_rhs)):
        raise DimensionMismatchError("inconsistent LP dimensions")
    nonneg = set(nonneg)
    if not nonneg <= set(range(d)):
        raise DimensionMismatchError(f"nonneg indices must lie in range({d})")
    return LpProblem(normals, rhs, objective, eq_normals, eq_rhs,
                     tuple(j for j in range(d) if j in nonneg))


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _priced_out(rc: list[int], den: int, prow: list[int], c: int) -> tuple[list[int], int]:
    """The cost row rc / den minus its column-c multiple of the row prow / prow[c]."""
    p, q = prow[c], rc[c]
    rc = [p * a - q * b for a, b in zip(rc, prow)]
    den *= p
    g = gcd(den, *rc)
    return [a // g for a in rc], den // g


class _Tableau:
    """Dense simplex tableau in integer rows with Bland pivoting.

    Row i stands for the rational row rows[i] / rows[i][basis[i]], whose
    basic entry is kept positive.
    """

    def __init__(self, rows, basis, ncols):
        self.m = len(rows)
        self.ncols = ncols
        self.rows = rows
        self.basis: list[int] = basis
        self.costs: Optional[tuple[list[int], int]] = None  # final reduced costs of run

    def pivot(self, r, c):
        prow = self.rows[r]
        p = prow[c]
        if p < 0:  # only a phase-1 drop pivot lands on a negative entry
            prow = self.rows[r] = [-a for a in prow]
            p = -p
        for i, row in enumerate(self.rows):
            q = row[c]
            if q and i != r:
                self.rows[i] = _reduced([p * a - q * b for a, b in zip(row, prow)])
        self.basis[r] = c

    def reduced_costs(self, cost) -> tuple[list[int], int]:
        # cost: per-column objective (to minimize); returns the reduced cost
        # row, rhs column included, as integers over a positive denominator
        rc, den = common_denominator(cost)
        rc.append(0)
        for row, bj in zip(self.rows, self.basis):
            if rc[bj]:
                rc, den = _priced_out(rc, den, row, bj)
        return rc, den

    def run(self, cost, allowed) -> Status:
        """Minimize cost over the current basis; allowed marks usable columns."""
        rc, den = self.reduced_costs(cost)
        rows = self.rows
        while True:
            enter = next((j for j in range(self.ncols) if allowed[j] and rc[j] < 0), None)
            if enter is None:
                self.costs = (rc, den)
                return "optimal"
            # ratios rows[i][-1] / rows[i][enter], compared by cross products
            leave = None
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)
            rc, den = _priced_out(rc, den, rows[leave], enter)


def _cleared(problem: LpProblem) -> list[tuple[list[int], int, int]]:
    """Each row (a, b), inequality rows first, as (a den, b den, den) for the
    least den > 0 that makes it integer."""
    out = []
    for normal, b in zip(problem.normals + problem.eq_normals, problem.rhs + problem.eq_rhs):
        nums, den = common_denominator(tuple(normal) + (b,))
        out.append((nums[:-1], nums[-1], den))
    return out


def _setup(problem: LpProblem, cleared):
    # internal minimization of c~.z over M z = r, z >= 0. Columns: u_j per
    # variable, w_j per free variable, a slack per inequality row, then an
    # artificial per row whose slack cannot start basic (a negative right
    # hand side before sign normalization, or an equality row). Returns the
    # row signs, the starting tableau, the artificial column of each such
    # row and the number of columns before the artificials.
    n = len(problem.rhs)
    d = len(problem.objective)
    free = [j for j in range(d) if j not in problem.nonneg]
    sigma = [1 if r >= 0 else -1 for _, r, _ in cleared]
    ncols_core = d + len(free) + n
    art_cols: dict[int, int] = {}
    for i, s in enumerate(sigma):
        if i >= n or s < 0:
            art_cols[i] = ncols_core + len(art_cols)
    rows, basis = [], []
    for i, (a, r, den) in enumerate(cleared):
        # the row times sigma[i] * den
        u = [sigma[i] * x for x in a]
        extra = [0] * (n + len(art_cols))
        if i < n:
            extra[i] = sigma[i] * den
        if i in art_cols:
            extra[art_cols[i] - d - len(free)] = den
        rows.append(_reduced(u + [-u[j] for j in free] + extra + [sigma[i] * r]))
        basis.append(art_cols.get(i, d + len(free) + i))
    return sigma, _Tableau(rows, basis, ncols_core + len(art_cols)), art_cols, ncols_core


def _phase1(tab: _Tableau, art_cols, ncols_core) -> bool:
    if not art_cols:
        return True
    art_set = set(art_cols.values())
    cost = [1 if j in art_set else 0 for j in range(tab.ncols)]
    status = tab.run(cost, [True] * tab.ncols)
    assert status == "optimal"  # phase 1 is bounded below by 0
    if any(row[-1] for row, bj in zip(tab.rows, tab.basis) if bj in art_set):
        return False
    # pivot leftover artificials out, dropping rows that became redundant
    drop = []
    for i in range(tab.m):
        if tab.basis[i] in art_set:
            c = next((j for j in range(ncols_core) if tab.rows[i][j] != 0), None)
            if c is None:
                drop.append(i)
            else:
                tab.pivot(i, c)
    for i in sorted(drop, reverse=True):
        del tab.rows[i]
        del tab.basis[i]
        tab.m -= 1
    return True


def solve(problem: LpProblem) -> LpResult:
    """Solve an LP exactly; see the module docstring for the method.

    The problem is used as given: make_problem has already checked it.
    Only the numerators and denominators of its entries are read.
    """
    d = len(problem.objective)
    obj = problem.objective

    cleared = _cleared(problem)
    sigma, tab, art_cols, ncols_core = _setup(problem, cleared)
    if not _phase1(tab, art_cols, ncols_core):
        return LpResult("infeasible", None, None)

    free = [j for j in range(d) if j not in problem.nonneg]
    cost = [0] * tab.ncols
    for j in range(d):
        cost[j] = -obj[j]
    for k, j in enumerate(free):
        cost[d + k] = obj[j]
    allowed = [j < ncols_core for j in range(tab.ncols)]
    status = tab.run(cost, allowed)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    z = [Fraction(0)] * tab.ncols
    for row, bj in zip(tab.rows, tab.basis):
        z[bj] = Fraction(row[-1], row[bj])
    x = z[:d]
    for k, j in enumerate(free):
        x[j] -= z[d + k]
    point = tuple(x)
    value = dot(obj, point)
    duals = _validate_certificate(problem, cleared, tab, art_cols, ncols_core, sigma, obj, value)
    return LpResult("optimal", value, point, duals)


def _validate_certificate(problem, cleared, tab, art_cols, ncols_core, sigma, obj, value):
    # read the duals y = ys / den off the final reduced costs, check them
    # exactly in integers and return them
    for bj in tab.basis:
        if bj >= ncols_core:
            raise InternalInconsistencyError("artificial variable left in the final basis")
    # every row keeps its slack or artificial column, also a row phase 1 dropped
    rc, den = tab.costs
    n = len(problem.rhs)
    slack0 = ncols_core - n
    ys = rc[slack0:slack0 + n] + [sigma[i] * rc[art_cols[i]] for i in range(n, len(cleared))]
    if any(v < 0 for v in ys[:n]):
        raise InternalInconsistencyError("negative dual multiplier on an inequality row")
    # row i is (a_i, r_i) / den_i; over the common multiple scale of the
    # den_i and of the objective's denominators, y_i times row i is
    # w_i (a_i, r_i) / (den scale), so every check below is scaled by den scale
    scale = lcm(*(dn for _, _, dn in cleared), *(c.denominator for c in obj))
    w = [v * (scale // dn) for v, (_, _, dn) in zip(ys, cleared)]
    for j, c in enumerate(obj):
        reduced = (sum(wi * a[j] for wi, (a, _, _) in zip(w, cleared))
                   - den * c.numerator * (scale // c.denominator))
        if reduced < 0 or (reduced > 0 and j not in problem.nonneg):
            raise InternalInconsistencyError("dual multipliers do not reproduce the objective")
    if sum(wi * r for wi, (_, r, _) in zip(w, cleared)) * value.denominator != value.numerator * den * scale:
        raise InternalInconsistencyError("duality gap in exact arithmetic")
    return tuple(Fraction(v, den) for v in ys)


def is_feasible(normals: Sequence, rhs: Sequence, *, eq_normals: Sequence = (),
                eq_rhs: Sequence = (), nonneg: Iterable[int] = ()) -> bool:
    """Exact feasibility: solve with the zero objective; the arguments are as in make_problem.

    Systems without rows are feasible.
    """
    if len(normals) != len(rhs) or len(eq_normals) != len(eq_rhs):
        raise DimensionMismatchError("inconsistent system dimensions")
    if not normals and not eq_normals:
        return True
    d = len(normals[0] if normals else eq_normals[0])
    problem = make_problem(normals, rhs, [0] * d, eq_normals=eq_normals, eq_rhs=eq_rhs, nonneg=nonneg)
    return solve(problem).status == "optimal"
