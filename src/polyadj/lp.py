"""Exact rational linear programming.

A problem optimizes c.x subject to inequality rows A x <= b, equality rows
E x = f, and x_j >= 0 for the variables listed in nonneg; every other
variable is free. The solver is a two-phase primal simplex on Fraction
tableaus over the internal form M z = r, z >= 0. Each variable gets a
column u_j, a free one also a column w_j with x_j = u_j - w_j, and each
inequality row a slack. Rows are sign normalized so that r >= 0; inequality
rows with negative right hand side and all equality rows receive
artificial variables for phase 1. Pivoting follows Bland's rule
(lexicographically smallest entering index, ratio ties broken by the
smallest basis variable index), so runs are deterministic and never cycle.
Every optimal solve reads dual multipliers y off the final reduced costs
(of the slack column of each inequality row and of the artificial column
of each equality row) and validates them exactly against the original
rows: y >= 0 on inequality rows (free on equality rows), y.A_j = c_j on
free variables and >= c_j on nonnegative ones, and y.(b, f) equal to the
optimum. A violation raises InternalInconsistencyError since it can only
mean a bug, never roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence

from .errors import DimensionMismatchError, InternalInconsistencyError
from .ratmath import dot

Status = Literal["optimal", "infeasible", "unbounded"]


@dataclass(frozen=True)
class LpProblem:
    normals: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[Fraction, ...]
    direction: Literal["max", "min"] = "max"
    eq_normals: tuple[tuple[Fraction, ...], ...] = ()
    eq_rhs: tuple[Fraction, ...] = ()
    nonneg: tuple[int, ...] = ()


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve; tight lists the inequality rows tight at point."""

    status: Status
    value: Optional[Fraction]
    point: Optional[tuple[Fraction, ...]]
    tight: tuple[int, ...]


def make_problem(normals, rhs, objective, direction="max", *,
                 eq_normals=(), eq_rhs=(), nonneg: Iterable[int] = ()) -> LpProblem:
    normals = tuple(tuple(Fraction(x) for x in row) for row in normals)
    rhs = tuple(Fraction(b) for b in rhs)
    eq_normals = tuple(tuple(Fraction(x) for x in row) for row in eq_normals)
    eq_rhs = tuple(Fraction(b) for b in eq_rhs)
    objective = tuple(Fraction(c) for c in objective)
    d = len(objective)
    if (any(len(row) != d for row in normals + eq_normals) or len(normals) != len(rhs)
            or len(eq_normals) != len(eq_rhs)):
        raise DimensionMismatchError("inconsistent LP dimensions")
    nonneg = set(nonneg)
    if not nonneg <= set(range(d)):
        raise DimensionMismatchError(f"nonneg indices must lie in range({d})")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    return LpProblem(normals, rhs, objective, direction, eq_normals, eq_rhs,
                     tuple(j for j in range(d) if j in nonneg))


class _Tableau:
    """Dense simplex tableau over Fractions with Bland pivoting."""

    def __init__(self, columns, rhs):
        # columns: list of column vectors; rows indexed like rhs
        self.m = len(rhs)
        self.ncols = len(columns)
        self.rows = [[columns[j][i] for j in range(self.ncols)] + [rhs[i]] for i in range(self.m)]
        self.basis: list[int] = [-1] * self.m
        self.art_cols: dict[int, int] = {}  # phase-1 artificial column per original row

    def pivot(self, r, c):
        row = self.rows[r]
        piv = row[c]
        inv = 1 / piv
        self.rows[r] = [a * inv for a in row]
        prow = self.rows[r]
        for i in range(self.m):
            if i == r:
                continue
            f = self.rows[i][c]
            if f != 0:
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], prow)]
        self.basis[r] = c

    def reduced_costs(self, cost):
        # cost: per-column objective (to minimize); returns the reduced cost row
        rc = list(cost) + [Fraction(0)]
        for i, bj in enumerate(self.basis):
            cb = cost[bj]
            if cb != 0:
                row = self.rows[i]
                rc = [a - cb * b for a, b in zip(rc, row)]
        return rc

    def run(self, cost, allowed) -> Status:
        """Minimize cost over the current basis; allowed marks usable columns."""
        rc = self.reduced_costs(cost)
        while True:
            enter = next((j for j in range(self.ncols) if allowed[j] and rc[j] < 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)
            f = rc[enter]
            rc = [a - f * b for a, b in zip(rc, self.rows[leave])]


def _setup(problem: LpProblem):
    # internal minimization of c~.z over M z = r, z >= 0. Columns: u_j per
    # variable, w_j per free variable, then a slack per inequality row.
    # start[i] is the slack column basic in row i when phase 1 begins, or
    # None when the row needs an artificial.
    n = len(problem.rhs)
    rows = problem.normals + problem.eq_normals
    b = problem.rhs + problem.eq_rhs
    m = len(rows)
    sigma = [1 if v >= 0 else -1 for v in b]
    columns = [[sigma[i] * rows[i][j] for i in range(m)] for j in range(len(problem.objective))]
    columns += [[-sigma[i] * rows[i][j] for i in range(m)]
                for j in range(len(problem.objective)) if j not in problem.nonneg]
    start: list[Optional[int]] = [None] * m
    for i in range(n):
        col = [Fraction(0)] * m
        col[i] = Fraction(sigma[i])
        if sigma[i] > 0:
            start[i] = len(columns)
        columns.append(col)
    rhs = [sigma[i] * b[i] for i in range(m)]
    return sigma, columns, rhs, start


def _phase1(tab: _Tableau, start, ncols_core):
    n = tab.m
    art_cols = tab.art_cols
    for i in range(n):
        if start[i] is not None:
            tab.basis[i] = start[i]
        else:
            col = [Fraction(0)] * n
            col[i] = Fraction(1)
            for k in range(n):
                tab.rows[k].insert(len(tab.rows[k]) - 1, col[k])
            art_cols[i] = tab.ncols
            tab.basis[i] = tab.ncols
            tab.ncols += 1
    if not art_cols:
        return True
    cost = [Fraction(0)] * tab.ncols
    for c in art_cols.values():
        cost[c] = Fraction(1)
    allowed = [True] * tab.ncols
    status = tab.run(cost, allowed)
    assert status == "optimal"  # phase 1 is bounded below by 0
    value = sum((cost[bj] * tab.rows[i][-1] for i, bj in enumerate(tab.basis)), Fraction(0))
    if value != 0:
        return False
    # pivot leftover artificials out, dropping rows that became redundant
    art_set = set(art_cols.values())
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
    """Solve an LP exactly; see the module docstring for the method."""
    problem = make_problem(problem.normals, problem.rhs, problem.objective, problem.direction,
                           eq_normals=problem.eq_normals, eq_rhs=problem.eq_rhs,
                           nonneg=problem.nonneg)
    d = len(problem.objective)
    obj = problem.objective if problem.direction == "max" else tuple(-c for c in problem.objective)

    sigma, columns, rhs, start = _setup(problem)
    ncols_core = len(columns)
    tab = _Tableau(columns, rhs)
    if not _phase1(tab, start, ncols_core):
        return LpResult("infeasible", None, None, ())

    free = [j for j in range(d) if j not in problem.nonneg]
    cost = [Fraction(0)] * tab.ncols
    for j in range(d):
        cost[j] = -obj[j]
    for k, j in enumerate(free):
        cost[d + k] = obj[j]
    allowed = [j < ncols_core for j in range(tab.ncols)]
    status = tab.run(cost, allowed)
    if status == "unbounded":
        return LpResult("unbounded", None, None, ())

    z = [Fraction(0)] * tab.ncols
    for i, bj in enumerate(tab.basis):
        z[bj] = tab.rows[i][-1]
    x = z[:d]
    for k, j in enumerate(free):
        x[j] -= z[d + k]
    point = tuple(x)
    value = dot(obj, point)
    _validate_certificate(problem, tab, cost, columns, sigma, obj, value)
    tight = tuple(i for i, (a, b) in enumerate(zip(problem.normals, problem.rhs)) if dot(a, point) == b)
    out_value = value if problem.direction == "max" else -value
    return LpResult("optimal", out_value, point, tight)


def _validate_certificate(problem, tab, cost, columns, sigma, obj, value):
    # read the duals off the final reduced costs and check them exactly
    rows = problem.normals + problem.eq_normals
    b = problem.rhs + problem.eq_rhs
    for bj in tab.basis:
        if bj >= len(columns):
            raise InternalInconsistencyError("artificial variable left in the final basis")
    # every row keeps its slack or artificial column, also a row phase 1 dropped
    rc = tab.reduced_costs(cost)
    n = len(problem.rhs)
    slack0 = len(columns) - n
    y = [rc[slack0 + i] for i in range(n)]
    y += [sigma[i] * rc[tab.art_cols[i]] for i in range(n, len(rows))]
    if any(yi < 0 for yi in y[:n]):
        raise InternalInconsistencyError("negative dual multiplier on an inequality row")
    for j in range(len(obj)):
        reduced = sum(y[i] * rows[i][j] for i in range(len(rows))) - obj[j]
        if reduced < 0 or (reduced > 0 and j not in problem.nonneg):
            raise InternalInconsistencyError("dual multipliers do not reproduce the objective")
    if sum(y[i] * b[i] for i in range(len(rows))) != value:
        raise InternalInconsistencyError("duality gap in exact arithmetic")


def is_feasible(normals: Sequence, rhs: Sequence, *, eq_normals: Sequence = (),
                eq_rhs: Sequence = (), nonneg: Iterable[int] = ()) -> bool:
    """Exact feasibility via phase 1 only; the arguments are as in make_problem.

    Systems without rows are feasible.
    """
    if len(normals) != len(rhs) or len(eq_normals) != len(eq_rhs):
        raise DimensionMismatchError("inconsistent system dimensions")
    if not normals and not eq_normals:
        return True
    d = len(normals[0] if normals else eq_normals[0])
    problem = make_problem(normals, rhs, [Fraction(0)] * d,
                           eq_normals=eq_normals, eq_rhs=eq_rhs, nonneg=nonneg)
    _, columns, rhs_n, start = _setup(problem)
    return _phase1(_Tableau(columns, rhs_n), start, len(columns))
