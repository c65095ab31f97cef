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

The tableau is fraction free and stored by its structural block. Each row
of M z = r, artificial columns included, is scaled once to coprime
integers. A tableau row stands for its integer vector divided by its basic
entry, which is kept positive, and is rewritten at a pivot on (r, c) to
T_r[c] T_i - T_i[c] T_r divided by the gcd of its entries. Only the rows
whose basic column is structural (a u or a w) are stored, at most one per
variable, however many rows the problem has. A row whose basic column is a
slack or an artificial is that column's one original row M_i less M_i's
multiples of the stored rows (its entries at their basic columns): the
ratio test reads its entry in the entering column and its basic value
that way, at a few products each, and the pivot row is formed in full only
when such a row leaves. The reduced cost row is an integer vector over one
positive denominator, priced out by each pivot row. Bland's entering test
reads only signs, and the ratio test compares cross products, b_i a_k <
b_k a_i; both are invariant under positive row scaling, so the pivots, the
final basis and everything read off it are exactly those of a Fraction
tableau. Fractions reappear only when the point, the value and the duals
are returned. The value is read off the point, not off the cost row: the
sum from Fraction 0 of its terms c_j x_j with c_j and x_j both nonzero,
so the duality-gap check below tests the point returned.

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

solve takes the rows, right hand sides and objective as sequences and
checks their shapes and the nonneg indices itself. It reads each entry
once, an int or a Fraction by its numerator and denominator and any other
entry as a Fraction, so a float is read exactly. is_feasible is solve with
the zero objective, which phase 2 finds optimal at once on any feasible
system. The library's one LP is the critical-shift solve of adjunction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, Optional, Sequence

from .errors import DimensionMismatchError, InternalInconsistencyError
from .ratmath import common_denominator, exact_entries
from .record import record

Status = Literal["optimal", "infeasible", "unbounded"]
_ZERO = Fraction(0)


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


def _pivot(rows: list[Optional[list[int]]], basis: list[int], r: int, c: int) -> None:
    """Pivot on (r, c): a stored row i stands for rows[i] / rows[i][basis[i]],
    whose basic entry is kept positive; a row stored as None is left alone."""
    prow = rows[r]
    p = prow[c]
    if p < 0:  # only a phase-1 drop pivot lands on a negative entry
        prow = rows[r] = [-a for a in prow]
        p = -p
    for i, row in enumerate(rows):
        if row is not None and i != r:
            q = row[c]
            if q:
                rows[i] = _reduced([p * a - q * b for a, b in zip(row, prow)])
    basis[r] = c


class _Tableau:
    """The tableau of M z = r at a basis, stored by its structural block.

    Position p of the basis holds the basic column basis[p]. Where that is
    a structural column (below slack0), rows[p] is the position's tableau
    row. Elsewhere rows[p] is None: the basic column is the slack or the
    artificial of one original row M_i, the only row where it is nonzero,
    and the tableau row of the position is (M_i - sum_k M_i[b_k] T_k) / s
    over the stored rows T_k with basic columns b_k, s being M_i's entry in
    the basic column.
    """

    def __init__(self, basis: list[int], slack0: int, home: list):
        self.basis, self.slack0 = basis, slack0
        self.home = home  # the original row M_i of each slack or artificial column, by column
        self.rows: list[Optional[list[int]]] = [None] * len(basis)

    def _block(self) -> list[tuple[int, int, list[int]]]:
        """[(b_k, T_k[b_k], T_k)] over the stored rows T_k."""
        return [(bj, row[bj], row) for bj, row in zip(self.basis, self.rows) if row is not None]

    def row(self, p: int) -> list[int]:
        """The tableau row of position p, an integer vector over its positive basic entry."""
        row = self.rows[p]
        if row is None:
            bj = self.basis[p]
            m = row = self.home[bj]
            scale = 1  # row / scale is M_i less the stored rows taken so far
            for k, beta, brow in self._block():
                if m[k]:
                    g = m[k] * scale
                    row = [beta * a - g * b for a, b in zip(row, brow)]
                    scale *= beta
            if row is not m:
                row = _reduced(row)
            if row[bj] < 0:
                row = [-a for a in row]
        return row

    def leaving(self, c: int) -> Optional[int]:
        """The position that leaves when column c enters, by Bland's ratio
        test, or None when no entry of column c is positive."""
        block = self._block()
        home = self.home
        leave = None
        for p, (bj, row) in enumerate(zip(self.basis, self.rows)):
            # the entry a in column c and the basic value b, over one positive scale
            if row is None:
                m = home[bj]
                a, b, scale = m[c], m[-1], 1
                for k, beta, brow in block:
                    if m[k]:
                        g = m[k] * scale
                        a, b = beta * a - g * brow[c], beta * b - g * brow[-1]
                        scale *= beta
                if m[bj] < 0:
                    a, b = -a, -b
            else:
                a, b = row[c], row[-1]
            if a > 0:
                # ratios b / a, compared by cross products
                if leave is not None:
                    lhs, rhs = b * lead[0], lead[1] * a
                    if lhs > rhs or (lhs == rhs and bj > lead[2]):
                        continue
                leave, lead = p, (a, b, bj)
        return leave

    def pivot(self, p: int, c: int) -> list[int]:
        """Pivot on (p, c) and return the pivot row, with a positive entry in column c."""
        rows = self.rows
        if rows[p] is None:
            rows[p] = self.row(p)
        _pivot(rows, self.basis, p, c)
        prow = rows[p]
        if c >= self.slack0:
            rows[p] = None
        return prow


def _run(tab: _Tableau, cost: list, ncols: int) -> Optional[tuple[list[int], int]]:
    """Minimize cost.z from the tableau's basis by Bland's rule, entering
    only the first ncols columns; the tableau is pivoted in place.

    Returns the final reduced cost row, rhs column included, as integers
    over a positive denominator, or None when the minimum is unbounded.
    """
    rc, den = common_denominator(cost)
    rc.append(0)
    for p, bj in enumerate(tab.basis):
        if rc[bj]:
            rc, den = _priced_out(rc, den, tab.row(p), bj)
    while True:
        enter = next((j for j in range(ncols) if rc[j] < 0), None)
        if enter is None:
            return rc, den
        leave = tab.leaving(enter)
        if leave is None:
            return None
        rc, den = _priced_out(rc, den, tab.pivot(leave, enter), enter)


def solve(normals: Sequence, rhs: Sequence, objective: Sequence, *, eq_normals: Sequence = (),
          eq_rhs: Sequence = (), nonneg: Iterable[int] = ()) -> LpResult:
    """Maximize objective.x over the rows exactly; see the module docstring for the method.

    Raises DimensionMismatchError when a row's length is not the
    objective's, the rows and right hand sides differ in number, or an
    index in nonneg lies outside range(len(objective)).
    """
    obj = exact_entries(objective)
    d, n = len(obj), len(normals)
    system = (*normals, *eq_normals)
    if n != len(rhs) or len(eq_normals) != len(eq_rhs) or any(len(a) != d for a in system):
        raise DimensionMismatchError("inconsistent LP dimensions")
    nonneg = set(nonneg)
    if not nonneg <= set(range(d)):
        raise DimensionMismatchError(f"nonneg indices must lie in range({d})")
    free = [j for j in range(d) if j not in nonneg]
    # each row (a, b), inequality rows first, as the integers (a den, b den)
    # over the least den > 0
    cleared = [common_denominator(exact_entries((*a, b))) for a, b in zip(system, (*rhs, *eq_rhs))]

    # internal minimization of c~.z over M z = r, z >= 0. Columns: u_j per
    # variable, w_j per free variable, a slack per inequality row, then an
    # artificial per row whose slack cannot start basic (a negative right
    # hand side before sign normalization, or an equality row)
    sigma = [1 if nums[-1] >= 0 else -1 for nums, _ in cleared]
    slack0 = d + len(free)
    ncore = slack0 + n  # the columns before the artificials
    art: dict[int, int] = {}
    for i, s in enumerate(sigma):
        if i >= n or s < 0:
            art[i] = ncore + len(art)
    ncols = ncore + len(art)
    orig = []
    for i, (nums, den) in enumerate(cleared):
        # the row times sigma[i] * den, already coprime: it holds +-den at its
        # slack or artificial, and no prime divides both den and every
        # numerator, since den is the least common denominator of the row
        u = [sigma[i] * x for x in nums[:-1]]
        extra = [0] * (n + len(art))
        if i < n:
            extra[i] = sigma[i] * den
        if i in art:
            extra[art[i] - slack0] = den
        orig.append(u + [-u[j] for j in free] + extra + [sigma[i] * nums[-1]])
    home = [None] * slack0 + orig[:n] + [orig[i] for i in art]
    tab = _Tableau([art.get(i, slack0 + i) for i in range(len(orig))], slack0, home)

    if art:
        rc, _ = _run(tab, [0] * ncore + [1] * len(art), ncols)  # bounded below by 0
        if rc[-1]:  # minus the sum of the artificials
            return LpResult("infeasible", None, None)
        # pivot leftover artificials out in row order, then delete the rows
        # that became redundant
        drop = []
        for p, bj in enumerate(tab.basis):
            if bj >= ncore:
                row = tab.row(p)
                c = next((j for j in range(ncore) if row[j]), None)
                if c is None:
                    drop.append(p)
                else:
                    tab.rows[p] = row
                    tab.pivot(p, c)
        for p in reversed(drop):
            del tab.rows[p], tab.basis[p]

    cost = [-c for c in obj] + [obj[j] for j in free] + [0] * (ncols - slack0)
    costs = _run(tab, cost, ncore)
    if costs is None:
        return LpResult("unbounded", None, None)
    # the point reads only the columns before the slacks: x_j = u_j - w_j,
    # and the two columns are never both basic
    x = [_ZERO] * d
    for row, bj in zip(tab.rows, tab.basis):
        if row is not None:
            if bj < d:
                x[bj] = Fraction(row[-1], row[bj])
            else:
                x[free[bj - d]] = Fraction(-row[-1], row[bj])
    point = tuple(x)
    value = sum((c * v for c, v in zip(obj, point) if c and v), _ZERO)

    # the certificate: read the duals y = ys / den off the final reduced
    # costs, check them exactly in integers and return them
    if any(bj >= ncore for bj in tab.basis):
        raise InternalInconsistencyError("artificial variable left in the final basis")
    # every row keeps its slack or artificial column, also a row phase 1 dropped
    rc, den = costs
    ys = rc[slack0:ncore] + [sigma[i] * rc[art[i]] for i in range(n, len(cleared))]
    if any(v < 0 for v in ys[:n]):
        raise InternalInconsistencyError("negative dual multiplier on an inequality row")
    # row i is (a_i, r_i) / den_i; over the common multiple scale of the
    # den_i and of the objective's denominators, y_i times row i is
    # w_i (a_i, r_i) / (den scale), so every check below is scaled by den scale
    scale = lcm(*(dn for _, dn in cleared), *(c.denominator for c in obj))
    w = [(v * (scale // dn), nums) for v, (nums, dn) in zip(ys, cleared) if v]
    for j, c in enumerate(obj):
        reduced = sum(wi * nums[j] for wi, nums in w) - den * c.numerator * (scale // c.denominator)
        if reduced < 0 or (reduced > 0 and j not in nonneg):
            raise InternalInconsistencyError("dual multipliers do not reproduce the objective")
    if sum(wi * nums[-1] for wi, nums in w) * value.denominator != value.numerator * den * scale:
        raise InternalInconsistencyError("duality gap in exact arithmetic")
    return LpResult("optimal", value, point, tuple(Fraction(v, den) if v else _ZERO for v in ys))


def is_feasible(normals: Sequence, rhs: Sequence, *, eq_normals: Sequence = (),
                eq_rhs: Sequence = (), nonneg: Iterable[int] = ()) -> bool:
    """Exact feasibility: solve with the zero objective; the arguments are as in solve.

    Systems without rows are feasible.
    """
    rows = (*normals, *eq_normals)
    if not rows and not rhs and not eq_rhs:
        return True
    return solve(normals, rhs, [0] * len(rows[0] if rows else ()), eq_normals=eq_normals,
                 eq_rhs=eq_rhs, nonneg=nonneg).status == "optimal"
