"""Reference implementations the tests use to cross-check production code.

Everything here favors the most naive exact method available: Laplace
determinants, Cramer solves, Fourier-Motzkin feasibility, brute-force
subset enumeration. Nothing imports the production linear algebra, so an
agreement between the two routes is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


def laplace_det(m):
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    if n == 2:
        return Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * laplace_det(minor)
    return total


def normalized_volume(simplex):
    """Normalized volume of a lattice simplex, in the lattice of the integer points of its directions.

    With k edge vectors v_i - v_0, that is the gcd of their k x k minors,
    the determinant of the edges in a basis of that lattice; a point has
    volume 1.
    """
    edges = [[x - y for x, y in zip(v, simplex[0])] for v in simplex[1:]]
    if not edges:
        return 1
    minors = itertools.combinations(range(len(edges[0])), len(edges))
    return gcd(*(int(laplace_det([[row[j] for j in cols] for row in edges])) for cols in minors))


def cramer_solve(m, rhs):
    """Unique solution of a square system, or None when det = 0."""
    d = laplace_det(m)
    if d == 0:
        return None
    out = []
    for j in range(len(rhs)):
        col = [row[:j] + [rhs[i]] + row[j + 1:] for i, row in enumerate([list(r) for r in m])]
        out.append(laplace_det(col) / d)
    return tuple(out)


def gauss_rref(matrix):
    """Reduced row echelon form as (nonzero Fraction rows, pivot columns).

    Written independently of the production elimination: Fraction rows,
    the first nonzero entry of a column as its pivot, each pivot row
    divided through before it clears its column.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def gauss_solve(matrix, rhs):
    """One exact solution of a rectangular system, or None if inconsistent.

    Free variables are pinned to zero; a pivot in the right hand side
    column of the augmented reduced form means no solution.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = gauss_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        sol[c] = row[-1]
    return tuple(sol)


def gauss_rank(matrix):
    """Rank as the largest size of a nonzero minor (Laplace determinants)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if laplace_det([[matrix[i][j] for j in cols] for i in rows]) != 0:
                    return k
    return 0


def brute_vertices(normals, rhs):
    """Vertex set by checking every d-subset of rows with Cramer's rule."""
    d = len(normals[0])
    seen = set()
    for subset in itertools.combinations(range(len(normals)), d):
        pt = cramer_solve([list(normals[i]) for i in subset], [rhs[i] for i in subset])
        if pt is None:
            continue
        if all(sum(a * x for a, x in zip(row, pt)) <= b for row, b in zip(normals, rhs)):
            seen.add(pt)
    return seen


def cofactor_normal(points):
    """Normal of the hyperplane through d points of Q^d, by Laplace cofactors.

    Entry j is (-1)^j times the minor of the difference rows p_i - p_0
    without column j; it is zero exactly when the points are affinely
    dependent.
    """
    diffs = [[Fraction(a) - Fraction(b) for a, b in zip(q, points[0])] for q in points[1:]]
    return tuple((-1) ** j * laplace_det([row[:j] + row[j + 1:] for row in diffs])
                 for j in range(len(points[0])))


def brute_facets(points):
    """Facets (primitive integer normal, rhs) of the hull of full-dimensional points.

    Every facet holds d affinely independent points, so the hyperplanes
    through d-subsets that leave every point on one side are the facets.
    """
    pts = sorted({tuple(Fraction(c) for c in pt) for pt in points})
    out = set()
    for subset in itertools.combinations(pts, len(pts[0])):
        normal = cofactor_normal(subset)
        if all(c == 0 for c in normal):
            continue
        den = lcm(*(c.denominator for c in normal))
        ints = [int(c * den) for c in normal]
        g = gcd(*ints)
        ints = tuple(c // g for c in ints)
        values = [sum(a * x for a, x in zip(ints, pt)) for pt in pts]
        v0 = values[pts.index(subset[0])]
        if v0 == max(values):
            out.add((ints, v0))
        if v0 == min(values):
            out.add((tuple(-c for c in ints), -v0))
    return out


def brute_dual_vertices(rays):
    """Vertices of {u : <ray, u> >= 1 for all rays}, by Cramer on every d-subset of rays."""
    d = len(rays[0])
    out = set()
    for subset in itertools.combinations(rays, d):
        u = cramer_solve([list(r) for r in subset], [1] * d)
        if u is not None and all(sum(a * x for a, x in zip(r, u)) >= 1 for r in rays):
            out.add(u)
    return out


def brute_canonicity(rays):
    """Canonicity threshold of the cone over full-rank integer rays, by a box scan.

    Every nonzero lattice point of height below 1 lies in conv(0, rays), so
    the scan covers the bounding box of that hull, keeps the points on the
    inner side of every facet from brute_facets, and takes each height as
    the least <u, x> over the dual vertices u from brute_dual_vertices.
    Returns (1, ()) when no nonzero lattice point has height below 1, and
    otherwise the least height with the sorted points attaining it.
    """
    d = len(rays[0])
    hull = [tuple(Fraction(0) for _ in range(d))] + [tuple(Fraction(x) for x in r) for r in rays]
    facets = brute_facets(hull)
    duals = brute_dual_vertices(rays)

    def inside(x):
        return all(sum(a * xi for a, xi in zip(normal, x)) <= b for normal, b in facets)

    heights = {}
    for x in box_lattice_points(hull, inside):
        if any(x):
            heights[x] = min(sum(u * xi for u, xi in zip(dual, x)) for dual in duals)
    least = min(heights.values(), default=Fraction(1))
    if least >= 1:
        return Fraction(1), ()
    return least, tuple(sorted(x for x, h in heights.items() if h == least))


def fm_project_feasible(normals, rhs):
    """Feasibility of A x <= b by eliminating every variable in order."""
    rows = [([Fraction(a) for a in row], Fraction(b)) for row, b in zip(normals, rhs)]
    ncols = len(normals[0]) if normals else 0
    for col in range(ncols - 1, -1, -1):
        zero, pos, neg = [], [], []
        for coeffs, b in rows:
            c = coeffs[col]
            if c == 0:
                zero.append((coeffs[:col], b))
            elif c > 0:
                pos.append(([x / c for x in coeffs[:col]], b / c))
            else:
                neg.append(([x / -c for x in coeffs[:col]], b / -c))
        rows = zero
        for pc, pb in pos:
            for nc, nb in neg:
                rows.append(([a + bb for a, bb in zip(pc, nc)], pb + nb))
        rows = list({(tuple(c), b) for c, b in rows})
        rows = [([*c], b) for c, b in rows]
    return all(b >= 0 for _, b in rows)


def fm_maximize(normals, rhs, objective):
    """Exact LP max of <objective, x> over A x <= b via Fourier-Motzkin.

    Introduces t = <objective, x> as a pair of inequalities, eliminates all
    x variables, and reads the upper bounds on t. Returns a status string
    and the optimum when one exists.
    """
    if not fm_project_feasible(normals, rhs):
        return "infeasible", None
    n = len(objective)
    rows = []
    for row, b in zip(normals, rhs):
        rows.append(([Fraction(x) for x in row] + [Fraction(0)], Fraction(b)))
    rows.append(([Fraction(-c) for c in objective] + [Fraction(1)], Fraction(0)))
    rows.append(([Fraction(c) for c in objective] + [Fraction(-1)], Fraction(0)))
    for col in range(n - 1, -1, -1):
        zero, pos, neg = [], [], []
        for coeffs, b in rows:
            c = coeffs[col]
            rest = coeffs[:col] + coeffs[col + 1:]
            if c == 0:
                zero.append((rest, b))
            elif c > 0:
                pos.append(([x / c for x in rest], b / c))
            else:
                neg.append(([x / -c for x in rest], b / -c))
        rows = zero
        for pc, pb in pos:
            for nc, nb in neg:
                rows.append(([a + bb for a, bb in zip(pc, nc)], pb + nb))
        rows = [([*c], b) for c, b in {(tuple(c), b) for c, b in rows}]
    best = None
    for coeffs, b in rows:
        c = coeffs[0]
        if c > 0:
            bound = b / c
            if best is None or bound < best:
                best = bound
    if best is None:
        return "unbounded", None
    return "optimal", best


def bland_simplex(normals, rhs, objective, direction="max", eq_normals=(), eq_rhs=(), nonneg=()):
    """Two-phase simplex on a dense Fraction tableau with Bland's rule.

    The reference for the integer tableau of polyadj.lp, which must pivot
    identically. Each row is negated if its right hand side is negative.
    Columns: u_j for every variable, then w_j = -u_j for each free one, a
    slack per inequality row, and an artificial per equality row and per
    negated inequality row. Phase 1 minimizes the artificials, pivots the
    leftover ones out on the first nonzero entry and deletes rows without
    one; phase 2 may not enter artificials. The entering column is the
    first with negative reduced cost; the leaving row has the smallest
    ratio, ties going to the smaller basic column. Reduced costs are
    recomputed from scratch at every step. Returns (status, value, point,
    tight, duals) with the duals of the inequality rows, then of the
    equality rows, read off the slack and artificial reduced costs.
    """
    rows = [[Fraction(x) for x in r] for r in list(normals) + list(eq_normals)]
    b = [Fraction(x) for x in list(rhs) + list(eq_rhs)]
    n, m, d = len(normals), len(rows), len(objective)
    free = [j for j in range(d) if j not in set(nonneg)]
    sign = [-1 if v < 0 else 1 for v in b]
    ncore = d + len(free) + n
    needs_art = [i for i in range(m) if i >= n or sign[i] < 0]
    art = {i: ncore + k for k, i in enumerate(needs_art)}
    width = ncore + len(art)
    tab, basis = [], []
    for i in range(m):
        row = [sign[i] * rows[i][j] for j in range(d)] + [-sign[i] * rows[i][j] for j in free]
        row += [Fraction(sign[i] if k == i else 0) for k in range(n)]
        row += [Fraction(1 if art.get(i) == c else 0) for c in range(ncore, width)]
        tab.append(row + [sign[i] * b[i]])
        basis.append(art[i] if i in art else d + len(free) + i)

    def pivot(r, c):
        tab[r] = [x / tab[r][c] for x in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        basis[r] = c

    def minimize(cost, usable):
        while True:
            rc = [cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(len(tab)))
                  for j in range(width)]
            enter = next((j for j in range(usable) if rc[j] < 0), None)
            if enter is None:
                return rc
            candidates = [i for i in range(len(tab)) if tab[i][enter] > 0]
            if not candidates:
                return None
            pivot(min(candidates, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i])), enter)

    if art:
        minimize([Fraction(int(j >= ncore)) for j in range(width)], width)
        if any(tab[i][-1] != 0 for i in range(len(tab)) if basis[i] >= ncore):
            return "infeasible", None, None, (), ()
        dropped = []
        for i in range(len(tab)):
            if basis[i] >= ncore:
                c = next((j for j in range(ncore) if tab[i][j] != 0), None)
                if c is None:
                    dropped.append(i)
                else:
                    pivot(i, c)
        tab = [row for i, row in enumerate(tab) if i not in dropped]
        basis = [c for i, c in enumerate(basis) if i not in dropped]
    obj = [Fraction(c) if direction == "max" else -Fraction(c) for c in objective]
    cost = [-obj[j] for j in range(d)] + [obj[j] for j in free] + [Fraction(0)] * (width - d - len(free))
    rc = minimize(cost, ncore)
    if rc is None:
        return "unbounded", None, None, (), ()
    z = [Fraction(0)] * width
    for i, c in enumerate(basis):
        z[c] = tab[i][-1]
    point = z[:d]
    for k, j in enumerate(free):
        point[j] -= z[d + k]
    value = sum(c * x for c, x in zip(obj, point))
    tight = tuple(i for i in range(n) if sum(a * x for a, x in zip(rows[i], point)) == b[i])
    duals = [rc[d + len(free) + i] for i in range(n)] + [sign[i] * rc[art[i]] for i in range(n, m)]
    return ("optimal", value if direction == "max" else -value, tuple(point), tight, tuple(duals))


def lp_height(rays, point):
    """Height of point in the cone of rays, as the LP that defines it, by bland_simplex.

    The largest sum(lambda) over lambda >= 0 with sum(lambda_i rays_i) =
    point: one equality row per coordinate, one nonnegative variable per ray.
    """
    m = len(rays)
    columns = [tuple(r[j] for r in rays) for j in range(len(point))]
    status, value, *_ = bland_simplex((), (), (1,) * m, "max", columns, point, nonneg=range(m))
    assert status == "optimal"
    return value


def integer_solvable(matrix, rhs):
    """Whether A w = b has an integer solution, by column Euclid reduction.

    Unimodular column operations preserve integer solvability; after the
    sweep each processed row has a single pivot entry among the still-free
    columns, so a greedy divisibility pass decides the system.
    """
    m = len(matrix)
    d = len(matrix[0]) if m else 0
    work = [[int(x) for x in row] for row in matrix]
    b = [int(x) for x in rhs]
    pivots = []
    r = 0
    for i in range(m):
        while True:
            nz = [j for j in range(r, d) if work[i][j] != 0]
            if len(nz) <= 1:
                break
            j1 = min(nz, key=lambda j: abs(work[i][j]))
            for j2 in nz:
                if j2 == j1:
                    continue
                q = work[i][j2] // work[i][j1]
                if q:
                    for k in range(m):
                        work[k][j2] -= q * work[k][j1]
        nz = [j for j in range(r, d) if work[i][j] != 0]
        if nz:
            j = nz[0]
            if j != r:
                for k in range(m):
                    work[k][r], work[k][j] = work[k][j], work[k][r]
            pivots.append((i, r))
            r += 1
    v = [0] * d
    assigned_rows = set()
    for i, col in pivots:
        residual = b[i] - sum(work[i][c] * v[c] for c in range(col))
        if residual % work[i][col] != 0:
            return False
        v[col] = residual // work[i][col]
        assigned_rows.add(i)
    for i in range(m):
        if i in assigned_rows:
            continue
        if sum(work[i][c] * v[c] for c in range(d)) != b[i]:
            return False
    return True


def prime_factors(n):
    out = set()
    k = 2
    while k * k <= n:
        while n % k == 0:
            out.add(k)
            n //= k
        k += 1
    if n > 1:
        out.add(n)
    return out


def smallest_solvable_level(rays, cap):
    """Least r in 1..cap with an integer u solving <a_i, u> = r, else None."""
    for r in range(1, cap + 1):
        if integer_solvable(rays, [r] * len(rays)):
            return r
    return None


def confirms_minimal_level(rays, r0):
    """Certify r0 as the least positive integer level of the ray matrix.

    The solvable levels form a subgroup g Z of Z: differences of solvable
    levels are solvable, so it suffices that r0 is solvable while r0 / p is
    not, for every prime p dividing r0.
    """
    if not integer_solvable(rays, [r0] * len(rays)):
        return False
    return all(not integer_solvable(rays, [r0 // p] * len(rays))
               for p in prime_factors(r0))


def bisect_critical_shift(normals, rhs, step, is_feasible):
    """Exact critical shift by doubling then bisecting a feasibility bracket.

    is_feasible(c) must answer whether the system A x <= b - c 1 has a
    point. The bracket is narrowed below the grid spacing `step`, and the
    unique grid value inside it is returned after a direct feasibility
    confirmation.
    """
    assert is_feasible(Fraction(0))
    hi = Fraction(1)
    while is_feasible(hi):
        hi *= 2
    lo = Fraction(0)
    while hi - lo >= step:
        mid = (lo + hi) / 2
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    k = -((-lo.numerator * step.denominator) // (lo.denominator * step.numerator))
    candidate = k * step
    assert lo <= candidate < hi
    assert is_feasible(candidate)
    return candidate


def box_lattice_points(vertices_, membership):
    """All lattice points in a bounding box that pass membership."""
    d = len(vertices_[0])
    out = []
    ranges = []
    for j in range(d):
        lo = min(v[j] for v in vertices_)
        hi = max(v[j] for v in vertices_)
        start = -((-lo.numerator) // lo.denominator)
        stop = hi.numerator // hi.denominator
        ranges.append(range(start, stop + 1))
    for pt in itertools.product(*ranges):
        if membership(pt):
            out.append(pt)
    return sorted(out)
