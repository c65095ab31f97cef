"""Exact polytopes: H and V representations, canonicalization, hulls,
lattice point enumeration, and embeddings of lower-dimensional sets.

One integer routine, double_description, gives the extreme rays of a cone
with the rows tight at each, and a basis of its lineality. Off it
from_inequalities reads the facets and vertices of an inequality system,
from_vertices those of a hull, hull_any_dim and embed_system those of a
set of any dimension (_embedded), implicit_equalities the implicit
equalities of a system, and fan the facets and dual height vertices of a
cone. Lattice points are listed coordinate by coordinate: projected_levels
bounds each coordinate by the cone of the set's valid rows
(_valid_row_cone) cut down by equalities (_projections), and level_points
walks those levels at any shrink.

Conventions. An HPolytope is bounded, full-dimensional and irredundant,
with primitive integer facet normals, Fraction right hand sides and rows
sorted by normal; two HPolytopes are equal iff their row sets are.
Possibly empty or degenerate systems are InequalitySystems. A compact set
of any dimension is an EmbeddedPolytope in ambient coordinates: the
equations of its affine hull (an AffineSubspace), its facet rows and its
vertices, with no local coordinates. Vertices are sorted, and a
polytope's incidence is one bitmask per facet row: bit k of incidence[i]
is set iff facet i is tight at the k-th vertex. Both records hold them
from the moment they are built; nothing fills them in later. Nothing here
uses floating point, and the module imports no LP.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    EmptyPolytopeError,
    InternalInconsistencyError,
    LowerDimensionalError,
    NonUnimodularError,
    UnboundedPolytopeError,
)
from .ratmath import (
    IntVector,
    _int_kernels,
    common_denominator,
    det,
    dot,
    exact_entries,
    int_vector,
    integer_kernel_basis,
    null_basis,
    primitivize,
    saturate,
    vec_add,
)
from .record import record


@record
class HPolytope:
    """Bounded full-dimensional polytope {x : normals[i] . x <= rhs[i]}.

    vertices are sorted, and incidence holds the facets' tight sets over
    them. The constructors pass both in; a polytope built by hand without
    them must be from_inequalities of its rows, whose errors it raises,
    and raises ValueError when the rows differ; it then holds the
    canonical polytope's fields, so its rhs are Fractions as theirs are.
    """

    dim: int
    normals: tuple[IntVector, ...]
    rhs: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...] = None
    incidence: tuple[int, ...] = None

    def __post_init__(self):
        if self.vertices is None or self.incidence is None:
            canonical = from_inequalities(list(zip(self.normals, self.rhs)))
            if canonical != self:
                raise ValueError("a hand-built HPolytope must have the rows from_inequalities gives")
            for name in ("dim", "normals", "rhs", "vertices", "incidence"):
                object.__setattr__(self, name, getattr(canonical, name))

    @property
    def n_facets(self) -> int:
        return len(self.normals)

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        if strict:
            return all(dot(a, point) < b for a, b in zip(self.normals, self.rhs))
        return all(dot(a, point) <= b for a, b in zip(self.normals, self.rhs))


@record
class AffineSubspace:
    """Affine subspace {x : <a, x> = beta for every equation (a, beta)}.

    equations: primitive integer normals with rational offsets, sign and
    order normalized; dim is the dimension of the subspace.
    """

    dim: int
    ambient_dim: int
    equations: tuple[tuple[IntVector, Fraction], ...]

    def contains(self, point: Sequence) -> bool:
        return all(dot(a, point) == beta for a, beta in self.equations)


@record
class EmbeddedPolytope:
    """A compact convex set of any dimension inside R^d, in ambient coordinates.

    subspace is its affine hull. facets are rows <a, x> <= beta, primitive
    integer a and sorted, that cut the set out of the subspace (none when
    the set is a single point); on a flat set each is one representative
    modulo the equations. vertices are sorted, and incidence holds the
    facets' tight sets over them. The constructors pass it in; a set built
    by hand without it must be the hull of its vertices (_embedded), or
    raises ValueError; it then holds that hull's fields, incidence too.
    """

    subspace: AffineSubspace
    facets: tuple[tuple[IntVector, Fraction], ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    incidence: tuple[int, ...] = None

    def __post_init__(self):
        if self.incidence is None:
            canonical = _embedded(_distinct_points(self.vertices))
            if canonical != self:
                raise ValueError("a hand-built EmbeddedPolytope must be the hull of its vertices")
            for name in ("subspace", "facets", "vertices", "incidence"):
                object.__setattr__(self, name, getattr(canonical, name))

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def ambient_dim(self) -> int:
        return self.subspace.ambient_dim

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        """Membership; strict means relative interior."""
        if not self.subspace.contains(point):
            return False
        if strict:
            return all(dot(a, point) < beta for a, beta in self.facets)
        return all(dot(a, point) <= beta for a, beta in self.facets)


@record
class InequalitySystem:
    """Raw finite system A x <= b, possibly empty, redundant, or degenerate."""

    dim: int
    normals: tuple[IntVector, ...]
    rhs: tuple[Fraction, ...]

    contains = HPolytope.contains


def make_system(rows: Sequence[tuple[Sequence, object]]) -> InequalitySystem:
    """Build an InequalitySystem from (normal, rhs) pairs without canonicalizing."""
    normals = []
    rhs = []
    for a, b in rows:
        normals.append(int_vector(a))
        rhs.append(_as_fraction(b))
    if not normals:
        raise DimensionMismatchError("cannot infer dimension of an empty system")
    dim = len(normals[0])
    if any(len(a) != dim for a in normals):
        raise DimensionMismatchError("mixed normal lengths")
    return InequalitySystem(dim, tuple(normals), tuple(rhs))


def from_inequalities(rows: Sequence[tuple[Sequence, object]]) -> HPolytope:
    """Canonicalize a raw inequality system into an HPolytope.

    Each normal, read once by make_system, is divided by the gcd of its
    entries when that exceeds 1 (its right hand side along), duplicate
    normals keep the binding (minimum) right hand side, and rows are sorted
    by normal. Everything comes from one double description of the
    homogenized cone {(x, s) : b s - <a, x> >= 0, s >= 0}, with no LP: no
    ray with s > 0 means the set is empty, a lineality or a ray with s = 0
    that it is unbounded (_bounded_vertices), a row tight at every vertex x / s
    that it is flat, and the facets are the rows whose vertex sets are
    nonempty and maximal under inclusion. The result carries its vertices
    and incidence. Raises EmptyPolytopeError, UnboundedPolytopeError, or
    LowerDimensionalError, in that order, when the described set is not a
    bounded full-dimensional polytope.
    """
    if not rows:
        raise UnboundedPolytopeError("no constraints describe all of space")
    system = make_system(rows)
    merged: dict[IntVector, Fraction] = {}
    for vec, b in zip(system.normals, system.rhs):
        g = gcd(*vec)
        if not g:
            if b < 0:
                raise EmptyPolytopeError("row 0 <= b with negative b")
            continue
        if g > 1:
            vec, b = tuple([x // g for x in vec]), b / g
        if vec not in merged or b < merged[vec]:
            merged[vec] = b
    if not merged:
        raise UnboundedPolytopeError("only trivial constraints given")
    normals, rhs, d = list(merged), list(merged.values()), system.dim
    pairs = _bounded_vertices(normals, rhs, d)
    on = _ray_sets(pairs, range(1, len(normals) + 1))
    if (1 << len(pairs)) - 1 in on:
        raise LowerDimensionalError("a row is tight at every vertex")
    normals, rhs, incidence = zip(*sorted((normals[i], rhs[i], on[i]) for i in _maximal(on)))
    return HPolytope(d, normals, rhs, tuple(v for v, _ in pairs), incidence)


def _ray_sets(rays, bits: range) -> list[int]:
    """For each row k in bits (bit k of a ray's tight set), the set of the rays tight on it, bit j for rays[j].

    Each tight set is read by its set bits alone.
    """
    sets, mask = [0] * len(bits), (1 << len(bits)) - 1
    for j, (_, t) in enumerate(rays):
        t = t >> bits.start & mask
        while t:
            sets[(t & -t).bit_length() - 1] |= 1 << j
            t &= t - 1
    return sets


def _maximal(sets: list[int]) -> list[int]:
    """Positions of the sets that are nonempty and maximal under inclusion."""
    return [i for i, m in enumerate(sets) if m and not [o for o in sets if m & o == m != o]]


def _integer_row(a: IntVector, beta) -> IntVector:
    """The row <a, x> <= beta as one integer vector (a, beta), primitive when a is."""
    q = beta.denominator
    return (*[q * x for x in a], beta.numerator)


def double_description(rows: Sequence[Sequence[int]], n: int, key=None) -> tuple[tuple[tuple[IntVector, int], ...],
                                                                                  tuple[IntVector, ...]]:
    """Extreme rays and lineality of the cone {z in Q^n : <r, z> >= 0}.

    Integer double description (Motzkin; Fukuda and Prodon, 1996): start
    from a lineality basis of Q^n and add the integer rows one at a time. A
    row nonzero on a lineality vector turns it into a ray; any other row
    drops the rays on its negative side and combines each pair it separates
    that is adjacent: no third ray is tight on every row both are tight on
    (tight sets are bitmasks). Returns (rays, lineality): the pairs (ray,
    tight set) sorted by ray, where bit k of the tight set is set iff
    <rows[k], ray> = 0, and a basis of primitive integer vectors of the
    lineality space {z : <r, z> = 0 for every row}. The cone is the rays'
    cone plus that space; every row vanishes on it, so the tight sets are
    those of the extreme rays of the cone modulo its lineality. Every
    vector is primitive, so one on which a row vanishes is kept as it is.

    The pivot stage (_pivots) takes the rows in index order and adds each
    nonzero on the lineality left; the others wait, and are added after in
    index order, or sorted by key(k) with a key, each still on bit k. The
    pivots and the lineality are those of index order, and every ray lies
    in the span of the pivot stage's rays, where each extreme ray modulo
    the lineality has one primitive representative, so the result does not
    depend on the order of the rows that waited. The order decides only
    how many rays the steps between make.
    """
    rays, lineality, waiting = _pivots(rows, n)
    if key is not None:
        waiting = sorted(waiting, key=lambda w: key(w[0]))
    return _add_waiting(rays, lineality, waiting)


def _pivots(rows: Sequence[Sequence[int]], n: int) -> tuple:
    """The pivot stage of double_description: (rays, lineality, waiting), its start.

    Rows are taken in index order; each nonzero on the lineality left is
    a pivot (_lift), and waiting holds the (k, row) of the others, in
    index order. The lineality is then that of all the rows. A pivot marks
    every earlier row, one that waits too, on which it does vanish: a
    waiting row f is a combination of the pivot rows before it, so until f
    is added a ray marks it exactly when it is tight on all of those, as is
    any third ray tight on every row two such rays share. So the marks
    change no adjacency test, whatever order the waiting rows take.
    """
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError(f"rows of a cone in dimension {n} have other lengths")
    lineality = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    rays: list[tuple[IntVector, int]] = []  # (ray, bitmask of the rows tight at it)
    waiting = []
    for k, row in enumerate(rows):
        lifted = lineality and _lift(rays, lineality, row, 1 << k)
        if lifted:
            rays, lineality = lifted
        else:
            waiting.append((k, row))
    return tuple(rays), tuple(lineality), tuple(waiting)


def _add_waiting(rays, lineality, waiting) -> tuple[tuple[tuple[IntVector, int], ...], tuple[IntVector, ...]]:
    """(rays, lineality) cut by each (k, row) of waiting in turn, on bit k, as double_description returns it."""
    for k, row in waiting:
        rays, lineality = _add_row(rays, lineality, row, 1 << k)
    return tuple(sorted(rays)), tuple(lineality)


def _lift(rays, lineality, row: Sequence[int], bit: int):
    """The pivot step of double_description: the cone of rays and lineality cut by <row, z> >= 0.

    None when the row vanishes on the lineality, where _add_row takes the
    step. bit is the row's bit in the tight sets; bit 0 marks no row, as
    _cut needs. The step makes one pass and takes the row once on each
    vector it reaches. It takes the row on the lineality up to the first
    vector where it is nonzero, the pivot, then on each ray and each later
    lineality vector, and lifts those on which it is nonzero onto its
    hyperplane, by one comb call each; the vectors before the pivot stay
    as they are, since the row vanishes on them. The pivot becomes a ray,
    tight on every earlier row. Each value and each new vector is one call
    to the int kernels unrolled for the row's length (ratmath._int_kernels),
    as in _add_row.
    """
    value, comb = _int_kernels(len(row))
    for i, pivot in enumerate(lineality):
        a = value(row, pivot)
        if not a:
            continue
        if a < 0:
            pivot, a = tuple(-x for x in pivot), -a
        # each z becomes the primitive part of a z - <row, z> pivot, on which the row vanishes
        lifted, rest = [], list(lineality[:i])
        for z, t in rays:
            b = value(row, z)
            if b:
                z = comb(a, z, b, pivot)
            lifted.append((z, t | bit))
        lifted.append((pivot, bit - 1))
        for z in lineality[i + 1:]:
            b = value(row, z)
            if b:
                z = comb(a, z, b, pivot)
            rest.append(z)
        return lifted, rest
    return None


def _add_row(rays, lineality, row: Sequence[int], bit: int) -> tuple[list, list]:
    """The pair step of double_description: the cone of rays and lineality cut by <row, z> >= 0.

    The row vanishes on the lineality, and bit is as for _lift. The rays
    come back unsorted. The pass takes each ray's value and tight set once.
    """
    value, comb = _int_kernels(len(row))
    kept, positive, negative, tights = [], [], [], []
    for z, t in rays:
        v = value(row, z)
        tights.append(t)
        if v > 0:
            kept.append((z, t))
            positive.append((v, z, t))
        elif v < 0:
            negative.append((v, z, t))
        else:
            kept.append((z, t | bit))
    if positive and negative:
        need = len(row) - len(lineality) - 2
        for vi, zi, ti in positive:
            for vj, zj, tj in negative:
                common = ti & tj
                if common.bit_count() < need:
                    continue
                # adjacent iff the pair are the only rays tight on all of common
                seen = 0
                for t in tights:
                    if t & common == common:
                        seen += 1
                        if seen == 3:
                            break
                else:
                    # the primitive part of vi zj + |vj| zi, on which the row vanishes
                    kept.append((comb(vi, zj, vj, zi), common | bit))
    return kept, lineality


def _cut(rays, lineality, c: int, n: int) -> tuple[list, list]:
    """The cone of rays and lineality in Q^n cut by {z_c = 0}, with coordinate c dropped.

    The cut is the face {z_c = 0} of the cone cut by z_c >= 0, so it is one
    step on the unit row e_c (_lift, or _add_row when every lineality
    vector has z_c = 0), marking no row, of which only the vectors with
    z_c = 0 are kept: a ray there stays, with its tight set,
    each adjacent pair across the hyperplane is combined, with the tight
    set they share, and a lineality vector nonzero there is the pivot,
    which leaves as a ray with z_c > 0. The tight sets thus stay those of
    the cone's own rows.
    """
    unit = (0,) * c + (1,) + (0,) * (n - 1 - c)
    rays, lineality = lineality and _lift(rays, lineality, unit, 0) or _add_row(rays, lineality, unit, 0)
    return [(z[:c] + z[c + 1:], t) for z, t in rays if not z[c]], [z[:c] + z[c + 1:] for z in lineality]


def _homogenized(normals, rhs, d: int):
    """double_description of {(x, s) : s >= 0, b_i s - <a_i, x> >= 0} for a nonempty system.

    Row i is bit i + 1 of each ray's tight set. The lineality is {(x, 0) :
    <a_i, x> = 0 for all i}, the lines of the set, so s is read off the
    rays alone. Raises EmptyPolytopeError when no ray has s > 0.
    """
    rows = [(0,) * d + (1,)]
    for a, b in zip(normals, rhs):
        # b s - <a, x> >= 0 as the integers (-q a, p) of b = p / q
        q = -b.denominator
        rows.append((*[q * x for x in a], b.numerator))
    rays, lineality = double_description(rows, d + 1)
    if not any(z[d] for z, _ in rays):
        raise EmptyPolytopeError("system has no solution")
    return rays, lineality


def _bounded_vertices(normals, rhs, d: int):
    """The sorted (vertex, tight set) pairs of a nonempty bounded system, each vertex x / s of a homogenized ray.

    Raises EmptyPolytopeError, then UnboundedPolytopeError when the set
    contains a line (a lineality), then when it has a ray (s = 0). The
    vertices are sorted by the integer keys x (L // s), L the lcm of the
    s, which order them as their values do (distinct primitive rays give
    distinct vertices), and then each is built once, of ints when s = 1.
    """
    rays, lineality = _homogenized(normals, rhs, d)
    if lineality:
        raise UnboundedPolytopeError("the solution set contains a line")
    scale = lcm(*[z[d] for z, _ in rays])
    if not scale:
        raise UnboundedPolytopeError("the solution set has a recession direction")
    keyed = []
    for z, t in rays:
        m = scale // z[d]
        keyed.append(([m * x for x in z[:d]], z, t))
    keyed.sort()
    return [(tuple(map(Fraction, z[:d])) if z[d] == 1 else tuple([Fraction(x, z[d]) for x in z[:d]]), t)
            for _, z, t in keyed]


def vertices(p: HPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of p, sorted: p.vertices, which p holds from the moment it is built."""
    return p.vertices


def _as_fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _distinct_points(points: Sequence[Sequence]) -> list[tuple]:
    """The distinct points, sorted, each read by exact_entries.

    Raises on no points or on mixed lengths.
    """
    pts = sorted({tuple(exact_entries(pt)) for pt in points})
    if not pts:
        raise EmptyPolytopeError("no points given")
    if any(len(pt) != len(pts[0]) for pt in pts):
        raise DimensionMismatchError("mixed point lengths")
    return pts


def _point_hull(pts: Sequence[tuple], d: int):
    """(facets, incidence, vertices, lineality) of the hull of two or more sorted distinct points in Q^d.

    The valid inequalities <a, x> <= beta form the cone of (a, beta) with
    beta - <a, p> >= 0 at every point p, the rows (-p, 1) over one common
    denominator. One double description gives its extreme rays, the facets
    (a primitive, sorted), with tight sets over pts, and its lineality, the
    equations of the points' affine hull; modulo those equations each ray
    is one facet. The rows that wait for the pivots, a flat set's too,
    are added by decreasing |m row - sum of the m rows|^2, the squared
    distance from the points' centroid times m^2, ties by index
    (double_description's key), which cuts the rays the steps between
    make. Int coordinates stay ints until here. The
    vertices are the points, as Fractions, whose sets of tight facets
    are nonempty and maximal under inclusion, and each tight set is mapped
    from the points to the vertices.
    """
    nums, den = common_denominator([c for pt in pts for c in pt])
    rows = [tuple(-x for x in nums[k:k + d]) + (den,) for k in range(0, len(nums), d)]
    m, total = len(rows), [sum(col) for col in zip(*rows)]
    far = [-sum((m * x - c) ** 2 for x, c in zip(row, total)) for row in rows]
    rays, lineality = double_description(rows, d + 1, far.__getitem__)
    on = _ray_sets(rays, range(len(pts)))
    positions = _maximal(on)
    facets = {}
    for (z, _), t in zip(rays, _ray_sets([(None, on[i]) for i in positions], range(len(rays)))):
        normal, g = primitivize(z[:d])
        if normal in facets:
            raise InternalInconsistencyError("conflicting supports for one normal")
        facets[normal] = (Fraction(z[d], g), t)
    rows = sorted(facets.items())
    return (tuple((a, b) for a, (b, _) in rows), tuple(t for _, (_, t) in rows),
            tuple(tuple(map(_as_fraction, pts[i])) for i in positions), lineality)


def from_vertices(points: Sequence[Sequence]) -> HPolytope:
    """Facet description of the convex hull of a full-dimensional point set.

    The facets and vertices come from _point_hull. Fewer than d + 1 points,
    or a lineality in the cone of valid inequalities (the points lie on a
    hyperplane), raise LowerDimensionalError.
    """
    pts = _distinct_points(points)
    d = len(pts[0])
    if len(pts) <= d:
        raise LowerDimensionalError("fewer than d + 1 points")
    facets, incidence, verts, lineality = _point_hull(pts, d)
    if lineality:
        raise LowerDimensionalError("points do not span the ambient space")
    return HPolytope(d, tuple(a for a, _ in facets), tuple(b for _, b in facets), verts, incidence)


def _embedded(pts: Sequence[tuple]) -> EmbeddedPolytope:
    """The hull of sorted distinct points, all in ambient coordinates.

    The facets, incidence and vertices are one _point_hull; a single
    point x has no facet, and its equations are <e_i, x> = x_i. When the
    lineality is empty the points span Q^d, and the subspace is all of
    it, with no equations and no kernel taken. Otherwise the lineality's
    (a, beta) are the equations <a, x> = beta of the points' affine hull,
    and its directions are the null_basis of the a, which depends on the
    subspace alone. The equations are the integer kernel of those
    directions saturated, each with a positive leading entry, so every
    constructor of one affine hull stores the same equations.
    """
    d = len(pts[0])
    if len(pts) == 1:
        units = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
        point = tuple(map(_as_fraction, pts[0]))
        return EmbeddedPolytope(AffineSubspace(0, d, tuple(sorted(zip(units, point)))), (), (point,), ())
    facets, incidence, verts, lineality = _point_hull(pts, d)
    if not lineality:
        return EmbeddedPolytope(AffineSubspace(d, d, ()), facets, verts, incidence)
    directions = saturate(null_basis([z[:d] for z in lineality]))
    equations = []
    for a in integer_kernel_basis(list(directions), ncols=d):
        a = a if next(x for x in a if x) > 0 else tuple(-x for x in a)
        equations.append((a, _as_fraction(dot(a, pts[0]))))
    subspace = AffineSubspace(len(directions), d, tuple(sorted(equations)))
    return EmbeddedPolytope(subspace, facets, verts, incidence)


def hull_any_dim(points: Sequence[Sequence]) -> EmbeddedPolytope:
    """Convex hull of points of any affine rank, as an embedded polytope (_embedded)."""
    return _embedded(_distinct_points(points))


def _tight_everywhere(rays, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if all(t >> (i + 1) & 1 for _, t in rays))


def implicit_equalities(system: InequalitySystem) -> tuple[int, ...]:
    """Indices of rows satisfied with equality by every solution.

    One double description of the homogenized system (see _homogenized):
    the solutions are generated by its rays and its lineality, on which
    every row vanishes, so a row is an implicit equality exactly when it is
    tight at every ray. Unbounded systems are allowed. Raises
    EmptyPolytopeError on an infeasible system.
    """
    rays, _ = _homogenized(system.normals, system.rhs, system.dim)
    return _tight_everywhere(rays, len(system.normals))


def embed_system(system: InequalitySystem) -> tuple[EmbeddedPolytope, tuple[int, ...]]:
    """Embed a nonempty bounded system as (EmbeddedPolytope, implicit row indices).

    One double description of the homogenized system gives both: the rays
    with s > 0 are the vertices x / s, and the rows tight at every ray are
    the implicit equalities. The affine hull, facets and vertices are
    those of the vertices' hull (_embedded). Raises EmptyPolytopeError on
    an empty system, then UnboundedPolytopeError when its set contains a
    line or a ray (_bounded_vertices, as in from_inequalities).
    """
    pairs = _bounded_vertices(system.normals, system.rhs, system.dim)
    return _embedded([v for v, _ in pairs]), _tight_everywhere(pairs, len(system.normals))


def is_lattice_polytope(s) -> bool:
    """Whether every vertex of s, an HPolytope or an EmbeddedPolytope, is a lattice point."""
    return all(c.denominator == 1 for pt in s.vertices for c in pt)


# ---------------------------------------------------------------------------
# lattice point enumeration


def projected_levels(rays, lineality, points) -> list:
    """Bounds of the lattice-point enumeration of a set S in Q^d, one level per coordinate.

    rays and lineality are the cone of the valid rows (a, beta), <a, x> <=
    beta on S, as double_description gives it: its primitive integer
    extreme rays, each with its tight set, and a basis of its lineality,
    the equations of the affine hull of S, the hull of the sorted points.
    Level j >= 2 is read off the cone of the projection of S onto
    x_1..x_j (_projections): each ray is a row, each lineality vector two
    opposite rows. Level 1 is [x_1 of the first point, x_1 of the last],
    as the rows q x_1 <= p and -q' x_1 <= -p' of its ends p/q and p'/q',
    the rows the cut down to x_1 gives. Each level is an exact projection,
    so a row without x_j is implied by level j - 1 and a prefix passing
    level j extends to a point of S. levels[j] holds each row with a
    nonzero x_j coefficient compiled once for level_points (_compiled);
    levels[0] is None.
    """
    lo, hi = points[0][0], points[-1][0]
    levels = [_compiled([z for z, _ in rays] + list(lineality) + [tuple(-x for x in z) for z in lineality])
              for rays, lineality in _projections(rays, lineality)]
    return [None, [(hi.denominator, hi.numerator, ()), (-lo.denominator, -lo.numerator, ())]] + levels[::-1]


def _projections(rays, lineality):
    """The valid-row cones of the projections of S onto x_1..x_j, j = d down to 2, as (rays, lineality).

    The valid rows of the projection onto x_1..x_j are those of the
    projection onto x_1..x_{j+1} with a_{j+1} = 0, so each cone is the one
    before it cut by that equality (_cut), and no projection is described
    afresh, by Fourier-Motzkin elimination, a hull or a double description:
    d - 2 cuts.
    """
    d = len(rays[0][0]) - 1
    if d > 1:
        yield rays, lineality
    for j in range(d - 1, 1, -1):
        rays, lineality = _cut(rays, lineality, j, j + 2)
        yield rays, lineality


def _compiled(rows) -> list:
    """The integer rows (a, beta) of a level j = len(a) that bound x_j, as level_points reads them.

    A row <a, x> <= beta with a_j != 0 becomes (a_j, beta, terms), terms
    the pairs (i, a_i) of its nonzero earlier coefficients, so x_j <= (beta
    - sum a_i x_i) / a_j when a_j > 0 and >= when a_j < 0.
    """
    return [(z[-2], z[-1], tuple((i, c) for i, c in enumerate(z[:-2]) if c)) for z in rows if z[-2]]


def _valid_row_cone(s) -> tuple[list, list]:
    """The cone of the valid rows of s, as projected_levels takes it: (rays, lineality).

    Its rays are the facet rows <a, x> <= beta as primitive integer (a,
    beta), each with its tight set, s.incidence; a single point has no
    facet, and the row 0 <= 1, tight nowhere, is its ray. Its lineality is
    the equations of the affine hull as integer rows.
    """
    if isinstance(s, HPolytope):
        rows, equations = zip(s.normals, s.rhs), ()
    elif isinstance(s, EmbeddedPolytope):
        rows, equations = s.facets, s.subspace.equations
    else:
        raise TypeError(f"unsupported type {type(s).__name__}")
    rays = [(_integer_row(a, b), t) for (a, b), t in zip(rows, s.incidence)]
    return rays or [((0,) * len(s.vertices[0]) + (1,), 0)], [_integer_row(a, b) for a, b in equations]


def level_points(levels, shrink=1) -> list[IntVector]:
    """Lattice points passing every level of projected_levels, in lexicographic order.

    The levels of a set S give the points of S / shrink, for a positive int
    or Fraction shrink. Every entry and prefix value is an integer, so a
    row bounds x_j by (floor(beta / shrink) - sum a_i x_i) / a_j, with
    beta / shrink floored by int division once at each node: a shrink p / q
    is read once, as every beta times q floored by p. At the parent of the
    last level each last-level row's partial sum over x_1..x_{d-2} is taken
    once, so each value of x_{d-1} costs one product per row with an
    x_{d-1} term, and the run of x_d is added at once. Any other shrink
    raises ValueError.
    """
    if not isinstance(shrink, (int, Fraction)) or shrink <= 0:
        raise ValueError("shrink must be a positive int or Fraction")
    if isinstance(shrink, Fraction):
        q, shrink = shrink.denominator, shrink.numerator
        if q > 1:
            levels = [None] + [[(m, s * q, t) for m, s, t in level] for level in levels[1:]]
    d = len(levels) - 1
    out = []
    prefix = [0] * d
    k = d - 2  # the index of x_{d-1}

    def rec(j: int):
        lo = None
        hi = None
        for m, s, terms in levels[j]:
            s //= shrink
            for i, c in terms:
                s -= c * prefix[i]
            if m > 0:
                b = s // m
                if hi is None or b < hi:
                    hi = b
            else:
                b = -(s // -m)
                if lo is None or b > lo:
                    lo = b
        if lo is None or hi is None:
            raise UnboundedPolytopeError("enumeration region is unbounded")
        if lo > hi:
            return
        if j == d:
            out.extend([(v,) for v in range(lo, hi + 1)])
            return
        if j < d - 1:
            for v in range(lo, hi + 1):
                prefix[j - 1] = v
                rec(j + 1)
            return
        # the parent of the last level: a row bounds x_d by (r - c x_{d-1}) /
        # |a_d|, r its partial sum and c its x_{d-1} entry, or once if c = 0
        top = bottom = None
        above = []
        below = []
        for m, r, terms in levels[d]:
            r //= shrink
            c = 0
            for i, a in terms:
                if i == k:
                    c = a
                else:
                    r -= a * prefix[i]
            if c:
                if m > 0:
                    above.append((m, r, c))
                else:
                    below.append((-m, r, c))
            elif m > 0:
                b = r // m
                if top is None or b < top:
                    top = b
            else:
                b = -(r // -m)
                if bottom is None or b > bottom:
                    bottom = b
        if (top is None and not above) or (bottom is None and not below):
            raise UnboundedPolytopeError("enumeration region is unbounded")
        head = tuple(prefix[:k])
        for v in range(lo, hi + 1):
            t = top
            for n, r, c in above:
                b = (r - c * v) // n
                if t is None or b < t:
                    t = b
            u = bottom
            for n, r, c in below:
                b = -((r - c * v) // n)
                if u is None or b > u:
                    u = b
            if u <= t:
                point = head + (v,)
                out.extend([point + (w,) for w in range(u, t + 1)])

    rec(1)
    del rec  # rec holds itself through its cell: dropping it frees the walk without the cyclic collector
    return out


def lattice_points(s, region: str = "all", shrink=1):
    """Lattice points of s / shrink, or of its relative interior, for a positive int or Fraction shrink.

    s may be an HPolytope or an EmbeddedPolytope, and the returned points
    are integer tuples in lexicographic order. The enumeration runs over
    projected_levels of the cone of the valid rows of s, read off the
    incidence s keeps (_valid_row_cone), with none recounted, and of its
    sorted vertices, and level_points walks them at shrink. The relative_interior region keeps
    the points x strictly inside every facet row (a, beta) of s / shrink,
    <a, x> num < beta den for shrink = num / den, in integers.
    """
    if region not in ("all", "relative_interior"):
        raise ValueError(f"unknown region {region!r}")
    rays, lineality = _valid_row_cone(s)
    result = level_points(projected_levels(rays, lineality, s.vertices), shrink)
    if region == "relative_interior":
        num, den = shrink.numerator, shrink.denominator
        result = [x for x in result if all(dot(z[:-1], x) * num < z[-1] * den for z, _ in rays)]
    return tuple(result)


# ---------------------------------------------------------------------------
# unimodular transforms and dilation


def transform(p: HPolytope, u: Sequence[Sequence[int]], shift: Sequence[int]) -> HPolytope:
    """Image of p under x -> U x + shift for unimodular integer U: the hull
    of the image vertices (from_vertices), with its vertices and incidence."""
    d = p.dim
    urows = [int_vector(row) for row in u]
    tvec = int_vector(shift)
    if len(urows) != d or any(len(r) != d for r in urows) or len(tvec) != d:
        raise DimensionMismatchError("transform dimensions do not match")
    if abs(det(urows)) != 1:
        raise NonUnimodularError("matrix determinant is not +-1")
    return from_vertices([vec_add(tuple(dot(row, v) for row in urows), tvec) for v in p.vertices])


def dilate(p: HPolytope, factor: int) -> HPolytope:
    """The dilation factor * p for a positive integer factor, with its vertices and incidence."""
    k = int(factor)
    if k < 1 or k != factor:
        raise ValueError("dilation factor must be a positive integer")
    scaled = tuple(tuple(k * c for c in v) for v in p.vertices)
    return HPolytope(p.dim, p.normals, tuple(b * k for b in p.rhs), scaled, p.incidence)
