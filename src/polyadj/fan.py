"""Normal fans of lattice polytopes and their singularity invariants.

A cone is stored by its primitive extreme ray generators. The invariants
computed here are the Gorenstein index of a cone (the least k such that
some integer functional evaluates to k on every primitive generator), the
canonicity threshold (how low a nonzero lattice point can sit relative to
the generator heights), and smoothness. Fan level values aggregate over
the maximal cones: a functional witnessing a maximal cone restricts to
every face, so face indices divide the maximal ones and face thresholds
are no smaller, which makes the maximal cones sufficient. Nothing here
solves an LP or builds a polytope. Cone validation, heights, the
canonicity scan and the Gorenstein certificate all read a cone's facets
and its dual height vertices off one integer double description of its
rays, built by _functionals in Z^d for a cone of any rank: the facets
are its rays with s = 0, the vertices those with s > 0, a cone with no
vertex contains a line, the lineality, empty exactly when the rays span,
holds the equations of their span, which heights and the scan keep; the
height floor and the index read a dual vertex by the least point of its
class modulo it (_least_point), the vertex itself when the rays span.
A cone holds that description from the moment it is built: cone() and
normal_fan() pass in the one they validated its generators with, and a
cone built by hand must be cone() of its rays, whose description it
keeps, or raises InvalidConeError, so a normal fan, whose cones span,
takes no integer kernel, no rank and no second dual description after it
is built. The canonicity scan enumerates one region per cone, conv(0,
rays), shrunk by t on a ladder that starts at the lower bound on heights
that the dual vertices and the rays prove (_height_floor) and never
passes the least height listed. Across a fan each cone's ladder is
capped at the least threshold of the cones before it. A cone compiles
the levels of its region (polytope.projected_levels) only when its
ladder takes a rung, from the cone of its valid rows, with no second
double description: every cone reads those rows off the pivot stage of
its dual height description, which it keeps, with the sign of its one
ray off s = 0 turned and the ray rows that waited added (_cone_levels).
A normal fan reads each maximal cone off the polytope's vertex-facet
incidence and proves it full-dimensional with its dual height
description, which has a lineality exactly when the rays do not span.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    InvalidConeError,
    NotInConeError,
    NotLatticePolytopeError,
)
from .polytope import (
    HPolytope,
    _add_waiting,
    _maximal,
    _pivots,
    _ray_sets,
    is_lattice_polytope,
    level_points,
    projected_levels,
)
from .ratmath import (
    IntVector,
    _int_kernels,
    det,
    dot,
    ext_gcd_list,
    int_vector,
    integer_kernel_basis,
    primitivize,
)
from .record import record


@record
class Cone:
    """Pointed rational cone spanned by primitive extreme rays.

    functionals is the rays' dual height description (_functionals), as
    height, the canonicity scan and gorenstein_index read it. cone() and
    normal_fan() pass in the description they validated the rays with; a
    cone built by hand without it must be cone() of its rays, whose fields
    it then holds, or raises InvalidConeError.
    """

    ambient_dim: int
    rays: tuple[IntVector, ...]
    functionals: tuple = None

    def __post_init__(self):
        if self.functionals is None:
            canonical = cone(self.rays)
            if canonical != self:
                raise InvalidConeError("a hand-built Cone must have the primitive sorted extreme rays cone() gives")
            for name in ("ambient_dim", "rays", "functionals"):
                object.__setattr__(self, name, getattr(canonical, name))

    @property
    def n_rays(self) -> int:
        return len(self.rays)


@record
class NormalFan:
    """Normal fan of a full-dimensional lattice polytope.

    maximal_cones[i] is the cone of facet normals tight at vertex
    vertex_points[i]; rays collects all facet normals.
    """

    dim: int
    rays: tuple[IntVector, ...]
    vertex_points: tuple[tuple[Fraction, ...], ...]
    maximal_cones: tuple[Cone, ...]


@record
class GorensteinCertificate:
    """index >= 1 with a primitive integer functional constant on the rays.

    <ray, functional> = index for every ray, and no positive integer below
    index is attained that way.
    """

    index: int
    functional: IntVector


@record
class CanonicityWitness:
    """A lattice point of a cone lying below the stated height."""

    cone: Cone
    point: IntVector
    height: Fraction


def cone(generators: Sequence[Sequence[int]]) -> Cone:
    """Validating constructor: primitivize, drop non-extreme generators,
    and reject cones that contain a line, both read off the generators'
    _functionals, for a cone of any rank: with no dual vertex the cone
    contains a line, and the extreme generators are those on maximal sets
    of facets, its rays with s = 0 (a pointed cone of rank 1 has one). When
    no generator is dropped that description is the cone's own, and the
    cone keeps it; otherwise the extreme generators take their own.
    """
    if not generators:
        raise InvalidConeError("a cone needs at least one generator")
    d = len(generators[0])
    prims = []
    for g in generators:
        if len(g) != d:
            raise InvalidConeError("mixed generator lengths")
        try:
            vec = int_vector(g)
        except ValueError:
            raise InvalidConeError("generators must be integer vectors") from None
        if all(x == 0 for x in vec):
            raise InvalidConeError("zero vector cannot generate a ray")
        prims.append(primitivize(vec)[0])
    prims = tuple(sorted(set(prims)))
    functionals = _functionals(prims, d)
    if not functionals[2]:
        raise InvalidConeError("generators span a cone containing a line")
    if len(prims) > 1:
        facets = [(z, t) for z, t in functionals[0] if not z[-1]]
        extreme = tuple(prims[i] for i in _maximal(_ray_sets(facets, range(1, len(prims) + 1))))
        if len(extreme) < len(prims):
            return Cone(d, extreme, _functionals(extreme, d))
    return Cone(d, prims, functionals)


def normal_fan(p: HPolytope) -> NormalFan:
    """Normal fan of a lattice polytope; vertex tight sets give the maximal cones.

    The maximal cone at the k-th vertex is read off the polytope's
    incidence, as the normals of the facets whose tight set holds bit k,
    with no row evaluated. Its dual height description (_functionals)
    proves it full-dimensional and pointed, as it has no lineality and a
    dual vertex, and the cone keeps it for the scan, its index and heights.
    """
    if not is_lattice_polytope(p):
        raise NotLatticePolytopeError("normal fan invariants require lattice vertices")
    cones = []
    for k in range(len(p.vertices)):
        tight = tuple(a for a, t in zip(p.normals, p.incidence) if t >> k & 1)
        functionals = _functionals(tight, p.dim)
        if functionals[1] or not functionals[2]:
            raise InternalInconsistencyError("vertex cone is not full-dimensional and pointed")
        cones.append(Cone(p.dim, tight, functionals))
    return NormalFan(p.dim, p.normals, p.vertices, tuple(cones))


def height(c: Cone, point: Sequence) -> Fraction:
    """Largest total generator weight expressing point inside the cone.

    For a point w in c this is max sum(lambda) over lambda >= 0 with
    sum(lambda_i ray_i) = w; it is finite because the cone is pointed. It
    is min <u, w> over the dual height vertices u, once w has passed the
    lineality rows, which vanish on the span of the rays, and the cone's
    facet rows. Raises DimensionMismatchError for a point of another
    length, and NotInConeError outside c.
    """
    if len(point) != c.ambient_dim:
        raise DimensionMismatchError(f"point of length {len(point)} for a cone in dimension {c.ambient_dim}")
    target = [Fraction(x) for x in point]
    if all(x == 0 for x in target):
        return Fraction(0)
    region, lineality, duals, scale, _ = c.functionals
    if any(dot(z[:-1], target) for z in lineality):
        raise NotInConeError("point is outside the cone's linear span")
    if any(dot(z[:-1], target) < 0 for z, _ in region if not z[-1]):
        raise NotInConeError("point fails a facet of the cone")
    return Fraction(min(dot(w, target) for w in duals)) / scale


def _functionals(rays: Sequence[IntVector], d: int) -> tuple:
    """(region, lineality, duals, scale, start), with height(x) = min_w <w, x> / scale on the cone.

    One double description of the cone {(u, s) : <ray, u> >= s, s >= 0}
    gives the cone's facet normals and the vertices of its dual height
    region, with their tight sets: region holds its (ray, tight set) pairs
    with s >= 0 as row 0 and the rays as rows 1..m, lineality is {(u, 0) :
    <ray, u> = 0}, empty exactly when the rays span Q^d (on their span each
    ray stands for its class modulo it), and start is its pivot stage
    (polytope._pivots), which _cone_levels reads. Its rays with s > 0 are
    the primitive integer (u, s) of the vertices u / s of {u : <ray, u> >=
    1 for all rays}, one at least iff the cone is pointed; the duals w are
    those vertices over a common denominator scale, so <w, ray> >= scale
    on every ray, and none when the cone holds a line. By LP duality the
    height of any point w of the cone is the minimum of <u, w> over that
    region, and the region is pointed, so the minimum is attained at a
    vertex. Its face {s = 0} is the dual cone, so its rays (f, 0) give the
    cone's primitive facet normals f, sorted.
    """
    start = _pivots([(0,) * d + (1,)] + [tuple(r) + (-1,) for r in rays], d + 1)
    region, lineality = _add_waiting(*start)
    tops = [z for z, _ in region if z[-1]]
    scale = lcm(*(z[-1] for z in tops))
    duals = tuple(tuple(x * (scale // z[-1]) for x in z[:-1]) for z in tops)
    return region, lineality, duals, scale, start


def _cone_levels(rays: Sequence[IntVector], start) -> list:
    """The compiled lattice levels (polytope.projected_levels) of Q = conv(0, rays), for rays of any rank.

    start is the rays' _functionals start, whose lineality the
    region keeps (the rows that wait leave it as it is). The valid rows (a,
    beta) of Q are the cone V of beta >= 0 at the origin and beta - <a, r>
    >= 0 at each ray r, whose lineality, the equations of the span of the
    rays, is the region's: with the origin first and the rays after, bit k
    of a tight set names the same row in both. -V is the cone of s
    <= 0 and the region's ray rows <r, u> >= s, which differs from the
    region only in the sign of row 0. The start's one ray off s = 0 is
    tight on every ray row the start took, so negating it turns the start's
    cone into the cone of s <= 0 and those rows; the ray rows that waited
    cut that down to -V, whose rays, negated, are V's, with their tight
    sets. Every cone takes this route, whatever the vertices of its region.
    0 and the rays, sorted, give level 1.
    """
    d = len(rays[0])
    pivoted, lineality, waiting = start
    flipped = [(tuple(-x for x in z), t) if z[d] else (z, t) for z, t in pivoted]
    below, _ = _add_waiting(flipped, lineality, waiting)
    return projected_levels([(tuple(-x for x in z), t) for z, t in below], lineality, sorted([(0,) * d, *rays]))


def _least_point(c: Cone, z: IntVector) -> tuple[int, IntVector]:
    """(s, u): the least s > 0 of the integer points (u, s) of dual vertex z's class modulo the lineality.

    With no lineality the class is z. Otherwise it is the integer kernel of
    <r, u> z_s = <r, z_u> s over the rays r: s is the gcd of the basis' s,
    which divides z_s, and u the same combination of the basis.
    """
    if not c.functionals[1]:
        return z[-1], z[:-1]
    basis = integer_kernel_basis([tuple(z[-1] * x for x in r) + (-dot(r, z[:-1]),) for r in c.rays], ncols=len(z))
    s, coeffs = ext_gcd_list([v[-1] for v in basis])
    return s, tuple(sum(k * v[j] for k, v in zip(coeffs, basis)) for j in range(len(z) - 1))


def _height_floor(c: Cone) -> int:
    """m = min(max s, M), with every nonzero lattice point of c at height >= 1 / m.

    s is the least s > 0 of a dual vertex class (u, s) + lineality
    (_least_point), where it is an integer functional, positive on the
    cone's lattice points: the primitive s when the rays span. M is the
    largest |entry| of the rays, as height h puts a point in h conv(0,
    rays) in [-hM, hM]^d. The least s of a class divides its primitive s,
    so the classes are visited by decreasing primitive s, and kernels stop
    at the first class whose primitive s is at most the max so far, or once
    the max reaches M.
    """
    region, lineality, _, _, _ = c.functionals
    bound = max(abs(x) for r in c.rays for x in r)
    if not lineality:
        return min(max(z[-1] for z, _ in region), bound)
    top = 1
    for z in sorted((z for z, _ in region), key=lambda z: -z[-1]):
        if z[-1] <= top or top >= bound:
            break
        top = max(top, _least_point(c, z)[0])
    return min(top, bound)


def canonicity_threshold(c: Cone, below=1) -> tuple[Fraction, Optional[CanonicityWitness]]:
    """min(below, least height of a nonzero lattice point of the cone), with a witness when under below.

    Heights are min_w <w, x> / scale over the dual height vertices w. Each
    is at least 1 / m (_height_floor), so with 1 / m >= below the answer
    is below, with no level compiled. A point of height at most t lies in
    t R_w, R_w = conv(0, scale r / <w, r>), for its minimizing w, and <w,
    r> >= scale puts every apex on [0, r], so it lies in t Q, Q = conv(0,
    rays). Rung t keeps the nonzero points of t Q of height at most t. The
    first is t = 1/2^k for the largest 2^k <= m; t doubles while a rung
    lists no nonzero point, then becomes min(5/4 t, least height listed,
    below), a Fraction shrink. The ladder stops at the first rung whose
    least listed (height, point) has height at most t: the rung keeps every
    point of least height, so that point is the witness, the
    lexicographically smallest of them. Or it stops at the first t >=
    below. A cone of lower rank is scanned in Z^d, its levels holding the
    equations of its span, so its witness too is the lexicographically
    smallest point in Z^d. below must lie in (0, 1].
    """
    below = Fraction(below)
    num, den = below.numerator, below.denominator
    if not 0 < num <= den:
        raise ValueError("below must lie in (0, 1]")
    top = _height_floor(c)
    if num * top <= den:
        return below, None
    _, _, duals, scale, start = c.functionals
    levels = _cone_levels(c.rays, start)
    value = _int_kernels(c.ambient_dim)[0]
    t = Fraction(1, 1 << (top.bit_length() - 1))
    while True:
        # a unit fraction's shrink is an int, which the walk floors faster
        shrink = t.denominator if t.numerator == 1 else 1 / t
        least = min(((min([value(w, pt) for w in duals]), pt)
                     for pt in level_points(levels, shrink=shrink) if any(pt)), default=None)
        if (least is not None and least[0] * t.denominator <= scale * t.numerator) or t >= below:
            break
        t = t * 2 if least is None else min(t * 5 / 4, Fraction(least[0], scale), below)
    if least is None or least[0] * den >= scale * num:
        return below, None
    best, point = least
    threshold = Fraction(best, scale)
    return threshold, CanonicityWitness(c, point, threshold)


def fan_canonicity_threshold(fan: NormalFan) -> tuple[Fraction, Optional[CanonicityWitness]]:
    """Least canonicity threshold over the maximal cones, with the first cone's witness if < 1.

    Each cone's ladder is capped at the least threshold of the cones
    before it: it stops at the first rung at or above it, and a cone whose
    dual vertices already prove every height at least that low lists no
    point and compiles no levels. A tie keeps the earlier cone's witness.
    """
    best = Fraction(1)
    witness: Optional[CanonicityWitness] = None
    for c in fan.maximal_cones:
        t, w = canonicity_threshold(c, best)
        if w is not None:
            best, witness = t, w
    return best, witness


def gorenstein_index(c: Cone) -> Optional[GorensteinCertificate]:
    """Least k >= 1 with an integer w satisfying <ray, w> = k for all rays, or None when there is none.

    Integer solutions (w, k) with k > 0 are the points of the dual height
    region tight at every ray, one class modulo the lineality, so the index
    and w are its least point (_least_point, as _height_floor reads it):
    the primitive vertex itself, with no kernel, when the rays span. No
    region ray tight at every ray means no index, and no kernel is taken.
    The functional is checked to be primitive and to equal the index on
    every ray.
    """
    region = c.functionals[0]
    every = (1 << (len(c.rays) + 1)) - 2
    tight = next((z for z, t in region if z[-1] and t & every == every), None)
    if tight is None:
        return None
    index, functional = _least_point(c, tight)
    if primitivize(functional)[0] != functional:
        raise InternalInconsistencyError("minimal functional must be primitive")
    for ray in c.rays:
        if dot(ray, functional) != index:
            raise InternalInconsistencyError("certificate functional failed on a ray")
    return GorensteinCertificate(index, functional)


def fan_gorenstein_index(fan: NormalFan) -> Optional[int]:
    """lcm of the maximal cone indices (gorenstein_index), or None when some cone has none.

    A functional for a maximal cone restricts to each face, so the faces
    never obstruct and their indices divide the maximal ones. A maximal
    cone's rays span, so each index is read off the dual height double
    description the cone keeps, with no integer kernel.
    """
    indices = []
    for c in fan.maximal_cones:
        cert = gorenstein_index(c)
        if cert is None:
            return None
        indices.append(cert.index)
    return lcm(*indices) if indices else None


def is_smooth_cone(c: Cone) -> bool:
    """Whether the rays form part of a lattice basis, for a cone of any rank.

    That is whether the gcd of the k x k minors of the k rays is 1; the
    minors all vanish when the rays are dependent, and there are none when
    k > d. A cone of full rank has the one minor det.
    """
    minors = (det([[r[j] for j in cols] for r in c.rays]) for cols in combinations(range(c.ambient_dim), c.n_rays))
    return gcd(*map(int, minors)) == 1


def is_smooth(fan: NormalFan) -> bool:
    return all(is_smooth_cone(c) for c in fan.maximal_cones)
