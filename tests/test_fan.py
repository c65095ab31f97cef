"""Normal fans, cone heights, canonicity thresholds, Gorenstein indices."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    box_lattice_points,
    brute_canonicity,
    brute_dual_vertices,
    brute_facets,
    confirms_minimal_level,
    gauss_solve,
    integer_solvable,
    laplace_det,
    lp_height,
    smallest_solvable_level,
)
import polyadj
from polyadj import fan as fan_module, polytope, ratmath
from polyadj.errors import DimensionMismatchError, InternalInconsistencyError, InvalidConeError, NotInConeError
from polyadj.fan import (
    Cone,
    NormalFan,
    _cone_levels,
    _functionals,
    _height_floor,
    canonicity_threshold,
    cone,
    fan_canonicity_threshold,
    fan_gorenstein_index,
    gorenstein_index,
    height,
    is_smooth,
    is_smooth_cone,
    normal_fan,
)
from polyadj.generators import SplitMix64, cube, fig1, random_lattice_polytope, scaled_simplex
from polyadj.polytope import (
    double_description,
    from_vertices,
    level_points,
    projected_levels,
    vertices,
)
from polyadj.ratmath import dot, ext_gcd_list, integer_kernel_basis, primitivize, rank, saturate

# pointed, non-simplicial, not Q-Gorenstein; (0,0,4) has representations
# with total weight anywhere in [2, 4], so its height must come out as 4
SKEW_RAYS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 3)]
# a non-simplicial cone whose one dual vertex (0, 0, 1) / 2 makes (0, 0, 1)
# a point of height 1/2
PYRAMID_RAYS = [(1, 0, 2), (-1, 0, 2), (0, 1, 2), (0, -1, 2)]


def test_cone_constructor_normalizes_generators():
    c = cone([(2, 0), (0, 3), (1, 1), (4, 0)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.ambient_dim == 2
    # the same for a plane in Q^3, and a ray
    assert cone([(1, 0, 0), (0, 1, 0), (1, 1, 0)]).rays == ((0, 1, 0), (1, 0, 0))
    assert cone([(2,), (1,)]).rays == ((1,),)


def test_a_validated_cone_keeps_its_dual_description(count_calls):
    # cone() validates the generators with their dual height double
    # description; when it keeps every generator, that is the cone's own,
    # and a later height, scan or index reads it with no second description.
    # Every description starts with one pivot stage, which the fan runs
    # itself to keep its start, so the pivot stages are what is counted
    counts = count_calls((polytope, "_pivots"))
    c = cone(SKEW_RAYS)
    assert height(c, (0, 0, 4)) == 4
    assert gorenstein_index(c) is None and canonicity_threshold(c)[0] == 1
    assert counts == {"_pivots": 1}
    assert c.functionals == Cone(3, c.rays).functionals
    # the same for a plane in Q^3, whose description has a lineality and
    # is kept with it
    counts["_pivots"] = 0
    plane = cone([(1, 0, 0), (1, 2, 0)])
    assert height(plane, (1, 1, 0)) == 1 and counts == {"_pivots": 1}
    assert plane.functionals == Cone(3, plane.rays).functionals
    # a dropped generator changes the rows, so the cone of the two extreme
    # rays describes itself once more inside cone()
    counts["_pivots"] = 0
    square = cone([(1, 0), (0, 1), (1, 1)])
    assert counts == {"_pivots": 2}
    assert square.functionals == Cone(2, ((0, 1), (1, 0))).functionals


def test_cone_constructor_rejects_lines_and_zero():
    # generators with no dual height vertex: a line, all of Q^2, a
    # half-plane, and, with a lineality, a line and a plane in Q^3
    for gens in ([(1, 0), (-1, 0)], [(1, 0), (0, 1), (-1, -1)], [(1, 0), (-1, 0), (0, 1)],
                 [(1,), (-1,)], [(1, 1, 0), (-1, -1, 0)], [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]):
        with pytest.raises(InvalidConeError, match="containing a line"):
            cone(gens)
    with pytest.raises(InvalidConeError):
        cone([(0, 0)])
    with pytest.raises(InvalidConeError):
        cone([])


def test_normal_fan_of_the_running_example():
    p = fig1()
    fan = normal_fan(p)
    assert len(fan.maximal_cones) == len(vertices(p)) == 5
    assert set(fan.rays) == set(p.normals)
    for c, v in zip(fan.maximal_cones, fan.vertex_points):
        tight = {a for a, b in zip(p.normals, p.rhs) if dot(a, v) == b}
        assert set(c.rays) == tight
        # the description that proved the cone full-dimensional is its own
        assert c.functionals == Cone(2, c.rays).functionals


def test_fan_of_cube_is_smooth_and_simplicial():
    fan = normal_fan(cube(3))
    assert len(fan.maximal_cones) == 8
    assert all(rank(c.rays) == c.n_rays for c in fan.maximal_cones)
    assert is_smooth(fan)
    assert all(is_smooth_cone(c) for c in fan.maximal_cones)


def test_scaled_simplex_is_gorenstein_but_singular():
    fan = normal_fan(scaled_simplex(2, 2))
    assert not is_smooth(fan)
    assert fan_gorenstein_index(fan) == 1


def test_face_index_divides_the_parent_index():
    # these fans are simplicial, so every nonempty subset of a maximal
    # cone's rays spans a face of it
    for p in (scaled_simplex(2, 3), scaled_simplex(3, 4), fig1()):
        for parent in normal_fan(p).maximal_cones:
            assert rank(parent.rays) == parent.n_rays
            cert = gorenstein_index(parent)
            if cert is None:
                continue
            for size in range(1, parent.n_rays + 1):
                for rays in itertools.combinations(parent.rays, size):
                    sub = gorenstein_index(Cone(parent.ambient_dim, rays))
                    assert sub is not None
                    assert cert.index % sub.index == 0


def test_height_on_a_simplicial_cone():
    c = cone([(2, -1), (2, 1)])
    assert height(c, (1, 0)) == Fraction(1, 2)
    assert height(c, (4, 0)) == 2
    assert height(c, (2, 1)) == 1
    assert height(c, (0, 0)) == 0
    with pytest.raises(NotInConeError):
        height(c, (0, 1))
    with pytest.raises(NotInConeError):
        height(c, (-1, 0))
    # the same cone in a plane of Q^3, where a point off the plane fails
    # the row of its lineality
    flat = cone([(2, -1, 0), (2, 1, 0)])
    assert height(flat, (1, 0, 0)) == Fraction(1, 2) and height(flat, (4, 0, 0)) == 2
    with pytest.raises(NotInConeError, match="linear span"):
        height(flat, (1, 0, 1))
    with pytest.raises(NotInConeError, match="facet"):
        height(flat, (-1, 0, 0))


def test_height_refuses_a_point_of_another_length():
    # the zero point too: its height 0 is read only once its length is checked
    c = cone([(1, 0), (0, 1)])
    for point in ((0, 0, 0, 0), (0,), (0, 0, 0), (1, 1, 1)):
        with pytest.raises(DimensionMismatchError):
            height(c, point)
    assert height(c, (0, 0)) == 0


def test_height_takes_the_maximal_representation():
    c = cone(SKEW_RAYS)
    assert c.n_rays == 4
    assert height(c, (0, 0, 4)) == 4
    assert height(c, (0, 0, 1)) == 1
    with pytest.raises(NotInConeError):
        height(c, (5, 0, 1))


def test_simplicial_heights_match_the_lp_route():
    fan = normal_fan(scaled_simplex(3, 5))
    for c in fan.maximal_cones:
        if rank(c.rays) != c.n_rays:
            continue
        for pt in list(c.rays) + [tuple(map(sum, zip(*c.rays)))]:
            assert height(c, pt) == lp_height(c.rays, pt)


def test_normal_fan_cones_are_the_brute_tight_sets_on_the_suite(suite):
    # each maximal cone is read off the incidence; here it is recounted by
    # dot products of every facet row with its vertex
    for key, p in suite:
        nf = normal_fan(p)
        assert len(nf.maximal_cones) == len(nf.vertex_points), key
        for v, c in zip(nf.vertex_points, nf.maximal_cones):
            tight = [a for a, b in zip(p.normals, p.rhs) if sum(x * y for x, y in zip(a, v)) == b]
            assert c.rays == tuple(sorted(tight)), key


def test_a_vertex_cone_whose_rays_do_not_span_is_an_internal_inconsistency():
    # the unit square with a hand-written incidence that leaves its vertex
    # (0, 0) tight on the row x >= 0 alone, or on x >= 0 and x <= 1: that
    # vertex's cone, the ray (-1, 0) or the line through it, does not span
    # Q^2; or on x >= 0, y >= 0 and x <= 1, whose cone spans but holds a line
    square = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert square.normals == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert vertices(square)[0] == (0, 0) and square.incidence == (0b11, 0b101, 0b1010, 0b1100)
    for incidence in ((0b11, 0b100, 0b1010, 0b1100), (0b11, 0b100, 0b1010, 0b1101),
                      (0b11, 0b101, 0b1010, 0b1101)):
        p = polytope.HPolytope(2, square.normals, square.rhs, vertices(square), incidence)
        with pytest.raises(InternalInconsistencyError, match="not full-dimensional"):
            normal_fan(p)


def test_dual_height_vertices_match_the_brute_force_scan():
    # non-simplicial cones: SKEW_RAYS, the cone over a square, and the
    # vertex cones of the octahedron and of the 4-dimensional cross-polytope
    cones = [cone(SKEW_RAYS), cone([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])]
    for d in (3, 4):
        units = [tuple(s if i == j else 0 for j in range(d)) for i in range(d) for s in (1, -1)]
        cones += normal_fan(from_vertices(units)).maximal_cones
    assert all(rank(c.rays) != c.n_rays for c in cones)
    for c in cones:
        d = c.ambient_dim
        found, lineality, _, _, _ = _functionals(c.rays, d)
        assert lineality == ()
        facets, got = [z[:d] for z, _ in found if not z[d]], [z for z, _ in found if z[d]]
        # the facets of conv(0, rays) through 0, with outer normals -f
        through_origin = [n for n, b in brute_facets([(0,) * d] + list(c.rays)) if b == 0]
        assert facets == sorted(tuple(-x for x in n) for n in through_origin)
        assert all(z[d] > 0 and primitivize(z)[1] == 1 for z in got)
        assert {tuple(Fraction(x, z[d]) for x in z[:d]) for z in got} == brute_dual_vertices(c.rays)


def test_canonicity_threshold_pinned_cases():
    t, w = canonicity_threshold(cone([(2, -1), (2, 1)]))
    assert t == Fraction(1, 2)
    assert w.point == (1, 0) and w.height == Fraction(1, 2)
    t, w = canonicity_threshold(cone([(1, 0), (0, 1)]))
    assert t == 1 and w is None
    t, w = canonicity_threshold(cone([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]))
    assert t == 1 and w is None


def test_canonicity_threshold_of_lower_dimensional_cones():
    t, w = canonicity_threshold(cone([(2, -1, 0), (2, 1, 0)]))
    assert t == Fraction(1, 2)
    assert w.point == (1, 0, 0)
    t, w = canonicity_threshold(cone([(1, 1)]))
    assert t == 1 and w is None


def test_threshold_witness_is_consistent_with_height():
    c = cone([(3, -1), (3, 2)])
    t, w = canonicity_threshold(c)
    if w is not None:
        assert height(c, w.point) == w.height == t
        assert all(isinstance(x, int) for x in w.point)


def _agrees_with_the_box_scan(c, local_rays=None, to_ambient=None):
    """canonicity_threshold(c) against brute_canonicity of the rays.

    For a lower-rank cone the oracle runs on full-rank local rays and
    to_ambient maps its points into c. Among several points of least
    height the witness is the lexicographically smallest one in Z^d, for a
    cone of any rank.
    """
    t, witness = canonicity_threshold(c)
    expected, points = brute_canonicity(local_rays or c.rays)
    assert t == expected
    if not points:
        assert witness is None
        return
    assert witness.height == t
    if to_ambient is None:
        assert witness.point == points[0]
    else:
        assert witness.point == min(to_ambient(x) for x in points)


ray_entry = st.integers(-3, 3)


def _upper_rays(d, low, high):
    # rays with a positive last coordinate span a pointed cone
    return st.lists(st.tuples(*[ray_entry] * (d - 1), st.integers(1, 3)), min_size=low, max_size=high)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_threshold_of_simplicial_cones_matches_the_box_scan(d, data):
    rays = data.draw(st.lists(st.tuples(*[ray_entry] * d), min_size=d, max_size=d))
    assume(laplace_det([list(r) for r in rays]) != 0)
    _agrees_with_the_box_scan(cone(rays))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_threshold_of_non_simplicial_cones_matches_the_box_scan(d, data):
    rays = data.draw(_upper_rays(d, d + 1, d + 3))
    # brute_canonicity needs full-rank rays; rays such as (0, 0, 0, 1),
    # (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1) span a hyperplane, and cones
    # of lower rank are checked by the lower-rank test below
    assume(any(laplace_det([list(r) for r in s]) != 0 for s in itertools.combinations(rays, d)))
    c = cone(rays)
    assume(rank(c.rays) != c.n_rays)
    _agrees_with_the_box_scan(c)


def _placed(local, d, shears):
    """(cone, its extreme rays in Z^k, the map Z^k -> Z^d) for full-rank rays of Z^k placed in Z^d.

    The map is x -> U (x, 0), U the identity with m times row j added to
    row i for each shear (i, j, m), i != j: a unimodular U, which maps Z^k
    onto the lattice points of the span.
    """
    k = len(local[0])
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, m in shears:
        if i != j:
            u[i] = [a + m * b for a, b in zip(u[i], u[j])]

    def to_ambient(x):
        padded = tuple(x) + (0,) * (d - k)
        return tuple(sum(a * b for a, b in zip(row, padded)) for row in u)

    c = cone([to_ambient(r) for r in local])
    assert rank(c.rays) == k
    extreme = [r for r in local if to_ambient(primitivize(r)[0]) in c.rays]
    return c, [primitivize(r)[0] for r in extreme], to_ambient


def _lower_rank_cone(d, data):
    """_placed of drawn full-rank rays of Z^k, a cone of rank k < d."""
    k = data.draw(st.integers(1, d - 1))
    local = data.draw(_upper_rays(k, k, k + 2))
    assume(any(laplace_det([list(r) for r in s]) != 0 for s in itertools.combinations(local, k)))
    return _placed(local, d, data.draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                                          st.integers(-1, 1)), max_size=6)))


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 4), st.data())
def test_threshold_of_lower_rank_cones_matches_the_box_scan(d, data):
    _agrees_with_the_box_scan(*_lower_rank_cone(d, data))


def _seeded_lower_rank_cones(count, seed):
    """count cones of rank k < d in Z^d, d = 2-4, drawn by SplitMix64(seed) as _lower_rank_cone draws them."""
    rng = SplitMix64(seed)
    cones = []
    while len(cones) < count:
        d = rng.randint(2, 4)
        k = rng.randint(1, d - 1)
        local = [tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.randint(1, 3),)
                 for _ in range(rng.randint(k, k + 2))]
        shears = [(rng.randint(0, d - 1), rng.randint(0, d - 1), rng.randint(-1, 1))
                  for _ in range(rng.randint(0, 6))]
        if rank(local) == k:
            cones.append(_placed(local, d, shears)[0])
    return cones


def test_the_ladder_on_lower_rank_cones_starts_at_the_least_s_of_each_class(monkeypatch):
    # the primitive (u, s) of a dual vertex class of a lower-rank cone can
    # have a larger s than the class's least; starting from the least s,
    # the box bound and the shrunk rungs, the 1500 cones list 1889 points
    # in 603 rungs, where the doubling ladder from the primitive
    # representatives' max s listed 2459 in 1009 (1999 in 673 from those
    # representatives with the rest of this ladder). The thresholds and
    # witnesses, 317 of them under 1, are pinned as that ladder gave them
    listed = []

    def listing(*args, **kwargs):
        points = level_points(*args, **kwargs)
        listed.append(len(points))
        return points

    monkeypatch.setattr("polyadj.fan.level_points", listing)
    out = []
    for c in _seeded_lower_rank_cones(1500, 0):
        t, w = canonicity_threshold(c)
        out.append((c.rays, t, None if w is None else w.point))
    assert (sum(listed), len(listed)) == (1889, 603)
    assert sum(1 for _, t, _ in out if t < 1) == 317
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "84c4392b0d5611d41010a7d5046a7bf71b4babdf1f717e29a71da24e6ae53684"


def test_the_descriptions_of_seeded_lower_rank_cones_are_pinned():
    # sha256 of the rays and the dual height description (region,
    # lineality, duals, scale) of 1500 seeded cones of lower rank, 71 of
    # them with more than one dual vertex, pinned before the double
    # description took the rows that vanish on the lineality after its
    # pivots: each ray is the one representative of its class in the span
    # of the pivots, whatever the order of the rest
    out = [(c.rays, c.functionals[:4]) for c in _seeded_lower_rank_cones(1500, 41)]
    assert sum(1 for _, (region, *_) in out if sum(1 for z, _ in region if z[-1]) > 1) == 71
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "b62f0694aff2b49d871b011857b13ea24704f8e4cb486a661a766f50aa8a4f56"


def _least_s(rays, u, s):
    """The least s' > 0 with an integer u' of <r, u'> = s' <r, u> / s on every ray, which divides s."""
    return next(k for k in range(1, s + 1) if all(k * dot(r, u) % s == 0 for r in rays)
                and integer_solvable(rays, [k * dot(r, u) // s for r in rays]))


def test_the_height_floor_takes_a_kernel_only_where_it_can_raise_m(count_calls):
    # the least s of a dual vertex class divides its primitive s, so the
    # classes are visited by decreasing primitive s and the kernels stop at
    # the first whose primitive s cannot raise m, or once m reaches the box
    # bound: 364 kernels on the 1500 cones, where one per class took 1581.
    # m is min(max least s, M), the least s found by a search
    cones = _seeded_lower_rank_cones(1500, 0)
    kernels = count_calls((ratmath, "integer_kernel_basis"))
    floors = [_height_floor(c) for c in cones]
    assert kernels == {"integer_kernel_basis": 364}
    for c, m in zip(cones, floors):
        rays = [list(r) for r in c.rays]
        top = max(_least_s(rays, z[:-1], z[-1]) for z, _ in c.functionals[0] if z[-1])
        assert m == min(top, max(abs(x) for r in c.rays for x in r))


def _cone_points_match_the_box_scan(c, local_rays=None, to_ambient=None):
    """level_points of the levels of Q = conv(0, rays) against a box scan of Q / shrink.

    shrink is 1, 2, 3, 7, 64 and the Fraction rungs 3/2 and 16/5, and the
    levels hold level 1 read off 0 and the rays.

    The box scan keeps the points of the bounding box of 0 and the r /
    shrink on the inner side of every facet of their hull (brute_facets;
    the box itself when the span has rank 1). For a lower-rank cone it runs
    on full-rank local rays, and the levels, in Z^d, must give the image of
    its points under to_ambient, in lexicographic order.
    """
    levels = _cone_levels(c.rays, c.functionals[4])
    assert len(levels) == c.ambient_dim + 1
    rays = local_rays or c.rays
    d = len(rays[0])
    for shrink in (1, 2, 3, 7, 64, Fraction(3, 2), Fraction(16, 5)):
        corners = [(Fraction(0),) * d] + [tuple(Fraction(x) / shrink for x in r) for r in rays]
        facets = brute_facets(corners) if d > 1 else ()

        def inside(x):
            return all(sum(a * xi for a, xi in zip(normal, x)) <= b for normal, b in facets)

        expected = box_lattice_points(corners, inside)
        if to_ambient is not None:
            expected = sorted(map(to_ambient, expected))
        assert level_points(levels, shrink=shrink) == expected


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.data())
def test_cone_levels_of_simplicial_cones_match_the_box_scan(d, data):
    rays = data.draw(st.lists(st.tuples(*[ray_entry] * d), min_size=d, max_size=d))
    assume(laplace_det([list(r) for r in rays]) != 0)
    _cone_points_match_the_box_scan(cone(rays))


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 4), st.data())
def test_cone_levels_of_non_simplicial_cones_match_the_box_scan(d, data):
    rays = data.draw(_upper_rays(d, d + 1, d + 3))
    # brute_facets needs full-rank rays: on rays that span a hyperplane,
    # such as (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1), it
    # returns only x_1 <= 0 and -x_1 <= 0; cones of lower rank are checked
    # by the lower-rank test below
    assume(any(laplace_det([list(r) for r in s]) != 0 for s in itertools.combinations(rays, d)))
    c = cone(rays)
    assume(rank(c.rays) != c.n_rays)
    _cone_points_match_the_box_scan(c)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 4), st.data())
def test_cone_levels_of_lower_rank_cones_match_the_box_scan(d, data):
    _cone_points_match_the_box_scan(*_lower_rank_cone(d, data))


@st.composite
def _one_vertex_cones(draw):
    """Cones whose dual height region has one vertex: simplicial ones, and
    pyramids over lattice points of a slice x_d = h."""
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        rays = draw(st.lists(st.tuples(*[ray_entry] * d), min_size=d, max_size=d))
        assume(laplace_det([list(r) for r in rays]) != 0)
    else:
        h = draw(st.integers(1, 3))
        rays = [q + (h,) for q in draw(st.lists(st.tuples(*[ray_entry] * (d - 1)), min_size=d, max_size=d + 3))]
        assume(any(laplace_det([list(r) for r in s]) != 0 for s in itertools.combinations(rays, d)))
    c = cone(rays)
    assume(len(brute_dual_vertices(c.rays)) == 1)
    return c


@settings(deadline=None, max_examples=60)
@given(_one_vertex_cones())
def test_the_one_vertex_top_gives_the_levels_of_the_double_description(c):
    # the rows of conv(0, rays) read off the start of a cone whose dual
    # height region has one vertex, which takes the route of every other
    # cone, against one double description of its points, level by level
    d = c.ambient_dim
    start = _functionals(c.rays, d)[4]
    rows = [(0,) * d + (1,)] + [tuple(-x for x in r) + (1,) for r in c.rays]
    points = sorted([(0,) * d, *c.rays])
    got = _cone_levels(c.rays, start)
    expected = projected_levels(*double_description(rows, d + 1), points)
    assert got[0] is expected[0] is None
    assert [set(level) for level in got[1:]] == [set(level) for level in expected[1:]]


def _valid_rows_match_the_double_description_of_the_points(c):
    """The valid-row cone _cone_levels hands to projected_levels for c, against one double description of its points.

    The rays and their tight sets must be equal when the rays span. For a
    lower-rank cone, each ray is one representative of its class modulo
    the equations of the span: the lineality must span the same space, the
    rays of one tight set must be parallel modulo it, and both levels must
    list the same lattice points at shrinks 1, 2, 3 and 3/2. Every cone
    reads the rows off its start; returns whether the dual region has more
    than one vertex.
    """
    d = c.ambient_dim
    region, _, _, _, start = c.functionals
    handed = []

    def recording(rays, lineality, points):
        handed.append((rays, lineality))
        return projected_levels(rays, lineality, points)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fan_module, "projected_levels", recording)
        levels = _cone_levels(c.rays, start)
    (rays, kernel), = handed
    rows = [(0,) * d + (1,)] + [tuple(-x for x in r) + (1,) for r in c.rays]
    expected, expected_kernel = double_description(rows, d + 1)
    if not expected_kernel:
        assert kernel == () and sorted(rays) == list(expected)
    else:
        assert len(kernel) == len(expected_kernel) == rank(list(kernel) + list(expected_kernel))
        by_tight = dict((t, z) for z, t in expected)
        assert sorted(t for _, t in rays) == sorted(by_tight)
        assert all(rank(list(kernel) + [z, by_tight[t]]) == len(kernel) + 1 for z, t in rays)
        fresh = projected_levels(expected, expected_kernel, sorted([(0,) * d, *c.rays]))
        for shrink in (1, 2, 3, Fraction(3, 2)):
            assert level_points(levels, shrink=shrink) == level_points(fresh, shrink=shrink)
    return sum(1 for z, _ in region if z[d]) > 1


def test_the_valid_rows_of_the_suite_cones_are_the_double_description_of_their_points(suite):
    several = [_valid_rows_match_the_double_description_of_the_points(c)
               for _, p in suite for c in normal_fan(p).maximal_cones]
    assert (len(several), sum(several)) == (1117, 452)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_the_valid_rows_of_drawn_cones_are_the_double_description_of_their_points(d, placed, data):
    # cones of rank 1-4: rays with a positive last coordinate, of any rank,
    # or full-rank rays of Z^k placed in Z^d by a unimodular map
    c = _lower_rank_cone(d, data)[0] if placed and d > 1 else cone(data.draw(_upper_rays(d, 1, d + 3)))
    _valid_rows_match_the_double_description_of_the_points(c)


def _largest_dual_denominator(c):
    # max s over the primitive (u, s) of the dual vertices u / s, from the oracle
    return max(lcm(*(x.denominator for x in u)) for u in brute_dual_vertices(c.rays))


def test_canonicity_threshold_makes_at_most_two_double_descriptions_and_no_rank(monkeypatch, count_calls):
    # a full-rank cone makes one double description for its dual vertices and
    # facets, and none for the levels of conv(0, rays): level d is read off
    # it, each level below being an equality cut of the one above. The rows
    # of level d come from its pivot stage, the start the cone keeps, with
    # one sign changed and the ray rows that waited added, whatever the
    # vertices of the dual region: none on the plane cone, one on the
    # pyramid (4 rays in Z^3; its one-vertex region held those rows
    # already, and the one route costs it this pair step), and 2 on each
    # d4-s4029 cone (three vertices), then 2 cuts: 4 pair steps and no pivot
    # on each of those cones, where a second double description of the
    # points took 5 pivots and 2 pair steps before the cuts. No
    # from_vertices builds conv(0, rays), and the rays span, so no rank is
    # taken. The cone of rank 2 in Z^3 is described once on its rays, whose
    # lineality, the equation of its plane, its levels keep, so it takes no
    # rank either. A cone built by hand describes its rays when it is built,
    # so each hand-made cone is built again inside the count and makes that
    # one pivot stage and its steps, the pyramid its waiting row again and
    # one cut, and the flat cone one cut; the skew cone, whose dual vertices all
    # have s = 1, compiles no levels (cone() would pass in the description it
    # validated with, test_a_validated_cone_keeps_its_dual_description). The
    # normal fan's cones arrive with the description normal_fan proved them
    # full-dimensional with, so they make no pivot stage. Every step of a
    # description, a cut or the levels is one pivot (_lift) or one pair step
    # (_add_row), counted per cone as (_lift, _add_row) calls; no row here
    # waits on a lineality, so every _lift call pivots
    plane, pyramid, skew, flat = (Cone(len(gens[0]), cone(gens).rays) for gens in
                                  ([(2, -1), (2, 1)], PYRAMID_RAYS, SKEW_RAYS, [(2, -1, 0), (2, 1, 0)]))
    cones = normal_fan(random_lattice_polytope(4, 6, 4029, box=2)).maximal_cones
    assert [_largest_dual_denominator(c) for c in (pyramid, skew)] == [2, 1]
    assert all(_largest_dual_denominator(c) > 1 for c in cones)
    assert [len(brute_dual_vertices(c.rays)) for c in [plane, pyramid] + list(cones)] == [1, 1] + [3] * 6
    built = []
    monkeypatch.setattr("polyadj.polytope.from_vertices", lambda *args: built.append(args))
    counts = count_calls((ratmath, "rank"), (polytope, "double_description"), (polytope, "_pivots"),
                         (polytope, "_lift"), (polytope, "_add_row"))
    steps = []
    for c, by_hand in [(plane, True), (pyramid, True), (skew, True), (flat, True)] + [(c, False) for c in cones]:
        counts.update(_pivots=0, _lift=0, _add_row=0)
        canonicity_threshold(Cone(c.ambient_dim, c.rays) if by_hand else c)
        assert counts["_pivots"] == by_hand and built == []
        steps.append((counts["_lift"], counts["_add_row"]))
    assert counts["rank"] == counts["double_description"] == 0
    assert steps == [(3, 0), (4, 3), (4, 1), (4, 0)] + [(0, 4)] * 6
    assert canonicity_threshold(plane)[0] == Fraction(1, 2)
    assert canonicity_threshold(pyramid)[0] == Fraction(1, 2)
    assert canonicity_threshold(flat)[0] == Fraction(1, 2)


def test_a_cone_with_every_dual_s_1_lists_no_point(monkeypatch):
    # (1, 0), (1, 2) is not smooth, but its one dual vertex is u = (1, 0) with
    # s = 1, so every height is at least 1
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return level_points(*args, **kwargs)

    monkeypatch.setattr("polyadj.fan.level_points", counting)
    for rays in ([(1, 0), (0, 1)], [(1, 0), (1, 2)]):
        assert canonicity_threshold(cone(rays)) == (1, None)
    assert not is_smooth_cone(cone([(1, 0), (1, 2)]))
    assert calls == []


def test_smoothness_of_cones_of_every_rank():
    # smooth: the rays are part of a lattice basis, so they are independent
    # and the gcd of their k x k minors is 1
    assert is_smooth_cone(cone([(1, 0, 0), (0, 1, 0)]))
    assert not is_smooth_cone(cone([(1, 1, 0), (1, -1, 0)]))
    assert is_smooth_cone(cone([(1, 1, 1)])) and is_smooth_cone(cone([(2, 3, 0), (1, 1, 5)]))
    # four extreme rays of a rank 3 cone in Z^4 are not simplicial
    assert not is_smooth_cone(cone([(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]))
    # against the reference: the rays are independent and write each vector
    # of the saturated lattice of their span with integer coefficients
    for c in _seeded_lower_rank_cones(1500, 1):
        columns = [list(col) for col in zip(*c.rays)]
        smooth = rank(c.rays) == c.n_rays and all(
            all(x.denominator == 1 for x in gauss_solve(columns, b)) for b in saturate(c.rays))
        assert is_smooth_cone(c) == smooth


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_threshold_is_at_least_one_over_the_largest_dual_s(d, data):
    rays = data.draw(_upper_rays(d, d, d + 3))
    assume(any(laplace_det([list(r) for r in s]) != 0 for s in itertools.combinations(rays, d)))
    c = cone(rays)
    assert brute_canonicity(c.rays)[0] >= Fraction(1, _largest_dual_denominator(c))


SUITE_BOX_CAP = 2000


def test_threshold_of_the_suite_cones_matches_the_box_scan(suite):
    # the oracle scans the bounding box of conv(0, rays); the cap on its
    # size only bounds the oracle's time (751 of the 1117 cones are under it)
    checked = 0
    for _, p in suite:
        for c in normal_fan(p).maximal_cones:
            size = prod(max(0, *col) - min(0, *col) + 1 for col in zip(*c.rays))
            if size <= SUITE_BOX_CAP:
                _agrees_with_the_box_scan(c)
                checked += 1
    assert checked == 751


def _points_scanned(monkeypatch, c):
    counts = []

    def counting(*args, **kwargs):
        points = level_points(*args, **kwargs)
        counts.append(len(points))
        return points

    monkeypatch.setattr("polyadj.fan.level_points", counting)
    canonicity_threshold(c)
    monkeypatch.undo()
    return sum(counts)


def test_points_scanned_by_the_threshold_are_pinned(monkeypatch):
    # counted over every round of the ladder, the origin included; the full
    # scan of conv(0, rays) visited 5, 5 and, on the cones of d4-s4029,
    # 42546, 46417, 4201, 68286, 78831 and 14514 points, and the ladder over
    # the regions R_w from 1/64 up, one enumeration per w, 7, 22 and 10, 25,
    # 14, 10, 28, 15. The doubling ladder from 1 / max s listed 5, 23, 5, 7,
    # 39 and 12; starting at the box bound, with the rungs after the first
    # points shrunk to min(5/4 t, least height listed), it lists 3, 19, 3,
    # 3, 36 and 8. The plane cone starts at 1/2 and keeps (1, 0); the skew
    # cone has s = 1 at both dual vertices and lists nothing
    assert _points_scanned(monkeypatch, cone([(2, -1), (2, 1)])) == 2
    assert _points_scanned(monkeypatch, cone(SKEW_RAYS)) == 0
    cones = normal_fan(random_lattice_polytope(4, 6, 4029, box=2)).maximal_cones
    assert [_points_scanned(monkeypatch, c) for c in cones] == [3, 19, 3, 3, 36, 8]


def _first_minimum(cones):
    """The least uncapped canonicity_threshold of the cones, with the witness
    of the first cone attaining it, as a strict t < best keeps it."""
    best, witness = Fraction(1), None
    for c in cones:
        t, w = canonicity_threshold(c)
        if t < best:
            best, witness = t, w
    return best, witness


def test_the_fan_scan_matches_the_uncapped_cones_on_the_suite(suite):
    for _, p in suite:
        fan = normal_fan(p)
        assert fan_canonicity_threshold(fan) == _first_minimum(fan.maximal_cones)


def _reflected(c):
    # the image under x_1 -> -x_1, a lattice automorphism: the same threshold
    # and the witness reflected, which can change the lexicographic order
    return cone([(-r[0],) + tuple(r[1:]) for r in c.rays])


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.data())
def test_the_fan_scan_matches_the_uncapped_cones_on_drawn_fans(d, data):
    # full-rank and lower-rank cones, with reflected copies that tie
    cones = [cone(rays) for rays in data.draw(st.lists(_upper_rays(d, 1, d + 2), min_size=1, max_size=4))]
    for k in data.draw(st.lists(st.integers(0, len(cones) - 1), max_size=2)):
        cones.insert(data.draw(st.integers(0, len(cones))), _reflected(cones[k]))
    assert fan_canonicity_threshold(NormalFan(d, (), (), tuple(cones))) == _first_minimum(cones)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 3), st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(2, 4))
def test_the_fan_scan_matches_the_uncapped_cones_on_drawn_polytopes(d, seed, extra, box):
    cones = normal_fan(random_lattice_polytope(d, d + extra, seed, box=box)).maximal_cones
    assert fan_canonicity_threshold(NormalFan(d, (), (), cones)) == _first_minimum(cones)


def test_a_tie_between_cones_goes_to_the_first_cone():
    # both cones have threshold 1/2; the second one's witness (-1, 0) is
    # lexicographically smaller, and still the first cone's (1, 0) is kept
    right, left = cone([(2, -1), (2, 1)]), cone([(-2, -1), (-2, 1)])
    for cones, point in (((right, left), (1, 0)), ((left, right), (-1, 0))):
        t, w = fan_canonicity_threshold(NormalFan(2, (), (), cones))
        assert (t, w.cone, w.point) == (Fraction(1, 2), cones[0], point)
        assert (t, w) == _first_minimum(cones)


def _ladder_work(monkeypatch, fan):
    """(points listed, rungs taken, levels compiled) by fan_canonicity_threshold(fan),
    a rung being one level_points call of one cone."""
    listed, compiled = [], []

    def listing(*args, **kwargs):
        points = level_points(*args, **kwargs)
        listed.append(len(points))
        return points

    def compiling(*args):
        compiled.append(None)
        return _cone_levels(*args)

    monkeypatch.setattr("polyadj.fan.level_points", listing)
    monkeypatch.setattr("polyadj.fan._cone_levels", compiling)
    fan_canonicity_threshold(fan)
    monkeypatch.undo()
    return sum(listed), len(listed), len(compiled)


def test_the_fan_scan_work_is_pinned(monkeypatch, suite):
    # each cone's ladder stops below the least threshold of the cones
    # before it. Uncapped, the ladders took (91, 34, 6) on the cones of
    # d4-s4029, (780, 341, 10) on (5, 10, 2, box=5) and (7598, 3150, 896)
    # over the suite's fans. Capped, the doubling ladder from 1 / max s took
    # (32, 30, 6), (408, 336, 10) and (4909, 2755, 803); the box bound and
    # the rungs shrunk to min(5/4 t, least height listed, below) once a rung
    # lists points take what is pinned here
    fan = normal_fan(random_lattice_polytope(4, 6, 4029, box=2))
    assert _ladder_work(monkeypatch, fan) == (13, 11, 6)
    fan = normal_fan(random_lattice_polytope(5, 10, 2, box=5))
    assert _ladder_work(monkeypatch, fan) == (100, 27, 10)
    total = [0, 0, 0]
    for _, p in suite:
        total = [a + b for a, b in zip(total, _ladder_work(monkeypatch, normal_fan(p)))]
    assert total == [3466, 1488, 770]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_a_capped_threshold_is_the_threshold_below_the_cap(d, data):
    c = cone(data.draw(_upper_rays(d, 1, d + 2)))
    below = Fraction(data.draw(st.integers(1, 64)), 64)
    t, w = canonicity_threshold(c)
    assert canonicity_threshold(c, below) == ((t, w) if t < below else (below, None))


def test_the_cap_must_lie_in_the_unit_interval():
    for below in (0, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            canonicity_threshold(cone([(2, -1), (2, 1)]), below)


PROBE = """
import hashlib, json
from polyadj import fan
from polyadj.generators import random_lattice_polytope
walk, scan, duals, work = fan.level_points, fan.canonicity_threshold, [0], [0, 0, 0]

def counted_scan(c, below):
    duals[0] = len(c.functionals[2])
    return scan(c, below)

def counted_walk(levels, shrink):
    points = walk(levels, shrink=shrink)
    work[0] += len(points)
    work[1] += 1
    work[2] += sum(1 for pt in points if any(pt)) * duals[0]
    return points

fan.level_points, fan.canonicity_threshold = counted_walk, counted_scan
digests, counts = [], []
for d, n, seed, box in ((5, 10, 2, 5), (5, 10, 4, 5), (6, 11, 2, 2), (7, 12, 2, 2), (7, 12, 1, 2)):
    work[:] = [0, 0, 0]
    t, w = fan.fan_canonicity_threshold(fan.normal_fan(random_lattice_polytope(d, n, seed, box=box)))
    text = repr((str(t), None if w is None else (w.cone.rays, w.point)))
    digests.append(hashlib.sha256(text.encode()).hexdigest())
    counts.append(work[:])
print(json.dumps({"digests": digests, "work": counts}))
"""
# sha256 of repr((str(threshold), (witness cone rays, witness point))): the
# first three from the ladder over the regions R_w, which took 10.5, 9.3
# and 10.0 s on Python 3.11.7 with 2 CPUs, the d=7 s=2 one from the
# uncapped ladders, which took 7.6 s there, and the d=7 s=1 one from the
# doubling ladder from 1 / max s (2.8 s there)
PROBE_DIGESTS = [
    "c628ba77e0817b27f1e12f5d8acdcf1d94c5d96fa032e76c1810af6e1bb5732d",
    "f7ab4a219e3471a4243b8868670303daa59fc8d435bc3f8de10e65cdc45a144f",
    "02f55aab96c32067f0e641d9ee50520eb4b3c6fe48279bfaab359d7c81b780ff",
    "1b777c31fa02a4cb0c89feb3b0a4646c49e14e54603f5e5e1adf7c0b0399455d",
    "066f79c79bb3b3f659b2d8dcbeff6268f04fcc1c00ffa13e1cb493ec06ef0050",
]


@pytest.fixture(scope="module")
def probe_run():
    """The PROBE script's output, run once in a fresh interpreter with a time limit."""
    package_root = str(Path(polyadj.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": pythonpath},
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


def test_d5_to_d7_fan_thresholds_within_a_time_cap(probe_run):
    # thresholds of order 10^-3 to 10^-6 on cones with entries in the
    # thousands: the ladder starts at the proven bound 1 / min(max s, M),
    # M the largest |entry| of the rays. The time limit is generous: the
    # five probes take about 4.6 s on Python 3.11.7 with 2 CPUs, 3 s of it
    # (7, 12, 1, 2), and a hang fails the test
    assert probe_run["digests"] == PROBE_DIGESTS


def test_the_ladder_work_on_the_probe_fans_is_pinned(probe_run):
    # (points listed, rungs, height dot products) of each probe fan's scan,
    # a dot product being one <w, x> of a dual vertex w at a nonzero point
    # x listed. The doubling ladder from 1 / max s took (408, 336, 2281),
    # (327, 302, 739), (912, 199, 75594), (514, 456, 20575) and
    # (1455, 441, 434151); the rungs shrunk to min(5/4 t, least height
    # listed, below) once a rung lists points take what is pinned here
    assert probe_run["work"] == [[100, 27, 2321], [50, 25, 739], [319, 45, 29499], [92, 34, 20575],
                                 [302, 43, 110701]]


def test_fan_threshold_of_the_scaled_triangle():
    fan = normal_fan(scaled_simplex(2, 3))
    t, w = fan_canonicity_threshold(fan)
    assert t == Fraction(2, 3)
    assert w.point == (0, 1)
    assert w.height == t


def test_index_r_cone_is_1_over_r_canonical():
    for rays in ([(2, -1), (2, 1)], [(3, -1), (3, 1)], [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]):
        c = cone(rays)
        cert = gorenstein_index(c)
        t, _ = canonicity_threshold(c)
        assert t >= Fraction(1, cert.index)


def test_every_q_gorenstein_suite_fan_is_1_over_r_canonical(suite_reports):
    # the abstract's alpha = 1/r inclusion at the fan level: a fan of
    # Gorenstein index r has canonicity threshold at least 1/r; on the
    # suite 104 fans have an index and 9 of them meet the bound
    bounds = [(rep.fan_info.canonicity_threshold, Fraction(1, rep.fan_info.gorenstein_index))
              for rep in suite_reports.values() if rep.fan_info.gorenstein_index is not None]
    assert len(bounds) == 104
    assert all(t >= bound for t, bound in bounds)
    assert sum(t == bound for t, bound in bounds) == 9


def test_gorenstein_certificate_contents():
    cert = gorenstein_index(cone([(2, -1), (2, 1)]))
    assert cert.index == 2
    assert cert.functional == (1, 0)
    for r in ((2, -1), (2, 1)):
        assert dot(r, cert.functional) == cert.index


def test_gorenstein_index_minimality_against_the_reference():
    for rays in ([(2, -1), (2, 1)], [(3, -1), (3, 2)], [(5, -2), (5, 3)],
                 [(1, 0, 1), (-1, 0, 1), (0, 1, 2)]):
        c = cone(rays)
        cert = gorenstein_index(c)
        assert cert is not None
        assert confirms_minimal_level([list(r) for r in c.rays], cert.index)
        assert smallest_solvable_level([list(r) for r in c.rays], cert.index) == cert.index


def test_non_gorenstein_cone_reports_none():
    c = cone(SKEW_RAYS)
    assert gorenstein_index(c) is None
    # no rational functional is constant on the rays
    assert gauss_solve([list(r) for r in c.rays], [1] * c.n_rays) is None


def test_fan_index_is_the_lcm_over_maximal_cones():
    from math import lcm
    fan = normal_fan(scaled_simplex(2, 4))
    per_cone = [gorenstein_index(c) for c in fan.maximal_cones]
    assert all(cert is not None for cert in per_cone)
    assert fan_gorenstein_index(fan) == lcm(*(cert.index for cert in per_cone)) == 2


def _index_agrees_with_the_certificates(fan):
    """fan_gorenstein_index(fan), checked against gorenstein_index and the
    oracle cone by cone, before and after a canonicity scan of the fan."""
    before = fan_gorenstein_index(fan)
    fan_canonicity_threshold(fan)
    certs = [gorenstein_index(c) for c in fan.maximal_cones]
    for c, cert in zip(fan.maximal_cones, certs):
        rays = [list(r) for r in c.rays]
        if cert is None:
            assert gauss_solve(rays, [1] * c.n_rays) is None
        else:
            assert cert.index == smallest_solvable_level(rays, cert.index)
    expected = None if None in certs else lcm(*(cert.index for cert in certs))
    assert before == fan_gorenstein_index(fan) == expected
    return expected


def test_the_fan_index_matches_the_certificates_on_the_suite(suite):
    # 96 of the suite's fans, all of them in d=3 and d=4, have a maximal cone
    # with no Gorenstein functional
    indices = [_index_agrees_with_the_certificates(normal_fan(p)) for _, p in suite]
    assert indices.count(None) == 96


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 4))
def test_the_fan_index_matches_the_certificates_on_drawn_polytopes(d, seed, extra, box):
    _index_agrees_with_the_certificates(normal_fan(random_lattice_polytope(d, d + extra, seed, box=box)))


def test_the_index_of_a_lower_rank_cone_is_read_in_its_saturated_frame():
    # the rays span a plane of Z^3; (1, 0, 0) and (1, 2, 0) give index 1
    # there, and (2, -1, 0), (2, 1, 0) give the functional (1, 0, 0) at 2.
    # The rays (-1, -1, -1), (-2, 0, -1) have index 1, with the functional
    # (0, 0, -1), but the primitive (u, s) that the dual height description
    # gives for the vertex tight at both, a class modulo the functionals
    # that vanish on the plane, has s = 2: the index of a cone of lower rank
    # is taken over its whole class, through an integer kernel
    for rays, index in (([(1, 0, 0), (1, 2, 0)], 1), ([(2, -1, 0), (2, 1, 0)], 2),
                        ([(-2, -2, -2), (-2, 0, -1)], 1),
                        ([(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 3, 0)], None)):
        cert = gorenstein_index(cone(rays))
        assert (None if cert is None else cert.index) == index


def test_gorenstein_index_takes_a_kernel_only_when_the_rays_do_not_span(count_calls, suite):
    # a maximal cone's certificate is the dual height vertex tight at every
    # ray, read off the description the cone keeps
    counts = count_calls((ratmath, "integer_kernel_basis"))
    certs = [gorenstein_index(c) for _, p in suite for c in normal_fan(p).maximal_cones]
    assert counts == {"integer_kernel_basis": 0}
    assert sum(cert is not None for cert in certs) == 665
    cert = gorenstein_index(cone([(-2, -2, -2), (-2, 0, -1)]))
    assert counts == {"integer_kernel_basis": 1}
    assert (cert.index, cert.functional) == (1, (0, 0, -1))


def test_a_lower_rank_cone_without_an_index_takes_no_integer_kernel(count_calls):
    # no dual height vertex is tight at every ray of the first cone, so it
    # has no index and no class to take a kernel of; the second has one
    counts = count_calls((ratmath, "integer_kernel_basis"))
    assert gorenstein_index(cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 2, 0)])) is None
    assert counts == {"integer_kernel_basis": 0}
    cert = gorenstein_index(cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]))
    assert counts == {"integer_kernel_basis": 1}
    assert (cert.index, cert.functional) == (1, (0, 0, 1, 0))


def test_the_index_of_lower_rank_cones_is_the_least_level_of_the_solution_lattice():
    # the integer solutions (w, k) of <ray, w> = k on every ray are the
    # kernel of [R | -1]; the gcd of the basis' k coordinates is the least
    # k, 0 when no k > 0 is attained (28 of the 600 cones), and the same
    # gcd combination gives w
    cones = _seeded_lower_rank_cones(600, 1)
    missing = 0
    for c in cones:
        d = c.ambient_dim
        basis = integer_kernel_basis([tuple(r) + (-1,) for r in c.rays], ncols=d + 1)
        index, coeffs = ext_gcd_list([v[d] for v in basis])
        cert = gorenstein_index(c)
        if index == 0:
            assert cert is None
            missing += 1
        else:
            functional = tuple(sum(k * v[j] for k, v in zip(coeffs, basis)) for j in range(d))
            assert (cert.index, cert.functional) == (index, functional)
    assert missing == 28
