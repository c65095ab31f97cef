"""H/V conversions, canonicalization, embeddings, lattice enumeration."""

import collections
import gc
import hashlib
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    bland_simplex,
    box_lattice_points,
    brute_facets,
    brute_vertices,
    cofactor_normal,
    cramer_solve,
    fm_maximize,
    gauss_rank,
    fm_project_feasible,
    laplace_det,
)
from polyadj import adjunction, analyze, fan, lp, polytope, ratmath, read_polytope, spectrum
from polyadj.errors import (
    DimensionMismatchError,
    EmptyPolytopeError,
    InvalidConeError,
    LowerDimensionalError,
    NonUnimodularError,
    PolyadjError,
    UnboundedPolytopeError,
)
from polyadj.generators import SplitMix64, cube, fig1, random_lattice_polytope, scaled_simplex
from polyadj.polytope import (
    AffineSubspace,
    HPolytope,
    dilate,
    double_description,
    embed_system,
    from_inequalities,
    from_vertices,
    hull_any_dim,
    implicit_equalities,
    is_lattice_polytope,
    lattice_points,
    level_points,
    make_system,
    projected_levels,
    transform,
    vertices,
)
from polyadj.ratmath import dot, integer_kernel_basis, primitivize, rank, vec_add

coord = st.integers(min_value=-4, max_value=4)
small = st.integers(min_value=-2, max_value=2)
rational = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                     st.integers(min_value=1, max_value=3))


def point_sets(d, n):
    return st.lists(st.tuples(*([coord] * d)), min_size=n, max_size=n)


TRIANGLE_ROWS = [((-1, 0), 0), ((0, -1), 0), ((3, 1), 3)]


def test_canonicalization_drops_redundant_and_scaled_rows():
    base = from_inequalities(TRIANGLE_ROWS)
    with_redundant = from_inequalities(TRIANGLE_ROWS + [((1, 0), 1)])
    with_scaled = from_inequalities(TRIANGLE_ROWS[:2] + [((6, 2), 6)])
    assert with_redundant == base
    assert with_scaled == base
    assert base.n_facets == 3
    assert all(all(isinstance(x, int) for x in a) for a in base.normals)


def test_rows_are_sorted_and_order_independent():
    rows = [((0, 1), 3), ((1, 0), 2), ((-1, 0), 0), ((0, -1), 0)]
    assert from_inequalities(rows) == from_inequalities(rows[::-1])


def test_merged_parallel_rows_keep_the_tighter_one():
    p = from_inequalities([((1, 0), 5), ((1, 0), 2), ((-1, 0), 0),
                           ((0, 1), 1), ((0, -1), 0)])
    assert ((1, 0), Fraction(2)) in list(zip(p.normals, p.rhs))
    assert ((1, 0), Fraction(5)) not in list(zip(p.normals, p.rhs))


def test_empty_and_unbounded_and_flat_inputs_are_rejected():
    with pytest.raises(EmptyPolytopeError):
        from_inequalities([((1, 0), 0), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([((1, 0), 1), ((0, 1), 1)])
    with pytest.raises(LowerDimensionalError):
        from_inequalities([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    # empty beats unbounded, and unbounded beats flat, also when the system
    # has a line (the y axis is free in all three)
    with pytest.raises(EmptyPolytopeError):
        from_inequalities([((1, 0), 0), ((-1, 0), -1)])
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([((1, 0), 1), ((-1, 0), 0)])
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([((1, 0), 0), ((-1, 0), 0)])
    # a single point
    with pytest.raises(LowerDimensionalError):
        from_inequalities([((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -2)])


@pytest.mark.parametrize("normals, rhs, error", [
    (((1, 0), (0, 1)), (1, 1), UnboundedPolytopeError),  # two rays
    (((-1, 0), (1, 0)), (1, 1), UnboundedPolytopeError),  # a line
    (((-1, 0), (0, -1), (0, 1), (1, 0)), (0, 1, 1, 0), LowerDimensionalError),  # x = 0
    (((1, 0), (-1, 0), (0, 1), (0, -1)), (0, -1, 1, 1), EmptyPolytopeError),  # x <= 0 and x >= 1
], ids=["quadrant", "strip", "segment", "empty"])
def test_a_hand_built_polytope_raises_what_from_inequalities_raises(normals, rhs, error):
    # a polytope built by hand computes its vertices and incidence when it
    # is built, with the helper from_inequalities uses, so bad rows fail
    # there with the same typed error and never reach a later call
    with pytest.raises(error):
        HPolytope(2, normals, rhs)
    with pytest.raises(error):
        from_inequalities(list(zip(normals, rhs)))


SQUARE_NORMALS = ((-1, 0), (0, -1), (0, 1), (1, 0))


@pytest.mark.parametrize("build, error, message", [
    (lambda: HPolytope(2, ((-1, 0), (0, -1), (2, 0), (0, 1)), (0, 0, 2, 1)), ValueError, "hand-built"),
    (lambda: HPolytope(2, SQUARE_NORMALS + ((1, 1),), (0, 0, 1, 1, 5)), ValueError, "hand-built"),
    (lambda: HPolytope(2, SQUARE_NORMALS + ((1, 0),), (0, 0, 1, 1, 2)), ValueError, "hand-built"),
    (lambda: HPolytope(2, SQUARE_NORMALS[::-1], (1, 1, 0, 0)), ValueError, "hand-built"),
    (lambda: fan.Cone(2, ((2, 0), (0, 1))), InvalidConeError, "hand-built"),
    (lambda: fan.Cone(2, ((1, 0), (0, 1), (1, 1))), InvalidConeError, "hand-built"),
    (lambda: fan.Cone(2, ((1, 0), (-1, 0))), InvalidConeError, "containing a line"),
    (lambda: fan.Cone(3, ((0, 1), (1, 0))), InvalidConeError, "hand-built"),
    (lambda: polytope.EmbeddedPolytope(*(lambda s: (s.subspace, s.facets, s.vertices[::-1]))(
        hull_any_dim([(0, 0), (1, 1)]))), ValueError, "hand-built"),
    (lambda: polytope.EmbeddedPolytope(*(lambda s: (s.subspace, s.facets, ((0, 0), (0, 2))))(
        hull_any_dim([(0, 0), (0, 2), (2, 0), (2, 2)]))), ValueError, "hand-built"),
], ids=["non-primitive-normal", "redundant-row", "repeated-normal", "unsorted-rows",
        "non-primitive-ray", "non-extreme-ray", "line", "other-ambient-dim", "unsorted-vertices",
        "missing-vertices"])
def test_a_hand_built_record_that_is_not_canonical_is_refused(build, error, message):
    # a record built without its derived data is its canonicalizer's
    # output, from_inequalities of its rows or cone() of its rays, or it is
    # refused: the unit square with the row 2 x_1 <= 2, or with the
    # redundant row x_1 + x_2 <= 5, x_1 <= 1 given twice, its rows out of
    # order; a non-primitive ray, a ray inside the cone of the others, a
    # line, rays of Z^2 in a cone of Q^3; a segment with its vertices out of
    # order, which lattice_points would read level 1 off; the square [0, 2]^2
    # with two of its four vertices, whose lattice_points would list 3 of
    # its 9 points and which would contain (2, 2)
    with pytest.raises(error, match=message):
        build()


def test_a_hand_built_record_holds_its_canonical_fields():
    # rows equal to the canonical ones as numbers, int right hand sides or
    # Fraction entries, give the canonical record itself, repr included
    square = HPolytope(2, SQUARE_NORMALS, (0, 0, 1, 1))
    assert repr(square) == repr(from_inequalities(list(zip(SQUARE_NORMALS, (0, 0, 1, 1)))))
    assert all(type(b) is Fraction for b in square.rhs)
    c = fan.Cone(Fraction(2), ((0, Fraction(1)), (1, 0)))
    assert repr(c) == repr(fan.cone([(1, 0), (0, 1)])) == "Cone(ambient_dim=2, rays=((0, 1), (1, 0)))"


def test_hand_built_copies_carry_the_data_the_constructors_pass_in(suite, suite_reports):
    # a record built by hand fills what its caller did not pass when it is
    # built: a polytope its vertices and incidence, an embedded set the
    # incidence of the hull of its vertices, a cone its dual height
    # description. Over the suite each equals what the constructors pass
    # in, for every polytope, every acore, every core (a core is always
    # flat) and every maximal cone
    for key, p in suite:
        by_hand = HPolytope(p.dim, p.normals, p.rhs)
        assert (by_hand.vertices, by_hand.incidence) == (p.vertices, p.incidence), key
        report = suite_reports[key]
        for s in (report.data.acore, report.data.core):
            assert polytope.EmbeddedPolytope(s.subspace, s.facets, s.vertices).incidence == s.incidence, key
        for c in report.fan.maximal_cones:
            assert fan.Cone(c.ambient_dim, c.rays).functionals == c.functionals, key


def test_zero_rows_are_constant_conditions():
    p = from_inequalities(TRIANGLE_ROWS + [((0, 0), 1)])
    assert p.n_facets == 3
    with pytest.raises(EmptyPolytopeError):
        from_inequalities(TRIANGLE_ROWS + [((0, 0), -1)])


def test_vertices_of_the_running_example():
    got = {v for v in vertices(fig1())}
    assert got == {(0, 0), (4, 0), (5, 1), (5, 3), (0, 3)}


def _cross_polytope(d):
    return from_inequalities([(tuple(1 if k >> j & 1 else -1 for j in range(d)), 1)
                              for k in range(2 ** d)])


def _uncached(p):
    # the same rows without the vertices from_vertices passes in, so that
    # the polytope runs its own enumeration when it is built
    return HPolytope(p.dim, p.normals, p.rhs)


def test_vertex_enumeration_matches_brute_force_on_named_cases():
    # cube(4) and the cross-polytopes are degenerate: each vertex lies on
    # more than d facets
    for p in (fig1(), cube(3), cube(4), _cross_polytope(3), _cross_polytope(4),
              scaled_simplex(2, 3), scaled_simplex(3, 4)):
        got = set(vertices(_uncached(p)))
        assert got == brute_vertices(p.normals, p.rhs)
    assert len(vertices(cube(4))) == 16
    assert len(vertices(_cross_polytope(4))) == 8


def test_vertices_are_cached():
    p = cube(2)
    assert vertices(p) is vertices(p)


@settings(deadline=None, max_examples=80)
@given(point_sets(2, 5))
def test_vertex_hull_roundtrip_2d(pts):
    if rank([tuple(b - a for a, b in zip(pts[0], q)) for q in pts[1:]]) < 2:
        return
    p = from_vertices(pts)
    hull_back = set(vertices(p))
    assert hull_back == brute_vertices(p.normals, p.rhs)
    assert hull_back <= {tuple(Fraction(x) for x in q) for q in pts}
    for q in pts:
        assert p.contains(q)


@settings(deadline=None, max_examples=40)
@given(point_sets(3, 6))
def test_vertex_hull_roundtrip_3d(pts):
    if rank([tuple(b - a for a, b in zip(pts[0], q)) for q in pts[1:]]) < 3:
        return
    p = from_vertices(pts)
    assert set(vertices(p)) == brute_vertices(p.normals, p.rhs)


def _full_dim(pts):
    return rank([tuple(b - a for a, b in zip(pts[0], q)) for q in pts[1:]]) == len(pts[0])


def _check_hull_against_the_brute_scan(pts):
    p = from_vertices(pts)
    assert set(zip(p.normals, p.rhs)) == brute_facets(pts)
    assert set(vertices(_uncached(p))) == set(p.vertices)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(rational, rational), min_size=3, max_size=8), st.integers(0, 7))
def test_hull_facets_match_the_brute_force_scan_2d(pts, k):
    # rational points; repeated points; collinear triples are common
    pts = pts + pts[:k]
    if _full_dim(pts):
        _check_hull_against_the_brute_scan(pts)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(small, small, small), min_size=4, max_size=10), st.integers(0, 3))
def test_hull_facets_match_the_brute_force_scan_3d(pts, k):
    # a 5^3 box makes coplanar quadruples common; prefixes repeat points
    pts = pts + pts[:k]
    if _full_dim(pts):
        _check_hull_against_the_brute_scan(pts)


# From d = 4 on, two rays can share n - 2 tight rows of rank below n - 2
# (three collinear points); on these points a kernel that skipped the
# combinatorial adjacency test would report a valid inequality that is
# not a facet.
ADJACENCY_CASE = [(-1, 1, 2, 1), (-1, 2, -2, 1), (-1, -1, -2, -1), (-1, -1, 2, 2),
                  (-1, 2, 0, -2), (2, 0, -2, 0), (2, 0, -1, 2), (1, 1, 2, 2),
                  (2, -1, -1, 2), (2, -2, 1, 1), (0, -1, 1, 2)]


def test_hull_facets_match_the_brute_force_scan_on_the_adjacency_case():
    _check_hull_against_the_brute_scan(ADJACENCY_CASE)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 31), max_size=12))
def test_maximal_keeps_the_nonempty_sets_with_no_strict_superset(sets):
    # small bitmasks, so zeros, repeats and nested sets are all common;
    # repeats of a maximal set are all kept, each at its own position
    members = [frozenset(k for k in range(5) if m >> k & 1) for m in sets]
    expected = [i for i, m in enumerate(members) if m and not any(m < o for o in members)]
    assert polytope._maximal(sets) == expected


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(small, small, small, small), min_size=5, max_size=11))
def test_hull_facets_match_the_brute_force_scan_4d(pts):
    if _full_dim(pts):
        _check_hull_against_the_brute_scan(pts)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(rational, rational), min_size=3, max_size=6),
       st.lists(st.tuples(rational, rational, rational), min_size=1, max_size=3))
def test_hull_facets_match_the_brute_force_scan_3d_rational_coplanar(base, apexes):
    # a planar rational polygon at z = 0 plus a few rational points above or below it
    pts = [(x, y, Fraction(0)) for x, y in base] + apexes
    if _full_dim(pts):
        _check_hull_against_the_brute_scan(pts)


def _pointed_rays(rows, n):
    """The (ray, tight set) pairs of double_description(rows, n) for a pointed cone."""
    rays, lineality = double_description(rows, n)
    assert lineality == ()
    return rays


def test_extreme_rays_of_small_cones():
    # the nonnegative quadrant: each ray is tight on the other axis' row
    assert _pointed_rays([(1, 0), (0, 1)], 2) == (((0, 1), 0b01), ((1, 0), 0b10))
    # the cone over a square: four rays, each tight on two of the four rows
    rows = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    assert _pointed_rays(rows, 3) == (((-1, -1, 1), 0b0101), ((-1, 1, 1), 0b1001),
                                      ((1, -1, 1), 0b0110), ((1, 1, 1), 0b1010))
    for z, t in _pointed_rays(rows, 3):
        assert t == sum(1 << k for k, r in enumerate(rows) if dot(r, z) == 0)
        assert t.bit_count() == 2
    # a redundant row and a repeated one change no ray; the repeated row
    # (bit 5) is tight wherever its first copy (bit 0) is
    padded = _pointed_rays(rows + [(0, 0, 1), (1, 0, 1)], 3)
    assert tuple(z for z, _ in padded) == tuple(z for z, _ in _pointed_rays(rows, 3))
    assert all(t >> 5 & 1 == t & 1 and not t >> 4 & 1 for _, t in padded)
    # {0} has no rays
    assert _pointed_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == ()
    # a lower-dimensional pointed cone: the ray {(0, y) : y >= 0}
    assert _pointed_rays([(1, 0), (-1, 0), (0, 1)], 2) == (((0, 1), 0b011),)


def _check_padded_facets_canonicalize_to_the_hull(pts, data):
    facets = sorted(brute_facets(pts))
    d = len(pts[0])
    rows = list(facets)
    # weakly redundant rows: the sum of two facet normals with its max over
    # the points as right hand side is tight at a vertex or an edge
    pairs = list(itertools.combinations(facets, 2))
    for (a1, _), (a2, _) in data.draw(st.lists(st.sampled_from(pairs), max_size=6)):
        w = vec_add(a1, a2)
        if any(w):
            rows.append((w, max(dot(w, pt) for pt in pts)))
    rows += [(a, b + 1) for a, b in facets]  # loose
    rows += [(tuple(3 * x for x in a), 3 * b) for a, b in facets]  # scaled copies
    p = from_inequalities(data.draw(st.permutations(rows)))
    normals = tuple(a for a, _ in facets)
    rhs = tuple(b for _, b in facets)
    assert p == HPolytope(d, normals, rhs)
    assert set(p.vertices) == brute_vertices(normals, rhs)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(rational, rational), min_size=3, max_size=8), st.data())
def test_padded_facet_rows_canonicalize_to_the_brute_force_hull_2d(pts, data):
    if _full_dim(pts):
        _check_padded_facets_canonicalize_to_the_hull(pts, data)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(small, small, small), min_size=4, max_size=10), st.data())
def test_padded_facet_rows_canonicalize_to_the_brute_force_hull_3d(pts, data):
    if _full_dim(pts):
        _check_padded_facets_canonicalize_to_the_hull(pts, data)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(small, small, small, small), min_size=5, max_size=8), st.data())
def test_padded_facet_rows_canonicalize_to_the_brute_force_hull_4d(pts, data):
    if _full_dim(pts):
        _check_padded_facets_canonicalize_to_the_hull(pts, data)


# the calls that count_calls(*LP_AND_DD) counts: the LP and the double-description kernel
LP_AND_DD = ((lp, "solve"), (lp, "is_feasible"), (polytope, "double_description"))


def test_from_inequalities_makes_no_lp_and_one_double_description(count_calls):
    rows = list(zip(fig1().normals, fig1().rhs)) + [((1, 1), 8)]  # x + y <= 8 touches (5, 3)
    calls = count_calls(*LP_AND_DD)
    p = from_inequalities(rows)
    assert calls == {"solve": 0, "is_feasible": 0, "double_description": 1}
    # the vertices came along, so nothing downstream enumerates them again
    assert set(vertices(p)) == {(0, 0), (4, 0), (5, 1), (5, 3), (0, 3)}
    assert is_lattice_polytope(p)
    # no second vertex enumeration: the fan proves each of its 5 maximal
    # cones full-dimensional with that cone's dual height description, which
    # the cone keeps, and makes no other. The fan runs each description's
    # pivot stage itself, to keep its start, so every description is
    # counted by its one pivot stage
    pivots = count_calls((polytope, "_pivots"))
    cones = fan.normal_fan(p).maximal_cones
    assert len(cones) == 5 and all(c.functionals is not None for c in cones)
    assert calls["double_description"] == 1 and pivots == {"_pivots": 5}
    assert p == fig1()


def test_double_description_returns_the_lineality_of_a_cone_with_lines():
    assert double_description([(1, 0)], 2) == ((((1, 0), 0),), ((0, 1),))
    # a wedge times a line: the rays keep the tight sets of the pointed wedge
    rays, lineality = double_description([(1, 0, 0), (1, 1, 0)], 3)
    assert [t for _, t in rays] == [0b01, 0b10] and len(lineality) == 1
    assert dot(lineality[0], (0, 0, 1)) != 0
    # no rows: all of Q^n is lineality
    assert double_description([], 2) == ((), ((1, 0), (0, 1)))


def test_double_description_rejects_rows_of_another_length():
    # checked on entry, also where no product would reach the short row:
    # after (1, 0) and (-1, 0) and (0, 1) and (0, -1) the cone is {0}
    for rows in ([(1, 0, 0)], [(1,)], [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 2, 3)]):
        with pytest.raises(DimensionMismatchError):
            double_description(rows, 2)


@st.composite
def rows_with_lines(draw):
    """1-6 integer rows in Q^n, n = 2-4, combined from fewer than n generators."""
    n = draw(st.integers(min_value=2, max_value=4))
    gens = draw(st.lists(st.tuples(*[small] * n), min_size=1, max_size=n - 1))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        coeffs = draw(st.lists(small, min_size=len(gens), max_size=len(gens)))
        rows.append(tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)))
    return rows, n


@settings(deadline=None, max_examples=200)
@given(rows_with_lines())
def test_double_description_lineality_spans_the_kernel_and_keeps_the_tight_sets(case):
    rows, n = case
    rays, lineality = double_description(rows, n)
    kernel = integer_kernel_basis(rows, ncols=n)
    assert kernel and len(lineality) == len(kernel) == rank(lineality)
    assert all(dot(r, v) == 0 for r in rows for v in lineality)
    assert all(primitivize(v)[0] == v for v in lineality)
    for z, t in rays:
        assert all(dot(r, z) >= 0 for r in rows)
        assert t == sum(1 << k for k, r in enumerate(rows) if dot(r, z) == 0)
    # the cone cut by <k, z> = 0 for each kernel vector k is pointed, and
    # its rays are those modulo the lineality: same tight sets on the rows
    cuts = [tuple(sign * x for x in k) for k in kernel for sign in (1, -1)]
    low = (1 << len(rows)) - 1
    assert sorted(t for _, t in rays) == sorted(t & low for _, t in _pointed_rays(rows + cuts, n))


def test_hull_of_sixty_points_in_3d():
    rng = SplitMix64(60)
    pts = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(60)]
    p = from_vertices(pts)
    for a, b in zip(p.normals, p.rhs):
        values = [sum(x * y for x, y in zip(a, pt)) for pt in pts]
        assert max(values) == b
        tight = [pt for pt, v in zip(pts, values) if v == b]
        assert any(any(cofactor_normal(sub)) for sub in itertools.combinations(tight, 3))
    brute = brute_vertices(p.normals, p.rhs)
    assert set(vertices(_uncached(p))) == brute
    assert set(p.vertices) == brute


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_kernel_outputs_are_pinned():
    # sha256 of the outputs of the two inner loops, the double description
    # and the level enumeration, pinned before they were tuned: rays, tight
    # sets, lineality, facets, vertices, lattice points and their order,
    # every threshold and witness, and the cores. The point sets are drawn
    # as the hull benchmark draws them: 22 points of [-6, 6]^3, seeds
    # 6000-6009. On their hulls the adjacency test never decides, the count
    # prefilter does (two facets of a 3-polytope that share two points share
    # an edge); on the core of d3-s2058, a flat adjoint, it does decide.
    dd, hulls = [], []
    for seed in range(6000, 6010):
        rng = SplitMix64(seed)
        pts = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(22)]
        dd.append(double_description([tuple(-c for c in pt) + (1,) for pt in pts], 4))
        p = from_vertices(pts)
        hulls.append((p.normals, p.rhs, vertices(p), lattice_points(p)))
    suite_cases = ((2, 7, 5, 1000), (2, 7, 5, 1001), (3, 7, 3, 2058), (4, 6, 2, 4000), (4, 6, 2, 4029))
    polytopes = [fig1()] + [random_lattice_polytope(d, n, seed, box=box) for d, n, box, seed in suite_cases]
    thresholds = []
    for p in polytopes:
        for c in fan.normal_fan(p).maximal_cones:
            t, w = fan.canonicity_threshold(c)
            thresholds.append((c.rays, t, None if w is None else (w.point, w.height)))
    cores = [adjunction.adjunction_data(p).core for p in polytopes]
    assert _sha(dd) == "e082daba06ab7992e283659f6b02c48b2df62a57e77682cda0cd341f6acb2209"
    assert _sha(hulls) == "bb39ad800b2071a01721df9c312ed3b0aab70d32bf2290f77ce16dde1679b414"
    assert _sha(thresholds) == "92ac6a04b44b61b8f9ad1075accf37e1c94145d1aab37eb67787509853d0bb01"
    assert _sha(cores) == "e50e216884841f7b01b2a3bd874791c2ab3a6e7ac8b97924f5b72467dffcdfc5"


def test_kernel_work_on_the_hull_point_sets_is_pinned(count_kernel_work):
    # the pinned hulls' point sets of test_kernel_outputs_are_pinned. Taken
    # in the sorted order of the distinct points, their rows visit 7703
    # pairs and make 859 rays (in the order drawn, 4869 and 635).
    # from_vertices takes them in index order only until the cone is
    # pointed, then farthest from the centroid first, and lattice_points
    # cuts its projections off the cone that keeps: on the 28 point sets of
    # the hull benchmark's seed 0 that order cut 22523 pairs and 2427 rays
    # to 8595 and 1332. lattice_points reads level 1 off the vertices, so it
    # makes no cut down to x_1: 1405 pairs and 69 rays -> 1302 and 62 here
    sets = []
    for seed in range(6000, 6010):
        rng = SplitMix64(seed)
        sets.append([tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(22)])
    rows = [[tuple(-c for c in pt) + (1,) for pt in sorted(set(pts))] for pts in sets]
    assert count_kernel_work(lambda: [double_description(r, 4) for r in rows]) == {"pairs": 7703, "created": 859}
    hulls = []
    assert count_kernel_work(lambda: hulls.extend(from_vertices(pts) for pts in sets)) == {"pairs": 3294,
                                                                                           "created": 495}
    assert count_kernel_work(lambda: [lattice_points(p) for p in hulls]) == {"pairs": 1302, "created": 62}


def test_double_description_of_seeded_systems_of_every_length_is_pinned():
    # sha256 pinned before the steps read the unrolled kernels
    # (ratmath._int_kernels), over lengths the suite never reaches: 12
    # seeded systems for each n = 1..7 of n - 1 to n + 5 rows with entries
    # in [-5, 5], each turned to be >= 0 on (1, ..., 1) so that its cone is
    # not {0}; 794 rays in all, 350 at n = 7. With a key the waiting rows are
    # added in another order, to the same rays, tight sets and lineality
    rng = SplitMix64(4300)
    plain, keyed = [], []
    for n in range(1, 8):
        for _ in range(12):
            rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(max(1, n - 1), n + 5))]
            rows = [r if sum(r) >= 0 else tuple(-x for x in r) for r in rows]
            plain.append(double_description(rows, n))
            keyed.append(double_description(rows, n, key=lambda k: (5 * k) % 7))
    assert sum(len(rays) for rays, _ in plain) == 794
    assert _sha(plain) == _sha(keyed) == "8cddac79115c80654bab900ea8eb07bd4f5476b19f95f35d925e5b3ee71aeb21"


def test_from_vertices_needs_full_dimension():
    with pytest.raises(LowerDimensionalError):
        from_vertices([(0, 0), (1, 1), (2, 2)])


def test_implicit_equalities_found_by_double_description():
    sys_ = make_system([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
    idx = implicit_equalities(sys_)
    assert set(idx) == {2, 3}
    emb, eq_idx = embed_system(sys_)
    assert emb.dim == 1
    assert set(eq_idx) == {2, 3}
    assert emb.vertices == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


def test_implicit_equalities_reject_empty_and_prune_loose_candidates(count_calls):
    with pytest.raises(EmptyPolytopeError):
        implicit_equalities(make_system([((1, 0), 0), ((-1, 0), -1)]))
    assert implicit_equalities(make_system(TRIANGLE_ROWS)) == ()
    # x = 0 and -1 <= y <= 0: the loose y row is tight at one vertex only
    segment = make_system([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)])
    p = fig1()
    fig1_core = adjunction.adjoint(p, adjunction.critical_shift(p))
    calls = count_calls(*LP_AND_DD)
    assert implicit_equalities(segment) == (0, 1)
    assert calls == {"solve": 0, "is_feasible": 0, "double_description": 1}
    # one double description in each call, and embed_system one more for the hull of the vertices
    for system, implicit in ((segment, (0, 1)), (fig1_core, (1, 2))):
        calls.update(solve=0, is_feasible=0, double_description=0)
        assert implicit_equalities(system) == implicit
        assert embed_system(system)[1] == implicit
        assert calls == {"solve": 0, "is_feasible": 0, "double_description": 3}
    # the critical-shift LP alone: its duals prove the adjoint above c* empty
    calls.update(solve=0, is_feasible=0, double_description=0)
    assert adjunction.adjunction_data(p).core_normal_indices == (1, 2)
    assert calls["solve"] == 1 and calls["is_feasible"] == 0


def test_core_config_reads_positive_spanning_off_the_acore(monkeypatch, count_calls):
    easy = adjunction.adjunction_data(fig1())
    # a degenerate critical-shift LP: a core normal of d2-s1033 has dual 0
    hard = adjunction.adjunction_data(random_lattice_polytope(2, 7, 1033, box=5))
    assert min(easy.shift_duals[i] for i in easy.core_normal_indices) > 0
    assert min(hard.shift_duals[i] for i in hard.core_normal_indices) == 0
    expected = [spectrum.make_config(data.core_normals) for data in (easy, hard)]
    validated = []
    monkeypatch.setattr(spectrum, "validate_config", validated.append)
    calls = count_calls(*LP_AND_DD)
    # the acore that adjunction_data built is the hull of the core normals,
    # so the test needs no LP, no double description and no validate_config
    for data, cfg in zip((easy, hard), expected):
        assert adjunction.core_config(data) == cfg
    assert calls == {"solve": 0, "is_feasible": 0, "double_description": 0} and validated == []


@st.composite
def small_systems(draw):
    """Systems in d = 1-3 with 1-6 rows: zero rows, opposite pairs (flat or
    empty), a coordinate no row reads (a line), empty and unbounded sets."""
    d = draw(st.integers(min_value=1, max_value=3))
    free = draw(st.sets(st.integers(min_value=0, max_value=d - 1), max_size=1))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    if not free and n > d and draw(st.booleans()):  # a simplex, so that many sets are bounded
        rows += [(tuple(-1 if k == j else 0 for k in range(d)), draw(rational)) for j in range(d)]
        rows.append(((1,) * d, draw(rational)))
    while len(rows) < n:
        a = tuple(0 if j in free else x for j, x in enumerate(draw(st.tuples(*[small] * d))))
        b = draw(rational)
        rows.append((a, b))
        if len(rows) < n and draw(st.booleans()):
            rows.append((tuple(-x for x in a), -b + draw(st.sampled_from([-1, 0, 0, 0, 1]))))
    return make_system(rows)


@settings(deadline=None, max_examples=400)
@given(small_systems())
def test_implicit_equalities_and_embedding_match_elimination(system):
    normals, rhs = system.normals, system.rhs
    if not fm_project_feasible(normals, rhs):
        with pytest.raises(EmptyPolytopeError):
            implicit_equalities(system)
        with pytest.raises(EmptyPolytopeError):
            embed_system(system)
        return
    implicit = tuple(i for i, (a, b) in enumerate(zip(normals, rhs))
                     if fm_maximize(normals, rhs, [-x for x in a]) == ("optimal", -b))
    assert implicit_equalities(system) == implicit
    units = [tuple(sign if k == j else 0 for k in range(system.dim))
             for j in range(system.dim) for sign in (1, -1)]
    if any(fm_maximize(normals, rhs, u)[0] != "optimal" for u in units):
        with pytest.raises(UnboundedPolytopeError):
            embed_system(system)
        return
    emb, eq_idx = embed_system(system)
    assert eq_idx == implicit
    assert set(emb.vertices) == brute_vertices(normals, rhs)
    assert len(emb.vertices) == len(set(emb.vertices))


def test_embed_system_single_point():
    sys_ = make_system([((1, 1), 1), ((-1, -1), -1), ((1, -1), 0), ((-1, 1), 0)])
    emb, _ = embed_system(sys_)
    assert emb.dim == 0
    assert emb.facets == ()
    assert emb.vertices == ((Fraction(1, 2), Fraction(1, 2)),)
    assert emb.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not emb.contains((0, 0))


def test_embed_system_full_dimensional_passthrough():
    sys_ = make_system(TRIANGLE_ROWS)
    emb, eq_idx = embed_system(sys_)
    assert emb.dim == 2 and eq_idx == ()
    assert emb.contains((Fraction(1, 4), Fraction(1, 4)), strict=True)


def test_hull_any_dim_rejects_mixed_point_lengths():
    for pts in ([(0, 0), (1,)], [(0, 0, 0), (1, 1)]):
        with pytest.raises(DimensionMismatchError, match="mixed point lengths"):
            hull_any_dim(pts)
        with pytest.raises(DimensionMismatchError, match="mixed point lengths"):
            from_vertices(pts)


def test_hull_any_dim_of_a_flat_set_makes_one_double_description_and_no_solve(monkeypatch, count_calls):
    # a parallelogram in a plane of R^3: its facets and vertices come off the
    # double description of its points' valid rows, in ambient coordinates
    pts = [(0, 0, 0), (2, 2, 4), (1, 0, 1), (3, 2, 5)]
    calls = count_calls(*LP_AND_DD)
    def forbidden(*args, **kwargs):
        raise AssertionError("hull_any_dim called from_vertices")

    monkeypatch.setattr(polytope, "from_vertices", forbidden)
    emb = hull_any_dim(pts)
    assert calls == {"solve": 0, "is_feasible": 0, "double_description": 1}
    monkeypatch.undo()
    assert emb.dim == 2 and len(emb.facets) == 4
    assert set(emb.vertices) == set(pts)
    assert emb.contains((Fraction(3, 2), 1, Fraction(5, 2)), strict=True)


def test_full_dimensional_hulls_take_no_integer_kernel(count_calls, suite):
    # the double description of the points' valid rows has no lineality, so
    # the set spans R^d and has no equations: saturate and the equation
    # kernel are skipped, and the facets and vertices are from_vertices'
    counts = count_calls((ratmath, "saturate"), (ratmath, "integer_kernel_basis"))
    for _, p in suite:
        verts = vertices(p)
        ref = from_vertices(verts)
        for emb in (hull_any_dim(verts), embed_system(make_system(list(zip(p.normals, p.rhs))))[0]):
            assert emb.subspace == AffineSubspace(p.dim, p.dim, ())
            assert emb.facets == tuple(zip(ref.normals, ref.rhs))
            assert emb.vertices == vertices(ref)
    assert counts == {"saturate": 0, "integer_kernel_basis": 0}


def test_core_equations_come_from_the_null_basis_of_the_implicit_rows():
    # the printed equations are the integer kernel of the saturated
    # reduced row echelon null basis of the equations of the affine hull,
    # which depends on the subspace alone: the hull of the core's vertices
    # stores the same ones
    core = adjunction.adjunction_data(random_lattice_polytope(5, 10, 4, box=2)).core
    assert core.subspace.equations == (
        ((0, 1, 1, 0, 2), Fraction(249, 229)),
        ((1, 0, 4, -1, 4), Fraction(-973, 458)),
        ((3, 0, 8, 0, 7), Fraction(-1239, 458)),
    )
    assert hull_any_dim(core.vertices) == core


def _as_system(s):
    """The facet rows of an embedded set and both sides of each of its equations, as one InequalitySystem."""
    rows = list(s.facets)
    for a, beta in s.subspace.equations:
        rows += [(a, beta), (tuple(-x for x in a), -beta)]
    return make_system(rows)


def test_a_flat_set_stores_the_same_equations_from_its_points_and_from_its_rows():
    # the acore of this d=5 polytope is a quadrilateral in a 3-space: the
    # differences from its least point saturate to another equation basis,
    # (3, -1, -3, 0, 0) and (5, 0, -6, 1, 0), than its rows do, while the
    # null basis of its hull's equations gives the rows' one
    pts = [(-57, -45, -42, 33, -11), (0, 0, 0, 0, -1), (9, -9, 12, 27, 25), (26, 21, 19, -16, 20)]
    acore = adjunction.adjunction_data(random_lattice_polytope(5, 8, 20219, box=2)).acore
    hull = hull_any_dim(pts)
    assert hull == acore
    assert hull.subspace.equations == (((1, -2, 0, -1, 0), 0), ((3, -1, -3, 0, 0), 0))
    assert embed_system(_as_system(hull))[0] == hull


@settings(deadline=None, max_examples=60)
@given(st.integers(4, 5), st.data())
def test_hull_and_system_of_a_flat_set_store_the_same_equations(d, data):
    # points base + M t for t in Z^k with 2 <= k <= d - 2, so the affine
    # hull has dimension 2 or more, codimension 2 or more, and many bases
    # of its equations: equations read off each constructor's own spanning
    # set differ on about one such set in six
    k = data.draw(st.integers(2, d - 2))
    matrix = data.draw(st.lists(st.tuples(*[coord] * k), min_size=d, max_size=d))
    base = data.draw(st.tuples(*[rational] * d))
    local = data.draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=6))
    pts = [tuple(b + sum(m * t for m, t in zip(row, ts)) for row, b in zip(matrix, base)) for ts in local]
    hull = hull_any_dim(pts)
    assert hull.ambient_dim - hull.dim >= 2
    embedded, implicit = embed_system(_as_system(hull))
    assert embedded == hull
    assert len(implicit) == 2 * len(hull.subspace.equations)
    # a shuffled copy of the points, and the vertices alone, give the same record
    assert hull_any_dim(data.draw(st.permutations(pts))) == hull_any_dim(hull.vertices) == hull


def _lp_membership(points, x):
    """(member, relative interior) of x in conv(points), by bland_simplex.

    Maximizes t over lambda >= 0 with lambda_i >= t, sum lambda_i = 1 and
    sum lambda_i p_i = x: x is in the hull when the LP is feasible, and in
    its relative interior when some such lambda is positive, t* > 0.
    """
    n = len(points)
    rows = [tuple(-1 if j == i else 0 for j in range(n)) + (1,) for i in range(n)]
    eqs = [(1,) * n + (0,)] + [tuple(p[k] for p in points) + (0,) for k in range(len(x))]
    status, value, *_ = bland_simplex(rows, [0] * n, (0,) * n + (1,),
                                      eq_normals=eqs, eq_rhs=[1] + list(x), nonneg=range(n))
    if status == "infeasible":
        return False, False
    return True, value > 0


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.data())
def test_embedded_membership_matches_the_convex_combination_lp(d, data):
    # points base + M t for t in Z^k, k <= d, so every affine rank occurs
    k = data.draw(st.integers(0, d))
    matrix = data.draw(st.lists(st.tuples(*[small] * k), min_size=d, max_size=d))
    base = data.draw(st.tuples(*[fraction] * d))
    local = data.draw(st.lists(st.tuples(*[small] * k), min_size=1, max_size=5))
    pts = [tuple(b + sum(m * t for m, t in zip(row, ts)) for row, b in zip(matrix, base)) for ts in local]
    emb = hull_any_dim(pts)
    # the points, their barycenter and pairwise midpoints, points of the
    # affine hull that may lie outside, and points off it
    on_hull = data.draw(st.lists(st.tuples(*[fraction] * k), max_size=3))
    xs = pts + [tuple(sum(col) / len(emb.vertices) for col in zip(*emb.vertices))]
    xs += [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in itertools.combinations(pts, 2)]
    xs += [tuple(b + sum(m * t for m, t in zip(row, ts)) for row, b in zip(matrix, base)) for ts in on_hull]
    xs += data.draw(st.lists(st.tuples(*[fraction] * d), max_size=3))
    for x in xs:
        member, interior = _lp_membership(pts, x)
        assert emb.contains(x) == member
        assert emb.contains(x, strict=True) == interior


def test_hull_any_dim_of_a_segment_in_3d():
    emb = hull_any_dim([(0, 0, 0), (2, 2, 4)])
    assert emb.dim == 1 and emb.ambient_dim == 3
    for a, beta in emb.subspace.equations:
        assert dot(a, (0, 0, 0)) == beta
        assert dot(a, (2, 2, 4)) == beta
    assert emb.contains((1, 1, 2))
    assert emb.contains((1, 1, 2), strict=True)
    assert not emb.contains((2, 2, 4), strict=True)
    assert not emb.contains((1, 1, 1))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.data())
def test_scaled_embedded_polytope_is_the_hull_of_the_scaled_points(d, data):
    # points of any affine rank, so flat hulls, points and full-dimensional
    # ones all occur; the factor is a positive rational
    # walked at shrink 1 / factor, the hull of the points lists the lattice
    # points of the hull of the scaled points
    pts = data.draw(st.lists(st.tuples(*[small] * d), min_size=1, max_size=6))
    factor = data.draw(st.fractions(min_value=Fraction(1, 7), max_value=3))
    hull = hull_any_dim(pts)
    expected = hull_any_dim([tuple(factor * x for x in pt) for pt in pts])
    for region in REGIONS:
        assert lattice_points(hull, region, shrink=1 / factor) == lattice_points(expected, region)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), st.data())
def test_integer_points_give_the_hulls_of_the_same_points_as_fractions(d, data):
    # points of any affine rank, so full-dimensional sets, flat ones and
    # single points all occur, with repeats. Int coordinates stay ints
    # until a hull stores them, as Fractions, so int, Fraction and mixed
    # points give equal results with the same repr
    k = data.draw(st.integers(0, d))
    matrix = data.draw(st.lists(st.tuples(*[small] * k), min_size=d, max_size=d))
    base = data.draw(st.tuples(*[small] * d))
    local = data.draw(st.lists(st.tuples(*[small] * k), min_size=1, max_size=7))
    pts = [tuple(b + sum(m * t for m, t in zip(row, ts)) for row, b in zip(matrix, base)) for ts in local]
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))
    as_fractions = [tuple(map(Fraction, pt)) for pt in pts]
    mixed = [tuple(Fraction(x) if (i + j) % 2 else x for j, x in enumerate(pt)) for i, pt in enumerate(pts)]
    expected = hull_any_dim(as_fractions)
    for same in (pts, mixed):
        got = hull_any_dim(same)
        assert got == expected and got.incidence == expected.incidence
        assert repr(got) == repr(expected)
    if not _full_dim(pts) or len(set(pts)) <= d:
        with pytest.raises(LowerDimensionalError):
            from_vertices(pts)
        return
    p = from_vertices(as_fractions)
    for same in (pts, mixed):
        got = from_vertices(same)
        assert got == p and got.incidence == p.incidence
        assert repr((got, got.vertices)) == repr((p, p.vertices))


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(st.tuples(*[small] * n), min_size=1, max_size=9)),
       st.data())
def test_double_description_is_the_same_in_any_order_once_the_cone_is_pointed(rows, data):
    # with a key, the rows that wait for the pivots go in in its order; a
    # pointed cone's primitive extreme rays and their tight sets are
    # unique, and so is each ray of a cone with lines, the representative
    # of its class in the span of the pivots
    order = data.draw(st.permutations(range(len(rows))))
    n = len(rows[0])
    assert double_description(rows, n, order.index) == double_description(rows, n)


def _seeded_point_sets(count, seed):
    """count point sets in Q^d, d = 1-4, of affine rank at most k = 1-d, drawn by SplitMix64(seed).

    Each is 2-9 points base + M t, M a d x k matrix and t in [-2, 2]^k,
    divided by a denominator 1-3, so flat sets, single points and
    full-dimensional ones all occur.
    """
    rng = SplitMix64(seed)
    sets = []
    for _ in range(count):
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        base = [rng.randint(-3, 3) for _ in range(d)]
        matrix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
        q = rng.randint(1, 3)
        local = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(2, 9))]
        sets.append([tuple(Fraction(b + sum(m * t for m, t in zip(row, ts)), q) for row, b in zip(matrix, base))
                     for ts in local])
    return sets


def test_the_hulls_of_seeded_point_sets_are_pinned():
    # sha256 of hull_any_dim, incidence too, on 1500 seeded point sets,
    # 945 of them flat, pinned before the double description took the
    # rows that vanish on the lineality after its pivots: a pointed cone's
    # rays do not depend on the order, and a flat set's rays are the one
    # representative of each in the span of the pivots
    out = [(h, h.incidence) for h in map(hull_any_dim, _seeded_point_sets(1500, 41))]
    assert sum(1 for h, _ in out if h.dim < h.ambient_dim) == 945
    assert _sha(out) == "17423b0da81442ad469a14e262bd03cad471175f18071cd27f351d606c124861"


def test_from_inequalities_clears_each_row_by_one_gcd(count_calls, suite):
    # the normals make_system read are divided by their gcd when it exceeds
    # 1, with no primitivize, which would read them again
    counts = count_calls((ratmath, "primitivize"))
    scaled = [(tuple(3 * x for x in a), 3 * b) for a, b in zip(fig1().normals, fig1().rhs)]
    assert from_inequalities(scaled) == fig1()
    for _, p in suite:
        assert from_inequalities(list(zip(p.normals, p.rhs))) == p
    assert counts["primitivize"] == 0


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 3), st.data())
def test_bounded_vertices_come_in_the_order_of_their_values(d, data):
    # a box around the origin, with positive rational bounds, and 0-5 rows
    # that the origin satisfies. On systems whose vertices have different
    # denominators, the integer keys order the vertices as sorting them by
    # Fraction value does, and each vertex is the oracle's
    bound = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))
    units = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    rows = [(u, data.draw(bound)) for u in units] + [(tuple(-x for x in u), data.draw(bound)) for u in units]
    rows += data.draw(st.lists(st.tuples(st.tuples(*[small] * d), bound), max_size=5))
    rows = [(tuple(x // g for x in a), b / g) for a, b in rows for g in [gcd(*a)] if g]
    normals, rhs = [a for a, _ in rows], [b for _, b in rows]
    pairs = polytope._bounded_vertices(normals, rhs, d)
    verts = [v for v, _ in pairs]
    assume(len({lcm(*(x.denominator for x in v)) for v in verts}) > 1)
    assert verts == sorted(verts)
    assert all(type(x) is Fraction for v in verts for x in v)
    assert set(verts) == brute_vertices(normals, rhs)


def _seeded_h_documents(count, seed):
    """count H documents in Q^d, d = 1-4, with the integer rows they hold, drawn by SplitMix64(seed).

    Each is a box with rational bounds or d + 1 to 2d + 3 rows of entries in
    [-3, 3], with right hand sides p / q, q = 1-4, then 0-3 extra rows: a
    zero row, a duplicate, a multiple by 2 or 3, a redundant sum of two
    rows, or the opposite of a row at its bound (flat) or past it (empty).
    The rows are shuffled, and a quarter of them are written with their
    normal over 2 or 3 as p/q tokens. So empty, unbounded, flat and
    full-dimensional systems all occur.
    """
    rng = SplitMix64(seed)

    def rhs():
        return Fraction(rng.randint(-2, 12), rng.randint(1, 4))

    docs = []
    for _ in range(count):
        d = rng.randint(1, 4)
        if rng.randint(0, 1):
            units = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
            rows = [(u, rhs()) for u in units] + [(tuple(-x for x in u), rhs()) for u in units]
        else:
            rows = [(tuple(rng.randint(-3, 3) for _ in range(d)), rhs()) for _ in range(rng.randint(d + 1, 2 * d + 3))]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randint(0, 5)
            a, b = rows[rng.randint(0, len(rows) - 1)]
            if kind == 0:
                rows.append(((0,) * d, Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
            elif kind == 1:
                rows.append((a, b + Fraction(rng.randint(-1, 1), 2)))
            elif kind == 2:
                m = rng.randint(2, 3)
                rows.append((tuple(m * x for x in a), m * b + rng.randint(-1, 1)))
            elif kind == 3:
                a2, b2 = rows[rng.randint(0, len(rows) - 1)]
                rows.append((tuple(x + y for x, y in zip(a, a2)), b + b2 + rng.randint(0, 2)))
            else:
                rows.append((tuple(-x for x in a), -b - (kind - 4)))
        for i in range(len(rows) - 1, 0, -1):
            j = rng.randint(0, i)
            rows[i], rows[j] = rows[j], rows[i]
        lines = [f"dim {d}", "H"]
        for a, b in rows:
            k = 1 if rng.randint(0, 3) else rng.randint(2, 3)
            lines.append(" ".join(str(Fraction(x, k)) for x in a + (b,)))
        docs.append(("\n".join(lines) + "\n", rows))
    return docs


def _outcome(build):
    """repr((p, p.vertices, p.incidence)) of build(), or the class and message of the error it raises."""
    try:
        p = build()
    except PolyadjError as exc:
        return repr((type(exc).__name__, str(exc)))
    return repr((p, p.vertices, p.incidence))


def test_the_h_intake_of_seeded_systems_is_pinned():
    # sha256 pinned before the H rows and the vertices crossed between ints
    # and Fractions once each: read_polytope of 3000 seeded H documents, and
    # embed_system of their integer rows, which reaches the vertices of
    # flat systems too. Empty, unbounded and flat systems each raise,
    # with their messages in the digest
    out = [(_outcome(lambda: read_polytope(text)), _outcome(lambda: embed_system(make_system(rows))[0]))
           for text, rows in _seeded_h_documents(3000, 45)]
    kinds = collections.Counter(r.split("'")[1] if r.startswith("('") else "HPolytope" for r, _ in out)
    assert kinds == {"HPolytope": 1047, "EmptyPolytopeError": 1259, "UnboundedPolytopeError": 406,
                     "LowerDimensionalError": 288}
    assert _sha(out) == "7369c9375eee3b91fd6e96e79d76fceb45f4db858393d97e1ace7116c9a1bf57"


def test_lattice_flag():
    assert is_lattice_polytope(fig1())
    half = from_inequalities([((2, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    assert not is_lattice_polytope(half)


def _member_oracle(p):
    return lambda pt: all(dot(a, pt) <= b for a, b in zip(p.normals, p.rhs))


def test_lattice_points_match_box_scan_on_named_cases():
    for p in (fig1(), cube(3), scaled_simplex(2, 3), scaled_simplex(3, 2)):
        expected = box_lattice_points(vertices(p), _member_oracle(p))
        assert list(lattice_points(p)) == expected


def test_lattice_points_relative_interior_and_sublattice():
    p = dilate(cube(2), 2)
    assert lattice_points(p, region="relative_interior") == ((1, 1),)
    # the points of 2 Z^2 in p are twice the lattice points of p / 2
    half = lattice_points(p, shrink=2)
    assert tuple(tuple(2 * x for x in pt) for pt in half) == ((0, 0), (0, 2), (2, 0), (2, 2))
    tri = scaled_simplex(2, 3)
    assert lattice_points(tri) == ((0, 0), (0, 1), (1, 0), (2, 0), (3, 0))
    assert lattice_points(tri, region="relative_interior") == ()


def test_lattice_points_of_embedded_sets():
    seg = hull_any_dim([(0, 0), (3, 3)])
    assert lattice_points(seg) == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert lattice_points(seg, region="relative_interior") == ((1, 1), (2, 2))
    pt = hull_any_dim([(Fraction(1, 2), Fraction(1, 2))])
    assert lattice_points(pt) == ()


def test_relative_interior_of_a_flat_scaled_acore_needs_no_hull_and_no_linear_solve(monkeypatch, count_calls):
    # the acore of d4-s4022 lies in x_3 = 0, so levels 3 and 4 are flat
    acore = adjunction.adjunction_data(random_lattice_polytope(4, 6, 4022, box=2)).acore
    assert acore.dim == 3
    shrinks = (1, Fraction(2, 3), Fraction(1, 2))
    calls = count_calls(*LP_AND_DD)
    for name in ("hull_any_dim", "from_vertices", "null_basis"):
        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"lattice_points called {name}")

        monkeypatch.setattr(polytope, name, forbidden)
    found = []
    for k in shrinks:
        calls.update(double_description=0)
        found.append(lattice_points(acore, region="relative_interior", shrink=k))
        # level d is the stored rows, with tight sets by incidence, and every
        # level below is an equality cut of the one above
        assert calls == {"solve": 0, "is_feasible": 0, "double_description": 0}
    monkeypatch.undo()
    assert found[0] == ((0, 0, 0, 0),) and len(found[2]) > 1
    for k, points in zip(shrinks, found):
        corners = [tuple(c / k for c in v) for v in acore.vertices]
        assert list(points) == box_lattice_points(
            corners, lambda x, k=k: acore.contains(tuple(k * c for c in x), strict=True))


def test_lattice_points_read_the_row_cone_each_set_keeps(count_calls):
    # a hull keeps the vertex-facet incidence its double description found,
    # so the cone of valid rows is read off the facets and that incidence,
    # at any shrink: enumerating the points recounts no incidence and
    # describes no set again
    hull = from_vertices([(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
    flat = hull_any_dim([(0, 0, 0), (2, 2, 0), (2, 0, 2), (1, 1, 0), (4, 2, 2)])
    acore = adjunction.adjunction_data(random_lattice_polytope(4, 6, 4022, box=2)).acore
    sets, shrinks = (hull, flat, acore), (1, 1, Fraction(1, 2))
    # copies built by hand fill their incidence when they are built, by
    # their own double description
    bare = (HPolytope(hull.dim, hull.normals, hull.rhs),) + tuple(
        polytope.EmbeddedPolytope(s.subspace, s.facets, s.vertices) for s in sets[1:])
    expected = [lattice_points(s, region, k) for s, k in zip(bare, shrinks) for region in REGIONS]
    counts = count_calls((polytope, "vertices"), (ratmath, "scale_to_integer"), (polytope, "double_description"))
    found = [lattice_points(s, region, k) for s, k in zip(sets, shrinks) for region in REGIONS]
    assert counts == {"vertices": 0, "scale_to_integer": 0, "double_description": 0}
    assert found == expected and [len(points) for points in found] == [11, 0, 9, 1, 29, 11]


def _hull_document(seed: int) -> str:
    """A V document of 22 points in [-6, 6]^3 drawn by SplitMix64(seed)."""
    rng = SplitMix64(seed)
    rows = [" ".join(str(rng.randint(-6, 6)) for _ in range(3)) for _ in range(22)]
    return "dim 3\nV\n" + "\n".join(rows) + "\n"


def test_reading_hulls_and_their_lattice_points_builds_a_pinned_number_of_fractions(count_fractions):
    # a deterministic work counter for read_polytope + lattice_points of ten
    # V documents (7389 points in all). The hull clears its points over one
    # denominator without copying Fractions and keeps its incidence, so no
    # vertex is negated and cleared again, and integer tokens stay ints up
    # to the vertices the hull stores: 2666 -> 908 -> 686 here and 1568 ->
    # 908 -> 686 on 3.12, where Fraction arithmetic makes no
    # Fraction.__new__ call, the last two measured on 3.12.1
    texts = [_hull_document(seed) for seed in range(6000, 6010)]
    found = []

    def run():
        found.extend(len(lattice_points(read_polytope(text))) for text in texts)

    assert count_fractions(run) == 686
    assert sum(found) == 7389


class _CountingInt(int):
    """An int that adds one to counter[0] for each product taken with it."""

    def __new__(cls, value, counter):
        self = super().__new__(cls, value)
        self.counter = counter
        return self

    def __mul__(self, other):
        self.counter[0] += 1
        return int(self) * other

    __rmul__ = __mul__


def test_the_walk_over_the_hull_inputs_makes_a_pinned_number_of_term_products():
    # a deterministic work counter for level_points on the 28 V documents of
    # the benchmark's hull workload at seed 0 (seeds 6000-6027): every term
    # coefficient counts its products c * x_i. The parent of the last level
    # takes each last-level row's partial sum once, and each value of x_{d-1}
    # then costs one product per row with an x_{d-1} term: 145543 -> 80688
    counter = [0]
    for seed in range(6000, 6028):
        p = read_polytope(_hull_document(seed))
        levels = projected_levels(*polytope._valid_row_cone(p), p.vertices)
        counted = [None] + [[(m, num, tuple((i, _CountingInt(c, counter)) for i, c in terms))
                             for m, num, terms in level] for level in levels[1:]]
        assert level_points(counted) == level_points(levels)
    assert counter[0] == 80688


def test_a_walk_and_an_analysis_leave_nothing_for_the_cyclic_collector():
    # level_points' walk calls itself through its closure; the walk must be
    # freed by reference counting when it returns, not left as a cycle for
    # the collector (29 objects per walk of the cube and 22 per analysis of
    # the running example while the closure kept itself)
    analyze(fig1())
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        lattice_points(cube(3))
        assert gc.collect() == 0
        analyze(fig1())
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_level_points_take_a_positive_int_shrink():
    square = cube(2)
    levels = projected_levels(*polytope._valid_row_cone(square), square.vertices)
    assert level_points(levels, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert level_points(levels, 2) == [(0, 0)]
    for shrink in (0, -1, -2, 2.0, "2"):
        with pytest.raises(ValueError):
            level_points(levels, shrink)


def test_scale_embedded_needs_a_positive_factor():
    # an embedded set scaled by a factor is walked at shrink = 1 / factor, so
    # a shrink that is not positive, like a factor that is not, is refused
    seg = hull_any_dim([(0, 0), (3, 3)])
    assert lattice_points(seg, shrink=1 / Fraction(1, 3)) == ((0, 0), (1, 1))
    for bad in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            lattice_points(seg, shrink=bad)


def test_level_points_take_a_positive_rational_shrink():
    square = cube(2)
    levels = projected_levels(*polytope._valid_row_cone(square), square.vertices)
    assert level_points(levels, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert level_points(levels, Fraction(2)) == level_points(levels, 2) == [(0, 0)]
    assert level_points(levels, Fraction(1, 2)) == [(x, y) for x in range(3) for y in range(3)]
    seg = hull_any_dim([(0, 0), (3, 3)])
    assert lattice_points(seg, shrink=3) == lattice_points(seg, shrink=Fraction(3)) == ((0, 0), (1, 1))
    for shrink in (0, -1, -2, Fraction(0), Fraction(-1, 2), 2.0, "2"):
        with pytest.raises(ValueError):
            level_points(levels, shrink)
        with pytest.raises(ValueError):
            lattice_points(seg, shrink=shrink)


def test_levels_without_an_upper_or_lower_row_at_the_last_level_are_unbounded():
    # hand-built levels (a_j, beta, terms): 0 <= x_i <= 1 for i < d, and at
    # level d only rows bounding x_d from one side, one with and one without
    # an x_{d-1} term; for d >= 2 the parent of the last level raises
    for d in (1, 2, 3):
        box = [[(1, 1, ()), (-1, 0, ())] for _ in range(d - 1)]
        side = [((0, 1),) if d > 1 else (), ()]
        for sign in (1, -1):
            levels = [None] + box + [[(sign, 2, side[0]), (sign, 3, side[1])]]
            with pytest.raises(UnboundedPolytopeError):
                level_points(levels)
            if d > 1:
                # a walk that never reaches the last level does not read it
                assert level_points([None, [(1, 0, ()), (-1, -1, ())]] + levels[2:]) == []


def test_lattice_points_input_validation():
    with pytest.raises(ValueError):
        lattice_points(cube(2), region="boundary")


@settings(deadline=None, max_examples=50)
@given(point_sets(2, 4))
def test_lattice_points_match_box_scan_2d(pts):
    if rank([tuple(b - a for a, b in zip(pts[0], q)) for q in pts[1:]]) < 2:
        return
    p = from_vertices(pts)
    expected = box_lattice_points(vertices(p), _member_oracle(p))
    assert list(lattice_points(p)) == expected


REGIONS = ("all", "relative_interior")
fraction = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _hull_member(points):
    """Membership in the hull of full-dimensional points, strict for the interior.

    Facets come from the brute-force scan, or from the range in dimension 1;
    membership(x, strict) tests every facet row.
    """
    if len(points[0]) == 1:
        lo, hi = min(p[0] for p in points), max(p[0] for p in points)
        return lambda x, strict: lo < x[0] < hi if strict else lo <= x[0] <= hi
    facets = brute_facets(points)

    def member(x, strict):
        values = [(sum(a * xi for a, xi in zip(normal, x)), b) for normal, b in facets]
        return all(v < b if strict else v <= b for v, b in values)
    return member


def _full_dimensional(points) -> bool:
    """Whether some k + 1 of the points in Q^k are affinely independent."""
    k = len(points[0])
    return any(laplace_det([[a - b for a, b in zip(q, s[0])] for q in s[1:]]) != 0
               for s in itertools.combinations(points, k + 1))


def _check_against_the_box_scan(s, points, member, shrink=1):
    """lattice_points of s / shrink in every region equals a box scan of member."""
    box = box_lattice_points([tuple(Fraction(c) for c in pt) for pt in points],
                             lambda x: member(x, False))
    for region in REGIONS:
        expected = [x for x in box if region == "all" or member(x, True)]
        assert list(lattice_points(s, region=region, shrink=shrink)) == expected


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.data())
def test_lattice_points_of_rational_polytopes_match_the_box_scan(d, data):
    pts = data.draw(st.lists(st.tuples(*[fraction] * d), min_size=d + 1, max_size=d + 3))
    assume(_full_dimensional(pts))
    _check_against_the_box_scan(from_vertices(pts), pts, _hull_member(pts))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.data())
def test_level_points_of_a_set_list_the_points_of_the_set_shrunk(d, data):
    # the walk floors each beta / k once: the levels of a set s at shrink k
    # list the lattice points of s / k, also for sets away from the origin
    # (rows with beta < 0), flat sets, odd k and rational k. Level 1 comes
    # from the vertices; the set with x_1 fixed at shift[0], flat whenever
    # d > 1, is the one whose cut down to x_1 would keep a redundant row
    shift = data.draw(st.tuples(*[coord] * d))
    drawn = data.draw(st.lists(st.tuples(*[st.one_of(small, fraction)] * d), min_size=1, max_size=d + 2))
    pts = [vec_add(x, shift) for x in drawn]
    sets = [hull_any_dim(pts), hull_any_dim([shift[:1] + x[1:] for x in pts])]
    sets += [from_vertices(pts)] if len(pts) > d and _full_dimensional(pts) else []
    for s in sets:
        levels = projected_levels(*polytope._valid_row_cone(s), s.vertices)
        corners = s.vertices
        for k in (1, 2, 3, 7, Fraction(3, 2), Fraction(1, 2)):
            expected = box_lattice_points([tuple(Fraction(c) / k for c in v) for v in corners],
                                          lambda x: s.contains(tuple(k * c for c in x)))
            assert level_points(levels, k) == expected


UNIMODULAR = {2: [[2, 1], [1, 1]], 3: [[1, 2, 0], [0, 1, -1], [1, 0, 1]]}


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 3), st.data())
def test_hulls_of_every_lattice_point_of_a_polytope_enumerate_as_their_facets_do(d, data):
    # the input is every lattice point of a lattice polytope, so each facet
    # is tight at points that are no vertices: the double description's
    # tight sets over the input points are mapped to the sorted vertices
    pts = data.draw(st.lists(st.tuples(*[small] * d), min_size=d + 1, max_size=d + 3))
    assume(_full_dimensional(pts))
    cloud = lattice_points(from_vertices(pts))
    p = from_vertices(cloud)
    by_hand = HPolytope(p.dim, p.normals, p.rhs)
    rays, lineality = polytope._valid_row_cone(p)
    assert not lineality and all(t == _tight_bits(z, p.vertices) for z, t in rays)
    assert polytope._valid_row_cone(by_hand) == (rays, lineality)
    # conv(cloud) = conv(pts), so the facets of the few drawn points decide membership
    for s in (p, by_hand):
        _check_against_the_box_scan(s, pts, _hull_member(pts))
        doubled = [tuple(2 * c for c in x) for x in pts]
        _check_against_the_box_scan(dilate(s, 2), doubled, _hull_member(doubled))
        shift = data.draw(st.tuples(*[small] * d))
        images = [vec_add(tuple(dot(row, x) for row in UNIMODULAR[d]), shift) for x in pts]
        _check_against_the_box_scan(transform(s, UNIMODULAR[d], shift), images, _hull_member(images))
    # the same cloud on the hyperplane x_{d+1} = x_1, with its equation in the lineality
    lifted = [x + x[:1] for x in cloud]
    flat = hull_any_dim(lifted)
    assert all(t == _tight_bits(z, flat.vertices) for z, t in polytope._valid_row_cone(flat)[0])
    member = _hull_member(pts)
    for factor in (1, 2):
        scaled = [tuple(factor * c for c in x + x[:1]) for x in pts]
        _check_against_the_box_scan(flat, scaled,
                                    lambda x, strict, k=factor: x[-1] == x[0] and member(
                                        tuple(Fraction(c, k) for c in x[:-1]), strict),
                                    shrink=Fraction(1, factor))


def _brute_incidence(rows, verts):
    """Bit k of entry i set iff <a_i, v_k> = b_i for row i = (a_i, b_i), by dot products."""
    return tuple(sum(1 << k for k, v in enumerate(verts) if sum(x * y for x, y in zip(a, v)) == b)
                 for a, b in rows)


def _check_incidence(s):
    """The incidence s keeps is the brute one over its vertices, which are sorted."""
    if isinstance(s, HPolytope):
        rows, verts = list(zip(s.normals, s.rhs)), s.vertices
    else:
        rows, verts = s.facets, s.vertices
    assert list(verts) == sorted(verts)
    assert s.incidence == _brute_incidence(rows, verts)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 3), st.data())
def test_every_incidence_bit_is_a_facet_tight_at_a_sorted_vertex(d, data):
    pts = data.draw(st.lists(st.tuples(*[small] * d), min_size=d + 1, max_size=d + 3))
    assume(_full_dimensional(pts))
    # every lattice point of a polytope: most input points are no vertices
    cloud = lattice_points(from_vertices(pts))
    p = from_vertices(cloud)
    rows = list(zip(p.normals, p.rhs))
    # reversed, plus a redundant row: twice a facet's normal with a looser bound
    q = from_inequalities(rows[::-1] + [(tuple(2 * x for x in p.normals[0]), 2 * p.rhs[0] + 1)])
    # rational vertices, whose homogenized rays (x, s) do not sort as x / s do
    r = from_inequalities([(a, b / 2 + Fraction(1, 3)) for a, b in rows])
    by_hand = [HPolytope(s.dim, s.normals, s.rhs) for s in (p, r)]
    shift = data.draw(st.tuples(*[small] * d))
    # x -> -x reverses the order of the vertices and reorders the facets
    negate = [[-int(i == j) for j in range(d)] for i in range(d)]
    flat = hull_any_dim([x + x[:1] for x in cloud])
    # the same set as a system on the hyperplane x_{d+1} = x_1
    on_plane = [((1,) + (0,) * (d - 1) + (-1,), 0), ((-1,) + (0,) * (d - 1) + (1,), 0)]
    embedded, _ = embed_system(make_system([(a + (0,), b) for a, b in rows] + on_plane))
    sets = [p, q, r, *by_hand, dilate(p, 3), transform(p, negate, shift), transform(p, UNIMODULAR[d], shift),
            flat, embedded, hull_any_dim(pts[:1])]
    for s in sets:
        _check_incidence(s)
    assert q == p and q.incidence == p.incidence


def _flat_member(base, matrix, local):
    """Membership in base + matrix . conv(local), for an injective integer matrix.

    A nonsingular k x k minor of the matrix recovers the local coordinates by
    Cramer's rule; the other rows must then agree.
    """
    k = len(local[0])
    if k == 0:
        return lambda x, strict: tuple(x) == tuple(base)
    rows = next(rows for rows in itertools.combinations(range(len(matrix)), k)
                if laplace_det([list(matrix[i][:k]) for i in rows]) != 0)
    inside = _hull_member(local)

    def member(x, strict):
        t = cramer_solve([list(matrix[i]) for i in rows], [x[i] - base[i] for i in rows])
        if any(sum(m * tj for m, tj in zip(row, t)) != xi - bi for row, xi, bi in zip(matrix, x, base)):
            return False
        return inside(t, strict)
    return member


def _flat_points(base, matrix, local):
    return [tuple(b + sum(m * tj for m, tj in zip(row, t)) for row, b in zip(matrix, base)) for t in local]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_lattice_points_of_flat_hulls_match_the_box_scan(d, data):
    # the base often has a fractional coordinate along a zero row of the
    # matrix, so many of these affine hulls hold no lattice point at all
    k = data.draw(st.integers(0, d - 1))
    matrix = data.draw(st.lists(st.tuples(*[st.integers(-1, 1)] * k), min_size=d, max_size=d))
    base = data.draw(st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * d))
    local = data.draw(st.lists(st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * k),
                               min_size=k + 1, max_size=k + 2)) if k else [()]
    if k:
        assume(any(laplace_det([list(matrix[i]) for i in rows]) != 0
                   for rows in itertools.combinations(range(d), k)))
        assume(_full_dimensional(local))
    pts = _flat_points(base, matrix, local)
    _check_against_the_box_scan(hull_any_dim(pts), pts, _flat_member(base, matrix, local))


def test_lattice_points_of_flat_hulls_without_lattice_points():
    half = Fraction(1, 2)
    cases = [
        # on x_1 = 1/2
        ((half, 0, 0), ((0,), (1,), (1,)), [(0,), (3,)]),
        # on x_1 + x_2 = 1/2, a rational plane in R^3
        ((half, 0, 0), ((-1, 0), (1, 0), (0, 1)), [(0, 0), (2, 0), (0, 2), (2, 2)]),
        # a lattice plane, but the triangle misses its lattice points
        ((Fraction(1, 3), Fraction(1, 3), 0, 0), ((1, 0), (0, 1), (0, 0), (1, 1)),
         [(0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 3))]),
    ]
    for base, matrix, local in cases:
        pts = _flat_points(base, matrix, local)
        assert lattice_points(hull_any_dim(pts)) == ()
        _check_against_the_box_scan(hull_any_dim(pts), pts, _flat_member(base, matrix, local))


def _integer_row(a, beta):
    """The row <a, x> <= beta, a primitive integer, as the primitive integer vector (a, beta)."""
    beta = Fraction(beta)
    return tuple(beta.denominator * x for x in a) + (beta.numerator,)


def _tight_bits(z, points):
    """Bit k set iff the integer row z = (a, beta) is tight at points[k]."""
    return sum(1 << k for k, x in enumerate(points) if sum(a * xi for a, xi in zip(z, x)) == z[-1])


def _oracle_facets(points):
    """Facets (a, beta) of the hull of full-dimensional points: brute_facets, or the range in dimension 1."""
    if len(points[0]) == 1:
        lo, hi = min(x for x, in points), max(x for x, in points)
        return {((1,), hi), ((-1,), -lo)}
    return brute_facets(points)


def _projection_cones(s, points):
    """(j, rays, lineality, projected points) of each level projected_levels cuts, j = d down to 2.

    points are the sorted vertices of s, which its tight sets index. Level
    1 is read off the points, with no cone.
    """
    d = len(points[0])
    cones = list(polytope._projections(*polytope._valid_row_cone(s)))
    assert len(cones) == d - 1
    for j, (rays, lineality) in zip(range(d, 1, -1), cones):
        yield j, rays, lineality, [v[:j] for v in points]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.data())
def test_each_projection_cone_holds_the_facets_of_the_projected_points(d, data):
    pts = data.draw(point_sets(d, d + data.draw(st.integers(1, 4))))
    assume(_full_dimensional(pts))
    p = from_vertices(pts)
    for j, rays, lineality, projected in _projection_cones(p, vertices(p)):
        assert not lineality
        assert {z for z, _ in rays} == {_integer_row(a, b) for a, b in _oracle_facets(projected)}
        assert all(t == _tight_bits(z, projected) for z, t in rays)


def _facet_tight_sets(points):
    """The tight sets (_tight_bits) of the facets of the hull of points of any affine rank.

    The hull is described in k coordinates on which the points keep their
    affine rank k, so the projection onto them is one to one on the
    affine hull. A single point has the one valid row 0 <= 1, tight nowhere.
    """
    diffs = [[a - b for a, b in zip(x, points[0])] for x in points[1:]]
    k = gauss_rank(diffs) if diffs else 0
    if k == 0:
        return [0]
    cols = next(cols for cols in itertools.combinations(range(len(points[0])), k)
                if gauss_rank([[row[c] for c in cols] for row in diffs]) == k)
    local = [tuple(x[c] for c in cols) for x in points]
    return [_tight_bits(_integer_row(a, b), local) for a, b in _oracle_facets(local)]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.data())
def test_each_projection_cone_of_a_flat_hull_holds_its_equations_and_facets(d, data):
    k = data.draw(st.integers(0, d - 1))
    matrix = data.draw(st.lists(st.tuples(*[st.integers(-1, 1)] * k), min_size=d, max_size=d))
    base = data.draw(st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * d))
    local = data.draw(st.lists(st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * k),
                               min_size=k + 1, max_size=k + 2)) if k else [()]
    if k:
        assume(any(laplace_det([list(matrix[i]) for i in rows]) != 0
                   for rows in itertools.combinations(range(d), k)))
        assume(_full_dimensional(local))
    points = _flat_points(base, matrix, local)
    s = hull_any_dim(points)
    for j, rays, lineality, projected in _projection_cones(s, s.vertices):
        # the lineality is a basis of the equations (a, beta), <a, x> = beta at every point
        assert all(sum(a * xi for a, xi in zip(z, x)) == z[-1] for z in lineality for x in projected)
        equations = j + 1 - gauss_rank([tuple(x) + (-1,) for x in projected])
        assert len(lineality) == equations and (not lineality or gauss_rank(lineality) == equations)
        # the rays are the facets modulo the equations: valid, one per facet, with its tight set
        assert all(sum(a * xi for a, xi in zip(z, x)) <= z[-1] for z, _ in rays for x in projected)
        assert all(t == _tight_bits(z, projected) for z, t in rays)
        assert sorted(t for _, t in rays) == sorted(_facet_tight_sets(projected))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.data())
def test_level_one_read_off_the_vertices_is_the_cut_down_to_x1(d, data):
    # the two rows of [min x_1, max x_1] are those of the cone of the level
    # above cut by a_2 = 0, the cut projected_levels no longer makes; when
    # x_1 is fixed on the set, as on the second set here, the cut can also
    # keep a ray whose row is valid on the set and implied by the two, and
    # both walk alike
    pts = data.draw(st.lists(st.tuples(*[st.one_of(small, fraction)] * d), min_size=1, max_size=d + 2))
    for s in (hull_any_dim(pts), hull_any_dim([(Fraction(1, 2),) + x[1:] for x in pts])):
        rays, lineality = polytope._valid_row_cone(s)
        first = sorted(projected_levels(rays, lineality, s.vertices)[1])
        cones = list(polytope._projections(rays, lineality))
        rays, lineality = polytope._cut(*cones[-1], 1, 3) if cones else (rays, lineality)
        rows = [z for z, _ in rays] + list(lineality) + [tuple(-x for x in z) for z in lineality]
        cut = sorted(polytope._compiled(rows))
        lo, hi = min(v[0] for v in s.vertices), max(v[0] for v in s.vertices)
        if lo < hi:
            assert first == cut
        else:
            assert set(first) <= set(cut)
            assert all(m * lo <= b for m, b, _ in cut)
        for k in (1, 3, Fraction(2, 3)):
            assert level_points([None, cut], k) == level_points([None, first], k)


@st.composite
def cut_cases(draw):
    """Integer rows of a cone in Q^n, n = 2-4, and a coordinate c to cut on."""
    n = draw(st.integers(min_value=2, max_value=4))
    rows = draw(st.lists(st.tuples(*[small] * n), min_size=1, max_size=7))
    return rows, n, draw(st.integers(min_value=0, max_value=n - 1))


@settings(deadline=None, max_examples=200)
@given(cut_cases())
def test_the_equality_cut_is_the_double_description_with_both_unit_rows(case):
    # the cut of the cone by z_c = 0 against the double description of its
    # rows plus e_c and -e_c, coordinate c dropped: the same rays and tight
    # sets once the two extra bits are masked, where the cut is pointed (each
    # ray is then unique); otherwise the same tight sets and lineality span
    rows, n, c = case
    rays, lineality = double_description(rows, n)
    got, got_lineality = polytope._cut(rays, lineality, c, n)
    unit = tuple(int(i == c) for i in range(n))
    expected, expected_lineality = double_description(rows + [unit, tuple(-x for x in unit)], n)
    low = (1 << len(rows)) - 1
    assert all(not z[c] for z, _ in expected) and all(not z[c] for z in expected_lineality)

    def dropped(z):
        return z[:c] + z[c + 1:]

    assert sorted(t for _, t in got) == sorted(t & low for _, t in expected)
    assert all(len(z) == n - 1 for z, _ in got) and all(len(z) == n - 1 for z in got_lineality)
    assert len(got_lineality) == len(expected_lineality)
    if got_lineality:
        both = list(got_lineality) + [dropped(z) for z in expected_lineality]
        assert gauss_rank(both) == gauss_rank(list(got_lineality)) == len(got_lineality)
    else:
        assert sorted(got) == sorted((dropped(z), t & low) for z, t in expected)


SHEAR = [[1, 1], [0, 1]]


def test_transform_maps_vertices_exactly():
    p = fig1()
    q = transform(p, SHEAR, (2, -1))
    expect = {(x + y + 2, y - 1) for x, y in vertices(p)}
    assert set(vertices(q)) == expect
    assert len(lattice_points(q)) == len(lattice_points(p))


def test_transform_divides_the_right_hand_side_of_a_non_primitive_normal():
    # a row 2 x_1 <= 2 is x_1 <= 1; a polytope built by hand with it is
    # refused, and from_inequalities of the same rows divides it
    normals, rhs = ((-1, 0), (0, -1), (2, 0), (0, 1)), (0, 0, 2, 1)
    with pytest.raises(ValueError):
        HPolytope(2, normals, rhs)
    p = from_inequalities(list(zip(normals, rhs)))
    assert transform(p, [[1, 0], [0, 1]], (0, 0)) == from_inequalities(list(zip(p.normals, p.rhs)))
    q = transform(p, SHEAR, (1, 2))
    assert vertices(q) == ((1, 2), (2, 2), (2, 3), (3, 3))
    assert vertices(from_inequalities(list(zip(q.normals, q.rhs)))) == vertices(q)


def test_transform_rejects_non_unimodular():
    with pytest.raises(NonUnimodularError):
        transform(cube(2), [[2, 0], [0, 1]], (0, 0))


def test_transform_round_trips_through_the_inverse():
    p = fig1()
    q = transform(transform(p, SHEAR, (1, 1)), [[1, -1], [0, 1]], (0, 0))
    # the composite is x -> x + (0, 1), so one translation undoes it
    r = transform(q, [[1, 0], [0, 1]], (0, -1))
    assert r == p


def test_dilate_scales_vertices_and_rejects_bad_factors():
    p = scaled_simplex(2, 2)
    q = dilate(p, 3)
    assert set(vertices(q)) == {(0, 0), (6, 0), (0, 3)}
    assert q.normals == p.normals
    with pytest.raises(ValueError):
        dilate(p, 0)


def test_make_system_emptiness():
    empty = make_system([((1, 0), 0), ((-1, 0), -2), ((0, 1), 1), ((0, -1), 0)])
    assert not lp.is_feasible(empty.normals, empty.rhs)
    nonempty = make_system(TRIANGLE_ROWS)
    assert lp.is_feasible(nonempty.normals, nonempty.rhs)
    assert nonempty.contains((Fraction(1, 3), Fraction(1, 3)))
