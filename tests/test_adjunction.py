"""Critical shift, core extraction, lemma checks, and the full report."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyadj import adjunction, fan, lp, polytope, ratmath
from polyadj.adjunction import (
    adjoint,
    adjunction_data,
    analyze,
    core_config,
    critical_shift,
    fan_summary,
    qcodegree,
    raw_critical_shift,
    verify_lemmas,
)
from polyadj.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotLatticePolytopeError,
    UnboundedPolytopeError,
)
from polyadj.fan import normal_fan
from polyadj.generators import cube, fig1, random_lattice_polytope, scaled_simplex
from polyadj.polyfile import format_polytope, read_polytope
from polyadj.polytope import embed_system, from_inequalities, lattice_points, vertices
from polyadj.spectrum import spectrum_superset

TRIANGLE_ROWS = [((-1, 0), 0), ((0, -1), 0), ((3, 1), 3)]


def test_critical_shift_of_named_instances():
    assert critical_shift(fig1()) == Fraction(3, 2)
    assert critical_shift(from_inequalities(TRIANGLE_ROWS)) == Fraction(3, 5)
    assert critical_shift(cube(3)) == Fraction(1, 2)
    assert critical_shift(scaled_simplex(3, 1)) == Fraction(1, 4)


def test_critical_shift_of_five_dimensional_instances():
    expected = {1: Fraction(10771657, 1475856), 2: Fraction(390988, 132127), 3: Fraction(40, 21)}
    for seed, c in expected.items():
        assert critical_shift(random_lattice_polytope(5, 10, seed, box=2)) == c


def test_qcodegree_is_the_reciprocal_shift():
    for p in (fig1(), cube(2), scaled_simplex(2, 3)):
        assert qcodegree(p) == 1 / critical_shift(p)


def test_raw_shift_penalizes_redundant_and_scaled_rows():
    assert raw_critical_shift(TRIANGLE_ROWS) == Fraction(3, 5)
    assert raw_critical_shift(TRIANGLE_ROWS + [((1, 0), 1)]) == Fraction(1, 2)
    assert raw_critical_shift(TRIANGLE_ROWS[:2] + [((6, 2), 6)]) == Fraction(2, 3)


def test_raw_shift_rejects_rational_and_mixed_normals():
    # truncating (1/2, -1) to (0, -1) would give the shift 1 of another system
    with pytest.raises(ValueError):
        raw_critical_shift([((Fraction(1, 2), -1), 0), ((-1, 0), 0), ((1, 1), 3)])
    with pytest.raises(DimensionMismatchError):
        raw_critical_shift(TRIANGLE_ROWS + [((1, 0, 0), 1)])


def test_the_shift_lp_reads_the_canonical_polytope_and_only_raw_rows_build_a_system(count_calls, suite):
    # adjunction_data and critical_shift hand the HPolytope to the shift LP
    # as it is; raw_critical_shift builds one system of its rows, after
    # refusing an empty list
    counts = count_calls((polytope, "make_system"))
    for _, p in suite:
        adjunction_data(p)
        critical_shift(p)
    assert counts["make_system"] == 0
    assert raw_critical_shift(TRIANGLE_ROWS) == Fraction(3, 5)
    assert counts["make_system"] == 1
    with pytest.raises(UnboundedPolytopeError, match="^no constraints given$"):
        raw_critical_shift([])
    assert counts["make_system"] == 1


def test_canonicalization_undoes_the_penalty():
    assert critical_shift(from_inequalities(TRIANGLE_ROWS + [((1, 0), 1)])) == Fraction(3, 5)
    assert critical_shift(from_inequalities(TRIANGLE_ROWS[:2] + [((6, 2), 6)])) == Fraction(3, 5)


def test_adjoint_shifts_every_row_once():
    p = fig1()
    sys_ = adjoint(p, Fraction(1, 2))
    assert sys_.rhs == tuple(b - Fraction(1, 2) for b in p.rhs)
    assert lp.is_feasible(sys_.normals, sys_.rhs)
    above = adjoint(p, critical_shift(p) + 1)
    assert not lp.is_feasible(above.normals, above.rhs)
    with pytest.raises(ValueError):
        adjoint(p, -1)


def test_slack_lift_shape_and_value():
    # {(x, t) : A x + t 1 <= b, t >= 0}: its slice at height t is adjoint(p, t)
    p = fig1()
    lifted = from_inequalities([(tuple(a) + (1,), b) for a, b in zip(p.normals, p.rhs)]
                               + [(tuple([0] * p.dim) + (-1,), 0)])
    assert lifted.dim == p.dim + 1
    assert lifted.n_facets == p.n_facets + 1
    assert max(v[-1] for v in vertices(lifted)) == critical_shift(p)


def test_core_of_the_running_example():
    data = adjunction_data(fig1())
    assert data.critical_shift == Fraction(3, 2)
    assert data.qcodegree == Fraction(2, 3)
    assert set(data.core.vertices) == {(Fraction(3, 2), Fraction(3, 2)),
                                       (Fraction(7, 2), Fraction(3, 2))}
    assert data.core.dim == 1
    assert data.core_normals == ((0, -1), (0, 1))
    assert data.core.subspace.equations == (((0, 1), Fraction(3, 2)),)
    assert set(data.acore.vertices) == {(0, -1), (0, 1)}


def test_shift_duals_certify_the_shift_and_sit_on_the_core_normals():
    for p in (fig1(), cube(3), scaled_simplex(3, 2)):
        data = adjunction_data(p)
        y = data.shift_duals
        assert len(y) == p.n_facets and min(y) >= 0 and sum(y) == 1
        assert all(sum(v * a[j] for v, a in zip(y, p.normals)) == 0 for j in range(p.dim))
        assert sum(v * b for v, b in zip(y, p.rhs)) == data.critical_shift
        assert {i for i, v in enumerate(y) if v} <= set(data.core_normal_indices)


def test_tampered_shift_duals_are_rejected(monkeypatch):
    p = fig1()
    solve = lp.solve

    def zero_first_positive_dual(*args, **kwargs):
        res = solve(*args, **kwargs)
        i = next(i for i, v in enumerate(res.duals) if v > 0)
        return lp.LpResult(res.status, res.value, res.point, res.duals[:i] + (Fraction(0),) + res.duals[i + 1:])

    monkeypatch.setattr(lp, "solve", zero_first_positive_dual)
    with pytest.raises(InternalInconsistencyError, match="do not certify"):
        adjunction_data(p)
    monkeypatch.setattr(lp, "solve", solve)
    # a core normal row missing from the adjoint's implicit rows: the pass
    # over the rows finds it tight on the core
    embed = adjunction.embed_system

    def drop_first_core_row(system):
        core_, rows = embed(system)
        return core_, rows[1:]

    monkeypatch.setattr(adjunction, "embed_system", drop_first_core_row)
    with pytest.raises(InternalInconsistencyError, match="implicit rows are not the rows tight on its core"):
        adjunction_data(p)


@pytest.mark.parametrize("y, c_star", [
    # fig1's duals (0, 1/2, 1/2, 0, 0) moved along the one direction that
    # keeps y A = 0, sum y = 1 and y.b = c*: only y >= 0 fails
    ((Fraction(-1, 10), Fraction(2, 5), Fraction(4, 5), Fraction(2, 5), Fraction(-1, 2)), Fraction(3, 2)),
    # y >= 0, y A = 0 and y.b = c*, but sum y = 3/5
    ((Fraction(3, 10), 0, 0, 0, Fraction(3, 10)), Fraction(3, 2)),
    # y >= 0, sum y = 1 and y.b = c*, but y A = (-1/2, 1/2)
    ((Fraction(1, 2), 0, Fraction(1, 2), 0, 0), Fraction(3, 2)),
    # the true duals against a wrong c*
    ((0, Fraction(1, 2), Fraction(1, 2), 0, 0), Fraction(7, 5)),
    # one dual short
    ((0, Fraction(1, 2), Fraction(1, 2), 0), Fraction(3, 2)),
])
def test_each_shift_dual_condition_is_checked(y, c_star):
    p = fig1()
    adjunction._check_shift_duals(p, Fraction(3, 2), (0, Fraction(1, 2), Fraction(1, 2), 0, 0), (1, 2))
    with pytest.raises(InternalInconsistencyError, match="do not certify"):
        adjunction._check_shift_duals(p, c_star, y, (0, 1, 2, 3, 4))


def test_shift_duals_off_the_given_core_rows_are_rejected():
    # fig1's duals certify c* = 3/2 and are positive on rows 1 and 2; with
    # row 1 alone given as a core row they are supported off it
    duals = (0, Fraction(1, 2), Fraction(1, 2), 0, 0)
    with pytest.raises(InternalInconsistencyError, match="supported off the core normals"):
        adjunction._check_shift_duals(fig1(), Fraction(3, 2), duals, (1,))


def split_vertices(v, k):
    """Vertex 0 up and vertex 1 down by 1/1000."""
    return (v[0], v[1] + Fraction(1 - 2 * k, 1000))


@pytest.mark.parametrize("move, message", [
    # the whole core off its core rows y = 3/2 (rows 1 and 2), above y <= 3 - c*
    (lambda v, k: (v[0], v[1] + Fraction(1, 1000)), "violates adjoint row 2$"),
    # the two vertices moved apart across y = 3/2, the barycenter kept
    (split_vertices, "misses a core vertex"),
    # the core slid along y = 3/2 past the row x - y <= 4 - c*
    (lambda v, k: (v[0] + 10, v[1]), "violates adjoint row 3$"),
])
def test_a_moved_core_fails_the_core_row_checks(monkeypatch, move, message):
    embed = adjunction.embed_system

    def moved(system):
        core_, rows = embed(system)
        assert len(core_.vertices) == 2
        vertices = tuple(move(v, k) for k, v in enumerate(core_.vertices))
        return polytope.EmbeddedPolytope(core_.subspace, core_.facets, vertices, core_.incidence), rows

    monkeypatch.setattr(adjunction, "embed_system", moved)
    with pytest.raises(InternalInconsistencyError, match=message):
        adjunction_data(fig1())


def _agrees_with_the_double_description(p):
    """adjunction_data(p)'s core and implicit rows against embed_system of the adjoint at c*;
    True when the core is a point."""
    data = adjunction_data(p)
    core_, implicit = embed_system(adjoint(p, data.critical_shift))
    assert (data.core, data.core_normal_indices) == (core_, implicit)
    assert repr(data.core) == repr(core_)
    return data.core.dim == 0


def test_the_core_equals_the_double_description_of_the_adjoint_on_the_suite(suite):
    assert sum(_agrees_with_the_double_description(p) for _, p in suite) == 172


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 10 ** 6), st.integers(1, 4))
def test_the_core_equals_the_double_description_of_the_adjoint_on_drawn_polytopes(d, extra, seed, box):
    _agrees_with_the_double_description(random_lattice_polytope(d, d + extra, seed, box=box))


def test_double_descriptions_per_adjunction_data_are_pinned(monkeypatch, suite):
    # when the duals' support has rank d the core is the LP's point, and
    # only the hull of the core normals runs a double description; cube(3)
    # has a point core but duals on x_1 <= 1 and -x_1 <= 0 alone, so
    # embed_system runs one more, and fig1's segment core one more again,
    # for its hull. A double description of every core made these 2, 2, 3
    # and 2, and 428 over the suite
    calls = []
    describe = polytope.double_description

    def counting(*args):
        calls.append(None)
        return describe(*args)

    def described(p):
        calls.clear()
        monkeypatch.setattr(polytope, "double_description", counting)
        adjunction_data(p)
        monkeypatch.undo()
        return len(calls)

    fixed = (scaled_simplex(3, 2), cube(3), fig1(), random_lattice_polytope(3, 12, 5001, box=4))
    assert [described(p) for p in fixed] == [1, 2, 3, 1]
    assert sum(described(p) for _, p in suite) == 257


def test_adjunction_data_evaluates_each_row_once_at_the_core(count_calls, suite):
    # one dot product per adjoint row at the core's vertex barycenter, one
    # per core vertex on a row tight there when the core has more than one
    # vertex and one for y.b; the hulls of a core and an acore that are not
    # full-dimensional take one per equation. scaled_simplex(3, 2) has 4
    # rows and a point core, fig1 5 rows and a segment core on 2 of them.
    # The LP sums its value over the point's nonzero terms and takes no dot
    # product for it: 6 / 13 / 1967 -> 5 / 12 / 1767
    counts = count_calls((adjunction, "dot"))

    def dots(p):
        counts["dot"] = 0
        adjunction_data(p)
        return counts["dot"]

    assert dots(scaled_simplex(3, 2)) == 5
    assert dots(fig1()) == 12
    assert sum(dots(p) for _, p in suite) == 1767


def test_an_lp_point_off_the_core_is_rejected(monkeypatch):
    # the core of scaled_simplex(3, 2) is one point, read off the LP; moved
    # by 1/10 along x_1 it leaves the core row x_1 + 2 x_2 + 2 x_3 <= 2 - c*
    solve = lp.solve

    def moved_point(*args, **kwargs):
        res = solve(*args, **kwargs)
        return lp.LpResult(res.status, res.value, (res.point[0] + Fraction(1, 10),) + res.point[1:], res.duals)

    monkeypatch.setattr(lp, "solve", moved_point)
    with pytest.raises(InternalInconsistencyError, match="violates adjoint row 3$"):
        adjunction_data(scaled_simplex(3, 2))


def test_core_normal_rows_are_tight_on_the_whole_core():
    for p in (fig1(), cube(3), scaled_simplex(3, 2)):
        data = adjunction_data(p)
        c = data.critical_shift
        for i in data.core_normal_indices:
            for v in data.core.vertices:
                assert sum(a * x for a, x in zip(p.normals[i], v)) == p.rhs[i] - c
        others = set(range(p.n_facets)) - set(data.core_normal_indices)
        # the vertex barycenter lies in the core's relative interior
        y = tuple(sum(col) / len(data.core.vertices) for col in zip(*data.core.vertices))
        for i in others:
            assert sum(a * x for a, x in zip(p.normals[i], y)) < p.rhs[i] - c


def test_core_of_the_cube_is_its_center():
    data = adjunction_data(cube(3))
    assert data.core.dim == 0
    assert data.core.vertices == ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),)
    assert len(data.core_normals) == 6


def test_lemma_report_on_the_running_example():
    p = fig1()
    rep = verify_lemmas(p)
    assert rep.origin_in_relative_interior
    assert rep.core_normals_are_acore_vertices
    assert rep.alpha == 1
    assert rep.alpha_is_canonical
    assert rep.scaled_interior_lattice_points == ((0, 0),)
    assert rep.scaled_check_holds
    assert rep.shift_vector == (Fraction(0), Fraction(3))
    assert rep.shift_is_integral
    assert rep.all_hold


def test_the_shift_vector_is_the_right_hand_side_of_the_core_rows(suite_reports):
    # each core row is tight on the whole core, <a_i, y> + c* = b_i
    for rep in suite_reports.values():
        rhs = rep.data.polytope.rhs
        assert rep.lemmas.shift_vector == tuple(rhs[i] for i in rep.data.core_normal_indices)
    assert sum(len(rep.lemmas.shift_vector) for rep in suite_reports.values()) == 721


def test_lemma_alpha_override():
    p = scaled_simplex(2, 3)
    rep = verify_lemmas(p, alpha=Fraction(1, 2))
    assert rep.alpha == Fraction(1, 2)
    assert rep.alpha_is_canonical  # threshold is 2/3
    assert rep.scaled_check_holds
    too_high = verify_lemmas(p, alpha=1)
    assert not too_high.alpha_is_canonical
    assert too_high.scaled_check_holds is None
    assert too_high.scaled_interior_lattice_points is None
    with pytest.raises(ValueError):
        verify_lemmas(p, alpha=0)
    with pytest.raises(ValueError):
        verify_lemmas(p, alpha=Fraction(3, 2))
    assert verify_lemmas(cube(2), alpha=1).alpha_is_canonical


def test_a_threshold_outside_the_unit_interval_is_refused_as_alpha():
    # alpha defaults to the threshold and meets the same (0, 1] check as a
    # caller's alpha; a real threshold always lies there
    with pytest.raises(ValueError, match="alpha must lie in"):
        verify_lemmas(fig1(), threshold=Fraction(2))
    assert verify_lemmas(fig1(), threshold=Fraction(1)).alpha == 1


def test_fan_summary_scans_each_maximal_cone_once(count_calls, suite):
    # the benchmark's traced run checks one fan.canonicity_threshold span per
    # maximal cone of every suite op, counted at every binding as here
    counts = count_calls((fan, "canonicity_threshold"))
    for _, p in suite:
        nf = normal_fan(p)
        counts["canonicity_threshold"] = 0
        fan_summary(nf)
        assert counts["canonicity_threshold"] == len(nf.maximal_cones)


def test_the_fan_path_takes_no_integer_kernel_and_one_dual_description_per_cone(count_calls, suite):
    # the fan's Gorenstein index is read off the dual height double
    # descriptions of its scan: gorenstein_index makes 627 calls over the
    # suite's fans, none with an integer kernel. analyze made 1883
    # integer_kernel_basis calls, the rest from the three kernels of every
    # acore, which a full-dimensional one no longer takes; a core that is
    # one point writes its equations <e_i, x> = x_i with no kernel and no
    # saturate (integer_kernel_basis 740 -> 568, saturate 428 -> 256). The
    # step of each op's configuration is one kernel of its relations, not
    # saturate's two kernels and an elimination: one kernel pair fewer per
    # op (integer_kernel_basis 568 -> 368, saturate 256 -> 56). The step is
    # read off the row reduction of the configuration's rows itself, so the
    # 168 kernels left are the equations of the flat hulls (368 -> 168)
    counts = count_calls((fan, "gorenstein_index"), (ratmath, "integer_kernel_basis"),
                         (ratmath, "saturate"), (fan, "_functionals"))
    for _, p in suite:
        fan_summary(normal_fan(p))
    assert counts == {"gorenstein_index": 627, "integer_kernel_basis": 0, "saturate": 0,
                      "_functionals": 1117}
    counts.update(dict.fromkeys(counts, 0))
    for _, p in suite:
        analyze(p)
    assert counts == {"gorenstein_index": 627, "integer_kernel_basis": 168, "saturate": 56,
                      "_functionals": 1117}


def test_the_d4_suite_ops_make_a_pinned_number_of_ranks_and_kernel_steps(count_calls):
    # each op as the benchmark's suite makes it, from drawing the polytope
    # to its analyze report: the 30 d=4 instances of the seed-0 suite.
    # normal_fan proves each vertex cone full-dimensional with the dual
    # height description that the scan, the fan's index and heights read
    # after, so the one rank left per op is adjunction_data's test for a
    # one-point core (208 ranks before, 178 of them the fan's). Level 1 of
    # every enumeration is read off its points, and the scan's box bound
    # compiles one cone fewer: 397 double descriptions and 3189 steps -> 396
    # and 2987. Every description starts with one pivot stage, and the fan
    # runs its cones' own, to keep their starts, so the pivot stages count
    # the descriptions: 99 double_description calls and the 178 cones. A
    # step is a pivot (_lift) or a pair step (_add_row); 60 of the _lift
    # calls find the row vanishing on the lineality, a row that waits or a
    # cut that pairs, and the other 1372 pivot. A multi-vertex cone builds
    # the rows of its levels from its start, not from a description of its
    # points: 396 descriptions and 2987 steps -> 277 and 1372 + 1020 = 2392.
    # A one-vertex cone takes the same route, so the ray rows that waited in
    # the starts of the non-simplicial ones are added again, though their
    # dual descriptions held those rows already: 1020 -> 1027 pair steps
    counts = count_calls((ratmath, "rank"), (polytope, "double_description"), (polytope, "_pivots"),
                         (polytope, "_lift"), (polytope, "_add_row"))
    for seed in range(4000, 4030):
        analyze(read_polytope(format_polytope(random_lattice_polytope(4, 6, seed, box=2))))
    assert counts == {"rank": 30, "double_description": 99, "_pivots": 277, "_lift": 1432, "_add_row": 1027}


def test_fan_summary_contents():
    info = fan_summary(normal_fan(fig1()))
    assert info.smooth
    assert info.gorenstein_index == 1
    assert info.canonicity_threshold == 1
    assert info.threshold_witness is None
    info = fan_summary(normal_fan(scaled_simplex(2, 3)))
    assert not info.smooth
    assert info.gorenstein_index == 3
    assert info.canonicity_threshold == Fraction(2, 3)
    assert info.threshold_witness.point == (0, 1)


def test_analyze_full_report():
    rep = analyze(fig1())
    assert rep.data.qcodegree == Fraction(2, 3)
    assert rep.fan_info.smooth
    assert rep.lemmas.all_hold
    assert rep.spectrum.step == Fraction(1, 2)
    assert rep.spectrum.values == (Fraction(2), Fraction(1), Fraction(2, 3), Fraction(1, 2))
    assert rep.qcodegree_in_superset is True


def test_analyze_epsilon_above_qcd_leaves_membership_open():
    rep = analyze(fig1(), epsilon=Fraction(3, 4))
    assert rep.qcodegree_in_superset is None
    assert all(v >= Fraction(3, 4) for v in rep.spectrum.values)
    with pytest.raises(ValueError):
        analyze(fig1(), epsilon=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": 2}, "alpha must lie in"),
    ({"alpha": 0}, "alpha must lie in"),
    ({"epsilon": 0}, "epsilon must be positive"),
], ids=["alpha=2", "alpha=0", "epsilon=0"])
def test_analyze_refuses_a_bad_alpha_or_epsilon_before_any_work(monkeypatch, kwargs, message):
    def fail(*args, **kw):
        raise AssertionError("adjunction_data ran on a refused alpha or epsilon")

    monkeypatch.setattr(adjunction, "adjunction_data", fail)
    with pytest.raises(ValueError, match=message):
        analyze(fig1(), **kwargs)


def test_analyze_requires_lattice_vertices():
    p = from_inequalities([((2, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(NotLatticePolytopeError):
        analyze(p)


def test_core_config_matches_core_normals():
    data = adjunction_data(fig1())
    cfg = core_config(data)
    assert cfg.normals == data.core_normals
    assert cfg.dim == 2


def test_scaled_acore_interior_is_only_the_origin():
    # direct replay of the lemma behind the scaled check
    data = adjunction_data(cube(2))
    pts = lattice_points(data.acore, region="relative_interior")
    assert pts == ((0, 0),)


def test_the_spectrum_path_builds_a_pinned_number_of_fractions(count_fractions):
    # a deterministic work counter for the `spectrum --from-polytope` path:
    # every Fraction made by read_polytope, adjunction_data, core_config and
    # spectrum_superset on ten 12-point hulls in [-4, 4]^3 (fewer on 3.12,
    # see count_fractions). The LP keeps int entries as ints, a core that is
    # one point is read off the LP, hulls clear their points over one
    # denominator without copying Fractions, integer tokens and the
    # acore's normals stay ints up to what a hull stores, and a flat hull's
    # directions are an integer null basis, the LP's point and the core rows
    # read no slack and no b - c* as a Fraction, the adjoint system is
    # built only for embed_system, and the LP makes no Fraction for a zero
    # dual or a point entry u_j - w_j, and the LP's value sums only the
    # point's nonzero objective terms, with no product by a zero entry, and
    # spectrum_superset reads its Fraction cutoff as it is, with no copy:
    # 3034 -> 2125 -> 1759 -> 1283 -> 1281 -> 1019 -> 863 -> 803 -> 793 here,
    # and 2459 -> 1630 -> 1522 -> 1054 -> 1052 -> 927 -> 801 -> 761 -> 751 on
    # 3.12, the last eight measured on 3.12.1
    texts = [format_polytope(random_lattice_polytope(3, 12, s, box=4)) for s in range(5000, 5010)]

    def run():
        for text in texts:
            spectrum_superset(core_config(adjunction_data(read_polytope(text))), Fraction(1, 2))

    assert count_fractions(run) == (751 if hasattr(Fraction, "_from_coprime_ints") else 793)


def test_the_suite_analysis_makes_no_fraction_floor_division_or_hash(count_fraction_compares, suite):
    # the 200 suite analyze calls, read excluded: the ladder holds its rungs
    # as int pairs, a walk at a shrink p / q floors beta q by the int p,
    # lemma 2 compares sorted tuples and the lemma 3 walk at 1 / alpha reads
    # an integral shrink as an int. Before: 3931 floor divisions (all
    # reflected, an int // a Fraction) and 2022 hashes, and 2080 ==, 89 <,
    # 1640 > and 1309 >= comparisons
    operators = ("__floordiv__", "__rfloordiv__", "__hash__")
    counts = dict.fromkeys(operators, 0)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            for name in operators:
                original = getattr(Fraction, name)

                def counting(*args, name=name, original=original):
                    counts[name] += 1
                    return original(*args)

                patch.setattr(Fraction, name, counting)
            for _, p in suite:
                analyze(p)

    assert count_fraction_compares(run) == {"==": 2051, "<": 29, "<=": 1092, ">": 920, ">=": 400}
    assert counts == dict.fromkeys(operators, 0)
