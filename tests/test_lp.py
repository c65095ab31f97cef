"""Simplex solver checked against Fourier-Motzkin elimination."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import bland_simplex, fm_maximize, fm_project_feasible
from polyadj.errors import DimensionMismatchError, InternalInconsistencyError
from polyadj import lp
from polyadj.adjunction import adjunction_data
from polyadj.generators import random_lattice_polytope
from polyadj.lp import is_feasible, solve
from polyadj.ratmath import dot

small = st.integers(min_value=-5, max_value=5)


def lp_instances(m, d):
    return st.tuples(
        st.lists(st.lists(small, min_size=d, max_size=d), min_size=m, max_size=m),
        st.lists(small, min_size=m, max_size=m),
        st.lists(small, min_size=d, max_size=d),
    )


def mixed_instances(d):
    """(inequality rows, equality rows, nonneg indices, objective)."""
    rows = st.tuples(st.lists(small, min_size=d, max_size=d), small)
    return st.tuples(st.lists(rows, max_size=3), st.lists(rows, max_size=2),
                     st.sets(st.integers(min_value=0, max_value=d - 1)),
                     st.lists(small, min_size=d, max_size=d))


@st.composite
def tall_instances(draw):
    """Mixed instances of 6-16 inequality rows in 2-4 variables, far more
    rows than basic structural columns; about one right hand side in eight
    is negative, so that phase 1 runs on most of them."""
    d = draw(st.integers(min_value=2, max_value=4))
    vector = st.lists(small, min_size=d, max_size=d)
    ineqs = draw(st.lists(st.tuples(vector, st.integers(min_value=-1, max_value=6)), min_size=6, max_size=16))
    eqs = draw(st.lists(st.tuples(vector, small), max_size=1))
    return ineqs, eqs, draw(st.sets(st.integers(min_value=0, max_value=d - 1))), draw(vector)


@st.composite
def rank_deficient_instances(draw, d):
    """Mixed instances whose equality rows are integer combinations of
    fewer rows, so that phase 1 drops some of them."""
    ineqs, _, nonneg, obj = draw(mixed_instances(d))
    base = draw(st.lists(st.tuples(st.lists(small, min_size=d, max_size=d), small),
                         min_size=1, max_size=2))
    combos = draw(st.lists(st.lists(small, min_size=len(base), max_size=len(base)),
                           min_size=len(base) + 1, max_size=len(base) + 2))
    eqs = [([sum(k * a[j] for k, (a, _) in zip(combo, base)) for j in range(d)],
            sum(k * b for k, (_, b) in zip(combo, base))) for combo in combos]
    return ineqs, eqs, nonneg, obj


def assert_dual_certificate(ineqs, eqs, nonneg, obj, res):
    """The duals of an optimal result prove its value: y >= 0 on inequality
    rows, y.A_j equal to c_j on free variables and >= c_j on nonnegative
    ones, and y.(b, f) equal to the optimum."""
    rows = list(ineqs) + list(eqs)
    y = res.duals
    assert len(y) == len(rows)
    assert all(v >= 0 for v in y[:len(ineqs)])
    for j, cj in enumerate(obj):
        reduced = sum(v * a[j] for v, (a, _) in zip(y, rows)) - cj
        assert reduced >= 0 if j in nonneg else reduced == 0
    assert sum(v * b for v, (_, b) in zip(y, rows)) == res.value


def solve_mixed(ineqs, eqs, nonneg, obj):
    return solve([a for a, _ in ineqs], [b for _, b in ineqs], obj,
                 eq_normals=[a for a, _ in eqs], eq_rhs=[b for _, b in eqs], nonneg=nonneg)


def as_inequalities(ineqs, eqs, nonneg, d):
    """The same system with each equality as two opposite rows and each
    sign constraint as a -x_j <= 0 row."""
    rows = list(ineqs) + list(eqs) + [([-x for x in a], -b) for a, b in eqs]
    rows += [([-1 if k == j else 0 for k in range(d)], 0) for j in sorted(nonneg)]
    return [a for a, _ in rows], [b for _, b in rows]


def test_known_box_maximum():
    # max x + y on the unit square
    res = solve([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], [1, 1])
    assert res.status == "optimal"
    assert res.value == 2
    assert res.point == (1, 1)


def test_infeasible_pair():
    res = solve([[1], [-1]], [0, -1], [1])
    assert res.status == "infeasible"
    assert res.value is None and res.point is None


def test_unbounded_ray():
    res = solve([[-1]], [0], [1])
    assert res.status == "unbounded"


def test_degenerate_vertex_terminates():
    # three facets through one corner; Bland's rule must not cycle
    res = solve([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]], [1, 1, 2, 0, 0], [1, 1])
    assert res.status == "optimal"
    assert res.value == 2


def test_fractional_data_stays_exact():
    res = solve([[Fraction(1, 3), 1], [-1, 0], [0, -1]], [Fraction(5, 7), 0, 0], [0, 1])
    assert res.status == "optimal"
    assert res.value == Fraction(5, 7)
    # a float is read exactly: 1.5 x <= 0.75 is 3/2 x <= 3/4, with dual 2/3
    res = solve([[1.5]], [0.75], [1])
    assert res == solve([[Fraction(3, 2)]], [Fraction(3, 4)], [1])
    assert (res.value, res.duals) == (Fraction(1, 2), (Fraction(2, 3),))


def test_a_hand_built_problem_of_ints_solves_like_a_converted_one():
    # rows of int tuples, as a caller builds them by hand, solve like the
    # same rows converted to Fractions
    res = solve(((1, 0), (0, 1), (-1, -1)), (1, 2, 0), (3, -1),
                eq_normals=((1, -2),), eq_rhs=(-1,), nonneg=(1,))
    assert res.status == "optimal"
    rows = [[Fraction(x) for x in a] for a in ((1, 0), (0, 1), (-1, -1))]
    assert res == solve(rows, list(map(Fraction, (1, 2, 0))), list(map(Fraction, (3, -1))),
                        eq_normals=[[Fraction(1), Fraction(-2)]], eq_rhs=[Fraction(-1)], nonneg=[1])


def test_dimension_mismatch_rejected():
    for args, kwargs in (
            (([[1, 2]], [1, 2], [1, 1]), {}),
            (([[1, 2]], [1], [1, 1]), dict(eq_normals=[[1, 0]], eq_rhs=[1, 2])),
            (([[1, 2]], [1], [1, 1]), dict(eq_normals=[[1]], eq_rhs=[1])),
            (([[1, 2]], [1], [1, 1]), dict(nonneg=[2])),
            (([[1, 2]], [1], [1, 1]), dict(nonneg=[-1])),
            # a row without a right hand side, a row longer than the objective
            # and an index past the last variable are refused, not dropped
            (([[1], [-1]], [1], [1]), {}),
            (([[1, 2]], [1], [1]), {}),
            (([[1]], [1], [1]), dict(nonneg=[3]))):
        with pytest.raises(DimensionMismatchError):
            solve(*args, **kwargs)
    with pytest.raises(DimensionMismatchError):
        is_feasible([[1], [-1]], [1])
    with pytest.raises(DimensionMismatchError):
        is_feasible([], [1])


def test_certificates_with_free_equality_duals_and_priced_out_columns():
    # max x - y over x <= 1 with x, y >= 0: the only dual y = (1) gives
    # y.A_y = 0 > -1 on the nonnegative column of y
    res = solve([[1, 0]], [1], [1, -1], nonneg=[0, 1])
    assert (res.status, res.value, res.point) == ("optimal", 1, (1, 0))
    # max x over -x = -2: the equality row's dual is -1
    res = solve([], [], [1], eq_normals=[[-1]], eq_rhs=[-2])
    assert (res.status, res.value, res.point) == ("optimal", 2, (2,))
    # a redundant equality row is dropped in phase 1, leaving no rows at all
    res = solve([], [], [-1, 0], eq_normals=[[0, 0]], eq_rhs=[0], nonneg=[0, 1])
    assert (res.status, res.value, res.point) == ("optimal", 0, (0, 0))
    # the barycentric LP of the core normals of d4-s4005: max t over
    # sum(l_i a_i) = 0, sum(l_i) = 1, t <= l_i and t <= 1, with free l and t.
    # The normals span only a 3-space, so phase 1 drops one of the equality
    # rows; the duals of every row, that one included, must be read for the
    # certificate to reproduce the objective
    normals = [(-1, 0, -1, 0), (0, 0, 1, -2), (2, 1, 0, 1), (12, -6, 23, -4)]
    m = len(normals)
    ineqs = [([-int(k == i) for k in range(m)] + [1], 0) for i in range(m)] + [([0] * m + [1], 1)]
    eqs = [([a[j] for a in normals] + [0], 0) for j in range(4)] + [([1] * m + [0], 1)]
    obj = [0] * m + [1]
    res = solve_mixed(ineqs, eqs, (), obj)
    assert res.status == "optimal" and res.value > 0
    assert res.value == bland_simplex(*zip(*ineqs), obj, "max", *zip(*eqs))[1]
    assert_dual_certificate(ineqs, eqs, (), obj, res)


def test_the_shift_lp_pivots_are_pinned(count_calls, suite):
    # the work counter of the simplex: pivots of both phases, phase 1's
    # drop pivots included, over the critical-shift LP of every suite
    # instance. Bland's rule fixes them, so a change to the setup, the
    # pivot rule or the drop pass shows here
    counts = count_calls((lp, "_pivot"))
    for _, p in suite:
        adjunction_data(p)
    assert counts["_pivot"] == 974


ADJOINT_SEEDS = range(5000, 5060)  # the benchmark's adjoint workload at seed 0


def test_the_adjoint_shift_lps_are_pinned_and_pivot_like_the_fraction_reference(count_calls):
    # the shift LPs of 60 hulls of 12 points in [-4, 4]^3, about 16 rows in
    # 4 variables each: one of them needs phase 1
    counts = count_calls((lp, "_pivot"))
    polytopes = [random_lattice_polytope(3, 12, s, box=4) for s in ADJOINT_SEEDS]
    for p in polytopes:
        adjunction_data(p)
    assert counts["_pivot"] == 273
    for p in polytopes:
        normals = [a + (1,) for a in p.normals]
        res = solve(normals, p.rhs, [0, 0, 0, 1], nonneg=[3])
        status, value, point, _, duals = bland_simplex(normals, p.rhs, [0, 0, 0, 1], "max", nonneg=[3])
        assert (res.status, res.value, res.point, res.duals) == (status, value, point, duals)


def test_the_pivots_rewrite_only_the_stored_rows_of_the_structural_block(count_pivot_rows, suite):
    # the work counter of a pivot: the stored rows it rewrites. Only a row
    # whose basic column is a u or a w is stored, at most one per variable,
    # so at most d + 1 for the shift LP of a d-polytope (5 in the suite's
    # d = 4 and 4 in the adjoint LPs' d = 3). The tableau that stored every row
    # rewrote 5699 rows over the suite's 974 pivots and 3637 over the
    # adjoint LPs' 273
    work = count_pivot_rows(lambda: [adjunction_data(p) for _, p in suite])
    assert work == {"pivots": 974, "rows": 1638, "most": 5}
    work = count_pivot_rows(lambda: [adjunction_data(random_lattice_polytope(3, 12, s, box=4))
                                     for s in ADJOINT_SEEDS])
    assert work == {"pivots": 273, "rows": 447, "most": 4}


# max x0 / 2 + x1 / 5 with x0 free and x1 >= 0, rational in every row, rhs
# and objective entry; row 1 is twice row 0 with a looser bound, and the
# equality row's rhs is negative, so its dual is read with sign -1. The
# internal columns are u0, u1, w0, the slacks of rows 0-2 (3, 4, 5) and the
# equality row's artificial (6).
CERT_ROWS = ([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)], [0, Fraction(-1, 3)]],
             [Fraction(1, 2), Fraction(3, 2), 0])
CERT_EQ = ([[Fraction(1, 3), Fraction(-1, 2)]], [Fraction(-1, 6)])


def certified_solve(monkeypatch, edit=None):
    """Solve the problem above, with the final reduced costs (rc, den) of
    phase 2 replaced by edit(rc, den) before the certificate is checked."""
    run = lp._run

    def tampering(tab, cost, ncols):
        costs = run(tab, cost, ncols)
        if edit is not None and costs is not None and ncols < len(cost):  # phase 2
            rc, den = costs
            costs = edit(list(rc), den)
        return costs

    monkeypatch.setattr(lp, "_run", tampering)
    return solve(*CERT_ROWS, [Fraction(1, 2), Fraction(1, 5)],
                 eq_normals=CERT_EQ[0], eq_rhs=CERT_EQ[1], nonneg=[1])


def test_the_certificate_problem_is_accepted_with_fraction_duals(monkeypatch):
    res = certified_solve(monkeypatch)
    assert (res.value, res.point) == (Fraction(53, 130), (Fraction(7, 13), Fraction(9, 13)))
    assert res.duals == (Fraction(57, 65), 0, 0, Fraction(12, 65))
    assert all(type(v) is Fraction for v in res.duals)
    assert_dual_certificate(list(zip(*CERT_ROWS)), list(zip(*CERT_EQ)), {1},
                            [Fraction(1, 2), Fraction(1, 5)], res)


def shifted(*moves):
    """An edit adding k to entry j of the doubled cost row for each (j, k);
    doubling the row and its denominator leaves every dual as it was."""
    def edit(rc, den):
        rc = [2 * a for a in rc]
        for j, k in moves:
            rc[j] += k
        return rc, 2 * den
    return edit


def test_a_negative_inequality_dual_is_rejected(monkeypatch):
    with pytest.raises(InternalInconsistencyError, match="negative dual multiplier"):
        certified_solve(monkeypatch, shifted((4, -1)))


def test_a_wrong_reduced_cost_on_a_free_column_is_rejected(monkeypatch):
    # the dual of row 0 up by 1/260 moves y.A_0 - c_0 above 0 on the free x0
    # (and y.A_1 - c_1 to 1/780, which x1 >= 0 allows)
    with pytest.raises(InternalInconsistencyError, match="do not reproduce the objective"):
        certified_solve(monkeypatch, shifted((3, 1)))


def test_a_wrong_reduced_cost_on_a_nonneg_column_is_rejected(monkeypatch):
    # the dual of row 2 up by 1/260 leaves x0 alone and pushes y.A_1 below c_1
    with pytest.raises(InternalInconsistencyError, match="do not reproduce the objective"):
        certified_solve(monkeypatch, shifted((5, 1)))


def test_a_duality_gap_is_rejected(monkeypatch):
    # 1/130 of row 0 traded for 1/260 of row 1 keeps y.A and y >= 0 but
    # raises y.b by 1/520
    with pytest.raises(InternalInconsistencyError, match="duality gap"):
        certified_solve(monkeypatch, shifted((3, -2), (4, 1)))


@settings(deadline=None, max_examples=150)
@given(lp_instances(4, 2))
def test_solver_agrees_with_elimination_2d(data):
    normals, rhs, obj = data
    res = solve(normals, rhs, obj)
    status, value = fm_maximize(normals, rhs, obj)
    assert res.status == status
    if status == "optimal":
        assert res.value == value
        assert all(sum(a * x for a, x in zip(row, res.point)) <= b
                   for row, b in zip(normals, rhs))
        assert sum(c * x for c, x in zip(obj, res.point)) == value


@settings(deadline=None, max_examples=60)
@given(lp_instances(5, 3))
def test_solver_agrees_with_elimination_3d(data):
    normals, rhs, obj = data
    res = solve(normals, rhs, obj)
    status, value = fm_maximize(normals, rhs, obj)
    assert res.status == status
    if status == "optimal":
        assert res.value == value


@settings(deadline=None, max_examples=150)
@given(lp_instances(4, 2))
def test_feasibility_agrees_with_projection(data):
    normals, rhs, _ = data
    assert is_feasible(normals, rhs) == fm_project_feasible(normals, rhs)


def check_mixed_against_elimination(data, d):
    ineqs, eqs, nonneg, obj = data
    res = solve_mixed(ineqs, eqs, nonneg, obj)
    status, value = fm_maximize(*as_inequalities(ineqs, eqs, nonneg, d), obj)
    assert res.status == status
    if status == "optimal":
        x = res.point
        assert res.value == value == dot(obj, x)
        assert all(dot(a, x) <= b for a, b in ineqs)
        assert all(dot(a, x) == b for a, b in eqs)
        assert all(x[j] >= 0 for j in nonneg)
        assert_dual_certificate(ineqs, eqs, nonneg, obj, res)
    else:
        assert res.duals == ()


@settings(deadline=None, max_examples=200)
@given(mixed_instances(2))
def test_equalities_and_signs_agree_with_elimination_2d(data):
    check_mixed_against_elimination(data, 2)


@settings(deadline=None, max_examples=60)
@given(mixed_instances(3))
def test_equalities_and_signs_agree_with_elimination_3d(data):
    check_mixed_against_elimination(data, 3)


@settings(deadline=None, max_examples=150)
@given(mixed_instances(3))
def test_feasibility_with_equalities_and_signs_agrees_with_projection(data):
    ineqs, eqs, nonneg, _ = data
    assert is_feasible([a for a, _ in ineqs], [b for _, b in ineqs],
                       eq_normals=[a for a, _ in eqs], eq_rhs=[b for _, b in eqs], nonneg=nonneg) \
        == fm_project_feasible(*as_inequalities(ineqs, eqs, nonneg, 3))


@settings(deadline=None, max_examples=100)
@given(rank_deficient_instances(3))
def test_rank_deficient_equalities_agree_with_elimination(data):
    check_mixed_against_elimination(data, 3)


@settings(deadline=None, max_examples=200)
@given(st.one_of(mixed_instances(3), rank_deficient_instances(3), tall_instances()),
       st.lists(st.integers(min_value=1, max_value=6), min_size=16, max_size=16))
# phase 1 leaves an artificial basic in a row with two nonzero entries: the
# duals depend on which one its drop pivot takes
@example(([([2, 5], 1), ([3, -1], 3)], [([8, -2], 0), ([-8, 2], 0)], {0, 1}, [2, -5]), [1, 1, 1])
def test_integer_tableau_pivots_like_the_fraction_reference(data, divisors):
    ineqs, eqs, nonneg, obj = data
    # rational rows, so that the tableau scales them to integers first
    ineqs = [([Fraction(x, k) for x in a], Fraction(b, k)) for (a, b), k in zip(ineqs, divisors)]
    res = solve([a for a, _ in ineqs], [b for _, b in ineqs], obj,
                eq_normals=[a for a, _ in eqs], eq_rhs=[b for _, b in eqs], nonneg=nonneg)
    status, value, point, _, duals = bland_simplex([a for a, _ in ineqs], [b for _, b in ineqs], obj, "max",
                                                   [a for a, _ in eqs], [b for _, b in eqs], nonneg)
    assert (res.status, res.value, res.point, res.duals) == (status, value, point, duals)
    if res.status == "optimal":
        assert_dual_certificate(ineqs, eqs, nonneg, obj, res)
