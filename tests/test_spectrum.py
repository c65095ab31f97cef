"""Candidate Q-codegree grids from core normal configurations."""

import hashlib
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import bland_simplex, gauss_rref, normalized_volume
from polyadj import ratmath
from polyadj.adjunction import adjunction_data, core_config
from polyadj.errors import GridTooLargeError, InvalidConfigError, PolyadjError
from polyadj.generators import cube, fig1
from polyadj.spectrum import (
    CoreNormalConfig,
    ReciprocalGrid,
    check_necessary_condition,
    codegree_step,
    make_config,
    spectrum_superset,
    validate_config,
)

SEGMENT = [(0, -1), (0, 1)]
SQUARE = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_make_config_validation():
    with pytest.raises(InvalidConfigError):
        make_config([])
    with pytest.raises(InvalidConfigError):
        make_config([(1, 0), (0,)])
    with pytest.raises(InvalidConfigError):
        make_config([(0, 0), (1, 0)])
    with pytest.raises(InvalidConfigError):
        make_config([(2, 0), (-1, 0)])
    with pytest.raises(InvalidConfigError):
        make_config([(1, 0), (1, 0), (-1, 0)])
    with pytest.raises(InvalidConfigError):
        make_config([(Fraction(1, 2), 0), (-1, 0)])


def test_config_must_surround_the_origin():
    with pytest.raises(InvalidConfigError):
        make_config([(1, 0), (0, 1)])
    with pytest.raises(InvalidConfigError):
        make_config([(1, 0), (-1, 1)])
    cfg = make_config(SEGMENT)
    validate_config(cfg)
    assert cfg.dim == 2 and cfg.n_rows == 2


@st.composite
def configurations(draw):
    """Distinct primitive nonzero rows in Z^d, d = 1-3: single rows, flat
    sets (coordinates no row uses) and sets with some rows negated, which
    often surround the origin."""
    d = draw(st.integers(1, 3))
    flat = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=5))
    rows += [tuple(-x for x in r) for r in rows[:draw(st.integers(0, len(rows)))]]
    rows = [tuple(0 if j in flat else x for j, x in enumerate(r)) for r in rows]
    rows = sorted({tuple(x // gcd(*r) for x in r) for r in rows if any(r)})
    assume(rows)
    return rows


def barycentric_optimum(rows):
    """(status, value) of max t over sum(l_i row_i) = 0, sum(l_i) = 1,
    t <= l_i and t <= 1 by the Fraction simplex; 0 lies in the relative
    interior of conv(rows) iff the optimum is positive."""
    m, d = len(rows), len(rows[0])
    ineqs = [[-int(k == i) for k in range(m)] + [1] for i in range(m)] + [[0] * m + [1]]
    eqs = [[r[j] for r in rows] + [0] for j in range(d)] + [[1] * m + [0]]
    return bland_simplex(ineqs, [0] * m + [1], [0] * m + [1], "max", eqs, [0] * d + [1])[:2]


@settings(deadline=None, max_examples=200)
@given(configurations())
def test_make_config_accepts_exactly_the_configurations_around_the_origin(rows):
    status, value = barycentric_optimum(rows)
    if status == "optimal" and value > 0:
        assert make_config(rows).normals == tuple(rows)
    else:
        with pytest.raises(InvalidConfigError, match="relative interior"):
            make_config(rows)


def relations(cfg):
    """A basis of the integer relations w of the rows, sum_i w_i a_i = 0."""
    return ratmath.integer_kernel_basis([[a[j] for a in cfg.normals] for j in range(cfg.dim)])


def step_of_the_saturated_span(cfg):
    """The step as the gcd of the c_j of a basis v_j = A y_j + c_j 1 of Z^m
    intersected with span(columns of A, 1). 1 is not in the span of the
    columns of A, so the last row of the reduced row echelon form of the
    rows (a_i, 1, v_1[i], ..., v_k[i]) has its pivot 1 at the 1-column,
    and (c_1, ..., c_k) after it."""
    d = cfg.dim
    basis = ratmath.saturate([tuple(a[j] for a in cfg.normals) for j in range(d)] + [(1,) * cfg.n_rows])
    rows, pivots = gauss_rref([list(a) + [1] + [v[i] for v in basis] for i, a in enumerate(cfg.normals)])
    assert pivots[-1] == d
    coefficients = rows[-1][d + 1:]
    den = lcm(*(x.denominator for x in coefficients))
    return Fraction(gcd(*(int(x * den) for x in coefficients)), den)


@settings(deadline=None, max_examples=200)
@given(configurations())
@example(SQUARE)
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 1)])
@example([(2, 1), (-1, 0), (0, -1), (1, 2), (-3, -2)])
def test_the_step_of_every_configuration_is_one_over_a_positive_integer(rows):
    # c = 1 is achievable with y = 0, so 1 is a multiple of the step and
    # the step is never 0. The step 1 / gcd of the relations' sums equals
    # the gcd of the 1-coefficients of a basis of Z^m intersected with
    # span(columns of A, 1), step_of_the_saturated_span; the examples have
    # relation lattices of rank 2, 4 and 3
    try:
        cfg = make_config(rows)
    except InvalidConfigError:
        assume(False)
    step = codegree_step(cfg)
    assert step.numerator == 1 and step.denominator >= 1
    assert len(relations(cfg)) == cfg.n_rows - ratmath.rank(cfg.normals)
    assert step == step_of_the_saturated_span(cfg)
    ok, witness = check_necessary_condition(cfg, step)
    assert ok and all((sum(a * y for a, y in zip(row, witness)) + step).denominator == 1
                      for row in cfg.normals)
    assert check_necessary_condition(cfg, 0) == (True, (0,) * cfg.dim)
    assert check_necessary_condition(cfg, 1)[0]


def test_the_step_of_a_simplex_acore_is_read_off_its_one_relation(suite_reports):
    # on every suite report the normals of the support of the critical-shift
    # duals carry one relation w up to sign, all of one sign; the duals there
    # are w / sum(w), and the step 1/N has N dividing sum(w), a proper
    # divisor on 9 reports. On a simplex acore the support is all the core
    # rows, and the step is 1 / sum(w), the lcm of the duals' denominators.
    # The support normals are a simplex S with 0 in its relative interior,
    # so for any y with A y + c 1 integral, c = sum lambda_i (<a_i, y> + c)
    # with lambda_i = |det(S minus a_i)| / V(S): c V(S) is an integer, and
    # N divides the normalized volume V(S) (the paper's chain from the step
    # to the volume of the acore), with V(S) != N on 69 reports
    ranks, proper, above = {}, 0, 0
    for key, rep in suite_reports.items():
        data = rep.data
        basis = relations(core_config(data))
        simplex = len(data.acore.vertices) == data.acore.dim + 1
        ranks[simplex, len(basis)] = ranks.get((simplex, len(basis)), 0) + 1
        support = [i for i, y in enumerate(data.shift_duals) if y]
        (w,) = relations(CoreNormalConfig(data.polytope.dim, tuple(data.polytope.normals[i] for i in support)))
        w = w if sum(w) > 0 else tuple(-x for x in w)
        assert all(x > 0 for x in w), key
        y = [data.shift_duals[i] for i in support]
        assert y == [Fraction(x, sum(w)) for x in w], key
        step = rep.spectrum.step
        assert step.numerator == 1 and sum(w) % step.denominator == 0, key
        proper += sum(w) != step.denominator
        volume = normalized_volume([data.polytope.normals[i] for i in support])
        assert volume % step.denominator == 0, key
        above += volume != step.denominator
        if simplex:
            assert support == list(data.core_normal_indices), key
            assert step == Fraction(1, sum(w)) == Fraction(1, lcm(*(v.denominator for v in y))), key
    assert ranks == {(True, 1): 184, (False, 2): 12, (False, 3): 4}
    assert proper == 9 and above == 69


def test_the_step_takes_one_integer_kernel(count_calls):
    # the step and the check of a value, off the grid or on it, each take
    # one row reduction, which serves the witness too, and no kernel and
    # no saturate
    counts = count_calls((ratmath, "integer_kernel_basis"), (ratmath, "saturate"), (ratmath, "_row_reduce"))
    for rows in (SEGMENT, SQUARE, [(2, 1), (-1, 0), (0, -1)]):
        cfg = make_config(rows)
        counts.update(dict.fromkeys(counts, 0))
        step = codegree_step(cfg)
        assert counts == {"integer_kernel_basis": 0, "saturate": 0, "_row_reduce": 1}
        counts.update(dict.fromkeys(counts, 0))
        assert check_necessary_condition(cfg, step / 2) == (False, None)
        assert counts == {"integer_kernel_basis": 0, "saturate": 0, "_row_reduce": 1}
        counts.update(dict.fromkeys(counts, 0))
        assert check_necessary_condition(cfg, step)[0]
        assert counts == {"integer_kernel_basis": 0, "saturate": 0, "_row_reduce": 1}


def test_core_config_agrees_with_make_config_on_the_suite(suite_reports):
    # core_config reads positive spanning off the acore, make_config off a
    # hull of its own
    for key, rep in suite_reports.items():
        assert core_config(rep.data) == make_config(rep.data.core_normals), key


def test_codegree_step_of_small_configurations():
    assert codegree_step(make_config(SEGMENT)) == Fraction(1, 2)
    assert codegree_step(make_config([(1,), (-1,)])) == Fraction(1, 2)
    assert codegree_step(make_config(SQUARE)) == Fraction(1, 2)
    assert codegree_step(make_config([(1, 1), (-1, -1)])) == Fraction(1, 2)


def test_codegree_steps_of_the_suite_are_pinned(suite_reports):
    # the steps of the 200 suite configurations (101 distinct values), as
    # one solve_linear per basis vector computed them
    text = "\n".join(f"{key} {codegree_step(core_config(rep.data))}"
                     for key, rep in suite_reports.items())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "754fd7bf780344c5d8c3e5c6f32c3844a8ec2119e629c2d3905dae15875f1607")


@pytest.mark.parametrize("cfg", [CoreNormalConfig(1, ((1,),)), CoreNormalConfig(2, ((1, 0), (0, 1)))])
def test_a_configuration_with_a_solution_of_a_y_equal_to_1_has_no_step(cfg):
    with pytest.raises(InvalidConfigError, match="admits A y = 1"):
        codegree_step(cfg)
    with pytest.raises(InvalidConfigError, match="admits A y = 1"):
        check_necessary_condition(cfg, 1)


def test_codegree_step_matches_the_running_example():
    cfg = core_config(adjunction_data(fig1()))
    assert cfg.normals == ((0, -1), (0, 1))
    assert codegree_step(cfg) == Fraction(1, 2)


def test_superset_is_a_descending_reciprocal_grid():
    sup = spectrum_superset(make_config(SEGMENT), Fraction(1, 3))
    g = sup.step
    assert g == Fraction(1, 2)
    assert sup.values == tuple(Fraction(1, 1) / (k * g) for k in range(1, 7))
    assert list(sup.values) == sorted(sup.values, reverse=True)
    assert all(v >= Fraction(1, 3) for v in sup.values)
    assert Fraction(1, 1) / ((6 + 1) * g) < Fraction(1, 3)


@pytest.mark.parametrize("step", [Fraction(1, 2), Fraction(3, 7), Fraction(5), Fraction(2, 35)])
def test_reciprocal_grid_behaves_as_its_tuple(step):
    grid = ReciprocalGrid(step, 9)
    values = tuple(1 / (k * step) for k in range(1, 10))
    assert grid == values and values == grid and list(grid) == list(values)
    assert hash(grid) == hash(values)
    assert len(grid) == 9 and grid[0] == 1 / step and grid[-1] == values[-1]
    assert grid[2:7:2] == values[2:7:2] and grid[::-1] == values[::-1]
    assert tuple(reversed(grid)) == values[::-1]
    assert grid.index(values[4]) == 4 and grid.count(values[4]) == 1
    with pytest.raises(IndexError):
        grid[9]
    with pytest.raises(IndexError):
        grid[-10]
    candidates = {1 / (k * step) for k in range(1, 12)} | {Fraction(k, 3) for k in range(-3, 30)}
    for c in candidates:
        assert (c in grid) == (c in values), c
        assert (float(c) in grid) == (float(c) in values), c
    assert "x" not in grid
    assert grid != values[:-1] and grid != values[:-1] + (Fraction(0),)
    assert grid == ReciprocalGrid(step, 9) and grid != ReciprocalGrid(step, 8)
    assert grid != ReciprocalGrid(step / 2, 9)
    assert ReciprocalGrid(step, 0) == ReciprocalGrid(Fraction(0), 0) == ()


def test_len_of_a_grid_past_sys_maxsize_raises_a_typed_error():
    # len() must return an index-sized int; the count stays readable as size
    grid = ReciprocalGrid(Fraction(1, 10**20), 2 * 10**20)
    with pytest.raises(GridTooLargeError) as info:
        len(grid)
    assert isinstance(info.value, OverflowError) and isinstance(info.value, PolyadjError)
    assert info.value.size == grid.size == 2 * 10**20
    assert len(ReciprocalGrid(Fraction(1), sys.maxsize)) == sys.maxsize


def test_hash_of_a_grid_past_sys_maxsize_raises_before_it_makes_a_value(monkeypatch):
    # hash() is the hash of the tuple of values, which a grid past
    # sys.maxsize cannot hold; with __iter__ refusing, a missing guard fails
    # at once instead of filling memory
    def no_scan(self):
        raise AssertionError("hash iterated over the grid")

    monkeypatch.setattr(ReciprocalGrid, "__iter__", no_scan)
    grid = ReciprocalGrid(Fraction(1, 10**20), sys.maxsize + 1)
    with pytest.raises(GridTooLargeError) as info:
        hash(grid)
    assert info.value.size == sys.maxsize + 1
    monkeypatch.undo()
    assert hash(ReciprocalGrid(Fraction(1, 2), 3)) == hash((Fraction(2), Fraction(1), Fraction(2, 3)))


def test_membership_of_floats_and_non_numbers_scans_nothing(monkeypatch):
    def no_scan(self):
        raise AssertionError("membership iterated over the grid")

    monkeypatch.setattr(ReciprocalGrid, "__iter__", no_scan)
    grid = ReciprocalGrid(Fraction(1, 10**6), 2 * 10**6)  # the values 10^6 / k
    # a float is its exact binary value: 0.5 is 1/2, 0.3 is not 3/10
    assert 0.5 in grid and 1.0 in grid and 1e6 in grid and Fraction(3, 10) not in grid
    assert 0.3 not in grid and 0.25 not in grid and 2e6 not in grid and -0.5 not in grid
    assert Decimal("0.5") in grid and Decimal("0.3") not in grid
    for value in (float("nan"), float("inf"), float("-inf"), Decimal("NaN"), Decimal("Infinity")):
        assert value not in grid
    for value in ("0.5", None, (1, 2), 0.5j):
        assert value not in grid


def test_superset_holds_a_fine_grid_without_listing_it():
    sup = spectrum_superset(make_config(SEGMENT), Fraction(1, 10**9))
    assert len(sup.values) == 2 * 10**9
    assert Fraction(1, 10**9) in sup.values and Fraction(1, 10**9 + 1) not in sup.values
    assert sup.values[-1] == Fraction(1, 10**9) and sup.values[:3] == (2, 1, Fraction(2, 3))


def test_superset_epsilon_validation():
    cfg = make_config(SEGMENT)
    with pytest.raises(ValueError):
        spectrum_superset(cfg, 0)
    with pytest.raises(ValueError):
        spectrum_superset(cfg, Fraction(-1, 2))


def test_necessary_condition_on_and_off_the_grid():
    cfg = make_config(SEGMENT)
    g = codegree_step(cfg)
    for k in (1, 2, 5, 12):
        ok, witness = check_necessary_condition(cfg, k * g)
        assert ok
        assert witness is not None
        shifted = [sum(a * y for a, y in zip(row, witness)) + k * g for row in cfg.normals]
        assert all(v.denominator == 1 for v in shifted)
    for c in (g / 2, g * Fraction(3, 2), Fraction(1, 7)):
        ok, witness = check_necessary_condition(cfg, c)
        assert not ok
        assert witness is None


def test_necessary_condition_agrees_with_divisibility():
    for rows in (SEGMENT, SQUARE, [(1, 1), (-1, -1)], [(2, 1), (-1, 0), (0, -1)]):
        cfg = make_config(rows)
        g = codegree_step(cfg)
        assert g > 0
        for num in range(1, 25):
            c = Fraction(num, 6)
            ok, witness = check_necessary_condition(cfg, c)
            assert ok == ((c / g).denominator == 1)
            if ok:
                shifted = [sum(a * y for a, y in zip(row, witness)) + c
                           for row in cfg.normals]
                assert all(v.denominator == 1 for v in shifted)


def test_grid_step_divides_the_critical_shift():
    for p in (fig1(), cube(2), cube(3)):
        data = adjunction_data(p)
        g = codegree_step(core_config(data))
        assert (data.critical_shift / g).denominator == 1
