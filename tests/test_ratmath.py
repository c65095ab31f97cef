"""Exact linear algebra checked against naive reference implementations."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import polyadj
from oracles import gauss_rank, gauss_rref, gauss_solve, laplace_det
from polyadj.errors import (
    DimensionMismatchError,
    InvalidConeError,
    InvalidConfigError,
    ParseError,
    ZeroVectorError,
)
from polyadj.fan import cone
from polyadj.generators import SplitMix64
from polyadj.polytope import make_system
from polyadj.ratmath import (
    _int_kernels,
    _row_reduce,
    det,
    dot,
    ext_gcd,
    ext_gcd_list,
    format_fraction,
    int_vector,
    integer_kernel_basis,
    null_basis,
    parse_rational,
    primitivize,
    rank,
    saturate,
    scale_to_integer,
    vec_add,
)
from polyadj.spectrum import make_config

ints = st.integers(min_value=-30, max_value=30)
fractions = st.builds(Fraction, ints, st.integers(min_value=1, max_value=12))


def matrices(nrows, ncols, entries=ints):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@given(fractions)
def test_fraction_text_roundtrip(q):
    assert parse_rational(format_fraction(q)) == q


def test_fraction_text_forms():
    assert format_fraction(Fraction(4, 2)) == "2"
    assert format_fraction(Fraction(-3, 6)) == "-1/2"
    assert parse_rational(" 7/3 ") == Fraction(7, 3)
    assert parse_rational("-2") == -2
    with pytest.raises(ParseError):
        parse_rational("3/0")
    with pytest.raises(ParseError):
        parse_rational("a/b")
    with pytest.raises(ParseError):
        parse_rational("")


@pytest.mark.parametrize("token", ["+3", "-0", "007", " 7 ", "1_000", "١٢", "1.5", "1e3", "2/4",
                                   "3/0", "", "--1", "+", "\t-12\n", "1__0", "٣/٤"])
def test_parse_fraction_agrees_with_the_fraction_constructor(token):
    # parse_rational reads every fraction token of a file and of the CLI
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError) as info:
            parse_rational(token)
        assert str(info.value) == f"bad rational {token!r}"
    else:
        value = parse_rational(token)
        # an int exactly for an ASCII integer with an optional sign
        integer = re.fullmatch(r"[+-]?[0-9]+", token.strip()) is not None
        assert value == expected and type(value) is (int if integer else Fraction)


@given(st.lists(ints, min_size=1, max_size=6), st.lists(ints, min_size=1, max_size=6))
def test_vector_helpers(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert dot(a, b) == sum(x * y for x, y in zip(a, b))
    assert vec_add(a, b) == tuple(x + y for x, y in zip(a, b))


def test_vector_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot([1, 2], [1])


wide = st.integers(min_value=-2 ** 80, max_value=2 ** 80)


@st.composite
def kernel_arguments(draw):
    """Three int vectors of one length n = 0..9 and two ints, entries up to 2^80 in absolute value."""
    n = draw(st.integers(min_value=0, max_value=9))
    a, z, y = (tuple(draw(st.lists(wide, min_size=n, max_size=n))) for _ in range(3))
    return a, z, y, draw(wide), draw(wide)


@settings(max_examples=300)
@given(kernel_arguments(), st.integers(min_value=1, max_value=2 ** 80))
def test_the_unrolled_kernels_equal_the_generic_expressions(case, g):
    # comb is the primitive part of the generic p z - q y: divided by the
    # gcd of its entries when that exceeds 1, so also on a common factor g
    a, z, y, p, q = case
    value, comb = _int_kernels(len(z))
    assert value(a, z) == sum(map(mul, a, z))
    for s, w, r, x in ((p, z, q, y), (g * p, z, g * q, y), (p, y, p, y)):
        generic = tuple(s * u - r * v for u, v in zip(w, x))
        common = gcd(*generic)
        assert comb(s, w, r, x) == (tuple(u // common for u in generic) if common > 1 else generic)


def test_the_unrolled_kernels_refuse_another_length():
    # each kernel unpacks its vectors, so none reads a prefix of a longer one
    value, comb = _int_kernels(3)
    for call in (lambda: value((1, 2, 3), (1, 2)), lambda: value((1, 2, 3, 4), (1, 2, 3)),
                 lambda: comb(1, (1, 2, 3), 1, (1, 2, 3, 4)), lambda: comb(1, (2, 4), 1, (2, 4))):
        with pytest.raises(ValueError):
            call()
    assert _int_kernels(0)[0]((), ()) == 0 and _int_kernels(0)[1](1, (), 1, ()) == ()
    assert comb(3, (1, 2, 3), 1, (1, 0, -3)) == (1, 3, 6) and comb(1, (1, 2, 3), 1, (1, 2, 3)) == (0, 0, 0)


def test_the_kernel_memo_holds_the_lengths_the_pipeline_used():
    # the memo is keyed by length alone: after analyze on fig1 (d = 2), the
    # cube (d = 3) and d4-s4029 it holds exactly the lengths d + 1 of their
    # double descriptions and the length 4 of d4-s4029's cut and heights
    # (the dual vertices of fig1 and the cube prove their thresholds, so
    # their scans take no height), and lp, whose rows are read by generic
    # loops, adds none. A length it holds is a hit when asked for again, and
    # each entry is the pair of kernels (dot, comb)
    code = (
        "import json\n"
        "from polyadj import analyze, lp\n"
        "from polyadj.generators import cube, fig1, random_lattice_polytope\n"
        "from polyadj.ratmath import _int_kernels\n"
        "for p in (fig1(), cube(3), random_lattice_polytope(4, 6, 4029, box=2)):\n"
        "    analyze(p)\n"
        "size = _int_kernels.cache_info().currsize\n"
        "lp.solve([(1, 1, 0), (0, -1, 1), (-1, 0, -1)], [4, 2, -1], (1, 2, 3), nonneg=[0])\n"
        "after, held = _int_kernels.cache_info().currsize, []\n"
        "for n in range(12):\n"
        "    misses = _int_kernels.cache_info().misses\n"
        "    _int_kernels(n)\n"
        "    if _int_kernels.cache_info().misses == misses:\n"
        "        held.append(n)\n"
        "print(json.dumps([size, after, held, [f.__name__ for f in _int_kernels(4)]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(polyadj.__file__))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert json.loads(out) == [3, 3, [3, 4, 5], ["dot", "comb"]]


@given(st.lists(ints, min_size=1, max_size=5).filter(lambda v: any(v)))
def test_primitivize_divides_out_the_gcd(v):
    prim, g = primitivize(v)
    assert g > 0
    assert tuple(g * x for x in prim) == tuple(v)
    assert gcd(*(abs(x) for x in prim)) == 1


def test_primitivize_rejects_zero():
    with pytest.raises(ZeroVectorError):
        primitivize([0, 0])


def test_primitivize_rejects_non_integers_and_accepts_integral_ones():
    for bad in ([4, Fraction(3, 2)], [4, 2.5]):
        with pytest.raises(ValueError):
            primitivize(bad)
    assert primitivize([Fraction(4), 6.0, -8]) == ((2, 3, -4), 2)


@given(st.lists(fractions, min_size=1, max_size=5))
def test_scale_to_integer_is_a_positive_rescale(v):
    w = scale_to_integer(v)
    assert all(isinstance(x, int) for x in w)
    nonzero = [(a, b) for a, b in zip(v, w) if a != 0]
    assert all((b != 0) == (a != 0) for a, b in zip(v, w))
    if nonzero:
        ratios = {Fraction(b) / a for a, b in nonzero}
        assert len(ratios) == 1
        assert ratios.pop() > 0


@given(ints, ints)
def test_ext_gcd_bezout(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


@given(st.lists(ints, min_size=1, max_size=6))
def test_ext_gcd_list_combination(values):
    g, coeffs = ext_gcd_list(values)
    assert g == gcd(*(abs(v) for v in values))
    assert sum(c * v for c, v in zip(coeffs, values)) == g


@given(matrices(2, 4, st.integers(min_value=-6, max_value=6)))
def test_integer_kernel_annihilates_and_spans(m):
    basis = integer_kernel_basis(m)
    for k in basis:
        assert all(dot(row, k) == 0 for row in m)
    assert len(basis) == 4 - rank(m)
    # saturation: a primitive integral kernel vector must be an integer
    # combination of the basis
    for k in basis:
        doubled = tuple(2 * x for x in k)
        coords = gauss_solve([[b[j] for b in basis] for j in range(4)], doubled)
        assert coords is not None
        assert all(x.denominator == 1 for x in coords)


def test_integer_kernel_empty_matrix_needs_ncols():
    assert integer_kernel_basis([], ncols=2) == ((1, 0), (0, 1))
    with pytest.raises(DimensionMismatchError):
        integer_kernel_basis([])


@given(matrices(2, 3, st.integers(min_value=-8, max_value=8)))
def test_saturate_spans_the_rational_span_integrally(vs):
    basis = saturate(vs)
    assert len(basis) == rank(vs)
    for v in vs:
        if all(x == 0 for x in v):
            continue
        coords = gauss_solve([[b[j] for b in basis] for j in range(3)], v)
        assert coords is not None
        assert all(x.denominator == 1 for x in coords)
    if basis:
        import itertools
        minors = [laplace_det([[b[j] for j in cols] for b in basis])
                  for cols in itertools.combinations(range(3), len(basis))]
        assert gcd(*(abs(int(x)) for x in minors)) == 1


def test_int_vector_reads_integral_entries_and_rejects_the_rest():
    ints_in = (3, -1, 0)
    assert int_vector(ints_in) is ints_in
    got = int_vector([Fraction(6, 2), -1.0, 0])
    assert got == (3, -1, 0) and all(type(x) is int for x in got)
    for bad in (Fraction(3, 2), 2.5, "1", None, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            int_vector([1, bad])


# each reader of integer vectors, with the error it raises on other entries
READERS = [
    (lambda v: make_system([(v, 1)]).normals[0], ValueError),
    (lambda v: primitivize(v)[0], ValueError),
    (lambda v: cone([v]).rays[0], InvalidConeError),
    (lambda v: make_config([v, (-1, -1)]).normals[0], InvalidConfigError),
]


@pytest.mark.parametrize("read, error", READERS, ids=["make_system", "primitivize", "cone", "make_config"])
def test_integer_readers_take_integral_entries_and_reject_the_rest(read, error):
    for v in ((1, 1), (Fraction(2, 2), 1), (1.0, 1)):
        got = read(v)
        assert got == (1, 1) and all(type(x) is int for x in got)
    for bad in (Fraction(3, 2), 2.5, "1"):
        with pytest.raises(error) as info:
            read((bad, 1))
        assert type(info.value) is error


def test_the_kernel_rejects_a_fraction_the_saturation_clears():
    # (3/4, 0, 1) truncated to (0, 0, 1) has the kernel vector (1, 0, 0),
    # which is not in the kernel of the row
    with pytest.raises(ValueError):
        integer_kernel_basis([(Fraction(3, 4), 0, 1)])
    assert saturate([(Fraction(3, 4), 0, 1)]) == ((3, 0, 4),)


def test_integer_kernel_and_saturate_outputs_are_pinned():
    # sha256 of the outputs on 2000 seeded matrices (0-6 rows, 1-7 columns,
    # entries -4..4): the basis vectors, their signs and their order reach
    # the printed affine hulls of flat sets through saturate
    rng = SplitMix64(7000)
    mats = []
    for _ in range(2000):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        mats.append((n, [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]))
    kernels = [integer_kernel_basis(mat, ncols=n) for n, mat in mats]
    saturated = [saturate(mat) for _, mat in mats]
    assert hashlib.sha256(repr(kernels).encode()).hexdigest() == (
        "745b860bb68b5edcf5329fc7ecf5c4bfc17c94ce124d4a55bf5bf8f203fe484f")
    assert hashlib.sha256(repr(saturated).encode()).hexdigest() == (
        "3077112f788189a1be27cf91190036aac9fb10a123823175a901a7e1afdb3fd6")


def test_saturate_halves_come_back_integral():
    assert saturate([(Fraction(1, 2), Fraction(1, 2))]) == ((1, 1),)
    assert saturate([(2, 0), (0, 2)]) == ((1, 0), (0, 1))
    assert saturate([]) == ()
    assert saturate([(0, 0)]) == ()


@given(matrices(3, 3, st.integers(min_value=-7, max_value=7)))
def test_det_matches_laplace(m):
    assert det(m) == laplace_det(m)


@given(matrices(4, 4, st.integers(min_value=-3, max_value=3)))
def test_det_matches_laplace_4x4(m):
    assert det(m) == laplace_det(m)


@given(matrices(3, 3), st.lists(ints, min_size=3, max_size=3))
def test_null_basis_agrees_with_reference(m, rhs):
    # null_basis, the kernel half of a linear solve: with its free columns
    # pinned to their values, each vector is the one solution of m x = 0,
    # and it is a primitive integer vector
    kernel = null_basis(m)
    assert len(kernel) == 3 - rank(m)
    free = _free_columns(m)
    for k in kernel:
        assert all(type(x) is int for x in k) and gcd(*k) == 1
        pinned = [list(row) for row in m] + [[int(j == f) for j in range(3)] for f in free]
        assert gauss_solve(pinned, [0] * len(m) + [k[f] for f in free]) == k
    # a solution of m x = rhs stays one along each of them
    x = gauss_solve(m, rhs)
    for k in kernel if x is not None else ():
        assert all(dot(row, vec_add(x, k)) == b for row, b in zip(m, rhs))


@given(matrices(3, 3, fractions) | matrices(2, 2, fractions))
def test_det_of_rational_matrices_matches_laplace(m):
    assert det(m) == laplace_det(m)


entries = ints | fractions


@st.composite
def systems(draw):
    """Rectangular 1-4 x 1-5 systems with integer or rational entries."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 5))
    small = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    m = draw(matrices(nrows, ncols, entries) | matrices(nrows, ncols, small))
    # some systems with a repeated row or a zero column, so that ranks drop
    if nrows > 1 and draw(st.booleans()):
        m[-1] = list(m[0])
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in m:
            row[j] = 0
    rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return m, rhs


def _free_columns(m):
    # a column is free when it adds nothing to the rank of the columns before it
    return [j for j in range(len(m[0]))
            if gauss_rank([row[:j + 1] for row in m]) == gauss_rank([row[:j] for row in m])]


@settings(max_examples=300)
@given(systems())
def test_null_basis_output_is_pinned_by_the_reference(system):
    # null_basis is the reduced row echelon null basis, each vector 1 at its
    # free column and -rref[r][f] at the pivot of row r, cleared of
    # denominators; the systems' right hand sides are not used
    m, _ = system
    assert rank(m) == gauss_rank(m)
    kernel = null_basis(m)
    ref_rows, pivots = gauss_rref(m)
    free = _free_columns(m)
    assert len(kernel) == len(free) == len(m[0]) - gauss_rank(m)
    assert free == [j for j in range(len(m[0])) if j not in pivots]
    for f, k in zip(free, kernel):
        vec = [Fraction(int(j == f)) for j in range(len(m[0]))]
        for row, c in zip(ref_rows, pivots):
            vec[c] = -row[f]
        assert k == scale_to_integer(vec)
        assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in m)


@settings(max_examples=300)
@given(systems())
def test_the_row_reduction_is_an_echelon_form_by_a_unimodular_transform(system):
    # the rows (M | I) reduced on M's columns are (U M | U): U M is in
    # echelon form with the pivot columns of the reduced row echelon form,
    # its rows below the pivots are zero, and det U is the returned sign
    m, _ = system
    rows = [list(scale_to_integer(row)) for row in m]
    n, k = len(rows[0]), len(rows)
    work = [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    r, sign = _row_reduce(work, n)
    left, u = [row[:n] for row in work], [row[n:] for row in work]
    assert left == [[sum(a * b for a, b in zip(urow, col)) for col in zip(*rows)] for urow in u]
    pivots = [next(j for j, x in enumerate(row) if x) for row in left[:r]]
    assert pivots == gauss_rref(rows)[1]
    assert all(row[j] == 0 for row, p in zip(left[:r], pivots) for j in range(p))
    assert not any(x for row in left[r:] for x in row)
    assert laplace_det(u) == sign


def test_rank_det_and_null_basis_outputs_are_pinned():
    # sha256 of the outputs on 2000 seeded matrices (0-6 rows, 1-7 columns,
    # entries -4..4, every other one with denominators 1-4), det on each
    # matrix's leading square block; the digests are those of the
    # fraction-free Gauss-Jordan elimination they replaced
    rng = SplitMix64(7001)
    mats = []
    for t in range(2000):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        if t % 2:
            mats.append([tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)) for _ in range(m)])
        else:
            mats.append([tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)])
    ranks = [rank(mat) for mat in mats]
    kernels = [null_basis(mat) for mat in mats if mat]
    dets = [det([row[:len(mat)] for row in mat]) for mat in mats if not mat or len(mat) <= len(mat[0])]
    assert hashlib.sha256(repr(ranks).encode()).hexdigest() == (
        "0fccf7eef11e73185a43a1bdcf5c08c61d5e11b8a6f679454c3283b75b9c4014")
    assert hashlib.sha256(repr(kernels).encode()).hexdigest() == (
        "930f0d0dc7a397a207e332ca72c72d35412b414ecc438b44db76f258aa687f47")
    assert hashlib.sha256(repr(dets).encode()).hexdigest() == (
        "b1f9cdc4f31d206a95edec09dfde1f9c3348105d73ca19e3f327377b7b3055e6")


@pytest.mark.parametrize("read", [rank, null_basis, det], ids=["rank", "null_basis", "det"])
def test_ragged_rows_are_refused(read):
    # rank once read the column count off the first row, so [[1], [2, 3]]
    # had rank 1 and no null basis, and [[1, 2], [3]] raised an IndexError
    for matrix in ([[1], [2, 3]], [[1, 2], [3]], [[1, 2], [3, 4], [5]]):
        with pytest.raises(DimensionMismatchError):
            read(matrix)


def test_scale_to_integer_returns_an_integer_row_as_it_is():
    assert scale_to_integer((2, -4, 0)) == (2, -4, 0)
    assert scale_to_integer([Fraction(2), 4]) == (2, 4)
    assert scale_to_integer((Fraction(1, 2), Fraction(-1, 3))) == (3, -2)
    assert scale_to_integer((Fraction(2, 3), Fraction(4, 3))) == (2, 4)
    assert scale_to_integer(()) == ()


def test_null_basis_reports_full_solution_set():
    # null_basis reads the kernel of the rows; it depends on their span alone
    assert null_basis([[1, 1]]) == ((-1, 1),)
    assert null_basis([[2, 2], [1, 1]]) == null_basis([[3, 3]]) == ((-1, 1),)
    assert null_basis([[Fraction(1, 2), Fraction(1, 3), 0]]) == ((-2, 3, 0), (0, 0, 1))
    assert null_basis([[0, 0]]) == ((1, 0), (0, 1))
    assert null_basis([[1, 0], [0, 1]]) == ()
    with pytest.raises(DimensionMismatchError):
        null_basis([])
