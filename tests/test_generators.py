"""Instance generators: fixed cases, families, and the seeded sampler."""

import pytest

from polyadj.generators import SplitMix64, cube, fig1, random_lattice_polytope, scaled_simplex
from polyadj.polytope import is_lattice_polytope, vertices


def test_prng_matches_the_published_sequence():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(2)] == [0x599ED017FB08FC85, 0x2C73F08458540FA5]


def test_prng_randint_stays_in_range_and_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    xs = [a.randint(-3, 3) for _ in range(200)]
    assert xs == [b.randint(-3, 3) for _ in range(200)]
    assert all(-3 <= x <= 3 for x in xs)
    assert len(set(xs)) == 7


def test_fig1_rows():
    p = fig1()
    assert list(zip(p.normals, p.rhs)) == [
        ((-1, 0), 0), ((0, -1), 0), ((0, 1), 3), ((1, -1), 4), ((1, 0), 5)]


def test_cube_shape():
    p = cube(3)
    assert p.n_facets == 6
    assert len(vertices(p)) == 8
    with pytest.raises(ValueError):
        cube(0)


def test_scaled_simplex_rows():
    p = scaled_simplex(2, 3)
    assert list(zip(p.normals, p.rhs)) == [((-1, 0), 0), ((0, -1), 0), ((1, 3), 3)]
    assert set(vertices(p)) == {(0, 0), (3, 0), (0, 1)}
    with pytest.raises(ValueError):
        scaled_simplex(0, 2)
    with pytest.raises(ValueError):
        scaled_simplex(2, 0)


def test_random_polytopes_are_reproducible_lattice_instances():
    p = random_lattice_polytope(3, 7, 99)
    q = random_lattice_polytope(3, 7, 99)
    assert p == q
    assert p.dim == 3
    assert is_lattice_polytope(p)
    assert all(all(-5 <= x <= 5 for x in v) for v in vertices(p))
    assert p != random_lattice_polytope(3, 7, 100)


def test_random_polytope_validation():
    with pytest.raises(ValueError):
        random_lattice_polytope(0, 5, 0)
    with pytest.raises(ValueError):
        random_lattice_polytope(2, 2, 0)
    with pytest.raises(ValueError):
        random_lattice_polytope(2, 5, 0, box=0)
