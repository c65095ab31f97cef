"""Frozen records: equality, hash and repr over the shown fields only,
no writes after construction, and the constructor signatures the
library's callers use."""

import inspect
from fractions import Fraction

import pytest

from polyadj import fan, lp, polytope

EMPTY = inspect.Parameter.empty


def hpolytope():
    p = polytope.from_inequalities([((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    return p, polytope.HPolytope(p.dim, p.normals, p.rhs, vertices=((0, 0),), incidence=(0, 0, 0))


def embedded():
    e = polytope.hull_any_dim([(0, 0), (1, 1)])
    return e, polytope.EmbeddedPolytope(e.subspace, e.facets, e.vertices, incidence=(7, 7))


def cone():
    c = fan.cone([(1, 0), (1, 2)])
    return c, fan.Cone(c.ambient_dim, c.rays, functionals=("not", "the", "description"))


def lp_result():
    return (lp.LpResult("optimal", Fraction(1, 2), (Fraction(1, 2),), (Fraction(1),)),
            lp.LpResult("optimal", Fraction(2, 4), (Fraction(1, 2),), (Fraction(1),)))


RECORDS = {
    "HPolytope": (hpolytope, ("dim", "normals", "rhs"), ("vertices", "incidence"),
                  [("dim", EMPTY), ("normals", EMPTY), ("rhs", EMPTY), ("vertices", None), ("incidence", None)],
                  "HPolytope(dim=2, normals=((-1, 0), (0, -1), (1, 1)), "
                  "rhs=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))"),
    "EmbeddedPolytope": (embedded, ("subspace", "facets", "vertices"), ("incidence",),
                         [("subspace", EMPTY), ("facets", EMPTY), ("vertices", EMPTY), ("incidence", None)],
                         "EmbeddedPolytope(subspace=AffineSubspace(dim=1, ambient_dim=2, "
                         "equations=(((1, -1), Fraction(0, 1)),)), "
                         "facets=(((-1, 0), Fraction(0, 1)), ((1, 0), Fraction(1, 1))), "
                         "vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1))))"),
    "Cone": (cone, ("ambient_dim", "rays"), ("functionals",),
             [("ambient_dim", EMPTY), ("rays", EMPTY), ("functionals", None)],
             "Cone(ambient_dim=2, rays=((1, 0), (1, 2)))"),
    "LpResult": (lp_result, ("status", "value", "point", "duals"), (),
                 [("status", EMPTY), ("value", EMPTY), ("point", EMPTY), ("duals", ())],
                 "LpResult(status='optimal', value=Fraction(1, 2), point=(Fraction(1, 2),), duals=(Fraction(1, 1),))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_read_the_shown_fields_only(name):
    build, shown, derived, _, _ = RECORDS[name]
    a, b = build()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert all(getattr(a, field) != getattr(b, field) for field in derived)
    assert hash(a) == hash(tuple(getattr(a, field) for field in shown))
    # a changed shown field makes another record
    other = type(a)(**{field: getattr(a, field) for field in shown + derived} | {shown[-1]: ()})
    assert other != a and a != other


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_never_equals_a_tuple_of_its_fields(name):
    build, shown, derived, _, _ = RECORDS[name]
    a, _ = build()
    assert a != tuple(getattr(a, field) for field in shown)
    assert a != tuple(getattr(a, field) for field in shown + derived)
    assert tuple(getattr(a, field) for field in shown) != a


@pytest.mark.parametrize("name", RECORDS)
def test_repr_leaves_out_the_derived_fields(name):
    build, _, _, _, expected = RECORDS[name]
    a, b = build()
    assert repr(a) == repr(b) == expected


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_is_written_or_deleted_after_construction(name):
    build, shown, derived, _, _ = RECORDS[name]
    a, _ = build()
    before = {field: getattr(a, field) for field in shown + derived}
    for field in shown + derived + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert {field: getattr(a, field) for field in shown + derived} == before


@pytest.mark.parametrize("name", RECORDS)
def test_the_constructor_signature_is_pinned(name):
    build, _, _, expected, _ = RECORDS[name]
    a, _ = build()
    assert [(p.name, p.default) for p in inspect.signature(type(a)).parameters.values()] == expected
