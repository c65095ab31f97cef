"""Text format: parsing, validation messages, and write/read roundtrips."""

from fractions import Fraction

import pytest

from polyadj.errors import ParseError
from polyadj.generators import fig1, random_lattice_polytope
from polyadj.polyfile import (
    config_from_document,
    format_polytope,
    parse_document,
    polytope_from_document,
    raw_inequalities,
    read_polytope,
)
from polyadj.polytope import vertices
from polyadj.spectrum import codegree_step

FIG1_H = """\
# a comment
dim 2

H
-1 0 0
0 -1 0   # trailing comment
0 1 3
1 -1 4
1 0 5
"""


def test_parse_h_document():
    doc = parse_document(FIG1_H)
    assert doc.dim == 2
    assert doc.kind == "H"
    assert len(doc.rows) == 5
    assert doc.rows[3] == (Fraction(1), Fraction(-1), Fraction(4))
    assert polytope_from_document(doc) == fig1()


def test_parse_v_document():
    p = read_polytope("dim 2\nV\n0 0\n4 0\n5 1\n5 3\n0 3\n")
    assert p == fig1()


def test_parse_a_document():
    cfg = config_from_document(parse_document("dim 2\nA\n0 -1\n0 1\n"))
    assert cfg.normals == ((0, -1), (0, 1))
    assert codegree_step(cfg) == Fraction(1, 2)


def test_rational_entries():
    doc = parse_document("dim 1\nH\n-1 0\n2/3 4/6\n")
    assert doc.rows[1] == (Fraction(2, 3), Fraction(2, 3))
    p = polytope_from_document(doc)
    assert set(vertices(p)) == {(Fraction(0),), (Fraction(1),)}


def test_h_rows_scale_to_integer_normals():
    p = read_polytope("dim 2\nH\n1/2 1/2 1\n-1 0 0\n0 -1 0\n")
    assert (1, 1) in p.normals
    i = p.normals.index((1, 1))
    assert p.rhs[i] == 2


def test_parse_errors_carry_line_numbers():
    cases = [
        ("dim 2\nH\n1 0\n", "line 3"),          # width mismatch
        ("dim 2\nH\n1 0 0\nV\n1 1\n", "line 4"),  # second section
        ("dim 2\nQ\n1 0 0\n", "line 2"),        # unknown marker
        ("dim x\nH\n1 0 0\n", "line 1"),        # bad dimension
        ("dim 0\nH\n1 0\n", "line 1"),          # nonpositive dimension
        ("H\n1 0 0\n", "line 1"),               # missing header
        ("dim 2\nH\n1 a 0\n", "line 3"),        # bad entry
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_document(text)


def test_parse_errors_on_missing_pieces():
    with pytest.raises(ParseError, match="dim"):
        parse_document("# nothing here\n")
    with pytest.raises(ParseError, match="section"):
        parse_document("dim 2\n")
    with pytest.raises(ParseError, match="no rows"):
        parse_document("dim 2\nH\n")


def test_a_section_is_not_a_polytope():
    doc = parse_document("dim 2\nA\n0 1\n0 -1\n")
    with pytest.raises(ParseError):
        polytope_from_document(doc)
    with pytest.raises(ParseError):
        config_from_document(parse_document("dim 2\nH\n1 0 1\n"))
    with pytest.raises(ParseError, match="integer"):
        config_from_document(parse_document("dim 2\nA\n1/2 0\n0 1\n"))


def test_raw_inequalities_keep_rows_verbatim():
    doc = parse_document("dim 2\nH\n6 2 6\n-1 0 0\n0 -1 0\n")
    assert raw_inequalities(doc)[0] == ((6, 2), Fraction(6))
    with pytest.raises(ValueError, match="integer"):
        raw_inequalities(parse_document("dim 2\nH\n1/2 0 1\n0 1 1\n-1 -1 0\n"))
    with pytest.raises(ValueError):
        raw_inequalities(parse_document("dim 2\nV\n0 0\n1 0\n0 1\n"))


def test_integer_tokens_parse_to_ints_and_others_to_fractions():
    doc = parse_document("dim 2\nV\n0 -3\n1/2 +2\n4/2 0\n")
    assert doc.rows == ((0, -3), (Fraction(1, 2), 2), (2, 0))
    assert [[type(x) for x in row] for row in doc.rows] == [[int, int], [Fraction, int], [Fraction, int]]
    p = polytope_from_document(doc)
    assert all(type(x) is Fraction for v in vertices(p) for x in v)
    assert all(type(b) is Fraction for b in p.rhs)
    fractions = "dim 2\nV\n0/1 -3/1\n1/2 2/1\n2/1 0/1\n"
    assert repr(p) == repr(read_polytope(fractions)) and vertices(p) == vertices(read_polytope(fractions))
    # int entries are read as the integers they are
    assert raw_inequalities(parse_document("dim 2\nH\n6 2 6\n-1 0 0\n0 -1 -1/2\n")) == [
        ((6, 2), 6), ((-1, 0), 0), ((0, -1), Fraction(-1, 2))]
    cfg = config_from_document(parse_document("dim 2\nA\n0 -1\n0 2/2\n"))
    assert cfg.normals == ((0, -1), (0, 1)) and all(type(x) is int for a in cfg.normals for x in a)


def test_format_roundtrips():
    p = fig1()
    assert read_polytope(format_polytope(p, comments=["made by a test"])) == p


def test_reading_the_adjoint_documents_makes_no_fraction_comparison(count_fraction_compares):
    # the benchmark's adjoint documents at seed 0, hulls of 12 points in
    # [-4, 4]^3: the vertices are ordered by integer keys and the rows by
    # their distinct integer normals. Sorting the vertices as Fraction
    # tuples made 517 < and 1490 ==
    texts = [format_polytope(random_lattice_polytope(3, 12, s, box=4)) for s in range(5000, 5060)]
    assert count_fraction_compares(lambda: [read_polytope(t) for t in texts]) == dict.fromkeys(
        ("==", "<", "<=", ">", ">="), 0)


def test_reading_the_suite_documents_makes_no_fraction_comparison(count_fraction_compares, suite):
    # the 200 suite documents: 917 < and 2452 == when the vertices were
    # sorted as Fraction tuples
    texts = [format_polytope(p) for _, p in suite]
    assert count_fraction_compares(lambda: [read_polytope(t) for t in texts]) == dict.fromkeys(
        ("==", "<", "<=", ">", ">="), 0)
