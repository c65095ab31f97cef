"""Line-oriented text files for polytopes and normal configurations.

Layout: `#` starts a comment, blank lines are ignored. The first payload
line is `dim d`. The next is a section marker, one of

    H   rows `a_1 ... a_d b` meaning <a, x> <= b
    V   rows of d coordinates, one vertex or generating point per line
    A   rows of d integers, a core normal configuration

followed by the rows. Exactly one section per file; entries are integers
or rationals `p/q` with the sign on the numerator. An integer token is
read as an int and any other as a Fraction, so a V document of lattice
points reaches the hull with no Fraction built, and an H row's integer
normal reaches from_inequalities as it is; only a normal with a rational
entry is cleared, and a right hand side becomes a Fraction once, in
make_system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import ParseError
from .polytope import HPolytope, from_inequalities, from_vertices
from .ratmath import IntVector, common_denominator, format_fraction, int_vector, parse_rational
from .record import record
from .spectrum import CoreNormalConfig, make_config

SECTIONS = ("H", "V", "A")


@record
class PolytopeDocument:
    """Parsed file content before geometric validation: an integer token
    is an int, any other entry a Fraction."""

    dim: int
    kind: str
    rows: tuple[tuple[int | Fraction, ...], ...]


def parse_document(text: str) -> PolytopeDocument:
    dim: Optional[int] = None
    kind: Optional[str] = None
    rows: list[tuple[int | Fraction, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if dim is None:
            if tokens[0] != "dim" or len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'dim d' first, got {line!r}")
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: dimension {tokens[1]!r} is not an integer") from None
            if dim < 1:
                raise ParseError(f"line {lineno}: dimension must be positive")
            continue
        if kind is None:
            if len(tokens) != 1 or tokens[0] not in SECTIONS:
                raise ParseError(f"line {lineno}: expected a section marker {SECTIONS}, got {line!r}")
            kind = tokens[0]
            continue
        if len(tokens) == 1 and tokens[0] in SECTIONS:
            raise ParseError(f"line {lineno}: only one section is allowed per file")
        width = dim + 1 if kind == "H" else dim
        if len(tokens) != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {len(tokens)}")
        try:
            rows.append(tuple(parse_rational(tok) for tok in tokens))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if dim is None:
        raise ParseError("missing 'dim d' header")
    if kind is None:
        raise ParseError("missing section marker (H, V, or A)")
    if not rows:
        raise ParseError(f"section {kind} has no rows")
    return PolytopeDocument(dim, kind, tuple(rows))


def polytope_from_document(doc: PolytopeDocument) -> HPolytope:
    """Canonical polytope from an H or V document.

    H rows with rational normals describe the same halfspace after
    clearing denominators, so they are scaled to integers here; the
    scaling is part of canonicalization and invisible in the result. A
    normal of int tokens passes as it is.
    """
    if doc.kind == "H":
        rows = []
        for row in doc.rows:
            normal, b = row[:-1], row[-1]
            if Fraction in map(type, normal):
                nums, s = common_denominator(normal)
                normal, b = tuple(nums), b if s == 1 else b * s
            rows.append((normal, b))
        return from_inequalities(rows)
    if doc.kind == "V":
        return from_vertices(doc.rows)
    raise ParseError("an A section describes a normal configuration, not a polytope")


def raw_inequalities(doc: PolytopeDocument) -> list[tuple[IntVector, int | Fraction]]:
    """The H rows exactly as written, for diagnostics that must not
    canonicalize. Requires integer normals, since row scaling changes the
    meaning of a raw system: each is read by int_vector, and any other
    entry raises ParseError, as in config_from_document."""
    if doc.kind != "H":
        raise ValueError("raw mode needs an H section")
    try:
        return [(int_vector(row[:-1]), row[-1]) for row in doc.rows]
    except ValueError as exc:
        raise ParseError(f"raw mode requires integer normals: {exc}") from None


def config_from_document(doc: PolytopeDocument) -> CoreNormalConfig:
    if doc.kind != "A":
        raise ParseError("expected an A section with configuration rows")
    try:
        rows = [int_vector(row) for row in doc.rows]
    except ValueError as exc:
        raise ParseError(f"configuration rows must be integer vectors: {exc}") from None
    return make_config(rows)


def read_polytope(text: str) -> HPolytope:
    return polytope_from_document(parse_document(text))


def format_polytope(p: HPolytope, comments: Sequence[str] = ()) -> str:
    """The H document of p, its canonical rows, after one `# ` line per comment."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"dim {p.dim}")
    lines.append("H")
    for a, b in zip(p.normals, p.rhs):
        lines.append(" ".join([str(x) for x in a] + [format_fraction(b)]))
    return "\n".join(lines) + "\n"
