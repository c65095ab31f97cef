"""Finite candidate sets for Q-codegrees with a prescribed core normal set.

A core normal configuration is a finite set of primitive integer vectors
positively spanning the space (the origin is in the relative interior of
their convex hull). For such a configuration A the values c admitting a
point y with A y + c 1 integral form a group g Z, every achievable
critical shift is a multiple of g, and the Q-codegrees above a cutoff
epsilon therefore lie in the finite set {1 / (k g) : k >= 1, 1 / (k g) >=
epsilon}. The step is g = 1/N with N the gcd of the coordinate sums of a
basis of the relations w (sum_i w_i a_i = 0, w integral): the projection of
Z^m onto the orthogonal complement of span(A) is the lattice dual to those
relations, so c 1 lies in Z^m + span(A) iff <w, c 1> = c sum(w) is an
integer for every relation w. The candidates are the values N/k. The
step and, for a c on the grid, a witness y are read off one integer row
reduction of the rows (a_i | e_i), whose zero rows are the relations. No
LP is solved.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
import operator
import sys
from math import floor, gcd
from numbers import Rational
from typing import Iterator, Optional, Sequence

from .errors import GridTooLargeError, InternalInconsistencyError, InvalidConfigError
from .polytope import EmbeddedPolytope, hull_any_dim
from .ratmath import (
    IntVector,
    _back_substitute,
    _pivot_columns,
    _row_reduce,
    dot,
    int_vector,
    primitivize,
)
from .record import record


@record
class CoreNormalConfig:
    """Primitive integer vectors whose convex hull has 0 in its relative interior."""

    dim: int
    normals: tuple[IntVector, ...]

    @property
    def n_rows(self) -> int:
        return len(self.normals)


class ReciprocalGrid(Sequence[Fraction]):
    """The values 1/(k*step) for k = 1..size, in descending order.

    Described by step and size alone: an entry is made when it is read,
    and membership is one division, not a scan. The number of values
    grows as 1/(epsilon*step), into the millions for fine steps; len()
    and hash() of one past sys.maxsize raise GridTooLargeError, and size
    holds the count. Equal to the tuple of its values, and hashed as that
    tuple.
    """

    __slots__ = ("step", "size")

    def __init__(self, step: Fraction, size: int):
        self.step = step
        self.size = size

    def __len__(self) -> int:
        if self.size > sys.maxsize:
            raise GridTooLargeError(self.size)
        return self.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(self.size)))
        index = operator.index(index)
        k = index + self.size if index < 0 else index
        if not 0 <= k < self.size:
            raise IndexError("reciprocal grid index out of range")
        return Fraction(self.step.denominator, (k + 1) * self.step.numerator)

    def __iter__(self) -> Iterator[Fraction]:
        q, p = self.step.denominator, self.step.numerator
        for k in range(1, self.size + 1):
            yield Fraction(q, k * p)

    def __contains__(self, value) -> bool:
        """As for the tuple of values, with no scan: a float or a Decimal is
        compared exactly (NaN and infinities are not in the grid), and no
        other value that is not Rational is."""
        if isinstance(value, (float, Decimal)):
            try:
                value = Fraction(value)
            except (ValueError, OverflowError):  # NaN or an infinity
                return False
        elif not isinstance(value, Rational):
            return False
        if value <= 0 or self.size == 0:
            return False
        k = 1 / (Fraction(value) * self.step)
        return k.denominator == 1 and k <= self.size

    def __eq__(self, other) -> bool:
        if isinstance(other, ReciprocalGrid):
            return self.size == other.size and (self.size == 0 or self.step == other.step)
        if isinstance(other, tuple):
            return len(other) == self.size and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        if self.size > sys.maxsize:
            raise GridTooLargeError(self.size)
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ReciprocalGrid(step={self.step!r}, size={self.size})"


@record
class SpectrumSuperset:
    """Descending candidate Q-codegrees 1/(k*step) at or above epsilon."""

    step: Fraction
    epsilon: Fraction
    values: ReciprocalGrid


def make_config(rows: Sequence[Sequence[int]]) -> CoreNormalConfig:
    """Validate and wrap a configuration; see validate_config for the rules."""
    cfg = _checked_rows(rows)
    validate_config(cfg)
    return cfg


def _checked_rows(rows: Sequence[Sequence[int]]) -> CoreNormalConfig:
    """Wrap rows that are distinct, nonzero, primitive integer vectors of one
    length; the positive spanning property is left to the caller."""
    if not rows:
        raise InvalidConfigError("a configuration needs at least one row")
    d = len(rows[0])
    normals = []
    for a in rows:
        if len(a) != d:
            raise InvalidConfigError("mixed row lengths")
        try:
            vec = int_vector(a)
        except ValueError:
            raise InvalidConfigError("rows must be integer vectors") from None
        if all(x == 0 for x in vec):
            raise InvalidConfigError("zero vector is not a valid normal")
        if primitivize(vec)[0] != vec:
            raise InvalidConfigError(f"row {vec} is not primitive")
        normals.append(vec)
    if len(set(normals)) != len(normals):
        raise InvalidConfigError("duplicate rows")
    return CoreNormalConfig(d, tuple(normals))


def validate_config(cfg: CoreNormalConfig) -> None:
    """Require 0 strictly inside conv(rows) relative to its affine hull, a
    barycentric expression of 0 with all weights positive, on hull_any_dim."""
    _require_positive_spanning(hull_any_dim(cfg.normals))


def _require_positive_spanning(hull: EmbeddedPolytope) -> None:
    """Raise InvalidConfigError unless 0 lies in the relative interior of hull."""
    if not hull.contains((0,) * hull.ambient_dim, strict=True):
        raise InvalidConfigError("0 must lie in the relative interior of conv(rows)")


def _reduced_rows(cfg: CoreNormalConfig) -> tuple[Fraction, list[list[int]]]:
    """The step 1/N and the rows (H | U_H) of one _row_reduce of the rows
    (a_i | e_i) on their first d columns, U A = (H; 0) with U unimodular.
    The zero rows end in a basis of the lattice of relations w, sum_i w_i
    a_i = 0, and N is the gcd of their sums. N = 0 would mean A y = 1 for
    some y, which a positive barycentric combination of the rows rules out.
    """
    d, m = cfg.dim, cfg.n_rows
    rows = [list(a) + [int(i == j) for j in range(m)] for i, a in enumerate(cfg.normals)]
    r, _ = _row_reduce(rows, d)
    n = gcd(*(sum(row[d:]) for row in rows[r:]))
    if n == 0:
        raise InvalidConfigError("configuration admits A y = 1; step is undefined")
    return Fraction(1, n), rows[:r]


def codegree_step(cfg: CoreNormalConfig) -> Fraction:
    """The positive generator g = 1/N of {c : A y + c 1 is integral for
    some y}, read off one row reduction (_reduced_rows)."""
    return _reduced_rows(cfg)[0]


def _positive_epsilon(epsilon) -> Fraction:
    """epsilon as a Fraction, or ValueError unless it is positive: the one
    check of a spectrum cutoff, which analyze and the command line also make
    before any geometry. A Fraction is returned as it is, so a cutoff read
    once is not read again."""
    eps = epsilon if type(epsilon) is Fraction else Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps


def spectrum_superset(cfg: CoreNormalConfig, epsilon) -> SpectrumSuperset:
    """All candidate Q-codegrees >= epsilon for polytopes with this core
    normal set, in descending order."""
    eps = _positive_epsilon(epsilon)
    g = codegree_step(cfg)
    kmax = floor(1 / (eps * g))
    return SpectrumSuperset(g, eps, ReciprocalGrid(g, kmax))


def check_necessary_condition(cfg: CoreNormalConfig, c) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Whether some y makes A y + c 1 integral; returns (ok, witness y).

    ok iff c is a multiple of the step. The step and y are read off the
    same rows of _reduced_rows, U A = (H; 0), the zero rows being the
    relations: y = -c y0, where y0 solves H y0 = U_H 1 with 0 at the
    columns of H without a pivot, by the integer _back_substitute. Then
    U (A y + c 1) is 0 beside H and c sum(w) beside each relation w, which
    is integral on the grid, so A y + c 1 is integral too, which is
    checked: InternalInconsistencyError otherwise.
    """
    c = Fraction(c)
    step, top = _reduced_rows(cfg)
    if (c / step).denominator != 1:
        return False, None
    d = cfg.dim
    echelon = [row[:d] + [-sum(row[d:])] for row in top]
    *y0, den = _back_substitute(echelon, _pivot_columns(echelon), d + 1, d)
    y = tuple(Fraction(-c.numerator * v, c.denominator * den) for v in y0)
    for a in cfg.normals:
        if (dot(a, y) + c).denominator != 1:
            raise InternalInconsistencyError("constructed witness is not integral")
    return True, y
