"""Exact rational and integer-lattice linear algebra.

All arithmetic uses Python ints and fractions.Fraction; nothing here ever
touches floating point. Vectors are tuples, matrices are sequences of row
tuples. Rationals serialize as "p/q" with the sign on the numerator and a
bare "p" when the denominator is 1 (this is exactly str(Fraction)).

int_vector is the one reader that turns vector entries into ints: it
takes integral Fractions and floats and rejects any other entry, never
truncating. _row_reduce is the one row reduction of an integer matrix, by
unimodular row operations: integer_kernel_basis reads its zero rows, and
saturate takes the kernel of a kernel. rank, det and null_basis reduce
the rows with their denominators cleared once: rank counts the pivots,
det multiplies them, and null_basis reads each vector by an integer back
substitution; all three raise DimensionMismatchError on rows of unequal
lengths. A Fraction is formed only for det's answer. _int_kernels
compiles, per vector length, the unrolled int kernels (dot and comb) that
the double description's steps and the canonicity scan's heights take.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, ParseError, ZeroVectorError

IntVector = tuple[int, ...]

_ZERO = Fraction(0)


def format_fraction(q: Fraction | int) -> str:
    return str(Fraction(q))


def parse_rational(text: str) -> int | Fraction:
    """An ASCII integer token, with an optional sign, as an int read by
    int(); any other as Fraction(text) after stripping, raising ParseError."""
    token = text.strip()
    digits = token[1:] if token[:1] in ("+", "-") else token
    if digits.isascii() and digits.isdigit():
        return int(token)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def dot(a: Sequence, x: Sequence) -> Fraction | int:
    """Inner product summed from the int 0: an int for integer vectors, else a Fraction."""
    if len(a) != len(x):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(x)}")
    return sum(ai * xi for ai, xi in zip(a, x))


@cache
def _int_kernels(n: int) -> tuple:
    """(dot, comb): unrolled kernels for int vectors of length n.

    dot(a, z) is <a, z> and comb(p, z, q, y) the primitive part of p z - q
    y: the tuple over the gcd of its entries when that exceeds 1, () for n
    = 0. Each is written out for length n, compiled by one exec as record
    does for records, and unpacks its vectors, so one of another length
    raises ValueError. On the d + 1 entries of a set in Q^d that the double
    description's steps see, the generic forms cost two to four times as
    much. The memo is keyed by n alone and holds code, not data: its size
    is the number of distinct lengths asked for, and no returned value
    depends on the calls before. lp does not use them: its row widths vary
    from one LP to the next, and compiling one length costs more than a
    solve would save.
    """
    z, y, a, c = (f"[{', '.join(f'{v}{i}' for i in range(n))}]" for v in "zyac")
    source = (
        f"def dot(a, z):\n    {a} = a\n    {z} = z\n"
        f"    return {' + '.join(f'a{i} * z{i}' for i in range(n)) or '0'}\n"
        f"def comb(p, z, q, y):\n    {z} = z\n    {y} = y\n"
        f"    {c} = v = ({''.join(f'p * z{i} - q * y{i}, ' for i in range(n))})\n    g = gcd({c[1:-1]})\n"
        f"    return ({''.join(f'c{i} // g, ' for i in range(n))}) if g > 1 else v\n"
    )
    namespace = {"gcd": gcd}
    exec(source, namespace)
    return namespace["dot"], namespace["comb"]


def vec_add(a: Sequence, x: Sequence) -> tuple:
    return tuple(ai + xi for ai, xi in zip(a, x))


def int_vector(v: Sequence) -> IntVector:
    """v as a tuple of ints: an all-int vector as it is, and an integral
    Fraction or float as its value. Any other entry raises ValueError; none
    is truncated."""
    if all(type(x) is int for x in v):
        return tuple(v)
    for x in v:
        if not (isinstance(x, (int, Fraction)) and x.denominator == 1 or isinstance(x, float) and x.is_integer()):
            raise ValueError(f"expected integer entry, got {x}")
    return tuple(int(x) for x in v)


def exact_entries(v: Sequence) -> list:
    """v's entries read exactly, the counterpart of int_vector: an int or
    a Fraction as it is, and any other entry as a Fraction."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]


def primitivize(v: Sequence[int]) -> tuple[IntVector, int]:
    """Divide an integer vector, read by int_vector, by the gcd of its entries.

    Returns (primitive vector, scale) with vector * scale == input.
    The sign of the vector is preserved (scale is positive).
    """
    w = int_vector(v)
    g = gcd(*w)
    if g == 0:
        raise ZeroVectorError("cannot primitivize the zero vector")
    return tuple(x // g for x in w), g


def scale_to_integer(v: Sequence) -> IntVector:
    """Clear denominators: v times the lcm of its entries' denominators.

    That is not always the smallest positive integer multiple: (2, -4, 0)
    stays as it is, and det divides that factor back out, read at each
    row's first nonzero entry. An all-int vector is returned as it is, and
    ints and Fractions are read by numerator and denominator, with no
    Fraction built.
    """
    if all(type(x) is int for x in v):
        return tuple(v)
    return tuple(common_denominator(exact_entries(v))[0])


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """(nums, den) with values[i] = nums[i] / den for ints and Fractions,
    den the lcm of their denominators (1 for no values)."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ext_gcd_list(values: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """gcd of a list plus coefficients expressing it as an integer combination."""
    if not values:
        return 0, ()
    g = values[0]
    coeffs = [1] + [0] * (len(values) - 1)
    if g < 0:
        g, coeffs[0] = -g, -1
    for k in range(1, len(values)):
        g2, s, t = ext_gcd(g, values[k])
        coeffs = [s * c for c in coeffs[:k]] + [t] + [0] * (len(values) - k - 1)
        g = g2
    return g, tuple(coeffs)


def _row_reduce(rows: list[Sequence[int]], m: int) -> tuple[int, int]:
    """Unimodular reduction of integer rows, in place, on their first m columns.

    In each column the entry of least absolute value below the finished
    rows becomes the pivot and reduces the entries under it, until none is
    left. Returns (r, sign): rows[:r] are in echelon form on the first m
    columns, each with a nonzero pivot, the other rows are zero there, and
    sign is the determinant of the row operations (each swap negates it).
    A caller that needs the transform U appends a unit vector to each row,
    and reads U off the appended columns.
    """
    n = len(rows)
    r, sign = 0, 1
    for c in range(m):
        if r == n:
            break
        while True:
            nz = [i for i in range(r, n) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))  # the first of equal ones
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                sign = -sign
            done = True
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] != 0:
            r += 1
    return r, sign


def _back_substitute(echelon: Sequence[Sequence[int]], pivots: Sequence[int], n: int, f: int) -> list[int]:
    """The integer x with echelon @ x = 0 that is den at column f and 0 at
    the other columns without a pivot, for rows in the echelon form of
    _row_reduce, their pivot columns, and f none of them. den is the
    absolute product of the pivots, the determinant of the pivot columns up
    to sign, so by Cramer's rule every division of the back substitution
    is exact.
    """
    x = [0] * n
    x[f] = abs(prod(row[p] for row, p in zip(echelon, pivots)))
    for row, p in zip(reversed(echelon), reversed(pivots)):
        x[p] = -sum(map(mul, row[p + 1:], x[p + 1:])) // row[p]
    return x


def _pivot_columns(echelon: Sequence[Sequence[int]]) -> list[int]:
    """The column of the first nonzero entry of each row."""
    return [next(j for j, a in enumerate(row) if a) for row in echelon]


def integer_kernel_basis(matrix: Sequence[Sequence[int]], ncols: Optional[int] = None) -> tuple[IntVector, ...]:
    """Lattice basis of {x in Z^n : matrix @ x = 0}, read by int_vector.

    The rows of the transpose, each with its unit vector appended, are
    reduced by _row_reduce. The rows that end with a zero left part are a
    basis of the kernel, and their appended parts are the answer (the
    kernel of an integer matrix is saturated). Pass ncols for matrices with
    zero rows, where the column count cannot be inferred.
    """
    rows = [int_vector(row) for row in matrix]
    if not rows and ncols is None:
        raise DimensionMismatchError("empty matrix needs explicit ncols")
    n = len(rows[0]) if rows else ncols
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("ragged matrix")
    m = len(rows)
    work = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    r, _ = _row_reduce(work, m)
    return tuple(tuple(row[m:]) for row in work[r:])


def saturate(spanning: Iterable[Sequence]) -> tuple[IntVector, ...]:
    """Basis of the saturated lattice Z^m intersected with the rational span.

    Accepts rational vectors; zero vectors are ignored. Implemented as the
    integer kernel of the integer kernel (the orthogonal complement of the
    orthogonal complement), which is automatically saturated.
    """
    vecs = []
    m = None
    for v in spanning:
        m = len(v) if m is None else m
        if len(v) != m:
            raise DimensionMismatchError("mixed lengths in saturate input")
        if any(x != 0 for x in v):
            vecs.append(scale_to_integer(v))
    if not vecs:
        return ()
    complement = integer_kernel_basis(vecs)
    return integer_kernel_basis(complement, ncols=m)


def _cleared_rows(matrix: Sequence[Sequence]) -> list[IntVector]:
    """The rows of a matrix with their denominators cleared (scale_to_integer),
    raising DimensionMismatchError on rows of unequal lengths."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise DimensionMismatchError("ragged matrix")
    return [scale_to_integer(row) for row in matrix]


def rank(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals: the pivot count of _row_reduce on the rows
    with their denominators cleared."""
    rows = _cleared_rows(matrix)
    return _row_reduce(rows, len(rows[0]) if rows else 0)[0]


def null_basis(rows: Sequence[Sequence]) -> tuple[IntVector, ...]:
    """Basis of {x : rows @ x = 0} over the rationals, which depends on the row space alone.

    One vector per free column f of the echelon form, in column order: the
    primitive integer vector that is positive at f and 0 on the other free
    columns, which is unique. It is read off the rows reduced by _row_reduce
    with their denominators cleared, by an integer back substitution
    (_back_substitute); no Fraction is formed.
    """
    if not rows:
        raise DimensionMismatchError("null_basis needs at least one row")
    work = _cleared_rows(rows)
    n = len(work[0])
    r, _ = _row_reduce(work, n)
    echelon = work[:r]
    pivots = _pivot_columns(echelon)
    basis = []
    for f in range(n):
        if f not in pivots:
            vec = _back_substitute(echelon, pivots, n, f)
            g = gcd(*vec)
            basis.append(tuple(x // g for x in vec))
    return tuple(basis)


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant by _row_reduce of the rows with their denominators
    cleared: the sign of its row operations times the product of the
    pivots, over the multiples that cleared each row's denominators."""
    rows = _cleared_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("determinant of a non-square matrix")
    work = list(rows)
    r, sign = _row_reduce(work, n)
    if r < n:
        return _ZERO
    value = Fraction(sign * prod(row[k] for k, row in enumerate(work)))
    for row, cleared in zip(matrix, rows):
        k = next(j for j, x in enumerate(cleared) if x)
        if cleared[k] != row[k]:
            value = value * Fraction(row[k]) / cleared[k]
    return value
