"""Exact rational and integer-lattice linear algebra.

All arithmetic uses Python ints and fractions.Fraction; nothing here ever
touches floating point. Vectors are tuples, matrices are sequences of row
tuples. Rationals serialize as "p/q" with the sign on the numerator and a
bare "p" when the denominator is 1 (this is exactly str(Fraction)).

int_vector is the one reader that turns vector entries into ints: it
takes integral Fractions and floats and rejects any other entry, never
truncating. integer_kernel_basis is the one unimodular reduction of an
integer lattice, and saturate takes the kernel of its kernel. rank,
null_basis and det share one fraction-free Gauss-Jordan elimination:
each row's denominators are cleared once, the rows stay integer and
gcd-reduced, and a Fraction is formed only for det's answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
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
    stays as it is, and det relies on that factor. An all-int vector is
    returned as it is, and ints and Fractions are read by numerator and
    denominator, with no Fraction built.
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


def integer_kernel_basis(matrix: Sequence[Sequence[int]], ncols: Optional[int] = None) -> tuple[IntVector, ...]:
    """Lattice basis of {x in Z^n : matrix @ x = 0}, read by int_vector.

    The rows of the transpose, each with its unit vector appended, are
    reduced by unimodular row operations: in each column the entry of least
    absolute value below the finished rows becomes the pivot and reduces
    the entries under it, until none is left. The rows that end with a zero
    left part are a basis of the kernel, and their appended parts are the
    answer (the kernel of an integer matrix is saturated). Pass ncols for
    matrices with zero rows, where the column count cannot be inferred.
    """
    rows = [int_vector(row) for row in matrix]
    if not rows and ncols is None:
        raise DimensionMismatchError("empty matrix needs explicit ncols")
    n = len(rows[0]) if rows else ncols
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("ragged matrix")
    m = len(rows)
    work = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    r = 0
    for c in range(m):
        if r == n:
            break
        while True:
            nz = [i for i in range(r, n) if work[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][c]), i))
            work[r], work[i0] = work[i0], work[r]
            done = True
            for i in range(r + 1, n):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                break
        if work[r][c] != 0:
            r += 1
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


def _eliminate(rows: list[list[int]]) -> tuple[list[list[int]], list[int], tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Each pivot is the first nonzero entry of its column at or below the
    current row, made positive; every other row i with a nonzero entry f in
    the pivot column c becomes p row_i - f row_r, divided by its gcd, where
    p = row_r[c]. Returns (rows, pivots, (num, den)): the nonzero rows, the
    pivot column of each, and the ratio num / den of the determinant of the
    returned rows to that of the input (square input of full rank). Row r
    divided by its pivot entry is row r of the reduced row echelon form.
    """
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    num = den = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            num = -num
        pivot_row = work[r]
        p = pivot_row[c]
        if p < 0:
            pivot_row = work[r] = [-a for a in pivot_row]
            p, num = -p, -num
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f != 0:
                row = [p * a - f * b for a, b in zip(work[i], pivot_row)]
                g = gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
                work[i] = row
                num *= p
                den *= g or 1
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots, (num, den)


def rank(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination of the rows
    with their denominators cleared."""
    return len(_eliminate([scale_to_integer(row) for row in matrix])[1])


def null_basis(rows: Sequence[Sequence]) -> tuple[IntVector, ...]:
    """Basis of {x : rows @ x = 0} over the rationals, which depends on the row space alone.

    One vector per free column f of the reduced row echelon form, in
    column order: the primitive integer vector that is positive at f, 0 on
    the other free columns, and proportional to -row[f] / row[c] on the
    pivot column c of each reduced row. The elimination runs in integers
    and no Fraction is formed.
    """
    if not rows:
        raise DimensionMismatchError("null_basis needs at least one row")
    n = len(rows[0])
    reduced, pivots, _ = _eliminate([scale_to_integer(row) for row in rows])
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        used = [(row, c) for row, c in zip(reduced, pivots) if row[f]]
        scale = lcm(*(row[c] for row, c in used))
        vec = [0] * n
        vec[f] = scale
        for row, c in used:
            vec[c] = -row[f] * (scale // row[c])
        g = gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return tuple(basis)


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant by the fraction-free elimination: the product of the
    pivots over the accumulated scale, which carries the sign of the row
    swaps, and over the multiples that cleared each row's denominators."""
    rows = [scale_to_integer(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("determinant of a non-square matrix")
    reduced, pivots, (num, den) = _eliminate(rows)
    if len(pivots) < n:
        return _ZERO
    value = Fraction(den * prod(row[c] for row, c in zip(reduced, pivots)), num)
    for row, cleared in zip(matrix, rows):
        k = next(j for j, x in enumerate(cleared) if x)
        if cleared[k] != row[k]:
            value = value * Fraction(row[k]) / cleared[k]
    return value
