"""Exact rational and integer-lattice linear algebra.

All arithmetic uses Python ints and fractions.Fraction; nothing here ever
touches floating point. Vectors are tuples, matrices are sequences of row
tuples. Rationals serialize as "p/q" with the sign on the numerator and a
bare "p" when the denominator is 1 (this is exactly str(Fraction)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, ParseError, ZeroVectorError

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


def format_fraction(q: Fraction | int) -> str:
    return str(Fraction(q))


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def dot(a: Sequence, x: Sequence) -> Fraction | int:
    """Inner product summed from the int 0: an int for integer vectors, else a Fraction."""
    if len(a) != len(x):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(x)}")
    return sum(ai * xi for ai, xi in zip(a, x))


def vec_add(a: Sequence, x: Sequence) -> tuple:
    return tuple(ai + xi for ai, xi in zip(a, x))


def vec_sub(a: Sequence, x: Sequence) -> tuple:
    return tuple(ai - xi for ai, xi in zip(a, x))


def primitivize(v: Sequence[int]) -> tuple[IntVector, int]:
    """Divide an integer vector by the gcd of its entries.

    Returns (primitive vector, scale) with vector * scale == input.
    The sign of the vector is preserved (scale is positive).
    """
    w = tuple(int(x) for x in v)
    if any(x != y for x, y in zip(v, w)):
        raise ValueError("primitivize expects integer entries")
    g = gcd(*w)
    if g == 0:
        raise ZeroVectorError("cannot primitivize the zero vector")
    return tuple(x // g for x in w), g


def scale_to_integer(v: Sequence) -> IntVector:
    """Clear denominators: smallest positive multiple with integer entries."""
    fracs = [Fraction(x) for x in v]
    m = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return tuple(int(f * m) for f in fracs)


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


def hnf(matrix: Sequence[Sequence[int]]) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
    """Row-style Hermite normal form.

    Args:
      matrix: m x n integer matrix (sequence of rows).

    Returns:
      (H, U) with H = U @ matrix, U unimodular (|det U| = 1), H in row
      echelon with positive pivots, zeros below each pivot, entries above a
      pivot reduced into [0, pivot), and zero rows at the bottom.
    """
    h = [list(int(x) for x in row) for row in matrix]
    m = len(h)
    n = len(h[0]) if m else 0
    if any(len(row) != n for row in h):
        raise DimensionMismatchError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        # chase entries below row r in column c to a single positive pivot
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
            u[r] = [-a for a in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def integer_kernel_basis(matrix: Sequence[Sequence[int]], ncols: Optional[int] = None) -> tuple[IntVector, ...]:
    """Lattice basis of {x in Z^n : matrix @ x = 0}.

    The kernel of an integer matrix is saturated, and the bottom rows of the
    HNF transform of the transpose are a basis of it. Pass ncols for matrices
    with zero rows, where the column count cannot be inferred.
    """
    rows = [tuple(int(x) for x in row) for row in matrix]
    if rows:
        n = len(rows[0])
    elif ncols is not None:
        n = ncols
    else:
        raise DimensionMismatchError("empty matrix needs explicit ncols")
    if not rows:
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    transpose = [tuple(row[j] for row in rows) for j in range(n)]
    h, u = hnf(transpose)
    basis = [u[i] for i in range(n) if all(x == 0 for x in h[i])]
    return tuple(basis)


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
    if m is None:
        return ()
    if not vecs:
        return ()
    complement = integer_kernel_basis(vecs)
    return integer_kernel_basis(complement, ncols=m)


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    # forward elimination to reduced row echelon; returns (rref rows, pivot cols)
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c]
        work[r] = [a * inv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(matrix: Sequence[Sequence]) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    reduced, pivots = _eliminate(rows)
    return len(pivots)


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[tuple[RatVector, tuple[RatVector, ...]]]:
    """Solve matrix @ x = rhs exactly over the rationals.

    Returns None when inconsistent, otherwise (x0, nullspace_basis) where x0
    sets every free variable to 0 and the basis spans the solution space.
    """
    rows = [list(row) for row in matrix]
    if len(rows) != len(rhs):
        raise DimensionMismatchError("rhs length does not match row count")
    if not rows:
        raise DimensionMismatchError("solve_linear needs at least one row")
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    reduced, pivots = _eliminate(aug)
    pivot_set = set(pivots)
    if n in pivot_set:
        return None
    x0 = [Fraction(0)] * n
    for row, c in zip(reduced, pivots):
        x0[c] = row[n]
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return tuple(x0), tuple(basis)


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("determinant of a non-square matrix")
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def fraction_gcd(values: Sequence[Fraction]) -> Fraction:
    """Positive generator of the group generated by the given rationals."""
    nonzero = [Fraction(v) for v in values if v != 0]
    if not nonzero:
        return Fraction(0)
    denom = lcm(*(v.denominator for v in nonzero))
    nums = [int(v * denom) for v in nonzero]
    g = 0
    for x in nums:
        g = gcd(g, x)
    return Fraction(g, denom)
