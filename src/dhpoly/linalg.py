"""Exact dense linear algebra over the rationals.

Deterministic solve and nullspace built on fraction-free (Bareiss) elimination:
rows are scaled to integers up front and every intermediate division is exact,
which keeps entry growth polynomial instead of the blowup naive rational
elimination suffers.  Pivoting is always "first nonzero in row order", so two
runs on the same input produce identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularMatrixError
from .grid import _fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction_rows(A):
    rows = [[_fraction(v) for v in row] for row in A]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators; row scaling preserves
    solution sets and row spaces."""
    out = []
    for row in rows:
        mult = math.lcm(*(v.denominator for v in row)) if row else 1
        out.append([int(v * mult) for v in row])
    return out


def _ff_echelon(m, pivot_cols):
    """Fraction-free row echelon over the integers, in place.

    Only columns in ``pivot_cols`` are eligible as pivots; all columns are
    updated.  Returns the list of (row, col) pivots.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    prev = 1
    r = 0
    for c in pivot_cols:
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(ncols):
                if j == c:
                    continue
                m[i][j] = (piv * m[i][j] - mic * m[r][j]) // prev
            m[i][c] = 0
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def solve(A, b):
    """Exact solution of the square system A x = b.

    Raises SingularMatrixError (carrying the rank of A) when A is singular.
    """
    rows = _fraction_rows(A)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("solve requires a square nonempty matrix")
    rhs = [_fraction(v) for v in b]
    if len(rhs) != n:
        raise ValueError("right-hand side length must match the matrix size")

    aug = _integer_rows([row + [t] for row, t in zip(rows, rhs)])
    pivots = _ff_echelon(aug, range(n))
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))

    x = [_ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x


def rref(A, ncols=None):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_columns) where rows is a list of Fraction tuples with
    zero rows dropped.  The RREF of a row space is unique, so the output is a
    canonical form of the input's row space.
    """
    rows = _fraction_rows(A)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = _integer_rows(rows)
    pivots = _ff_echelon(m, range(ncols))

    reduced = [[Fraction(v) for v in row] for row in m]
    for r, c in reversed(pivots):
        piv = reduced[r][c]
        reduced[r] = [v / piv for v in reduced[r]]
        for rr in range(r):
            factor = reduced[rr][c]
            if factor:
                reduced[rr] = [u - factor * v for u, v in zip(reduced[rr], reduced[r])]
    kept = [tuple(reduced[r]) for r, _ in pivots]
    return kept, [c for _, c in pivots]


def rank(A, ncols=None):
    """Exact rank."""
    rows = _fraction_rows(A)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = _integer_rows(rows)
    return len(_ff_echelon(m, range(ncols)))


def primitive(vec):
    """Scale a rational vector to coprime integers with positive first nonzero
    entry.  The zero vector is returned unchanged."""
    vec = [Fraction(v) for v in vec]
    nonzero = [v for v in vec if v]
    if not nonzero:
        return tuple(vec)
    mult = math.lcm(*(v.denominator for v in nonzero))
    ints = [int(v * mult) for v in vec]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def nullspace(A, ncols=None):
    """Exact basis of the right kernel of A.

    Basis vectors come from the RREF with free variables taken in column
    order, each scaled to primitive integers with positive first nonzero
    entry.  Returns an empty list iff A has full column rank.  ``ncols`` must
    be given when A has no rows.
    """
    rows = _fraction_rows(A)
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(rows[0])
    reduced, pivot_cols = rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in set(pivot_cols)]
    basis = []
    for f in free_cols:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for r, c in zip(range(len(pivot_cols)), pivot_cols):
            v[c] = -reduced[r][f]
        basis.append(primitive(v))
    return basis
