"""Exact dense linear algebra over the rationals: one square solve.

It runs entirely in integers: rows are scaled to integers up front,
fraction-free (Bareiss) elimination reaches row echelon form with every
intermediate division exact, and an integer back-substitution scaled by the
last pivot finishes the reduction.  _integer_solve returns the solution of
A X = B for several right-hand sides at once as integers over one common
denominator, so entry growth stays polynomial and no rational arithmetic
runs inside the elimination; solve turns one such column into Fractions.
Pivoting is always "first nonzero in row order", so two runs on the same
input produce identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularMatrixError
from .grid import _common_denominator, _fraction


def _integer_rows(A):
    """Rows of A through the one exactness gate and scaled each by the lcm of
    its denominators, in one pass; row scaling preserves solution sets and row
    spaces.  int entries are taken as they are, anything else goes through
    grid._fraction, so strings, floats, Decimals, bools and int or Fraction
    subclasses raise TypeError.  Ragged rows raise ValueError."""
    out = []
    for row in A:
        out.append(_common_denominator([v if type(v) is int else _fraction(v) for v in row])[1])
    if any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def _ff_echelon(m, ncols):
    """Fraction-free row echelon over the integers, in place.

    Only the first ``ncols`` columns are eligible as pivots.  Returns the list
    of (row, col) pivots.  Below each pivot only the columns right of it are
    updated: left of it those rows are already zero, since every earlier
    column is either cleared below its pivot or was zero there when skipped.
    """
    nrows = len(m)
    width = len(m[0]) if m else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            mic = row[c]
            for j in range(c + 1, width):
                row[j] = (piv * row[j] - mic * top[j]) // prev
            row[c] = 0
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def _back_substitute(m, pivots, cols):
    """Integer back-substitution over the echelon form left by _ff_echelon.

    Returns (d, rows).  d is the last pivot, the Bareiss determinant of the
    pivot minor (1 when there are no pivots), and rows[k] lists
    d * R[k][j] for j in ``cols``, where R is the reduced row echelon form.
    By Cramer's rule every entry of d * R is an integer, so working from the
    last pivot up,

        row_k <- (d * row_k - sum_{s > k} row_k[c_s] * row_s) / row_k[c_k]

    divides exactly at every step.
    """
    if not pivots:
        return 1, []
    d = m[pivots[-1][0]][pivots[-1][1]]
    out = [None] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = m[pivots[k][0]]
        acc = [d * row[j] for j in cols]
        for s in range(k + 1, len(pivots)):
            f = row[pivots[s][1]]
            if f:
                acc = [a - f * v for a, v in zip(acc, out[s])]
        p = row[pivots[k][1]]
        out[k] = [a // p for a in acc]
    return d, out


def _integer_solve(A, B):
    """(d, X) with A X = B / d: the solution of the square system A X = B for
    the right-hand-side columns of B (one row per equation), by one
    fraction-free elimination of [A | B].  X lists one row of ints per
    unknown; d > 0 and gcd(d, X) == 1, so d is the least common denominator
    of the solution.

    Raises SingularMatrixError (carrying the rank of A) when A is singular.
    """
    A, B = [list(row) for row in A], list(B)
    n = len(A)
    if len(B) != n:
        raise ValueError("right-hand side length must match the matrix size")
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("solve requires a square nonempty matrix")
    aug = _integer_rows(row + list(rhs) for row, rhs in zip(A, B))
    pivots = _ff_echelon(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    d, X = _back_substitute(aug, pivots, range(n, len(aug[0])))
    g = math.gcd(d, *(v for row in X for v in row))
    if d < 0:
        g = -g
    return d // g, [[v // g for v in row] for row in X]


def solve(A, b):
    """Exact solution of the square system A x = b, as Fractions (see
    _integer_solve).

    Raises SingularMatrixError (carrying the rank of A) when A is singular.
    """
    d, X = _integer_solve(A, [[t] for t in b])
    return [Fraction(row[0], d) for row in X]
