"""Exact dense linear algebra over the rationals.

Deterministic solve, RREF and nullspace run entirely in integers: rows are
scaled to integers up front, fraction-free (Bareiss) elimination reaches row
echelon form with every intermediate division exact, and an integer
back-substitution scaled by the last pivot finishes the reduction.  Each output
entry becomes one Fraction at the end, so entry growth stays polynomial and no
rational arithmetic runs inside the elimination.  Pivoting is always "first
nonzero in row order", so two runs on the same input produce identical output.
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


def _primitive_ints(ints):
    """Divide a nonzero integer vector by its gcd, signed so the first nonzero
    entry is positive."""
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def solve(A, b):
    """Exact solution of the square system A x = b, by one fraction-free
    elimination of the augmented matrix [A | b].

    Raises SingularMatrixError (carrying the rank of A) when A is singular.
    """
    A, b = list(A), list(b)
    n = len(A)
    if len(b) != n:
        raise ValueError("right-hand side length must match the matrix size")
    aug = _integer_rows([*row, t] for row, t in zip(A, b))
    if n == 0 or len(aug[0]) != n + 1:
        raise ValueError("solve requires a square nonempty matrix")
    pivots = _ff_echelon(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    d, reduced = _back_substitute(aug, pivots, [n])
    return [Fraction(row[0], d) for row in reduced]


def rref(A, ncols=None):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_columns) where rows is a list of Fraction tuples with
    zero rows dropped.  The RREF of a row space is unique, so the output is a
    canonical form of the input's row space.
    """
    m = _integer_rows(A)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = _ff_echelon(m, ncols)
    d, reduced = _back_substitute(m, pivots, range(ncols))
    return [tuple(Fraction(v, d) for v in row) for row in reduced], [c for _, c in pivots]


def rank(A, ncols=None):
    """Exact rank."""
    m = _integer_rows(A)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    return len(_ff_echelon(m, ncols))


def primitive(vec):
    """Scale a rational vector to coprime integers with positive first nonzero
    entry.  The zero vector is returned unchanged.  Entries pass the gate of
    solve, rref and nullspace: int or Fraction, else TypeError."""
    [ints] = _integer_rows([vec])
    if not any(ints):
        return tuple(Fraction(v) for v in ints)
    return _primitive_ints(ints)


def nullspace(A, ncols=None):
    """Exact basis of the right kernel of A.

    Basis vectors come from the RREF with free variables taken in column
    order, each scaled to primitive integers with positive first nonzero
    entry.  Returns an empty list iff A has full column rank.  ``ncols`` must
    be given when A has no rows.
    """
    m = _integer_rows(A)
    if ncols is None:
        if not m:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(m[0])
    pivots = _ff_echelon(m, ncols)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    # d * R gives each kernel vector in integers: d at its free column and
    # -d * R[r][f] at pivot column c_r.
    d, reduced = _back_substitute(m, pivots, free_cols)
    basis = []
    for i, f in enumerate(free_cols):
        v = [0] * ncols
        v[f] = d
        for (_, c), row in zip(pivots, reduced):
            v[c] = -row[i]
        basis.append(_primitive_ints(v))
    return basis
