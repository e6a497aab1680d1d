"""Exact dense linear algebra over the rationals.

Deterministic solve, RREF and nullspace run entirely in integers: rows are
scaled to integers up front, fraction-free (Bareiss) elimination reaches row
echelon form with every intermediate division exact, and an integer
back-substitution scaled by the last pivot finishes the reduction.  Each output
entry becomes one Fraction at the end, so entry growth stays polynomial and no
rational arithmetic runs inside the elimination.  Pivoting is always "first
nonzero in row order", so two runs on the same input produce identical output.

``factor`` keeps the elimination of a nonsingular square matrix, so that each
later right-hand side costs an O(n^2) fraction-free forward and back
substitution instead of an O(n^3) elimination; ``solve`` is one factor and
one such substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularMatrixError
from .grid import _common_denominator, _fraction


def _exact(values):
    """values through the one exactness gate: int entries as they are,
    anything else through grid._fraction, so strings, floats, Decimals, bools
    and int or Fraction subclasses raise TypeError."""
    return [v if type(v) is int else _fraction(v) for v in values]


def _integer_rows(A, scales=None):
    """Rows of A through the exactness gate (_exact) and scaled each by the
    lcm of its denominators, in one pass; row scaling preserves solution sets
    and row spaces.  When ``scales`` is a list, each row's lcm is appended to
    it.  Ragged rows raise ValueError."""
    out = []
    for row in A:
        D, ints = _common_denominator(_exact(row))
        out.append(ints)
        if scales is not None:
            scales.append(D)
    if any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def _ff_echelon(m, pivot_cols, steps=None):
    """Fraction-free row echelon over the integers, in place.

    Only columns in ``pivot_cols`` are eligible as pivots; all columns are
    updated.  Returns the list of (row, col) pivots.  When ``steps`` is a
    list, each pivot appends (the row swapped into the pivot row, the pivot,
    the previous pivot, the entries below the pivot before elimination): all
    that Factorization.solve needs to replay the step on another column.
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
        if steps is not None:
            steps.append((pr, piv, prev, tuple(m[i][c] for i in range(r + 1, nrows))))
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


@dataclass(frozen=True)
class Factorization:
    """Fraction-free LU factorisation of a nonsingular square matrix A, made
    by factor.  ``scales`` holds the lcm each row of A was scaled by,
    ``echelon`` the upper-triangular integer form _ff_echelon left, and
    ``steps`` each elimination step as _ff_echelon records it."""

    scales: tuple
    echelon: tuple
    steps: tuple

    def solve(self, b):
        """Exact solution of A x = b.

        The scaled b, over one common denominator D, goes through the
        integer operations it would have gone through as an augmented column
        of the elimination (forward substitution), then through the
        back-substitution rref and nullspace use; each entry of x becomes
        one Fraction at the end.  b passes the exactness gate, so a float,
        bool or string raises TypeError; a length other than A's size raises
        ValueError.
        """
        b = _exact(b)
        n = len(self.scales)
        if len(b) != n:
            raise ValueError("right-hand side length must match the matrix size")
        D, y = _common_denominator([s * v for s, v in zip(self.scales, b)])
        for r, (swap, piv, prev, below) in enumerate(self.steps):
            if swap != r:
                y[r], y[swap] = y[swap], y[r]
            t = y[r]
            for i, mic in enumerate(below, r + 1):
                y[i] = (piv * y[i] - mic * t) // prev
        augmented = [(*row, t) for row, t in zip(self.echelon, y)]
        d, reduced = _back_substitute(augmented, [(k, k) for k in range(n)], [n])
        den = d * D
        return [Fraction(row[0], den) for row in reduced]


def factor(A):
    """Factorisation of the nonsingular square matrix A, for solving A x = b
    for many b (see Factorization.solve).

    One fraction-free elimination of A, recorded step by step.  A is not
    modified.  Entries pass the exactness gate (TypeError otherwise); a
    matrix that is not square and nonempty raises ValueError, and a singular
    one SingularMatrixError carrying the rank of A.
    """
    scales = []
    m = _integer_rows(A, scales)
    n = len(m)
    if n == 0 or len(m[0]) != n:
        raise ValueError("a square nonempty matrix is required")
    steps = []
    pivots = _ff_echelon(m, range(n), steps)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    return Factorization(tuple(scales), tuple(map(tuple, m)), tuple(steps))


def solve(A, b):
    """Exact solution of the square system A x = b: factor(A).solve(b).

    Raises SingularMatrixError (carrying the rank of A) when A is singular.
    """
    return factor(A).solve(b)


def rref(A, ncols=None):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_columns) where rows is a list of Fraction tuples with
    zero rows dropped.  The RREF of a row space is unique, so the output is a
    canonical form of the input's row space.
    """
    m = _integer_rows(A)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = _ff_echelon(m, range(ncols))
    d, reduced = _back_substitute(m, pivots, range(ncols))
    return [tuple(Fraction(v, d) for v in row) for row in reduced], [c for _, c in pivots]


def rank(A, ncols=None):
    """Exact rank."""
    m = _integer_rows(A)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    return len(_ff_echelon(m, range(ncols)))


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
    pivots = _ff_echelon(m, range(ncols))
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
