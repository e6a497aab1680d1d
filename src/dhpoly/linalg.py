"""The one exact solve of the package: a square, nonsingular integer system.

Those are the only systems the package solves, each nonsingular: the 8 x 8
base system of the 3x3 case; each size's 5 x 5 impulse system, five
residuals spanning the polynomials its impulses lie in; bilinear's L x L
Vandermonde system at the nodes 0..L-1; and R(L), because the discrete
Dirichlet problem has a unique solution.
Fraction-free (Bareiss) elimination and an integer back-substitution keep
every step in integers: no rational arithmetic runs, and entries grow only
polynomially.  Pivoting is always "first nonzero in row order", so two runs
on the same input produce identical output.
"""

from __future__ import annotations

import math

from .errors import InvariantError


def _integer_solve(A, B):
    """(d, X) with A X = B / d, for a square int matrix A and int
    right-hand-side rows B (one row per equation).  X lists one row of ints
    per unknown; d > 0 and gcd(d, X) == 1, so d is the least common
    denominator of the solution.  The inputs are not modified.

    One Bareiss elimination of [A | B] leaves the last pivot d' = +-det(A),
    and d' X is integral by Cramer's rule, so the back-substitution

        X_k <- (d' * B_k - sum_{s > k} U[k][s] * X_s) / U[k][k]

    divides exactly; one gcd then reduces (d', X).  A column with no pivot
    means A is singular, a bug: it raises InvariantError.
    """
    n = len(A)
    m = [[*row, *rhs] for row, rhs in zip(A, B)]
    width = len(m[0])
    prev = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            raise InvariantError(f"singular {n} x {n} system: no pivot in column {c}")
        m[c], m[pr] = m[pr], m[c]
        top = m[c]
        piv = top[c]
        for row in m[c + 1:]:
            mic = row[c]
            for j in range(c + 1, width):
                row[j] = (piv * row[j] - mic * top[j]) // prev
            row[c] = 0
        prev = piv
    X = [None] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        acc = [prev * v for v in row[n:]]
        for s in range(k + 1, n):
            f = row[s]
            if f:
                acc = [a - f * v for a, v in zip(acc, X[s])]
        X[k] = [a // row[k] for a in acc]
    g = math.gcd(prev, *(v for row in X for v in row))
    if prev < 0:
        g = -g
    return prev // g, [[v // g for v in row] for row in X]
