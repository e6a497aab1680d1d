"""Unique inner-harmonic filling of a fixed rational border.

Forcing the stencil to vanish at every inner site turns the border into the
data of a discrete Dirichlet problem.  By the discrete maximum principle an
inner-harmonic matrix with zero border is zero, so the filling is unique.
The stencil at an inner site gives the entry above it from the entry itself,
the entry below and its two side neighbours; so the bottom two rows and the
side columns determine the matrix.  One scalar march (``_march``) does that
in integers, and ``complete`` runs it three ways: on one unit vector, once
per size, for the response matrix R(L) that takes the L - 2 unknown inner
values of the second-lowest row to the top row's inner values (R(L) and its
inverse are fixed by their first columns, see _tau; the inverse is kept per
size); on the border with the unknowns at zero, for the constant part; and,
once that inverse has matched the top row, on the values themselves, up to
the top row as a check.  Marching loses accuracy in floating point, but here
every entry is an integer: the border is scaled once by the lcm D of its
denominators, the solution's denominators add one more common multiplier d,
and the value march over d * D, top row included, is the completed matrix's
integer form up to one gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import InvariantError, SizeError
from .grid import RatMatrix, _common_denominator, _count, _fraction


@dataclass(frozen=True)
class BorderSpec:
    """The 4L - 4 border values of a size-L matrix, listed clockwise from the
    top-left display corner (top row left to right, right column downward,
    bottom row right to left, left column upward), each an int or Fraction."""

    size: int
    values: tuple

    def __post_init__(self):
        _count(self.size, 3, SizeError)
        values = tuple(_fraction(v) for v in self.values)
        if len(values) != 4 * self.size - 4:
            raise SizeError(
                f"expected {4 * self.size - 4} border values for size {self.size}, "
                f"got {len(values)}"
            )
        object.__setattr__(self, "values", values)

    def __mul__(self, scalar):
        return BorderSpec(self.size, tuple(v * scalar for v in self.values))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, BorderSpec) or other.size != self.size:
            return NotImplemented
        return BorderSpec(self.size, tuple(a + b for a, b in zip(self.values, other.values)))


def border_positions(L):
    """Display positions (i, j) of the border walk, clockwise from (1, 1)."""
    _count(L, 3, SizeError)
    top = [(1, j) for j in range(1, L + 1)]
    right = [(i, L) for i in range(2, L)]
    corner = [(L, L)]
    bottom = [(L, j) for j in range(L - 1, 0, -1)]
    left = [(i, 1) for i in range(L - 1, 1, -1)]
    return tuple(top + right + corner + bottom + left)


def extract_border(H):
    """Border of a matrix as a BorderSpec."""
    return BorderSpec(H.size, tuple(H.entry(i, j) for i, j in border_positions(H.size)))


def _march(rows, sides):
    """Extend integer display rows upward by the stencil.

    ``rows`` holds the bottom two rows, bottom first.  Each (left, right) in
    ``sides`` closes the next row up, whose inner entries the stencil at the
    inner sites of the row below gives: h[i-1][j] = 4 h[i][j] - h[i+1][j] -
    h[i][j-1] - h[i][j+1].  Returns the rows, bottom first.
    """
    for left, right in sides:
        below, here = rows[-2], rows[-1]
        inner = (4 * c - b - w - e for c, b, w, e in zip(here[1:-1], below[1:], here, here[2:]))
        rows.append([left, *inner, right])
    return rows


def _tau(column):
    """The matrix with this first column in the tau algebra of the Dirichlet
    matrix T = tridiag(-1, 4, -1) of size n (Bini and Capovani 1983).  Its
    entry (a, b), 1 <= a, b <= n, is G(|a - b|) - G(a + b) with
    G(2n + 2 - s) = G(s), so column entry a is G(a - 1) - G(a + 1); a
    constant and (-1)^s cancel in every such difference, so G(0) = G(1) = 0
    may be fixed and G(a + 1) = G(a - 1) - column[a - 1] gives the rest."""
    n = len(column)
    G = [0, 0]
    for a in range(1, n + 1):
        G.append(G[a - 1] - column[a - 1])
    G += G[n:1:-1]
    span = range(1, n + 1)
    return tuple(tuple(G[abs(a - b)] - G[a + b] for b in span) for a in span)


def _response(L):
    """The response matrix R(L): column k holds the inner values of the top
    row marched from a zero border with a 1 at inner site k of display row
    L - 1.  Each march step is h[i-1] = T h[i] - h[i+1], so R(L) =
    U_{L-2}(T/2), a Chebyshev polynomial in T, lies in the tau algebra of T
    and one march, for its first column, fixes it."""
    zero = [0] * L
    return _tau(_march([zero, [int(j == 1) for j in range(L)]], [(0, 0)] * (L - 2))[-1][1:-1])


@lru_cache(maxsize=None)
def _response_inverse(L):
    """(d, M) with M = d * R(L)^-1 in integers, made once per size.

    R(L)^-1 lies in the tau algebra with R(L), so one integer solve
    (linalg._integer_solve, which gives d > 0 and the column over its least
    common denominator) gives its first column and _tau the rest.  R(L) is
    nonsingular (see complete); a singular one would be a bug, and the solve
    raises InvariantError for it."""
    d, X = linalg._integer_solve(_response(L), [[1]] + [[0]] * (L - 3))
    return d, _tau([row[0] for row in X])


def complete(border):
    """The unique matrix with the given border whose stencil vanishes at
    every inner site.

    The n = L - 2 inner values of display row L - 1 are the unknowns.  The
    border is scaled once by D, the lcm of its denominators, and the stencil
    marches integer rows from the bottom of the display to the top (see
    _march).  The march is linear, so the top row's inner values are R x + c:
    R = R(L) is the response to each unknown alone (see _response) and c the
    march of the border with the unknowns at zero.  Matching the top border
    is the n x n system R x = t, t = top - c.  R is nonsingular: a kernel
    vector would march, from a zero border, to a nonzero inner-harmonic
    matrix with zero border, which uniqueness rules out.  R depends on L
    alone, so d * R^-1 in integers is made on the first request of each size
    and kept (_response_inverse); a request then costs O(L^2) integer
    operations (two marches and n dot products).  Cancelling the gcd g of d
    and d * R^-1 t leaves x over its least common denominator d / g, so the
    values themselves march a second time, scaled by d / g, up to the top
    row, which must come out as the border's (InvariantError otherwise); the
    marched rows over D * d / g, reduced by one gcd, are the result's stored
    integer form.
    """
    L = border.size
    D, ints = _common_denominator(border.values)
    value = dict(zip(border_positions(L), ints))
    bottom = [value[(L, j)] for j in range(1, L + 1)]
    sides = [(value[(i, 1)], value[(i, L)]) for i in range(L - 2, 0, -1)]
    c = _march([bottom, [value[(L - 1, 1)], *[0] * (L - 2), value[(L - 1, L)]]], sides)[-1]
    t = [value[(1, j)] - c[j - 1] for j in range(2, L)]
    d, M = _response_inverse(L)
    dx = [sum(m * v for m, v in zip(row, t)) for row in M]
    g = math.gcd(d, *dx)
    d, inner = d // g, [v // g for v in dx]
    # rows[k] holds d * D times display row L - k
    rows = _march(
        [[d * v for v in bottom], [d * value[(L - 1, 1)], *inner, d * value[(L - 1, L)]]],
        [(d * left, d * right) for left, right in sides],
    )
    if rows[-1] != [d * value[(1, j)] for j in range(1, L + 1)]:
        raise InvariantError("completed matrix does not march to the top border")
    return RatMatrix._from_ints(d * D, rows[::-1])
