"""Unique inner-harmonic filling of a fixed rational border.

Forcing the stencil to vanish at every inner site turns the border into the
data of a discrete Dirichlet problem.  By the discrete maximum principle an
inner-harmonic matrix with zero border is zero, so the filling is unique.
The stencil at an inner site gives the entry above it from the entry itself,
the entry below and its two side neighbours; so the bottom two rows and the
side columns determine the matrix.  ``complete`` therefore marches the
stencil upward from the L - 2 unknown inner values of the second-lowest row
and solves one (L-2) x (L-2) system against the top row.  Marching loses
accuracy in floating point, but here it runs in integers: the border is
scaled once by the lcm D of its denominators, the solution's denominators
add one more common factor d, and after a second, plain march of the values
over d * D each entry becomes one Fraction at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import SizeError
from .grid import RatMatrix, _fraction


@dataclass(frozen=True)
class BorderSpec:
    """The 4L - 4 border values of a size-L matrix, listed clockwise from the
    top-left display corner (top row left to right, right column downward,
    bottom row right to left, left column upward)."""

    size: int
    values: tuple

    def __post_init__(self):
        if self.size < 3:
            raise SizeError("border completion needs size at least 3")
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
    if L < 3:
        raise SizeError("border walk needs size at least 3")
    top = [(1, j) for j in range(1, L + 1)]
    right = [(i, L) for i in range(2, L)]
    corner = [(L, L)]
    bottom = [(L, j) for j in range(L - 1, 0, -1)]
    left = [(i, 1) for i in range(L - 1, 1, -1)]
    return tuple(top + right + corner + bottom + left)


def extract_border(H):
    """Border of a matrix as a BorderSpec."""
    return BorderSpec(H.size, tuple(H.entry(i, j) for i, j in border_positions(H.size)))


def complete(border):
    """The unique matrix with the given border whose stencil vanishes at
    every inner site.

    The n = L - 2 inner values of display row L - 1 are the unknowns.  The
    border is scaled once by D, the lcm of its denominators, so every entry
    is carried as an integer affine form in D times the unknowns: n
    coefficients, then a constant.  The stencil at inner site (i, j) gives
    the entry above it, h[i-1][j] = 4 h[i][j] - h[i+1][j] - h[i][j-1] -
    h[i][j+1], so the forms march from the bottom of the display to the top,
    and matching them with the top border is one n x n system.  That system
    is nonsingular: a kernel vector would march, from a zero border, to a
    nonzero inner-harmonic matrix with zero border, which uniqueness rules
    out.  With d the lcm of the solution's denominators, d * D times every
    entry is an integer, so the values themselves march upward a second
    time in integers, four operations per entry, and each entry below the
    top row becomes one Fraction over d * D at the end.
    """
    L = border.size
    n = L - 2
    D = math.lcm(*(v.denominator for v in border.values))
    value = {
        pos: v.numerator * (D // v.denominator)
        for pos, v in zip(border_positions(L), border.values)
    }

    def known(v):
        return [0] * n + [v]

    def side(i, row):
        return [known(value[(i, 1)]), *row, known(value[(i, L)])]

    unknowns = [[int(k == m) for m in range(n)] + [0] for k in range(n)]
    below = [known(value[(L, j)]) for j in range(1, L + 1)]
    here = side(L - 1, unknowns)
    for i in range(L - 1, 1, -1):
        above = [
            [4 * c - b - w - e for c, b, w, e in zip(here[j], below[j], here[j - 1], here[j + 1])]
            for j in range(1, L - 1)
        ]
        below, here = here, side(i - 1, above) if i > 2 else above
    x = linalg.solve([f[:n] for f in here], [value[(1, j)] - f[n] for j, f in enumerate(here, 2)])

    d = math.lcm(*(v.denominator for v in x))
    inner = (v.numerator * (d // v.denominator) for v in x)
    # rows[k] holds d * D times display row L - k, down to row 2
    rows = [
        [d * value[(L, j)] for j in range(1, L + 1)],
        [d * value[(L - 1, 1)], *inner, d * value[(L - 1, L)]],
    ]
    for i in range(L - 1, 2, -1):
        below, here = rows[-2], rows[-1]
        rows.append([
            d * value[(i - 1, 1)],
            *(4 * here[j] - below[j] - here[j - 1] - here[j + 1] for j in range(1, L - 1)),
            d * value[(i - 1, L)],
        ])
    den = d * D
    grid = [border.values[:L]]
    grid += [[Fraction(v, den) for v in row] for row in reversed(rows)]
    return RatMatrix(grid)
