"""Unique inner-harmonic filling of a fixed rational border.

Forcing the stencil to vanish at every inner site turns the border into the
data of a discrete Dirichlet problem.  By the discrete maximum principle an
inner-harmonic matrix with zero border is zero, so the filling is unique.
The stencil at an inner site gives the entry above it from the entry itself,
the entry below and its two side neighbours; so the bottom two rows and the
side columns determine the matrix.  ``complete`` therefore marches the
stencil upward from the L - 2 unknown inner values of the second-lowest row
and solves one (L-2) x (L-2) system against the top row.  Marching loses
accuracy in floating point, but here every value is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The n = L - 2 inner values of display row L - 1 are the unknowns.  Every
    entry is carried as an affine form in them: n integer coefficients, then a
    rational constant.  The stencil at inner site (i, j) gives the entry above
    it, h[i-1][j] = 4 h[i][j] - h[i+1][j] - h[i][j-1] - h[i][j+1], so the
    forms march from the bottom of the display to the top, and matching them
    with the top border is one n x n system.  That system is nonsingular: a
    kernel vector would march, from a zero border, to a nonzero inner-harmonic
    matrix with zero border, which uniqueness rules out.
    """
    L = border.size
    n = L - 2
    value = dict(zip(border_positions(L), border.values))

    def known(v):
        return [0] * n + [v]

    def side(i, row):
        return [known(value[(i, 1)]), *row, known(value[(i, L)])]

    unknowns = [[int(k == m) for m in range(n)] + [0] for k in range(n)]
    # rows[k] holds display row L - k as forms; the top row is matched, not kept
    rows = [[known(value[(L, j)]) for j in range(1, L + 1)], side(L - 1, unknowns)]
    for i in range(L - 1, 1, -1):
        below, here = rows[-2], rows[-1]
        above = [
            [4 * c - b - w - e for c, b, w, e in zip(here[j], below[j], here[j - 1], here[j + 1])]
            for j in range(1, L - 1)
        ]
        rows.append(side(i - 1, above) if i > 2 else above)
    top = rows.pop()
    x = linalg.solve([f[:n] for f in top], [value[(1, j)] - f[n] for j, f in enumerate(top, 2)])
    x = [*x, 1]
    grid = [[value[(1, j)] for j in range(1, L + 1)]]
    grid += [[sum(c * v for c, v in zip(f, x)) for f in row] for row in reversed(rows)]
    return RatMatrix(grid)
