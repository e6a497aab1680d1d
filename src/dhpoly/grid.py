"""Square lattice semantics: the correspondence between matrices in display
order and functions on the lattice, the five-point operator on matrices, and
the interpolation predicate.

A size-L matrix H (row 1 at the top, as printed) corresponds to the function
h on the lattice {0..L-1}^2 via h(j-1, L-i) = H[i,j]: the lower-left corner
of the display maps to the origin.  Both directions are provided and all
other operations read matrices through this correspondence.

It also holds what the other modules share: the exactness gate for values
(the types _RATIONAL and the coercion _fraction), the count gate for sizes,
degrees and step counts (_count), the one scaling to integers over a common
denominator (_common_denominator) and the stencil on matrices (_stencil),
applied to Fraction and integer rows alike.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SizeError

#: The exact types, matched exactly: no bool, subclass, numpy int or text.
_RATIONAL = (int, Fraction)


def _fraction(value):
    """A Fraction as it is, an int as a Fraction; TypeError for the rest."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"{type(value).__name__} {value!r} is not an int or Fraction")


def _count(value, least, error):
    """value if it is an int, by exact type, and at least ``least``; TypeError
    for any other type, the caller's ``error`` class below the bound."""
    if type(value) is not int:
        raise TypeError(f"{type(value).__name__} {value!r} is not an int count")
    if value < least:
        raise error(f"{value} is below the minimum {least}")
    return value


def _common_denominator(values):
    """(D, ints) for a sequence of Fractions or ints: D is the lcm of their
    denominators and ints lists each value times D."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


class RatMatrix:
    """Immutable square matrix of exact rationals in display order."""

    __slots__ = ("_rows", "_integer")

    def __init__(self, rows):
        mat = tuple(tuple(_fraction(v) for v in row) for row in rows)
        if not mat:
            raise SizeError("matrix must be nonempty")
        if any(len(row) != len(mat) for row in mat):
            raise SizeError("matrix must be square")
        self._rows = mat
        self._integer = None

    @classmethod
    def zero(cls, L):
        L = _count(L, 1, SizeError)
        return cls([[0] * L for _ in range(L)])

    @classmethod
    def identity(cls, L):
        L = _count(L, 1, SizeError)
        return cls([[1 if i == j else 0 for j in range(L)] for i in range(L)])

    @property
    def size(self):
        return len(self._rows)

    @property
    def rows(self):
        return self._rows

    def entry(self, i, j):
        """Entry at display position (i, j), 1-based from the top-left."""
        L = self.size
        if not (1 <= i <= L and 1 <= j <= L):
            raise IndexError(f"position ({i}, {j}) outside a size-{L} matrix")
        return self._rows[i - 1][j - 1]

    def at(self, x, y):
        """Value of the corresponding lattice function at (x, y)."""
        i, j = lattice_to_matrix(x, y, self.size)
        return self._rows[i - 1][j - 1]

    def lower_left_minor(self, m):
        """The m x m block in the lower-left corner of the display."""
        L = self.size
        if _count(m, 1, SizeError) > L:
            raise SizeError(f"minor size {m} outside 1..{L}")
        return RatMatrix([row[:m] for row in self._rows[L - m:]])

    def _integer_form(self):
        """(D, rows): D is the lcm of the entry denominators and rows holds
        the entries times D, as ints.  Built on first use and kept."""
        if self._integer is None:
            den, ints = _common_denominator([v for row in self._rows for v in row])
            self._integer = den, tuple(zip(*[iter(ints)] * len(self._rows)))
        return self._integer

    def to_lists(self):
        return [list(row) for row in self._rows]

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(",".join(str(v) for v in row) for row in self._rows)
        return f"RatMatrix({self.size}x{self.size}: {body})"


def matrix_to_lattice(i, j, L):
    """Lattice point carrying display entry (i, j) of a size-L matrix."""
    if not (1 <= i <= L and 1 <= j <= L):
        raise IndexError(f"position ({i}, {j}) outside a size-{L} matrix")
    return (j - 1, L - i)


def lattice_to_matrix(x, y, L):
    """Display position carrying the lattice value at (x, y); inverse of
    matrix_to_lattice."""
    if not (0 <= x <= L - 1 and 0 <= y <= L - 1):
        raise IndexError(f"point ({x}, {y}) outside the size-{L} lattice")
    return (L - y, x + 1)


def _stencil(rows):
    """Five-point stencil values at the inner sites of square display rows,
    (L-2) lists of L-2.  The correspondence maps display neighbors to lattice
    neighbors, so the stencil is taken directly in display coordinates."""
    L = len(rows)
    if L < 3:
        raise SizeError("the stencil needs at least one inner site (size > 2)")
    return [
        [
            4 * rows[i][j] - rows[i - 1][j] - rows[i + 1][j] - rows[i][j - 1] - rows[i][j + 1]
            for j in range(1, L - 1)
        ]
        for i in range(1, L - 1)
    ]


def discrete_laplacian_matrix(H):
    """Five-point stencil values at the inner sites, as an (L-2) x (L-2)
    matrix under the same display convention."""
    return RatMatrix(_stencil(H.rows))


def is_inner_harmonic(H):
    """True iff the stencil vanishes at every inner site, tested on the
    integer rows of H over their common denominator.  Sizes below 3 have no
    inner sites and are rejected rather than vacuously accepted."""
    return not any(any(row) for row in _stencil(H._integer_form()[1]))


def evaluate_on_lattice(P, L):
    """Restrict a polynomial to the size-L lattice, as a matrix."""
    L = _count(L, 1, SizeError)
    return RatMatrix([[P.evaluate(j - 1, L - i) for j in range(1, L + 1)] for i in range(1, L + 1)])


def interpolates(P, H):
    """True iff P agrees with H at every lattice point (exact equality)."""
    return evaluate_on_lattice(P, H.size) == H
