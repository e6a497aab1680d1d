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
denominator (_common_denominator), the stencil on the integer rows of a
matrix (_stencil) and the one test that a polynomial matches lattice
values (_matches), which reads the restriction of a polynomial to the
lattice, in integers row by row, from poly's BiPoly._lattice_rows.
"""

from __future__ import annotations

import itertools
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
    """Immutable square matrix of exact rationals in display order.

    Its one stored form is the canonical integer form _integer = (D, rows):
    D is the lcm of the entry denominators and rows the entries times D, as
    ints.  The Fraction rows are kept when given, else built on first read.
    """

    __slots__ = ("_rows", "_integer")

    def __init__(self, rows):
        mat = tuple(tuple(_fraction(v) for v in row) for row in rows)
        if not mat:
            raise SizeError("matrix must be nonempty")
        if any(len(row) != len(mat) for row in mat):
            raise SizeError("matrix must be square")
        den, ints = _common_denominator([v for row in mat for v in row])
        self._rows = mat
        self._integer = den, tuple(zip(*[iter(ints)] * len(mat)))

    @classmethod
    def _from_ints(cls, den, rows):
        """rows / den for den > 0 and a square, nonempty sequence of int
        rows, reduced by one gcd to the canonical integer form.  The
        Fraction rows are built on first read."""
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g != 1:
            den //= g
            rows = [[v // g for v in row] for row in rows]
        out = cls.__new__(cls)
        out._rows = None
        out._integer = den, tuple(map(tuple, rows))
        return out

    @classmethod
    def zero(cls, L):
        L = _count(L, 1, SizeError)
        return cls._from_ints(1, [[0] * L] * L)

    @classmethod
    def identity(cls, L):
        L = _count(L, 1, SizeError)
        return cls._from_ints(1, [[int(i == j) for j in range(L)] for i in range(L)])

    @property
    def size(self):
        return len(self._integer[1])

    @property
    def rows(self):
        if self._rows is None:
            den, ints = self._integer
            self._rows = tuple(tuple(Fraction(v, den) for v in row) for row in ints)
        return self._rows

    def entry(self, i, j):
        """Entry at display position (i, j), 1-based from the top-left."""
        rows = self.rows
        matrix_to_lattice(i, j, len(rows))
        return rows[i - 1][j - 1]

    def at(self, x, y):
        """Value of the corresponding lattice function at (x, y): the entry
        at lattice_to_matrix(x, y, size)."""
        i, j = lattice_to_matrix(x, y, self.size)
        return self.rows[i - 1][j - 1]

    def lower_left_minor(self, m):
        """The m x m block in the lower-left corner of the display."""
        den, rows = self._integer
        if _count(m, 1, SizeError) > len(rows):
            raise SizeError(f"minor size {m} outside 1..{len(rows)}")
        return RatMatrix._from_ints(den, [row[:m] for row in rows[-m:]])

    def to_lists(self):
        return [list(row) for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self._integer == other._integer

    def __hash__(self):
        return hash(self._integer)

    def __repr__(self):
        body = "; ".join(",".join(str(v) for v in row) for row in self.rows)
        return f"RatMatrix({self.size}x{self.size}: {body})"


def matrix_to_lattice(i, j, L):
    """Lattice point carrying display entry (i, j) of a size-L matrix."""
    L = _count(L, 1, SizeError)
    if not (type(i) is int and type(j) is int):
        raise TypeError(f"position ({i!r}, {j!r}) is not a pair of ints")
    if not (1 <= i <= L and 1 <= j <= L):
        raise IndexError(f"position ({i}, {j}) outside a size-{L} matrix")
    return (j - 1, L - i)


def lattice_to_matrix(x, y, L):
    """Display position carrying the lattice value at (x, y); inverse of
    matrix_to_lattice."""
    L = _count(L, 1, SizeError)
    if not (type(x) is int and type(y) is int):
        raise TypeError(f"point ({x!r}, {y!r}) is not a pair of ints")
    if not (0 <= x < L and 0 <= y < L):
        raise IndexError(f"point ({x}, {y}) outside the size-{L} lattice")
    return (L - y, x + 1)


def _stencil(rows):
    """Five-point stencil values at the inner sites of square display rows
    of ints, (L-2) lists of L-2.  The correspondence maps display neighbors
    to lattice neighbors, so the stencil is taken in display coordinates."""
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
    den, rows = H._integer
    return RatMatrix._from_ints(den, _stencil(rows))


def is_inner_harmonic(H):
    """True iff the stencil vanishes at every inner site, tested on the
    integer rows of H over their common denominator.  Sizes below 3 have no
    inner sites and are rejected rather than vacuously accepted."""
    return not any(any(row) for row in _stencil(H._integer[1]))


def evaluate_on_lattice(P, L):
    """Restrict a polynomial to the size-L lattice, as a matrix."""
    L = _count(L, 1, SizeError)
    return RatMatrix._from_ints(P._den, list(P._lattice_rows(L)))


def _matches(P, den, rows):
    """True iff P agrees on the size-len(rows) lattice with the display rows
    of ints ``rows`` over ``den`` > 0, compared cross-multiplied with P's
    integer lattice rows, so neither side need be in lowest terms."""
    D = P._den
    return all(
        [n * den for n in got] == [v * D for v in want]
        for got, want in zip(P._lattice_rows(len(rows)), rows)
    )


def interpolates(P, H):
    """True iff P agrees with H at every lattice point, in integers."""
    return _matches(P, *H._integer)
