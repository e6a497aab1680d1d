"""Deterministic parallel toppling dynamics on a torus and the conserved
weighted-sum functionals.

Every site holding at least 4 grains topples simultaneously, sending one
grain to each of its four torus neighbors.  Periodic boundaries mean no
grain ever leaves, so total height is conserved exactly; the interest is in
the finer conserved quantities phi(f) = sum of f-weighted heights mod L,
which stay constant along orbits when the weight matrix is inner-harmonic
(demonstrated empirically here for the classic weights i, j and i^2 - j^2).

Both run in integers.  ``step`` moves grains only at the toppling sites.
``phi`` is one integer dot product of the heights with the integer
weights (the weight matrix's cached integer form), reduced mod L; it
rejects non-integer weights.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SizeError
from .grid import RatMatrix, _count, evaluate_on_lattice, lattice_to_matrix
from .poly import BiPoly

THRESHOLD = 4


@dataclass(frozen=True)
class SandConfig:
    """Heights on a size-L torus, non-negative ints in display order."""

    heights: tuple

    def __post_init__(self):
        rows = tuple(tuple(h for h in row) for row in self.heights)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise SizeError("height grid must be square and nonempty")
        if any(type(h) is not int for row in rows for h in row):
            raise TypeError("heights must be ints")
        if min(map(min, rows)) < 0:
            raise ValueError("heights must be nonnegative")
        object.__setattr__(self, "heights", rows)

    @classmethod
    def _from_heights(cls, heights):
        """Wrap a square, nonempty tuple of tuples of non-negative ints
        without checking it again."""
        out = cls.__new__(cls)
        object.__setattr__(out, "heights", heights)
        return out

    @property
    def size(self):
        return len(self.heights)

    @property
    def total(self):
        return sum(sum(row) for row in self.heights)

    def at(self, x, y):
        i, j = lattice_to_matrix(x, y, self.size)
        return self.heights[i - 1][j - 1]


def step(config):
    """One parallel update: every site at or above the threshold loses 4
    grains and each of its four torus neighbors gains one.

    All toppling sites are read from the old heights before any grain
    moves, and grains move only at and next to them.  Negative indices wrap,
    so r - 1 and c - 1 need no modulus; on a size-1 or size-2 torus one
    neighbor receives more than one grain.  A toppling site keeps a
    non-negative height, so the result skips SandConfig's validation.
    """
    h = config.heights
    L = len(h)
    toppling = [
        (r, c)
        for r, row in enumerate(h)
        if max(row) >= THRESHOLD
        for c, v in enumerate(row)
        if v >= THRESHOLD
    ]
    new = [list(row) for row in h]
    for r, c in toppling:
        new[r][c] -= 4
        new[r - 1][c] += 1
        new[(r + 1) % L][c] += 1
        new[r][c - 1] += 1
        new[r][(c + 1) % L] += 1
    return SandConfig._from_heights(tuple(map(tuple, new)))


def _orbit(config, steps):
    """Yield config, step(config), ..., step^steps(config) one at a time, so
    a caller that only reads each configuration holds one at once."""
    _count(steps, 0, PreconditionError)
    yield config
    for _ in range(steps):
        config = step(config)
        yield config


def orbit(config, steps):
    """The configurations config, step(config), ..., step^steps(config)."""
    return list(_orbit(config, steps))


def phi(f, config):
    """Weighted height sum, reduced mod L to the representative in [0, L).

    The weight matrix and the heights are paired entry by entry, i.e. both
    are read through the same display/lattice correspondence.  The result
    is the residue of the integer dot product, as a Fraction.

    The weights must be integers, or PreconditionError is raised: the
    toppling invariants mod L are statements about integer weights (Dhar
    1990), and a rational sum has no residue mod L.
    """
    if f.size != config.size:
        raise PreconditionError("weight matrix and configuration sizes differ")
    den, rows = f._integer
    if den != 1:
        raise PreconditionError("weights must be integers for a residue mod L")
    total = sum(sum(map(operator.mul, wrow, hrow)) for wrow, hrow in zip(rows, config.heights))
    return Fraction(total % config.size)


def check_conservation(f, config, steps):
    """True iff phi(f) is constant along the orbit of the given length."""
    return len({phi(f, c) for c in _orbit(config, steps)}) == 1


def standard_gf(L, name):
    """The classic conserved weight matrices: first lattice coordinate ("i"),
    second lattice coordinate ("j"), or their squared difference ("i2-j2")."""
    polys = {
        "i": BiPoly.monomial(1, 0),
        "j": BiPoly.monomial(0, 1),
        "i2-j2": BiPoly.monomial(2, 0) - BiPoly.monomial(0, 2),
    }
    if name not in polys:
        raise ValueError(f"unknown weight name {name!r}; expected one of {sorted(polys)}")
    return evaluate_on_lattice(polys[name], L)


def random_config(L, seed, max_height=4):
    """Seeded uniform random heights in 0..max_height (mean 2 by default).

    Each height is randint(0, max_height).  For a plain random.Random it is
    drawn as randint draws it in CPython's random module: k = n.bit_length()
    random bits, redrawn until below n = max_height + 1, so the heights and
    the generator's state after them are randint's, with less work per
    draw.  A subclass may draw otherwise (randint uses random() when only
    that is overridden), so its randint is called."""
    L, max_height = _count(L, 1, SizeError), _count(max_height, 0, ValueError)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if type(rng) is not random.Random:
        heights = (tuple(rng.randint(0, max_height) for _ in range(L)) for _ in range(L))
        return SandConfig(tuple(heights))
    n = max_height + 1
    k, draw = n.bit_length(), rng.getrandbits
    rows = []
    for _ in range(L):
        row = []
        for _ in range(L):
            h = draw(k)
            while h >= n:
                h = draw(k)
            row.append(h)
        rows.append(tuple(row))
    return SandConfig(tuple(rows))
