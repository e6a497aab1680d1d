"""Deterministic parallel toppling dynamics on a torus and the conserved
weighted-sum functionals.

Every site holding at least 4 grains topples simultaneously, sending one
grain to each of its four torus neighbors.  Periodic boundaries mean no
grain ever leaves, so total height is conserved exactly; the interest is in
the finer conserved quantities phi(f) = sum of f-weighted heights mod L,
which stay constant along orbits when the weight matrix is inner-harmonic
(demonstrated empirically here for the classic weights i, j and i^2 - j^2).

Both run in integers.  One toppling march (``_topplings``) drives every
orbit: it keeps the heights in one flat list, scans all L^2 sites for the
first update and afterwards only the sites the previous update changed:
its toppling sites and the torus neighbors it brought to the threshold,
since no other height can have reached it.  So an update costs in
proportion to its topplings, not to L^2.  ``phi`` is one integer dot
product of the heights with the integer weights (the weight matrix's
cached integer form), reduced mod L; it rejects non-integer weights.
Along an orbit (``_weighted_sums``) only phi_0 takes that dot product:
each update adds, at each toppling site, the torus Laplacian of the
weights there, which is exactly the sum of the weights times the height
changes.
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


def _topplings(heights, L, steps):
    """Apply ``steps`` parallel updates to ``heights``, the flat row-major
    list of a size-L torus's heights, in place; after each update yield the
    flat indices of the sites that toppled in it.

    Every site at or above the threshold loses 4 grains and each of its four
    torus neighbors gains one; all toppling sites are read before any grain
    moves.  The first update scans every site.  Each later one scans only
    the sites that toppled in the previous update and the neighbors that
    reached the threshold in it: no other site changed, and a neighbor that
    did not topple only gains grains, so it ends at or above the threshold
    only if it reached it.  On a size-1 or size-2 torus one neighbor
    receives more than one grain.
    """
    n = L * L
    candidates = range(n)
    for _ in range(steps):
        toppling = [s for s in candidates if heights[s] >= THRESHOLD]
        candidates = set(toppling)
        for s in toppling:
            c = s % L
            row = s - c
            heights[s] -= 4
            for t in ((s - L) % n, (s + L) % n, row + (c - 1) % L, row + (c + 1) % L):
                heights[t] += 1
                if heights[t] >= THRESHOLD:
                    candidates.add(t)
        yield toppling


def _orbit(config, steps):
    """Yield config, step(config), ..., step^steps(config) one at a time, so
    a caller that only reads each configuration holds one at once.  A
    toppling site keeps a non-negative height, so each configuration skips
    SandConfig's validation."""
    _count(steps, 0, PreconditionError)
    yield config
    L = config.size
    heights = [h for row in config.heights for h in row]
    for _ in _topplings(heights, L, steps):
        rows = tuple(tuple(heights[r : r + L]) for r in range(0, L * L, L))
        yield SandConfig._from_heights(rows)


def step(config):
    """One parallel update: every site at or above the threshold loses 4
    grains and each of its four torus neighbors gains one."""
    _, after = _orbit(config, 1)
    return after


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


def _weighted_sums(f, config, steps):
    """Yield phi(f, c) for c in orbit(config, steps), one at a time.

    phi_0 is phi(f, config), with its checks.  A toppling at s changes the
    weighted sum by the torus Laplacian of the weights at s (its neighbors'
    weights minus 4 times its own), so each later value adds that Laplacian
    over the update's toppling sites.  This is the exact change, whether or
    not the weights are conserved."""
    _count(steps, 0, PreconditionError)
    total = phi(f, config).numerator
    yield Fraction(total)
    L = config.size
    laplacian = []
    rows = f._integer[1]
    for r, row in enumerate(rows):
        sides = zip(rows[r - 1], rows[(r + 1) % L], row[-1:] + row[:-1], row[1:] + row[:1], row)
        laplacian += [up + down + left + right - 4 * w for up, down, left, right, w in sides]
    heights = [h for row in config.heights for h in row]
    for toppling in _topplings(heights, L, steps):
        total = (total + sum(map(laplacian.__getitem__, toppling))) % L
        yield Fraction(total)


def check_conservation(f, config, steps):
    """True iff phi(f) is constant along the orbit of the given length."""
    return len(set(_weighted_sums(f, config, steps))) == 1


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
