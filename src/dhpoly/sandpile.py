"""Deterministic parallel toppling dynamics on a torus and the conserved
weighted-sum functionals.

Every site holding at least 4 grains topples simultaneously, sending one
grain to each of its four torus neighbors.  Periodic boundaries mean no
grain ever leaves, so total height is conserved exactly; the interest is in
the finer conserved quantities phi(f) = sum of f-weighted heights mod L,
which stay constant along orbits when the weight matrix is inner-harmonic
(demonstrated empirically here for the classic weights i, j and i^2 - j^2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SizeError
from .grid import RatMatrix, evaluate_on_lattice, lattice_to_matrix
from .poly import BiPoly

THRESHOLD = 4


@dataclass(frozen=True)
class SandConfig:
    """Heights on a size-L torus, stored in display order like RatMatrix."""

    heights: tuple

    def __post_init__(self):
        rows = tuple(tuple(h for h in row) for row in self.heights)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise SizeError("height grid must be square and nonempty")
        for row in rows:
            for h in row:
                if not isinstance(h, int) or isinstance(h, bool) or h < 0:
                    raise ValueError("heights must be nonnegative integers")
        object.__setattr__(self, "heights", rows)

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
    grains and each of its four torus neighbors gains one."""
    L = config.size
    h = config.heights
    toppling = [[1 if h[r][c] >= THRESHOLD else 0 for c in range(L)] for r in range(L)]
    new = [
        [
            h[r][c]
            - 4 * toppling[r][c]
            + toppling[(r - 1) % L][c]
            + toppling[(r + 1) % L][c]
            + toppling[r][(c - 1) % L]
            + toppling[r][(c + 1) % L]
            for c in range(L)
        ]
        for r in range(L)
    ]
    return SandConfig(tuple(tuple(row) for row in new))


def orbit(config, steps):
    """The configurations config, step(config), ..., step^steps(config)."""
    if steps < 0:
        raise PreconditionError(f"step count must be non-negative, got {steps}")
    out = [config]
    for _ in range(steps):
        out.append(step(out[-1]))
    return out


def phi(f, config):
    """Weighted height sum, reduced mod L to the representative in [0, L).

    The weight matrix and the heights are paired entry by entry, i.e. both
    are read through the same display/lattice correspondence.
    """
    if f.size != config.size:
        raise PreconditionError("weight matrix and configuration sizes differ")
    L = config.size
    total = Fraction(0)
    for frow, hrow in zip(f.rows, config.heights):
        for w, h in zip(frow, hrow):
            total += w * h
    return total % L


def check_conservation(f, config, steps):
    """True iff phi(f) is constant along the orbit of the given length."""
    return len({phi(f, c) for c in orbit(config, steps)}) == 1


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
    """Seeded uniform random heights in 0..max_height (mean 2 by default)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return SandConfig(
        tuple(tuple(rng.randint(0, max_height) for _ in range(L)) for _ in range(L))
    )
