"""Output checks for the dhpoly benchmark, independent of the library.

Nothing here imports dhpoly: each check recomputes what it needs from the
request and the text the program emitted, so a defect in a timed code path
cannot also hide in its own check.  Every check returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?\Z")


def _exact(token):
    """Parse "p" or "p/q"; anything else (decimals, blanks) is rejected."""
    token = token.strip()
    if not _RATIONAL.match(token):
        raise ValueError(f"not an exact rational: {token!r}")
    return Fraction(token)


def parse_poly_json(text):
    """The CLI's JSON term list as {(a, b): Fraction}."""
    terms = {}
    for rec in json.loads(text):
        key = (int(rec["xexp"]), int(rec["yexp"]))
        if key in terms or key[0] < 0 or key[1] < 0:
            raise ValueError(f"bad exponent pair {key}")
        terms[key] = Fraction(int(rec["num"]), int(rec["den"]))
    return terms


class IntegerPoly:
    """A rational polynomial scaled by the lcm of its denominators, stored as
    integer rows by y-exponent and evaluated by nested Horner's rule."""

    def __init__(self, terms):
        self.scale = math.lcm(*(c.denominator for c in terms.values())) if terms else 1
        self.degree = max((a + b for a, b in terms), default=-1)
        self.rows = [[0] * (self.degree + 1 - b) for b in range(self.degree + 1)]
        for (a, b), c in terms.items():
            self.rows[b][a] = c.numerator * (self.scale // c.denominator)

    def scaled_value(self, x, y):
        """scale * P(x, y) for integers x, y."""
        acc = 0
        for row in reversed(self.rows):
            inner = 0
            for c in reversed(row):
                inner = inner * x + c
            acc = acc * y + inner
        return acc


def check_interpolant(terms, rows):
    """P must equal the matrix at every lattice point, have degree at most
    2(L-1), and be discrete harmonic.

    The stencil image of a degree-d polynomial has degree at most d-2, and a
    polynomial of degree at most n that vanishes on an (n+1) x (n+1) grid is
    zero, so the stencil is checked on the (d-1) x (d-1) grid {0..d-2}^2.
    """
    L = len(rows)
    P = IntegerPoly(terms)
    if P.degree > 2 * (L - 1):
        return f"degree {P.degree} exceeds 2(L-1) = {2 * (L - 1)}"
    for r, row in enumerate(rows):
        y = L - 1 - r
        for x, h in enumerate(row):
            if P.scaled_value(x, y) * h.denominator != h.numerator * P.scale:
                return f"value at lattice point ({x}, {y}) differs from the matrix"
    d = P.degree
    span = range(-1, d)
    grid = {(x, y): P.scaled_value(x, y) for x in span for y in span}
    for x in range(d - 1):
        for y in range(d - 1):
            lap = (
                4 * grid[x, y]
                - grid[x - 1, y]
                - grid[x + 1, y]
                - grid[x, y - 1]
                - grid[x, y + 1]
            )
            if lap:
                return f"stencil image is nonzero at ({x}, {y})"
    return None


def check_completion(text, bordered):
    """The output must keep the input border and have a zero stencil at
    every inner site.  ``bordered`` holds Fractions on the border and None
    inside."""
    L = len(bordered)
    try:
        out = [[_exact(t) for t in line.split(",")] for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        return str(exc)
    if len(out) != L or any(len(row) != L for row in out):
        return f"output is not a {L} x {L} matrix"
    for r in range(L):
        for c in range(L):
            if bordered[r][c] is not None and out[r][c] != bordered[r][c]:
                return f"border entry ({r + 1}, {c + 1}) changed"
    for r in range(1, L - 1):
        for c in range(1, L - 1):
            lap = 4 * out[r][c] - out[r - 1][c] - out[r + 1][c] - out[r][c - 1] - out[r][c + 1]
            if lap:
                return f"stencil is nonzero at inner entry ({r + 1}, {c + 1})"
    return None


def _weight(gf, x, y):
    return {"i": x, "j": y, "i2-j2": x * x - y * y}[gf]


def sandpile_trace(L, steps, seed, gf):
    """Weighted sums mod L and total heights along a toppling orbit.

    The start is the documented seeded configuration: heights drawn
    uniformly from 0..4 in display order by random.Random(seed).  Display
    entry (r, c) sits at lattice point (c, L-1-r).  Every site holding at
    least four grains sends one to each torus neighbour, all at once.
    """
    rng = random.Random(seed)
    h = [[rng.randint(0, 4) for _ in range(L)] for _ in range(L)]
    w = [[_weight(gf, c, L - 1 - r) for c in range(L)] for r in range(L)]
    sums, totals = [], []
    for t in range(steps + 1):
        if t:
            top = [[1 if v >= 4 else 0 for v in row] for row in h]
            h = [
                [
                    h[r][c]
                    - 4 * top[r][c]
                    + top[r - 1][c]
                    + top[(r + 1) % L][c]
                    + top[r][c - 1]
                    + top[r][(c + 1) % L]
                    for c in range(L)
                ]
                for r in range(L)
            ]
        sums.append(sum(wv * hv for wr, hr in zip(w, h) for wv, hv in zip(wr, hr)) % L)
        totals.append(sum(map(sum, h)))
    return sums, totals


def check_sandpile(text, L, steps, seed, gf):
    """The printed trace must be the orbit's weighted sums, constant, with
    the total height conserved."""
    sums, totals = sandpile_trace(L, steps, seed, gf)
    if len(set(totals)) != 1:
        return "total height is not conserved along the orbit"
    lines = text.splitlines()
    if len(lines) != steps + 1:
        return f"trace has {len(lines)} lines, expected {steps + 1}"
    for t, line in enumerate(lines):
        step, _, value = line.partition(",")
        try:
            ok = step == str(t) and _exact(value) == sums[t]
        except ValueError as exc:
            return str(exc)
        if not ok:
            return f"trace line {t} reads {line!r}, expected '{t},{sums[t]}'"
    if len(set(sums)) != 1:
        return "weighted sum is not constant along the orbit"
    return None
