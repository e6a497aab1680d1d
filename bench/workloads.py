"""Workload table and seeded input generation for the dhpoly benchmark.

Standard library only, and never imports dhpoly: the inputs a run uses depend
on the workload name and the seed alone, never on the code being measured.

Every workload runs a fixed list of ``REQUESTS`` requests.  The size mix gives
exact counts per size class (shuffled by the seed), so the 50th and 90th
percentile of the per-request latencies always land on the same class and
well inside it, with at least four requests of that class on either side,
never on the boundary between two classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

#: Requests per pass; at least 100 so that ten samples lie beyond p90.
REQUESTS = 100

#: Weight matrices the CLI knows by name.
SANDPILE_WEIGHTS = ("i", "j", "i2-j2")

#: Sandpile runs take from this many toppling steps to this many, spread
#: evenly within each size.  The narrow range keeps the cost classes of the
#: three sizes apart (cost ~ L**2 * steps) and each class tight, so p50 and
#: p90 hardly depend on which request of a class lands on them.
SANDPILE_STEPS = (24, 28)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``mix`` lists (size, request count) pairs whose counts sum to REQUESTS.
    ``cli`` says whether requests go through ``dhpoly.cli.main`` with CSV
    files on disk, or through the library.  ``setup_repeats`` is how many
    fresh processes a timed run starts to take the median set-up time.
    """

    name: str
    mix: tuple
    cli: bool
    setup_repeats: int

    @property
    def max_size(self):
        return max(size for size, _ in self.mix)


WORKLOADS = {
    w.name: w
    for w in (
        # p50 falls in L=5 (requests 33..84), p90 in L=6 (85..98).
        Workload("cold-interp", ((4, 33), (5, 52), (6, 14), (7, 1)), cli=True, setup_repeats=9),
        # p50 falls in L=7 (35..84), p90 in L=8 (85..96).  Set-up builds the
        # impulse sets 3..9, 5 to 8 s each time, hence fewer repeats.
        Workload(
            "warm-interp", ((6, 35), (7, 50), (8, 12), (9, 2), (10, 1)), cli=False, setup_repeats=3
        ),
        # p50 falls in L=10 (35..64), p90 in L=12 (85..97).
        Workload(
            "border-complete",
            ((8, 20), (9, 15), (10, 30), (11, 20), (12, 13), (13, 1), (14, 1)),
            cli=True,
            setup_repeats=9,
        ),
        # p50 falls in L=24 (30..79), p90 in L=32 (80..99).
        Workload("sandpile-verify", ((16, 30), (24, 50), (32, 20)), cli=True, setup_repeats=9),
    )
}


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def inner_harmonic_rows(rng, L):
    """Random inner-harmonic matrix of size L, as display rows.

    The two bottom lattice rows and the two side columns are random; every
    higher row follows from the five-point stencil solved for its upper
    neighbour, h(x, y+1) = 4h(x, y) - h(x-1, y) - h(x+1, y) - h(x, y-1), so the
    stencil vanishes at every inner site.  These 4L - 4 free values
    parametrise all inner-harmonic matrices of size L.
    """
    lattice = [[_rational(rng) for _ in range(L)] for _ in range(2)]
    for y in range(1, L - 1):
        below, here = lattice[y - 1], lattice[y]
        inner = [4 * here[x] - here[x - 1] - here[x + 1] - below[x] for x in range(1, L - 1)]
        lattice.append([_rational(rng)] + inner + [_rational(rng)])
    return [lattice[L - 1 - r] for r in range(L)]


def bordered_rows(rng, L):
    """Random rational border with '?' at every inner entry, as display rows."""
    return [
        [_rational(rng) if r in (0, L - 1) or c in (0, L - 1) else None for c in range(L)]
        for r in range(L)
    ]


def _cell(v):
    return "?" if v is None else str(v)


def to_csv(rows):
    """Rows of Fractions (or None for '?') as the CSV the dhpoly CLI reads."""
    return "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def _plan(workload):
    """The seed-independent shape of every request: its size and, for the
    sandpile, its step count and weight matrix.  Fixing these keeps the cost
    of a request list the same for every seed; the seed picks the values."""
    plan = []
    for L, count in workload.mix:
        for k in range(count):
            shape = {"L": L}
            if workload.name == "sandpile-verify":
                low, high = SANDPILE_STEPS
                shape["steps"] = low + round((high - low) * k / max(1, count - 1))
                shape["gf"] = SANDPILE_WEIGHTS[k % len(SANDPILE_WEIGHTS)]
            plan.append(shape)
    return plan


def make_requests(name, seed):
    """The request list of one workload for one seed, as JSON-ready dicts.

    Matrices are stored as rows of "p/q" strings (None for '?').
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    requests = _plan(workload)
    rng.shuffle(requests)
    for req in requests:
        L = req["L"]
        if name == "sandpile-verify":
            req["seed"] = rng.randrange(2**31)
        else:
            make = bordered_rows if name == "border-complete" else inner_harmonic_rows
            req["rows"] = [[None if v is None else str(v) for v in row] for row in make(rng, L)]
    return requests


def rows_of(req):
    """A request's matrix rows back as Fractions (None for '?')."""
    return [[None if v is None else Fraction(v) for v in row] for row in req["rows"]]
