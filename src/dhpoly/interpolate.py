"""Discrete harmonic interpolation of inner-harmonic matrices.

The construction is telescopic: interpolate the 3x3 lower-left block exactly
from an eight-element harmonic basis, then repeatedly enlarge by one row and
column.  Each enlargement step adds a combination of four "impulse"
polynomials: discrete harmonic polynomials that vanish on the whole enlarged
lattice except one designated border site (an antisymmetric pair for the
fourth), so they patch the entries the smaller interpolant cannot match
without disturbing anything already fixed.  extend is one such step on
polynomials; telescopic runs its stages in canonical-basis coordinates and
forms the polynomial once, at the end; each size's impulses come from the
same stages at the sizes below (see build_impulse_set).  A plain bilinear
(tensor Lagrange) interpolator is included as a contrast: it always
interpolates but is generally not discrete harmonic.  The base case, each
size's impulses and the bilinear factors are cardinal polynomials, each set
of them from one square solve (see _cardinals).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .errors import InvariantError, PreconditionError, SizeError
from .grid import _count, _matches, interpolates, is_inner_harmonic
from .poly import (
    BiPoly,
    X,
    _basis_element,
    _combine,
    _linear_combination,
    _primitive_poly,
    generate_basis,
    is_discrete_harmonic,
)

#: The canonical basis of degree <= 4, which the impulse sets extend, and its
#: first eight elements, the base case's basis: those of degree <= 3 plus the
#: one with pivot x**4, evaluated against the eight border sites.  The
#: resulting 8x8 system is nonsingular.
_BASIS_4 = generate_basis(4).elements
_BASE_BASIS = _BASIS_4[:8]


def _cardinals(polys, sites, zeros=()):
    """The polynomials in the span of ``polys`` that vanish at ``zeros`` and
    are 1 at one of ``sites`` and 0 at the others, in ``sites`` order: with
    A holding polys[k] at the i-th site of zeros + sites in row i, column k,
    the columns of A's inverse past the zero rows.  The solve reads
    A diag(D), the integer Horner sums D_k * polys[k] at the sites, and
    scales back.  A system that is not square and nonsingular raises
    InvariantError."""
    n, rows = len(sites), (*zeros, *sites)
    if len(polys) != len(rows):
        raise InvariantError(f"{len(polys)} polynomials for {len(rows)} conditions")
    units = [[0] * n for _ in zeros] + [[int(i == k) for k in range(n)] for i in range(n)]
    d, C = linalg._integer_solve([[p._numerator_at(x, y) for p in polys] for x, y in rows], units)
    dens = [p._den for p in polys]
    return tuple(
        _linear_combination([Fraction(v * D, d) for v, D in zip(column, dens)], polys)
        for column in zip(*C)
    )


@lru_cache(maxsize=None)
def _base_cardinals():
    """The eight cardinals of _BASE_BASIS at the border sites of the
    3-lattice, in _block_border_sites(3) order."""
    return _cardinals(_BASE_BASIS, _block_border_sites(3))


def interpolate_3x3(A):
    """Discrete harmonic polynomial of degree <= 4 matching a 3x3
    inner-harmonic matrix everywhere on the 3-lattice: telescopic's base case
    with no enlargement step, checked like every telescopic result."""
    if A.size != 3:
        raise SizeError("base-case interpolation requires a 3x3 matrix")
    return telescopic(A)


@dataclass(frozen=True)
class ImpulseSet:
    """Four discrete harmonic polynomials of degree <= 2*size that vanish on
    the whole (size+1)-lattice except designated border sites.

    With m = size, the nonzero sites are (0, m), (m, m), (m, 0), and the
    antisymmetric pair (m-1, m) / (m, m-1).  ``values`` holds the value at
    each designated site ((m-1, m) for the pair); the pair's second value is
    its negation.  All four values are nonzero.

    The size passes the count gate (at least 3); polys and values hold
    four each, else PreconditionError.  __post_init__ derives the private
    fields however the set was built (dataclasses.replace too):
    ``_step_table``, the step from size m to m+1 in canonical coordinates,
    and ``_elements``, the canonical basis of degree <= 2m, which is the
    init-only ``_basis`` when given (build_impulse_set's).

    A discrete harmonic polynomial of degree <= N is sum_i (u_i / c_i) h_i
    over the canonical elements h_i, u_i its coefficient at h_i's pivot and
    c_i h_i's own (the poly docstring), so it is carried as (D, u): its
    y^0/y^1 numerators u over its denominator D.  Its value at a step site
    is u's dot product with that site's table row, h_i there times lc / c_i
    (lc the lcm of the c_i, degree <= 2m-2), over D * lc.  The table also
    holds each impulse's numerators and its value times its denominator.
    """

    size: int
    polys: tuple
    values: tuple
    _basis: InitVar[tuple] = None
    _step_table: tuple = field(init=False, compare=False, repr=False)
    _elements: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self, _basis):
        m = _count(self.size, 3, SizeError)
        if len(self.polys) != 4 or len(self.values) != 4:
            raise PreconditionError("an impulse set holds four polys and four values")
        elements = generate_basis(2 * m).elements if _basis is None else _basis
        lc, scales = _pivot_scales(elements[: 4 * m - 3])
        rows = tuple(
            tuple(e._numerator_at(x, y) * s for e, s in zip(elements, scales))
            for x, y in _step_sites(m)
        )
        coords = tuple(tuple(xi._num.get(p, 0) for p in _pivots(2 * m)) for xi in self.polys)
        divisors = tuple(g * xi._den for g, xi in zip(self.values, self.polys))
        object.__setattr__(self, "_step_table", (lc, rows, coords, divisors))
        object.__setattr__(self, "_elements", elements)


def _pivots(N):
    """The pivots of the canonical basis of degree <= N in generate_basis
    order: 1, then x^n and x^(n-1) y for n = 1..N."""
    return [(0, 0), *((a, b) for n in range(1, N + 1) for a, b in ((n, 0), (n - 1, 1)))]


def _pivot_scales(elements):
    """(lc, [lc / c_i]) for the canonical elements h_i of degree <= N in
    generate_basis order, c_i the coefficient of h_i at its own pivot and lc
    their lcm."""
    cs = [e._num[p] for e, p in zip(elements, _pivots(len(elements) // 2))]
    lc = math.lcm(*cs)
    return lc, [lc // c for c in cs]


def _step_sites(m):
    """The five sites the step from size m to m+1 patches: the impulse sites
    in ImpulseSet order, then the dipole's second site."""
    return ((0, m), (m, m), (m, 0), (m - 1, m), (m, m - 1))


def _block_border_sites(L):
    """Border sites of the L-lattice (x or y in {0, L-1}), by x, then y; no
    result depends on their order (the cardinals are unique)."""
    ends = (0, L - 1)
    return tuple((x, y) for x in range(L) for y in (range(L) if x in ends else ends))


def _verify_impulse(xi, m, k):
    """Value at the designated site if xi has the exact single-impulse (or
    dipole, for k = 3) pattern on the whole (m+1)-lattice, else None."""
    sites = _step_sites(m)
    value = xi.evaluate(*sites[k])
    if value == 0:
        return None
    n = value.numerator
    pattern = {sites[k]: n, sites[4]: -n} if k == 3 else {sites[k]: n}
    rows = [[pattern.get((x, y), 0) for x in range(m + 1)] for y in range(m, -1, -1)]
    return value if _matches(xi, value.denominator, rows) else None


@lru_cache(maxsize=None)
def build_impulse_set(L):
    """The four impulse polynomials of size L >= 3, memoized, built from the
    sizes below (built first, ascending, so no build recurses deeper).

    The discrete harmonic polynomials of degree <= 2L vanishing on the
    L-lattice span 5 dimensions (the stencil leaves four free values on the
    (L+1)-lattice, plus one vanishing on all of it), spanned by the residuals
    of the canonical elements with pivots (2L-3, 1), (2L-1, 0), (2L-2, 1),
    (2L, 0) and (2L-1, 1): each minus its _interpolant from the sets 3..L-1.
    Impulses 0, 1 and 3 are their cardinals at (0, L), (L, L) and (L-1, L)
    that vanish at (L, 0) and (L+1, L), one 5x5 system, each scaled by
    _primitive_poly; impulse 2 is impulse 0's x/y mirror.  A singular
    system or an impulse failing its pattern check on the whole
    (L+1)-lattice raises InvariantError.
    """
    _count(L, 3, SizeError)
    sets = [build_impulse_set(m) for m in range(3, L)]
    low = sets[-1]._elements if sets else _BASIS_4
    elements = (*low, *(BiPoly._from_ints(1, _basis_element(p)) for p in _pivots(2 * L)[-4:]))
    span = [
        e - _from_coordinates(*_interpolant(e._numerator_at, e._den, sets), low)
        for e in elements[-5:]
    ]
    sites = ((0, L), (L, L), (L - 1, L))
    polys = [_primitive_poly(c) for c in _cardinals(span, sites, ((L, 0), (L + 1, L)))]
    polys.insert(2, _primitive_poly(polys[0].swap_xy()))
    values = [_verify_impulse(xi, L, k) for k, xi in enumerate(polys)]
    if None in values:
        raise InvariantError(f"impulse {values.index(None)} of size {L} failed verification")
    return ImpulseSet(L, tuple(polys), tuple(values), elements)


def extension_coefficients(chi, A, impulses):
    """Multipliers z1..z4 for the impulse polynomials in one enlargement step.

    With m = impulses.size, only the lower-left (m+1) x (m+1) block of A is
    read, so A may be larger; a smaller A raises SizeError.  The five sites
    a degree-h interpolant of the m x m block cannot be forced to match are
    (0, m), (m, m), (m, 0), (m-1, m) and (m, m-1) (see _step_sites); the
    stencil centered at (m-1, m-1) ties the last two together, which is what
    makes four impulse polynomials enough.  z_k scales the impulse at site k.
    """
    m = impulses.size
    if A.size <= m:
        raise SizeError(f"impulse set of size {m} needs a matrix of size at least {m + 1}")
    sites = _step_sites(m)
    want = [A.at(x, y) for x, y in sites]
    have = [chi.evaluate(x, y) for x, y in sites]
    return tuple(_multipliers(want, have, impulses.values))


def _multipliers(want, have, divisors, d=1):
    """The multipliers (want_k - have_k) / (d * divisors_k) of one step,
    from the wanted and present values at the five step sites (see
    _step_sites) over one common denominator d; extension_coefficients and
    _step both take theirs from here.  Both sides satisfy the stencil at
    (m-1, m-1), so the two dipole sites' mismatches cancel; when they do
    not, raises InvariantError."""
    if have[3] + have[4] != want[3] + want[4]:
        raise InvariantError("paired border mismatches are not antisymmetric")
    return [
        Fraction((w - h) * g.denominator, d * g.numerator)
        for w, h, g in zip(want, have, divisors)
    ]


def _extend(chi, A, impulses):
    """One enlargement step, unchecked (see extend), as one combination."""
    z = extension_coefficients(chi, A, impulses)
    return _linear_combination((1, *z), (chi, *impulses.polys))


def extend(chi, A, impulses=None):
    """Enlarge a discrete harmonic interpolant of the lower-left
    (L-1) x (L-1) block of A to one interpolating all of A.

    Adds a combination of the size-(L-1) impulse polynomials, which vanish on
    the smaller block, so nothing already matched is disturbed.  The result
    has degree <= max(2(L-1), chi's degree).  Checks its inputs, matching chi
    to the whole block, read from A's integer rows.
    """
    L = A.size
    if L < 4:
        raise SizeError("extension needs a matrix of size at least 4")
    if not is_inner_harmonic(A):
        raise PreconditionError("matrix is not inner-harmonic")
    if not is_discrete_harmonic(chi):
        raise PreconditionError("interpolant is not discrete harmonic")
    den, rows = A._integer
    if not _matches(chi, den, [row[: L - 1] for row in rows[1:]]):
        raise PreconditionError("interpolant does not match the lower-left block")
    if impulses is None:
        impulses = build_impulse_set(L - 1)
    elif impulses.size != L - 1:
        raise PreconditionError(f"impulse set has size {impulses.size}, need {L - 1}")
    return _extend(chi, A, impulses)


def _step(den, u, values, hden, impulses):
    """The step from size m = impulses.size of the interpolant (den, u) (see
    ImpulseSet), given the input's values over hden at the five step sites:
    O(m) integer work through the step table and _multipliers, forming no
    polynomial.  Returns the enlarged interpolant's (den, u)."""
    lc, table, coords, divisors = impulses._step_table
    scale = den * lc
    want = [v * scale for v in values]
    have = [sum(map(mul, u, row)) * hden for row in table]
    z = _multipliers(want, have, divisors, hden * scale)
    new = math.lcm(den, *(c.denominator for c in z))
    f = new // den
    s0, s1, s2, s3 = (c.numerator * (new // c.denominator) for c in z)
    u = [*u, *[0] * (len(coords[0]) - len(u))]
    return new, [f * a + s0 * p + s1 * q + s2 * r + s3 * t for a, p, q, r, t in zip(u, *coords)]


def _interpolant(value, hden, sets):
    """telescopic's stages, unchecked, for the values value(x, y) / hden of
    an inner-harmonic input of size L, given ``sets`` the impulse sets of
    sizes 3..L-1, read at the 3-lattice's border and the step sites of each
    set: the base cardinals' y^0/y^1 numerators weighted in integers (the
    center follows by the stencil), then one _step per set, every larger
    block staying inner-harmonic.  Returns (den, u) (see ImpulseSet)."""
    cardinals = _base_cardinals()
    d = math.lcm(*(c._den for c in cardinals))
    weights = [value(x, y) * (d // c._den) for (x, y), c in zip(_block_border_sites(3), cardinals)]
    u = [sum(w * c._num.get(p, 0) for w, c in zip(weights, cardinals)) for p in _pivots(4)]
    den = hden * d
    for impulses in sets:
        values = [value(x, y) for x, y in _step_sites(impulses.size)]
        den, u = _step(den, u, values, hden, impulses)
    return den, u


def _from_coordinates(den, u, elements):
    """The discrete harmonic polynomial with y^0/y^1 numerators u over den,
    for ``elements`` the canonical elements of degree <= N and len(u) =
    2N + 1: the elements scaled by lc / c_i (see ImpulseSet) in one
    _combine, over den * lc."""
    lc, scales = _pivot_scales(elements)
    return BiPoly._from_ints(den * lc, _combine(map(mul, u, scales), [e._num for e in elements]))


def telescopic(H):
    """Discrete harmonic polynomial of degree <= 2(L-1) interpolating an
    inner-harmonic matrix of size L >= 3.

    Only H is checked (a size below 3 raises SizeError); the stages run
    unchecked in _interpolant, and the polynomial is formed once, from the
    canonical basis of degree <= 2(L-1).  A result that is not discrete
    harmonic or does not interpolate H is a bug and raises InvariantError.
    """
    if not is_inner_harmonic(H):
        raise PreconditionError("matrix is not inner-harmonic")
    hden, rows = H._integer
    top = H.size - 1
    sets = [build_impulse_set(m) for m in range(3, H.size)]
    den, u = _interpolant(lambda x, y: rows[top - y][x], hden, sets)
    chi = _from_coordinates(den, u, sets[-1]._elements if sets else _BASIS_4)
    if not (is_discrete_harmonic(chi) and interpolates(chi, H)):
        raise InvariantError("telescopic result does not interpolate the matrix")
    return chi


def bilinear(H):
    """Tensor-product Lagrange interpolant of degree 2(L-1) on the lattice:
    the sum over u of cx_u * sum_v H(u, v) cy_v, with cx the cardinals of
    1, x, ..., x^(L-1) at (0, 0) .. (L-1, 0), i.e. the Lagrange cardinals in
    x, and cy their mirrors in y.

    Works for any matrix and always interpolates, but its stencil image is
    generally a nonzero polynomial: matching lattice values does not make a
    polynomial discrete harmonic.
    """
    L = H.size
    cx = _cardinals([X**k for k in range(L)], [(u, 0) for u in range(L)])
    cy = [c.swap_xy() for c in cx]
    rows = [_linear_combination([H.at(u, v) for v in range(L)], cy) for u in range(L)]
    return _linear_combination([1] * L, [c * row for c, row in zip(cx, rows)])
