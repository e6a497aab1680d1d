"""Discrete harmonic interpolation of inner-harmonic matrices.

The construction is telescopic: interpolate the 3x3 lower-left block exactly
from an eight-element harmonic basis, then repeatedly enlarge by one row and
column.  Each enlargement step adds a combination of four "impulse"
polynomials: discrete harmonic polynomials that vanish on the whole enlarged
lattice except one designated border site (an antisymmetric pair for the
fourth), so they patch the entries the smaller interpolant cannot match
without disturbing anything already fixed.  extend is one such step on
polynomials; telescopic runs its stages in canonical-basis coordinates and
forms the polynomial once, at the end.  Each size's impulses come from the
same stages at the sizes below, read at the impulse sites in coordinates as
well, so a build forms only its three new impulses as polynomials (see
build_impulse_set).  A plain bilinear (tensor Lagrange) interpolator is
included as a contrast: it always interpolates but is generally not discrete
harmonic.  The base case, each size's impulses and the bilinear factors are
cardinal polynomials, each set of them from one square solve (see
_cardinal_solve).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .errors import InvariantError, PreconditionError, SizeError
from .grid import _RATIONAL, _count, _matches, _matches_frame, is_inner_harmonic

# Not called here: kept importable as dhpoly.interpolate.interpolates, a name
# the benchmark's tracer tests read.
from .grid import interpolates
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


def _cardinal_solve(values, n):
    """(d, C) for a cardinal system, values[i][k] the integer D_k * p_k at
    the i-th condition site for functions p_k and scales D_k, the last n
    sites the cardinal ones and the rest zeros: sum_k (C[k][j] / d) D_k p_k
    vanishes at the zeros, is 1 at the j-th cardinal site and 0 at the
    others.  C / d is the columns of the values' inverse past the zero rows,
    from one linalg._integer_solve, the one solve of _cardinals and of
    build_impulse_set.  A system that is not square and nonsingular raises
    InvariantError."""
    size = len(values)
    if any(len(row) != size for row in values):
        raise InvariantError(f"{len(values[0])} polynomials for {size} conditions")
    units = [[0] * n for _ in range(size - n)] + [[int(i == k) for k in range(n)] for i in range(n)]
    return linalg._integer_solve(values, units)


def _cardinals(polys, sites, zeros=()):
    """The polynomials in the span of ``polys`` that vanish at ``zeros`` and
    are 1 at one of ``sites`` and 0 at the others, in ``sites`` order: the
    _cardinal_solve of the integer Horner sums D_k * polys[k] at the sites,
    D_k the denominator of polys[k], scaled back."""
    rows = (*zeros, *sites)
    d, C = _cardinal_solve([[p._numerator_at(x, y) for p in polys] for x, y in rows], len(sites))
    dens = [p._den for p in polys]
    return tuple(
        _linear_combination([Fraction(v * D, d) for v, D in zip(column, dens)], polys)
        for column in zip(*C)
    )


@lru_cache(maxsize=None)
def _base_cardinals():
    """The eight cardinals of _BASE_BASIS at the border sites of the
    3-lattice, in _block_border_sites(3) order, which _base_stage tabulates."""
    return _cardinals(_BASE_BASIS, _block_border_sites(3))


@lru_cache(maxsize=None)
def _base_stage():
    """(d, table): d the lcm of the base cardinals' denominators, and
    table[i][c] the numerator of cardinal c at the i-th pivot of degree <= 4
    (see _pivots) over d, a 9x8 table built once.  The base interpolant's
    y^0/y^1 numerators over hden * d are the rows' dot products with the
    border values over hden, in _block_border_sites(3) order."""
    cardinals = _base_cardinals()
    d = math.lcm(*(c._den for c in cardinals))
    return d, tuple(tuple(c._num.get(p, 0) * (d // c._den) for c in cardinals) for p in _pivots(4))


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
    its negation.

    The size passes the count gate (at least 3); polys and values hold
    four each, else PreconditionError; each value is an int or Fraction by
    exact type, else TypeError, and nonzero, else PreconditionError.
    __post_init__ derives the private fields however the set was built
    (dataclasses.replace too): ``_step_table``, the step from size m to m+1
    in canonical coordinates, and ``_elements``, the canonical basis of
    degree <= 2m, which is the init-only ``_basis`` when given
    (build_impulse_set's).  The table's site rows are the init-only
    ``_step_rows``, (lc, rows) at _step_sites(m), when given (the build has
    read them already), else read here.

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
    _step_rows: InitVar[tuple] = None
    _step_table: tuple = field(init=False, compare=False, repr=False)
    _elements: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self, _basis, _step_rows):
        m = _count(self.size, 3, SizeError)
        if len(self.polys) != 4 or len(self.values) != 4:
            raise PreconditionError("an impulse set holds four polys and four values")
        for g in self.values:
            if type(g) not in _RATIONAL:
                raise TypeError("impulse values must be int or Fraction")
            if not g:
                raise PreconditionError("impulse values must be nonzero")
        elements = generate_basis(2 * m).elements if _basis is None else _basis
        if _step_rows is None:
            lc, _, rows = _site_rows(elements[: 4 * m - 3], _step_sites(m))
        else:
            lc, rows = _step_rows
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


def _site_rows(elements, sites):
    """(lc, scales, rows) for the canonical elements h_i of degree <= N:
    lc and scales = [lc / c_i] from _pivot_scales, and one row per site
    holding each h_i there times lc / c_i, the row a polynomial in (D, u)
    form (see ImpulseSet) is read at by one dot product with u."""
    lc, scales = _pivot_scales(elements)
    rows = tuple(tuple(e._numerator_at(x, y) * s for e, s in zip(elements, scales)) for x, y in sites)
    return lc, scales, rows


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
    r_k = e_k - I_k of the canonical elements e_k with pivots (2L-3, 1),
    (2L-1, 0), (2L-2, 1), (2L, 0) and (2L-1, 1), I_k e_k's _interpolant
    from the sets 3..L-1.  No residual is formed: with I_k in (D_k, u_k)
    form (see ImpulseSet) over the canonical elements of degree <= 2L-2,
    D_k r_k at a site is e_k there times D_k minus u_k's dot product with
    that site's _site_rows row, an integer.  Impulses 0, 1 and 3 are the
    residuals' cardinals at (0, L), (L, L) and (L-1, L) that vanish at
    (L, 0) and (L+1, L), one 5x5 _cardinal_solve; each is one _combine of
    the canonical elements of degree <= 2L, e_k weighted by its D_k and
    the low elements by minus the u_k, through the solution, and is scaled
    by _primitive_poly.  Impulse 2 is impulse 0's x/y mirror.  The
    _site_rows rows are read once, at these five sites and (L, L-1), and
    five of them are the set's step-table rows (see ImpulseSet).  A singular
    system or an impulse failing its pattern check on the whole
    (L+1)-lattice raises InvariantError.
    """
    _count(L, 3, SizeError)
    sets = [build_impulse_set(m) for m in range(3, L)]
    low = sets[-1]._elements if sets else _BASIS_4
    elements = (*low, *(BiPoly._from_ints(1, _basis_element(p)) for p in _pivots(2 * L)[-4:]))
    span = elements[-5:]
    sites = ((L, 0), (L + 1, L), (0, L), (L, L), (L - 1, L), (L, L - 1))
    lc, scales, rows = _site_rows(low, sites)
    dens, us = [], []
    for e in span:
        den, u = _interpolant(e._numerator_at, e._den, sets)
        dens.append(den * lc // e._den)
        us.append(u)
    residuals = [
        [e._numerator_at(x, y) * D - sum(map(mul, u, row)) for e, D, u in zip(span, dens, us)]
        for (x, y), row in zip(sites[:5], rows)
    ]
    d, C = _cardinal_solve(residuals, 3)
    maps = [e._num for e in elements]
    polys = []
    for column in zip(*C):
        weights = [-sum(map(mul, column, ui)) * s for ui, s in zip(zip(*us), scales)]
        weights[-1] += dens[0] * column[0]  # span[0] is low[-1]
        weights += [D * c for D, c in zip(dens[1:], column[1:])]
        polys.append(_primitive_poly(BiPoly._from_ints(1, _combine(weights, maps))))
    polys.insert(2, _primitive_poly(polys[0].swap_xy()))
    values = [_verify_impulse(xi, L, k) for k, xi in enumerate(polys)]
    if None in values:
        raise InvariantError(f"impulse {values.index(None)} of size {L} failed verification")
    step_rows = tuple(rows[k] for k in (2, 3, 0, 4, 5))  # _step_sites(L) order
    return ImpulseSet(L, tuple(polys), tuple(values), elements, (lc, step_rows))


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
    has degree <= max(2(L-1), chi's degree).  Checks its inputs: chi is
    matched to the block on the block's frame, read from A's integer rows,
    which is exact once chi is discrete harmonic and A inner-harmonic (see
    grid._matches_frame), and a caller's impulse set against its values on
    the whole L-lattice (see _verify_impulse); a built set was checked when
    it was built.
    """
    L = A.size
    if L < 4:
        raise SizeError("extension needs a matrix of size at least 4")
    if not is_inner_harmonic(A):
        raise PreconditionError("matrix is not inner-harmonic")
    if not is_discrete_harmonic(chi):
        raise PreconditionError("interpolant is not discrete harmonic")
    den, rows = A._integer
    if not _matches_frame(chi, den, [row[: L - 1] for row in rows[1:]]):
        raise PreconditionError("interpolant does not match the lower-left block")
    if impulses is None:
        impulses = build_impulse_set(L - 1)
    elif impulses.size != L - 1:
        raise PreconditionError(f"impulse set has size {impulses.size}, need {L - 1}")
    elif any(
        _verify_impulse(xi, L - 1, k) != g
        for k, (xi, g) in enumerate(zip(impulses.polys, impulses.values))
    ):
        raise PreconditionError("impulse set does not have the impulse patterns and values")
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
    set: the base stage's table read against the border values, in integers
    (the center follows by the stencil), then one _step per set, every
    larger block staying inner-harmonic.  Returns (den, u) (see ImpulseSet)."""
    d, table = _base_stage()
    border = [value(x, y) for x, y in _block_border_sites(3)]
    u = [sum(map(mul, border, row)) for row in table]
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
    harmonic or does not interpolate H is a bug and raises InvariantError;
    once the result is discrete harmonic, agreement on H's frame, the rows
    y = 0 and 1 and the side columns, is agreement on the whole lattice
    (see grid._matches_frame).
    """
    if not is_inner_harmonic(H):
        raise PreconditionError("matrix is not inner-harmonic")
    hden, rows = H._integer
    top = H.size - 1
    sets = [build_impulse_set(m) for m in range(3, H.size)]
    den, u = _interpolant(lambda x, y: rows[top - y][x], hden, sets)
    chi = _from_coordinates(den, u, sets[-1]._elements if sets else _BASIS_4)
    if not (is_discrete_harmonic(chi) and _matches_frame(chi, hden, rows)):
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
