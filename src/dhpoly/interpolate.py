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
same stages at the sizes below, in coordinates as well: a build forms no
polynomial.  It reads the canonical elements on the lattice, and checks each
new impulse on the whole enlarged lattice, by marching the stencil up from
their rows y = 0 and 1 (poly._march), and the impulse polynomials are formed
only when read (see build_impulse_set and ImpulseSet).  A plain bilinear
(tensor Lagrange) interpolator is
included as a contrast: it always interpolates but is generally not discrete
harmonic.  The base case, each size's impulses and the bilinear factors are
cardinal polynomials, each set of them from one square solve (see
_cardinal_solve).
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .errors import InvariantError, PreconditionError, SizeError
from .grid import _RATIONAL, _count, _matches_frame, is_inner_harmonic

# Not called here: kept importable as dhpoly.interpolate.interpolates, a name
# the benchmark's tracer tests read.
from .grid import interpolates
from .poly import (
    BiPoly,
    X,
    _basis_element,
    _combine,
    _linear_combination,
    _march,
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


class ImpulseSet:
    """Four discrete harmonic polynomials of degree <= 2*size that vanish on
    the whole (size+1)-lattice except designated border sites.

    With m = size, the nonzero sites are (0, m), (m, m), (m, 0), and the
    antisymmetric pair (m-1, m) / (m, m-1).  ``values`` holds the value at
    each designated site ((m-1, m) for the pair); the pair's second value is
    its negation.

    A discrete harmonic polynomial of degree <= N is sum_i (u_i / c_i) h_i
    over the canonical elements h_i, u_i its coefficient at h_i's pivot and
    c_i h_i's own (the poly docstring), so it is carried as (D, u): its
    y^0/y^1 numerators u over its denominator D.  Its value at a step site
    is u's dot product with that site's table row, h_i there times lc / c_i
    (lc the lcm of the c_i, degree <= 2m-2), over D * lc.  The step from
    size m to m+1 reads ``_step_table`` = (lc, rows, coords, divisors): the
    rows at _step_sites(m), each impulse's u (D = 1) divided by its gcd and
    signed so its first nonzero entry is positive, and each impulse's value
    at its site at that scale.  Any scale gives the same step; this one is
    the same however the set was made.  ``_elements`` (the canonical basis
    of degree <= 2m) and ``_rows_y1`` (each element's row y = 1, its
    numerators summed over the powers of y, as a coefficient list in x) are
    read by the next size's build.

    build_impulse_set makes a set from the table alone (_from_table), and
    ``polys`` (coprime integer coefficients, first term positive) and
    ``values`` are formed once, on first read.  ImpulseSet(size, polys,
    values) makes one by hand and derives the table from the polys: the
    size passes the count gate (at least 3); polys and values hold four
    each, else PreconditionError; each value is an int or Fraction by exact
    type, else TypeError, and nonzero, else PreconditionError.  Either way
    the set is immutable, and ==, hash, repr and pickling read (size,
    polys, values).
    """

    __slots__ = ("size", "_polys", "_values", "_step_table", "_elements", "_rows_y1")
    __match_args__ = ("size", "polys", "values")

    def __init__(self, size, polys, values):
        m = _count(size, 3, SizeError)
        if len(polys) != 4 or len(values) != 4:
            raise PreconditionError("an impulse set holds four polys and four values")
        for g in values:
            if type(g) not in _RATIONAL:
                raise TypeError("impulse values must be int or Fraction")
            if not g:
                raise PreconditionError("impulse values must be nonzero")
        elements = generate_basis(2 * m).elements
        lc, _, rows = _site_rows(elements[: 4 * m - 3], _step_sites(m))
        coords, divisors = [], []
        for xi, g in zip(polys, values):
            u, scale = _canonical([xi._num.get(p, 0) for p in _pivots(2 * m)])
            coords.append(u)
            divisors.append(Fraction(g * xi._den) / scale)
        table = (lc, rows, tuple(coords), tuple(divisors))
        self._set(m, polys, values, table, elements, _rows_y1(elements))

    @classmethod
    def _from_table(cls, size, table, elements, rows_y1):
        """The set of size m with step table ``table``, canonical elements
        ``elements`` of degree <= 2m and their rows y = 1 ``rows_y1``; polys
        and values are formed on first read."""
        out = cls.__new__(cls)
        out._set(size, None, None, table, elements, rows_y1)
        return out

    def _set(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    @property
    def polys(self):
        if self._polys is None:
            coords, elements = self._step_table[2], self._elements
            polys = [_primitive_poly(_from_coordinates(1, coords[k], elements)) for k in (0, 1, 3)]
            polys.insert(2, _primitive_poly(polys[0].swap_xy()))
            object.__setattr__(self, "_polys", tuple(polys))
        return self._polys

    @property
    def values(self):
        if self._values is None:
            sites = _step_sites(self.size)
            object.__setattr__(
                self, "_values", tuple(xi.evaluate(*s) for xi, s in zip(self.polys, sites))
            )
        return self._values

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self):
        return self.size, self.polys, self.values

    def __eq__(self, other):
        if not isinstance(other, ImpulseSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ImpulseSet(size={self.size!r}, polys={self.polys!r}, values={self.values!r})"

    def __reduce__(self):
        return ImpulseSet, self._key()


def _canonical(u):
    """(u / g, g) for a list of ints u: g the gcd of the entries, signed so
    the first nonzero entry of u / g is positive; g = 1 when all are 0."""
    g = math.gcd(*u)
    if not g:
        return tuple(u), 1
    if next(v for v in u if v) < 0:
        g = -g
    return tuple(v // g for v in u), g


def _rows_y1(elements):
    """Each polynomial's row y = 1 as a polynomial in x: the coefficient
    list, lowest power first, of its numerators summed over the powers of
    y, as a tuple per polynomial."""
    out = []
    for e in elements:
        row = [0] * (e.degree + 1)
        for (a, _), n in e._num.items():
            row[a] += n
        out.append(tuple(row))
    return tuple(out)


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


def _pattern_value(grid, m, k):
    """The value n at impulse k's site if ``grid``, integer values h(x, y)
    by rows y = 0..m over x = 0..m, is impulse k's pattern on the
    (m+1)-lattice: n != 0 there, -n at (m, m-1) for the dipole (k = 3), and
    0 everywhere else.  None otherwise."""
    sites = _step_sites(m)
    x, y = sites[k]
    n = grid[y][x]
    expected = [[0] * (m + 1) for _ in range(m + 1)]
    expected[y][x] = n
    if k == 3:
        x, y = sites[4]
        expected[y][x] = -n
    return n if n and grid == expected else None


def _verify_impulse(xi, m, k):
    """Value at the designated site if xi has the exact single-impulse (or
    dipole, for k = 3) pattern on the whole (m+1)-lattice, else None: the
    check of a caller's set (see extend), by Horner on the polynomial."""
    n = _pattern_value(list(xi._lattice_rows(m + 1))[::-1], m, k)
    return None if n is None else Fraction(n, xi._den)


def _coordinate_rows(u, lc, scales, columns):
    """The rows y = 0 and 1, as coefficient lists in x, of lc times the
    polynomial with coordinates u over the canonical elements h_i of degree
    <= N, sum_i (u_i / c_i) h_i (see ImpulseSet), given lc and scales as
    _pivot_scales gives them and ``columns``, the elements' rows y = 1
    transposed: columns[a][i] is h_i's coefficient of x^a there.  Row 0 is
    the coordinates at the pivots x^n, and row 1 the combination of the
    elements' rows y = 1."""
    f = list(map(mul, u, scales))
    # u[0] and u[2n-1] are the coordinates at 1 and x^n (see _pivots)
    return [lc * v for v in (u[0], *u[1::2])], [sum(map(mul, f, column)) for column in columns]


def _mirror(weights, elements, pivots):
    """The coordinates of the x/y mirror of sum_j w_j e_j over the canonical
    elements e_j with ``pivots``: its coefficients at x^n and x^(n-1) y are
    the sum's at y^n and x y^(n-1), O(N^2) reads of the elements' x^0 and
    x^1 columns."""
    N = len(pivots) // 2
    col0, col1 = [0] * (N + 1), [0] * (N + 1)
    for w, e, (a, b) in zip(weights, elements, pivots):
        if w:
            # e_j's terms x^i y^k keep the parities of its pivot's exponents
            i, col, num = a % 2, (col1 if a % 2 else col0), e._num
            for k in range(b, a + b + 1 - i, 2):
                col[k] += w * num.get((i, k), 0)
    return [col1[a] if b else col0[a] for a, b in pivots]


@lru_cache(maxsize=None)
def build_impulse_set(L):
    """The four impulse polynomials of size L >= 3, memoized, built from the
    sizes below (built first, ascending, so no build recurses deeper) in
    coordinates only: no polynomial is formed.

    The discrete harmonic polynomials of degree <= 2L vanishing on the
    L-lattice span 5 dimensions (the stencil leaves four free values on the
    (L+1)-lattice, plus one vanishing on all of it), spanned by the residuals
    r_k = e_k - I_k of the canonical elements e_k with pivots (2L-3, 1),
    (2L-1, 0), (2L-2, 1), (2L, 0) and (2L-1, 1), I_k e_k's _interpolant
    from the sets 3..L-1, which reads e_k by poly._march.  No residual is
    formed: with I_k in (D_k, u_k) form (see ImpulseSet) over the canonical
    elements of degree <= 2L-2, D_k r_k at a site is e_k there times D_k
    minus u_k's dot product with that site's _site_rows row, an integer.
    Impulses 0, 1 and 3 are the residuals' cardinals at (0, L), (L, L) and
    (L-1, L) that vanish at (L, 0) and (L+1, L), one 5x5 _cardinal_solve
    (d, C).  Through a column of C a cardinal is sum_j w_j e_j over the
    canonical elements of degree <= 2L (e_k weighted by D_k, the low
    elements by minus the u_k), so its coordinates are the w_j c_j and its
    value at its own site is d; impulse 2, impulse 0's x/y mirror, has the
    coordinates _mirror reads and the value d too.  Each impulse, scaled as
    the step table keeps it, is checked on every site of the (L+1)-lattice
    by the march from its rows y = 0 and 1: its pattern, with its value at
    its site.  The march trusts the canonical elements to be discrete
    harmonic, as they are by construction.  A singular system or a failed
    check raises InvariantError.
    """
    _count(L, 3, SizeError)
    sets = [build_impulse_set(m) for m in range(3, L)]
    if sets:
        low, low_rows_y1 = sets[-1]._elements, sets[-1]._rows_y1
    else:
        low, low_rows_y1 = _BASIS_4, _rows_y1(_BASIS_4)
    pivots = _pivots(2 * L)
    new = tuple(BiPoly._from_ints(1, _basis_element(p)) for p in pivots[-4:])
    elements, rows_y1 = (*low, *new), (*low_rows_y1, *_rows_y1(new))
    cs = [e._num[p] for e, p in zip(elements, pivots)]
    # The span elements' rows y = 0 are their pivot terms c x^a, or zero.
    grids = [
        _march([0] * a + [c] if not b else [], row, L + 2, L)
        for c, (a, b), row in zip(cs[-5:], pivots[-5:], rows_y1[-5:])
    ]
    sites = ((L, 0), (L + 1, L), (0, L), (L, L), (L - 1, L), (L, L - 1))
    lc, scales, rows = _site_rows(low, sites)
    dens, us = [], []
    for grid in grids:
        den, u = _interpolant(lambda x, y: grid[y][x], 1, sets)
        dens.append(den * lc)
        us.append(u)
    residuals = [
        [grid[y][x] * D - sum(map(mul, u, row)) for grid, D, u in zip(grids, dens, us)]
        for (x, y), row in zip(sites[:5], rows)
    ]
    d, C = _cardinal_solve(residuals, 3)
    weights = []
    for column in zip(*C):
        w = [-sum(map(mul, column, ui)) * s for ui, s in zip(zip(*us), scales)]
        w[-1] += dens[0] * column[0]  # span[0] is low[-1]
        weights.append(w + [D * c for D, c in zip(dens[1:], column[1:])])
    raw = [[w * c for w, c in zip(ws, cs)] for ws in weights]
    raw.insert(2, _mirror(weights[0], elements, pivots))
    top, top_scales = _pivot_scales(elements)
    columns = list(zip(*(row + (0,) * (2 * L + 1 - len(row)) for row in rows_y1)))
    coords, divisors = [], []
    for k, u in enumerate(raw):
        u, scale = _canonical(u)
        grid = _march(*_coordinate_rows(u, top, top_scales, columns), L + 1, L)
        n = _pattern_value(grid, L, k)
        if n is None or n * scale != top * d:
            raise InvariantError(f"impulse {k} of size {L} failed verification")
        coords.append(u)
        divisors.append(Fraction(d, scale))
    step_rows = tuple(rows[k] for k in (2, 3, 0, 4, 5))  # _step_sites(L) order
    table = (lc, step_rows, tuple(coords), tuple(divisors))
    return ImpulseSet._from_table(L, table, elements, rows_y1)


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
