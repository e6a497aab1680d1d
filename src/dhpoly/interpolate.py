"""Discrete harmonic interpolation of inner-harmonic matrices.

The construction is telescopic: interpolate the 3x3 lower-left block exactly
from an eight-element harmonic basis, then repeatedly enlarge by one row and
column.  Each enlargement step adds a combination of four "impulse"
polynomials: discrete harmonic polynomials that vanish on the whole enlarged
lattice except one designated border site (an antisymmetric pair for the
fourth), so they patch the entries the smaller interpolant cannot match
without disturbing anything already fixed.  A plain bilinear (tensor
Lagrange) interpolator is included as a contrast: it always interpolates but
is generally not discrete harmonic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import ConstructionError, InvariantError, PreconditionError, SizeError
from .grid import RatMatrix, is_inner_harmonic
from .poly import BiPoly, generate_basis, is_discrete_harmonic

#: Basis used for the 3x3 base case: the canonical elements of degree <= 3
#: plus the degree-4 element with pivot x**4, evaluated against the eight
#: border sites.  The resulting 8x8 system is nonsingular.
_BASE_BASIS = generate_basis(4).elements[:8]

#: Border sites of the 3x3 lattice, in the row order of the base-case system.
_BASE_POINTS = ((0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2))


def _integer_combination(coeffs, polys):
    """Term map of sum c_k p_k for integer c_k and polynomials p_k with
    integer coefficients (denominator 1, as every canonical basis element
    has), zero terms dropped."""
    terms = {}
    for c, p in zip(coeffs, polys):
        if c:
            for key, a in p._num.items():
                terms[key] = terms.get(key, 0) + c * a
    return {key: a for key, a in terms.items() if a}


@lru_cache(maxsize=None)
def _base_inverse():
    """(d, N) with N / d the inverse of the fixed base-case matrix (basis
    element k evaluated at point i in row i, column k) and N integer."""
    n = len(_BASE_POINTS)
    system = [
        [p.evaluate(x, y) for p in _BASE_BASIS] + [int(i == k) for k in range(n)]
        for i, (x, y) in enumerate(_BASE_POINTS)
    ]
    rows, _ = linalg.rref(system)
    d = math.lcm(*(v.denominator for row in rows for v in row))
    return d, tuple(tuple(v.numerator * (d // v.denominator) for v in row[n:]) for row in rows)


def interpolate_3x3(A):
    """Discrete harmonic polynomial of degree <= 4 matching a 3x3
    inner-harmonic matrix everywhere on the 3-lattice.

    The eight border values determine the basis coefficients through a fixed
    nonsingular 8x8 system, inverted once; the center then matches
    automatically because both sides satisfy the stencil there.  With the
    border values scaled to integers by the lcm D of their denominators, the
    whole polynomial is one integer product over d * D.
    """
    if A.size != 3:
        raise SizeError("base-case interpolation requires a 3x3 matrix")
    if not is_inner_harmonic(A):
        raise PreconditionError("matrix is not inner-harmonic")
    d, inverse = _base_inverse()
    values = [A.at(x, y) for x, y in _BASE_POINTS]
    D = math.lcm(*(v.denominator for v in values))
    rhs = [v.numerator * (D // v.denominator) for v in values]
    coeffs = [sum(a * b for a, b in zip(row, rhs)) for row in inverse]
    return BiPoly._from_ints(d * D, _integer_combination(coeffs, _BASE_BASIS))


@dataclass(frozen=True)
class ImpulseSet:
    """Four discrete harmonic polynomials of degree <= 2*size that vanish on
    the whole (size+1)-lattice except designated border sites.

    With m = size, the nonzero sites are (0, m), (m, m), (m, 0), and the
    antisymmetric pair (m-1, m) / (m, m-1).  ``values`` holds the value at
    each designated site ((m-1, m) for the pair); the pair's second value is
    its negation.  All four values are nonzero.
    """

    size: int
    polys: tuple
    values: tuple


def _designated_sites(m):
    return ((0, m), (m, m), (m, 0), (m - 1, m))


def _primitive_poly(terms):
    """BiPoly of an integer term map with no zero entry, divided by its gcd
    and signed so the first term in canonical order is positive."""
    g = math.gcd(*terms.values())
    if terms[min(terms, key=lambda ab: (ab[0] + ab[1], ab[0]))] < 0:
        g = -g
    return BiPoly._from_ints(1, {key: c // g for key, c in terms.items()})


def _block_border_sites(L):
    """Border sites of the L-lattice, i.e. of the lower-left L x L block."""
    return tuple(
        (x, y)
        for x in range(L)
        for y in range(L)
        if x in (0, L - 1) or y in (0, L - 1)
    )


def _matches_on_border(P, H):
    """True iff P agrees with H on the border of H's lattice.  For discrete
    harmonic P and inner-harmonic H that is agreement everywhere: P - H is
    then inner-harmonic on the lattice, and an inner-harmonic function that
    vanishes on the border vanishes inside (discrete maximum principle)."""
    return all(P.evaluate(x, y) == H.at(x, y) for x, y in _block_border_sites(H.size))


def _verify_impulse(xi, m, k):
    """Value at the designated site if xi has the exact single-impulse (or
    dipole, for k = 3) pattern on the (m+1)-lattice, else None.  xi must be
    discrete harmonic, so that matching the border means matching the whole
    lattice (see _matches_on_border)."""
    target = _designated_sites(m)[k]
    value = xi.evaluate(*target)
    if value == 0:
        return None
    # Expected values in display order (top row y = m).  The pattern is
    # inner-harmonic: corners lie in no stencil, and the one stencil holding
    # the dipole (centred at (m-1, m-1)) sums it to zero.
    pattern = {target: value, (m, m - 1): -value} if k == 3 else {target: value}
    expected = [[pattern.get((x, y), 0) for x in range(m + 1)] for y in range(m, -1, -1)]
    return value if _matches_on_border(xi, RatMatrix(expected)) else None


@lru_cache(maxsize=None)
def build_impulse_set(L):
    """Construct the four impulse polynomials for size parameter L >= 3.

    Candidates are the 4L non-constant elements of the canonical harmonic
    basis up to degree 2L.  One nullspace over the 4L - 4 border sites of the
    L-lattice gives the five combinations that vanish on that border (the row
    at the origin is zero, since no candidate has a constant term), and so,
    being discrete harmonic, on the whole L-lattice (discrete maximum
    principle).  Impulse k is the single kernel vector of a 4 x 5 system over
    those combinations: zero at the other three designated sites and at
    (L+1, L), or at its mirror (L, L+1) for the impulse at (L, 0).  The fourth
    point only fixes a multiple of the polynomial that vanishes on the whole
    (L+1)-lattice.  Each result is an integer combination of basis elements,
    so it is discrete harmonic of degree <= 2L by construction; what is
    checked is its impulse pattern, on the border of the (L+1)-lattice.  A
    system without exactly one kernel vector, or a failed check, raises
    ConstructionError.

    Results are memoized per size; the cache is safe for concurrent readers.
    """
    if L < 3:
        raise SizeError("impulse polynomials need size at least 3")
    basis = [p for p in generate_basis(2 * L).elements if p.degree >= 1]
    rows = [[p.evaluate(x, y) for p in basis] for x, y in _block_border_sites(L)]
    kernel = [[v.numerator for v in vec] for vec in linalg.nullspace(rows, ncols=len(basis))]

    def values(point):
        at = [p.evaluate(*point).numerator for p in basis]
        return [sum(v * a for v, a in zip(vec, at)) for vec in kernel]

    site_values = [values(site) for site in _designated_sites(L)]
    right, above = values((L + 1, L)), values((L, L + 1))
    polys = []
    impulse_values = []
    for k in range(4):
        rows = [row for j, row in enumerate(site_values) if j != k]
        rows.append(above if k == 2 else right)
        solution = linalg.nullspace(rows, ncols=len(kernel))
        if len(solution) != 1:
            raise ConstructionError(
                f"impulse system for size {L}, index {k} has {len(solution)} kernel vectors"
            )
        c = [v.numerator for v in solution[0]]
        coeffs = [sum(a * b for a, b in zip(c, column)) for column in zip(*kernel)]
        xi = _primitive_poly(_integer_combination(coeffs, basis))
        value = _verify_impulse(xi, L, k)
        if value is None:
            raise ConstructionError(f"impulse {k} of size {L} failed verification")
        polys.append(xi)
        impulse_values.append(value)

    return ImpulseSet(size=L, polys=tuple(polys), values=tuple(impulse_values))


def extension_coefficients(chi, A, impulses):
    """Multipliers z1..z4 for the impulse polynomials in one enlargement step.

    With m = A.size - 1, the five sites a degree-h interpolant of the m x m
    block cannot be forced to match are (0, m), (m-1, m), (m, m), (m, m-1)
    and (m, 0); the stencil centered at (m-1, m-1) ties the two middle ones
    together, which is what makes four impulse polynomials enough.
    """
    m = A.size - 1
    sites = ((0, m), (m - 1, m), (m, m), (m, m - 1), (m, 0))
    want = [A.at(x, y) for x, y in sites]
    have = [chi.evaluate(x, y) for x, y in sites]
    if have[1] + have[3] != want[1] + want[3]:
        raise InvariantError("paired border mismatches are not antisymmetric")
    g = impulses.values
    return (
        (want[0] - have[0]) / g[0],
        (want[2] - have[2]) / g[1],
        (want[4] - have[4]) / g[2],
        (want[1] - have[1]) / g[3],
    )


def _extend(chi, A, impulses):
    """One enlargement step with no precondition checks (see extend)."""
    z = extension_coefficients(chi, A, impulses)
    return sum((c * xi for c, xi in zip(z, impulses.polys) if c), chi)


def extend(chi, A, impulses=None):
    """Enlarge a discrete harmonic interpolant of the lower-left
    (L-1) x (L-1) block of A to one interpolating all of A.

    Adds a combination of the size-(L-1) impulse polynomials, which vanish on
    the smaller block, so nothing already matched is disturbed.  The result
    has degree <= max(2(L-1), chi's degree).  Checks its inputs, matching chi
    to the block on its border only (enough, see _matches_on_border).
    """
    L = A.size
    if L < 4:
        raise SizeError("extension needs a matrix of size at least 4")
    if not is_inner_harmonic(A):
        raise PreconditionError("matrix is not inner-harmonic")
    if not is_discrete_harmonic(chi):
        raise PreconditionError("interpolant is not discrete harmonic")
    if not _matches_on_border(chi, A.lower_left_minor(L - 1)):
        raise PreconditionError("interpolant does not match the lower-left block")
    if impulses is None:
        impulses = build_impulse_set(L - 1)
    elif impulses.size != L - 1:
        raise PreconditionError(f"impulse set has size {impulses.size}, need {L - 1}")
    return _extend(chi, A, impulses)


def telescopic(H):
    """Discrete harmonic polynomial of degree <= 2(L-1) interpolating an
    inner-harmonic matrix of size L >= 3.

    Starts from the 3x3 lower-left block (every intermediate block stays
    inner-harmonic) and extends one size at a time up to L.  Only H is
    checked; the steps hold by construction and run unchecked.  The result is
    verified on the border (see _matches_on_border); a failure there is a
    bug, not bad input, and raises InvariantError.
    """
    L = H.size
    if L < 3:
        raise SizeError("interpolation needs size at least 3")
    if not is_inner_harmonic(H):
        raise PreconditionError("matrix is not inner-harmonic")
    chi = interpolate_3x3(H.lower_left_minor(3))
    for m in range(4, L + 1):
        chi = _extend(chi, H.lower_left_minor(m), build_impulse_set(m - 1))
    if not (is_discrete_harmonic(chi) and _matches_on_border(chi, H)):
        raise InvariantError("telescopic result does not interpolate the matrix")
    return chi


def _poly_mul_int(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def bilinear(H):
    """Tensor-product Lagrange interpolant of degree 2(L-1) on the lattice.

    Works for any matrix and always interpolates, but its stencil image is
    generally a nonzero polynomial: matching lattice values does not make a
    polynomial discrete harmonic.
    """
    L = H.size
    cardinals = []
    for u in range(L):
        num = [1]
        den = 1
        for j in range(L):
            if j != u:
                num = _poly_mul_int(num, [-j, 1])
                den *= u - j
        cardinals.append((num, den))

    terms = {}
    for u in range(L):
        for v in range(L):
            z = H.at(u, v)
            if not z:
                continue
            num_u, den_u = cardinals[u]
            num_v, den_v = cardinals[v]
            scale = z / (den_u * den_v)
            for a, cu in enumerate(num_u):
                if not cu:
                    continue
                for b, cv in enumerate(num_v):
                    if not cv:
                        continue
                    key = (a, b)
                    s = terms.get(key, Fraction(0)) + scale * cu * cv
                    if s:
                        terms[key] = s
                    else:
                        terms.pop(key, None)
    return BiPoly(terms)
