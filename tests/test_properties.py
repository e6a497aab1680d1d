"""Property tests: stencil linearity, x/y-swap symmetry of the polynomial
Laplacian, the degree bound of telescopic interpolation, and polynomial
evaluation against the term-by-term sum.  Examples are derandomized so every
run checks the same cases."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from dhpoly import (
    BiPoly,
    BorderSpec,
    RatMatrix,
    complete,
    discrete_laplacian_matrix,
    discrete_laplacian_poly,
    evaluate_on_lattice,
    interpolates,
    is_discrete_harmonic,
    tabulated_basis,
    telescopic,
)

from helpers import naive_evaluate

small = settings(max_examples=20, deadline=None, derandomize=True, database=None)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def matrix_pairs(draw):
    L = draw(st.integers(3, 6))
    entries = st.lists(st.lists(rationals, min_size=L, max_size=L), min_size=L, max_size=L)
    return RatMatrix(draw(entries)), RatMatrix(draw(entries))


@st.composite
def polynomials(draw):
    """A combination of tabulated harmonic elements, sometimes plus one
    monomial that usually breaks harmonicity."""
    basis = tabulated_basis().elements
    coeffs = draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
    P = sum((c * p for c, p in zip(coeffs, basis) if c), BiPoly.zero())
    if draw(st.booleans()):
        a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        P = P + BiPoly.monomial(a, b, draw(rationals))
    return P


@st.composite
def sparse_polynomials(draw):
    """Sparse rational polynomials with exponents 0..9 (gaps, x-only and
    y-only terms, constants and the zero polynomial included)."""
    exponents = st.tuples(st.integers(0, 9), st.integers(0, 9))
    return BiPoly(draw(st.dictionaries(exponents, rationals, max_size=8)))


points = st.one_of(
    st.integers(-12, 12), st.booleans(), st.fractions(-9, 9, max_denominator=7)
)


@st.composite
def inner_harmonic(draw):
    L = draw(st.integers(3, 6))
    return complete(BorderSpec(L, draw(st.lists(rationals, min_size=4 * L - 4, max_size=4 * L - 4))))


@small
@given(matrix_pairs(), rationals, rationals)
def test_stencil_is_linear(pair, a, b):
    H, K = pair
    combined = RatMatrix(
        [[a * h + b * k for h, k in zip(hr, kr)] for hr, kr in zip(H.rows, K.rows)]
    )
    lap_h, lap_k = discrete_laplacian_matrix(H), discrete_laplacian_matrix(K)
    expected = [
        [a * h + b * k for h, k in zip(hr, kr)] for hr, kr in zip(lap_h.rows, lap_k.rows)
    ]
    assert discrete_laplacian_matrix(combined) == RatMatrix(expected)


@small
@given(polynomials())
def test_harmonicity_is_swap_symmetric(P):
    assert is_discrete_harmonic(P.swap_xy()) == is_discrete_harmonic(P)
    assert discrete_laplacian_poly(P.swap_xy()) == discrete_laplacian_poly(P).swap_xy()


@small
@given(inner_harmonic())
def test_telescopic_degree_bound(H):
    P = telescopic(H)
    assert P.degree <= 2 * (H.size - 1)
    assert interpolates(P, H)


@small
@given(sparse_polynomials(), points, points, st.integers(1, 6))
@example(BiPoly.zero(), -3, True, 1)
@example(BiPoly.constant(Fraction(-7, 3)), Fraction(2, 5), -4, 6)
def test_evaluate_matches_term_by_term_sum(P, x, y, L):
    value = P.evaluate(x, y)
    assert type(value) is Fraction
    assert value == naive_evaluate(P, x, y)
    expected = [[naive_evaluate(P, u, v) for u in range(L)] for v in range(L - 1, -1, -1)]
    assert evaluate_on_lattice(P, L) == RatMatrix(expected)
