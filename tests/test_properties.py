"""Property tests: stencil linearity, x/y-swap symmetry of the polynomial
Laplacian, the degree bound of telescopic interpolation, polynomial
evaluation against the term-by-term sum, uniqueness of border completion,
the exact linear algebra against a Fraction back-substitution and sympy, the
integer sandpile step and weighted sum against their Fraction references,
the integer-numerator polynomial core against a Fraction-dict oracle, and
integer border completion against the Fraction affine march.
Examples are derandomized so every run checks the same cases."""

import math
from fractions import Fraction

import pytest
import sympy

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from dhpoly import (
    BiPoly,
    BorderSpec,
    PreconditionError,
    RatMatrix,
    SandConfig,
    complete,
    discrete_laplacian_matrix,
    discrete_laplacian_poly,
    evaluate_on_lattice,
    extract_border,
    interpolates,
    is_discrete_harmonic,
    is_inner_harmonic,
    phi,
    step,
    tabulated_basis,
    telescopic,
)
from dhpoly.formats import poly_to_json
from dhpoly.poly import _linear_combination

from helpers import (
    FractionPoly,
    SingularMatrixError,
    affine_complete,
    fraction_rref,
    kernel_from_rref,
    naive_evaluate,
    naive_phi,
    naive_step,
    nullspace,
    rank,
    rref,
    solve,
)

small = settings(max_examples=20, deadline=None, derandomize=True, database=None)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def matrix_pairs(draw):
    L = draw(st.integers(3, 6))
    entries = st.lists(st.lists(rationals, min_size=L, max_size=L), min_size=L, max_size=L)
    return RatMatrix(draw(entries)), RatMatrix(draw(entries))


@st.composite
def harmonic_polynomials(draw):
    """Rational combinations of tabulated harmonic elements."""
    basis = tabulated_basis().elements
    coeffs = draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
    return sum((c * p for c, p in zip(coeffs, basis) if c), BiPoly.zero())


@st.composite
def polynomials(draw):
    """A combination of tabulated harmonic elements, sometimes plus one
    monomial that usually breaks harmonicity."""
    P = draw(harmonic_polynomials())
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


points = st.one_of(st.integers(-12, 12), st.fractions(-9, 9, max_denominator=7))


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
@example(BiPoly.constant(Fraction(-7, 3)), Fraction(2, 5), -4, 6)
def test_evaluate_matches_term_by_term_sum(P, x, y, L):
    value = P.evaluate(x, y)
    assert type(value) is Fraction
    assert value == naive_evaluate(P, x, y)
    expected = [[naive_evaluate(P, u, v) for u in range(L)] for v in range(L - 1, -1, -1)]
    assert evaluate_on_lattice(P, L) == RatMatrix(expected)


@small
@given(harmonic_polynomials(), st.integers(3, 8))
def test_completion_is_unique(P, L):
    # H comes from a harmonic polynomial, not from complete, so complete must
    # recover it from its border alone.
    H = evaluate_on_lattice(P, L)
    assert is_inner_harmonic(H)
    assert complete(extract_border(H)) == H


@st.composite
def borders(draw):
    """Rational borders of size 3..16: integer-only, small denominators or
    denominators up to 10**6, values of either sign."""
    L = draw(st.integers(3, 16))
    max_den = draw(st.sampled_from([1, 5, 10**6]))
    values = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=max_den)
    return BorderSpec(L, draw(st.lists(values, min_size=4 * L - 4, max_size=4 * L - 4)))


@small
@given(borders())
@example(BorderSpec(16, (0,) * 60))
@example(BorderSpec(4, (-3, 7, 0, 2, -1, 5, 9, -8, 4, 6, -2, 1)))
@example(BorderSpec(16, tuple(Fraction((-1) ** k * (k + 1), 10**6 - k) for k in range(60))))
def test_complete_matches_affine_march(border):
    H = complete(border)
    assert H == affine_complete(border)
    assert all(type(v) is Fraction for row in H.rows for v in row)


def rational_rows(entry, nrows, ncols):
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def matrices(draw, square=False):
    """(rows, ncols) with 0-8 rows and 1-9 columns, or n x n with n in 1-8:
    the product of random rational factors of shapes rows x r and r x ncols,
    a sparse matrix with whole zero rows and columns, or the zero matrix."""
    ncols = draw(st.integers(1, 8 if square else 9))
    nrows = ncols if square else draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["product", "sparse", "zero"]))
    if kind == "product":
        r = draw(st.integers(0, min(nrows, ncols)))
        U = draw(rational_rows(rationals, nrows, r))
        V = draw(rational_rows(rationals, r, ncols))
        rows = [
            [sum((u[s] * V[s][j] for s in range(r)), Fraction(0)) for j in range(ncols)]
            for u in U
        ]
    elif kind == "sparse":
        rows = draw(rational_rows(st.one_of(st.just(Fraction(0)), rationals), nrows, ncols))
        zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, ncols - 1)))
        rows = [
            [Fraction(0) if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    else:
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    return rows, ncols


def sympy_matrix(rows, ncols):
    entries = [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
    return sympy.Matrix(len(rows), ncols, entries)


def as_fractions(values):
    return [Fraction(int(v.p), int(v.q)) for v in values]


ZERO_3X4 = ([[Fraction(0)] * 4 for _ in range(3)], 4)
NO_ROWS = ([], 5)
RANK_TWO = ([[1, 2, 3], [2, 4, Fraction(7, 2)], [Fraction(-1, 3), Fraction(-2, 3), 0]], 3)


@small
@given(matrices())
@example(ZERO_3X4)
@example(NO_ROWS)
@example(RANK_TWO)
def test_rref_matches_fraction_oracle_and_sympy(case):
    rows, ncols = case
    reduced, pivots = rref(rows, ncols)
    assert (reduced, pivots) == fraction_rref(rows, ncols)
    assert all(type(v) is Fraction for row in reduced for v in row)
    assert rank(rows, ncols) == len(pivots)
    if rows:
        R, sympy_pivots = sympy_matrix(rows, ncols).rref()
        assert list(sympy_pivots) == pivots
        expected = [tuple(as_fractions(R.row(i))) for i in range(len(pivots))]
        assert reduced == expected
        assert all(v == 0 for v in R[len(pivots):, :])
    else:
        assert (reduced, pivots) == ([], [])


@small
@given(matrices())
@example(ZERO_3X4)
@example(NO_ROWS)
@example(RANK_TWO)
def test_nullspace_is_the_primitive_kernel(case):
    rows, ncols = case
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows, ncols)
    for v in basis:
        assert all(type(x) is Fraction and x.denominator == 1 for x in v)
        assert math.gcd(*(int(x) for x in v)) == 1
        assert next(x for x in v if x) > 0
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert basis == kernel_from_rref(*fraction_rref(rows, ncols), ncols)


@small
@given(matrices(square=True), st.data())
def test_solve_matches_sympy(case, data):
    rows, n = case
    b = data.draw(st.lists(rationals, min_size=n, max_size=n))
    M = sympy_matrix(rows, n)
    sympy_rank = M.rank()
    if sympy_rank < n:
        with pytest.raises(SingularMatrixError) as err:
            solve(rows, b)
        assert err.value.rank == sympy_rank
    else:
        x = solve(rows, b)
        assert all(type(v) is Fraction for v in x)
        assert x == as_fractions(M.LUsolve(sympy_matrix([b], n).T))


@st.composite
def sandpiles(draw):
    """Torus configurations of size 1-12 with heights 0-9, so that some sites
    topple and some do not."""
    L = draw(st.integers(1, 12))
    return SandConfig(tuple(tuple(row) for row in draw(rational_rows(st.integers(0, 9), L, L))))


@st.composite
def weighted_sandpiles(draw, weights=st.integers(-9, 9)):
    """(weights, configuration) of equal size, with weights of either sign
    drawn from ``weights``: integers unless another strategy is given."""
    config = draw(sandpiles())
    return RatMatrix(draw(rational_rows(weights, config.size, config.size))), config


MIXED_WEIGHTS = (RatMatrix([[1, -7], [5, -1]]), SandConfig(((3, 1), (0, 7))))
ONE_SITE = (RatMatrix([[-7]]), SandConfig(((5,),)))
NON_INTEGER_WEIGHTS = (
    RatMatrix([[Fraction(1, 2), Fraction(-7, 3)], [5, Fraction(-1, 6)]]),
    SandConfig(((3, 1), (0, 7))),
)
NON_INTEGER_SITE = (RatMatrix([[Fraction(-7, 3)]]), SandConfig(((5,),)))


@small
@given(weighted_sandpiles())
@example(MIXED_WEIGHTS)
@example(ONE_SITE)
def test_phi_matches_fraction_sum(case):
    f, config = case
    value = phi(f, config)
    assert type(value) is Fraction
    assert value == naive_phi(f, config)
    assert 0 <= value < config.size


@small
@given(weighted_sandpiles(rationals))
@example(NON_INTEGER_WEIGHTS)
@example(NON_INTEGER_SITE)
def test_phi_rejects_non_integer_weights(case):
    f, config = case
    if all(v.denominator == 1 for row in f.rows for v in row):
        assert phi(f, config) == naive_phi(f, config)
    else:
        with pytest.raises(PreconditionError):
            phi(f, config)


@small
@given(sandpiles())
@example(SandConfig(((9,),)))
@example(SandConfig(((4, 0), (5, 9))))
@example(SandConfig(((4, 4), (4, 4))))
def test_step_matches_reference(config):
    after = step(config)
    expected = naive_step(config)
    assert after == expected
    assert hash(after) == hash(expected)
    assert all(type(h) is int for row in after.heights for h in row)


@small
@given(sandpiles())
def test_trusted_config_equals_validated(config):
    trusted = SandConfig._from_heights(config.heights)
    assert trusted == config
    assert hash(trusted) == hash(config)
    assert SandConfig(trusted.heights) == trusted


coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def term_maps(draw):
    """Exponent pair -> rational maps (zeros included, which the constructors
    drop): sparse random ones and the terms of harmonic combinations."""
    if draw(st.booleans()):
        exponents = st.tuples(st.integers(0, 7), st.integers(0, 7))
        return draw(st.dictionaries(exponents, coefficients, max_size=8))
    return dict(draw(polynomials()).terms())


def assert_canonical(P):
    """D > 0, no zero numerator, gcd(D, numerators) = 1; D = 1 when empty."""
    den, num = P._den, P._num
    assert type(den) is int and den > 0
    assert all(type(a) is int and type(b) is int for a, b in num)
    assert all(type(n) is int and n != 0 for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert num or den == 1


def assert_matches(P, oracle):
    assert_canonical(P)
    assert FractionPoly.of(P) == oracle
    assert all(type(c) is Fraction for _, c in P.terms())


# P - Q cancels to zero, so it must come out as D = 1 with no terms.
HALVES = ({(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 3)},) * 2
# P + Q = x^2 y + 1: the common denominator 6 must reduce to 1.
DENOMINATORS_CANCEL = (
    {(2, 1): Fraction(1, 6), (0, 0): Fraction(5, 6)},
    {(2, 1): Fraction(5, 6), (0, 0): Fraction(1, 6)},
)


@small
@given(term_maps(), term_maps(), coefficients, st.integers(0, 3))
@example(*HALVES, Fraction(0), 0)
@example(*DENOMINATORS_CANCEL, Fraction(-6, 5), 2)
@example({}, {(3, 3): Fraction(7, 4)}, Fraction(4, 7), 3)
def test_arithmetic_matches_fraction_oracle(p, q, c, n):
    P, Q = BiPoly(p), BiPoly(q)
    A, B = FractionPoly(p), FractionPoly(q)
    assert_matches(P, A)
    assert_matches(P + Q, A + B)
    assert_matches(P - Q, A - B)
    assert_matches(P - P, FractionPoly())
    assert_matches(-P, -A)
    assert_matches(P * Q, A * B)
    assert_matches(P * c, A * c)
    assert_matches(c * P, c * A)
    assert_matches(P * 3, A * 3)
    assert_matches(P + c, A + c)
    assert_matches(c - P, c - A)
    assert_matches(P**n, A**n)
    if c:
        assert_matches(P / c, A / c)
        assert_matches(P / -2, A / -2)
    else:
        with pytest.raises(ZeroDivisionError):
            P / c


# 2 (x + y/2) - 4 (x/2 + y/4) cancels: it must be D = 1 with no terms.
CANCELLING = [
    (2, {(1, 0): 1, (0, 1): Fraction(1, 2)}),
    (Fraction(-4), {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 4)}),
]
# Zero coefficients and denominators 1, 3, 4 and 6 in one combination.
MIXED = [
    (0, {(2, 0): Fraction(1, 6)}),
    (Fraction(5, 4), {(0, 0): 3}),
    (Fraction(-2, 3), {(1, 1): Fraction(1, 2)}),
    (0, {}),
]

# Both products have denominator 3 * 4 = 2 * 6 = 12, but the sum is 1/4: the
# lcm of the products is not the result's D = 4 until it is reduced.
UNREDUCED_LCM = [
    (Fraction(2, 3), {(1, 0): Fraction(3, 4)}),
    (Fraction(3, 2), {(1, 0): Fraction(-1, 3), (0, 0): Fraction(1, 6)}),
]


@small
@given(st.lists(st.tuples(st.one_of(coefficients, st.integers(-5, 5)), term_maps()), max_size=5))
@example(CANCELLING)
@example(MIXED)
@example(UNREDUCED_LCM)
@example([])
def test_linear_combination_matches_fraction_oracle(pairs):
    combined = _linear_combination([c for c, _ in pairs], [BiPoly(p) for _, p in pairs])
    assert_matches(combined, sum((c * FractionPoly(p) for c, p in pairs), FractionPoly()))


@small
@given(term_maps())
@example({})
@example({(2, 0): 1, (0, 2): -1})
@example(dict(tabulated_basis().elements[9].terms()))
def test_swap_and_laplacian_match_fraction_oracle(p):
    P, A = BiPoly(p), FractionPoly(p)
    assert_matches(P.swap_xy(), A.swap_xy())
    image = discrete_laplacian_poly(P)
    assert_matches(image, A.laplacian())
    assert is_discrete_harmonic(P) == (A.laplacian() == FractionPoly())
    assert is_discrete_harmonic(P) == image.is_zero


@small
@given(term_maps(), term_maps(), points, points)
@example({}, {}, 0, 0)
@example({(0, 0): Fraction(-7, 3)}, {(0, 0): Fraction(-7, 3)}, Fraction(1, 2), 5)
def test_evaluation_equality_and_output_match_fraction_oracle(p, q, x, y):
    P, Q = BiPoly(p), BiPoly(q)
    A, B = FractionPoly(p), FractionPoly(q)
    assert P.evaluate(x, y) == A.evaluate(x, y)
    assert (P == Q) == (A == B)
    assert P.sorted_terms() == A.sorted_terms()
    assert str(P) == str(BiPoly(dict(A.terms())))
    assert poly_to_json(P) == poly_to_json(A)
    assert P.degree == A.degree
    rebuilt = (P + Q) - Q
    assert rebuilt == P and hash(rebuilt) == hash(P)
    if P.degree <= 0:
        constant = P.coefficient(0, 0)
        assert P == constant and hash(P) == hash(constant) == hash(A)
