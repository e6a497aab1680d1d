import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from dhpoly import (
    BiPoly,
    X,
    Y,
    discrete_laplacian_poly,
    evaluate_on_lattice,
    generate_basis,
    is_discrete_harmonic,
    laplacian_monomial,
    tabulated_basis,
)
from dhpoly.formats import poly_to_json

from helpers import (
    FractionPoly,
    naive_evaluate,
    nullspace_basis,
    random_poly,
    random_rational,
    rank,
)
from reference_data import BILINEAR_INTERPOLANT

#: SHA-256 of the JSON lines of generate_basis(48), the basis that
#: build_impulse_set(24) reads: it pins the elements past the oracle's N <= 22.
BASIS_48_SHA256 = "f4348d670e08651f8daa77120d5d141e6c7510322bbe157fecc04daa032c7ea5"


def sympy_laplacian(P):
    """Independent symbolic oracle for the stencil identity."""
    x, y = sympy.symbols("x y")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**a * y**b
        for (a, b), c in P.terms()
    )
    image = sympy.expand(
        4 * expr
        - expr.subs(x, x - 1)
        - expr.subs(x, x + 1)
        - expr.subs(y, y - 1)
        - expr.subs(y, y + 1)
    )
    poly = sympy.Poly(image, x, y) if image != 0 else None
    if poly is None:
        return BiPoly.zero()
    return BiPoly(
        {
            (int(a), int(b)): Fraction(int(c.p), int(c.q))
            for (a, b), c in zip(poly.monoms(), [sympy.Rational(v) for v in poly.coeffs()])
        }
    )


class TestBiPoly:
    def test_arithmetic_and_equality(self):
        p = (X + Y) * (X - Y)
        assert p == X**2 - Y**2
        assert p - p == BiPoly.zero()
        assert (X * Y) ** 2 == X**2 * Y**2

    def test_zero_degree_is_minus_one(self):
        assert BiPoly.zero().degree == -1
        assert BiPoly.constant(5).degree == 0
        assert (X**2 * Y).degree == 3

    def test_no_zero_terms_stored(self):
        p = X + (-1) * X
        assert not list(p.terms())

    def test_evaluate_exact(self):
        p = X**3 - 3 * X * Y**2
        assert p.evaluate(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 8) - Fraction(1, 6)

    def test_rejects_floats(self):
        for coeff in (0.5, Decimal("0.1"), True, "0.5"):
            with pytest.raises(TypeError):
                BiPoly({(0, 0): coeff})
        for exponents in ((2.5, 0), (True, 0), (0, False)):
            with pytest.raises(TypeError):
                BiPoly({exponents: 1})
        with pytest.raises(TypeError):
            X**True
        with pytest.raises(TypeError):
            X.evaluate(0.5, 1)

    @pytest.mark.parametrize("P", [BiPoly.zero(), BiPoly.constant(3), X])
    @pytest.mark.parametrize("point", [Decimal("0.5"), "abc", None])
    def test_evaluate_rejects_non_rational_points(self, P, point):
        for args in ((point, 1), (1, point)):
            with pytest.raises(TypeError):
                P.evaluate(*args)

    def test_swap(self):
        assert (X**2 * Y).swap_xy() == X * Y**2

    def test_derived_polynomials_do_not_inherit_the_evaluation_form(self):
        """Neither evaluate nor the lattice restriction of a polynomial made
        from P reads P's Horner table, built here before any is made."""
        P = Fraction(3, 4) * X**3 * Y - Fraction(1, 6) * Y**2 + 2
        Q = Fraction(-5, 7) * X * Y**4 + X**2 - Fraction(1, 3)
        P.evaluate(2, -3)
        derived = (P + Q, -P, P - Q, P * Q, 3 * P, P / 2, P**2, P.swap_xy())
        for R in derived:
            for x, y in ((2, -3), (-1, 4), (Fraction(1, 2), 3)):
                assert R.evaluate(x, y) == naive_evaluate(R, x, y)
        for R in derived:
            M = evaluate_on_lattice(R, 4)
            assert [[M.at(x, y) for x in range(4)] for y in range(4)] == [
                [naive_evaluate(R, x, y) for x in range(4)] for y in range(4)
            ]

    def test_equal_values_hash_equal(self):
        assert hash(BiPoly.constant(3)) == hash(3)
        assert hash(BiPoly.constant(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert hash(BiPoly.zero()) == hash(0)
        assert hash((X + Y) * (X - Y)) == hash(X**2 - Y**2)
        assert hash(X.swap_xy()) == hash(Y)

    def test_set_members_and_dict_keys(self):
        assert {X**2 - Y**2, (X - Y) * (X + Y), BiPoly.constant(3), 3} == {
            X**2 - Y**2,
            BiPoly.constant(3),
        }
        table = {X * Y: "xy", BiPoly.zero(): "zero"}
        assert table[Y * X] == "xy"
        assert table[0] == "zero"

    def test_bools_are_not_constants(self):
        one = BiPoly.constant(1)
        assert hash(one) == hash(True)
        assert (one == True) is False  # noqa: E712
        assert (one != True) is True  # noqa: E712
        assert (BiPoly.zero() == False) is False  # noqa: E712
        assert {one: "a"}.get(True) is None
        assert True not in [one]
        assert one == 1 and {one: "a"}.get(1) == "a"
        for operation in (
            lambda: X * True,
            lambda: True * X,
            lambda: X * False,
            lambda: X / True,
            lambda: X + True,
            lambda: False - X,
            lambda: X.evaluate(True, 1),
            lambda: X.evaluate(1, False),
        ):
            with pytest.raises(TypeError):
                operation()

    def test_other_operands_are_not_implemented(self):
        assert X.__mul__("2") is NotImplemented
        for operation in (lambda: X + 1.5, lambda: X / Decimal(2)):
            with pytest.raises(TypeError):
                operation()


class TestLaplacianMonomial:
    def test_squares(self):
        assert laplacian_monomial(2, "x") == BiPoly.constant(-2)

    def test_cube(self):
        assert laplacian_monomial(3, "x") == -6 * X

    def test_linear_is_flat(self):
        assert laplacian_monomial(1, "y").is_zero
        assert laplacian_monomial(0, "x").is_zero

    @pytest.mark.parametrize("n", range(11))
    def test_matches_direct_expansion(self, n):
        # 2v^n - (v-1)^n - (v+1)^n via binomial expansion, independently
        direct = {}
        for k in range(n + 1):
            c = -sympy.binomial(n, k) * ((-1) ** (n - k) + 1)
            if c and k != n:
                direct[(k, 0)] = Fraction(int(c))
        assert laplacian_monomial(n, "x") == BiPoly(direct)


class TestDiscreteLaplacian:
    def test_quartic_harmonic_element(self):
        p = X**4 - 2 * X**2 - 6 * X**2 * Y**2 + Y**4
        assert discrete_laplacian_poly(p).is_zero

    def test_continuum_harmonic_but_not_discrete(self):
        p = X**4 - 6 * X**2 * Y**2 + Y**4
        assert discrete_laplacian_poly(p) == BiPoly.constant(-4)

    def test_bilinear_interpolant_not_flat(self):
        assert not discrete_laplacian_poly(BILINEAR_INTERPOLANT).is_zero

    def test_degree_drops_by_two(self):
        rng = random.Random(7)
        for _ in range(1000):
            p = random_poly(rng, max_degree=12, n_terms=6)
            image = discrete_laplacian_poly(p)
            assert image.degree <= max(p.degree - 2, -1)

    def test_linearity(self):
        rng = random.Random(8)
        for _ in range(50):
            p = random_poly(rng)
            q = random_poly(rng)
            a = random_rational(rng)
            b = random_rational(rng)
            assert discrete_laplacian_poly(a * p + b * q) == (
                a * discrete_laplacian_poly(p) + b * discrete_laplacian_poly(q)
            )

    def test_monomial_product_rule(self):
        for a in range(11):
            for b in range(11):
                m = BiPoly.monomial(a, b)
                expected = (
                    BiPoly.monomial(a, 0) * laplacian_monomial(b, "y")
                    + BiPoly.monomial(0, b) * laplacian_monomial(a, "x")
                )
                assert discrete_laplacian_poly(m) == expected

    def test_stencil_consistency_at_points(self):
        rng = random.Random(9)
        p = random_poly(rng, max_degree=7, n_terms=10)
        image = discrete_laplacian_poly(p)
        for _ in range(100):
            u = random_rational(rng)
            v = random_rational(rng)
            direct = (
                4 * p.evaluate(u, v)
                - p.evaluate(u - 1, v)
                - p.evaluate(u + 1, v)
                - p.evaluate(u, v - 1)
                - p.evaluate(u, v + 1)
            )
            assert image.evaluate(u, v) == direct

    def test_against_symbolic_oracle(self):
        rng = random.Random(10)
        for _ in range(20):
            p = random_poly(rng, max_degree=8, n_terms=7)
            assert discrete_laplacian_poly(p) == sympy_laplacian(p)


class TestIsDiscreteHarmonic:
    def test_xy(self):
        assert is_discrete_harmonic(X * Y)

    def test_cubes_are_not(self):
        assert not is_discrete_harmonic(X**3 + Y**3)

    def test_all_tabulated_elements(self):
        for p in tabulated_basis().elements:
            assert is_discrete_harmonic(p)


def coefficient_vectors(polys):
    monos = sorted({key for p in polys for key, _ in p.terms()})
    return [[p.coefficient(*m) for m in monos] for p in polys]


class TestGenerateBasis:
    @pytest.mark.parametrize("N", range(10))
    def test_count_and_harmonicity(self, N):
        basis = generate_basis(N)
        assert len(basis) == 2 * N + 1
        for p in basis:
            assert is_discrete_harmonic(p)

    @pytest.mark.parametrize("N", range(10))
    def test_degree_slices(self, N):
        basis = generate_basis(N)
        assert len(basis.of_degree(0)) == 1
        for k in range(1, N + 1):
            assert len(basis.of_degree(k)) == 2

    def test_linear_independence(self):
        basis = generate_basis(9)
        assert rank(coefficient_vectors(basis.elements)) == 19

    def test_degree_one(self):
        basis = generate_basis(1)
        assert basis.elements == (BiPoly.constant(1), X, Y)

    def test_degree_two_slice(self):
        slice2 = generate_basis(2).of_degree(2)
        vectors = coefficient_vectors(list(slice2) + [X * Y, X**2 - Y**2])
        assert rank(vectors) == 2

    def test_spans_tabulated(self):
        basis = generate_basis(9)
        base_vectors = coefficient_vectors(basis.elements)
        base_rank = rank(base_vectors)
        for u in tabulated_basis().elements:
            vectors = coefficient_vectors(list(basis.elements) + [u])
            assert rank(vectors) == base_rank

    def test_primitive_normalization(self):
        for p in generate_basis(6).elements:
            coeffs = [c for _, c in p.sorted_terms()]
            assert all(c.denominator == 1 for c in coeffs)
            from math import gcd
            assert gcd(*(abs(c.numerator) for c in coeffs)) == 1

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            generate_basis(-1)

    @pytest.mark.parametrize("N", [True, 2.0])
    def test_non_int_degree_rejected(self, N):
        with pytest.raises(TypeError):
            generate_basis(N)


@pytest.fixture(scope="module")
def nullspace_basis_22():
    return nullspace_basis(22)


def assert_same_elements(elements, reference):
    assert [dict(p.terms()) for p in elements] == [dict(p.terms()) for p in reference]
    assert [poly_to_json(p) for p in elements] == [poly_to_json(p) for p in reference]


class TestClosedFormBasis:
    """generate_basis against the Laplacian-nullspace construction."""

    @pytest.mark.parametrize("N", range(23))
    def test_matches_sliced_oracle(self, N, nullspace_basis_22):
        assert_same_elements(generate_basis(N).elements, nullspace_basis_22.elements[: 2 * N + 1])

    @pytest.mark.parametrize("N", range(13))
    def test_matches_oracle(self, N):
        basis = generate_basis(N)
        assert basis.max_degree == N
        assert_same_elements(basis.elements, nullspace_basis(N).elements)

    def test_prefix_of_largest_basis(self):
        largest = generate_basis(32).elements
        for N in range(33):
            assert generate_basis(N).elements == largest[: 2 * N + 1]

    def test_no_zero_coefficients(self):
        for p in generate_basis(32):
            assert all(c != 0 for _, c in p.terms())

    def test_harmonic_to_degree_24(self):
        # The binomial-expansion Laplacian of FractionPoly never reads the
        # stencil table that generate_basis and is_discrete_harmonic share.
        for p in generate_basis(24):
            assert is_discrete_harmonic(p)
            assert not FractionPoly.of(p).laplacian().terms()

    def test_digest_to_degree_48(self):
        text = "\n".join(poly_to_json(p) for p in generate_basis(48).elements)
        assert hashlib.sha256(text.encode()).hexdigest() == BASIS_48_SHA256


class TestTabulatedBasis:
    def test_structure(self):
        basis = tabulated_basis()
        assert basis.max_degree == 9
        assert len(basis) == 19

    def test_element_zero(self):
        assert tabulated_basis().elements[0] == BiPoly.constant(1)

    def test_element_eight(self):
        expected = X**4 - 2 * X**2 - 6 * X**2 * Y**2 + Y**4
        assert tabulated_basis().elements[8] == expected

    def test_element_eleven(self):
        F = Fraction
        expected = X**5 * Y - F(10, 3) * X**3 * Y**3 - F(10, 3) * X * Y**3 + X * Y**5
        assert tabulated_basis().elements[11] == expected

    def test_degrees_graded(self):
        degs = [p.degree for p in tabulated_basis().elements]
        assert degs == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9]
