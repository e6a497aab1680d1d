import copy
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from dhpoly import InvariantError, complete, generate_basis, is_inner_harmonic
from dhpoly.linalg import _integer_solve

from helpers import (
    SingularMatrixError,
    nullspace,
    primitive,
    random_border,
    random_rational,
    rank,
    rref,
    solve,
)
from reference_data import BASE_SYSTEM_MATRIX, BASE_SYSTEM_RHS, MINOR_COEFFS


def random_system(rng, n):
    A = [[random_rational(rng, 1000, 1000) for _ in range(n)] for _ in range(n)]
    b = [random_rational(rng, 1000, 1000) for _ in range(n)]
    return A, b


class TestSolve:
    """The oracle's rational solve (helpers.solve), on its own elimination."""

    def test_identity(self):
        b = [Fraction(3), Fraction(-1, 2), Fraction(7, 3)]
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve(eye, b) == b

    def test_base_case_system(self):
        x = solve(BASE_SYSTEM_MATRIX, BASE_SYSTEM_RHS)
        assert tuple(x) == MINOR_COEFFS
        # re-substitute: independent confirmation of the frozen coefficients
        for row, t in zip(BASE_SYSTEM_MATRIX, BASE_SYSTEM_RHS):
            assert sum(a * v for a, v in zip(row, x)) == t

    def test_singular_raises_with_rank(self):
        with pytest.raises(SingularMatrixError) as err:
            solve([[1, 2], [2, 4]], [1, 0])
        assert err.value.rank == 1
        with pytest.raises(SingularMatrixError) as err:
            solve([[0]], [1])
        assert err.value.rank == 0

    def test_singular_rank_counts_later_pivots(self):
        with pytest.raises(SingularMatrixError) as err:
            solve([[1, 0, 0], [0, 0, 1], [0, 0, 2]], [1, 1, 1])
        assert err.value.rank == 2

    def test_random_systems_resubstitute(self):
        rng = random.Random(31)
        solved = 0
        while solved < 200:
            n = rng.randint(1, 20)
            A, b = random_system(rng, n)
            try:
                x = solve(A, b)
            except SingularMatrixError:
                continue
            for row, t in zip(A, b):
                assert sum(a * v for a, v in zip(row, x)) == t
            solved += 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve([[1, 2]], [1])
        with pytest.raises(ValueError):
            solve([[1]], [1, 2])

    def test_inputs_not_modified(self):
        A = [[Fraction(1, 2), 3, 0], [4, Fraction(-5, 3), 1], [0, 7, 2]]
        b = [1, Fraction(2, 3), -4]
        A_copy, b_copy = copy.deepcopy(A), list(b)
        x = solve(A, b)
        assert (A, b) == (A_copy, b_copy)
        assert x == solve(A_copy, b_copy)

    def test_rejects_floats_and_decimals(self):
        for value in (0.5, Decimal("0.5"), True, "1/2"):
            with pytest.raises(TypeError):
                solve([[value]], [1])
            with pytest.raises(TypeError):
                solve([[1]], [value])
            with pytest.raises(TypeError):
                nullspace([[value, 1]])
            with pytest.raises(TypeError):
                primitive([value, 1])


class TestIntegerSolve:
    """The one solve of the package, on square integer systems: (d, X) with
    A X = B / d over the least common denominator, d > 0; a singular A is a
    bug and raises InvariantError."""

    def test_sign_and_gcd_reduction(self):
        # the last pivot is -2 and 8 here: unsigned, or unreduced, d is wrong
        assert _integer_solve([[-2]], [[1]]) == (2, [[-1]])
        assert _integer_solve([[2, 0], [0, 4]], [[2, 4], [2, 0]]) == (2, [[2, 4], [1, 0]])
        assert _integer_solve([[0, -3], [5, 0]], [[3], [10]]) == (1, [[2], [-1]])

    def test_random_systems_several_columns(self):
        rng = random.Random(34)
        solved = 0
        while solved < 200:
            n, k = rng.randint(1, 12), rng.randint(1, 4)
            A = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            B = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(n)]
            try:
                columns = [solve(A, [b[j] for b in B]) for j in range(k)]
            except SingularMatrixError:
                continue
            d, X = _integer_solve(A, B)
            lcd = math.lcm(*(v.denominator for column in columns for v in column))
            assert (d, X) == (lcd, [[int(c[i] * lcd) for c in columns] for i in range(n)])
            exact = sympy.Matrix(A).LUsolve(sympy.Matrix(B))
            assert exact == sympy.Matrix(X) / d
            solved += 1

    def test_inputs_not_modified(self):
        A, B = [[2, 1], [1, 3]], [[1], [2]]
        _integer_solve(A, B)
        assert (A, B) == ([[2, 1], [1, 3]], [[1], [2]])

    @pytest.mark.parametrize(
        "A",
        [
            [[0, 1], [0, 2]],  # zero first column
            [[1, 2, 0], [3, 4, 0], [5, 6, 0]],  # zero last column
            [[1, 2, 3], [2, 5, 7], [2, 5, 7]],  # two equal rows below a good pivot
        ],
        ids=["zero-first-column", "zero-last-column", "equal-rows"],
    )
    def test_singular_raises_invariant_error(self, A):
        with pytest.raises(InvariantError):
            _integer_solve(A, [[1]] * len(A))


class TestFactor:
    """The elimination that factors A inside solve: the rank a singular A
    reports, and the shapes of A and b it rejects."""

    @pytest.mark.parametrize(
        "A, expected_rank",
        [([[0]], 0), ([[1, 2], [2, 4]], 1), ([[1, 0, 0], [0, 0, 1], [0, 0, 2]], 2)],
    )
    def test_singular_raises_with_true_rank(self, A, expected_rank):
        with pytest.raises(SingularMatrixError) as err:
            solve(A, [1] * len(A))
        assert err.value.rank == expected_rank

    def test_shape_validation(self):
        for A in ([], [[1, 2]], [[1, 2], [3]], [[1], [2]]):
            with pytest.raises(ValueError):
                solve(A, [1] * len(A))
        for b in ([1], [1, 2, 3]):
            with pytest.raises(ValueError):
                solve([[1, 0], [0, 1]], b)


class TestNullspace:
    def test_full_column_rank(self):
        assert nullspace([[1, 0], [0, 1], [1, 1]]) == []

    def test_rank_one(self):
        assert nullspace([[1, 2], [2, 4]]) == [(2, -1)]

    def test_zero_rows_matrix(self):
        basis = nullspace([], ncols=3)
        assert len(basis) == 3

    def test_kernel_properties(self):
        rng = random.Random(32)
        for _ in range(50):
            n = rng.randint(1, 7)
            m = rng.randint(1, 7)
            A = [[random_rational(rng) for _ in range(m)] for _ in range(n)]
            basis = nullspace(A)
            for v in basis:
                assert all(
                    sum(a * x for a, x in zip(row, v)) == 0 for row in A
                )
            assert rank(A) + len(basis) == m
            if basis:
                assert rank(basis) == len(basis)

    def test_impulse_system_has_kernel(self):
        # homogeneous system behind the first impulse polynomial, size 3:
        # the candidates have no constant term, so the row for (0, 0) is zero
        L = 3
        pool = [p for p in generate_basis(2 * L).elements if p.degree >= 1]
        points = [
            (x, y)
            for x in range(L)
            for y in range(L)
            if x in (0, L - 1) or y in (0, L - 1)
        ] + [(L - 1, L), (L, L), (L, 0), (L + 1, L)]
        rows = [[p.evaluate(*pt) for p in pool] for pt in points]
        assert all(v == 0 for v in rows[0])
        assert len(nullspace(rows)) >= 1


class TestDeterminism:
    def test_bitwise_identical_reruns(self):
        rng1 = random.Random(33)
        rng2 = random.Random(33)

        def run(rng):
            out = []
            for _ in range(10):
                n = rng.randint(2, 6)
                A = [[random_rational(rng) for _ in range(n)] for _ in range(n + 1)]
                reduced, pivots = rref(A)
                out.append(repr((reduced, pivots, nullspace(A))))
            return "".join(out)

        assert run(rng1) == run(rng2)


class TestCompletionSystemConditioning:
    @pytest.mark.parametrize("L", range(3, 11))
    def test_never_singular(self, L):
        # complete() inverts its (L-2) x (L-2) response matrix through
        # linalg._integer_solve, which raises InvariantError on a singular one
        rng = random.Random(L)
        assert is_inner_harmonic(complete(random_border(rng, L)))


class TestPrimitive:
    def test_scaling(self):
        assert primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)

    def test_sign_flip(self):
        assert primitive([Fraction(-2), Fraction(4)]) == (1, -2)

    def test_zero_vector(self):
        assert primitive([0, 0]) == (0, 0)
