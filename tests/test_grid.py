import math
import random
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from dhpoly import (
    BorderSpec,
    PreconditionError,
    RatMatrix,
    SandConfig,
    SizeError,
    X,
    border_positions,
    build_impulse_set,
    check_conservation,
    complete,
    discrete_laplacian_matrix,
    evaluate_on_lattice,
    generate_basis,
    interpolates,
    is_inner_harmonic,
    laplacian_monomial,
    lattice_to_matrix,
    matrix_to_lattice,
    orbit,
    phi,
    random_config,
    standard_gf,
    tabulated_basis,
)
from dhpoly.poly import BiPoly

from helpers import (
    naive_evaluate,
    nullspace,
    primitive,
    random_border,
    random_matrix,
    random_poly,
    rank,
    rref,
    solve,
)
from reference_data import (
    BILINEAR_INTERPOLANT,
    CUBIC_RESTRICTION_7X7,
    FULL_INTERPOLANT,
    MINOR_ON_4_LATTICE,
    SAMPLE_7X7,
    WORKED_4X4,
)


def naive_stencil(rows):
    """Independent re-implementation: stencil directly in display indices."""
    L = len(rows)
    return [
        [
            4 * rows[i][j] - rows[i - 1][j] - rows[i + 1][j] - rows[i][j - 1] - rows[i][j + 1]
            for j in range(1, L - 1)
        ]
        for i in range(1, L - 1)
    ]


def naive_stencil_zero(rows):
    return not any(any(row) for row in naive_stencil(rows))


def assert_stored_form(M, expected):
    """M's stored form (D, rows) holds the Fraction rows ``expected`` as int
    rows over D, and D is their least common denominator (canonical)."""
    den, rows = M._integer
    assert den == math.lcm(*(v.denominator for row in expected for v in row))
    assert all(type(v) is int for row in rows for v in row)
    assert [[Fraction(v, den) for v in row] for row in rows] == expected


class _One(IntEnum):
    ONE = 1


class _Ratio(Fraction):
    pass


def _np_int64():
    return pytest.importorskip("numpy").int64(3)


#: Values outside the one exactness gate: name -> (factory, is an integer).
NOT_EXACT = {
    "ratio-string": (lambda: "1/2", False),
    "IntEnum": (lambda: _One.ONE, True),
    "Fraction-subclass": (lambda: _Ratio(1, 2), False),
    "float": (lambda: 0.5, False),
    "Decimal": (lambda: Decimal("0.5"), False),
    "bool": (lambda: True, True),
    "numpy-int64": (_np_int64, True),
}

#: Every entry point that takes numbers, and the oracles of helpers that
#: read numbers through the same gate: name -> (call, integers only).
GATED = {
    "RatMatrix": (lambda v: RatMatrix([[v]]), False),
    "BorderSpec": (lambda v: BorderSpec(3, (0,) * 7 + (v,)), False),
    "BiPoly": (lambda v: BiPoly({(0, 0): v}), False),
    "X+v": (lambda v: X + v, False),
    "v+X": (lambda v: v + X, False),
    "X-v": (lambda v: X - v, False),
    "v-X": (lambda v: v - X, False),
    "X*v": (lambda v: X * v, False),
    "v*X": (lambda v: v * X, False),
    "X/v": (lambda v: X / v, False),
    "evaluate-x": (lambda v: X.evaluate(v, 0), False),
    "evaluate-y": (lambda v: X.evaluate(0, v), False),
    "solve-A": (lambda v: solve([[v]], [1]), False),
    "solve-b": (lambda v: solve([[1]], [v]), False),
    "rref": (lambda v: rref([[v]]), False),
    "rank": (lambda v: rank([[v]]), False),
    "nullspace": (lambda v: nullspace([[v]]), False),
    "primitive": (lambda v: primitive([v]), False),
    "SandConfig": (lambda v: SandConfig(((v,),)), True),
}


@pytest.mark.parametrize(
    "entry, value",
    [
        (entry, value)
        for entry, (_, integers_only) in GATED.items()
        for value, (_, integer) in NOT_EXACT.items()
        if integer or not integers_only
    ],
)
def test_exactness_gate(entry, value):
    """int and Fraction by exact type are the only numbers any entry point
    takes; text is read by formats, never by the constructors."""
    call, make = GATED[entry][0], NOT_EXACT[value][0]
    with pytest.raises(TypeError):
        call(make())


#: Counts of a wrong type: bool, float, text and numpy integers.
NOT_COUNTS = {
    "bool": lambda: True,
    "float": lambda: 2.0,
    "string": lambda: "3",
    "numpy-int64": _np_int64,
}

_CONFIG = SandConfig(((1, 2, 0), (3, 0, 1), (2, 2, 4)))

#: Every entry point that takes a size, degree or step count: name ->
#: (call, least count, exception below it).
COUNTED = {
    "RatMatrix.zero": (RatMatrix.zero, 1, SizeError),
    "RatMatrix.identity": (RatMatrix.identity, 1, SizeError),
    "lower_left_minor": (lambda n: WORKED_4X4.lower_left_minor(n), 1, SizeError),
    "evaluate_on_lattice": (lambda n: evaluate_on_lattice(X, n), 1, SizeError),
    "standard_gf": (lambda n: standard_gf(n, "i"), 1, SizeError),
    "BorderSpec": (lambda n: BorderSpec(n, (0,) * 8), 3, SizeError),
    "border_positions": (border_positions, 3, SizeError),
    "build_impulse_set": (build_impulse_set, 3, SizeError),
    "random_config-L": (lambda n: random_config(n, 1), 1, SizeError),
    "random_config-max_height": (lambda n: random_config(3, 1, n), 0, ValueError),
    "orbit": (lambda n: orbit(_CONFIG, n), 0, PreconditionError),
    "check_conservation": (
        lambda n: check_conservation(standard_gf(3, "i"), _CONFIG, n), 0, PreconditionError
    ),
    "BiPoly-x": (lambda n: BiPoly({(n, 0): 1}), 0, ValueError),
    "BiPoly-y": (lambda n: BiPoly({(0, n): 1}), 0, ValueError),
    "monomial": (lambda n: BiPoly.monomial(0, n), 0, ValueError),
    "pow": (lambda n: X**n, 0, ValueError),
    "generate_basis": (generate_basis, 0, ValueError),
    "laplacian_monomial": (laplacian_monomial, 0, ValueError),
}


@pytest.mark.parametrize("entry", COUNTED)
@pytest.mark.parametrize("value", NOT_COUNTS)
def test_count_gate_type(entry, value):
    """Sizes, degrees and step counts are ints by exact type, like values."""
    with pytest.raises(TypeError):
        COUNTED[entry][0](NOT_COUNTS[value]())


@pytest.mark.parametrize("entry", COUNTED)
def test_count_gate_minimum(entry):
    """A count below the minimum keeps the entry point's own exception, and
    the message names the count and the bound; the minimum itself passes."""
    call, least, error = COUNTED[entry]
    with pytest.raises(error) as caught:
        call(least - 1)
    assert caught.type is error
    assert f"{least - 1} is below the minimum {least}" in str(caught.value)
    call(least)


def test_fixed_width_integers_are_rejected():
    # In int64 the stencil at a centre of 2**62 is 2**64, which wraps to 0, so
    # this matrix would read as inner-harmonic; in Python ints it is not.
    np = pytest.importorskip("numpy")
    with pytest.raises(TypeError):
        RatMatrix([[np.int64(v) for v in row] for row in ((0, 0, 0), (0, 2**62, 0), (0, 0, 0))])
    assert not is_inner_harmonic(RatMatrix([[0, 0, 0], [0, 2**62, 0], [0, 0, 0]]))


class TestCorrespondence:
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
    def test_round_trip(self, L):
        for i in range(1, L + 1):
            for j in range(1, L + 1):
                x, y = matrix_to_lattice(i, j, L)
                assert lattice_to_matrix(x, y, L) == (i, j)

    def test_lower_left_corner_maps_to_origin(self):
        assert matrix_to_lattice(5, 1, 5) == (0, 0)

    def test_upper_right_corner(self):
        assert matrix_to_lattice(1, 6, 6) == (5, 5)

    def test_worked_example_entry(self):
        # evaluating the full interpolant at (0, 1) gives display entry (3, 1)
        assert matrix_to_lattice(3, 1, 4) == (0, 1)
        assert FULL_INTERPOLANT.evaluate(0, 1) == WORKED_4X4.entry(3, 1) == 1

    @pytest.mark.parametrize("pos", [(0, 1), (1, 0), (5, 1), (1, 5)])
    def test_out_of_range(self, pos):
        with pytest.raises(IndexError):
            matrix_to_lattice(pos[0], pos[1], 4)
        with pytest.raises(IndexError):
            lattice_to_matrix(-1, 0, 4)
        with pytest.raises(IndexError):
            lattice_to_matrix(0, 4, 4)

    @pytest.mark.parametrize("value", ["bool", "float", "numpy-int64"])
    def test_positions_pass_the_exact_int_gate(self, value):
        """A position is an int by exact type, like a count: True is not row
        1 and 1.5 is no column."""
        v = {**NOT_COUNTS, "float": lambda: 1.5}[value]()
        H = RatMatrix.identity(3)
        for read in (
            lambda: matrix_to_lattice(v, 1, 3),
            lambda: matrix_to_lattice(1, v, 3),
            lambda: lattice_to_matrix(v, 0, 3),
            lambda: lattice_to_matrix(0, v, 3),
            lambda: H.entry(v, 1),
            lambda: H.entry(1, v),
            lambda: H.at(v, 0),
            lambda: H.at(0, v),
            lambda: _CONFIG.at(v, 0),
        ):
            with pytest.raises(TypeError):
                read()

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_size_passes_the_count_gate(self, value):
        size = {**NOT_COUNTS, "float": lambda: 2.5}[value]()
        for convert in (matrix_to_lattice, lattice_to_matrix):
            with pytest.raises(TypeError):
                convert(1, 1, size)

    def test_reads_out_of_range(self):
        H = RatMatrix([[1, 2], [3, 4]])
        for i, j in [(0, 1), (1, 0), (3, 1), (1, 3)]:
            with pytest.raises(IndexError):
                H.entry(i, j)
        for x, y in [(-1, 0), (0, -1), (2, 0), (0, 2)]:
            with pytest.raises(IndexError):
                H.at(x, y)


class TestRatMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(SizeError):
            RatMatrix([[1, 2], [3]])
        with pytest.raises(SizeError):
            RatMatrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_floats(self):
        for value in (0.5, "0.5", "1e3", Decimal("0.5"), True):
            with pytest.raises(TypeError):
                RatMatrix([[value]])

    def test_rejects_integer_and_ratio_strings(self):
        # Text is read by formats.parse_matrix / parse_rational, never here.
        for value in ("-3", "1/2", " 4 "):
            with pytest.raises(TypeError):
                RatMatrix([[value]])

    def test_lattice_access(self):
        H = RatMatrix([[1, 2], [3, 4]])
        assert H.at(0, 0) == 3
        assert H.at(1, 1) == 2

    def test_lower_left_minor(self):
        assert WORKED_4X4.lower_left_minor(3).rows == (
            (8, 2, -16),
            (1, -2, -11),
            (-3, 0, 0),
        )
        assert WORKED_4X4.lower_left_minor(4) == WORKED_4X4

    def test_lower_left_minor_matches_fraction_rows(self):
        """Each minor of a seeded rational matrix is the block of its
        Fraction rows, stored in canonical form, whether the matrix was
        built from Fractions or from ints."""
        rng = random.Random(102)
        for _ in range(20):
            L = rng.randint(1, 7)
            H = random_matrix(rng, L, max_num=30, max_den=12)
            for source in (H, RatMatrix._from_ints(*H._integer)):
                for m in range(1, L + 1):
                    assert_stored_form(
                        source.lower_left_minor(m), [list(row[:m]) for row in H.rows[L - m:]]
                    )

    def test_minor_denominators_shrink(self):
        H = RatMatrix(
            [
                [Fraction(1, 6), Fraction(5, 3), 7],
                [Fraction(1, 2), 2, Fraction(1, 3)],
                [Fraction(3, 2), -6, 4],
            ]
        )
        assert H._integer[0] == 6
        assert H.lower_left_minor(2)._integer == (2, ((1, 4), (3, -12)))
        assert H.lower_left_minor(1)._integer == (2, ((3,),))
        assert RatMatrix([[Fraction(1, 2), 1], [4, 3]]).lower_left_minor(1)._integer == (1, ((4,),))

    def test_hash_and_set_membership(self):
        H = RatMatrix([[1, Fraction(1, 2)], [3, 4]])
        same = RatMatrix([[Fraction(1), Fraction(2, 4)], [Fraction(3), 4]])
        assert hash(H) == hash(same)
        assert {H, same, RatMatrix.identity(2)} == {H, RatMatrix.identity(2)}
        assert {H: "h"}[same] == "h"


class TestLaplacianMatrix:
    def test_sample_is_flat(self):
        assert discrete_laplacian_matrix(SAMPLE_7X7) == RatMatrix.zero(5)

    def test_identity(self):
        assert discrete_laplacian_matrix(RatMatrix.identity(3)) == RatMatrix([[4]])

    def test_minor_interpolant_restriction_is_flat(self):
        assert discrete_laplacian_matrix(MINOR_ON_4_LATTICE) == RatMatrix.zero(2)

    def test_too_small(self):
        with pytest.raises(SizeError):
            discrete_laplacian_matrix(RatMatrix([[1, 2], [3, 4]]))

    def test_linearity(self):
        rng = random.Random(101)
        for _ in range(25):
            L = rng.randint(3, 6)
            A = random_matrix(rng, L)
            B = random_matrix(rng, L)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            combo = RatMatrix(
                [
                    [a * A.rows[i][j] + b * B.rows[i][j] for j in range(L)]
                    for i in range(L)
                ]
            )
            lapA = discrete_laplacian_matrix(A)
            lapB = discrete_laplacian_matrix(B)
            expect = RatMatrix(
                [
                    [a * lapA.rows[i][j] + b * lapB.rows[i][j] for j in range(L - 2)]
                    for i in range(L - 2)
                ]
            )
            assert discrete_laplacian_matrix(combo) == expect

    def test_matches_fraction_row_stencil(self):
        """On seeded rational matrices, the stencil taken on the integer form
        equals the stencil taken on the Fraction rows, in canonical form."""
        rng = random.Random(103)
        for _ in range(30):
            H = random_matrix(rng, rng.randint(3, 8), max_num=40, max_den=rng.choice((1, 4, 12)))
            assert_stored_form(discrete_laplacian_matrix(H), naive_stencil(H.to_lists()))

    def test_denominators_shrink(self):
        """Stencil values can share a factor with the denominator; it goes."""
        q, s = Fraction(1, 4), Fraction(1, 6)
        H = RatMatrix([[0, q, 0], [q, Fraction(1, 2), q], [0, 3 * q, 0]])
        assert H._integer[0] == 4
        assert discrete_laplacian_matrix(H)._integer == (2, ((1,),))
        H = RatMatrix([[0, s, 0], [s, Fraction(1, 2), s], [0, 3 * s, 0]])
        assert H._integer[0] == 6
        assert discrete_laplacian_matrix(H)._integer == (1, ((1,),))

    def test_reads_no_fraction_rows(self):
        """The stencil of a matrix stored in integers builds no Fraction rows,
        on the input or on the result."""
        rng = random.Random(104)
        for L in (3, 5, 9):
            H = complete(random_border(rng, L))
            lap = discrete_laplacian_matrix(H)
            assert lap._integer == (1, ((0,) * (L - 2),) * (L - 2))
            assert H._rows is None and lap._rows is None


class TestInnerHarmonic:
    def test_sample(self):
        assert is_inner_harmonic(SAMPLE_7X7)

    def test_zero(self):
        assert is_inner_harmonic(RatMatrix.zero(3))

    def test_identity_is_not(self):
        assert not is_inner_harmonic(RatMatrix.identity(3))

    def test_small_sizes_rejected(self):
        with pytest.raises(SizeError):
            is_inner_harmonic(RatMatrix([[1]]))
        with pytest.raises(SizeError):
            is_inner_harmonic(RatMatrix.zero(2))

    def test_agrees_with_naive_stencil(self):
        rng = random.Random(202)
        outcomes = []

        def check(H):
            outcomes.append(is_inner_harmonic(H))
            assert outcomes[-1] == naive_stencil_zero(H.to_lists())

        for _ in range(60):
            check(random_matrix(rng, rng.randint(3, 6), max_num=10**6, max_den=10**6))
        # Inner-harmonic matrices over mixed denominators, and each of them
        # with one inner entry moved by 1/q for a prime q dividing none of its
        # denominators: a check that dropped a denominator would get one of
        # the pair wrong.
        mixed = 0
        for _ in range(30):
            L = rng.randint(3, 8)
            H = complete(random_border(rng, L, max_num=10**3, max_den=60))
            rows = H.to_lists()
            dens = {v.denominator for row in rows for v in row}
            mixed += len(dens) > 1
            primes = (p for p in range(2, 10**4) if all(p % k for k in range(2, p)))
            q = next(p for p in primes if all(d % p for d in dens))
            rows[rng.randint(1, L - 2)][rng.randint(1, L - 2)] += Fraction(rng.choice((1, -1)), q)
            check(H)
            check(RatMatrix(rows))
        assert mixed > 0
        assert outcomes.count(True) == 30 and outcomes.count(False) == 90


class TestEvaluateOnLattice:
    def test_full_interpolant_reproduces_worked_example(self):
        assert evaluate_on_lattice(FULL_INTERPOLANT, 4) == WORKED_4X4

    def test_zero_polynomial(self):
        assert evaluate_on_lattice(BiPoly.zero(), 5) == RatMatrix.zero(5)

    def test_xy_on_3_lattice(self):
        xy = BiPoly.monomial(1, 1)
        assert evaluate_on_lattice(xy, 3) == RatMatrix([[0, 2, 4], [0, 1, 2], [0, 0, 0]])

    def test_cubic_restriction(self):
        cubic = tabulated_basis().elements[5]  # y^3 - 3x^2 y
        assert evaluate_on_lattice(cubic, 7) == CUBIC_RESTRICTION_7X7

    @pytest.mark.parametrize("L", range(3, 10))
    def test_harmonic_polynomials_restrict_to_harmonic_matrices(self, L):
        for p in tabulated_basis().elements:
            assert is_inner_harmonic(evaluate_on_lattice(p, L))

    def test_size_must_be_positive(self):
        with pytest.raises(SizeError):
            evaluate_on_lattice(BiPoly.zero(), 0)

    @pytest.mark.parametrize(
        "max_degree, n_terms, sizes",
        [
            (0, 1, (1, 2)),
            (3, 4, (1, 2, 5)),
            (6, 8, (1, 3, 7)),
            (12, 20, (4, 9)),
            (46, 60, (1, 6, 11)),
        ],
    )
    def test_matches_naive_evaluate_at_every_site(self, max_degree, n_terms, sizes):
        """Each entry equals the term-by-term Fraction sum at its site, for
        rational and negative coefficients up to the largest degree the CLI
        reads (46); the kept integer form is the canonical one RatMatrix
        builds from those Fractions.  evaluate runs first, at a Fraction and
        a negative point, so the restriction reads the Horner table that
        evaluate built."""
        rng = random.Random(900 + max_degree)
        for _ in range(4):
            P = random_poly(rng, max_degree, n_terms, max_num=10**4, max_den=60)
            for point in ((Fraction(-3, 7), Fraction(5, 2)), (-2, -5)):
                assert P.evaluate(*point) == naive_evaluate(P, *point)
            for L in sizes:
                M = evaluate_on_lattice(P, L)
                expected = [
                    [naive_evaluate(P, x, y) for x in range(L)] for y in range(L - 1, -1, -1)
                ]
                assert [list(row) for row in M.rows] == expected
                assert M._integer == RatMatrix(expected)._integer

    @pytest.mark.parametrize("L", [1, 2, 6])
    def test_zero_polynomial_matches_naive_evaluate(self, L):
        Z = BiPoly.zero()
        M = evaluate_on_lattice(Z, L)
        assert M._integer == (1, ((0,) * L,) * L)
        assert M.rows == ((naive_evaluate(Z, 0, 0),) * L,) * L

    def test_integer_form_is_canonical(self):
        """(x^2 - x)/2 takes integer values only, so its restriction has
        denominator 1 although the polynomial's is 2; phi accepts it."""
        P = (X**2 - X) / 2
        assert P._den == 2
        M = evaluate_on_lattice(P, 5)
        den, rows = M._integer
        assert den == 1
        assert rows[-1] == (0, 0, 1, 3, 6)
        config = random_config(5, 3)
        assert phi(M, config) == phi(RatMatrix(M.rows), config)
        # An odd-valued polynomial over 4 keeps the 4; a shared factor 3 of all values goes.
        assert evaluate_on_lattice((3 * X + 3) / 4, 2)._integer == (4, ((3, 6), (3, 6)))

    def test_weights_are_never_built_as_fractions(self):
        f = standard_gf(24, "i2-j2")
        phi(f, random_config(24, 5))
        assert f._rows is None
        assert f.size == 24
        assert f == RatMatrix(f.rows) and hash(f) == hash(RatMatrix(f.to_lists()))


class TestInterpolates:
    def test_full_interpolant(self):
        assert interpolates(FULL_INTERPOLANT, WORKED_4X4)

    def test_bilinear_interpolant(self):
        assert interpolates(BILINEAR_INTERPOLANT, WORKED_4X4)

    def test_zero_does_not_interpolate_sample(self):
        assert not interpolates(BiPoly.zero(), SAMPLE_7X7)

    def test_agrees_with_fraction_row_comparison(self):
        """On matching pairs and on pairs that differ at one site by 1/q,
        including q dividing neither denominator, interpolates answers as a
        comparison of the naive Fraction rows does."""
        rng = random.Random(77)
        answers = []
        for _ in range(30):
            P = random_poly(rng, max_degree=rng.randint(0, 10), n_terms=6, max_num=50, max_den=12)
            L = rng.randint(1, 7)
            naive = [[naive_evaluate(P, x, y) for x in range(L)] for y in range(L - 1, -1, -1)]
            rows = [row[:] for row in naive]
            if rng.random() < 0.5:
                step = Fraction(rng.choice((1, -1)), rng.choice((1, 2, 7)))
                rows[rng.randrange(L)][rng.randrange(L)] += step
            H = RatMatrix(rows)
            answers.append(interpolates(P, H))
            assert answers[-1] == (H.rows == tuple(map(tuple, naive)))
        assert 5 < answers.count(True) < 25
