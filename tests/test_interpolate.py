import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
import sympy

from dhpoly import (
    BiPoly,
    ImpulseSet,
    InvariantError,
    PreconditionError,
    RatMatrix,
    SizeError,
    X,
    Y,
    bilinear,
    build_impulse_set,
    complete,
    evaluate_on_lattice,
    extend,
    extension_coefficients,
    generate_basis,
    interpolate_3x3,
    interpolates,
    is_discrete_harmonic,
    is_inner_harmonic,
    linalg,
    tabulated_basis,
    telescopic,
)
from dhpoly.formats import poly_to_json
from dhpoly.interpolate import (
    _BASE_BASIS,
    _BASIS_4,
    _base_cardinals,
    _base_stage,
    _block_border_sites,
    _cardinals,
    _extend,
    _verify_impulse,
)
from dhpoly.poly import _primitive_poly

from helpers import (
    corrupt_dipole,
    lagrange_bilinear,
    random_border,
    random_inner_harmonic,
    random_matrix,
    residual_impulse_set,
    residual_span,
    search_impulse_set,
    solve,
    solve_3x3,
    stage_telescopic,
    sum_extend,
)
from reference_data import (
    BILINEAR_INTERPOLANT,
    FULL_INTERPOLANT,
    MINOR_INTERPOLANT,
    MINOR_ON_4_LATTICE,
    REFERENCE_IMPULSES,
    REFERENCE_Z,
    WORKED_4X4,
    WORKED_MINOR_3X3,
)


#: SHA-256 digests of deterministic outputs, pinned like the criterion-9
#: transcript (see TestBuildImpulseSet and TestBilinear).
IMPULSE_SETS_SHA256 = "ad29b15b65ed8552f6763cf2782ca4955b39f87e42a644718cd8e04e9049c82e"
LARGE_IMPULSE_SETS_SHA256 = "2e6418da4078d9e9aaab40fe6a78946453bc9dcf091aa2eebe517b7cd5d9a707"
BILINEAR_SHA256 = "acc06bf3ac0d886096ca380bf03e89347bdca8a346d5c2e3509cf22a2f18a124"


def impulse_sets_digest(sizes):
    parts = []
    for L in sizes:
        impulses = build_impulse_set(L)
        parts.extend(poly_to_json(p) for p in impulses.polys)
        parts.append(repr(impulses.values))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def sympy_rational(v):
    return sympy.Rational(v.numerator, v.denominator)


def assert_cardinal(cardinals, sites):
    # cardinal k is 1 at sites[k] and 0 at every other site
    assert len(cardinals) == len(sites)
    for k, c in enumerate(cardinals):
        assert [c.evaluate(x, y) for x, y in sites] == [int(i == k) for i in range(len(sites))]


class TestCardinals:
    def test_base_sites(self):
        sites = _block_border_sites(3)
        assert_cardinal(_cardinals(_BASE_BASIS, sites), sites)
        assert _base_cardinals() == _cardinals(_BASE_BASIS, sites)

    @pytest.mark.parametrize("L", range(3, 9))
    def test_impulse_kernel_at_step_sites(self, L):
        # the span is the five residuals of the last canonical elements of
        # degree <= 2L: discrete harmonic, zero on the whole L-lattice; their
        # cardinals at the step sites are the impulses 0, 1 and 3
        span = residual_span(L)
        assert len(span) == 5
        for r, e in zip(span, generate_basis(2 * L).elements[-5:]):
            assert is_discrete_harmonic(r) and r.degree <= 2 * L
            assert evaluate_on_lattice(r, L) == RatMatrix.zero(L)
            assert r == e - telescopic(evaluate_on_lattice(e, L))
        sites, zeros = [(0, L), (L, L), (L - 1, L)], [(L, 0), (L + 1, L)]
        cardinals = _cardinals(span, sites, zeros)
        assert all(c.evaluate(x, y) == 0 for c in cardinals for x, y in zeros)
        assert_cardinal(cardinals, sites)
        polys = build_impulse_set(L).polys
        assert [_primitive_poly(c) for c in cardinals] == [polys[0], polys[1], polys[3]]

    @pytest.mark.parametrize("L", range(1, 9))
    def test_monomials_at_integers(self, L):
        sites = [(u, 0) for u in range(L)]
        cardinals = _cardinals([X**k for k in range(L)], sites)
        assert_cardinal(cardinals, sites)
        assert all(c.degree <= L - 1 for c in cardinals)

    def test_polynomials_with_denominators(self):
        # the solve reads D_k * polys[k]; the combination must undo that
        polys = [BiPoly.constant(Fraction(2, 3)), X / 5 + Fraction(1, 7), X**2 / 6 - X / 4]
        sites = [(0, 0), (1, 0), (3, 0)]
        cardinals = _cardinals(polys, sites)
        assert_cardinal(cardinals, sites)
        assert cardinals == _cardinals([X**k for k in range(3)], sites)

    def test_repeated_site_raises(self):
        with pytest.raises(InvariantError):
            _cardinals([X**k for k in range(3)], [(0, 0), (1, 0), (1, 0)])

    def test_count_mismatch_raises(self):
        with pytest.raises(InvariantError):
            _cardinals([X**k for k in range(2)], [(0, 0), (1, 0), (2, 0)])
        with pytest.raises(InvariantError):
            _cardinals([X**k for k in range(3)], [(0, 0), (1, 0)])


class TestInterpolate3x3:
    def test_worked_minor_coefficient_exact(self):
        assert interpolate_3x3(WORKED_MINOR_3X3) == MINOR_INTERPOLANT

    def test_zero_matrix(self):
        assert interpolate_3x3(RatMatrix.zero(3)).is_zero

    def test_xy_restriction_recovers_xy(self):
        xy = BiPoly.monomial(1, 1)
        assert interpolate_3x3(evaluate_on_lattice(xy, 3)) == xy

    def test_rejects_wrong_size(self):
        with pytest.raises(SizeError):
            interpolate_3x3(WORKED_4X4)

    def test_rejects_non_harmonic(self):
        with pytest.raises(PreconditionError):
            interpolate_3x3(RatMatrix.identity(3))

    def test_row_order_independent(self):
        # solving the system with the sites visited in any other order gives
        # the same polynomial: the system is nonsingular
        rng = random.Random(71)
        basis = [tabulated_basis().elements[k] for k in (0, 1, 2, 3, 4, 5, 6, 8)]
        points = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
        rng.shuffle(points)
        rows = [[p.evaluate(x, y) for p in basis] for x, y in points]
        rhs = [WORKED_MINOR_3X3.at(x, y) for x, y in points]
        coeffs = solve(rows, rhs)
        shuffled = BiPoly.zero()
        for c, p in zip(coeffs, basis):
            shuffled = shuffled + c * p
        assert shuffled == interpolate_3x3(WORKED_MINOR_3X3)

    def test_evaluation_matches_minor_everywhere(self):
        # the system only pins the border; the center must follow
        P = interpolate_3x3(WORKED_MINOR_3X3)
        assert interpolates(P, WORKED_MINOR_3X3)
        assert is_discrete_harmonic(P)

    def test_matches_solve_oracle(self):
        rng = random.Random(75)
        fixtures = [
            WORKED_MINOR_3X3,
            RatMatrix.zero(3),
            WORKED_4X4.lower_left_minor(3),
            evaluate_on_lattice(BiPoly.monomial(1, 1), 3),
        ]
        randoms = [
            complete(random_border(rng, 3, max_num=10**k, max_den=10**k))
            for k in (1, 3, 6)
            for _ in range(100)
        ]
        for A in fixtures + randoms:
            assert interpolate_3x3(A) == solve_3x3(A)

    def test_corrupt_base_cardinal_raises_invariant_error(self, monkeypatch):
        # the base case is checked like every telescopic result: the base
        # stage reads the cardinals from its table, here with cardinal 0
        # doubled
        d, table = _base_stage()
        corrupt = (d, tuple((2 * row[0], *row[1:]) for row in table))
        monkeypatch.setattr("dhpoly.interpolate._base_stage", lambda: corrupt)
        with pytest.raises(InvariantError):
            interpolate_3x3(WORKED_MINOR_3X3)

    def test_telescopic_solves_no_system(self, monkeypatch):
        # with the base cardinals and impulse sets built, a request runs no
        # elimination at all
        real, calls = linalg._integer_solve, []

        def counting(A, B):
            calls.append(len(A))
            return real(A, B)

        telescopic(WORKED_4X4)
        monkeypatch.setattr(linalg, "_integer_solve", counting)
        for _ in range(3):
            assert interpolates(telescopic(WORKED_4X4), WORKED_4X4)
            assert telescopic(WORKED_MINOR_3X3) == MINOR_INTERPOLANT
        assert calls == []


class TestReferenceImpulses:
    def test_patterns_and_values(self):
        m = REFERENCE_IMPULSES.size
        designated = ((0, m), (m, m), (m, 0), (m - 1, m))
        for k, (xi, gamma) in enumerate(
            zip(REFERENCE_IMPULSES.polys, REFERENCE_IMPULSES.values)
        ):
            assert is_discrete_harmonic(xi)
            assert xi.degree <= 2 * m
            grid = evaluate_on_lattice(xi, m + 1)
            for x in range(m + 1):
                for y in range(m + 1):
                    v = grid.at(x, y)
                    if (x, y) == designated[k]:
                        assert v == gamma
                    elif k == 3 and (x, y) == (m, m - 1):
                        assert v == -gamma
                    else:
                        assert v == 0

    def test_gamma_values(self):
        assert REFERENCE_IMPULSES.values == (-720, -720, 720, -720)


class TestBuildImpulseSet:
    @pytest.mark.parametrize("L", range(3, 11))
    def test_patterns(self, L):
        impulses = build_impulse_set(L)
        designated = ((0, L), (L, L), (L, 0), (L - 1, L))
        for k, (xi, gamma) in enumerate(zip(impulses.polys, impulses.values)):
            assert gamma != 0
            assert xi.degree <= 2 * L
            assert is_discrete_harmonic(xi)
            grid = evaluate_on_lattice(xi, L + 1)
            nonzero = {
                (x, y): grid.at(x, y)
                for x in range(L + 1)
                for y in range(L + 1)
                if grid.at(x, y) != 0
            }
            if k == 3:
                assert nonzero == {designated[3]: gamma, (L, L - 1): -gamma}
            else:
                assert nonzero == {designated[k]: gamma}

    @pytest.mark.parametrize("m", [3, 5])
    def test_check_reads_inside_the_lattice(self, m):
        # the bump vanishes on the border of the (m+1)-lattice, not inside it
        bump = X * (X - m) * Y * (Y - m)
        for k, xi in enumerate(build_impulse_set(m).polys):
            assert _verify_impulse(xi + bump, m, k) is None

    @pytest.mark.parametrize("L", range(3, 11))
    def test_pair_antisymmetry(self, L):
        xi4 = build_impulse_set(L).polys[3]
        assert xi4.evaluate(L - 1, L) == -xi4.evaluate(L, L - 1)

    @pytest.mark.parametrize("L", range(3, 13))
    def test_mirror_symmetry(self, L):
        # swapping x and y maps the step sites onto each other, so impulse 2
        # is the mirror of impulse 0 and the dipole its own negated mirror
        impulses = build_impulse_set(L)
        polys, values = impulses.polys, impulses.values
        assert polys[2] == -polys[0].swap_xy()
        assert values[2] == -values[0]
        assert polys[3] == -polys[3].swap_xy()

    @pytest.mark.parametrize("L", range(3, 13))
    def test_matches_search_oracle(self, L):
        built, searched = build_impulse_set(L), search_impulse_set(L)
        assert built.values == searched.values
        for p, q in zip(built.polys, searched.polys):
            assert (p._den, p._num) == (q._den, q._num)

    @pytest.mark.parametrize("L", range(3, 13))
    def test_matches_residual_oracle(self, L):
        # reading the residuals at the cardinal sites from coordinates gives
        # the set the residual polynomials give, field by field
        built, oracle = build_impulse_set(L), residual_impulse_set(L)
        for f in dataclasses.fields(ImpulseSet):
            assert getattr(built, f.name) == getattr(oracle, f.name), f.name

    @pytest.mark.parametrize("L", range(3, 11))
    def test_forms_three_polynomials_per_size(self, L, monkeypatch):
        # with the smaller sizes built, a build forms impulses 0, 1 and 3 as
        # one _combine each over the canonical elements of degree <= 2L, and
        # no residual, interpolant or cardinal as a polynomial
        import dhpoly.interpolate as mod
        import dhpoly.poly as poly_mod

        for m in range(3, L):
            build_impulse_set(m)
        real, calls = poly_mod._combine, []

        def counting(coeffs, maps):
            maps = list(maps)
            calls.append(len(maps))
            return real(coeffs, maps)

        monkeypatch.setattr(mod, "_combine", counting)
        monkeypatch.setattr(poly_mod, "_combine", counting)
        build_impulse_set.__wrapped__(L)
        assert calls == [4 * L + 1] * 3

    @pytest.mark.parametrize("L", range(3, 9))
    def test_one_nullspace_and_one_rref_per_size(self, L, monkeypatch):
        # one solve per size, where a nullspace and an rref once ran: with
        # the smaller sizes built, the square 5x5 cardinal system with three
        # right-hand sides
        real, calls = linalg._integer_solve, []

        def counting(A, B):
            calls.append((len(A), {len(row) for row in A}, {len(row) for row in B}))
            return real(A, B)

        for m in range(3, L):
            build_impulse_set(m)
        monkeypatch.setattr(linalg, "_integer_solve", counting)
        build_impulse_set.__wrapped__(L)
        assert calls == [(5, {5}, {3})]

    @pytest.mark.parametrize("L", range(3, 11))
    def test_builds_four_elements_and_no_basis(self, L, monkeypatch):
        # each size builds its own four canonical elements and takes the
        # rest from the size below
        import dhpoly.interpolate as mod

        calls = {"_basis_element": 0, "generate_basis": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        build_impulse_set.cache_clear()
        build_impulse_set(L)
        assert calls == {"_basis_element": 4 * (L - 2), "generate_basis": 0}

    def test_pinned_digest(self):
        # SHA-256 of the impulse sets 3..16 (polynomials and values); a
        # change that alters it must say why
        assert impulse_sets_digest(range(3, 17)) == IMPULSE_SETS_SHA256

    def test_pinned_digest_of_the_larger_sizes(self):
        # the same for the sizes 17..23, the rest of the CLI's range
        assert impulse_sets_digest(range(17, 24)) == LARGE_IMPULSE_SETS_SHA256

    def test_construction_ignores_border_order(self, monkeypatch):
        # the kernel and the cardinals are unique, so walking the border in
        # reverse changes no impulse set and no interpolant
        import dhpoly.interpolate as mod

        rng = random.Random(25)
        matrices = [random_inner_harmonic(rng, L) for L in range(3, 8)]
        want = [build_impulse_set(L) for L in range(3, 9)], [telescopic(H) for H in matrices]
        real = mod._block_border_sites
        monkeypatch.setattr(mod, "_block_border_sites", lambda L: real(L)[::-1])
        try:
            build_impulse_set.cache_clear()
            _base_cardinals.cache_clear()
            _base_stage.cache_clear()
            got = [build_impulse_set(L) for L in range(3, 9)], [telescopic(H) for H in matrices]
        finally:
            monkeypatch.undo()
            build_impulse_set.cache_clear()
            _base_cardinals.cache_clear()
            _base_stage.cache_clear()
        assert got == want

    def test_memoized(self):
        assert build_impulse_set(3) is build_impulse_set(3)

    @pytest.mark.parametrize("L", range(3, 9))
    def test_hand_built_set_derives_the_same_step_data(self, L):
        # the step data is derived from polys and values alone, so a set
        # built by hand has the build's, and a replaced set its own polys'
        built = build_impulse_set(L)
        by_hand = ImpulseSet(built.size, built.polys, built.values)
        assert by_hand == built
        assert by_hand._step_table == built._step_table
        assert by_hand._elements == built._elements
        replaced = dataclasses.replace(built, polys=tuple(-xi for xi in built.polys))
        lc, rows, coords, divisors = built._step_table
        negated = tuple(tuple(-c for c in row) for row in coords)
        assert replaced._step_table == (lc, rows, negated, divisors)
        assert replaced._elements == built._elements

    @pytest.mark.parametrize("L", range(4, 10))
    def test_sizes_keep_each_canonical_element_once(self, L):
        # set m keeps the canonical basis of degree <= 2m, in its order,
        # sharing set m-1's elements rather than copying them
        for m in range(3, L):
            elements = build_impulse_set(m)._elements
            assert elements == generate_basis(2 * m).elements
            smaller = _BASIS_4 if m == 3 else build_impulse_set(m - 1)._elements
            assert all(a is b for a, b in zip(elements, smaller))

    def test_hand_built_set_is_gated(self):
        good = build_impulse_set(3)
        with pytest.raises(TypeError):
            ImpulseSet(True, good.polys, good.values)
        with pytest.raises(SizeError):
            ImpulseSet(2, good.polys, good.values)
        for polys, values in [(good.polys[:3], good.values), (good.polys, good.values[:3])]:
            with pytest.raises(PreconditionError):
                ImpulseSet(3, polys, values)
        # a set of three impulses is refused before extend takes a step
        with pytest.raises(PreconditionError):
            extend(MINOR_INTERPOLANT, WORKED_4X4, ImpulseSet(3, good.polys[:3], good.values[:3]))

    def test_hand_built_values_are_gated(self):
        # each value is a nonzero int or Fraction by exact type: a step
        # divides by the values
        good = build_impulse_set(3)
        for bad in (0.5, "1", True, None):
            with pytest.raises(TypeError):
                ImpulseSet(3, good.polys, (bad, *good.values[1:]))
        for zero in (0, Fraction(0)):
            with pytest.raises(PreconditionError):
                ImpulseSet(3, good.polys, (*good.values[:3], zero))
        assert ImpulseSet(3, good.polys, tuple(int(g) for g in good.values)) == good

    def test_too_small(self):
        with pytest.raises(SizeError):
            build_impulse_set(2)


class TestExtend:
    def test_worked_example_coefficients(self):
        z = extension_coefficients(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES)
        assert z == REFERENCE_Z

    def test_worked_example_result(self):
        sigma = extend(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES)
        assert sigma == FULL_INTERPOLANT
        # A corner lies in no stencil, so raising the top-left one by 1/7
        # keeps the matrix inner-harmonic; its denominator becomes 7 while
        # the lower-left 3x3 block that chi is compared with keeps 1.
        rows = WORKED_4X4.to_lists()
        rows[0][0] += Fraction(1, 7)
        A = RatMatrix(rows)
        sigma = extend(MINOR_INTERPOLANT, A, REFERENCE_IMPULSES)
        assert interpolates(sigma, A) and is_discrete_harmonic(sigma)

    def test_minor_interpolant_restriction(self):
        # evaluating the minor interpolant on the enlarged lattice shows the
        # four mismatch sites the impulse polynomials must fix
        assert evaluate_on_lattice(MINOR_INTERPOLANT, 4) == MINOR_ON_4_LATTICE

    def test_already_matching_gives_zero_coefficients(self):
        chi = tabulated_basis().elements[6]  # x^3 - 3xy^2
        A = evaluate_on_lattice(chi, 5)
        z = extension_coefficients(chi, A, build_impulse_set(4))
        assert z == (0, 0, 0, 0)
        assert extend(chi, A) == chi

    @pytest.mark.parametrize("index", [6, 11])
    def test_round_trip_through_pipeline(self, index):
        p = tabulated_basis().elements[index]
        A = evaluate_on_lattice(p, 5)
        partial = telescopic(A.lower_left_minor(4))
        sigma = extend(partial, A)
        assert interpolates(sigma, A)
        assert is_discrete_harmonic(sigma)

    def test_rejects_non_interpolating_chi(self):
        with pytest.raises(PreconditionError):
            extend(BiPoly.monomial(1, 1), WORKED_4X4)

    def test_rejects_non_harmonic_matrix(self):
        rng = random.Random(72)
        with pytest.raises(PreconditionError):
            extend(MINOR_INTERPOLANT, random_matrix(rng, 4))

    def test_rejects_wrong_impulse_size(self):
        with pytest.raises(PreconditionError):
            extend(MINOR_INTERPOLANT, WORKED_4X4, build_impulse_set(4))

    def test_rejects_impulse_set_without_its_patterns(self):
        # a caller's set is checked against its values on the whole
        # 4-lattice: reordered impulses, values not scaled with their
        # polynomials or a corrupted dipole would give a wrong step, while
        # impulses and values scaled alike give the same one
        good = build_impulse_set(3)
        bad_sets = [
            ImpulseSet(3, good.polys[::-1], good.values),
            ImpulseSet(3, good.polys, tuple(2 * g for g in good.values)),
            ImpulseSet(3, tuple(2 * xi for xi in good.polys), good.values),
            corrupt_dipole(good),
        ]
        for bad in bad_sets:
            with pytest.raises(PreconditionError, match="patterns"):
                extend(MINOR_INTERPOLANT, WORKED_4X4, bad)
        c = Fraction(-3, 7)
        scaled = ImpulseSet(3, tuple(c * xi for xi in good.polys), tuple(c * g for g in good.values))
        assert extend(MINOR_INTERPOLANT, WORKED_4X4, scaled) == extend(MINOR_INTERPOLANT, WORKED_4X4)

    def test_coefficients_read_only_the_block(self):
        rng = random.Random(77)
        for L in range(5, 10):
            H = random_inner_harmonic(rng, L)
            for m in range(3, L):
                chi = telescopic(H.lower_left_minor(m))
                impulses = build_impulse_set(m)
                assert extension_coefficients(chi, H, impulses) == extension_coefficients(
                    chi, H.lower_left_minor(m + 1), impulses
                )

    def test_one_combination_matches_pairwise_sum(self):
        rng = random.Random(80)
        for L in range(4, 11):
            H = random_inner_harmonic(rng, L)
            chi = interpolate_3x3(H.lower_left_minor(3))
            for m in range(3, L):
                impulses = build_impulse_set(m)
                step = _extend(chi, H, impulses)
                assert step == sum_extend(chi, H, impulses)
                chi = step

    def test_builds_no_minor(self, monkeypatch):
        sizes = []
        real = RatMatrix.lower_left_minor

        def counting(self, m):
            sizes.append(m)
            return real(self, m)

        monkeypatch.setattr(RatMatrix, "lower_left_minor", counting)
        assert extend(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES) == FULL_INTERPOLANT
        assert sizes == []

    def test_coefficients_reject_unpaired_mismatch(self):
        # a constant moves both paired sites the same way, and the stencil
        # at (2, 2) ties their sum to values chi no longer matches
        with pytest.raises(InvariantError, match="not antisymmetric"):
            extension_coefficients(MINOR_INTERPOLANT + 1, WORKED_4X4, REFERENCE_IMPULSES)

    def test_coefficients_reject_too_small_matrix(self):
        with pytest.raises(SizeError):
            extension_coefficients(MINOR_INTERPOLANT, WORKED_MINOR_3X3, REFERENCE_IMPULSES)


class TestTelescopic:
    def test_worked_example(self):
        P = telescopic(WORKED_4X4)
        assert P.degree == 6
        assert interpolates(P, WORKED_4X4)
        assert is_discrete_harmonic(P)

    def test_base_case_delegates(self):
        assert telescopic(WORKED_MINOR_3X3) == interpolate_3x3(WORKED_MINOR_3X3)

    def test_degree_seven_restriction_round_trip(self):
        p = tabulated_basis().elements[12]
        H = evaluate_on_lattice(p, 7)
        P = telescopic(H)
        assert interpolates(P, H)
        assert is_discrete_harmonic(P)

    def test_intermediate_minors_stay_inner_harmonic(self):
        rng = random.Random(73)
        H = random_inner_harmonic(rng, 7)
        for m in range(3, 8):
            assert is_inner_harmonic(H.lower_left_minor(m))

    def test_random_matrices(self):
        rng = random.Random(74)
        for L in range(3, 8):
            for _ in range(3):
                H = random_inner_harmonic(rng, L)
                P = telescopic(H)
                assert interpolates(P, H)
                assert is_discrete_harmonic(P)
                assert P.degree <= 2 * (L - 1)

    def test_rejects_small_and_non_harmonic(self):
        with pytest.raises(SizeError):
            telescopic(RatMatrix.zero(2))
        with pytest.raises(PreconditionError):
            telescopic(RatMatrix.identity(4))

    @pytest.mark.parametrize("L", range(3, 8))
    def test_agrees_with_any_border_fit_of_the_basis(self, L):
        # independent oracle for checking only the border: every combination
        # of the 4L-3 basis elements of degree <= 2(L-1) that matches H on
        # the border (solved by sympy, free parameters kept symbolic) equals
        # telescopic(H) on the whole lattice
        H = random_inner_harmonic(random.Random(700 + L), L)
        basis = generate_basis(2 * (L - 1)).elements
        assert len(basis) == 4 * L - 3
        border = [
            (x, y) for x in range(L) for y in range(L) if x in (0, L - 1) or y in (0, L - 1)
        ]
        A = sympy.Matrix([[sympy_rational(p.evaluate(x, y)) for p in basis] for x, y in border])
        b = sympy.Matrix([sympy_rational(H.at(x, y)) for x, y in border])
        coeffs, free = A.gauss_jordan_solve(b)
        assert free.shape[0] >= 1
        P = telescopic(H)
        for x in range(L):
            for y in range(L):
                fit = sum(c * sympy_rational(p.evaluate(x, y)) for c, p in zip(coeffs, basis))
                assert sympy.expand(fit - sympy_rational(P.evaluate(x, y))) == 0

    def test_faulty_step_raises_invariant_error(self, monkeypatch):
        # impulse polynomials doubled but their values not: each step
        # over-corrects, which only the final border check can catch
        real = build_impulse_set

        def faulty(L):
            good = real(L)
            return ImpulseSet(good.size, tuple(2 * xi for xi in good.polys), good.values)

        monkeypatch.setattr("dhpoly.interpolate.build_impulse_set", faulty)
        for H in (WORKED_4X4, random_inner_harmonic(random.Random(77), 6)):
            with pytest.raises(InvariantError):
                telescopic(H)

    @pytest.mark.parametrize("L", [4, 7])
    def test_checks_each_precondition_once(self, L, monkeypatch):
        import dhpoly.interpolate as mod

        H = random_inner_harmonic(random.Random(78), L)
        for m in range(3, L):
            build_impulse_set(m)
        calls = {"is_inner_harmonic": 0, "is_discrete_harmonic": 0, "extend": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        telescopic(H)
        assert calls == {"is_inner_harmonic": 1, "is_discrete_harmonic": 1, "extend": 0}

    @pytest.mark.parametrize("L", [3, 4, 7, 10])
    def test_one_linear_combination_per_stage(self, L, monkeypatch):
        # no stage forms a polynomial, not even the base stage (eight
        # cardinals read in integers); the result is one _combine of the
        # 4L - 3 canonical elements of degree <= 2(L-1), at every L
        import dhpoly.interpolate as mod

        H = random_inner_harmonic(random.Random(80), L)
        for m in range(3, L):
            build_impulse_set(m)
        _base_cardinals()
        combinations, combines = [], []

        def counting(calls, real):
            def counted(coeffs, items):
                items = list(items)
                calls.append(len(items))
                return real(coeffs, items)

            return counted

        real_combination = mod._linear_combination
        monkeypatch.setattr(mod, "_linear_combination", counting(combinations, real_combination))
        monkeypatch.setattr(mod, "_combine", counting(combines, mod._combine))
        telescopic(H)
        assert combinations == []
        assert combines == [4 * L - 3]

    @pytest.mark.parametrize("L", [3, 4, 7, 10])
    def test_looks_up_each_smaller_set_once(self, L):
        # telescopic of size L reads the sets 3..L-1 from the cache once
        # each; so does the build of size L, which then misses once
        def lookups(call):
            before = build_impulse_set.cache_info()
            call()
            after = build_impulse_set.cache_info()
            return after.hits - before.hits, after.misses - before.misses

        H = random_inner_harmonic(random.Random(81), L)
        build_impulse_set.cache_clear()
        for m in range(3, L):
            build_impulse_set(m)
        assert lookups(lambda: telescopic(H)) == (L - 3, 0)
        assert lookups(lambda: build_impulse_set(L)) == (L - 3, 1)

    @pytest.mark.parametrize("L", range(3, 14))
    def test_matches_stage_oracle(self, L):
        # the steps in canonical coordinates give byte for byte the
        # polynomial the loop of polynomial stages gives
        rng = random.Random(900 + L)
        for _ in range(2):
            H = random_inner_harmonic(rng, L)
            assert poly_to_json(telescopic(H)) == poly_to_json(stage_telescopic(H))

    def test_worked_fixtures_match_stage_oracle(self):
        for H in (WORKED_MINOR_3X3, WORKED_4X4, evaluate_on_lattice(MINOR_INTERPOLANT, 5)):
            assert poly_to_json(telescopic(H)) == poly_to_json(stage_telescopic(H))

    @pytest.mark.parametrize("scale", [1, Fraction(-3, 7)])
    def test_hand_built_sets_give_the_same_result(self, scale, monkeypatch):
        # a set built by hand derives its step data like build_impulse_set;
        # impulses and values scaled alike, to non-integer polynomials, are
        # the same step
        def by_hand(L):
            good = build_impulse_set(L)
            polys = tuple(scale * xi for xi in good.polys)
            return ImpulseSet(L, polys, tuple(scale * g for g in good.values))

        H = random_inner_harmonic(random.Random(81), 8)
        want = telescopic(H)
        monkeypatch.setattr("dhpoly.interpolate.build_impulse_set", by_hand)
        assert poly_to_json(telescopic(H)) == poly_to_json(want)

    @pytest.mark.parametrize("L", [5, 8])
    def test_corrupted_dipole_raises_invariant_error(self, L, monkeypatch):
        real = build_impulse_set
        monkeypatch.setattr(
            "dhpoly.interpolate.build_impulse_set",
            lambda m: corrupt_dipole(real(m)) if m == 3 else real(m),
        )
        H = random_inner_harmonic(random.Random(82), L)
        with pytest.raises(InvariantError, match="not antisymmetric"):
            telescopic(H)

    @pytest.mark.parametrize("L", [4, 7, 10])
    def test_builds_no_minor(self, L, monkeypatch):
        H = random_inner_harmonic(random.Random(79), L)
        real = RatMatrix.lower_left_minor
        sizes = []

        def counting(self, m):
            sizes.append(m)
            return real(self, m)

        monkeypatch.setattr(RatMatrix, "lower_left_minor", counting)
        telescopic(H)
        assert sizes == []


class TestBilinear:
    def test_worked_example_coefficient_exact(self):
        assert bilinear(WORKED_4X4) == BILINEAR_INTERPOLANT

    def test_not_discrete_harmonic_on_worked_example(self):
        assert not is_discrete_harmonic(bilinear(WORKED_4X4))

    def test_zero_matrix(self):
        assert bilinear(RatMatrix.zero(4)).is_zero

    def test_cardinal_property_random(self):
        rng = random.Random(75)
        for L in range(2, 7):
            for _ in range(20):
                H = random_matrix(rng, L)
                assert interpolates(bilinear(H), H)

    def test_degree_bound(self):
        rng = random.Random(76)
        for L in range(2, 6):
            assert bilinear(random_matrix(rng, L)).degree <= 2 * (L - 1)

    def test_pinned_digest(self):
        # SHA-256 of bilinear on seeded random matrices at L = 1..16; a
        # change that alters it must say why
        rng = random.Random(416)
        transcript = "\n".join(poly_to_json(bilinear(random_matrix(rng, L))) for L in range(1, 17))
        assert hashlib.sha256(transcript.encode()).hexdigest() == BILINEAR_SHA256

    @pytest.mark.parametrize("L", range(1, 13))
    def test_matches_lagrange_oracle(self, L):
        rng = random.Random(300 + L)
        for H in (RatMatrix.zero(L), random_matrix(rng, L), random_matrix(rng, L, 10**6, 10**6)):
            assert poly_to_json(bilinear(H)) == poly_to_json(lagrange_bilinear(H))
