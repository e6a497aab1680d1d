import copy
import hashlib
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from dhpoly import (
    BorderSpec,
    InvariantError,
    RatMatrix,
    SizeError,
    border_positions,
    complete,
    completion,
    extract_border,
    is_inner_harmonic,
    linalg,
)

from dhpoly.completion import _response, _response_inverse, _tau
from dhpoly.formats import format_matrix, parse_matrix
from dhpoly.grid import _common_denominator

from helpers import (
    affine_march,
    random_border,
    random_inner_harmonic,
    random_rational,
    solve,
    walk_positions,
)
from reference_data import SAMPLE_7X7, WORKED_MINOR_3X3

#: SHA-256 of the CSV text of complete() on seeded borders of sizes 3..40
#: (see TestResponseInverse); a change that alters it must say why.
COMPLETIONS_SHA256 = "4e705ee868d31e82acf3ed5be83661648fcfca2371938868d684408dacfa5c8c"


class TestBorderSpec:
    def test_length_enforced(self):
        with pytest.raises(SizeError):
            BorderSpec(4, (1,) * 11)

    def test_size_enforced(self):
        with pytest.raises(SizeError):
            BorderSpec(2, (1, 2, 3, 4))

    @pytest.mark.parametrize(
        "make",
        [lambda: 4.0, lambda: True, lambda: pytest.importorskip("numpy").int64(4)],
        ids=["float", "bool", "numpy-int64"],
    )
    def test_size_must_be_int(self, make):
        # 12 values fit size 4, so only the type of the size can fail
        with pytest.raises(TypeError):
            BorderSpec(make(), tuple(range(12)))

    @pytest.mark.parametrize("value", [0.5, "0.5", "1e3", Decimal("0.5"), True], ids=repr)
    def test_rejects_floats(self, value):
        with pytest.raises(TypeError):
            BorderSpec(3, [value] * 8)

    def test_positions_walk_clockwise(self):
        assert border_positions(3) == (
            (1, 1), (1, 2), (1, 3),
            (2, 3),
            (3, 3), (3, 2), (3, 1),
            (2, 1),
        )

    def test_positions_count(self):
        for L in range(3, 9):
            assert len(border_positions(L)) == 4 * L - 4

    def test_positions_match_side_by_side_walk(self):
        for L in range(3, 12):
            assert border_positions(L) == walk_positions(L)

    def test_from_ints_equals_constructor(self):
        # an unreduced integer form reduces to the constructor's canonical one
        rng = random.Random(342)
        for L in (3, 4, 9):
            border = random_border(rng, L)
            D, ints = border._integer
            k = rng.randint(2, 7)
            built = BorderSpec._from_ints(L, k * D, [k * v for v in ints])
            assert built._integer == (D, ints)
            assert built == border and hash(built) == hash(border)
            assert built.values == border.values
            assert all(type(v) is Fraction for v in built.values)
        zero = BorderSpec._from_ints(3, 6, [0] * 8)
        assert zero == BorderSpec(3, (0,) * 8) and zero._integer == (1, (0,) * 8)

    def test_values_are_fractions(self):
        border = BorderSpec(3, (1, Fraction(2, 4), -3, 0, 5, 6, 7, Fraction(8, 1)))
        assert all(type(v) is Fraction for v in border.values)
        assert border.values[1] == Fraction(1, 2)
        assert border._integer == (2, (2, 1, -6, 0, 10, 12, 14, 16))
        assert border != BorderSpec(3, (0,) * 8) and border != border._integer

    def test_repr(self):
        border = BorderSpec(3, (1, Fraction(-1, 2), 0, 0, 0, 0, 0, 0))
        expected = (
            "BorderSpec(size=3, values=(Fraction(1, 1), Fraction(-1, 2), "
            + ", ".join(["Fraction(0, 1)"] * 6) + "))"
        )
        assert repr(border) == expected
        assert repr(BorderSpec._from_ints(3, 2, [2, -1, 0, 0, 0, 0, 0, 0])) == expected

    def test_arithmetic(self):
        b1 = BorderSpec(3, tuple(range(8)))
        b2 = BorderSpec._from_ints(3, 3, list(range(8, 16)))
        assert 2 * b1 == b1 * 2 == BorderSpec(3, tuple(2 * v for v in range(8)))
        assert b2 * Fraction(3, 2) == BorderSpec(3, tuple(Fraction(v, 2) for v in range(8, 16)))
        assert b1 + b2 == BorderSpec(3, tuple(v + Fraction(v + 8, 3) for v in range(8)))
        with pytest.raises(TypeError):
            b1 * 0.5
        with pytest.raises(TypeError):
            b1 + 1
        with pytest.raises(TypeError):
            b1 + BorderSpec(4, (0,) * 12)

    def test_immutable(self):
        border = BorderSpec(3, tuple(range(8)))
        for name in ("size", "values", "_integer", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(border, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(border, name)
        assert border == BorderSpec(3, tuple(range(8)))

    def test_copy_pickle_and_match(self):
        border = BorderSpec._from_ints(3, 2, list(range(8)))
        for twin in (copy.copy(border), copy.deepcopy(border), pickle.loads(pickle.dumps(border))):
            assert twin == border and twin.values == border.values
        match border:
            case BorderSpec(3, values):
                assert values == border.values
            case _:
                pytest.fail("BorderSpec did not match its size and values")

    def test_extract_reads_the_integer_form(self):
        # complete's result has no Fraction rows, and extracting builds none
        rng = random.Random(343)
        for L in (3, 6, 10):
            H = random_inner_harmonic(rng, L)
            border = extract_border(H)
            assert H._rows is None
            assert border.values == tuple(H.entry(i, j) for i, j in walk_positions(L))
        with pytest.raises(SizeError):
            extract_border(RatMatrix.zero(2))

    def test_extract_round_trip(self):
        border = extract_border(SAMPLE_7X7)
        assert border.size == 7
        assert border.values[0] == 2  # top-left
        assert border.values[6] == 2  # top-right
        assert border.values[12] == 0  # bottom-right
        assert complete(border) == SAMPLE_7X7


def dense_sympy_completion(border):
    """Oracle independent of dhpoly.linalg: one unknown per inner site, the
    stencil equation at each, solved by sympy.  The sympy values become
    Fractions, the only rationals RatMatrix takes."""
    L = border.size
    h = {pos: sympy.Rational(v.numerator, v.denominator)
         for pos, v in zip(border_positions(L), border.values)}
    inner = [(i, j) for i in range(2, L) for j in range(2, L)]
    h.update((site, sympy.Symbol(f"h_{site[0]}_{site[1]}")) for site in inner)
    equations = [
        4 * h[(i, j)] - h[(i - 1, j)] - h[(i + 1, j)] - h[(i, j - 1)] - h[(i, j + 1)]
        for i, j in inner
    ]
    (solution,) = sympy.linsolve(equations, [h[site] for site in inner])
    h.update(zip(inner, solution))
    return RatMatrix(
        [[Fraction(int(h[(i, j)].p), int(h[(i, j)].q)) for j in range(1, L + 1)]
         for i in range(1, L + 1)]
    )


class TestBuildSystem:
    """The system complete() solves: its unknowns and the border walk it reads."""

    def test_single_inner_site(self):
        # neighbors of the single inner site are walk indices 2, 4, 6, 8
        border = BorderSpec(3, tuple(range(1, 9)))
        assert complete(border).entry(2, 2) == Fraction(2 + 4 + 6 + 8, 4)

    def test_too_small(self):
        with pytest.raises(SizeError):
            border_positions(2)

    @pytest.mark.parametrize("L", range(3, 41))
    def test_response_matches_affine_march(self, L):
        _, _, top = affine_march(random_border(random.Random(200 + L), L))
        assert _response(L) == tuple(tuple(f[: L - 2]) for f in top)

    def test_integer_border_needs_no_fraction_coercion(self, monkeypatch):
        # BorderSpec holds its own name for the gate; past it, nothing
        # coerces an integer border to Fractions
        import dhpoly.grid

        real = dhpoly.grid._fraction
        calls = []

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(dhpoly.grid, "_fraction", counting)
        rng = random.Random(59)
        for L in (3, 8, 14):
            H = complete(BorderSpec(L, tuple(rng.randint(-9, 9) for _ in range(4 * L - 4))))
            assert is_inner_harmonic(H)
        assert calls == []


class TestResponseInverse:
    """complete() inverts R(L) once per size, through the closed form of
    _response_inverse, and reuses the inverse."""

    def test_pinned_digest(self):
        rng = random.Random(340)
        text = "".join(format_matrix(complete(random_border(rng, L))) for L in range(3, 41))
        assert hashlib.sha256(text.encode()).hexdigest() == COMPLETIONS_SHA256

    @pytest.mark.parametrize("L", range(3, 41))
    def test_inverts_response(self, L):
        d, M = _response_inverse(L)
        R, n = _response(L), L - 2
        assert [[sum(M[a][k] * R[k][b] for k in range(n)) for b in range(n)] for a in range(n)] == [
            [d * (a == b) for b in range(n)] for a in range(n)
        ]

    @pytest.mark.parametrize("L", range(3, 41))
    def test_matches_fraction_solve(self, L):
        # the first column over its least common denominator d > 0: an
        # unreduced or negative d would enlarge every dot product of complete
        d, M = _response_inverse.__wrapped__(L)
        assert d > 0 and math.gcd(d, *(row[0] for row in M)) == 1
        D, column = _common_denominator(solve(_response(L), [1] + [0] * (L - 3)))
        assert (d, M) == (D, _tau(column))

    @pytest.mark.parametrize("L", range(3, 17))
    def test_columns_match_solve(self, L):
        d, M = _response_inverse(L)
        n = L - 2
        for k in range(n):
            column = solve(_response(L), [int(j == k) for j in range(n)])
            assert [Fraction(row[k], d) for row in M] == column

    def test_repeat_request_does_no_elimination(self, monkeypatch):
        real, calls = linalg._integer_solve, []

        def counting(A, B):
            calls.append(len(A))
            return real(A, B)

        monkeypatch.setattr(linalg, "_integer_solve", counting)
        rng = random.Random(341)
        first, second = random_border(rng, 12), random_border(rng, 12)
        _response_inverse.cache_clear()
        cold = complete(second)
        _response_inverse.cache_clear()
        complete(first)
        assert calls == [10, 10]
        assert complete(second) == cold
        assert calls == [10, 10]

    def test_wrong_inverse_raises(self, monkeypatch):
        d, M = _response_inverse(7)
        monkeypatch.setattr(
            completion,
            "_response_inverse",
            lambda L: (d, tuple(tuple(2 * m for m in row) for row in M)),
        )
        with pytest.raises(InvariantError):
            complete(extract_border(SAMPLE_7X7))


class TestComplete:
    @pytest.mark.parametrize("L", range(3, 13))
    def test_zero_border_gives_zero_matrix(self, L):
        assert complete(BorderSpec(L, (0,) * (4 * L - 4))) == RatMatrix.zero(L)

    def test_reproduces_sample_interior(self):
        assert complete(extract_border(SAMPLE_7X7)) == SAMPLE_7X7

    def test_minor_center(self):
        completed = complete(extract_border(WORKED_MINOR_3X3))
        assert completed.entry(2, 2) == -2
        assert completed == WORKED_MINOR_3X3

    def test_result_is_stored_in_integers(self):
        """complete hands its marched integer rows to the result: neither it
        nor format_matrix builds Fraction rows, and the CSV is the one the
        Fraction rows give."""
        rng = random.Random(59)
        for L in (3, 4, 7, 12):
            H = complete(random_border(rng, L))
            assert H._rows is None
            text = format_matrix(H)
            assert H._rows is None
            assert parse_matrix(text) == H
            assert text == "".join(",".join(map(str, row)) + "\n" for row in H.rows)

    def test_result_is_inner_harmonic(self):
        rng = random.Random(55)
        for L in range(3, 11):
            assert is_inner_harmonic(complete(random_border(rng, L)))

    @pytest.mark.parametrize("L", range(3, 9))
    def test_matches_dense_sympy_solve(self, L):
        rng = random.Random(100 + L)
        for _ in range(3):
            border = random_border(rng, L)
            assert complete(border) == dense_sympy_completion(border)

    def test_idempotence(self):
        rng = random.Random(56)
        for _ in range(25):
            L = rng.randint(3, 7)
            H = random_inner_harmonic(rng, L)
            assert complete(extract_border(H)) == H

    def test_uniqueness_witness(self):
        rng = random.Random(57)
        H = random_inner_harmonic(rng, 5)
        for i, j in ((2, 2), (3, 4)):
            rows = H.to_lists()
            rows[i - 1][j - 1] += 1
            assert not is_inner_harmonic(RatMatrix(rows))

    def test_linearity_in_border(self):
        rng = random.Random(58)
        for L in (3, 5):
            b1 = random_border(rng, L)
            b2 = random_border(rng, L)
            a = random_rational(rng)
            b = random_rational(rng)
            combined = complete(a * b1 + b * b2)
            expect = RatMatrix(
                [
                    [
                        a * complete(b1).rows[i][j] + b * complete(b2).rows[i][j]
                        for j in range(L)
                    ]
                    for i in range(L)
                ]
            )
            assert combined == expect
