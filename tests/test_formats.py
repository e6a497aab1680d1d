import random
import sys
from fractions import Fraction

import pytest

from dhpoly import BiPoly, ParseError, RatMatrix, X, Y
from dhpoly.formats import (
    _csv_line,
    format_matrix,
    parse_bordered,
    parse_matrix,
    parse_poly,
    parse_rational,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
)

from helpers import random_matrix, random_poly
from reference_data import FULL_INTERPOLANT, SAMPLE_7X7

#: The interpreter's int string limit: no integer with more digits is read,
#: exponents included.  0, or an interpreter without the limit, means no bound.
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * (INT_LIMIT + 1)


class TestParseRational:
    def test_integers_and_fractions(self):
        assert parse_rational("3") == 3
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational(" 4/6 ") == Fraction(2, 3)

    @pytest.mark.parametrize(
        "bad", ["1.5", "3/-4", "a", "", "1/2/3", "1e3", "1_0", "\u0661", "1/\u0662", "\uff13"]
    )
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rational("3/0")


@pytest.mark.skipif(not INT_LIMIT, reason="no int string limit")
class TestIntLimit:
    @pytest.mark.parametrize(
        "read, text",
        [
            (parse_rational, LONG),
            (parse_rational, f"1/{LONG}"),
            (poly_from_text, f"1*x^{LONG}"),
            (poly_from_text, f"1*x^1*y^{LONG}"),
            (poly_from_text, f"{LONG}*x^1"),
            (poly_from_json, f'[{{"xexp": {LONG}, "yexp": 0, "num": "1", "den": "1"}}]'),
            (poly_from_json, f'[{{"xexp": 0, "yexp": {LONG}, "num": "1", "den": "1"}}]'),
            (poly_from_json, f'[{{"xexp": 0, "yexp": 0, "num": "{LONG}", "den": "1"}}]'),
        ],
        ids=["num", "den", "text-xexp", "text-yexp", "text-coeff", "json-xexp", "json-yexp", "json-num"],
    )
    def test_past_limit_is_parse_error(self, read, text):
        # the message names the limit and does not echo the digits
        with pytest.raises(ParseError) as err:
            read(text)
        assert str(INT_LIMIT) in str(err.value) and "9" * 40 not in str(err.value)

    def test_at_limit_is_read(self):
        assert parse_rational("9" * INT_LIMIT) == 10**INT_LIMIT - 1
        assert poly_from_text("1*x^" + "0" * (INT_LIMIT - 1) + "1") == X


class TestParseMatrix:
    def test_small(self):
        H = parse_matrix("1,1/2\n-3/4,0")
        assert H == RatMatrix([[1, Fraction(1, 2)], [Fraction(-3, 4), 0]])

    def test_sample_round_trip(self):
        assert parse_matrix(format_matrix(SAMPLE_7X7)) == SAMPLE_7X7

    def test_whitespace_insensitive(self):
        assert parse_matrix(" 1 , 2 \n 3 , 4 \n") == RatMatrix([[1, 2], [3, 4]])

    def test_ragged_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1,2\n3")
        assert err.value.line == 2

    def test_non_square_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1,2\n3,4\n5,6")

    def test_hole_rejected_without_bordered_parser(self):
        with pytest.raises(ParseError):
            parse_matrix("1,2,3\n4,?,6\n7,8,9")

    def test_error_location(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1,2\n3,x")
        assert (err.value.line, err.value.column) == (2, 2)

    def test_random_round_trip(self):
        rng = random.Random(61)
        for _ in range(20):
            H = random_matrix(rng, rng.randint(1, 6), max_num=50, max_den=20)
            assert parse_matrix(format_matrix(H)) == H


class TestCsvLine:
    @pytest.mark.parametrize("den", [1, 2, 12, 97, 3 * 2**70])
    def test_matches_fraction_formatting(self, den):
        """Each entry v / den is written in lowest terms exactly as str of
        the Fraction, for zero, negatives, multiples of den and of its
        factors, and for den = 1."""
        rng = random.Random(den)
        for _ in range(30):
            ints = [0, den, -3 * den]
            ints += [
                rng.randint(-(10**30), 10**30) * rng.choice((1, 2, 3, 6, den))
                for _ in range(rng.randint(0, 8))
            ]
            rng.shuffle(ints)
            expected = ",".join(str(Fraction(v, den)) for v in ints) + "\n"
            assert _csv_line(ints, den) == expected


class TestParseBordered:
    def test_basic(self):
        border = parse_bordered("1,2,3\n8,?,4\n7,6,5")
        assert border.size == 3
        assert border.values == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_value_in_interior_rejected(self):
        with pytest.raises(ParseError):
            parse_bordered("1,2,3\n8,0,4\n7,6,5")

    def test_hole_on_border_rejected(self):
        with pytest.raises(ParseError):
            parse_bordered("1,?,3\n8,?,4\n7,6,5")

    def test_too_small(self):
        with pytest.raises(ParseError):
            parse_bordered("1,2\n3,4")


class TestPolyText:
    def test_xy(self):
        assert poly_to_text(BiPoly.monomial(1, 1)) == "1*x^1*y^1"

    def test_quartic_element(self):
        p = X**4 - 2 * X**2 - 6 * X**2 * Y**2 + Y**4
        assert poly_to_text(p) == "-2*x^2 + 1*y^4 + -6*x^2*y^2 + 1*x^4"

    def test_full_interpolant_listing(self):
        text = poly_to_text(FULL_INTERPOLANT)
        terms = text.split(" + ")
        assert len(terms) == 28
        assert terms[0] == "-3"

    def test_zero(self):
        assert poly_to_text(BiPoly.zero()) == "0"
        assert poly_from_text("0").is_zero

    def test_round_trip(self):
        rng = random.Random(62)
        for _ in range(30):
            p = random_poly(rng, max_degree=8, n_terms=6)
            assert poly_from_text(poly_to_text(p)) == p

    @pytest.mark.parametrize(
        "bad",
        [
            "x^2",
            "1*x^-2",
            "1*y^2*x^2",
            "2 + + 3",
            "1*x^1 + 1*x^1",
            "\u0661*x^1",
            "1/\u0662*x^1",
            "1*x^\u0661",
            "1*y^\u0662",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            poly_from_text(bad)


class TestPolyJson:
    def test_canonical_order(self):
        p = X**2 + Y**2 + X * Y + BiPoly.constant(7)
        records = __import__("json").loads(poly_to_json(p))
        assert [(r["xexp"], r["yexp"]) for r in records] == [
            (0, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_strings_for_coefficients(self):
        records = __import__("json").loads(poly_to_json(BiPoly.constant(Fraction(-2, 3))))
        assert records == [{"xexp": 0, "yexp": 0, "num": "-2", "den": "3"}]

    def test_round_trip(self):
        rng = random.Random(63)
        for _ in range(30):
            p = random_poly(rng, max_degree=9, n_terms=7)
            assert poly_from_json(poly_to_json(p)) == p

    def test_signed_numerator_strings(self):
        text = (
            '[{"xexp": 1, "yexp": 0, "num": "+3", "den": "4"},'
            ' {"xexp": 0, "yexp": 1, "num": "-5", "den": "2"}]'
        )
        assert poly_from_json(text) == Fraction(3, 4) * X - Fraction(5, 2) * Y

    def test_zero_polynomial(self):
        assert poly_to_json(BiPoly.zero()) == "[]"
        assert poly_from_json("[]").is_zero

    @pytest.mark.parametrize(
        "bad",
        [
            "{",
            "{}",
            '[{"xexp": 0, "yexp": 0, "num": "1"}]',
            '[{"xexp": -1, "yexp": 0, "num": "1", "den": "1"}]',
            '[{"xexp": true, "yexp": 0, "num": "1", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "0"}]',
            '[{"xexp": 0, "yexp": 0, "num": "0", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": 1.5, "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": 2.9}]',
            '[{"xexp": 0, "yexp": 0, "num": 1, "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": 2}]',
            '[{"xexp": 0, "yexp": 0, "num": true, "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": true}]',
            '[{"xexp": 0, "yexp": 0, "num": null, "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1_0", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "1_0"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1.5", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": " 1", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "-2"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "+2"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1/2", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "1/2"}]',
            '[{"xexp": 0, "yexp": 0, "num": "\u0661", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "\u0662"}]',
            '[{"xexp": \u0661, "yexp": 0, "num": "1", "den": "1"}]',
            '[{"xexp": 0, "yexp": 0, "num": "1", "den": "1"},'
            ' {"xexp": 0, "yexp": 0, "num": "2", "den": "1"}]',
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            poly_from_json(bad)


class TestParsePolyAutodetect:
    def test_json_detected(self):
        assert parse_poly(poly_to_json(X + Y)) == X + Y

    def test_text_detected(self):
        assert parse_poly("2*x^1 + -1*y^2") == 2 * X - Y**2
