import random
import sys
from fractions import Fraction

import pytest

from dhpoly import BiPoly, ParseError, RatMatrix, X, Y
from dhpoly.formats import (
    _csv_line,
    _first_row_size,
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

from helpers import (
    fraction_parse_bordered,
    fraction_parse_matrix,
    random_matrix,
    random_poly,
)
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


class TestFirstRowSize:
    def test_counts_the_first_nonblank_line(self):
        assert _first_row_size(format_matrix(SAMPLE_7X7)) == 7
        assert _first_row_size(" \n\t\n 1, 2 ,3\n4\n") == 3
        assert _first_row_size("") == _first_row_size("  \n ") == 1

    def test_lines_end_where_the_readers_end_them(self):
        # every str.splitlines line break, and whitespace that is none
        alphabet = [",", "1", "?", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                    "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029", "\u3000"]
        rng = random.Random(11)
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            lines = [line for line in text.splitlines() if line.strip()]
            assert _first_row_size(text) == (len(lines[0].split(",")) if lines else 1), repr(text)

    def test_is_the_size_the_readers_accept(self):
        rng = random.Random(12)
        for L in range(1, 8):
            text = "\r\n" + format_matrix(random_matrix(rng, L)).replace("\n", "\r\n")
            assert _first_row_size(text) == parse_matrix(text).size == L


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


def _token(rng, value):
    """A token for value as a CSV writer might spell it: unreduced, signed,
    padded, or "n/1" for an integer."""
    k = rng.choice((1, 1, 2, 3, 10))
    num, den = value.numerator * k, value.denominator * k
    token = str(num) if den == 1 and rng.random() < 0.5 else f"{num}/{den}"
    if num >= 0 and rng.random() < 0.3:
        token = rng.choice("+-" if num == 0 else "+") + token
    return rng.choice(("", " ", "  ")) + token + rng.choice(("", " ", "\t"))


#: Value makers for the seeded CSVs: general rationals, integers only,
#: all zeros (spelt "0", "-0", "+0/q" and so on) and large numbers.
KINDS = {
    "rational": lambda rng: Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
    "integer": lambda rng: Fraction(rng.randint(-99, 99)),
    "zero": lambda rng: Fraction(0),
    "large": lambda rng: Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**25)),
}


def _csv(rng, L, kind, bordered=False):
    rows = []
    for i in range(L):
        inner = bordered and 0 < i < L - 1
        rows.append(",".join(
            rng.choice(("?", " ? ")) if inner and 0 < j < L - 1 else _token(rng, KINDS[kind](rng))
            for j in range(L)
        ))
    return "\n".join(rows) + rng.choice(("", "\n", "\n\n"))


def _error(read, text):
    """(message, line, column) of the ParseError read(text) raises."""
    with pytest.raises(ParseError) as err:
        read(text)
    return str(err.value), err.value.line, err.value.column


class TestIntegerReader:
    """parse_matrix and parse_bordered read tokens as integer pairs; the
    Fraction row reader in helpers is their reference."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_parse_matrix_matches_fraction_reader(self, kind):
        rng = random.Random(f"matrix/{kind}")
        for _ in range(40):
            text = _csv(rng, rng.randint(1, 7), kind)
            got, want = parse_matrix(text), fraction_parse_matrix(text)
            assert got._integer == want._integer
            assert got.rows == want.rows

    @pytest.mark.parametrize("kind", KINDS)
    def test_parse_bordered_matches_fraction_reader(self, kind):
        rng = random.Random(f"bordered/{kind}")
        for _ in range(40):
            text = _csv(rng, rng.randint(3, 9), kind, bordered=True)
            got, want = parse_bordered(text), fraction_parse_bordered(text)
            assert got == want and got._integer == want._integer
            assert got.values == want.values
            assert all(type(v) is Fraction for v in got.values)

    def test_canonical_integer_form(self):
        # the lcm of the token denominators, reduced by one gcd
        assert parse_matrix("4/6,+5\n 7 ,-0/9")._integer == (3, ((2, 15), (21, 0)))
        assert parse_bordered("2/4,2/4,2/4\n2/4,?,2/4\n2/4,2/4,6/4")._integer == (
            2, (1, 1, 1, 1, 3, 1, 1, 1)
        )
        assert parse_bordered("0,-0,+0\n0/7,?,0\n0,0,0")._integer == (1, (0,) * 8)

    MATRIX_ERRORS = [
        "1,2\n3",
        "1,2\n3,4\n5,6",
        "1,2,3\n4,?,6\n7,8,9",
        "1,2\n3,x",
        "",
        "\n  \n",
        "1,2/0\n3,4",
        "1,2\n3,4/-1",
        "1.5,2\n3,4",
        "1,\u0661\n3,4",
        "1,2,\n3,4,5\n6,7,8",
    ]

    BORDERED_ERRORS = [
        "1,2,3\n8,0,4\n7,6,5",
        "1,?,3\n8,?,4\n7,6,5",
        "1,2\n3,4",
        "?",
        # an interior value before a malformed token: every token is read
        # before any hole is checked
        "1,2,3\n8,0,4\n7,x,5",
        "1,2,3\n8,?,4\n7,6",
        "1,2,3,4\n?,?,0,5\n1,?,?,2\n1,2,3,4",
        "1,2,3,4\n1,?,?,2\n?,5,?,6\n1,2,3,4",
        "1,2,3,4\n1,?,?,2\n5,?,6,?\n1,2,3,4",
        "1,2,3,4\n1,?,?,2\n1,?,?,2\n1,?,3,4",
        "1,2,?,4\n1,0,?,2\n1,?,?,2\n1,2,3,4",
        "1,2,3\n8,?,4/0\n7,6,5",
    ]

    @pytest.mark.parametrize("text", MATRIX_ERRORS)
    def test_matrix_errors_match_fraction_reader(self, text):
        assert _error(parse_matrix, text) == _error(fraction_parse_matrix, text)

    @pytest.mark.parametrize("text", BORDERED_ERRORS + MATRIX_ERRORS[:2] + MATRIX_ERRORS[3:])
    def test_bordered_errors_match_fraction_reader(self, text):
        assert _error(parse_bordered, text) == _error(fraction_parse_bordered, text)

    def test_interior_value_then_malformed_token_reports_the_token(self):
        assert _error(parse_bordered, "1,2,3\n8,0,4\n7,x,5") == (
            "malformed rational 'x' (line 3, column 2)", 3, 2
        )

    @pytest.mark.skipif(not INT_LIMIT, reason="no int string limit")
    @pytest.mark.parametrize("token", [LONG, f"1/{LONG}", f"-{LONG}/3"])
    def test_long_number_errors_match_fraction_reader(self, token):
        text = f"1,2,3\n4,?,6\n7,8,{token}"
        assert _error(parse_matrix, text) == _error(fraction_parse_matrix, text)
        assert _error(parse_bordered, text) == _error(fraction_parse_bordered, text)
        assert _error(parse_bordered, text)[1:] == (3, 3)

    def test_moved_holes_match_fraction_reader(self):
        # a valid bordered CSV with one to three sites flipped between a
        # value and '?': the same BorderSpec or the same first error
        rng = random.Random(65)
        for _ in range(300):
            L = rng.randint(3, 7)
            rows = [
                ["?" if 0 < i < L - 1 and 0 < j < L - 1 else str(rng.randint(-9, 9))
                 for j in range(L)]
                for i in range(L)
            ]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(L), rng.randrange(L)
                rows[i][j] = "5/3" if rows[i][j] == "?" else "?"
            text = "\n".join(map(",".join, rows))
            try:
                want = fraction_parse_bordered(text)
            except ParseError:
                assert _error(parse_bordered, text) == _error(fraction_parse_bordered, text)
            else:
                assert parse_bordered(text) == want


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
