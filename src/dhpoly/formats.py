"""Text formats shared between the library and the CLI, and the one place
numbers are read from text.

Matrices travel as CSV: one display row per line, entries written as decimal
integers or "p/q" with positive q in ASCII digits (_TOKEN, shared with text
coefficients and JSON "num"/"den" pairs, all read by parse_rational).
Decimal points are rejected outright -- there is no approximate path
anywhere in the package.  No integer read or written, exponents included,
may have more digits than the interpreter's int string limit
(sys.get_int_max_str_digits()).
Polynomials travel either as a JSON array of term records or as a
"c*x^a*y^b + ..." text form; both list terms by total degree, then
x-exponent, ascending, and both round-trip exactly.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .completion import BorderSpec, border_positions
from .errors import ParseError
from .grid import RatMatrix
from .poly import BiPoly

_TOKEN = r"(?P<num>[+-]?\d+)(?:/(?P<den>\d+))?"
_TOKEN_RE = re.compile(_TOKEN, re.ASCII)
_TERM_RE = re.compile(rf"(?P<c>{_TOKEN})(?:\*x\^(?P<a>\d+))?(?:\*y\^(?P<b>\d+))?", re.ASCII)


def _too_long(line=None, column=None):
    """The ParseError for an integer longer than the interpreter's int string
    limit; it names the limit and does not echo the digits."""
    limit = sys.get_int_max_str_digits()
    return ParseError(f"number longer than the limit of {limit} digits", line, column)


def parse_rational(token, line=None, column=None):
    """Fraction of one integer or "p/q" token; ParseError for anything else,
    also for a number longer than the interpreter's int string limit."""
    token = token.strip()
    m = _TOKEN_RE.fullmatch(token)
    if not m:
        raise ParseError(f"malformed rational {token!r}", line, column)
    try:
        num, den = int(m["num"]), int(m["den"] or 1)
    except ValueError:
        raise _too_long(line, column) from None
    if not den:
        raise ParseError(f"zero denominator in {token!r}", line, column)
    return Fraction(num, den)


def _parse_rows(text, allow_holes):
    rows = []
    for ln, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        row = []
        for col, token in enumerate(raw.split(","), 1):
            token = token.strip()
            if allow_holes and token == "?":
                row.append(None)
            else:
                row.append(parse_rational(token, ln, col))
        if rows and len(row) != len(rows[0][1]):
            raise ParseError(
                f"row has {len(row)} entries, expected {len(rows[0][1])}", ln
            )
        rows.append((ln, row))
    if not rows:
        raise ParseError("no matrix rows found")
    if len(rows) != len(rows[0][1]):
        raise ParseError(
            f"matrix is {len(rows)} rows by {len(rows[0][1])} columns; it must be square"
        )
    return [row for _, row in rows]


def parse_matrix(text):
    """CSV text to a RatMatrix."""
    rows = _parse_rows(text, allow_holes=False)
    return RatMatrix(rows)


def parse_bordered(text):
    """CSV text whose interior entries are all the literal token "?" to a
    BorderSpec; border entries must all be values."""
    rows = _parse_rows(text, allow_holes=True)
    L = len(rows)
    if L < 3:
        raise ParseError(f"bordered matrix must have size at least 3, got {L}")
    for i in range(L):
        for j in range(L):
            on_border = i in (0, L - 1) or j in (0, L - 1)
            if on_border and rows[i][j] is None:
                raise ParseError(f"border entry at row {i + 1}, column {j + 1} is '?'", i + 1, j + 1)
            if not on_border and rows[i][j] is not None:
                raise ParseError(
                    f"interior entry at row {i + 1}, column {j + 1} must be '?'", i + 1, j + 1
                )
    values = tuple(rows[i - 1][j - 1] for i, j in border_positions(L))
    return BorderSpec(L, values)


def _csv_line(values, den):
    """One CSV matrix row of the values v / den, for int v and an int
    den > 0: each entry in lowest terms, "p/q" or an integer."""
    return ",".join([
        str(v // g) if (g := math.gcd(v, den)) == den else f"{v // g}/{den // g}"
        for v in values
    ]) + "\n"


def format_matrix(H):
    """RatMatrix to CSV text (one row per line, entries as "p/q" or integers)."""
    den, rows = H._integer
    return "".join([_csv_line(row, den) for row in rows])


def _term_records(P):
    """P's terms as JSON term records, canonically ordered.  Numerators and
    denominators are strings so no reader ever rounds them."""
    return [
        {"xexp": a, "yexp": b, "num": str(c.numerator), "den": str(c.denominator)}
        for (a, b), c in P.sorted_terms()
    ]


def poly_to_json(P):
    """Polynomial to a JSON array of term records (see _term_records)."""
    return json.dumps(_term_records(P))


def _poly_from_terms(terms):
    """BiPoly of the ((a, b), coefficient) pairs a reader parsed, with the
    one check of the terms themselves: a zero coefficient or a repeated
    exponent pair raises ParseError."""
    acc = {}
    for (a, b), c in terms:
        if c == 0:
            raise ParseError(f"zero coefficient for exponents ({a}, {b})")
        if (a, b) in acc:
            raise ParseError(f"duplicate term for exponents ({a}, {b})")
        acc[a, b] = c
    return BiPoly(acc)


def _json_term(rec):
    """((a, b), coefficient) of one JSON term record, whose "num" and "den"
    are strings (never JSON numbers) forming one "num/den" token."""
    if not isinstance(rec, dict) or set(rec) != {"xexp", "yexp", "num", "den"}:
        raise ParseError(f"malformed term record {rec!r}")
    a, b, num, den = rec["xexp"], rec["yexp"], rec["num"], rec["den"]
    if not (type(a) is int and type(b) is int) or a < 0 or b < 0:
        raise ParseError(f"exponents must be nonnegative integers, got {rec!r}")
    token = f"{num}/{den}"
    if not (isinstance(num, str) and isinstance(den, str) and _TOKEN_RE.fullmatch(token)):
        raise ParseError(f"malformed coefficient in {rec!r}")
    return (a, b), parse_rational(token)


def poly_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:
        # json.loads raises a plain ValueError for an integer past the limit
        raise _too_long() from None
    if not isinstance(data, list):
        raise ParseError("polynomial JSON must be an array of term records")
    return _poly_from_terms(map(_json_term, data))


def poly_to_text(P):
    """Human-readable canonical form: "c*x^a*y^b" terms joined by " + ",
    coefficients always explicit, zero exponents omitted, "0" when empty."""
    return str(P)


def _exponent(digits):
    """int of a text exponent's ASCII digits, their count checked against the
    int string limit (0 lifts it) before int() reads them."""
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise _too_long()
    return int(digits)


def _text_term(part):
    """((a, b), coefficient) of one "c*x^a*y^b" term."""
    m = _TERM_RE.fullmatch(part)
    if not m:
        raise ParseError(f"malformed polynomial term {part!r}")
    return (_exponent(m["a"] or "0"), _exponent(m["b"] or "0")), parse_rational(m["c"])


def poly_from_text(text):
    s = text.strip()
    if s == "0":
        return BiPoly.zero()
    return _poly_from_terms(map(_text_term, re.split(r"\s*\+\s*", s)))


def parse_poly(text):
    """Auto-detect JSON (leading '[') versus text polynomial form."""
    if text.lstrip().startswith("["):
        return poly_from_json(text)
    return poly_from_text(text)
