"""Text formats shared between the library and the CLI, and the one place
numbers are read from text.

Matrices travel as CSV: one display row per line, entries written as decimal
integers or "p/q" with positive q in ASCII digits (_TOKEN, shared with text
coefficients and JSON "num"/"den" pairs).  One reader, _read_pair, turns a
token into its integer pair (num, den); parse_rational is Fraction of that
pair.  The CSV readers build no Fraction: parse_matrix and parse_bordered
scale the pairs by the lcm of their denominators and hand the integers to
RatMatrix._from_ints and BorderSpec._from_ints, whose one gcd gives the
canonical integer form, so an unreduced, signed or padded token reads as
its value.  Decimal points are rejected outright -- there is no
approximate path anywhere in the package.  No integer read or written,
exponents included, may have more digits than the interpreter's int string
limit (sys.get_int_max_str_digits()).
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

from .completion import BorderSpec, _border_walk
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


def _read_pair(token, line=None, column=None):
    """(num, den) of one stripped integer or "p/q" token, den > 0 and the
    pair as written (not reduced); ParseError for anything else, also for a
    zero denominator or a number longer than the interpreter's int string
    limit.  The one token reader: every rational read from text, a CSV
    entry or a polynomial coefficient, comes from here."""
    m = _TOKEN_RE.fullmatch(token)
    if not m:
        raise ParseError(f"malformed rational {token!r}", line, column)
    num, den = m.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise _too_long(line, column) from None
    if not den:
        raise ParseError(f"zero denominator in {token!r}", line, column)
    return num, den


def parse_rational(token, line=None, column=None):
    """Fraction of one integer or "p/q" token; ParseError for anything else,
    also for a number longer than the interpreter's int string limit."""
    return Fraction(*_read_pair(token.strip(), line, column))


#: Leading whitespace, then the rest of the first nonblank line, which ends
#: where str.splitlines ends a line.
_FIRST_ROW_RE = re.compile(r"\s*([^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)")


def _first_row_size(text):
    """The number of entries of the first nonblank line of CSV text, counted
    from its commas without reading a token: the size of the square matrix
    the readers below accept from that text, so a size limit can refuse the
    text before it is tokenized."""
    return _FIRST_ROW_RE.match(text)[1].count(",") + 1


def _parse_rows(text, allow_holes):
    """The square rows of CSV text, each entry the (num, den) pair of its
    token (see _read_pair), or None for the token "?" when allow_holes.
    Every token is read before the shape is checked."""
    hole = "?" if allow_holes else None
    rows = []
    for ln, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        row = [
            None if token == hole else _read_pair(token, ln, col)
            for col, token in enumerate(map(str.strip, raw.split(",")), 1)
        ]
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


def _over_lcm(pairs):
    """(D, ints): D the lcm of the pairs' denominators, ints each num/den
    times D."""
    D = math.lcm(*(den for _, den in pairs))
    return D, [num * (D // den) for num, den in pairs]


def parse_matrix(text):
    """CSV text to a RatMatrix, built in integers over the lcm of the token
    denominators; RatMatrix._from_ints reduces that to the canonical form."""
    rows = _parse_rows(text, allow_holes=False)
    D, ints = _over_lcm([pair for row in rows for pair in row])
    L = len(rows)
    return RatMatrix._from_ints(D, [ints[k : k + L] for k in range(0, L * L, L)])


def parse_bordered(text):
    """CSV text whose interior entries are all the literal token "?" to a
    BorderSpec; border entries must all be values.  The holes are checked a
    row at a time, after every token is read; the first offending entry in
    row-major order is reported."""
    rows = _parse_rows(text, allow_holes=True)
    L = len(rows)
    if L < 3:
        raise ParseError(f"bordered matrix must have size at least 3, got {L}")
    for i, row in enumerate(rows, 1):
        edge = i in (1, L)
        if row.count(None) == (0 if edge else L - 2) and row[0] is not None and row[-1] is not None:
            continue
        for j, entry in enumerate(row, 1):
            on_border = edge or j in (1, L)
            if on_border and entry is None:
                raise ParseError(f"border entry at row {i}, column {j} is '?'", i, j)
            if not on_border and entry is not None:
                raise ParseError(f"interior entry at row {i}, column {j} must be '?'", i, j)
    return BorderSpec._from_ints(L, *_over_lcm(_border_walk(rows)))


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
