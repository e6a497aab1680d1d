"""Text formats shared between the library and the CLI.

Matrices travel as CSV: one display row per line, entries written as decimal
integers or "p/q" with positive q.  Decimal points are rejected outright --
there is no approximate path anywhere in the package.  Polynomials travel
either as a JSON array of term records or as a "c*x^a*y^b + ..." text form;
both list terms by total degree, then x-exponent, ascending, and both round-
trip exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .completion import BorderSpec, border_positions
from .errors import ParseError
from .grid import RatMatrix, _fraction
from .poly import BiPoly

# A JSON term record's "num" and "den" are decimal strings, never JSON numbers.
_NUM_RE = re.compile(r"[+-]?\d+\Z")
_DEN_RE = re.compile(r"\d+\Z")
_TERM_RE = re.compile(
    r"(?P<c>[+-]?\d+(?:/\d+)?)(?:\*x\^(?P<a>\d+))?(?:\*y\^(?P<b>\d+))?\Z"
)


def parse_rational(token, line=None, column=None):
    token = token.strip()
    try:
        return _fraction(token)
    except TypeError:
        raise ParseError(f"malformed rational {token!r}", line, column) from None
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", line, column) from None


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


def format_matrix(H):
    """RatMatrix to CSV text (one row per line, entries as "p/q" or integers)."""
    return "\n".join(",".join(str(v) for v in row) for row in H.rows) + "\n"


def poly_to_json(P):
    """Polynomial to a JSON array of term records, canonically ordered.
    Numerators and denominators are strings so no reader ever rounds them."""
    records = [
        {"xexp": a, "yexp": b, "num": str(c.numerator), "den": str(c.denominator)}
        for (a, b), c in P.sorted_terms()
    ]
    return json.dumps(records)


def poly_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ParseError("polynomial JSON must be an array of term records")
    terms = {}
    for rec in data:
        if not isinstance(rec, dict) or set(rec) != {"xexp", "yexp", "num", "den"}:
            raise ParseError(f"malformed term record {rec!r}")
        a, b = rec["xexp"], rec["yexp"]
        if not (type(a) is int and type(b) is int) or a < 0 or b < 0:
            raise ParseError(f"exponents must be nonnegative integers, got {rec!r}")
        num, den = rec["num"], rec["den"]
        if not (isinstance(num, str) and _NUM_RE.fullmatch(num)
                and isinstance(den, str) and _DEN_RE.fullmatch(den)):
            raise ParseError(f"malformed coefficient in {rec!r}")
        num, den = int(num), int(den)
        if den <= 0:
            raise ParseError(f"denominator must be positive in {rec!r}")
        if num == 0:
            raise ParseError(f"zero coefficient stored in {rec!r}")
        if (a, b) in terms:
            raise ParseError(f"duplicate term for exponents ({a}, {b})")
        terms[(a, b)] = Fraction(num, den)
    return BiPoly(terms)


def poly_to_text(P):
    """Human-readable canonical form: "c*x^a*y^b" terms joined by " + ",
    coefficients always explicit, zero exponents omitted, "0" when empty."""
    return str(P)


def poly_from_text(text):
    s = text.strip()
    if s == "0":
        return BiPoly.zero()
    terms = {}
    for part in s.split("+"):
        part = part.strip()
        m = _TERM_RE.fullmatch(part)
        if not m:
            raise ParseError(f"malformed polynomial term {part!r}")
        coeff = parse_rational(m.group("c"))
        a = int(m.group("a") or 0)
        b = int(m.group("b") or 0)
        if coeff == 0:
            raise ParseError(f"zero coefficient in term {part!r}")
        if (a, b) in terms:
            raise ParseError(f"duplicate term for exponents ({a}, {b})")
        terms[(a, b)] = coeff
    return BiPoly(terms)


def parse_poly(text):
    """Auto-detect JSON (leading '[') versus text polynomial form."""
    if text.lstrip().startswith("["):
        return poly_from_json(text)
    return poly_from_text(text)
