"""Command-line front end.

Exit codes are a stable contract: 0 success (or checked-true), 1 checked-
false, 2 usage or input error, 3 internal invariant violation.  Every failure
writes a one-line JSON record {code, message, location} to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .completion import complete
from .errors import (
    InvariantError,
    ParseError,
    PreconditionError,
    SizeError,
)
from .formats import (
    _csv_line,
    _term_records,
    format_matrix,
    parse_bordered,
    parse_matrix,
    parse_poly,
    poly_to_json,
    poly_to_text,
)
from .grid import _count, discrete_laplacian_matrix, interpolates, is_inner_harmonic
from .interpolate import bilinear, telescopic
from .poly import discrete_laplacian_poly, generate_basis
from .sandpile import _orbit, phi, random_config, standard_gf

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: Upper bounds on the size arguments, the interpolated and completed
#: matrices, and the degree of a polynomial read (the largest degree
#: interpolate emits).  A larger value exits 2 instead of running for hours;
#: README ("CLI") gives the measured time of the largest allowed requests.
MAX_BASIS_DEGREE = 32
MAX_INTERPOLATE_SIZE = 24
MAX_COMPLETE_SIZE = 64
MAX_EVAL_SIZE = 1000
MAX_SANDPILE_SIZE = 128
MAX_SANDPILE_STEPS = 800
MAX_POLY_DEGREE = 2 * (MAX_INTERPOLATE_SIZE - 1)


def _emit_error(code_name, message, location=None):
    record = {"code": code_name, "message": message, "location": location}
    print(json.dumps(record), file=sys.stderr)


def _input_message(exc):
    """The message of an input-error record.  formats checks every number
    read against the int string limit, so the interpreter's own error for it
    comes from an output; its advice, sys.set_int_max_str_digits(), is no
    use to a CLI user, so the record names the variable that sets the limit."""
    if type(exc) is ValueError and "int_max_str_digits" in str(exc):
        return (
            "an output number is longer than the int string limit of "
            f"{sys.get_int_max_str_digits()} digits; the environment variable "
            "PYTHONINTMAXSTRDIGITS sets the limit (0 lifts it)"
        )
    return str(exc)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(args, chunks):
    """Write the strings of chunks in order, to the file named by --output or
    to stdout; chunks may be a generator, so output can stream."""
    out = getattr(args, "output", None)
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_poly(args, P):
    if args.format == "text":
        _write(args, [poly_to_text(P) + "\n"])
    else:
        _write(args, [poly_to_json(P) + "\n"])


def _at_most(flag, value, bound):
    if value > bound:
        raise SizeError(f"{flag} {value} exceeds the limit {bound}")
    return value


def _read_poly(path):
    P = parse_poly(_read(path))
    _at_most("polynomial degree", P.degree, MAX_POLY_DEGREE)
    return P


def cmd_check(args):
    H = parse_matrix(_read(args.matrix))
    ok = is_inner_harmonic(H)
    print(json.dumps({"inner_harmonic": ok, "size": H.size}))
    return EXIT_OK if ok else EXIT_FALSE


def cmd_complete(args):
    border = parse_bordered(_read(args.matrix))
    _at_most("matrix size", border.size, MAX_COMPLETE_SIZE)
    _write(args, [format_matrix(complete(border))])
    return EXIT_OK


def cmd_interpolate(args):
    H = parse_matrix(_read(args.matrix))
    _at_most("matrix size", H.size, MAX_INTERPOLATE_SIZE)
    if args.oracle == "bilinear":
        P = bilinear(H)
        if args.verify and not interpolates(P, H):
            raise InvariantError("output polynomial does not interpolate the input")
    else:
        # telescopic verifies its own result: harmonic, and equal on the lattice
        # (compared on its frame, which the harmonic check makes exact).
        P = telescopic(H)
    _emit_poly(args, P)
    return EXIT_OK


def cmd_eval(args):
    L = _count(_at_most("--size", args.size, MAX_EVAL_SIZE), 1, SizeError)
    P = _read_poly(args.poly)
    # Each row is written as it is computed: the lattice is never held whole.
    _write(args, (_csv_line(row, P._den) for row in P._lattice_rows(L)))
    return EXIT_OK


def cmd_laplacian(args):
    if args.poly:
        _emit_poly(args, discrete_laplacian_poly(_read_poly(args.input)))
    else:
        _write(args, [format_matrix(discrete_laplacian_matrix(parse_matrix(_read(args.input))))])
    return EXIT_OK


def cmd_basis(args):
    basis = generate_basis(_at_most("--degree", args.degree, MAX_BASIS_DEGREE))
    if args.format == "text":
        _write(args, (poly_to_text(p) + "\n" for p in basis.elements))
    else:
        elements = [_term_records(p) for p in basis.elements]
        _write(args, [json.dumps({"max_degree": basis.max_degree, "elements": elements}) + "\n"])
    return EXIT_OK


def cmd_sandpile_verify(args):
    _at_most("--size", args.size, MAX_SANDPILE_SIZE)
    _at_most("--steps", args.steps, MAX_SANDPILE_STEPS)
    if args.gf in ("i", "j", "i2-j2"):
        f = standard_gf(args.size, args.gf)
    else:
        f = parse_matrix(_read(args.gf))
        if f.size != args.size:
            raise PreconditionError(
                f"weight matrix has size {f.size}, expected {args.size}"
            )
    config = random_config(args.size, args.seed)
    seen = set()
    for t, c in enumerate(_orbit(config, args.steps)):
        v = phi(f, c)
        seen.add(v)
        print(f"{t},{v}")
    return EXIT_OK if len(seen) == 1 else EXIT_FALSE


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged
    and every parse starts from fresh defaults."""
    parser = _Parser(prog="dhpoly", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="exit 0 iff the CSV matrix is inner-harmonic")
    p.add_argument("matrix", help="matrix CSV path, or - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complete", help="fill a CSV whose interior entries are '?'")
    p.add_argument(
        "matrix",
        help=f"bordered matrix CSV path, or - for stdin (size at most {MAX_COMPLETE_SIZE})",
    )
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("interpolate", help="emit an interpolating polynomial")
    p.add_argument(
        "matrix",
        help=f"matrix CSV path, or - for stdin (size at most {MAX_INTERPOLATE_SIZE})",
    )
    p.add_argument(
        "--oracle",
        choices=["bilinear"],
        default=None,
        help="use plain bilinear interpolation instead of the harmonic construction",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="with --oracle bilinear, re-evaluate the output on the lattice and "
        "exit 3 on mismatch; the default construction always verifies its output",
    )
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("eval", help="evaluate a polynomial file on the lattice")
    p.add_argument("poly", help=f"polynomial file, - for stdin (degree at most {MAX_POLY_DEGREE})")
    p.add_argument(
        "--size", type=int, required=True, help=f"lattice size L (at most {MAX_EVAL_SIZE})"
    )
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("laplacian", help="apply the five-point operator")
    p.add_argument("input", help="matrix CSV (or polynomial file with --poly), - for stdin")
    p.add_argument(
        "--poly", action="store_true", help=f"read a polynomial of degree at most {MAX_POLY_DEGREE}"
    )
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("basis", help="emit the canonical discrete harmonic basis")
    p.add_argument(
        "--degree",
        type=int,
        required=True,
        help=f"maximum total degree (at most {MAX_BASIS_DEGREE})",
    )
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser(
        "sandpile-verify",
        help="print the weighted-sum trace of a random toppling orbit; exit 1 if it varies",
    )
    p.add_argument(
        "--size", type=int, required=True, help=f"torus size (at most {MAX_SANDPILE_SIZE})"
    )
    p.add_argument(
        "--steps",
        type=int,
        required=True,
        help=f"number of toppling steps (at most {MAX_SANDPILE_STEPS})",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--gf",
        required=True,
        help="weight matrix: i, j, i2-j2, or a CSV path of integer weights",
    )
    p.set_defaults(func=cmd_sandpile_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except ParseError as exc:
        location = None
        if exc.line is not None:
            location = {"line": exc.line, "column": exc.column}
        _emit_error("parse-error", str(exc), location)
        return EXIT_USAGE
    except (SizeError, PreconditionError, ValueError) as exc:
        _emit_error("input-error", _input_message(exc))
        return EXIT_USAGE
    except OSError as exc:
        _emit_error("io-error", str(exc))
        return EXIT_USAGE
    except InvariantError as exc:
        _emit_error("internal-error", str(exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
