import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import dhpoly
from dhpoly import (
    BiPoly,
    BorderSpec,
    ImpulseSet,
    InvariantError,
    RatMatrix,
    SizeError,
    X,
    Y,
    build_impulse_set,
    complete,
    evaluate_on_lattice,
    interpolates,
    is_discrete_harmonic,
    random_config,
)
from dhpoly.cli import (
    MAX_BASIS_DEGREE,
    MAX_COMPLETE_SIZE,
    MAX_EVAL_SIZE,
    MAX_INTERPOLATE_SIZE,
    MAX_POLY_DEGREE,
    MAX_SANDPILE_SIZE,
    MAX_SANDPILE_STEPS,
    _build_parser,
    _read_poly,
    main,
)
from dhpoly.formats import format_matrix, parse_matrix, parse_poly, poly_from_json, poly_to_json

from helpers import corrupt_dipole, fraction_parse_bordered, naive_phi, naive_step, random_poly
from reference_data import (
    BILINEAR_INTERPOLANT,
    FULL_INTERPOLANT,
    SAMPLE_7X7,
    WORKED_4X4,
)

#: The interpreter's int string limit: no integer with more digits is read
#: or written.  0, or an interpreter without the limit, means no bound.
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not INT_LIMIT, reason="no int string limit")


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(format_matrix(SAMPLE_7X7))
    return str(path)


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(format_matrix(WORKED_4X4))
    return str(path)


def _assert_input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "input-error"


class TestCheck:
    def test_inner_harmonic_exits_zero(self, sample_csv, capsys):
        assert main(["check", sample_csv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"inner_harmonic": True, "size": 7}

    def test_non_harmonic_exits_one(self, tmp_path, capsys):
        path = tmp_path / "eye.csv"
        path.write_text(format_matrix(RatMatrix.identity(3)))
        assert main(["check", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["inner_harmonic"] is False

    def test_small_matrix_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("1,2\n3,4\n")
        assert main(["check", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["code"] == "input-error"

    def test_parse_error_record(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,oops\n3,4\n")
        assert main(["check", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["code"] == "parse-error"
        assert record["location"] == {"line": 1, "column": 2}

    def test_non_ascii_digits_are_parse_errors(self, tmp_path, capsys):
        # Arabic-Indic 1..9 would read as an inner-harmonic matrix under \d.
        path = tmp_path / "arabic.csv"
        rows = ("\u0661,\u0662,\u0663", "\u0664,\u0665,\u0666", "\u0667,\u0668,\u0669")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["code"] == "parse-error"
        assert record["location"] == {"line": 1, "column": 1}

    @needs_int_limit
    def test_number_past_int_limit_is_located_parse_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("9" * (INT_LIMIT + 1) + ",2,3\n4,5,6\n7,8,9\n")
        assert main(["check", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["code"] == "parse-error"
        assert record["location"] == {"line": 1, "column": 1}
        # the message names the limit and does not echo the digits
        assert str(INT_LIMIT) in record["message"] and "9" * 40 not in record["message"]

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.csv"]) == 2
        assert json.loads(capsys.readouterr().err)["code"] == "io-error"


@pytest.fixture
def holes_csv(tmp_path):
    """SAMPLE_7X7 with its interior replaced by '?'."""
    L = SAMPLE_7X7.size
    rows = SAMPLE_7X7.to_lists()
    for i in range(1, L - 1):
        for j in range(1, L - 1):
            rows[i][j] = "?"
    path = tmp_path / "holes.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
    return str(path)


class TestComplete:
    def test_fills_interior(self, holes_csv, capsys):
        assert main(["complete", holes_csv]) == 0
        assert parse_matrix(capsys.readouterr().out) == SAMPLE_7X7

    @pytest.mark.parametrize("L", [3, 9, 17])
    def test_builds_no_fraction(self, L, tmp_path, capsys, monkeypatch):
        """From the CSV text to the CSV text in integers, on a size's first
        request too: a counting Fraction.__new__ (and _from_coprime_ints,
        which builds the results of Fraction arithmetic from Python 3.12 on)
        sees no call."""
        from dhpoly import completion

        rng = random.Random(344 + L)
        text = "\n".join(
            ",".join(
                f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" if i in (0, L - 1) or j in (0, L - 1)
                else "?"
                for j in range(L)
            )
            for i in range(L)
        )
        path = tmp_path / "border.csv"
        path.write_text(text)
        want = format_matrix(complete(fraction_parse_bordered(text)))
        completion._response_inverse.cache_clear()
        built = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        if hasattr(Fraction, "_from_coprime_ints"):
            real_coprime = Fraction._from_coprime_ints.__func__

            def counting_coprime(cls, *args):
                built.append(args)
                return real_coprime(cls, *args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        Fraction(1, 2)
        assert built == [(1, 2)]
        built.clear()
        assert main(["complete", str(path)]) == 0
        assert built == []
        assert capsys.readouterr().out == want

    def test_wrong_inverse_exits_three(self, holes_csv, capsys, monkeypatch):
        from dhpoly import completion

        d, M = completion._response_inverse(SAMPLE_7X7.size)
        monkeypatch.setattr(
            completion,
            "_response_inverse",
            lambda L: (d, tuple(tuple(2 * m for m in row) for row in M)),
        )
        assert main(["complete", holes_csv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "internal-error"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("0,0,0\n0,?,0\n0,0,0\n"))
        assert main(["complete", "-"]) == 0
        assert parse_matrix(capsys.readouterr().out) == RatMatrix.zero(3)

    @needs_int_limit
    def test_output_past_int_limit_is_input_error(self, tmp_path, capsys):
        """A valid 8x8 border whose 28 values have denominators of
        INT_LIMIT // 20 digits (215 by default) fills to entries over the int
        string limit: exit 2, nothing on stdout.  Lifting the limit lets the
        same request through; the package itself never lifts it."""
        argv = _long_output_request("complete", tmp_path / "long.csv")
        assert main(argv) == 2
        _assert_input_error(capsys)
        sys.set_int_max_str_digits(0)
        try:
            assert main(argv) == 0
            assert len(max(capsys.readouterr().out.replace("/", ",").split(","), key=len)) > INT_LIMIT
        finally:
            sys.set_int_max_str_digits(INT_LIMIT)

    def test_oversized_border_is_input_error(self, tmp_path, capsys):
        L = MAX_COMPLETE_SIZE + 1
        rows = [["0" if i in (0, L - 1) or j in (0, L - 1) else "?" for j in range(L)]
                for i in range(L)]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(",".join(row) for row in rows))
        assert main(["complete", str(path)]) == 2
        _assert_input_error(capsys)


class TestOversizedInput:
    """complete and interpolate count the entries of the first nonblank row,
    which give a square matrix's size, and refuse an oversized text before
    any token is read."""

    LIMITS = [("complete", MAX_COMPLETE_SIZE, "?"), ("interpolate", MAX_INTERPOLATE_SIZE, "0")]

    @pytest.fixture
    def reads(self, monkeypatch):
        import dhpoly.formats as formats

        calls, real = [], formats._read_pair

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(formats, "_read_pair", counting)
        return calls

    @staticmethod
    def _write(path, L, hole, bad=None):
        rows = [
            ["0" if i in (0, L - 1) or j in (0, L - 1) else hole for j in range(L)]
            for i in range(L)
        ]
        if bad is not None:
            rows[-1][-1] = bad
        path.write_text(" \n\n" + "\n".join(",".join(row) for row in rows) + "\n")
        return str(path)

    @pytest.mark.parametrize("command, bound, hole", LIMITS)
    def test_refused_before_any_token_is_read(self, command, bound, hole, tmp_path, capsys, reads):
        path = self._write(tmp_path / "big.csv", bound + 1, hole)
        assert main([command, path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "input-error"
        assert err["message"] == f"matrix size {bound + 1} exceeds the limit {bound}"
        assert reads == []

    @pytest.mark.parametrize("command, bound, hole", LIMITS)
    def test_size_error_wins_over_a_malformed_token(self, command, bound, hole, tmp_path, capsys):
        # the size is refused first, so a bad token further on is not reached
        path = self._write(tmp_path / "big.csv", bound + 1, hole, bad="1.5")
        assert main([command, path]) == 2
        _assert_input_error(capsys)
        small = self._write(tmp_path / "small.csv", 4, hole, bad="1.5")
        assert main([command, small]) == 2
        assert json.loads(capsys.readouterr().err)["code"] == "parse-error"

    def test_a_matrix_within_the_limit_is_read(self, worked_csv, capsys, reads):
        assert main(["interpolate", worked_csv]) == 0
        assert len(reads) == 16


class TestInterpolate:
    def test_verified_harmonic_interpolation(self, worked_csv, capsys):
        assert main(["interpolate", "--verify", worked_csv]) == 0
        P = poly_from_json(capsys.readouterr().out)
        assert P.degree == 6
        assert evaluate_on_lattice(P, 4) == WORKED_4X4
        assert is_discrete_harmonic(P)

    def test_faulty_step_exits_three(self, worked_csv, capsys, monkeypatch):
        # an internal fault is not bad input: exit 3, not 2
        real = build_impulse_set

        def faulty(L):
            good = real(L)
            return ImpulseSet(good.size, tuple(2 * xi for xi in good.polys), good.values)

        monkeypatch.setattr("dhpoly.interpolate.build_impulse_set", faulty)
        for flags in ([], ["--verify"]):
            assert main(["interpolate", *flags, worked_csv]) == 3
            assert json.loads(capsys.readouterr().err)["code"] == "internal-error"

    def test_corrupted_dipole_exits_three(self, sample_csv, capsys, monkeypatch):
        # a step that finds its paired border mismatches not antisymmetric
        # is an internal fault too.  The real sets 3..6 are built first, so
        # no build below reads the corrupted size 3 and fails its own check.
        build_impulse_set.cache_clear()
        build_impulse_set(SAMPLE_7X7.size - 1)
        real = build_impulse_set
        monkeypatch.setattr(
            "dhpoly.interpolate.build_impulse_set",
            lambda L: corrupt_dipole(real(L)) if L == 3 else real(L),
        )
        assert main(["interpolate", sample_csv]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "internal-error"
        assert "not antisymmetric" in err["message"]

    @pytest.mark.parametrize("oracle, calls", [([], 0), (["--oracle", "bilinear"], 1)])
    def test_verify_reevaluates_only_bilinear(self, worked_csv, oracle, calls, monkeypatch):
        # telescopic verifies its own result, so --verify adds no second check
        import dhpoly.cli as cli

        counted = []

        def counting(P, H):
            counted.append(H.size)
            return interpolates(P, H)

        monkeypatch.setattr(cli, "interpolates", counting)
        assert main(["interpolate", "--verify", *oracle, worked_csv]) == 0
        assert len(counted) == calls

    def test_failed_impulse_construction_exits_three(self, worked_csv, capsys, monkeypatch):
        # the impulse cache must neither hide the failure nor keep its result
        build_impulse_set.cache_clear()
        monkeypatch.setattr("dhpoly.interpolate._pattern_value", lambda grid, m, k: None)
        try:
            with pytest.raises(InvariantError):
                build_impulse_set(3)
            assert main(["interpolate", worked_csv]) == 3
            assert json.loads(capsys.readouterr().err)["code"] == "internal-error"
        finally:
            build_impulse_set.cache_clear()

    def test_oversized_matrix_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(format_matrix(RatMatrix.zero(MAX_INTERPOLATE_SIZE + 1)))
        assert main(["interpolate", str(path)]) == 2
        _assert_input_error(capsys)

    def test_bilinear_oracle(self, worked_csv, capsys):
        assert main(["interpolate", "--oracle", "bilinear", worked_csv]) == 0
        assert poly_from_json(capsys.readouterr().out) == BILINEAR_INTERPOLANT

    def test_text_format(self, worked_csv, capsys):
        assert main(["interpolate", "--format", "text", worked_csv]) == 0
        assert " + " in capsys.readouterr().out

    def test_non_harmonic_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "eye.csv"
        path.write_text(format_matrix(RatMatrix.identity(4)))
        assert main(["interpolate", str(path)]) == 2

    def test_output_file(self, worked_csv, tmp_path):
        out = tmp_path / "poly.json"
        assert main(["interpolate", worked_csv, "-o", str(out)]) == 0
        assert poly_from_json(out.read_text()).degree == 6


class TestEval:
    def test_round_trip_through_files(self, tmp_path, capsys):
        poly_path = tmp_path / "p.json"
        poly_path.write_text(poly_to_json(FULL_INTERPOLANT))
        assert main(["eval", str(poly_path), "--size", "4"]) == 0
        assert parse_matrix(capsys.readouterr().out) == WORKED_4X4

    def test_text_polynomial_input(self, tmp_path, capsys):
        poly_path = tmp_path / "p.txt"
        poly_path.write_text("1*x^1*y^1")
        assert main(["eval", str(poly_path), "--size", "3"]) == 0
        assert parse_matrix(capsys.readouterr().out) == RatMatrix(
            [[0, 2, 4], [0, 1, 2], [0, 0, 0]]
        )

    def test_size_above_limit(self, tmp_path, capsys):
        poly_path = tmp_path / "p.txt"
        poly_path.write_text("1*x^1*y^1")
        assert main(["eval", str(poly_path), "--size", str(MAX_EVAL_SIZE + 1)]) == 2
        _assert_input_error(capsys)

    @needs_int_limit
    @pytest.mark.parametrize(
        "name, text",
        [
            ("p.txt", "1*x^" + "9" * (INT_LIMIT + 1)),
            ("p.json", '[{"xexp": ' + "9" * (INT_LIMIT + 1) + ', "yexp": 0, "num": "1", "den": "1"}]'),
        ],
        ids=["text", "json"],
    )
    def test_exponent_past_int_limit_is_parse_error(self, name, text, tmp_path, capsys):
        poly_path = tmp_path / name
        poly_path.write_text(text)
        assert main(["eval", str(poly_path), "--size", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["code"] == "parse-error"
        assert str(INT_LIMIT) in record["message"] and "9" * 40 not in record["message"]

    def test_float_coefficient_is_parse_error(self, tmp_path, capsys):
        poly_path = tmp_path / "p.json"
        poly_path.write_text('[{"xexp": 1, "yexp": 0, "num": 1.5, "den": "1"}]')
        assert main(["eval", str(poly_path), "--size", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "parse-error"

    @pytest.mark.parametrize("seed", range(6))
    def test_streamed_rows_match_format_matrix(self, seed, tmp_path, capsys):
        """The rows eval writes one by one are, byte for byte, the CSV of the
        whole restriction, for rational, integer-valued and zero polynomials."""
        rng = random.Random(seed)
        P = [FULL_INTERPOLANT, BiPoly.zero(), (X**2 - X) / 2][seed % 3]
        if seed >= 3:
            P = random_poly(rng, max_degree=rng.randint(0, 12), n_terms=9, max_num=99, max_den=30)
        poly_path = tmp_path / "p.json"
        poly_path.write_text(poly_to_json(P))
        for W in (1, 2, rng.randint(3, 30)):
            assert main(["eval", str(poly_path), "--size", str(W)]) == 0
            assert capsys.readouterr().out == format_matrix(evaluate_on_lattice(P, W))
            out = tmp_path / "out.csv"
            assert main(["eval", str(poly_path), "--size", str(W), "-o", str(out)]) == 0
            assert out.read_text() == format_matrix(evaluate_on_lattice(P, W))

    def test_pinned_digest(self, tmp_path, capsys):
        poly_path = tmp_path / "p.json"
        poly_path.write_text(poly_to_json(FULL_INTERPOLANT))
        assert main(["eval", str(poly_path), "--size", "60"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "396cc54957581d466790d7e73a488032a5c32b3801f566de1f3c10ccd2707ad5"

    def test_never_builds_the_whole_matrix(self, tmp_path, capsys, monkeypatch):
        """eval streams its rows: it neither restricts to a RatMatrix nor
        formats one, in any namespace."""

        def refuse(*args):
            raise AssertionError("eval built the whole matrix")

        for module in (dhpoly, dhpoly.grid, dhpoly.cli, dhpoly.formats):
            for name in ("evaluate_on_lattice", "format_matrix"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        poly_path = tmp_path / "p.json"
        poly_path.write_text(poly_to_json(FULL_INTERPOLANT))
        assert main(["eval", str(poly_path), "--size", "4"]) == 0
        assert parse_matrix(capsys.readouterr().out) == WORKED_4X4

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_size_below_one_writes_nothing(self, size, tmp_path, capsys):
        poly_path = tmp_path / "p.txt"
        poly_path.write_text("1*x^1*y^1")
        out = tmp_path / "out.csv"
        assert main(["eval", str(poly_path), "--size", size, "-o", str(out)]) == 2
        _assert_input_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-3", str(MAX_EVAL_SIZE + 1)])
    def test_size_is_checked_before_the_polynomial_is_read(self, size, tmp_path, capsys):
        """A --size out of range is an input error even when the polynomial
        file would not parse."""
        poly_path = tmp_path / "p.txt"
        poly_path.write_text("1.5*x^1")
        assert main(["eval", str(poly_path), "--size", size]) == 2
        _assert_input_error(capsys)


class TestLaplacian:
    def test_matrix_input(self, sample_csv, capsys):
        assert main(["laplacian", sample_csv]) == 0
        assert parse_matrix(capsys.readouterr().out) == RatMatrix.zero(5)

    def test_poly_input(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("1*x^4 + -2*x^2 + -6*x^2*y^2 + 1*y^4")
        assert main(["laplacian", "--poly", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "[]"


def _long_output_request(command, path):
    """Write an input within the int string limit whose output is not, and
    return the command line: denominators of INT_LIMIT // 4 (laplacian),
    INT_LIMIT // 6 (interpolate) and 2 * INT_LIMIT // 3 (eval) digits meet
    in one output entry or coefficient, and complete fills an 8x8 border of
    INT_LIMIT // 20 digits (see TestComplete)."""
    rng = random.Random(28)

    def over(digits):
        return Fraction(1, rng.randrange(10 ** (digits - 1), 10**digits))

    if command == "complete":
        L, low = 8, 10 ** (INT_LIMIT // 20 - 1)
        path.write_text("".join(
            ",".join(
                str(Fraction(rng.randint(1, 9), rng.randrange(low, 10 * low)))
                if i in (0, L - 1) or j in (0, L - 1) else "?"
                for j in range(L)
            ) + "\n"
            for i in range(L)
        ))
        return ["complete", str(path)]
    if command == "laplacian":
        rows = [[over(INT_LIMIT // 4) for _ in range(3)] for _ in range(3)]
        path.write_text(format_matrix(RatMatrix(rows)))
        return ["laplacian", str(path)]
    if command == "interpolate":
        border = BorderSpec(3, tuple(over(INT_LIMIT // 6) for _ in range(8)))
        path.write_text(format_matrix(complete(border)))
        return ["interpolate", str(path)]
    path.write_text(poly_to_json(X * over(2 * INT_LIMIT // 3) + Y * over(2 * INT_LIMIT // 3)))
    return ["eval", str(path), "--size", "3"]


@needs_int_limit
@pytest.mark.parametrize("command", ["complete", "interpolate", "laplacian", "eval"])
def test_output_past_int_limit_names_the_variable(command, tmp_path, capsys):
    """Every writer maps the interpreter's int string limit error to one
    input-error record (exit 2, nothing on stdout) that names the limit and
    PYTHONINTMAXSTRDIGITS, not sys.set_int_max_str_digits(), which a CLI
    user cannot call.  With the limit lifted the same request succeeds."""
    argv = _long_output_request(command, tmp_path / "input")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["code"] == "input-error"
    assert "PYTHONINTMAXSTRDIGITS" in record["message"]
    assert str(INT_LIMIT) in record["message"]
    assert "set_int_max_str_digits" not in record["message"]
    sys.set_int_max_str_digits(0)
    try:
        assert main(argv) == 0
        assert capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(INT_LIMIT)


class TestPolyDegreeLimit:
    COMMANDS = [["eval", "--size", "3"], ["laplacian", "--poly"]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_above_limit_is_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(f"1*x^{MAX_POLY_DEGREE + 1}")
        assert main([*command, str(path)]) == 2
        _assert_input_error(capsys)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_total_degree_at_limit_runs(self, command, tmp_path, capsys):
        half = MAX_POLY_DEGREE // 2
        path = tmp_path / "p.txt"
        path.write_text(f"1*x^{half}*y^{MAX_POLY_DEGREE - half}")
        assert main([*command, str(path)]) == 0
        path.write_text(f"1*x^{half + 1}*y^{MAX_POLY_DEGREE - half}")
        assert main([*command, str(path)]) == 2

    @pytest.mark.parametrize("read", [False, True], ids=["constructor", "parse_poly"])
    def test_huge_degree_never_builds_the_horner_table(self, read, tmp_path):
        """A degree-10^9 monomial answers degree, ==, hash, str and terms(),
        and fails the degree check, without building its Horner table (10^9
        + 1 columns): the unit-level guard of a huge degree exiting at once."""
        text = '[{"xexp": 1000000000, "yexp": 0, "num": "1", "den": "1"}]'
        P = parse_poly(text) if read else BiPoly({(10**9, 0): 1})
        assert P.degree == 10**9
        assert P == BiPoly.monomial(10**9, 0) and P != X
        assert hash(P) == hash(BiPoly.monomial(10**9, 0))
        assert str(P) == "1*x^1000000000"
        assert dict(P.terms()) == {(10**9, 0): 1}
        path = tmp_path / "huge.json"
        path.write_text(text)
        with pytest.raises(SizeError):
            _read_poly(str(path))
        assert P._table is None


class TestBasis:
    def test_json_output(self, capsys):
        assert main(["basis", "--degree", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_degree"] == 2
        assert len(payload["elements"]) == 5

    def test_text_output(self, capsys):
        assert main(["basis", "--degree", "1", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["1", "1*x^1", "1*y^1"]

    def test_degree_above_limit(self, capsys):
        assert main(["basis", "--degree", str(MAX_BASIS_DEGREE + 1)]) == 2
        _assert_input_error(capsys)

    def test_negative_degree(self, capsys):
        assert main(["basis", "--degree", "-1"]) == 2
        _assert_input_error(capsys)

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "34214712e165380634030814b23e659f09fcd7e5a171c5d8fef691f21a510f46"),
            ("text", "00f266758121f75b639dd025af2100b5adc0e7194128ab901c6d6d7f8b4c29b7"),
        ],
    )
    def test_largest_basis_is_pinned(self, fmt, digest, capsys):
        assert main(["basis", "--degree", str(MAX_BASIS_DEGREE), "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestSandpileVerify:
    def test_conserved_weight(self, capsys):
        code = main(
            ["sandpile-verify", "--size", "5", "--steps", "30", "--seed", "1", "--gf", "i"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 31
        values = {line.split(",")[1] for line in lines}
        assert len(values) == 1

    def test_violating_weight(self, tmp_path, capsys):
        rows = [[0] * 5 for _ in range(5)]
        rows[2][2] = 1
        path = tmp_path / "f.csv"
        path.write_text(format_matrix(RatMatrix(rows)))
        code = main(
            [
                "sandpile-verify",
                "--size", "5",
                "--steps", "40",
                "--seed", "3",
                "--gf", str(path),
            ]
        )
        assert code == 1

    def test_rational_custom_weights(self, tmp_path, capsys):
        f = RatMatrix(
            [
                [Fraction(-7, 3), Fraction(1, 2), 0, 2, Fraction(5, 6)],
                [1, Fraction(-1, 4), 3, Fraction(2, 3), -1],
                [0, 4, Fraction(-7, 3), 1, Fraction(1, 2)],
                [Fraction(3, 5), -2, 1, 0, 7],
                [5, Fraction(1, 2), Fraction(-9, 2), 1, 0],
            ]
        )
        path = tmp_path / "f.csv"
        path.write_text(format_matrix(f))
        code = main(
            ["sandpile-verify", "--size", "5", "--steps", "12", "--seed", "2", "--gf", str(path)]
        )
        # phi is a residue mod L only for integer weights
        assert code == 2
        _assert_input_error(capsys)

    def test_integer_custom_weights(self, tmp_path, capsys):
        f = RatMatrix(
            [
                [-7, 1, 0, 2, 5],
                [1, -1, 3, 2, -1],
                [0, 4, -7, 1, 1],
                [3, -2, 1, 0, 7],
                [5, 1, -9, 1, 0],
            ]
        )
        path = tmp_path / "f.csv"
        path.write_text(format_matrix(f))
        code = main(
            ["sandpile-verify", "--size", "5", "--steps", "12", "--seed", "2", "--gf", str(path)]
        )
        lines = capsys.readouterr().out.splitlines()
        config, expected = random_config(5, 2), []
        for t in range(13):
            expected.append(naive_phi(f, config))
            config = naive_step(config)
        assert lines == [f"{t},{v}" for t, v in enumerate(expected)]
        assert code == (0 if len(set(expected)) == 1 else 1)

    def test_largest_trace_is_pinned(self, capsys):
        argv = ["sandpile-verify", "--size", str(MAX_SANDPILE_SIZE)]
        argv += ["--steps", str(MAX_SANDPILE_STEPS), "--seed", "1", "--gf", "i2-j2"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "592d2c9ad54b938196888d910eb7e38f08e5a5f04abb353e15d14d3c28a29269"

    def test_size_mismatch(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text(format_matrix(RatMatrix.zero(4)))
        code = main(
            ["sandpile-verify", "--size", "5", "--steps", "5", "--seed", "1", "--gf", str(path)]
        )
        assert code == 2

    def test_negative_steps(self, capsys):
        code = main(
            ["sandpile-verify", "--size", "5", "--steps", "-5", "--seed", "1", "--gf", "i"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "input-error"

    def test_size_above_limit(self, capsys):
        size = str(MAX_SANDPILE_SIZE + 1)
        code = main(
            ["sandpile-verify", "--size", size, "--steps", "5", "--seed", "1", "--gf", "i"]
        )
        assert code == 2
        _assert_input_error(capsys)

    def test_steps_above_limit(self, capsys):
        steps = str(MAX_SANDPILE_STEPS + 1)
        code = main(
            ["sandpile-verify", "--size", "5", "--steps", steps, "--seed", "1", "--gf", "i"]
        )
        assert code == 2
        _assert_input_error(capsys)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert json.loads(capsys.readouterr().err)["code"] == "usage"

    @pytest.mark.parametrize(
        "command, limits",
        [
            ("basis", [MAX_BASIS_DEGREE]),
            ("eval", [MAX_EVAL_SIZE, MAX_POLY_DEGREE]),
            ("sandpile-verify", [MAX_SANDPILE_SIZE, MAX_SANDPILE_STEPS]),
            ("interpolate", [MAX_INTERPOLATE_SIZE]),
            ("complete", [MAX_COMPLETE_SIZE]),
            ("laplacian", [MAX_POLY_DEGREE]),
        ],
    )
    def test_help_shows_limits(self, command, limits, capsys):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for limit in limits:
            assert f"at most {limit}" in text

    def test_module_entry_point(self, sample_csv):
        result = subprocess.run(
            [sys.executable, "-m", "dhpoly", "check", sample_csv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["inner_harmonic"] is True

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; each call must still start
        # from the defaults, whatever the previous call parsed or rejected
        assert _build_parser() is _build_parser()
        assert main(["basis", "--degree", "x"]) == 2
        assert json.loads(capsys.readouterr().err)["code"] == "usage"
        assert main(["basis", "--degree", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["max_degree"] == 1
        assert main(["basis", "--degree", "1", "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "1*x^1", "1*y^1"]
        assert main(["basis", "--degree", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["elements"]) == 3
        assert main(["basis", "--help"]) == 0
        assert "--degree" in capsys.readouterr().out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("dhpoly ")
