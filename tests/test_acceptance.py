"""Acceptance suite: every criterion at zero tolerance (exact rational
equality throughout), with the stated runtime budgets enforced.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from dhpoly import (
    BorderSpec,
    RatMatrix,
    bilinear,
    build_impulse_set,
    check_conservation,
    complete,
    discrete_laplacian_poly,
    evaluate_on_lattice,
    extend,
    extension_coefficients,
    extract_border,
    generate_basis,
    interpolate_3x3,
    interpolates,
    is_discrete_harmonic,
    orbit,
    random_config,
    standard_gf,
    tabulated_basis,
    telescopic,
)
from dhpoly.formats import poly_to_json

from helpers import random_border, random_inner_harmonic, rank
from reference_data import (
    BILINEAR_INTERPOLANT,
    FULL_INTERPOLANT,
    MINOR_INTERPOLANT,
    REFERENCE_IMPULSES,
    REFERENCE_Z,
    SAMPLE_7X7,
    WORKED_4X4,
    WORKED_MINOR_3X3,
)


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_worked_example_fidelity():
    start = time.perf_counter()
    assert interpolate_3x3(WORKED_MINOR_3X3) == MINOR_INTERPOLANT
    z = extension_coefficients(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES)
    assert z == REFERENCE_Z
    sigma = extend(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES)
    assert sigma == FULL_INTERPOLANT
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"base case, multipliers and extension coefficient-exact ({elapsed:.3f}s)")


def test_criterion_2_fixture_evaluation():
    assert evaluate_on_lattice(FULL_INTERPOLANT, 4) == WORKED_4X4
    grid = evaluate_on_lattice(REFERENCE_IMPULSES.polys[0], 4)
    for x in range(4):
        for y in range(4):
            expected = Fraction(-720) if (x, y) == (0, 3) else Fraction(0)
            assert grid.at(x, y) == expected
    report(2, "stored interpolant and first impulse fixture evaluate exactly")


def test_criterion_3_interpolation_behavior():
    start = time.perf_counter()
    rng = random.Random(2026)
    checked = 0
    for L in range(3, 8):
        for _ in range(40):
            H = random_inner_harmonic(rng, L)
            P = telescopic(H)
            assert interpolates(P, H)
            assert discrete_laplacian_poly(P).is_zero
            assert P.degree <= 2 * (L - 1)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 300.0
    report(3, f"200 random matrices interpolated harmonically ({elapsed:.1f}s)")


def test_criterion_4_bilinear_contrast():
    B = bilinear(WORKED_4X4)
    assert B == BILINEAR_INTERPOLANT
    assert not discrete_laplacian_poly(B).is_zero
    report(4, "bilinear interpolant coefficient-exact and not discrete harmonic")


def test_criterion_5_tabulated_basis_conformance():
    elements = tabulated_basis().elements
    assert len(elements) == 19
    for p in elements:
        assert discrete_laplacian_poly(p).is_zero
    basis = generate_basis(9)
    assert len(basis) == 19
    monos = sorted(
        {key for p in list(basis) + list(elements) for key, _ in p.terms()}
    )
    vectors = [[p.coefficient(*m) for m in monos] for p in basis]
    assert rank(vectors) == 19
    for u in elements:
        augmented = vectors + [[u.coefficient(*m) for m in monos]]
        assert rank(augmented) == 19
    report(5, "all 19 tabulated elements harmonic, spanned by the generated basis")


def test_criterion_6_completion_suite():
    for L in range(3, 13):
        assert complete(BorderSpec(L, (0,) * (4 * L - 4))) == RatMatrix.zero(L)
    assert complete(extract_border(SAMPLE_7X7)) == SAMPLE_7X7
    rng = random.Random(777)
    for _ in range(100):
        L = rng.randint(3, 8)
        H = complete(random_border(rng, L))
        assert complete(extract_border(H)) == H
    report(6, "zero borders, stored sample and 100 idempotence checks exact")


def test_criterion_7_impulse_suite():
    start = time.perf_counter()
    for L in range(3, 7):
        impulses = build_impulse_set(L)
        designated = ((0, L), (L, L), (L, 0), (L - 1, L))
        for k, (xi, gamma) in enumerate(zip(impulses.polys, impulses.values)):
            assert gamma != 0
            assert xi.degree <= 2 * L
            grid = evaluate_on_lattice(xi, L + 1)
            for x in range(L + 1):
                for y in range(L + 1):
                    v = grid.at(x, y)
                    if (x, y) == designated[k]:
                        assert v == gamma
                    elif k == 3 and (x, y) == (L, L - 1):
                        assert v == -gamma
                    else:
                        assert v == 0
        xi4 = impulses.polys[3]
        assert xi4.evaluate(L - 1, L) == -xi4.evaluate(L, L - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, f"impulse patterns exact for sizes 3..6 ({elapsed:.1f}s)")


def test_criterion_8_sandpile_conservation():
    for L in (5, 7, 8):
        for name in ("i", "j", "i2-j2"):
            f = standard_gf(L, name)
            for seed in range(20):
                config = random_config(L, seed)
                states = orbit(config, 50)
                total = config.total
                for state in states:
                    assert state.total == total
                assert check_conservation(f, config, 50)
    report(8, "weighted sums conserved over 50 steps, 20 configs, sizes 5/7/8")


def _pipeline_transcript():
    """Serialized outputs of the computations behind criteria 1-7."""
    build_impulse_set.cache_clear()
    parts = []
    parts.append(poly_to_json(interpolate_3x3(WORKED_MINOR_3X3)))
    parts.append(
        repr(extension_coefficients(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES))
    )
    parts.append(poly_to_json(extend(MINOR_INTERPOLANT, WORKED_4X4, REFERENCE_IMPULSES)))
    parts.append(repr(evaluate_on_lattice(FULL_INTERPOLANT, 4).rows))
    parts.append(repr(evaluate_on_lattice(REFERENCE_IMPULSES.polys[0], 4).rows))
    rng = random.Random(99)
    for L in (3, 4, 5):
        H = random_inner_harmonic(rng, L)
        parts.append(poly_to_json(telescopic(H)))
    parts.append(poly_to_json(bilinear(WORKED_4X4)))
    for p in generate_basis(9):
        parts.append(poly_to_json(p))
    for L in (3, 4, 5, 6):
        impulses = build_impulse_set(L)
        parts.extend(poly_to_json(p) for p in impulses.polys)
        parts.append(repr(impulses.values))
    rng = random.Random(100)
    for L in (3, 5, 8):
        parts.append(repr(complete(random_border(rng, L)).rows))
    return "\n".join(parts).encode()


def test_criterion_9_determinism():
    first = _pipeline_transcript()
    second = _pipeline_transcript()
    assert first == second
    report(9, "repeated pipeline runs byte-identical")


#: SHA-256 of the criterion-9 transcript.  A change that alters it must say
#: why: every output in the transcript is meant to stay byte-identical.
TRANSCRIPT_SHA256 = "ff5f37dd158c1f2d22fdb01e03ef941af73bb59e236902da8fae153f9b8f0573"


def test_criterion_9_transcript_digest():
    assert hashlib.sha256(_pipeline_transcript()).hexdigest() == TRANSCRIPT_SHA256
    report(9, "pipeline transcript matches its pinned SHA-256")
