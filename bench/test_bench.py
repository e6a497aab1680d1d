"""Tests of the benchmark itself: oracle, span wrappers, seeded inputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import fractions
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

dhpoly = worker.import_dhpoly()

#: The 4x4 worked example of the dhpoly README and its lattice.
H4 = [[27, 18, -9, -54], [8, 2, -16, -46], [1, -2, -11, -26], [-3, 0, 0, 0]]


def _rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _terms(P):
    return dict(P.terms())


# -- oracle -------------------------------------------------------------------


def test_oracle_accepts_the_telescopic_interpolant():
    H = _rows(H4)
    assert oracle.check_interpolant(_terms(dhpoly.telescopic(dhpoly.RatMatrix(H))), H) is None


def test_oracle_rejects_one_perturbed_lattice_value():
    H = _rows(H4)
    terms = _terms(dhpoly.telescopic(dhpoly.RatMatrix(H)))
    H[1][2] += Fraction(1, 3)
    assert "differs" in oracle.check_interpolant(terms, H)


def test_oracle_rejects_an_interpolant_that_is_not_harmonic():
    H = _rows(H4)
    bilinear = _terms(dhpoly.bilinear(dhpoly.RatMatrix(H)))
    assert "stencil" in oracle.check_interpolant(bilinear, H)


def test_oracle_rejects_degree_above_the_bound():
    H = [[Fraction(0)] * 3 for _ in range(3)]
    assert "degree" in oracle.check_interpolant({(5, 0): Fraction(1)}, H)


def test_oracle_checks_the_cli_json_form():
    H = _rows(H4)
    text = dhpoly.formats.poly_to_json(dhpoly.telescopic(dhpoly.RatMatrix(H)))
    assert oracle.check_interpolant(oracle.parse_poly_json(text), H) is None


def _completion_case():
    bordered = workloads.bordered_rows(random.Random(7), 6)
    border = dhpoly.formats.parse_bordered(workloads.to_csv(bordered))
    text = dhpoly.formats.format_matrix(dhpoly.complete(border))
    return bordered, text


def test_oracle_accepts_a_completion():
    bordered, text = _completion_case()
    assert oracle.check_completion(text, bordered) is None


def test_oracle_rejects_one_perturbed_inner_value():
    bordered, text = _completion_case()
    out = [line.split(",") for line in text.splitlines()]
    out[2][3] = str(Fraction(out[2][3]) + 1)
    assert "stencil" in oracle.check_completion("\n".join(map(",".join, out)), bordered)


def test_oracle_rejects_a_changed_border_and_decimals():
    bordered, text = _completion_case()
    out = [line.split(",") for line in text.splitlines()]
    out[0][0] = str(Fraction(out[0][0]) + 1)
    assert "border" in oracle.check_completion("\n".join(map(",".join, out)), bordered)
    assert "exact" in oracle.check_completion(text.replace(out[0][1], "0.5", 1), bordered)


def test_oracle_sandpile_trace():
    text = "".join(f"{t},{v}\n" for t, v in enumerate(oracle.sandpile_trace(12, 20, 5, "i2-j2")[0]))
    assert oracle.check_sandpile(text, 12, 20, 5, "i2-j2") is None
    lines = text.splitlines()
    lines[4] = "4,999"
    assert "trace line 4" in oracle.check_sandpile("\n".join(lines), 12, 20, 5, "i2-j2")


def test_oracle_sandpile_matches_the_library_orbit():
    f = dhpoly.standard_gf(10, "j")
    values = [dhpoly.phi(f, c) for c in dhpoly.orbit(dhpoly.random_config(10, 3), 15)]
    assert oracle.sandpile_trace(10, 15, 3, "j")[0] == values


# -- span wrappers ------------------------------------------------------------


def _namespaces():
    mods = [m for name, m in sys.modules.items() if name == "dhpoly" or name.startswith("dhpoly.")]
    return {id(m): dict(vars(m)) for m in mods}, dict(vars(dhpoly.BiPoly))


def test_wrappers_cover_every_importing_namespace_and_are_restored():
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install(dhpoly)
    try:
        assert tracer.absent == []
        # one name per module that imported it, each wrapped
        for mod in (dhpoly, dhpoly.grid, dhpoly.interpolate, dhpoly.cli):
            assert mod.interpolates is not before[0][id(dhpoly.grid)]["interpolates"]
        assert dhpoly.BiPoly.evaluate is not before[1]["evaluate"]
        span = tracer.begin("request", {"L": 4})
        dhpoly.telescopic(dhpoly.RatMatrix(H4))
        tracer.end(span)
    finally:
        tracer.restore()
    assert _namespaces() == before
    assert tracer.totals["grid.interpolates"][0] >= 1
    assert tracer.totals["poly.evaluate"][0] >= 16
    request = next(s for s in tracer.spans if s.name == "request")
    assert request.attrs == {"L": 4} and request.parent is None
    assert all(s.parent is not None for s in tracer.spans if s.name != "request")


def test_self_time_excludes_children_and_leaves_roll_up():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    for _ in range(3):
        tracer.end(tracer.begin("leaf"))
    tracer.end(outer)
    assert [s.name for s in tracer.spans] == ["outer"]
    assert outer.rollup["leaf"][0] == 3
    calls, ns, self_ns = tracer.totals["outer"]
    assert calls == 1 and self_ns == ns - outer.rollup["leaf"][1]


def test_a_removed_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(dhpoly, "build_system")
    monkeypatch.delattr(dhpoly.completion, "build_system")
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install(dhpoly)
    tracer.restore()
    assert tracer.absent == ["completion.build_system"]
    assert _namespaces() == before


# -- seeded inputs and digests ------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_mix_puts_p50_and_p90_well_inside_one_class(name):
    mix = workloads.WORKLOADS[name].mix
    assert sum(count for _, count in mix) == workloads.REQUESTS
    bounds, start = [], 0
    for _, count in mix:
        bounds.append((start, start + count))
        start += count
    # statistics.quantiles interpolates between ranks q(n+1)-1 and q(n+1)
    for q in (0.5, 0.9):
        lo = int(q * (workloads.REQUESTS + 1)) - 1
        assert any(
            a + 4 <= lo and lo + 1 <= b - 5 for a, b in bounds
        ), (name, q)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert workloads.make_requests(name, 11) == workloads.make_requests(name, 11)
    assert workloads.make_requests(name, 11) != workloads.make_requests(name, 12)


def test_generated_matrices_are_inner_harmonic():
    for req in workloads.make_requests("warm-interp", 3)[:10]:
        assert dhpoly.is_inner_harmonic(dhpoly.RatMatrix(workloads.rows_of(req)))


def _small_session(name, seed, tmp_path, count=4):
    """A session over the first few requests of the smallest size."""
    smallest = min(workloads.WORKLOADS[name].mix)[0]
    requests = [r for r in workloads.make_requests(name, seed) if r["L"] == smallest][:count]
    run.write_inputs(name, requests, tmp_path)
    return worker.Session(dhpoly, workloads.WORKLOADS[name], requests)


@pytest.mark.parametrize("name", ["cold-interp", "border-complete", "sandpile-verify"])
def test_same_seed_same_digest(name, tmp_path):
    digests = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        session = _small_session(name, 5, tmp_path / str(k))
        passes = worker.Passes(len(session.requests))
        passes.run(session)
        passes.check(session)
        assert passes.failures == {}
        digests.append(passes.digest())
    assert digests[0] == digests[1]


def test_traced_run_matches_untraced_and_restores(tmp_path):
    session = _small_session("cold-interp", 2, tmp_path)
    before = _namespaces()
    cpus = worker.allowed_cpus()
    try:
        result = worker.traced_run(session, tmp_path / "trace.json", cpus)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    assert _namespaces() == before
    assert result["failed"] == 0 and result["digest"] == result["traced_digest"]
    layer = result["per_layer"]
    assert layer["interpolate.impulse_cache_hit_ratio"] == 0
    assert layer["interpolate.build_impulse_set.calls"] > 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert {s["attrs"]["L"] for s in trace["spans"] if s["name"] == "request"} == {4}


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer = worker.per_layer(spans.Tracer(), 1, {"hits": 0, "misses": 0}, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


# -- timing -------------------------------------------------------------------


def test_figures_scale_each_sample_by_the_reference_timed_around_it():
    slow, n = 2 * reference.NOMINAL_S, workloads.REQUESTS
    result = {
        "wall_s": [[0.1, 0.3, 0.1]] * n,
        "cpu_s": [[0.1, 0.1, 0.3]] * n,
        "start_s": [[1.0, 3.0, 3.2]] * n,
        # At the reference speed until t=2, then twice as slow.
        "reference_s": [(t, reference.NOMINAL_S) for t in (0.0, 0.5, 1.5)]
        + [(t, slow) for t in (2.5, 2.8, 3.5, 4.0)],
    }
    assert run.scale_factors(result)[0] == [1.0, 0.5, 0.5]
    figures = run.figures(result)
    assert figures["latency_p50_ms"] == pytest.approx(100)  # median of 100, 150, 50
    assert figures["cpu_ms_per_req"] == pytest.approx(100)  # median of 100, 50, 150
    assert figures["throughput_rps"] == pytest.approx(10)


def test_reference_kernel_ignores_changes_to_the_fractions_module(monkeypatch):
    before = reference.kernel()
    monkeypatch.setattr(fractions.Fraction, "__add__", lambda a, b: 0)
    monkeypatch.setattr(fractions.Fraction, "__radd__", lambda a, b: 0)
    assert reference.kernel() == before


def test_timed_run_samples_every_request_and_times_the_reference(tmp_path):
    session = _small_session("border-complete", 4, tmp_path)
    cpus = worker.allowed_cpus()
    try:
        result = worker.timed_run(session, 0, cpus)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    assert result["failed"] == 0 and result["attempted"] == len(session.requests)
    assert all(len(s) == 1 for s in result["wall_s"])
    # Timed at the start and the end of the pass, so every sample has one on each side.
    times = [t for t, _ in result["reference_s"]]
    assert times[0] < min(min(s) for s in result["start_s"]) and times[-1] > max(max(s) for s in result["start_s"])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pinning_stays_within_the_allowed_cpus():
    cpus = worker.allowed_cpus()
    try:
        worker.pin_to_quietest_cpu(cpus)
        pinned = os.sched_getaffinity(0)
        assert pinned <= set(cpus) and (len(pinned) == 1 or len(cpus) == 1)
    finally:
        os.sched_setaffinity(0, cpus)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sandpile-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
