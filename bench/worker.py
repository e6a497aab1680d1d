"""One fresh benchmark process for one workload.

Started by run.py.  It imports dhpoly from the checkout's ``src``, does the
workload's warm-up, prints ``ready`` (run.py times set-up up to that line)
and then the reference kernel's time (see reference.py), and, unless
``--setup-only``, runs the request list in a closed loop with one client,
checks every output with the benchmark's own oracle and writes a result
file.

With ``--trace-file`` it runs an untraced pass, a pass with span wrappers
installed (see spans.py) and another untraced pass, and reports per-layer
numbers instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import oracle
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def allowed_cpus():
    """The CPUs this process may run on, or None where that is unknown."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def pin_to_quietest_cpu(allowed):
    """Move this process to the CPU of ``allowed`` that runs a fixed loop
    fastest.

    On a shared host each CPU's speed drifts with the load its neighbours
    put on it, independently of the other CPUs and over seconds to minutes.
    Probing before each pass and staying on the quietest CPU for the pass
    avoids the slower CPU and keeps the reference kernel on the CPU of the
    requests it scales; the load is still one process, one thread.
    """
    if not allowed or len(allowed) < 2:
        return
    best = None
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        seconds = min(_probe() for _ in range(3))
        if best is None or seconds < best[0]:
            best = (seconds, cpu)
    os.sched_setaffinity(0, {best[1]})


def _probe():
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


def import_dhpoly():
    sys.path.insert(0, str(ROOT / "src"))
    import dhpoly
    import dhpoly.cli

    if Path(dhpoly.__file__).resolve().parent != (ROOT / "src" / "dhpoly").resolve():
        raise ImportError(f"dhpoly imported from {dhpoly.__file__}, not from the checkout")
    return dhpoly


class Session:
    """Turns the request list of one workload into timed calls and checks."""

    def __init__(self, dhpoly, workload, requests):
        self.dhpoly = dhpoly
        self.workload = workload
        self.requests = requests
        # Kept before any wrapping, for cache_clear() and cache_info().
        self.impulse_builder = dhpoly.interpolate.build_impulse_set
        self.impulse_cache = {"hits": 0, "misses": 0}
        if workload.name == "warm-interp":
            self.matrices = [dhpoly.RatMatrix(workloads.rows_of(r)) for r in requests]

    def _cache_info(self):
        info = getattr(self.impulse_builder, "cache_info", None)
        return info() if info else None

    def run_one(self, i, tracer=None):
        """Request i, timed.  Returns (wall seconds, CPU seconds, output
        text, failure reason).

        Clearing the impulse cache for cold-interp, like every new dhpoly
        process starts with an empty one, happens outside the timed span.
        """
        if self.workload.name == "cold-interp" and hasattr(self.impulse_builder, "cache_clear"):
            self.impulse_builder.cache_clear()
        before = self._cache_info()
        span = tracer.begin("request", {"index": i, "L": self.requests[i]["L"]}) if tracer else None
        cpu, start = time.process_time(), time.perf_counter()
        try:
            raw = self.call(i)
        except Exception as exc:  # a failed request is counted, not fatal
            raw = (None, "", f"{type(exc).__name__}: {exc}")
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        if span is not None:
            tracer.end(span)
        after = self._cache_info()
        if before is not None:
            self.impulse_cache["hits"] += after.hits - before.hits
            self.impulse_cache["misses"] += after.misses - before.misses
        return (seconds, cpu) + self.describe(raw)

    def call(self, i):
        req = self.requests[i]
        if not self.workload.cli:
            return self.dhpoly.telescopic(self.matrices[i])
        if self.workload.name == "cold-interp":
            argv = ["interpolate", req["csv"], "--verify"]
        elif self.workload.name == "border-complete":
            argv = ["complete", req["csv"]]
        else:
            argv = ["sandpile-verify", "--size", str(req["L"]), "--steps", str(req["steps"]),
                    "--seed", str(req["seed"]), "--gf", req["gf"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.dhpoly.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def describe(raw):
        """(output text, failure reason or None) for one call's result."""
        if isinstance(raw, tuple):
            code, out, err = raw
            if code != 0:
                return out, f"exit code {code}: {err.strip()}"
            return out, None
        terms = sorted((a, b, c.numerator, c.denominator) for (a, b), c in raw.terms())
        return json.dumps([{"xexp": a, "yexp": b, "num": str(n), "den": str(d)}
                           for a, b, n, d in terms]), None

    def check(self, i, text):
        """The oracle's verdict on request i's output text."""
        req = self.requests[i]
        try:
            if self.workload.name == "sandpile-verify":
                return oracle.check_sandpile(text, req["L"], req["steps"], req["seed"], req["gf"])
            if self.workload.name == "border-complete":
                return oracle.check_completion(text, workloads.rows_of(req))
            return oracle.check_interpolant(oracle.parse_poly_json(text), workloads.rows_of(req))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"


class Passes:
    """Outputs, latencies and failures of the passes over one request list.

    ``samples[i]``, ``cpu[i]`` and ``starts[i]`` hold request i's wall and
    CPU seconds and its perf_counter() start, one per pass that reached it.
    With ``with_reference`` the reference kernel is timed between requests every
    ``reference.INTERVAL_S`` seconds, into ``refs`` as (time, seconds).
    """

    def __init__(self, n, with_reference=False):
        self.samples = [[] for _ in range(n)]
        self.cpu = [[] for _ in range(n)]
        self.starts = [[] for _ in range(n)]
        self.refs = [] if with_reference else None
        self.outputs = [None] * n
        self.failures = {}

    @property
    def attempted(self):
        return sum(map(len, self.samples))

    @property
    def failed(self):
        return sum(len(self.samples[i]) for i in self.failures)

    def run(self, session, tracer=None, until=None):
        """Every request once, in order, or those begun before the
        perf_counter() time ``until``.  A request fails on an exception, a
        nonzero exit code, or an output that differs from its first one."""
        self.time_reference()
        for i in range(len(self.samples)):
            if until is not None and time.perf_counter() >= until:
                return
            self.time_reference(reference.INTERVAL_S)
            self.starts[i].append(time.perf_counter())
            seconds, cpu, text, reason = session.run_one(i, tracer)
            self.samples[i].append(seconds)
            self.cpu[i].append(cpu)
            if self.outputs[i] is None:
                self.outputs[i] = text
            elif reason is None and text != self.outputs[i]:
                reason = "output differs from the first pass"
            if reason is not None:
                self.failures.setdefault(i, reason)

    def time_reference(self, interval=0.0):
        """Time the reference kernel if ``interval`` seconds have passed
        since it was last timed."""
        if self.refs is None:
            return
        now = time.perf_counter()
        if not self.refs or now - self.refs[-1][0] >= interval:
            self.refs.append((now, reference.measure()))

    def check(self, session):
        """Apply the oracle to every output not already failed."""
        for i, text in enumerate(self.outputs):
            if i not in self.failures:
                reason = session.check(i, text)
                if reason is not None:
                    self.failures[i] = reason

    def digest(self):
        h = hashlib.sha256()
        for i, text in enumerate(self.outputs):
            h.update(f"{i}\n{text}\n".encode())
        return h.hexdigest()

    def first_failures(self):
        return {str(i): r for i, r in sorted(self.failures.items())[:5]}


def timed_run(session, seconds, cpus):
    """One whole pass, then passes until ``seconds`` have elapsed; the last
    one stops at that time, so early requests may have a sample more.

    Returns every sample; run.py reduces them to the reported figures.
    """
    passes = Passes(len(session.requests), with_reference=True)
    until = time.perf_counter() + seconds
    pin_to_quietest_cpu(cpus)
    passes.run(session)
    while time.perf_counter() < until:
        pin_to_quietest_cpu(cpus)
        passes.run(session, until=until)
    passes.time_reference()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes.check(session)
    return {
        "attempted": passes.attempted,
        "failed": passes.failed,
        "failures": passes.first_failures(),
        "wall_s": passes.samples,
        "cpu_s": passes.cpu,
        "start_s": passes.starts,
        "reference_s": passes.refs,
        "peak_rss_mb": rss_mb,
        "digest": passes.digest(),
    }


# -- traced run ---------------------------------------------------------------

def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _poly_bits(polys):
    return max((_bits(c) for p in polys for _, c in p.terms()), default=0)


def _linalg_hook(name):
    def hook(tracer, args, kwargs, result):
        rows = args[0]
        if not any(tracer.inside(n) for n in ("linalg.solve", "linalg.nullspace", "linalg.rref")):
            ncols = None
            if name != "linalg.solve":
                ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
            if ncols is None:
                ncols = len(rows[0]) if rows else 0
            tracer.counts["linalg.entries"] += len(rows) * ncols
        if name == "linalg.solve":
            tracer.counts["linalg.solve.unknowns"] += len(rows)
            values = result
        elif name == "linalg.rref":
            values = [v for row in result[0] for v in row]
        else:
            values = [v for vec in result for v in vec]
            # Impulse searches, not the basis, inside an impulse build.
            if tracer.inside("interpolate.build_impulse_set") and not tracer.inside("poly.generate_basis"):
                tracer.counts["nullspace_in_build"] += 1
        bits = max((_bits(v) for v in values), default=0)
        tracer.maxima["linalg.max_result_bits"] = max(tracer.maxima["linalg.max_result_bits"], bits)

    return hook


def _poly_hook(extract):
    def hook(tracer, args, kwargs, result):
        bits = _poly_bits(extract(result))
        tracer.maxima["poly.max_coeff_bits"] = max(tracer.maxima["poly.max_coeff_bits"], bits)

    return hook


def _count(key, amount):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, result)

    return hook


def hooks(dhpoly):
    """Counters taken from the arguments and results of wrapped calls."""
    threshold = getattr(dhpoly.sandpile, "THRESHOLD", 4)
    single = _poly_hook(lambda p: [p])
    table = {
        "poly.evaluate": _count("poly.evaluate.terms", lambda a, r: len(a[0].terms())),
        "grid.evaluate_on_lattice": _count("grid.lattice_points", lambda a, r: a[1] * a[1]),
        "completion.complete": _count("completion.unknowns", lambda a, r: (a[0].size - 2) ** 2),
        "sandpile.step": _count(
            "sandpile.topplings", lambda a, r: sum(h >= threshold for row in a[0].heights for h in row)
        ),
        "interpolate.telescopic": single,
        "interpolate.extend": single,
        "interpolate.interpolate_3x3": single,
        "interpolate.bilinear": single,
        "interpolate.build_impulse_set": _poly_hook(lambda s: s.polys),
        "poly.generate_basis": _poly_hook(lambda b: b.elements),
    }
    for name in ("format_matrix", "poly_to_json", "poly_to_text"):
        table[f"formats.{name}"] = _count("formats.bytes_out", lambda a, r: len(r))
    for name in ("solve", "nullspace", "rref"):
        table[f"linalg.{name}"] = _linalg_hook(f"linalg.{name}")
    return table


def per_layer(tracer, n, cache, overhead):
    """Per-request metrics of each layer from one traced pass of n requests.

    Times are in ms per request; ``.ms`` is inclusive, ``.self_ms`` excludes
    child spans.  Ratios and maxima are over the whole pass.
    """
    out = {}

    def timing(name, *fields):
        calls, ns, self_ns = tracer.totals.get(name, (0, 0, 0))
        values = {"calls": calls, "ms": ns / 1e6, "self_ms": self_ns / 1e6}
        for field in fields:
            out[f"{name}.{field}"] = values[field] / n

    def count(name, key=None):
        out[name] = tracer.counts[key or name] / n

    timing("interpolate.build_impulse_set", "calls", "ms", "self_ms")
    lookups = cache["hits"] + cache["misses"]
    out["interpolate.impulse_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    # Each computed build needs three searched impulses (the fourth is a swap).
    builds = cache["misses"]
    out["interpolate.nullspace_per_impulse"] = (
        tracer.counts["nullspace_in_build"] / (3 * builds) if builds else 0.0
    )
    timing("interpolate.extend", "calls", "ms", "self_ms")
    timing("interpolate.telescopic", "ms")
    timing("poly.generate_basis", "calls", "ms", "self_ms")
    timing("poly.evaluate", "calls", "ms")
    count("poly.evaluate.terms")
    timing("poly.is_discrete_harmonic", "calls", "ms")
    out["poly.max_coeff_bits"] = tracer.maxima["poly.max_coeff_bits"]
    timing("grid.interpolates", "calls", "ms")
    timing("grid.is_inner_harmonic", "calls", "ms")
    count("grid.lattice_points")
    timing("linalg.solve", "calls", "ms")
    count("linalg.solve.unknowns")
    timing("linalg.nullspace", "calls", "ms")
    timing("linalg.rref", "calls", "ms")
    count("linalg.entries")
    out["linalg.max_result_bits"] = tracer.maxima["linalg.max_result_bits"]
    timing("completion.complete", "ms", "self_ms")
    count("completion.unknowns")
    timing("sandpile.phi", "calls", "ms")
    timing("sandpile.step", "calls", "ms")
    count("sandpile.topplings")
    timing("cli.main", "self_ms")
    for name in ("parse_matrix", "parse_bordered", "poly_to_json", "format_matrix"):
        timing(f"formats.{name}", "ms")
    count("formats.bytes_out")
    out["trace.request_ms"] = tracer.totals["request"][1] / 1e6 / n
    out["trace.overhead_ratio"] = overhead
    return out


def traced_run(session, trace_path, cpus):
    """An untraced pass, a traced pass and another untraced pass over the
    same requests.  Tracing overhead is the traced pass's wall time over the
    mean of the two untraced ones, which cancels steady drift and the first
    pass's start-up cost.

    The oracle checks the untraced outputs; a traced output that differs
    from its untraced one fails too.
    """
    n = len(session.requests)
    plain = Passes(n)
    traced = Passes(n)
    tracer = spans.Tracer()
    tracer.hooks = hooks(session.dhpoly)

    def timed_pass(passes, tracer=None):
        pin_to_quietest_cpu(cpus)
        t0 = time.perf_counter()
        passes.run(session, tracer)
        return time.perf_counter() - t0

    plain_s = timed_pass(plain)
    session.impulse_cache = {"hits": 0, "misses": 0}
    tracer.install(session.dhpoly)
    try:
        traced_s = timed_pass(traced, tracer)
    finally:
        tracer.restore()
    cache = dict(session.impulse_cache)
    plain_s = (plain_s + timed_pass(plain)) / 2
    plain.check(session)
    for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
        if a != b:
            traced.failures.setdefault(i, "traced output differs from the untraced one")

    report = tracer.report()
    report.update(
        workload=session.workload.name,
        requests=n,
        digest=plain.digest(),
        traced_digest=traced.digest(),
        untraced_s=plain_s,
        traced_s=traced_s,
        impulse_cache=cache,
    )
    trace_path.write_text(json.dumps(report))
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": {**traced.first_failures(), **plain.first_failures()},
        "digest": plain.digest(),
        "traced_digest": traced.digest(),
        "absent": tracer.absent,
        "per_layer": per_layer(tracer, n, cache, traced_s / plain_s),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--requests", help="request list JSON written by run.py")
    p.add_argument("--result", help="where to write the result JSON")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace-file", help="with this, run traced and write the spans here")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--cpus", help="comma-separated CPUs to choose among before each pass")
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    # The reference kernel is timed during and just after set-up, to scale
    # set-up time; run.py takes the seconds spent on it out of set-up.
    refs = [reference.measure()]
    dhpoly = import_dhpoly()
    if args.workload == "warm-interp":
        for size in range(3, workload.max_size):
            dhpoly.build_impulse_set(size)
            refs.append(reference.measure())
    spent = sum(refs)
    print("ready", flush=True)
    refs += [reference.measure() for _ in range(5)]
    print("reference", statistics.median(refs), spent, flush=True)
    if args.setup_only:
        return 0

    session = Session(dhpoly, workload, json.loads(Path(args.requests).read_text()))
    cpus = [int(c) for c in args.cpus.split(",")] if args.cpus else allowed_cpus()
    if args.trace_file:
        result = traced_run(session, Path(args.trace_file), cpus)
    else:
        result = timed_run(session, args.seconds, cpus)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
