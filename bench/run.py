"""dhpoly benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Inputs come from the seed and are written
before any timing starts.  Each workload runs in fresh processes (worker.py):
set-up is timed in several of them and reported as the median; one of them
then runs the request list in a closed loop with one client: one whole pass,
then more until S seconds have passed.  Times are reported at a fixed
reference speed (see reference.py); the unscaled figures go to standard
error and every sample to bench/out/samples-<workload>-seed<seed>.json.
With --trace 1 it runs an untraced, a traced and another untraced pass
instead and reports per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --workload all every workload runs in turn and a table of every metric,
error_rate included, is printed before the JSON line, whose metric names are
prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import bisect
import json
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The CPUs this run may use, read before it pins itself to one of them.
CPUS = worker.allowed_cpus()

#: A run must end within 180 s; stop waiting on workers well before that.
DEADLINE_S = 170

#: End-to-end metrics of a timed run and their units.
UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_req": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def write_inputs(name, requests, directory):
    """CSV files for CLI workloads, then the request list, under directory."""
    if name in ("cold-interp", "border-complete"):
        for i, req in enumerate(requests):
            path = directory / f"{i:03d}.csv"
            path.write_text(workloads.to_csv(workloads.rows_of(req)))
            req["csv"] = str(path)
    path = directory / "requests.json"
    path.write_text(json.dumps(requests))
    return path


def _read_line(proc, deadline):
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    return proc.stdout.readline().strip() if ready else ""


def run_worker(args, deadline):
    """Run worker.py to its end and return its set-up seconds and the factor
    that scales them to the reference speed.

    Set-up lasts from just before the process starts until its ``ready``
    line, printed once it has imported dhpoly and done its warm-up, less the
    time the worker spent on the reference kernel; that kernel's median time
    and the time spent follow on the next line.  The worker never outlives
    this call, whatever ends it."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    if CPUS:
        cmd += ["--cpus", ",".join(map(str, CPUS))]
    worker.pin_to_quietest_cpu(CPUS)  # the worker starts on the CPU chosen here
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = _read_line(proc, deadline)
            setup = time.perf_counter() - start
            ref = _read_line(proc, deadline).split()
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker passed the run deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready" or len(ref) != 3 or ref[0] != "reference":
        raise BenchError(f"worker did not start: {line or 'no output'}")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return setup - float(ref[2]), reference.NOMINAL_S / float(ref[1])


def quantile(values, q):
    """Percentile q (0 < q < 100) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(name, seed, seconds, trace):
    """One workload; returns (result line dict, extra report dict)."""
    workload = workloads.WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    requests = workloads.make_requests(name, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        request_file = write_inputs(name, requests, tmp)
        base = ["--workload", name]
        # Set-up is timed in fresh processes before and after the measured
        # one, so the median spans the whole run.
        repeats = 0 if trace else workload.setup_repeats - 1
        setups = [run_worker(base + ["--setup-only"], deadline) for _ in range(repeats // 2)]
        result_file = tmp / "result.json"
        args = base + ["--requests", str(request_file), "--result", str(result_file),
                       "--seconds", str(seconds)]
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        if trace:
            args += ["--trace-file", str(trace_file)]
        setups.append(run_worker(args, deadline))
        setups += [run_worker(base + ["--setup-only"], deadline) for _ in range(repeats - repeats // 2)]
        result = json.loads(result_file.read_text())

    extra = {
        "error_rate": result["failed"] / result["attempted"],
        "digest": result["digest"],
        "failures": result["failures"],
    }
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["per_layer"].items()}
        extra.update(traced_digest=result["traced_digest"], absent=result["absent"],
                     trace_file=str(trace_file.relative_to(ROOT)))
    else:
        (OUT / f"samples-{name}-seed{seed}.json").write_text(json.dumps({**result, "setup_s": setups}))
        values = {**figures(result), "setup_s": statistics.median(s * f for s, f in setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        extra["unscaled"] = {**figures(result, scaled=False),
                             "setup_s": statistics.median(s for s, _ in setups)}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return line, extra


def scale_factors(result):
    """For every sample of a timed run, NOMINAL_S over the reference
    kernel's median time in the four timings nearest its start: two before,
    two after.  Multiplying a time by it gives the time at the reference
    speed."""
    times = [t for t, _ in result["reference_s"]]
    seconds = [s for _, s in result["reference_s"]]
    factors = []
    for starts in result["start_s"]:
        row = []
        for start in starts:
            k = bisect.bisect_left(times, start)
            near = seconds[max(0, k - 2):k + 2]
            row.append(reference.NOMINAL_S / statistics.median(near))
        factors.append(row)
    return factors


def figures(result, scaled=True):
    """Throughput, latency and CPU figures from a timed run's samples, each
    scaled to the reference speed unless ``scaled`` is false.

    Every request contributes the median of its scaled samples.  Throughput
    is that of the closed loop at these latencies: requests over the sum of
    their latencies.
    """
    factors = scale_factors(result) if scaled else [[1.0] * len(s) for s in result["start_s"]]

    def per_request(key):
        return [statistics.median(s * f for s, f in zip(samples, row))
                for samples, row in zip(result[key], factors)]

    wall, cpu = per_request("wall_s"), per_request("cpu_s")
    latencies_ms = [s * 1e3 for s in wall]
    return {
        "throughput_rps": len(wall) / sum(wall),
        "latency_p50_ms": quantile(latencies_ms, 50),
        "latency_p90_ms": quantile(latencies_ms, 90),
        "cpu_ms_per_req": statistics.fmean(cpu) * 1e3,
    }


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last == "ms" or last.endswith("_ms"):
        return "ms"
    if last.endswith("ratio") or last == "nullspace_per_impulse":
        return "ratio"
    if last.endswith("bits"):
        return "bits"
    if last == "bytes_out":
        return "bytes"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description="dhpoly benchmark; see the module docstring.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated run still stops its worker and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "dhpoly" / "__init__.py").is_file():
        print(f"error: no dhpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            line, extra = run_workload(name, args.seed, args.seconds, args.trace)
            lines[name] = line
            summary = {"workload": name, "correct": line["correct"], **extra}
            print(json.dumps(summary), file=sys.stderr)
            if args.workload == "all":
                for metric, m in line["metrics"].items():
                    print(f"{name:16} {metric:42} {m['value']:14.6g} {m['unit']}")
                print(f"{name:16} {'error_rate':42} {extra['error_rate']:14.6g} ratio")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{k}": v for name, line in lines.items() for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
