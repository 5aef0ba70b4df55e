"""Benchmark of the dehn-roots CLI: end-to-end metrics or per-layer timings.

    python3 bench/run.py --workload sweep|existence|listing --seed N --seconds S --trace 0|1

Run from the root of a checkout; there is nothing to build.  With
``--trace 0`` it times a fresh interpreter's set-up several times, then
runs the workload in a worker subprocess (``bench/worker.py``) and reports
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the worker
alternates plain and traced passes, and the per-layer metrics come from
the traced ones; ``trace_overhead_s`` is the median traced pass time minus
the median plain one.  The second-to-last line of stdout records the
environment, sample counts and any failures; the last line is the result.
See bench/NOTES.md for the reasons behind each workload and metric.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dehnroots"
WORKLOADS = ("sweep", "existence", "listing")
SETUP_RUNS = 9
KERNELS_AROUND_SETUP = 5
WORKER_TIMEOUT_S = 170
SETUP_CODE = "import dehnroots.cli as cli; cli.build_parser()"


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds():
    """Wall time of a fresh interpreter importing the CLI and building its
    parser, in reference seconds: the probe kernel is timed around it."""
    kernels = [kernel_seconds() for _ in range(KERNELS_AROUND_SETUP)]
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=python_env(),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    elapsed = perf_counter() - start
    kernels += [kernel_seconds() for _ in range(KERNELS_AROUND_SETUP)]
    if done.returncode != 0:
        raise BenchError("set-up failed: " + done.stderr.strip()[-500:])
    return elapsed * REFERENCE_S / statistics.median(kernels)


def run_worker(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=python_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past %d s" % WORKER_TIMEOUT_S) from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError("worker failed: " + done.stderr.strip()[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def query_latencies(raw):
    """Each query's median latency over the passes."""
    per_query = raw["queries"]
    samples = raw["latencies"]
    return [statistics.median(samples[i::per_query]) for i in range(per_query)]


def percentiles(samples):
    """Median and 90th percentile of the samples, in the same unit."""
    if len(samples) < 2:
        return samples[0], samples[0]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(raw, setup):
    p50, p90 = percentiles(query_latencies(raw))
    return {
        "wall_s": (statistics.median(raw["passes"]), "s"),
        "query_p50_ms": (p50 * 1000, "ms"),
        "query_p90_ms": (p90 * 1000, "ms"),
        "queries_per_s": (len(raw["latencies"]) / sum(raw["passes"]), "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(raw):
    metrics = dict(raw["layers"])
    traced_wall = statistics.median(raw["traced_passes"])
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["trace_overhead_s"] = (traced_wall - statistics.median(raw["passes"]), "s")
    return metrics


def commit():
    """The checked-out commit when git metadata is present, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def samples(raw, setup=None):
    out = {"passes": len(raw["passes"]), "queries_per_pass": raw["queries"],
           "latency_samples": raw["queries"], "samples_per_latency": len(raw["passes"])}
    if setup is not None:
        out["setup_runs"] = len(setup)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print("no dehnroots sources under %s; run from a full checkout" % PACKAGE.parent,
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            raw = run_worker(args.workload, args.seed, args.seconds, 1)
            metrics = per_layer(raw)
            record = {"plain": samples(raw), "traced_passes": len(raw["traced_passes"]),
                      "spans_file": raw["spans_file"]}
        else:
            setup = [setup_seconds() for _ in range(SETUP_RUNS)]
            raw = run_worker(args.workload, args.seed, args.seconds, 0)
            metrics = end_to_end(raw, setup)
            record = {"plain": samples(raw, setup)}
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    record.update(environment=environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, failures=raw["failures"])
    print(json.dumps(record))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
