"""Run one workload's queries in a closed loop and print raw measurements.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread: each query starts after the previous one ends.
The whole query list is one pass; passes repeat until ``--seconds`` have
gone by (at least one pass).  Each query calls ``dehnroots.cli.main`` in
this process with stdout captured; ``figure1`` writes into a scratch
directory under ``bench/out``.  Only the ``main`` call is timed; a garbage
collection before each query and the checks after it are not.  The first
pass checks every answer; later passes must repeat the first pass's output
byte for byte.  With ``--trace 1`` every second pass runs with the
boundaries of ``bench/tracer.py`` wrapped, and the spans go to ``bench/out``.

The last line of stdout is one JSON object; ``bench/run.py`` reads it.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

from dehnroots import cli  # noqa: E402

from probe import MIN_SAMPLES, Probe  # noqa: E402
from tracer import Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_FAILURES = 10


def run_query(query, path, tracer):
    """Call the CLI once; return (start, end, stdout, file text, problem)."""
    argv = query.argv + (["--output", str(path)] if query.writes_file else [])
    out, err = io.StringIO(), io.StringIO()
    problem = None
    if tracer is not None:
        tracer.query_id = query.name
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # any crash of the program is one failed op
                code = None
                problem = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            end = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    written = ""
    if query.writes_file and path.exists():
        written = path.read_text()
        path.unlink()
    if problem is None and code != 0:
        problem = "exit code %r: %s" % (code, err.getvalue().strip()[-200:])
    return start, end, out.getvalue(), written, problem


def measure(queries, seconds, tracer=None):
    """Run passes over ``queries`` for ``seconds``; return measurements in
    reference seconds (see ``probe.py``).  With a tracer every second pass
    is traced, so that plain and traced passes see the same machine."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    path = scratch / "output.csv"
    first = [None] * len(queries)  # (digest, passed its check) from the first pass
    timings = []  # (pass, start, end, seconds outside the probe, traced aggregates)
    failures = []
    failed = passes = 0
    minimum = 1 if tracer is None else 2
    began = perf_counter()
    try:
        with Probe() as probe:
            probe.sample_now()
            while passes < minimum or perf_counter() - began < seconds:
                traced = tracer if passes % 2 else None
                for i, query in enumerate(queries):
                    gc.collect()
                    spent = probe.spent
                    start, end, stdout, written, problem = run_query(query, path, traced)
                    timings.append((passes, start, end, end - start - (probe.spent - spent),
                                    traced.take() if traced is not None else None))
                    problem = judge(query, stdout, written, problem, first, i)
                    if problem is not None:
                        failed += 1
                        if len(failures) < MAX_REPORTED_FAILURES:
                            failures.append({"query": query.name[:200], "problem": problem[:300]})
                passes += 1
            for _ in range(MIN_SAMPLES):
                probe.sample_now()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    factors = [probe.factor(start, end) for _, start, end, _, _ in timings]
    latencies = [raw * f for (_, _, _, raw, _), f in zip(timings, factors)]
    walls = [0.0] * passes
    raw_walls = [0.0] * passes
    for (n, _, _, raw, _), latency in zip(timings, latencies):
        walls[n] += latency
        raw_walls[n] += raw
    plain = range(0, passes, 1 if tracer is None else 2)
    result = {
        "passes": [walls[n] for n in plain],
        "raw_passes": [raw_walls[n] for n in plain],
        "latencies": [latency for t, latency in zip(timings, latencies) if t[0] in plain],
        "queries": len(queries),
        "attempted": len(timings),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced = range(1, passes, 2)
        result["traced_passes"] = [walls[n] for n in traced]
        result["layers"] = per_layer(
            [(f, t[4]) for t, f in zip(timings, factors) if t[4] is not None], len(traced))
    return result


def judge(query, stdout, written, problem, first, i):
    """The problem with this answer, or None.  The first pass runs the
    query's check; later passes must repeat the first pass's output."""
    digest = hashlib.sha256((stdout + "\0" + written).encode()).digest()
    if first[i] is None:
        if problem is None:
            try:
                query.check(stdout, written)
            except Exception as exc:  # a check that cannot read the output is a mismatch
                problem = "%s: %s" % (type(exc).__name__, exc)
        first[i] = (digest, problem is None)
    elif problem is None and not first[i][1]:
        problem = "wrong answer, as in the first pass"
    elif problem is None and digest != first[i][0]:
        problem = "output differs from the first pass"
    return problem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    queries = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    result = measure(queries, args.seconds, tracer)
    if tracer is not None:
        spans = OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        with open(spans, "w") as handle:
            for span in tracer.spans:
                fields = ("id", "parent", "query", "name", "start", "end")
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
