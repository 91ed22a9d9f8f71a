"""Benchmark of the zeroness library and its command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {equiv,census,lie,cli} --seed N \\
        --seconds S --trace {0,1}

One client sends one query at a time (a closed loop) for ``--seconds``
seconds.  Inputs come from ``--seed`` alone; their SHA-256 is printed, so
two commits can be shown to run the same inputs.  Every answer is checked
after the timed section.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run wraps the library's layers (see ``spans.py``) for half the time and
reports per-layer metrics, then runs the same queries again untraced to
report the tracing overhead.  Spans are written under ``.bench_out/``.
"""

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import spans
from workloads import WORKLOADS

SETUP_REPEATS = 3
PROBE_REPEATS = 3
OUT_DIR = ".bench_out"


def _purge():
    for name in [n for n in sys.modules if n == "zeroness" or n.startswith("zeroness.")]:
        del sys.modules[name]


def setup(workload, seed, tracer=None, tracing=None):
    """Import the library afresh, generate the inputs and build the queries.

    Returns (seconds, specs, queries).  With a tracer, it is installed
    right after the import, so parsing and compiling are traced too.
    """
    _purge()
    t0 = perf_counter()
    importlib.import_module("zeroness")
    if tracer is not None:
        # the command line reaches every module, so the tracer sees each binding
        importlib.import_module("zeroness.cli")
        tracer.install()
    specs = workload.generate(random.Random(seed))
    queries = workload.build(specs, tracing)
    return perf_counter() - t0, specs, queries


def timed_loop(queries, seconds, tracer=None, count=None):
    """Run queries in order, cycling, until ``seconds`` have passed (or
    ``count`` queries have run).  Returns (elapsed, latencies, results)."""
    latencies, results = [], []
    n = len(queries)
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        q = queries[i % n]
        if tracer is not None:
            tracer.query_id = i
        t0 = perf_counter()
        try:
            r = q.run()
        except Exception as exc:  # a failed query is counted, not fatal
            r = exc
        t1 = perf_counter()
        latencies.append(t1 - t0)
        results.append(r)
        i += 1
        if (count is None and t1 >= deadline) or i == count:
            break
    if tracer is not None:
        tracer.query_id = -1
    return t1 - start, latencies, results


def check_all(workload, queries, results):
    """Check each distinct answer once; a repeat must match the first.

    Returns (failed, decided, notes)."""
    first = {}
    failed = decided = 0
    notes = {}
    n = len(queries)
    for i, r in enumerate(results):
        q = queries[i % n]
        if isinstance(r, Exception):
            failed += 1
            notes.setdefault(f"{q.family}: {type(r).__name__}: {r}", i)
            continue
        if q.key not in first:
            try:
                ok, dec = workload.check(q, r)
            except Exception as exc:
                ok, dec = False, False
                notes.setdefault(f"{q.family}: check raised {type(exc).__name__}: {exc}", i)
            first[q.key] = (workload.summary(r), ok, dec)
            if not ok:
                notes.setdefault(f"{q.family}: wrong answer {workload.summary(r)!r}", i)
        else:
            summary, ok, dec = first[q.key]
            if workload.summary(r) != summary:
                ok = False
                notes.setdefault(f"{q.family}: repeat differs from first answer", i)
        failed += not ok
        decided += dec
    return failed, decided, notes


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def family_stats(queries, latencies):
    """Query family -> [count, median latency in ms]."""
    by = {}
    for i, x in enumerate(latencies):
        by.setdefault(queries[i % len(queries)].family, []).append(x)
    return {f: [len(xs), round(statistics.median(xs) * 1000, 3)] for f, xs in sorted(by.items())}


def inconclusive_caps(results):
    caps = {}
    for r in results:
        if getattr(r, "is_inconclusive", False):
            cap = spans.cap_hit(r)
            caps[cap] = caps.get(cap, 0) + 1
    return caps


def peak_rss_mib(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(workload, args):
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, specs, queries = setup(workload, args.seed)
        times.append(seconds)
    _check_import()
    elapsed, lat, results = timed_loop(queries, args.seconds)
    failed, decided, notes = check_all(workload, queries, results)
    attempted = len(lat)
    tail = percentile(lat, workload.tail_percentile)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs_digest": gen.digest(specs),
        "distinct_queries": len(queries),
        "cycles": attempted / len(queries),
        "setup_samples_s": times,
        "tail_percentile": workload.tail_percentile,
        "beyond_tail": sum(x > tail for x in lat),
        "failed_share": failed / attempted,
        "inconclusive_caps": inconclusive_caps(results),
        "failures": list(notes)[:10],
        "families": family_stats(queries, lat),
    }
    print("detail " + json.dumps(detail))
    metrics = {
        "setup_s": _metric(statistics.median(times), "s"),
        "queries_per_s": _metric(attempted / elapsed, "1/s"),
        "latency_p50_ms": _metric(percentile(lat, 50) * 1000, "ms"),
        "latency_tail_ms": _metric(tail * 1000, "ms"),
        "decided_share": _metric(decided / attempted, "share"),
        "correct_share": _metric((attempted - failed) / attempted, "share"),
        "peak_rss_mb": _metric(peak_rss_mib(workload), "MiB"),
    }
    return failed, attempted, metrics


def _wall(cmd, env):
    t0 = perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def interpreter_probes():
    """Median wall time of a bare interpreter, and of importing the CLI
    module on top of it."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    bare = [_wall([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS)]
    imp = [_wall([sys.executable, "-c", "import zeroness.cli"], env)
           for _ in range(PROBE_REPEATS)]
    return statistics.median(bare), statistics.median(imp) - statistics.median(bare)


def run_traced(workload, args):
    out_dir = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    tracing = out_dir if workload.name == "cli" else None
    tracer = spans.Tracer()
    _, specs, queries = setup(workload, args.seed, tracer, tracing)
    _check_import()
    # half the time traced, then the same queries untraced, so that a traced
    # run takes about as long as an untraced one
    try:
        traced_s, lat, results = timed_loop(queries, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    # the same queries again, untraced, for the overhead and per-command times
    plain_queries = workload.build(specs, None)
    plain_s, plain_lat, _ = timed_loop(plain_queries, float("inf"), count=len(lat))
    failed, _, notes = check_all(workload, queries, results)
    tracer.write(os.path.join(out_dir, "spans.tsv.gz"))

    summaries = [tracer.summary()]
    if tracing is not None:
        for i in range(len(lat)):
            path = os.path.join(out_dir, f"cli-{i}.json")
            with open(path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
    summary = spans.merge_summaries(summaries)
    metrics = {
        k: _metric(v, u) for k, (v, u) in spans.layer_metrics(summary, len(lat)).items()
    }
    interp, imp = interpreter_probes()
    metrics["cli.interpreter_s"] = _metric(interp, "s")
    metrics["cli.import_s"] = _metric(imp, "s")
    by_command = {}
    for i, x in enumerate(plain_lat):
        by_command.setdefault(plain_queries[i % len(plain_queries)].family, []).append(x)
    for sub in ("zero", "equiv", "equipotent", "coeffs", "eval", "check_jobs1", "check_jobs2"):
        xs = by_command.get(sub) if workload.name == "cli" else None
        metrics[f"cli.command_s.{sub}"] = _metric(statistics.median(xs) if xs else 0.0, "s")
    metrics["trace.queries"] = _metric(len(lat), "count")
    metrics["trace.overhead_share"] = _metric(traced_s / plain_s - 1.0, "share")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs_digest": gen.digest(specs),
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "spans_file": os.path.join(out_dir, "spans.tsv.gz"),
        "missing_targets": summary["missing"],
        "failures": list(notes)[:10],
    }
    print("detail " + json.dumps(detail))
    return failed, len(lat), metrics


def _check_import():
    import zeroness

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(zeroness.__file__).startswith(src):
        raise SystemExit(f"error: zeroness was imported from {zeroness.__file__}, not {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "zeroness", "__init__.py")) or not (
        os.path.isdir("models")
    ):
        print("error: run from the root of a zeroness checkout "
              "(src/zeroness and models/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    failed, attempted, metrics = run(workload, args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
