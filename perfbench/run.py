"""Benchmark for the orbinov command line.

    python3 perfbench/run.py --workload twisted --seed 1 --seconds 35 --trace 0

Closed loop, one client: a single process and thread issues one
analysis at a time, an in-process call to `orbinov.cli.main([..., "--json"])`
on a document that the benchmark generated from the seed and wrote to
disk before timing starts.  Every output is checked against its
reference answer.

--trace 0 measures the end-to-end metrics.  Whole cycles of the
workload run until --seconds have passed and at least 100 analyses are
done, so that ten samples lie beyond the 90th percentile.  The host's
speed drifts by up to a factor of two in spells, so every time is
scaled to a nominal host speed by the reference work of hostspeed,
which runs next to each analysis and each set-up probe; the raw times
go to the record file.

--trace 1 measures the per-layer metrics over a fixed amount of work:
the fewest whole cycles that hold 100 analyses, each run untraced and
then traced, so that layer totals compare across commits and the ratio
of the two passes' times in the CLI is the tracing overhead.  Layer times
and the overhead are raw, not scaled to the nominal host speed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Per-analysis records, the
environment and (traced) the spans go to .perfbench/ in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
import workloads
from orbinov import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_ANALYSES = 100
SETUP_SAMPLES = 21
SETUP_PROBE = ("import time\n"
               "t0 = time.perf_counter()\n"
               "import orbinov.cli\n"
               "seconds = time.perf_counter() - t0\n"
               "import hostspeed\n"
               "refs = [hostspeed.reference() for _ in range(7)]\n"
               "print(repr(seconds), repr(sorted(refs)[3]))\n")


def measure_setup():
    """Median seconds to import orbinov.cli in a fresh interpreter,
    scaled to the nominal host speed.

    Each start times the import, then the reference work right after
    it, which scales that start.  One discarded start first lets
    byte-code caches fill, which users pay only once.  Returns the
    scaled and the raw median.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, ref = map(float, done.stdout.strip().split())
        raw.append(seconds)
        scaled.append(seconds * hostspeed.NOMINAL_S / ref)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def run_one(analysis):
    """Time one CLI call; returns (seconds, exit code or exception, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(analysis.argv))
    except Exception as exc:  # a crash is a failed analysis, not a stop
        code = exc
    return time.perf_counter() - start, code, out.getvalue()


def run_cycles(cycle, records, min_seconds=0.0, cycles=None):
    """Run whole cycles, appending one record per analysis.

    The reference work of hostspeed runs before every analysis and once
    after the last; each record holds the raw time `raw_ms` and the time
    `ms` scaled to the nominal host speed.  Stops after `cycles` cycles
    if given, else once min_seconds have passed and at least
    MIN_ANALYSES analyses are done.  Returns the wall seconds of the
    loop and the seconds spent outside the CLI calls (reference work,
    timing, checking and recording).
    """
    start = time.perf_counter()
    outside = 0.0
    done = 0
    first = len(records)
    refs = []
    while True:
        for analysis in cycle:
            mark = time.perf_counter()
            refs.append(hostspeed.reference())
            outside += time.perf_counter() - mark
            seconds, code, text = run_one(analysis)
            mark = time.perf_counter()
            if isinstance(code, Exception):
                problems = ["raised %r" % (code,)]
            else:
                problems = workloads.check(analysis, code, text)
            records.append(dict(analysis.info, raw_ms=seconds * 1e3,
                                problems=problems))
            outside += time.perf_counter() - mark
        done += 1
        wall = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif wall >= min_seconds and len(records) >= MIN_ANALYSES:
            break
    mark = time.perf_counter()
    refs.append(hostspeed.reference())
    for record, ref, scale in zip(records[first:], refs,
                                  hostspeed.scales(refs)):
        record["ref_ms"] = ref * 1e3
        record["ms"] = record["raw_ms"] * scale
    wall = time.perf_counter() - start
    outside += wall - (mark - start)
    return wall, outside


def git_rev():
    """Commit of the checkout, read from .git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def timings(ms):
    """Throughput and latency percentiles of per-analysis times in ms."""
    return {"analyses_per_s": (len(ms) / sum(ms) * 1e3, "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(
                ms, n=10, method="inclusive")[-1], "ms")}


def end_to_end(cycle, seconds, setup):
    """End-to-end metrics; every time is scaled to the nominal host
    speed, and the raw figures go to the record file."""
    records = []
    wall, _ = run_cycles(cycle, records, min_seconds=seconds)
    ok = sum(1 for r in records if not r["problems"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = timings([r["ms"] for r in records])
    metrics.update({"setup_s": (setup[0], "s"),
                    "correct_ratio": (ok / len(records), "ratio"),
                    "peak_rss_mb": (rss_mb, "MB")})
    raw = {"raw_" + name: value for name, (value, _)
           in timings([r["raw_ms"] for r in records]).items()}
    raw.update({"raw_setup_s": setup[1], "wall_s": wall})
    return records, metrics, raw


def per_layer(cycle):
    """Untraced and traced cycles in turn, so that both passes meet the
    same spells of host speed and their ratio is the tracing overhead."""
    tracer = spans.Tracer()
    plain, records = [], []
    plain_wall = wall = outside = 0.0
    for _ in range(-(-MIN_ANALYSES // len(cycle))):
        plain_wall += run_cycles(cycle, plain, cycles=1)[0]
        restore = spans.install(tracer)
        try:
            seconds, own = run_cycles(cycle, records, cycles=1)
        finally:
            restore()
        wall += seconds
        outside += own
    metrics = spans.layer_metrics(tracer, len(records))
    metrics["trace.overhead_ratio"] = (
        sum(r["raw_ms"] for r in records) / sum(r["raw_ms"] for r in plain),
        "ratio")
    records.extend(plain)
    extra = {"traced_wall_s": wall, "untraced_wall_s": plain_wall,
             "outside_cli_s": outside,
             "self_s_total": sum(tracer.self_times().values())}
    return records, metrics, extra, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    doc_dir = os.path.join(OUT_DIR, "docs", tag)
    shutil.rmtree(doc_dir, ignore_errors=True)
    cycle = workloads.build(args.workload, args.seed, doc_dir)

    tracer = None
    if args.trace:
        records, metrics, extra, tracer = per_layer(cycle)
    else:
        records, metrics, extra = end_to_end(cycle, args.seconds,
                                             measure_setup())
    failed = sum(1 for r in records if r["problems"])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "cycle_length": len(cycle),
                   "python": platform.python_version(), "git_rev": git_rev(),
                   "nproc": os.cpu_count(), "extra": extra,
                   "metrics": metrics, "analyses": records}, handle,
                  indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, tag + ".spans.json"))
    for r in records:
        if r["problems"]:
            print("wrong: %s %s: %s" % (r["doc"], r.get("cls", ""),
                                        "; ".join(r["problems"])),
                  file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
