"""Alternating pairs of benchmark runs: a git revision against the
working tree.

    python3 tools/ab_pairs.py --rev HEAD --workload integral,twisted \\
        --pairs 10 --seconds 15 --seed 41

--workload takes one workload or a comma list; the pairs run for each
workload in turn, and each gets its own table.  The revision is
exported with ``git archive`` into a temporary directory, so no
worktree is made and nothing under .git changes.  Both trees import
through one fresh PYTHONPYCACHEPREFIX in that directory, so neither
reads bytecode that the other lacks (an export has no __pycache__).  Pair
i runs each tree's own perfbench/run.py once with seed + i: the
revision first on even pairs, the working tree first on odd ones.  The
summary gives each metric's median per side, the spread between the
quartiles of the revision's runs and, for the end-to-end
metrics that BENCHMARK.json declares, the number of pairs the working
tree won (ties count for neither side), whether that is a gain (at
least 10 pairs, at least 9 in 10 of them won and a median better than
the revision's by more than the revision's IQR) and whether the working tree's median
stays within the metric's declared bound of the revision's.  Run from
anywhere; runs are sequential, one benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """Write the tree of rev into dest with git archive."""
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=data, check=True)


def run_once(tree, workload, seed, seconds, pycache):
    """The result line (last line of stdout) of one untraced run, with
    bytecode caches under pycache."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONPYCACHEPREFIX=pycache)
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def declared_metrics():
    """{metric: (better, bound)} of the declared end-to-end metrics:
    better is "higher" or "lower", and bound the largest loss of the
    change's median, as a fraction of the base median, that the
    benchmark allows."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def summarize(lines, declared):
    """Rows (metric, unit, base median, base IQR, change median, wins,
    within, gain) of result lines taken in pairs (base, change).  The
    IQR is the distance between the quartiles of the base runs, 0 for
    one pair.  For metrics in declared, wins counts the pairs where the
    change is strictly better, within tells whether the change's median
    is worse than the base median by no more than the bound, and gain
    whether, over at least 10 pairs, the change won at least 9 in 10
    with a median better than the base median by more than the base
    IQR; else all three are None.  failed is the count of failed
    analyses, lower being better, with no bound."""
    results = [json.loads(line) for line in lines]
    for r in results:
        r["metrics"]["failed"] = {"value": r["failed"], "unit": "count"}
    pairs = list(zip(results[0::2], results[1::2]))
    declared = dict(declared, failed=("lower", None))
    names = sorted(set.intersection(*(set(r["metrics"]) for r in results)))
    rows = []
    for name in names:
        unit = results[0]["metrics"][name]["unit"]
        side = [[r["metrics"][name]["value"] for r in pair] for pair in pairs]
        base = [b for b, _ in side]
        q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                     if len(base) > 1 else (0, 0, 0))
        mid, new = statistics.median(base), statistics.median(
            n for _, n in side)
        wins = within = gain = None
        if name in declared:
            better, bound = declared[name]
            sign = 1 if better == "higher" else -1
            wins = sum(1 for b, n in side if sign * (n - b) > 0)
            if bound is not None:
                within = sign * (new - mid) >= -bound * abs(mid)
            gain = (len(side) >= 10 and 10 * wins >= 9 * len(side)
                    and sign * (new - mid) > q3 - q1)
        rows.append((name, unit, mid, q3 - q1, new, wins, within, gain))
    return rows


def format_rows(rows, pairs):
    out = ["%-16s %-6s %12s %10s %12s %6s %4s %6s"
           % ("metric", "unit", "base", "base IQR", "change", "wins",
              "gain", "bound")]
    for name, unit, base, iqr, new, wins, within, gain in rows:
        out.append("%-16s %-6s %12.4g %10.3g %12.4g %6s %4s %6s"
                   % (name, unit, base, iqr, new,
                      "-" if wins is None else "%d/%d" % (wins, pairs),
                      {None: "-", True: "gain", False: "no"}[gain],
                      {None: "-", True: "within", False: "OUT"}[within]))
    return "\n".join(out)


def run_pairs(base, workload, pairs, seed, seconds, pycache):
    """Result lines (base, change, base, change, ...) of alternating
    pairs on one workload."""
    lines = []
    for i in range(pairs):
        trees = [base, ROOT] if i % 2 == 0 else [ROOT, base]
        got = {tree: run_once(tree, workload, seed + i, seconds, pycache)
               for tree in trees}
        lines += [got[base], got[ROOT]]
        print("%s: pair %d (seed %d) done" % (workload, i + 1, seed + i),
              file=sys.stderr)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", required=True)
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma list of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    declared = declared_metrics()
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        base, pycache = os.path.join(tmp, "rev"), os.path.join(tmp, "pycache")
        os.mkdir(base)
        export(args.rev, base)
        for n, workload in enumerate(args.workload.split(",")):
            lines = run_pairs(base, workload, args.pairs, args.seed,
                              args.seconds, pycache)
            print("%s%s: %s against the working tree, %d pairs of %g s"
                  % ("\n" if n else "", workload, args.rev, args.pairs,
                     args.seconds))
            print(format_rows(summarize(lines, declared), args.pairs),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
