"""The summary of tools/ab_pairs.py, on canned result lines; no
benchmark runs here."""

import contextlib
import io
import json
import os
import subprocess

from test_tools import load_script


def result(analyses_per_s, p50, failed=0, correct=1.0):
    return json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"analyses_per_s": {"value": analyses_per_s,
                                       "unit": "1/s"},
                    "latency_p50_ms": {"value": p50, "unit": "ms"},
                    "correct_ratio": {"value": correct, "unit": "ratio"},
                    "lmatrix.cells_in": {"value": 7, "unit": "count"}}})


def test_summary_gives_medians_and_pair_wins():
    ab_pairs = load_script("tools", "ab_pairs.py")
    # (base, change) per pair; the third pair is a loss, the fourth
    # ties on throughput and fails one analysis more
    lines = [result(500, 2.0), result(600, 1.5),
             result(520, 1.9), result(610, 1.6),
             result(540, 1.8), result(530, 1.9),
             result(560, 1.7), result(560, 1.4, failed=1, correct=0.99)]
    declared = {"analyses_per_s": ("higher", 0.25),
                "latency_p50_ms": ("lower", 0.25),
                "correct_ratio": ("higher", 0.01)}
    rows = {row[0]: row[1:] for row in ab_pairs.summarize(lines, declared)}
    # base throughputs 500, 520, 540, 560: quartiles 515 and 545
    assert rows["analyses_per_s"] == ("1/s", 530, 30, 580, 2, True, False)
    assert rows["latency_p50_ms"][:2] == ("ms", 1.85)
    assert rows["latency_p50_ms"][3:] == (1.55, 3, True, False)
    assert rows["correct_ratio"] == ("ratio", 1.0, 0, 1.0, 0, True, False)
    assert rows["failed"] == ("count", 0, 0, 0, 0, None, False)
    # a metric BENCHMARK.json does not declare gets medians, no wins
    assert rows["lmatrix.cells_in"] == ("count", 7, 0, 7, None, None, None)
    text = ab_pairs.format_rows(ab_pairs.summarize(lines, declared), 4)
    assert text.splitlines()[1].split() == ["analyses_per_s", "1/s", "530",
                                            "30", "580", "2/4", "no",
                                            "within"]
    # one pair has no quartiles
    (row,) = [r for r in ab_pairs.summarize(lines[:2], declared)
              if r[0] == "analyses_per_s"]
    assert row == ("analyses_per_s", "1/s", 500, 0, 600, 1, True, False)


def test_summary_tells_whether_each_median_stays_within_its_bound():
    ab_pairs = load_script("tools", "ab_pairs.py")
    declared = {"analyses_per_s": ("higher", 0.25),
                "latency_p50_ms": ("lower", 0.25)}

    def verdicts(base, change):
        lines = [result(base[0], base[1]), result(change[0], change[1])]
        return {row[0]: row[6] for row in ab_pairs.summarize(lines, declared)
                if row[0] in declared}
    # a quarter fewer analyses, or a quarter longer latency, is the
    # edge of the bound and still within it
    assert verdicts((400, 2.0), (300, 2.5)) == {"analyses_per_s": True,
                                                "latency_p50_ms": True}
    assert verdicts((400, 2.0), (299, 2.51)) == {"analyses_per_s": False,
                                                 "latency_p50_ms": False}
    # a gain is always within
    assert verdicts((400, 2.0), (900, 0.5)) == {"analyses_per_s": True,
                                                "latency_p50_ms": True}
    lines = [result(400, 2.0), result(299, 2.0)]
    text = ab_pairs.format_rows(ab_pairs.summarize(lines, declared), 1)
    cols = {line.split()[0]: line.split()[-1] for line in text.splitlines()}
    assert cols == {"metric": "bound", "analyses_per_s": "OUT",
                    "latency_p50_ms": "within", "correct_ratio": "-",
                    "failed": "-", "lmatrix.cells_in": "-"}


def test_a_gain_needs_nine_pairs_in_ten_and_a_median_past_the_base_iqr():
    ab_pairs = load_script("tools", "ab_pairs.py")
    declared = {"analyses_per_s": ("higher", 0.25),
                "latency_p50_ms": ("lower", 0.25)}
    # base throughputs 500, 502, ..., 518: median 509, quartiles 504.5
    # and 513.5, so the change's median must pass 518
    base = [500 + 2 * i for i in range(10)]

    def gains(change, p50):
        lines = []
        for b, n in zip(base, change):
            lines += [result(b, 2.0), result(n, p50)]
        rows = ab_pairs.summarize(lines, declared)
        text = ab_pairs.format_rows(rows, 10).splitlines()
        assert [line.split()[6] for line in text[1:]] == [
            {None: "-", True: "gain", False: "no"}[row[7]] for row in rows]
        return {row[0]: row[7] for row in rows if row[0] in declared}
    # 9/10 pairs won by 20, the change's median 529: a gain; a latency
    # that falls on every pair with a base IQR of 0 is one too
    assert gains([499] + [b + 20 for b in base[1:]], 1.5) == {
        "analyses_per_s": True, "latency_p50_ms": True}
    # 8/10 pairs won is not enough, however large the gain
    assert gains([499, 501] + [b + 40 for b in base[2:]], 2.0) == {
        "analyses_per_s": False, "latency_p50_ms": False}
    # 10/10 pairs won by 5: the median moves 5, inside the IQR of 9
    assert gains([b + 5 for b in base], 2.0)["analyses_per_s"] is False
    # fewer than 10 pairs is no gain, however many are won
    assert gains([b + 40 for b in base[:4]], 1.5) == {
        "analyses_per_s": False, "latency_p50_ms": False}
    # a loss on every pair is no gain in either direction
    assert gains([b - 40 for b in base], 2.5) == {
        "analyses_per_s": False, "latency_p50_ms": False}


def test_declared_directions_come_from_the_benchmark():
    ab_pairs = load_script("tools", "ab_pairs.py")
    declared = ab_pairs.declared_metrics()
    assert declared["analyses_per_s"] == ("higher", 0.25)
    assert declared["latency_p90_ms"] == ("lower", 0.25)
    assert declared["peak_rss_mb"] == ("lower", 0.1)


def test_a_comma_list_gives_one_table_per_workload(monkeypatch):
    ab_pairs = load_script("tools", "ab_pairs.py")
    calls = []

    def run_once(tree, workload, seed, seconds, pycache):
        # the working tree runs 100 analyses/s faster on integral only
        calls.append((tree == ab_pairs.ROOT, workload, seed, seconds))
        gain = 100 if tree == ab_pairs.ROOT and workload == "integral" else 0
        return result(500 + seed + gain, 2.0)
    monkeypatch.setattr(ab_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert ab_pairs.main(["--rev", "HEAD~1", "--workload",
                              "integral,oracle", "--pairs", "3",
                              "--seconds", "2", "--seed", "7"]) == 0
    # the revision first on even pairs, the working tree on odd ones,
    # workload after workload
    order = [(False, 7), (True, 7), (True, 8), (False, 8),
             (False, 9), (True, 9)]
    assert calls == [(is_root, workload, seed, 2.0)
                     for workload in ("integral", "oracle")
                     for is_root, seed in order]
    tables = out.getvalue().split("\n\n")
    assert [t.splitlines()[0] for t in tables] == [
        "integral: HEAD~1 against the working tree, 3 pairs of 2 s",
        "oracle: HEAD~1 against the working tree, 3 pairs of 2 s"]
    rows = [{line.split()[0]: line.split()[1:] for line in t.splitlines()[2:]}
            for t in tables]
    assert rows[0]["analyses_per_s"] == ["1/s", "508", "1", "608", "3/3",
                                         "no", "within"]
    assert rows[1]["analyses_per_s"] == ["1/s", "508", "1", "508", "0/3",
                                         "no", "within"]
    assert err.getvalue().count("done") == 6


def test_both_trees_share_one_fresh_bytecode_prefix(monkeypatch):
    # an exported revision has no __pycache__, so each side must import
    # through the same fresh prefix, outside both trees
    ab_pairs = load_script("tools", "ab_pairs.py")
    runs = []

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout=b"")
        if cmd[0] == "tar":
            return subprocess.CompletedProcess(cmd, 0)
        runs.append((kwargs["cwd"], kwargs["env"]["PYTHONPYCACHEPREFIX"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=result(500, 2.0))
    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert ab_pairs.main(["--rev", "HEAD", "--workload", "oracle",
                              "--pairs", "1", "--seconds", "1"]) == 0
    (base, prefix), (root, same) = runs
    assert root == ab_pairs.ROOT and base != root and same == prefix
    for tree in (base, root):
        assert os.path.commonpath([tree, prefix]) != tree
    assert not os.path.exists(prefix)
