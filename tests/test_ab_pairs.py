"""The summary of tools/ab_pairs.py, on canned result lines; no
benchmark runs here."""

import json

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
    better = {"analyses_per_s": "higher", "latency_p50_ms": "lower",
              "correct_ratio": "higher"}
    rows = {row[0]: row[1:] for row in ab_pairs.summarize(lines, better)}
    # base throughputs 500, 520, 540, 560: quartiles 515 and 545
    assert rows["analyses_per_s"] == ("1/s", 530, 30, 580, 2)
    assert rows["latency_p50_ms"][:2] == ("ms", 1.85)
    assert rows["latency_p50_ms"][3:] == (1.55, 3)
    assert rows["correct_ratio"] == ("ratio", 1.0, 0, 1.0, 0)
    assert rows["failed"] == ("count", 0, 0, 0, 0)
    # a metric BENCHMARK.json does not declare gets medians, no wins
    assert rows["lmatrix.cells_in"] == ("count", 7, 0, 7, None)
    text = ab_pairs.format_rows(ab_pairs.summarize(lines, better), 4)
    assert text.splitlines()[1].split() == ["analyses_per_s", "1/s", "530",
                                            "30", "580", "2/4"]
    # one pair has no quartiles
    (row,) = [r for r in ab_pairs.summarize(lines[:2], better)
              if r[0] == "analyses_per_s"]
    assert row == ("analyses_per_s", "1/s", 500, 0, 600, 1)


def test_declared_directions_come_from_the_benchmark():
    ab_pairs = load_script("tools", "ab_pairs.py")
    better = ab_pairs.better_directions()
    assert better["analyses_per_s"] == "higher"
    assert better["latency_p90_ms"] == "lower"
