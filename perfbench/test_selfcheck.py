"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench
"""

import os

import hostspeed
import run
import spans
import workloads


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def test_same_seed_gives_identical_documents(tmp_path):
    for workload in sorted(workloads.WORKLOADS):
        first, second, other = (tmp_path / workload / tag
                                for tag in ("a", "b", "c"))
        workloads.build(workload, 5, str(first))
        workloads.build(workload, 5, str(second))
        workloads.build(workload, 6, str(other))
        assert _files(first) == _files(second)
        assert _files(first) != _files(other)


def test_corrupted_reference_counts_as_failure(tmp_path):
    cycle = workloads.build("integral", 3, str(tmp_path))[:4]
    records = []
    run.run_cycles(cycle, records, cycles=1)
    assert all(not r["problems"] for r in records)

    cycle[1].expect["betti"] = [b + 1 for b in cycle[1].expect["betti"]]
    cycle[2].expect["euler"] += 2
    records = []
    run.run_cycles(cycle, records, cycles=1)
    assert [bool(r["problems"]) for r in records] == [False, True, True,
                                                      False]


def test_self_times_sum_to_traced_wall_minus_own_time(tmp_path):
    cycle = workloads.build("integral", 4, str(tmp_path))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        wall, outside = run.run_cycles(cycle, [], cycles=1)
    finally:
        restore()
    self_total = sum(tracer.self_times().values())
    assert tracer.calls()["cli.main"] == len(cycle)
    # what is left is redirecting stdout and reading the clock per call
    assert abs(wall - outside - self_total) < 0.02 * wall


def test_install_restores_every_binding():
    import orbinov.cli
    import orbinov.lmatrix
    import orbinov.twisted
    before = (orbinov.cli.main, orbinov.twisted.fraction_field_rank,
              orbinov.lmatrix.fraction_field_rank)
    restore = spans.install(spans.Tracer())
    assert orbinov.twisted.fraction_field_rank is not before[1]
    restore()
    assert (orbinov.cli.main, orbinov.twisted.fraction_field_rank,
            orbinov.lmatrix.fraction_field_rank) == before


def test_cycles_have_odd_length(tmp_path):
    # an odd cycle puts the median of a run on one kind of analysis,
    # not between the two kinds on either side of the middle
    for workload in sorted(workloads.WORKLOADS):
        cycle = workloads.build(workload, 1, str(tmp_path / workload))
        assert len(cycle) % 2 == 1


def test_theory_agrees_with_euler_of_cells(tmp_path):
    # the Betti numbers expected from theory and the Euler characteristic
    # counted from the cells are independent references; they must agree
    for workload in ("twisted", "integral"):
        for analysis in workloads.build(workload, 2, str(tmp_path / workload)):
            betti = analysis.expect["betti"]
            assert (sum((-1) ** q * b for q, b in enumerate(betti))
                    == analysis.expect["euler"]), analysis.info


def test_scaling_cancels_a_change_of_host_speed():
    # an analysis timed while the host runs at half speed reads as on a
    # host at the nominal speed
    refs = [hostspeed.NOMINAL_S] * 5 + [2 * hostspeed.NOMINAL_S] * 12
    scales = hostspeed.scales(refs)
    assert len(scales) == len(refs) - 1
    assert scales[0] == 1.0 and scales[-1] == 0.5


def test_records_hold_raw_and_scaled_times(tmp_path):
    cycle = workloads.build("integral", 3, str(tmp_path))[:3]
    records = []
    run.run_cycles(cycle, records, cycles=2)
    for r in records:
        scale = r["ms"] / r["raw_ms"]
        assert 0.2 < scale < 5.0 and r["ref_ms"] > 0
