"""Host speed reference for the benchmark.

The machine the benchmark runs on changes speed in spells of seconds to
minutes, by up to a factor of two, and CPU time moves with wall time.
So the benchmark times a fixed piece of pure-Python work, the
reference, next to every analysis, and scales each measured time by
NOMINAL_S / (reference time nearby): times are reported as they would
read on a host that runs the reference in NOMINAL_S.  The reference
shares no code with orbinov, so a change to orbinov moves the scaled
times by as much as it moves the raw ones.

    reference()      # seconds taken by one pass of the fixed work
"""

import statistics
import time

# about the median time of reference() on the 2-vCPU Xeon VM of the baseline
NOMINAL_S = 0.002
# reference samples on each side of an analysis that set its scale
HALF_WINDOW = 3


_TABLE = dict.fromkeys(range(256), 0)


def _work():
    # integer arithmetic and dict updates that allocate no object the
    # garbage collector tracks, so the time does not depend on the size
    # of the heap (which the traced run grows)
    table, acc = _TABLE, 1
    for i in range(4500):
        acc = (acc * 1103515245 + i) % 2147483648
        key = acc & 255
        table[key] = (table[key] + acc * i) % 1000000007
    return acc


def reference():
    """Seconds taken by one pass of the reference work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scales(refs):
    """Scale factor per interval between consecutive reference samples.

    refs has one sample more than there are intervals; interval i lies
    between refs[i] and refs[i + 1], and its factor is NOMINAL_S over
    the median of the samples within HALF_WINDOW of it.
    """
    out = []
    for i in range(len(refs) - 1):
        window = refs[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW]
        out.append(NOMINAL_S / statistics.median(window))
    return out
