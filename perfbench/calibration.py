"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other tenants: on a 2-vCPU Xeon VM the same pure-Python loop takes
1.5 to 2 times as long in one minute as in the next.  Raw wall times then
spread more between runs of the same code than any useful regression
bound.

So the benchmark also times ``reference()``, a fixed computation that uses
only the standard library and the kinds of work bhl does (sparse integer
matrix products with gcd reduction, and bursts of small allocations),
right before each timed item, before each set-up sample and once at the
end.  A timing is scaled by REFERENCE_S over the median time of the
reference runs around it, which expresses it in seconds at the machine
speed on which REFERENCE_S was measured.  A change to bhl moves a scaled
timing as much as the raw one; a change in machine speed moves the item
and the reference alike and largely cancels.  The raw timings are printed
beside the scaled ones.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

# Time of reference() on a 2-vCPU Intel Xeon VM (CPython 3.11.7) in its
# faster state.  It only sets the scale of the reported timings.
REFERENCE_S = 0.0050

# An item is scaled by the reference runs just before and after it: the
# WINDOW before it and the WINDOW after it.
WINDOW = 2


def _sparse_square():
    n = 24
    rows = {i: {(i * 7 + k) % n: (i + 3 * k) % 11 - 5 for k in range(5)}
            for i in range(n)}
    out = {}
    for i, row in rows.items():
        acc = {}
        for k, x in row.items():
            for j, y in rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        g = 0
        for v in acc.values():
            g = math.gcd(g, v)
        out[i] = {j: v // (g or 1) for j, v in acc.items() if v}
    return out


def _allocations():
    cells = [(i, i * 3, str(i)) for i in range(10000)]
    return sum(cell[1] for cell in cells)


def reference():
    for _ in range(6):
        _sparse_square()
    for _ in range(2):
        _allocations()


def time_reference():
    """Seconds one reference() takes now, with the collector off so that
    the program's heap does not enter the measurement."""
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        gc.enable()


def scale_all(timings, references):
    """Scale one timing per item by the run's reference times.

    ``references[i]`` was taken just before timing ``i``, and there is one
    more at the end, so item ``i`` lies between ``references[i]`` and
    ``references[i + 1]``.
    """
    if len(references) != len(timings) + 1:
        raise ValueError("need one reference time per timing, plus one")
    out = []
    for i, t in enumerate(timings):
        around = references[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(t * REFERENCE_S / statistics.median(around))
    return out
