"""A fixed reference process that gauges how fast the host runs now.

    python3 bench/calibrate.py

The speed of a shared host drifts by tens of percent over a run, and a
pass of the program slows with it.  Before every op the benchmark starts
this script as a fresh process, the way it starts the ops, and times it;
dividing a pass's wall time by the run's mean reference time cancels the
drift, while a change to the program still moves the result.

The work is fixed benchmark code, never the program, and has the shape of
an op: interpreter start and the numpy import, an RK4-style loop on a
small array, formatting and parsing CSV rows, and a few small least-squares
solves.  A kernel timed inside the benchmark's own process followed the
ops less closely: under some host loads it slowed by a third while the
ops slowed by a few percent.  BLAS runs on one thread here: with two,
the solves sometimes waited about 0.2 s for the second thread, which
doubled the reference time while the ops did not slow.
"""

from __future__ import annotations

import os
import statistics

# Mean time of this script on the 2-core Xeon the first numbers were taken
# on; scaled times read as seconds on a host that runs it this fast.
NOMINAL_S = 0.24


def scaled(seconds, reference_s):
    """``seconds`` rescaled to a host that runs the reference in NOMINAL_S."""
    return seconds * NOMINAL_S / statistics.mean(reference_s)


def reference_work():
    import numpy as np

    x = np.linspace(0.1, 1.0, 128)
    for _ in range(400):
        k1 = -x * 0.5 + 0.1
        k2 = -(x + 0.5 * 0.01 * k1) * 0.5 + 0.1
        x = x + 0.01 * (k1 + k2) / 2 + 1e-12 * float(x.sum())
    rows = ["%d,%.6f,%.6f" % (i, i * 0.37, i * 1.3) for i in range(4000)]
    total = sum(float(row.split(",")[1]) for row in rows)
    a = np.random.default_rng(0).standard_normal((5000, 8))
    for _ in range(5):
        np.linalg.lstsq(a, a[:, 0], rcond=None)
    return float(x.sum()) + total


if __name__ == "__main__":
    # read when numpy loads OpenBLAS, inside reference_work
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    reference_work()
