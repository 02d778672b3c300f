"""Time the bicharacteristic flow on the benchmark's flat and conformal rays.

    python3 tools/flow_timing.py       # best of 5 runs
    python3 tools/flow_timing.py 20    # best of 20 runs

Run from the root of a paqft checkout.  The rays have the shape of
perfbench/wavefront.py's `flow` items: 400 steps of dt = 0.01 from a point
of [-1, 1]^2, on the flat default metric with a covector of
[0.5, 2] x [-2, 2], and on the conformal metric
diag(w, -w), w = exp(-0.4 sin t cos x), with a null covector (a, +-a).
The starting points are drawn from a fixed seed.

It prints, per kind, the best and the median milliseconds of
bicharacteristic_flow over the runs, the fixed-point iterations per step
(nan on a checkout whose flow does not report them), the metric calls per
step (a callable the flow is handed; the flat default is internal, "-"),
and a sha256 of the trajectory bytes (x, k and sigma), so that two
checkouts can be compared for speed and shown to integrate alike.
"""

import hashlib
import math
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from paqft import microlocal as ml  # noqa: E402

N_STEPS, DT = 400, 0.01


def conformal(x):
    w = math.exp(-0.4 * math.sin(x[0]) * math.cos(x[1]))
    return np.diag([w, -w])


class CountingMetric:
    def __init__(self, metric_inv):
        self.metric_inv, self.calls = metric_inv, 0

    def __call__(self, x):
        self.calls += 1
        return self.metric_inv(x)


def rays():
    """(kind, x0, k0, metric_inv) of the two benchmark-shaped flows."""
    rng = random.Random(21)
    x0 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    flat_k0 = (rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
    a = rng.uniform(0.5, 2.0)
    null_k0 = (a, rng.choice((-1.0, 1.0)) * a)
    return [("flat", x0, flat_k0, None), ("conformal", x0, null_k0, conformal)]


def trajectory_sha256(r):
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(r[key], dtype=float).tobytes()
        for key in ("x", "k", "sigma"))).hexdigest()


def main(argv):
    runs = int(argv[0]) if argv else 5
    print("kind       best_ms  median_ms  iters/step  calls/step  sha256")
    for kind, x0, k0, metric in rays():
        ms = []
        for _ in range(runs):
            t0 = time.perf_counter()
            r = ml.bicharacteristic_flow(x0, k0, DT, N_STEPS, metric)
            ms.append((time.perf_counter() - t0) * 1e3)
        calls = "-"
        if metric is not None:
            counted = CountingMetric(metric)
            ml.bicharacteristic_flow(x0, k0, DT, N_STEPS, counted)
            calls = "%.2f" % (counted.calls / N_STEPS)
        print("%-9s %8.2f %10.2f %11.2f %11s  %s" % (
            kind, min(ms), statistics.median(ms),
            r.get("iterations", math.nan) / N_STEPS, calls,
            trajectory_sha256(r)))


if __name__ == "__main__":
    main(sys.argv[1:])
