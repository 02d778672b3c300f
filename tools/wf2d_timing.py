"""Time the 2D wave front estimator per centre on the AC11 grid.

    python3 tools/wf2d_timing.py       # best of 5 runs
    python3 tools/wf2d_timing.py 20    # best of 20 runs

Run from the root of a paqft checkout.  The field is AC11's: the commutator
kernel column Delta(., y0) of the 512x256 lattice (a_t = 1/20, a_x = 1/10,
m = 1), y0 its centre, sampled with spacings (0.05, 0.1); the centres are
every AC11_STRIDE-th grid point of the annulus AC11_ANNULUS around y0, as
in microlocal.propagation_check.

It prints the number of centres, the best and the median microseconds per
centre of wf_estimate_2d over the runs, the number of singular rays and of
near_threshold() rays, and a sha256 of the per-centre singular flags, so
that two checkouts can be compared for speed and shown to decide alike.
"""

import hashlib
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from paqft import microlocal as ml  # noqa: E402
from paqft.lattice import Lattice1p1, PropagatorSet  # noqa: E402

A_T, A_X = 0.05, 0.1


def ac11_grid():
    """AC11's sampled field and annulus centres."""
    lat = Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0)
    t0, x0 = lat.n_t // 2, lat.n_x // 2
    field = ml.SampledField2D(PropagatorSet(lat).causal_column(t0, x0),
                              A_T, A_X)
    origin = np.array([t0 * A_T, x0 * A_X])
    lo, hi = ml.AC11_ANNULUS
    centers = []
    for it in range(2, lat.n_t - 2, ml.AC11_STRIDE):
        for ix in range(2, lat.n_x - 2, ml.AC11_STRIDE):
            p = np.array([it * A_T, ix * A_X])
            if lo <= np.linalg.norm(p - origin) <= hi:
                centers.append((p[0], p[1]))
    return field, centers


def flags_sha256(wf):
    """sha256 of one line per centre: its coordinates and its rays' singular
    flags in ray order."""
    lines, n = [], ml.WF2D_RAYS
    for i in range(0, len(wf.rays), n):
        rays = wf.rays[i:i + n]
        lines.append("%r|%r|%s" % (float(rays[0].center[0]),
                                   float(rays[0].center[1]),
                                   "".join("1" if r.singular else "0"
                                           for r in rays)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv):
    runs = int(argv[0]) if argv else 5
    field, centers = ac11_grid()
    per_centre = []
    for _ in range(runs):
        t0 = time.perf_counter()
        wf = ml.wf_estimate_2d(field, centers)
        per_centre.append((time.perf_counter() - t0) / len(centers) * 1e6)
    print("centres  best_us  median_us  singular  near  sha256")
    print("%7d %8.1f %10.1f %9d %5d  %s" % (
        len(centers), min(per_centre), statistics.median(per_centre),
        len(wf.singular()), len(wf.near_threshold()), flags_sha256(wf)))


if __name__ == "__main__":
    main(sys.argv[1:])
