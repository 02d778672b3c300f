"""Time the 2D wave front estimator per centre on the AC11 grid.

    python3 tools/wf2d_timing.py       # best of 5 runs
    python3 tools/wf2d_timing.py 20    # best of 20 runs

Run from the root of a paqft checkout.  The field and the centres are
AC11's, from microlocal.ac11_grid: the commutator kernel column Delta(., y0)
of the 512x256 lattice, and every AC11_STRIDE-th grid point of the annulus
AC11_ANNULUS around y0.

It prints the number of centres, the best and the median microseconds per
centre of wf_estimate_2d over the runs, the number of singular rays and of
near_threshold() rays, and a sha256 of the per-centre singular flags, so
that two checkouts can be compared for speed and shown to decide alike.
"""

import hashlib
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from paqft import microlocal as ml  # noqa: E402


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
    field, _, centers = ml.ac11_grid()
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
