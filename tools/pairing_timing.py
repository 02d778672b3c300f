"""Time the batched pairings of an extension fit and a scaling regression.

    python3 tools/pairing_timing.py       # best of 5 runs
    python3 tools/pairing_timing.py 20    # best of 20 runs

Run from the root of a paqft checkout.  The calls are those of AC09 and the
Feynman-square demo: egrenorm.extension_ambiguity of the two W-projection
extensions of (x+i0)^-2 (radii acceptance.W_RADII) and of the W extension
against the minimal-subtraction one of the (x+i0)^(-2+z) family, both at
max_order 1; and egrenorm.scaling_degree_regression of (x+i0)^-2,
(x-i0)^-1.5, x_+^-0.5 and delta^1.

It prints one line per call: the best and the median milliseconds over the
runs, and the values (fit coefficients and residual, or the degree), so that
two checkouts can be compared for speed and shown to compute alike.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from paqft import acceptance  # noqa: E402
from paqft import egrenorm as eg  # noqa: E402
from paqft import formats  # noqa: E402
from paqft.dist1d import SymbolicDistribution1D  # noqa: E402

REGRESSIONS = ("(x+i0)^-2", "(x-i0)^-1.5", "x_+^-0.5", "delta^1")


def calls():
    """(name, zero-argument call) per timed call."""
    t = formats.parse_distribution("(x+i0)^-2")
    w1, w2 = (eg.extend(t, eg.make_w_projection(1, r0, R))
              for r0, R in acceptance.W_RADII)
    ms = eg.ms_extension(lambda z: SymbolicDistribution1D.power_i0(-2.0 + z))
    out = [("ambiguity W/W", lambda: eg.extension_ambiguity(w1, w2, 1)),
           ("ambiguity W/MS", lambda: eg.extension_ambiguity(w1, ms, 1))]
    for expr in REGRESSIONS:
        d = formats.parse_distribution(expr)
        out.append(("regression " + expr,
                    lambda d=d: eg.scaling_degree_regression(d)))
    return out


def shown(value):
    """The value of a call as text: the degree, or the fit coefficients and
    the residual."""
    if isinstance(value, tuple):
        coeffs, resid = value
        return "c = [%s] resid = %r" % (
            ", ".join(repr(complex(c)) for c in coeffs), resid)
    return "sd = %r" % value


def main(argv):
    runs = int(argv[0]) if argv else 5
    print("%-26s %8s %10s  values" % ("call", "best_ms", "median_ms"))
    for name, call in calls():
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            value = call()
            times.append((time.perf_counter() - t0) * 1e3)
        print("%-26s %8.2f %10.2f  %s" % (name, min(times),
                                          statistics.median(times),
                                          shown(value)))


if __name__ == "__main__":
    main(sys.argv[1:])
