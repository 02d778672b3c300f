"""Time the batched pairings of an extension fit, a scaling regression, a
minimal subtraction and the 1D wave front estimator.

    python3 tools/pairing_timing.py       # best of 5 runs
    python3 tools/pairing_timing.py 20    # best of 20 runs

Run from the root of a paqft checkout.  The calls are those of AC09 and the
Feynman-square demo: egrenorm.extension_ambiguity of the two W-projection
extensions of (x+i0)^-2 (radii acceptance.W_RADII) and of the W extension
against the minimal-subtraction one of the (x+i0)^(-2+z) family, both at
max_order 1; egrenorm.scaling_degree_regression of (x+i0)^-2,
(x-i0)^-1.5, x_+^-0.5 and delta^1; egrenorm.minimal_subtraction of the
x_+^(z-1) family on AC09's two probes; microlocal.wf_estimate_1d of
perfbench/wavefront.py's six model distributions at the centres 0 and 0.8;
and the batched pairing of x^2, heaviside^1 and (x-i0)^-3, each a
combination of the two half-line pairings, on the `extend` command's three
probe polynomials over radii (0.4, 1.7), so that both quadrature runs of
each side take part.

It prints one line per call: the best and the median milliseconds over the
runs, a sha256 of the values (the rays, for the wave front estimates)
and the values in short (fit coefficients and residual, the degree, the MS
values, the pairings, or the ray counts), so that two checkouts can be
compared for speed and shown to compute alike.
"""

import hashlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from paqft import acceptance  # noqa: E402
from paqft import egrenorm as eg  # noqa: E402
from paqft import formats  # noqa: E402
from paqft import microlocal as ml  # noqa: E402
from paqft.dist1d import SymbolicDistribution1D, TestFunction1D  # noqa: E402
from perfbench.wavefront import WF1D_MODELS  # noqa: E402

REGRESSIONS = ("(x+i0)^-2", "(x-i0)^-1.5", "x_+^-0.5", "delta^1")
MS_PROBES = ((1.0, 0.4), (0.5, -0.3, 0.2))  # AC09's, on radii (1, 2)
WF1D_CENTRES = (0.0, 0.8)
PAIRINGS = ("x^2", "heaviside^1", "(x-i0)^-3")
PAIR_PROBES = ((1.0,), (1.0, 1.0), (0.5, -0.3, 0.2))  # the `extend` probes


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
    family = lambda z: SymbolicDistribution1D.halfline(z - 1.0, +1)
    probes = [TestFunction1D.from_poly(poly, 1.0, 2.0) for poly in MS_PROBES]
    out.append(("MS x_+^(z-1)", lambda: [
        eg.minimal_subtraction(family, f) for f in probes]))
    models = [formats.parse_distribution(expr) for expr, _ in WF1D_MODELS]
    out.append(("wf_estimate_1d models", lambda: [
        ml.wf_estimate_1d(t, WF1D_CENTRES).rays for t in models]))
    fs = [TestFunction1D.from_poly(poly, 0.4, 1.7) for poly in PAIR_PROBES]
    for expr in PAIRINGS:
        d = formats.parse_distribution(expr)
        out.append(("pair " + expr, lambda d=d: {
            "pairings": [complex(v) for v in d.pair_batch(fs)[0]]}))
    return out


def shown(value):
    """The value of a call as text: the degree, the fit coefficients and the
    residual, the MS values, the pairings, or the counts of rays and
    singular rays."""
    if isinstance(value, dict):
        return "pairings = [%s]" % ", ".join(map(repr, value["pairings"]))
    if isinstance(value, tuple):
        coeffs, resid = value
        return "c = [%s] resid = %r" % (
            ", ".join(repr(complex(c)) for c in coeffs), resid)
    if isinstance(value, list) and isinstance(value[0], list):
        rays = [r for rs in value for r in rs]
        return "%d rays, %d singular" % (len(rays),
                                         sum(r.singular for r in rays))
    if isinstance(value, list):
        return "ms = [%s]" % ", ".join(map(repr, value))
    return "sd = %r" % value


def main(argv):
    runs = int(argv[0]) if argv else 5
    print("%-26s %8s %10s  %-64s  values" % ("call", "best_ms",
                                              "median_ms", "sha256"))
    for name, call in calls():
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            value = call()
            times.append((time.perf_counter() - t0) * 1e3)
        print("%-26s %8.2f %10.2f  %s  %s" % (
            name, min(times), statistics.median(times),
            hashlib.sha256(repr(value).encode()).hexdigest(), shown(value)))


if __name__ == "__main__":
    main(sys.argv[1:])
