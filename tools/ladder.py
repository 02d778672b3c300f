"""Time the interacting product on a ladder of truncation orders and vertices.

    python3 tools/ladder.py              # the default rungs
    python3 tools/ladder.py 3,3,4 3,3,8  # rungs given as hbar,lambda,k

Run from the root of a paqft checkout.  Each rung (hbar, lambda, k) works
on the 8x4 lattice with a_t = 1/2, a_x = 1 and m = 1, at truncation orders
(hbar, lambda):

- V is the quartic vertex with coefficient 1 on the first k sites from
  t = 2 on, row by row (rows 2 and 3 for k = 8);
- F is phi^2 on the sites (1, 0) and (1, 2), and G is phi^2 on (6, 1).

It prints, per rung, the seconds of BogoliubovMap(V) (init) and of
star_interacting(F, G), the number of terms of the result, and a sha256
of its coefficients that does not depend on the order of the terms, so
that two checkouts can be shown to give == results.
"""

import hashlib
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from paqft.functionals import interaction_vertex, local_power  # noqa: E402
from paqft.lattice import ExactPropagators, Lattice1p1  # noqa: E402
from paqft.quantization import BogoliubovMap  # noqa: E402

RUNGS = [(2, 2, 8), (3, 3, 4), (3, 3, 8), (4, 4, 2), (4, 4, 4)]


def coefficients_sha256(P):
    lines = sorted("%s|%d|%d|%s|%s" % (key, h, l, c.re, c.im)
                   for key, series in P.terms.items()
                   for (h, l), c in series.coeff.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def rung(th, tl, k):
    lat = Lattice1p1(8, 4, Fraction(1, 2), Fraction(1))
    xp = ExactPropagators(lat)
    V = interaction_vertex(lat, {lat.site(2 + i // 4, i % 4): 1
                                 for i in range(k)}, 4, th, tl)
    F = local_power(lat, {lat.site(1, 0): 1, lat.site(1, 2): 1}, 2, th, tl)
    G = local_power(lat, {lat.site(6, 1): 1}, 2, th, tl)
    t0 = time.perf_counter()
    bog = BogoliubovMap(xp, V)
    t1 = time.perf_counter()
    P = bog.star_interacting(F, G)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, P


def main(argv):
    rungs = [tuple(int(v) for v in a.split(",")) for a in argv] or RUNGS
    print("hbar lambda  k  terms   init_s   star_s  sha256")
    for th, tl, k in rungs:
        init_s, star_s, P = rung(th, tl, k)
        print("%4d %6d %2d %6d %8.3f %8.3f  %s" % (
            th, tl, k, len(P.terms), init_s, star_s, coefficients_sha256(P)),
            flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
