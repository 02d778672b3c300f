"""Time the layers of the chain, with a sha256 of what each call computes.

    python3 tools/timing.py                      # every case, 5 runs a call
    python3 tools/timing.py -n 20 pairing wf2d   # the named cases, 20 runs
    python3 tools/timing.py ladder 3,3,4 3,3,8@16x8 3,3,24@16x8/2-13
                                     # rungs h,l,k[@NTxNX][/A-B]

Run from the root of a paqft checkout.  The cases:

- ladder: R(G) (R G), star_interacting(F, G) (star F,G) and
  star_interacting(G, F) (star G,F) of BogoliubovMap(V) at truncation
  orders (h, l) in (hbar, lambda) on the NT x NX lattice of the rung (a_t =
  1/2, a_x = 1, m = 1; 8x4 unless given): V the quartic vertex with
  coefficient 1 on the first k sites from t = 2 on, row by row, or, for a
  rung ending in /A-B, spread over the rows A to B, k / (B - A + 1) sites a
  row at x = 1 + j NX / (that many); F phi^2 on (1, 0) and (1, 2), G phi^2
  on (NT - 2, 1); each call builds its own map (on_new_map).  The default
  rungs are five on 8x4, two on 16x8 at (3, 3) with 8 and 16 vertices, one
  on 24x24 at (3, 3) with 48 vertices, and two that probe depth on 16x8
  with vertices on rows 2-13: 24 at (3, 3) and 48 at (2, 2);
- flow: bicharacteristic_flow as the benchmark's flow items run it, on the
  flat default metric, on the same metric passed in as a callable (same
  sha256, with the calls a user metric costs) and on the conformal one
  with a null covector;
- wf2d: wf_estimate_2d on the field and centres of microlocal.ac11_grid,
  with the number of Gaussian windows taken, in one call and in calls of
  27 centres as the benchmark's wf2d items make them (same sha256), where
  the set-up each call repeats (anchors, nearest grid points, the fit)
  shows; that row gives the first call, on a cold cut-window cache, apart
  from the rest; and on the same field, centres near its edges and
  corners, whose boxes reach past the grid's edge, with those skipped (no
  kept grid point in the box, or none in reach) counted;
- pairing: AC09's extension_ambiguity of two W extensions of (x+i0)^-2 and
  of W against MS, four scaling regressions, AC09's MS of x_+^(z-1), and
  the pairings of x^2, heaviside^1 and (x-i0)^-3 on the `extend` probes over
  radii (0.4, 1.7), so that both quadrature runs of each side take part;
  each row also counts the quad_complex runs of one more call and their
  integrand calls, one per round, as flow rows count iterations;
- wf1d: wf_estimate_1d of the benchmark's six models at centres 0, +-0.7
  and +-0.9, and of AC11's three 1D estimates (delta and (x +- i0)^-1 at
  0);
- gns: AlgebraState and gns_construct, through acceptance.gns_check, of
  AC12's three states and of the normalised trace on matrix_algebra(n)
  for n = 3, 4, 5;
- commutator: QuantProduct(xp, "star_H").commutator of two smeared fields,
  each on 12, 18 and 24 seeded sites with small rational weights
  (acceptance.sparse_smear), on the 24x24 and 48x48 lattices of the
  benchmark's free_wide items (a_t = 1/2, a_x = 1, m = 1), whose exact
  kernels are lifted before the timing;
- weyl: algebra.weyl_rep_check at the weyl command's defaults (dx = 0.25,
  hbar = 1);
- tables: PropagatorSet.ret_table, the leapfrog march of the retarded
  table, on AC11's 512x256 lattice (a_t = 1/20, a_x = 1/10, m = 1).

Per call it prints the best and the median milliseconds over the runs, a
sha256 of the result and the result in short, so that two checkouts can be
compared for speed and shown to compute alike.  Ladder rows hash the
coefficients in any order, flows x, k and sigma, wf2d each centre's
singular flags, wf1d rows the repr of the rays, pairings the repr, gns
rows each representation's dimension and residuals as float64 bytes,
commutator rows the coefficients, as ladder rows do, weyl rows the repr of
the report's items in key order, and tables the float64 bytes.
A ladder row shows, after the number of terms, the number of R entries
its map built (R of a monomial, for the vertex sites in its past, to the
orders its caller keeps) and the number of vertex sites the call used: for
R G those in the past of G, for a star row those in the future of its
first argument and the past of its second.  G,F uses none, as G is
nowhere earlier than F.
"""

import argparse
import hashlib
import random
import statistics
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from paqft import acceptance, cli, dist1d, formats  # noqa: E402
from paqft import algebra as al  # noqa: E402
from paqft import egrenorm as eg  # noqa: E402
from paqft import microlocal as ml  # noqa: E402
from paqft.dist1d import SymbolicDistribution1D, TestFunction1D  # noqa: E402
from paqft.functionals import (interaction_vertex, local_power,  # noqa: E402
                               smeared_field)
from paqft.lattice import (ExactPropagators, Lattice1p1,  # noqa: E402
                           PropagatorSet)
from paqft.quantization import BogoliubovMap, QuantProduct  # noqa: E402
from perfbench import wavefront  # noqa: E402

RUNGS = [(2, 2, 8, 8, 4, None), (3, 3, 4, 8, 4, None), (3, 3, 8, 8, 4, None),
         (4, 4, 2, 8, 4, None), (4, 4, 4, 8, 4, None), (3, 3, 8, 16, 8, None),
         (3, 3, 16, 16, 8, None), (3, 3, 48, 24, 24, None),
         (3, 3, 24, 16, 8, (2, 13)),
         (2, 2, 48, 16, 8, (2, 13))]  # (h, l, k, NT, NX, vertex rows A-B)
WF2D_BATCH = wavefront.SIZES["full"]["batch"]
COMMUTATOR_LATTICES, COMMUTATOR_SITES = (24, 48), (12, 18, 24)
N_STEPS, DT = wavefront.SIZES["full"]["flows"], 0.01
REGRESSIONS = ("(x+i0)^-2", "(x-i0)^-1.5", "x_+^-0.5", "delta^1")
WF1D_CENTRES = (0.0, 0.7, -0.7, 0.9, -0.9)
PAIRINGS = ("x^2", "heaviside^1", "(x-i0)^-3")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def coefficients_sha256(P):
    lines = sorted("%s|%d|%d|%s|%s" % (key, h, l, c.re, c.im)
                   for key, series in P.terms.items()
                   for (h, l), c in series.coeff.items())
    return sha256("\n".join(lines))


def rung(th, tl, k, n_t=8, n_x=4, rows=None):
    """(xp, V, F, G) of the ladder rung (th, tl, k) on the n_t x n_x
    lattice, its vertices on the first k sites from t = 2 on, or spread
    over the rows (A, B)."""
    lat = Lattice1p1(n_t, n_x, Fraction(1, 2), Fraction(1))
    if rows is None:
        sites = [lat.site(2 + i // n_x, i % n_x) for i in range(k)]
    else:
        per = k // (rows[1] - rows[0] + 1)
        sites = [lat.site(t, 1 + j * n_x // per)
                 for t in range(rows[0], rows[1] + 1) for j in range(per)]
    V = interaction_vertex(lat, dict.fromkeys(sites, 1), 4, th, tl)
    F = local_power(lat, {lat.site(1, 0): 1, lat.site(1, 2): 1}, 2, th, tl)
    G = local_power(lat, {lat.site(n_t - 2, 1): 1}, 2, th, tl)
    return ExactPropagators(lat), V, F, G


def parse_rung(text):
    """(h, l, k, NT, NX, rows) of a rung given as h,l,k (on 8x4) or
    h,l,k@NTxNX, then optionally /A-B, rows (A, B) or None; ValueError
    unless the lattice is one Lattice1p1 takes and rows 2 to NT - 1 hold
    the k vertex sites, or rows A to B, 2 <= A <= B <= NT - 1, hold them
    with the same number, at most NX, on each."""
    body, slash, span = text.partition("/")
    orders, at, shape = body.partition("@")
    fields = orders.split(",") + (shape.split("x") if at else ["8", "4"])
    rows = span.split("-") if slash else []
    if (len(fields) != 5 or len(rows) not in (0, 2)
            or not all(map(str.isdigit, fields + rows))):
        raise ValueError("a rung is h,l,k or h,l,k@NTxNX, then optionally "
                         "/A-B, in integers, not %r" % text)
    th, tl, k, n_t, n_x = map(int, fields)
    Lattice1p1(n_t, n_x)  # raises LatticeError, a ValueError, if refused
    if not rows:
        if k > (n_t - 2) * n_x:
            raise ValueError("rung %r: %d vertex sites do not fit on rows 2 "
                             "to %d" % (text, k, n_t - 1))
        return th, tl, k, n_t, n_x, None
    first, last = map(int, rows)
    n_rows = last - first + 1
    if not (2 <= first <= last < n_t and k % n_rows == 0
            and 0 < k <= n_rows * n_x):
        raise ValueError("rung %r: %d vertex sites do not spread evenly, at "
                         "most %d a row, over rows %d to %d within 2 to %d"
                         % (text, k, n_x, first, last, n_t - 1))
    return th, tl, k, n_t, n_x, (first, last)


def on_new_map(xp, V, method, *args):
    """(method(*args), the map) of a BogoliubovMap(xp, V) built for the
    call, as a map keeps R of every monomial it meets."""
    bog = BogoliubovMap(xp, V)
    return getattr(bog, method)(*args), bog


def ladder_shown(W):
    """A ladder row's result: its terms, the R entries its map built and
    the vertex sites W it used."""
    return lambda value, _: "%d terms, %d R entries, %d vertex sites" % (
        len(value[0].terms), len(value[1]._R), len(W))


def ladder(rungs):
    digest = lambda value: coefficients_sha256(value[0])
    for th, tl, k, n_t, n_x, rows in rungs:
        xp, V, F, G = rung(th, tl, k, n_t, n_x, rows)
        name = "%d,%d,%d %dx%d" % (th, tl, k, n_t, n_x) + (
            "/%d-%d" % rows if rows else "")
        bog = BogoliubovMap(xp, V)
        yield ("R G " + name, partial(on_new_map, xp, V, "R", G), digest,
               ladder_shown(bog._past(bog._sites, G.support())))
        for order, args in (("F,G", (F, G)), ("G,F", (G, F))):
            yield ("star %s %s" % (order, name),
                   partial(on_new_map, xp, V, "star_interacting", *args),
                   digest, ladder_shown(bog._diamond(*args)))


def trajectory_sha256(r):
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(r[key], dtype=float).tobytes()
        for key in ("x", "k", "sigma"))).hexdigest()


def flow_shown(run, metric, r, _):
    """Fixed-point iterations per step, and metric calls per step from one
    more run; the flat default metric is internal and is not counted."""
    text = "%.2f iterations/step" % (r["iterations"] / N_STEPS)
    if metric is None:
        return text
    calls = []
    run(lambda x: calls.append(x) or metric(x))
    return text + ", %.2f metric calls/step" % (len(calls) / N_STEPS)


def flow():
    rng = random.Random(21)
    x0 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    flat_k0 = (rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
    a = rng.uniform(0.5, 2.0)
    null_k0 = (a, rng.choice((-1.0, 1.0)) * a)
    conformal = wavefront.conformal_metric
    flat = lambda x: np.diag([1.0, -1.0])
    for kind, k0, metric in (("flat", flat_k0, None),
                             ("flat (callable)", flat_k0, flat),
                             ("conformal", null_k0, conformal)):
        run = partial(ml.bicharacteristic_flow, x0, k0, DT, N_STEPS)
        yield (kind, partial(run, metric), trajectory_sha256,
               partial(flow_shown, run, metric))


def wf2d():
    field, _, centres = ml.ac11_grid()
    yield ("ac11 grid", partial(ml.wf_estimate_2d, field, centres),
           ml.flags_sha256, lambda wf, best_ms: (
               "%d centres, %.1f us/centre, %d singular, %d near, "
               "%d windows" % (
                   len(centres), best_ms * 1e3 / len(centres),
                   len(wf.singular()), len(wf.near_threshold()),
                   wf.meta["windows"])))
    batches = [centres[i:i + WF2D_BATCH]
               for i in range(0, len(centres), WF2D_BATCH)]
    firsts, rests = [], []
    yield ("ac11 %d-centre calls" % WF2D_BATCH,
           partial(batched_calls, field, batches, firsts, rests),
           lambda wfs: ml.flags_sha256(ml.WFEstimate(
               [r for wf in wfs for r in wf.rays], wfs[0].threshold, {})),
           lambda wfs, best_ms: "%d calls, first %.0f us, then %.0f us/call, "
           "%.1f us/centre, %d windows" % (
               len(wfs), min(firsts) * 1e3, min(rests) * 1e3 / (len(wfs) - 1),
               best_ms * 1e3 / len(centres),
               sum(wf.meta["windows"] for wf in wfs)))
    edge = edge_centres()
    yield ("ac11 edge centres", partial(ml.wf_estimate_2d, field, edge),
           ml.flags_sha256, lambda wf, best_ms: (
               "%d centres, %d skipped, %.1f us/centre, %d singular, "
               "%d windows" % (
                   len(edge), len(wf.meta["skipped_centers"]),
                   best_ms * 1e3 / len(edge), len(wf.singular()),
                   wf.meta["windows"])))


def edge_centres():
    """Centres near the edges and corners of AC11's 25.6 x 25.6 field, most
    of them off the grid points, each box reaching past the grid's edge;
    some boxes hold no kept grid point, and some none at all."""
    ts = (-2.6, -2.3, -1.17, 0.0, 0.9, 12.83, 24.62, 25.6, 26.5, 27.9)
    xs = (-2.45, -1.33, 0.07, 1.1, 12.8, 24.4, 25.77, 27.5)
    return [(t, x) for t in ts for x in xs
            if min(t, x) < 2.5 or max(t, x) > 23.1]


def batched_calls(field, batches, firsts, rests):
    """wf_estimate_2d over each batch, the first call on a cold cut-window
    cache; its milliseconds go to firsts, those of the others to rests."""
    ml._cut_window.cache_clear()
    t0 = time.perf_counter()
    wfs = [ml.wf_estimate_2d(field, batches[0])]
    t1 = time.perf_counter()
    wfs += [ml.wf_estimate_2d(field, b) for b in batches[1:]]
    firsts.append((t1 - t0) * 1e3)
    rests.append((time.perf_counter() - t1) * 1e3)
    return wfs


def quadrature_shown(run, shown, value, best_ms):
    """shown's text, then the quad_complex runs and their integrand calls
    (one per round) of one more call of run."""
    counts, quad = [0, 0], dist1d.quad_complex

    def counted(func, *args, **kw):
        counts[0] += 1

        def f(x):
            counts[1] += 1
            return func(x)
        return quad(f, *args, **kw)
    dist1d.quad_complex = counted
    try:
        run()
    finally:
        dist1d.quad_complex = quad
    return shown(value, best_ms) + ", %d runs, %d integrand calls" % tuple(
        counts)


def pairing():
    for call, run, digest, shown in pairing_rows():
        yield call, run, digest, partial(quadrature_shown, run, shown)


def pairing_rows():
    digest = lambda value: sha256(repr(value))
    t = formats.parse_distribution("(x+i0)^-2")
    w1, w2 = (eg.extend(t, eg.make_w_projection(1, r0, R))
              for r0, R in acceptance.W_RADII)
    ms = eg.ms_extension(lambda z: SymbolicDistribution1D.power_i0(-2.0 + z))
    for name, e in (("W/W", w2), ("W/MS", ms)):
        yield ("ambiguity " + name, partial(eg.extension_ambiguity, w1, e, 1),
               digest, lambda v, _: "c = [%s] resid = %r" % (
                   ", ".join(repr(complex(c)) for c in v[0]), v[1]))
    for expr in REGRESSIONS:
        d = formats.parse_distribution(expr)
        yield ("regression " + expr, partial(eg.scaling_degree_regression, d),
               digest, lambda v, _: "sd = %r" % v)
    family = lambda z: SymbolicDistribution1D.halfline(z - 1.0, +1)
    probes = [TestFunction1D.from_poly(poly, 1.0, 2.0)
              for poly in acceptance.MS_PROBES]
    yield ("MS x_+^(z-1)", lambda: [
        eg.minimal_subtraction(family, f, pole_cap=eg.MS_POLE_CAP)
        for f in probes], digest,
        lambda v, _: "ms = [%s]" % ", ".join(map(repr, v)))
    fs = [TestFunction1D.from_poly(poly, 0.4, 1.7) for _, poly in cli._PROBES]
    for expr in PAIRINGS:
        d = formats.parse_distribution(expr)
        yield ("pair " + expr, lambda d=d: {
            "pairings": [complex(v) for v in d.pair_batch(fs)[0]]}, digest,
            lambda v, _: "pairings = [%s]" % ", ".join(
                map(repr, v["pairings"])))


def wf1d():
    models = [formats.parse_distribution(e) for e, _ in wavefront.WF1D_MODELS]
    ac11 = [SymbolicDistribution1D.delta(0),
            SymbolicDistribution1D.power_i0(-1.0, +1),
            SymbolicDistribution1D.power_i0(-1.0, -1)]
    for call, ts, centres in (("models", models, WF1D_CENTRES),
                              ("ac11", ac11, (0.0,))):
        yield (call, lambda ts=ts, centres=centres: [
            ml.wf_estimate_1d(t, centres).rays for t in ts],
            lambda v: sha256(repr(v)), lambda v, _: "%d rays, %d singular" % (
                sum(map(len, v)), sum(r.singular for rs in v for r in rs)))


def gns_sha256(checked):
    return hashlib.sha256(b"".join(
        np.array([r["dim"]] + [r[k] for k in acceptance.GNS_RESIDUALS],
                 dtype=float).tobytes() for r in checked[0])).hexdigest()


def gns_shown(checked, _):
    reps, ok = checked
    return "dims %s, worst residual %.1e, ok %s" % (
        tuple(r["dim"] for r in reps),
        max(r[k] for r in reps for k in acceptance.GNS_RESIDUALS), ok)


def gns_check(states):
    """acceptance.gns_check of (name, algebra, omega), each state built in
    the call."""
    return acceptance.gns_check([(name, al.AlgebraState(a, omega))
                                 for name, a, omega in states])


def gns():
    states = {"ac12 states": [(name, st.alg, st.omega)
                              for name, st in acceptance.gns_states()]}
    for n in (3, 4, 5):
        a = al.matrix_algebra(n)
        states["M%d trace" % n] = [("trace", a, a.unit / n)]
    for call, st in states.items():
        yield call, partial(gns_check, st), gns_sha256, gns_shown


def commutator():
    rng = random.Random(44)
    for n in COMMUTATOR_LATTICES:
        lat = Lattice1p1(n, n)
        xp = ExactPropagators(lat)
        xp.causal_entry(0, 0)  # lifts the tables
        product = QuantProduct(xp, "star_H")
        for k in COMMUTATOR_SITES:
            F, G = (smeared_field(lat, acceptance.sparse_smear(rng, lat, k))
                    for _ in range(2))
            yield ("%dx%d, %d sites" % (n, n, k),
                   partial(product.commutator, F, G), coefficients_sha256,
                   lambda P, _: "(hbar, lambda) orders %s, %d monomials" % (
                       sorted(P.slices), len(P.terms)))


def weyl():
    yield ("defaults", partial(al.weyl_rep_check, 0.25, 1.0),
           lambda r: sha256(repr(sorted(r.items()))),
           lambda r, _: "residuals %s and %s, %d margin cells" % (
               r["composition_residual"], r["adjoint_residual"],
               r["interior_margin_cells"]))


def tables():
    lat = Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0)
    yield ("ret_table 512x256", lambda: PropagatorSet(lat).ret_table(),
           lambda g: hashlib.sha256(g.tobytes()).hexdigest(),
           lambda g, _: "%d leapfrog rows of %d sites" % g.shape)


CASES = {"ladder": ladder, "flow": flow, "wf2d": wf2d, "pairing": pairing,
         "wf1d": wf1d, "gns": gns, "commutator": commutator, "weyl": weyl,
         "tables": tables}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="timing.py", description=__doc__.split("\n")[0])
    parser.add_argument("-n", type=int, default=5, metavar="RUNS",
                        help="runs per call (default 5)")
    parser.add_argument("cases", nargs="*",
                        metavar="CASE | h,l,k[@NTxNX][/A-B]",
                        help="cases to run (default all of %s), and ladder "
                             "rungs, on 8x4 unless NTxNX is given, vertices "
                             "row by row from t = 2 unless spread over rows "
                             "A to B" % ", ".join(CASES))
    args = parser.parse_args(argv)
    names = [a for a in args.cases if "," not in a] or list(CASES)
    if set(names) - set(CASES) or args.n < 1:
        parser.error("the cases are %s, and RUNS is at least 1"
                     % ", ".join(CASES))
    try:
        rungs = [parse_rung(a) for a in args.cases if "," in a] or RUNGS
    except ValueError as e:
        parser.error(str(e))
    cases = dict(CASES, ladder=partial(ladder, rungs))
    row = "%-10s %-22s %9s %10s  %-64s  %s"
    print(row % ("case", "call", "best_ms", "median_ms", "sha256", "result"))
    for name in names:
        for call, run, digest, shown in cases[name]():
            times = []
            for _ in range(args.n):
                t0 = time.perf_counter()
                value = run()
                times.append((time.perf_counter() - t0) * 1e3)
            best = min(times)
            print(row % (name, call, "%.2f" % best,
                         "%.2f" % statistics.median(times), digest(value),
                         shown(value, best)), flush=True)


if __name__ == "__main__":
    main()
