"""Part `wavefront` of workload `numeric`: AC11, 1D estimates and flows.

wf_estimate_2d on the commutator column Delta(., y0) of a 512x256 lattice
(a_t = 1/20, a_x = 1/10, m = 1) over the annulus centres (5 <= |p - y0| <=
9.3, stride 6), 16 rays x 4 frequencies, in centre batches; wf_estimate_1d
on model distributions; flat and conformal bicharacteristic flows.  The seed
moves the source point and the centre-grid offset.  No exact layer runs.
"""

import math
import random
from fractions import Fraction
from functools import partial

import numpy as np

from paqft import formats
from paqft import microlocal as ml
from paqft.lattice import Lattice1p1, PropagatorSet

# AC11 states its 90% criterion on the stride-6 grid.  The tiny size keeps
# enough centres (stride 12, ~270) for the criterion to hold at every offset;
# at stride 24 (~65 centres) some offsets measure only 87%.
SIZES = {
    "full": {"stride": 6, "batch": 27, "flows": 400},
    "tiny": {"stride": 12, "batch": 27, "flows": 40},
}
NOMINAL_PASS_S = 13.0

A_T, A_X = 0.05, 0.1
ANNULUS = (5.0, 9.3)
CONE_TOL_DEG = 15.0  # AC11: singular mass within 15 degrees of the cone
CONE_FRACTION = 0.9  # AC11: at least 90% of it

# expression, expected singular directions over the origin (default threshold)
WF1D_MODELS = (
    ("delta", (-1.0, 1.0)),
    ("delta^1", (-1.0, 1.0)),
    ("(x+i0)^-1", (-1.0,)),
    ("(x-i0)^-1", (1.0,)),
    ("heaviside", (-1.0, 1.0)),
    ("x^1", ()),
)


class State:
    def __init__(self, field, centres, origin):
        self.field = field
        self.centres = centres
        self.origin = origin


def setup(seed, size, tr):
    """Commutator column, sampled field and annulus centres for the seed."""
    rng = random.Random(seed)
    lat = Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0)
    t0 = lat.n_t // 2 + rng.randint(-16, 16)
    x0 = lat.n_x // 2 + rng.randint(-16, 16)
    ps = PropagatorSet(lat)
    with tr.span("lattice.tables_s"):
        col = ps.causal_column(t0, x0)
    field = ml.SampledField2D(col, A_T, A_X)
    origin = np.array([t0 * A_T, x0 * A_X])
    stride = SIZES[size]["stride"]
    ot, ox = rng.randrange(stride), rng.randrange(stride)
    lo, hi = ANNULUS
    centres = []
    for it in range(2 + ot, lat.n_t - 2, stride):
        for ix in range(2 + ox, lat.n_x - 2, stride):
            p = np.array([it * A_T, ix * A_X])
            if lo <= np.linalg.norm(p - origin) <= hi:
                centres.append((p[0], p[1]))
    return State(field, centres, origin)


def items(st, seed, pass_index, size):
    cfg = SIZES[size]
    rng = random.Random(seed * 1_000_003 + pass_index)
    out = []
    b = cfg["batch"]
    for i in range(0, len(st.centres), b):
        out.append(("wf2d", partial(wf2d, st, st.centres[i:i + b])))
    for expr, dirs in WF1D_MODELS:
        coeff = rng.uniform(0.5, 2.0)
        away = rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 1.0)
        out.append(("wf1d", partial(wf1d, "%.6f*%s" % (coeff, expr), dirs,
                                    away)))
    x0 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    k0 = (rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
    out.append(("flow", partial(flat_flow, x0, k0, cfg["flows"])))
    a = rng.uniform(0.5, 2.0)
    k0 = (a, rng.choice((-1.0, 1.0)) * a)
    out.append(("flow", partial(conformal_flow, x0, k0, cfg["flows"])))
    out.append(("cone", partial(cone, st)))
    return out


# ------------------------------------------------------------------ oracles

def fraction_on_cone(rays, origin):
    """Share of the singular amplitude (peak per centre) whose centre lies
    within CONE_TOL_DEG of one of the four null directions through origin."""
    peak = {}
    for r in rays:
        if r.singular:
            peak[r.center] = max(peak.get(r.center, 0.0), r.amplitude)
    cos_tol = math.cos(math.radians(CONE_TOL_DEG))
    on = total = 0.0
    for (t, x), m in peak.items():
        dt, dx = t - origin[0], x - origin[1]
        norm = math.hypot(dt, dx)
        if norm == 0.0:
            continue
        total += m
        # cosine to the nearest null direction (+-1, +-1)/sqrt(2)
        if (abs(dt) + abs(dx)) / (math.sqrt(2.0) * norm) >= cos_tol:
            on += m
    return on / total if total else 0.0


def singular_directions(wf, centre):
    return tuple(sorted(r.direction[0] for r in wf.rays
                        if r.singular and r.center == (centre,)))


def conformal_metric(x):
    w = math.exp(-0.4 * math.sin(x[0]) * math.cos(x[1]))
    return np.diag([w, -w])


# -------------------------------------------------------------------- items

def wf2d(st, centres, tr, tally):
    with tr.span("microlocal.wf2d_s"):
        wf = ml.wf_estimate_2d(st.field, centres, threshold=2.5)
    tally.rays.extend(wf.rays)
    tally.counts["microlocal.rays"] += len(wf.rays)
    tally.counts["microlocal.singular_rays"] += len(wf.singular())
    with tr.span("oracle_s"):
        return (len(wf.rays) == 16 * len(centres)
                and not any(math.isnan(r.exponent) for r in wf.rays))


def wf1d(expr, dirs, away, tr, tally):
    """Singular directions over the origin as theory says; none at a point
    outside the singular support."""
    with tr.span("formats.parse_s"):
        t = formats.parse_distribution(expr)
    with tr.span("microlocal.wf1d_s"):
        wf = ml.wf_estimate_1d(t, centers=(0.0, away))
    tally.counts["microlocal.rays"] += len(wf.rays)
    tally.counts["microlocal.singular_rays"] += len(wf.singular())
    with tr.span("oracle_s"):
        return (singular_directions(wf, 0.0) == dirs
                and singular_directions(wf, away) == ())


def flat_flow(x0, k0, n_steps, tr, tally, dt=0.01):
    """Flat metric: k constant, x(T) = x0 + 2 T (k_t, -k_x), sigma conserved."""
    with tr.span("microlocal.flow_s"):
        r = ml.bicharacteristic_flow(x0, k0, dt=dt, n_steps=n_steps)
    with tr.span("oracle_s"):
        T = dt * n_steps
        want = np.array([x0[0] + 2 * T * k0[0], x0[1] - 2 * T * k0[1]])
        return (np.max(np.abs(r["x"][-1] - want)) < 1e-9
                and np.max(np.abs(r["k"][-1] - np.array(k0))) < 1e-12
                and r["sigma_drift"] / T < 1e-8)


def conformal_flow(x0, k0, n_steps, tr, tally, dt=0.01):
    """Conformal metric, null covector: sigma stays 0 and k stays put (the
    gradient of sigma vanishes on the null cone), both to the AC11 drift
    tolerance."""
    with tr.span("microlocal.flow_s"):
        r = ml.bicharacteristic_flow(x0, k0, dt=dt, n_steps=n_steps,
                                     metric_inv=conformal_metric)
    with tr.span("oracle_s"):
        return (r["sigma_drift"] / (dt * n_steps) < 1e-8
                and np.max(np.abs(r["k"][-1] - np.array(k0))) < 1e-8)


def cone(st, tr, tally):
    """AC11: the singular mass of the column sits on the light cone."""
    with tr.span("oracle_s"):
        return fraction_on_cone(tally.rays, st.origin) >= CONE_FRACTION
