"""Numerical wave front estimation and propagation of singularities.

The estimator localizes with a smooth plateau window around a candidate
point, takes the pairing against e^{+ikx} along a dyadic frequency ladder in
each direction, and fits the power-law decay of the amplitude.  Directions
whose decay exponent stays below the threshold are flagged singular.  On top
of that sit the Whitney-sum compatibility test for products and the
Hamiltonian flow transporting covectors along bicharacteristics.

Ladders, windows, thresholds, noise floors, the near-decision bands that
the reports count, the AC11 grid and the flow's iteration cap are the fixed
constants below; only the 2D threshold stays a parameter.  Centres and
directions are compared with ==: an estimate keeps each centre as given,
and each direction j + WF2D_RAYS/2 as the exact negation of direction j.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, compress, repeat
from operator import itemgetter, mul, sub
from typing import NamedTuple

import numpy as np

from . import CheckFailed, InputError
from .dist1d import SymbolicDistribution1D, _window, quad_complex
from .lattice import Lattice1p1, PropagatorSet


# 1D estimator: ladder K_BASE * 2^j for j <= OCTAVES, plateau window radii,
# decay threshold, noise floors and a centre's quadrature run's epsrel
WF1D_K_BASE, WF1D_OCTAVES, WF1D_WINDOW = 4.0, 7, (0.25, 0.5)
WF1D_THRESHOLD, WF1D_AMP_FLOOR, WF1D_REL_FLOOR = 4.0, 1e-9, 1e-6
WF1D_EPSREL = 1e-10
# 2D estimator: directions, ladder, a Gaussian window of width SIGMA cut at
# CUT_SIGMAS widths, and noise floors
WF2D_RAYS, WF2D_K_BASE, WF2D_OCTAVES = 16, 1.25, 3
WF2D_SIGMA, WF2D_CUT_SIGMAS = 0.5, 5.0
WF2D_MAX_HALF_WIDTH = 1000  # box half-width in grid steps, at most
WF2D_AMP_FLOOR, WF2D_REL_FLOOR = 1e-7, 1e-4
# a ray is near a decision when its exponent is within NEAR_BAND of the
# threshold, or its floor ratio within a factor NEAR_FACTOR of 1
NEAR_BAND, NEAR_FACTOR = 0.05, 2.0
# AC11: centres on every STRIDE-th grid point of the annulus around the
# source; singular mass within CONE_TOL_DEG of a null ray is on the cone,
# and the share on the cone must reach CONE_FRACTION; the estimate's
# decisions (see propagation_check) must be DECISIONS
AC11_ANNULUS, AC11_STRIDE, AC11_CONE_TOL_DEG = (5.0, 9.3), 6, 15.0
AC11_CONE_FRACTION = 0.9
AC11_DECISIONS = (
    "5e97da32a667a5cab77bf6f9a4b58726a65a270e2a787fd5b88a13a4b70da6ff",
    108, 1490)
FLOW_FIXPOINT_ITERS = 12  # fixed-point iterations per flow step, at most
FLOW_PREDICTOR_POINTS = 6  # past midpoint derivatives a step starts from


class MicrolocalError(CheckFailed):
    pass


class WindowTooWide(InputError):
    """The window's transition annulus covers the singular support."""


class NoWavePairing(InputError):
    """The wave pairing takes no term of this kind."""


class NonFiniteSamples(InputError):
    """A sampled field holds a nan or infinite sample."""


class WFRay(NamedTuple):
    center: tuple
    direction: tuple
    exponent: float
    amplitude: float
    singular: bool


class WFEstimate:
    """Decay-exponent table over (center, direction) rays."""

    def __init__(self, rays, threshold: float, meta):
        self.rays = list(rays)
        self.threshold = threshold
        self.meta = meta

    def singular(self):
        return list(compress(self.rays, map(itemgetter(4), self.rays)))

    def singular_at(self, center):
        c = tuple(np.ravel(center).tolist())
        return [r for r in self.singular() if r.center == c]

    def near_threshold(self):
        """Rays whose decay exponent lies within NEAR_BAND of the threshold:
        the decisions that a small change of data or threshold could flip."""
        margin = self.meta["exponent_margin"]
        return [r for r, m in zip(self.rays, margin) if abs(m) <= NEAR_BAND]

    def near_floor(self):
        """Rays whose top-of-ladder amplitude is within a factor NEAR_FACTOR
        of the relative noise floor (floor_ratio in [1/NEAR_FACTOR,
        NEAR_FACTOR]): the floor test, not the exponent, decides them."""
        ratio = self.meta["floor_ratio"]
        return [r for r, q in zip(self.rays, ratio)
                if 1 / NEAR_FACTOR <= q <= NEAR_FACTOR]

    def __repr__(self):
        return (f"WFEstimate({len(self.rays)} rays, "
                f"{len(self.singular())} singular)")


def _estimate(cs, dirs, rs, amps, threshold, amp_floor, rel_floor, meta):
    """Rays (c, d), c in cs, d in dirs, from one row of ladder amplitudes
    each: one least-squares slope of -log|A| vs log r per row, with noise
    floors.  amps is a (len(cs), m, len(rs)) array, m dividing len(dirs):
    its rows are the first m directions, each fitted once, and direction
    j + m takes the fit of direction j.  Rows that never rise above
    amp_floor, or whose top-of-ladder value has fallen below rel_floor of
    the peak, count as regular (infinite exponent): the fit would only
    measure the quadrature/window floor.  meta gains per-ray arrays
    exponent_margin (exponent - threshold) and floor_ratio (last/peak
    amplitude over rel_floor; nan if all zero)."""
    peak, last = amps.max(axis=2), amps[:, :, -1]
    fit = (peak >= amp_floor) & (last > rel_floor * peak)
    floor = np.maximum(amp_floor, peak[fit] * 1e-14)
    ys = np.log(np.maximum(amps[fit], floor[:, None]))
    xs = np.log(rs) - np.mean(np.log(rs))
    expo = np.full(peak.shape, math.inf)
    expo[fit] = -(ys @ xs) / (xs @ xs)
    ratio = np.divide(last, rel_floor * peak, out=np.full_like(peak, np.nan),
                      where=peak > 0)
    expo, peak, ratio = (np.concatenate([a] * (len(dirs) // a.shape[1]),
                                        axis=1).ravel()
                         for a in (expo, peak, ratio))
    rays = map(partial(tuple.__new__, WFRay),
               zip(chain.from_iterable(map(repeat, cs, repeat(len(dirs)))),
                   dirs * len(cs), expo.tolist(), peak.tolist(),
                   (expo < threshold).tolist()))
    meta.update(exponent_margin=expo - threshold, floor_ratio=ratio)
    return WFEstimate(rays, threshold, meta)


# ---------------------------------------------------------------------------
# one-dimensional estimator


def _pair_wave_1d(t: SymbolicDistribution1D, x0: float, ks):
    """(<t, W(x - x0) e^{ikx}>, error estimate) for each frequency k of
    (ks, -ks), ks an array of positive frequencies, W the plateau window of
    radii WF1D_WINDOW, for the kinds that wf_estimate_1d admits.  The window
    is 1 at the origin on the plateau and 0 off the support; wf_estimate_1d
    keeps the origin out of the transition annulus between them, so
    derivatives at 0 are exact.  Every integrated kernel is real, so the
    run takes the k > 0 half and the row at -k is the conjugate of the one
    at k, bit for bit, with the same error estimate.  The run, to epsabs
    1e-12 and epsrel WF1D_EPSREL, starts on one equal panel per period of
    the ladder's top frequency across the window (82 of them), plus the
    origin where a kernel breaks there; bisection from one panel reached
    about as many after 6-7 rounds."""
    r0, R = WF1D_WINDOW
    lo, hi = x0 - R, x0 + R
    g0 = 1.0 if abs(x0) <= r0 else 0.0
    k_top = WF1D_K_BASE * 2 ** WF1D_OCTAVES
    panels = np.linspace(lo, hi, math.ceil(k_top * R / math.pi) + 1)

    def wave(x):
        return _window(x - x0, r0, R) * np.exp(1j * np.multiply.outer(ks, x))

    def quad(f, points=()):
        v, e = quad_complex(f, lo, hi, (*panels, *points), epsabs=1e-12,
                            epsrel=WF1D_EPSREL, limit=1000)
        return np.concatenate([v, v.conj()]), np.concatenate([e, e])
    out, err = 0j, 0.0
    for coeff, kind in t.terms:
        tag, e = kind[0], 0.0
        if tag == "delta":
            k = np.concatenate([ks, -ks])
            v = (-1) ** kind[1] * (g0 * (1j * k) ** kind[1])
        elif tag == "monomial":
            v, e = quad(lambda x: x ** kind[1] * wave(x))
        elif tag == "heaviside":
            v, e = quad(lambda x: np.where(x >= 0, x ** kind[1], 0.0)
                        * wave(x), points=(0.0,))
        else:  # (x +- i0)^-1
            sign = kind[1]
            if lo < 0.0 < hi:
                # PV int g/x = int (g - g(0))/x + g(0) log(hi / -lo)
                pv, e = quad(lambda x: (wave(x) - g0) / x, points=(0.0,))
                v = pv + g0 * math.log(hi / -lo) - sign * 1j * math.pi * g0
            else:
                v, e = quad(lambda x: 1.0 / x * wave(x))
        out, err = out + coeff * v, err + abs(coeff) * e
    return out, err


def wf_estimate_1d(t: SymbolicDistribution1D, centers=(0.0,)) -> WFEstimate:
    """Wave front estimate of a distribution on the line.

    Directions are the two signs, the ladder WF1D_K_BASE * 2^j (one
    quadrature run of its k > 0 half per centre, as _pair_wave_1d starts
    it); meta["abserr"] is each ray's worst error estimate over its
    ladder.  Anything but a SymbolicDistribution1D raises TypeError.
    Before any quadrature, a term other than delta^m, x^m, heaviside^m and
    (x +- i0)^-1 raises NoWavePairing; a centre whose top wave has a phase
    error over the bound below, InputError; and a centre in the window's
    transition annulus WindowTooWide when a delta^m or (x +- i0)^-1 term
    pairs through the window's value at the origin.

    One comparison admits a centre x0: the top wave's phase error there,
    phi = k_top ulp(|x0| + R), must be at most WF1D_EPSREL.  The nodes are
    floats within a few ulp(|x0| + R) of their places and k x is exact at
    a node (k is a power of two), so the run's sums are good only to about
    phi times the integral of the integrand's modulus: a relative error phi
    where a kernel does not oscillate its integral away, which a run asking
    for WF1D_EPSREL cannot meet once phi exceeds it.  The decision floors
    are looser (WF1D_REL_FLOOR = 1e-6), so the tolerance is the bound.  It
    admits exactly |x0| + R < 1024, where ulp(|x0| + R) < 2e-13, while a
    starting panel's (half-width R/82) Kronrod nodes lie at least 1.3e-4
    apart, so they are distinct increasing floats, and x0 - R < x0 + R; a
    nan or infinite centre has phi nan or inf and fails the comparison."""
    if not isinstance(t, SymbolicDistribution1D):
        raise TypeError("wf_estimate_1d takes a SymbolicDistribution1D, "
                        f"not {type(t).__name__}")
    r0, R = WF1D_WINDOW
    for _, kind in t.terms:
        if not (kind[0] in ("delta", "monomial", "heaviside")
                or kind[0] == "power_i0" and kind[2] == -1):
            raise NoWavePairing(
                f"no wave pairing for the term {kind}: it takes delta^m, "
                f"x^m, heaviside^m and (x+-i0)^-1")
    rs = [WF1D_K_BASE * 2 ** j for j in range(WF1D_OCTAVES + 1)]
    cs = [float(x0) for x0 in centers]
    for c in cs:
        phase = rs[-1] * math.ulp(abs(c) + R)
        if not phase <= WF1D_EPSREL:
            raise InputError(
                f"centre {c!r}: the top wave k = {rs[-1]:g} has phase error "
                f"{phase:.3g} there, k ulp(|x0| + {R:g}), over the bound "
                f"{WF1D_EPSREL:g}")
    bad = [c for c in cs if r0 < abs(c) < R]
    if bad and any(kind[0] in ("delta", "power_i0") for _, kind in t.terms):
        raise WindowTooWide(
            f"centre {bad[0]:g} lies in the window's transition annulus "
            f"{r0:g} < |x| < {R:g}, where a delta^m or (x+-i0)^-1 term has "
            f"no wave pairing; use |x| <= {r0:g} or |x| >= {R:g}")
    cs, dirs = [(c,) for c in cs], ((1.0,), (-1.0,))
    vals, errs = np.zeros((2, len(cs), 2 * len(rs)), dtype=complex)
    for i, c in enumerate(cs):
        vals[i], errs[i] = _pair_wave_1d(t, c[0], np.array(rs))
    meta = {"abserr": errs.real.reshape(-1, len(rs)).max(axis=1)}
    amps = np.abs(vals).reshape(len(cs), 2, len(rs))
    return _estimate(cs, dirs, rs, amps, WF1D_THRESHOLD, WF1D_AMP_FLOOR,
                     WF1D_REL_FLOOR, meta)


# ---------------------------------------------------------------------------
# two-dimensional sampled estimator


class SampledField2D:
    """Real samples on a rectangular (t, x) grid with spacings (a_t, a_x):
    sample (i, j) sits at (i a_t, j a_x).  They are copied when the field
    is built, so later writes to the caller's array are not seen, into
    `padded`, zero-padded by two of wf_estimate_2d's box half-widths on
    every side so that it holds every box reaching the grid whole; `values`
    views its interior.  Complex samples raise TypeError, nan or infinite
    ones NonFiniteSamples; samples not 2-D and nonempty, or a spacing not
    positive and finite or whose box half-width passes WF2D_MAX_HALF_WIDTH,
    InputError."""

    def __init__(self, values: np.ndarray, a_t: float, a_x: float):
        values = np.asarray(values)
        if np.iscomplexobj(values):
            raise TypeError("SampledField2D takes real samples, not "
                            f"{values.dtype}")
        if values.ndim != 2 or not values.size:
            raise InputError(f"shape {values.shape}: want a 2-D, nonempty one")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))
            raise NonFiniteSamples(
                "SampledField2D takes finite samples, not nan or infinite "
                f"ones: {len(bad)} found, the first at "
                f"{tuple(bad[0].tolist())}")
        self.a_t = float(a_t)
        self.a_x = float(a_x)
        for name, a in (("a_t", self.a_t), ("a_x", self.a_x)):
            # floor(R/a + 1/2) <= WF2D_MAX_HALF_WIDTH; a tiny a gives R/a inf
            if not (0 < a < math.inf and WF2D_SIGMA * WF2D_CUT_SIGMAS / a
                    < WF2D_MAX_HALF_WIDTH + 0.5):
                raise InputError(f"{name} = {a!r}: want a positive spacing "
                                 "with box half-width <= WF2D_MAX_HALF_WIDTH")
        (ht, hx), (nt, nx) = _half_widths(self.a_t, self.a_x), values.shape
        self.padded = np.pad(values, ((2 * ht, 2 * ht), (2 * hx, 2 * hx)))
        self.values = self.padded[2 * ht:2 * ht + nt, 2 * hx:2 * hx + nx]


def _half_widths(a_t: float, a_x: float):
    """wf_estimate_2d's box half-widths (ht, hx): floor(R/a + 1/2) steps."""
    return [math.floor(WF2D_SIGMA * WF2D_CUT_SIGMAS / a + 0.5)
            for a in (a_t, a_x)]


@lru_cache
def _phase_tables(a_t: float, a_x: float):
    """wf_estimate_2d's ladder, directions, box half-widths and read-only
    phase tables E_t (as float pairs) and E_x on the spacing (a_t, a_x).
    The tables cover the first half of the directions; the second half is
    its exact negation."""
    rs = tuple(WF2D_K_BASE * 2 ** j for j in range(WF2D_OCTAVES + 1))
    half = tuple((math.cos(2 * math.pi * j / WF2D_RAYS),
                  math.sin(2 * math.pi * j / WF2D_RAYS))
                 for j in range(WF2D_RAYS // 2))
    dirs = half + tuple((-c, -s) for c, s in half)
    k = np.array([[r * d[0], r * d[1]] for d in half for r in rs])
    ht, hx = _half_widths(a_t, a_x)
    E_t = np.exp(1j * np.outer(np.arange(-ht, ht + 1) * a_t, k[:, 0]))
    E_x = np.exp(1j * np.outer(np.arange(-hx, hx + 1) * a_x, k[:, 1]))
    E_t.flags.writeable = E_x.flags.writeable = False
    return rs, dirs, ht, hx, E_t.view(float), E_x


@lru_cache(maxsize=8)
def _cut_window(a_t, a_x, ht, hx, s_t, s_x):
    """wf_estimate_2d's window at sub-grid shift s, zeroed outside the cut
    d2 < R*R (1 - 2**-30), read-only."""
    R, g = WF2D_SIGMA * WF2D_CUT_SIGMAS, -0.5 / (WF2D_SIGMA * WF2D_SIGMA)
    dt2 = (np.arange(-ht, ht + 1) * a_t + s_t) ** 2
    dx2 = (np.arange(-hx, hx + 1) * a_x + s_x) ** 2
    window = np.exp(g * dt2)[:, None] * np.exp(g * dx2)
    window[dt2[:, None] + dx2 >= R * R * (1 - 2.0 ** -30)] = 0.0
    window.flags.writeable = False
    return window


def wf_estimate_2d(field: SampledField2D, centers,
                   threshold: float = 2.5) -> WFEstimate:
    """Windowed-pairing wave front estimate for gridded data.

    The window is a radial Gaussian (truncated at WF2D_CUT_SIGMAS widths),
    whose spectral decay is fast enough to resolve power-law fronts over a
    short dyadic ladder; frequencies stay below the grid Nyquist limit.

    Shared stencil: |sum v e^{i r d.p}| ignores a global phase, so a centre
    pairs against e^{i r d.(p - anchor)}, anchor its nearest grid point; on
    the box of offsets around it that is E_t[di, q] E_x[dj, q], q =
    (direction, frequency), two read-only tables built once per grid
    spacing and cached.  The Gaussian is separable, so the window is the
    outer product of one row of exponentials per axis over the anchor's
    offsets (di a_t + s_t, dj a_x + s_x), s = (it a_t - t0, ix a_x - x0)
    the centre's sub-grid shift from its anchor (it, ix).

    The cut is decided on the same offsets: a point is kept when d2 =
    (di a_t + s_t)**2 + (dj a_x + s_x)**2 < R*R (1 - 2**-30).  Rounding puts
    the d2 of grid points exactly at R (on AC11's grid, 30 time and 20
    space steps out) a few ulps either side of R*R; the margin, far above
    rounding, drops them all wherever the centre sits.  So the window, cut
    included, depends on nothing but s: grid-aligned centres see one cut
    wherever they sit.  A centre whose box reaches the grid pairs on that
    whole box of SampledField2D.padded with the whole window, taken from a
    cache of the last 8 (keyed on s and the spacing, shared across calls)
    when its shift differs from the previous such centre's; meta["windows"]
    counts them.  It is skipped (meta["skipped_centers"]) when the window
    is zero at the box's grid point nearest it, so when no point of the
    box is kept: per axis the rounded (di a + s)**2 fall, then rise, in di.

    Each centre pairs on its own box: one real matrix product of the box's
    transpose with E_t, stored with each q's real and imaginary parts side
    by side, reads as a complex (space offset, q) array, and one sum
    against E_x over the space offsets gives the amplitudes; the cell area
    scales them all at the end.  Real samples make the pairing at -d the
    complex conjugate of the one at d, and direction j + WF2D_RAYS/2 is
    -direction j, so the tables cover the first half of the directions,
    each of whose rows is fitted once, and direction j + WF2D_RAYS/2 takes
    the exponent, peak and floor ratio of direction j."""
    kmax = WF2D_K_BASE * 2 ** WF2D_OCTAVES
    nyq = math.pi / max(field.a_t, field.a_x)
    if kmax > nyq:
        raise MicrolocalError(
            f"ladder top {kmax:.3g} exceeds grid Nyquist {nyq:.3g}")
    a_t, a_x = field.a_t, field.a_x
    rs, dirs, ht, hx, E_t, E_x = _phase_tables(a_t, a_x)
    pts = [(t0, x0) for t0, x0 in centers]
    c = np.array(pts, dtype=float).reshape(-1, 2)
    steps = c / (a_t, a_x)
    if not (np.abs(steps) < 2.0 ** 52).all():  # no nan, no int64 wrap
        raise InputError("wf_estimate_2d takes centres within 2**52 steps")
    anchor = np.rint(steps).astype(int)
    shift = anchor * (a_t, a_x) - c
    # per axis, the box's grid point nearest the centre: the anchor, or
    # its neighbour toward the centre where rounding puts that one nearer
    toward = -np.sign(shift).astype(int)
    near = anchor + toward * ((shift + toward * (a_t, a_x)) ** 2 < shift ** 2)
    near = np.clip(near, 0, np.subtract(field.values.shape, 1)) - anchor
    reach = (np.abs(near) <= (ht, hx)).all(1)
    shifts, starts = shift.tolist(), (anchor + (ht, hx)).tolist()
    near = (near + (ht, hx)).tolist()  # as the window's indices
    m, n = 2 * ht + 1, 2 * hx + 1
    kept, amps, last, windows = [], [], None, 0
    for k in np.flatnonzero(reach).tolist():
        if shifts[k] != last:
            last, windows = shifts[k], windows + 1
            window = _cut_window(a_t, a_x, ht, hx, *last)
        (i, j), (i0, j0) = near[k], starts[k]
        if not window[i, j]:
            continue
        box = window * field.padded[i0:i0 + m, j0:j0 + n]
        amps.append(((box.T @ E_t).view(complex) * E_x).sum(0))
        kept.append(k)
    amps = np.abs(amps).reshape(len(kept), WF2D_RAYS // 2, len(rs))
    amps *= a_t * a_x
    skipped = [pts[k] for k in sorted(set(range(len(pts))).difference(kept))]
    return _estimate([pts[k] for k in kept], dirs, rs, amps, threshold,
                     WF2D_AMP_FLOOR, WF2D_REL_FLOOR,
                     {"skipped_centers": skipped, "windows": windows})


# ---------------------------------------------------------------------------
# compatibility of covector sets


def product_compatible(wf1: WFEstimate, wf2: WFEstimate):
    """Hoermander criterion on the estimated sets: the product is admissible
    when no opposite singular covectors sit over the same point.  Returns
    (admissible, witnesses): the pairs of singular rays at the same centre
    whose directions are exact negatives, i.e. hits of the fibrewise sum
    on the zero section.  Both are decided with ==: the estimators keep
    each centre as given and emit each direction's negation exactly."""
    wit = [(r1, r2) for r1 in wf1.singular() for r2 in wf2.singular()
           if r1.center == r2.center
           and r1.direction == tuple(-d for d in r2.direction)]
    return len(wit) == 0, wit


# ---------------------------------------------------------------------------
# bicharacteristic flow


def bicharacteristic_flow(x0, k0, dt: float, n_steps: int,
                          metric_inv=None) -> dict:
    """Hamiltonian flow of sigma(x, k) = k . G(x) k with the implicit
    midpoint rule; G is the (position-dependent) inverse metric, default
    diag(1, -1).  Midpoint steps preserve quadratic invariants, so for
    constant G the symbol is conserved to rounding.

    Each step solves its midpoint equation by fixed-point iteration.  The
    x derivative is 2 G k; the k derivative is a central difference
    (h = 1e-6) of the symbol, which leaves the rounding of its two symbol
    values, amplified by 1/(2h), in every k update.  For the default G it
    is the difference's own value, -0.0, without the four metric calls.
    An iteration stops once its update (max over x and k) is at most that
    noise floor times |dt|, never below 1e-15, so an exactly zero update
    stops at once.  A step from y = (x, k) starts at y + dt p, p the
    extrapolation sum_(i=1..q) (-1)^(i+1) C(q, i) f_i of the last q =
    min(steps taken, FLOW_PREDICTOR_POINTS) steps' midpoint derivatives,
    f_1 the latest (exact for polynomials of degree q - 1 in the step); the
    first step starts at y.  The weights sum to 1, so for constant G the
    extrapolation is exact and every step after the first takes one
    iteration.  `iterations` is the total number of fixed-point
    iterations; `fixpoint_capped` counts the steps that ran all
    FLOW_FIXPOINT_ITERS iterations without meeting the bound: their points
    are accepted, but not converged.

    A metric passed in is called five times an iteration (G and the four
    symbols of the difference) and once a point for sigma = k . G k.  The
    default G is constant, so it is read once, and the derivative and its
    noise floor are computed once, at the first midpoint, for the whole
    flow; each iteration still runs and is counted.  That is exact, not an
    approximation.  (a) They depend on the value of k alone, not on the
    sign of a zero in it: the k part is the constant -0.0; the x part is
    2 sum(row_a * k), a Python sum that starts from the int 0, so a zero
    total is +0.0 whatever the signs of its zero products, and a nonzero
    total does not see them (z + 0.0 == z + -0.0 == z for z != 0); the
    floor reads k only through k_a * k_a, which is +0.0 for either zero.
    (b) k keeps its value: every k update adds dt times a sum of -0.0
    terms (the derivative, or the extrapolation of derivatives), which is
    a zero, and the midpoint of k with itself is (k + k) / 2, the same
    value at every step; only the sign of a zero in k can change (a -0.0
    in k becomes 0.0 when dt < 0).  Its sigma is computed once per
    distinct bit pattern of k, which the flow keeps, with the same numpy
    product.
    """
    flat = metric_inv is None
    if flat:
        G0 = np.diag([1.0, -1.0])
        G_flat = G0.tolist()
    x = np.asarray(x0, dtype=float).ravel().tolist()
    dim, h = len(x), 1e-6
    y = x + np.asarray(k0, dtype=float).ravel().tolist()
    # |dt| times the rounding of the difference's two symbol values over
    # 2h, each at most dim^2 eps |k|^2 max|G|, with a margin of 4 on each
    noise = 4.0 * abs(dt) * 4.0 * dim ** 2 * np.finfo(float).eps / (2 * h)

    def symbol(x, k, a, step):
        """sigma(x + step e_a, k)."""
        p = list(x)
        p[a] += step
        G = metric_inv(np.array(p)).tolist()
        return sum(map(mul, k, [sum(map(mul, row, k)) for row in G]))

    def grads(y):
        """The midpoint derivative (2 G k, -d sigma / dx) at y = (x, k) and
        the noise floor of the update."""
        x, k = y[:dim], y[dim:]
        G = G_flat if flat else metric_inv(np.array(x)).tolist()
        f = [2.0 * sum(map(mul, row, k)) for row in G]
        f += [-0.0] * dim if flat else [
            -(symbol(x, k, a, h) - symbol(x, k, a, -h)) / (2 * h)
            for a in range(dim)]
        floor = noise * sum(map(mul, k, k)) * max(map(abs, chain(*G)))
        return f, max(floor, 1e-15)

    if flat:
        # the derivative and its floor at the first midpoint hold for the
        # whole flow: see the docstring, (a) and (b)
        fixed = grads([(a + a) / 2 for a in y])

        def grads(_):
            return fixed

    # weights (-1)^(i+1) C(q, i) of f_i, i = 1 .. q, f_1 the latest
    weights = [[(-1) ** (i + 1) * math.comb(q, i) for i in range(1, q + 1)]
               for q in range(FLOW_PREDICTOR_POINTS + 1)]
    # the last q midpoint derivatives, one column per component, f_1 first
    cols = [deque(maxlen=FLOW_PREDICTOR_POINTS) for _ in y]
    ys = [y]
    iterations = capped = 0
    for _ in range(n_steps):
        w = weights[len(cols[0])]
        ym = [a + dt * sum(map(mul, w, col))
              for a, col in zip(y, cols)] if w else y
        for _ in range(FLOW_FIXPOINT_ITERS):
            iterations += 1
            f, floor = grads([(a + b) / 2 for a, b in zip(y, ym)])
            yn = [a + dt * b for a, b in zip(y, f)]
            update = max(map(abs, map(sub, yn, ym)))
            ym = yn
            if update <= floor:
                break
        else:
            capped += 1
        y = ym
        ys.append(y)
        for col, b in zip(cols, f):
            col.appendleft(b)
    ys = np.array(ys)
    xs, ks = ys[:, :dim].copy(), ys[:, dim:].copy()
    if flat:
        # sigma once per distinct bit pattern of k, which the flow keeps
        _, first, back = np.unique(ks.view("V%d" % (8 * dim)).ravel(),
                                   return_index=True, return_inverse=True)
        sigmas = np.array([float(ks[i] @ G0 @ ks[i]) for i in first])[back]
    else:
        sigmas = np.array([float(kk @ metric_inv(xx) @ kk)
                           for xx, kk in zip(xs, ks)])
    return {
        "x": xs,
        "k": ks,
        "sigma": sigmas,
        "sigma_drift": float(np.max(np.abs(sigmas - sigmas[0]))),
        "time": dt * n_steps,
        "iterations": iterations,
        "fixpoint_capped": capped,
    }


# ---------------------------------------------------------------------------
# propagation of singularities on the lattice


def ac11_grid():
    """AC11's sampled field and centres: (field, y0, centres).  The field is
    the commutator kernel column Delta(., y0) of the 512x256 lattice
    (a_t = 1/20, a_x = 1/10, m = 1), y0 its centre, sampled with spacings
    (0.05, 0.1); the centres are every AC11_STRIDE-th grid point of the
    annulus AC11_ANNULUS around y0."""
    lat = Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0)
    a_t, a_x = 0.05, 0.1
    t0, x0 = lat.n_t // 2, lat.n_x // 2
    field = SampledField2D(PropagatorSet(lat).causal_column(t0, x0), a_t, a_x)
    origin = np.array([t0 * a_t, x0 * a_x])
    lo, hi = AC11_ANNULUS
    centers = []
    for it in range(2, lat.n_t - 2, AC11_STRIDE):
        for ix in range(2, lat.n_x - 2, AC11_STRIDE):
            p = np.array([it * a_t, ix * a_x])
            if lo <= np.linalg.norm(p - origin) <= hi:
                centers.append((p[0], p[1]))
    return field, origin, centers


def flags_sha256(wf: WFEstimate) -> str:
    """sha256 of a 2D estimate's lines "t|x|flags", one per centre."""
    lines = ["%r|%r|%s" % (float(rays[0].center[0]), float(rays[0].center[1]),
                           "".join("1" if r.singular else "0" for r in rays))
             for rays in (wf.rays[i:i + WF2D_RAYS]
                          for i in range(0, len(wf.rays), WF2D_RAYS))]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def propagation_check() -> dict:
    """AC11: estimate the wave front at the centres of ac11_grid and measure
    how much of the singular amplitude sits near the light cone through y0
    (position angles within AC11_CONE_TOL_DEG of the +-45 degree rays); the
    estimate's decisions are (flags_sha256, near-threshold count, near-floor
    count), for AC11_DECISIONS."""
    field, origin, centers = ac11_grid()
    wf = wf_estimate_2d(field, centers)

    cone_rays = [np.array([a, b]) / math.sqrt(2)
                 for a in (1.0, -1.0) for b in (1.0, -1.0)]
    cos_tol = math.cos(math.radians(AC11_CONE_TOL_DEG))
    mass_on, mass_total = 0.0, 0.0
    per_center: dict[tuple, float] = {}
    for r in wf.singular():
        per_center[r.center] = max(per_center.get(r.center, 0.0), r.amplitude)
    for c, m in per_center.items():
        p = np.array(c) - origin
        nrm = np.linalg.norm(p)
        if nrm >= 1e-12:
            mass_total += m
            if any(float(p / nrm @ ray) >= cos_tol for ray in cone_rays):
                mass_on += m
    return {"fraction_on_cone": mass_on / mass_total if mass_total else 0.0,
            "n_centers": len(centers), "n_singular_centers": len(per_center),
            "wf": wf, "decisions": (flags_sha256(wf), len(wf.near_threshold()),
                                    len(wf.near_floor()))}
