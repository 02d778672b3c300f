"""Wave front estimation, covector causality, and bicharacteristic flow."""
import math
import re
import tracemalloc
from functools import partial
from itertools import groupby

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from paqft import InputError, acceptance, formats
from paqft import microlocal as ml
from paqft.dist1d import SymbolicDistribution1D, _window, quad_complex

from conftest import perfbench_module

# --------------------------------------------------------------------------
# 1d estimator

def test_delta_is_singular_in_both_directions():
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.delta(0))
    dirs = sorted(r.direction[0] for r in wf.singular_at(0.0))
    assert dirs == [-1.0, 1.0]
    # the windowed pairing of delta has flat modulus: exponent about zero
    for r in wf.singular_at(0.0):
        assert r.exponent == pytest.approx(0.0, abs=0.1)


def test_delta_derivative_grows_one_power():
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.delta(1))
    for r in wf.singular_at(0.0):
        assert r.exponent == pytest.approx(-1.0, abs=0.1)


def test_boundary_values_are_one_sided():
    plus = ml.wf_estimate_1d(SymbolicDistribution1D.power_i0(-1.0, +1))
    assert [r.direction[0] for r in plus.singular_at(0.0)] == [-1.0]
    minus = ml.wf_estimate_1d(SymbolicDistribution1D.power_i0(-1.0, -1))
    assert [r.direction[0] for r in minus.singular_at(0.0)] == [1.0]


def test_smooth_function_is_regular():
    for m in (0, 2):
        wf = ml.wf_estimate_1d(SymbolicDistribution1D.monomial(m),
                               centers=(0.0, 0.7))
        assert not wf.singular()


def test_wf_estimate_1d_takes_only_a_symbolic_distribution():
    with pytest.raises(TypeError, match="SymbolicDistribution1D"):
        ml.wf_estimate_1d(lambda x: np.exp(-x * x))


def test_singularity_is_localized():
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.delta(0),
                           centers=(0.0, 2.0))
    assert wf.singular_at(0.0)
    assert wf.singular_at(2.0) == []


def _pair_wave_every_row(t, x0, ks):
    """wf_estimate_1d's wave pairings with every frequency of ks, both
    signs, integrated on the same panels, one per period of the ladder's
    top frequency: no row is the conjugate of another."""
    r0, R = ml.WF1D_WINDOW
    lo, hi = x0 - R, x0 + R
    g0 = 1.0 if abs(x0) <= r0 else 0.0
    panels = np.linspace(lo, hi, math.ceil(np.max(ks) * 2 * R / (2 * math.pi))
                         + 1)

    def wave(x):
        return _window(x - x0, r0, R) * np.exp(1j * np.multiply.outer(ks, x))

    def quad(f, points=()):
        return quad_complex(f, lo, hi, (*panels, *points), epsabs=1e-12,
                            epsrel=1e-10, limit=1000)
    out, err = 0j, 0.0
    for coeff, (tag, m, *_) in t.terms:
        e = 0.0
        if tag == "delta":
            v = (-1) ** m * (g0 * (1j * ks) ** m)
        elif tag == "monomial":
            v, e = quad(lambda x: x ** m * wave(x))
        elif tag == "heaviside":
            v, e = quad(lambda x: np.where(x >= 0, x ** m, 0.0) * wave(x),
                        (0.0,))
        elif lo < 0.0 < hi:  # (x + m i0)^-1
            pv, e = quad(lambda x: (wave(x) - g0) / x, (0.0,))
            v = pv + g0 * math.log(hi / -lo) - m * 1j * math.pi * g0
        else:
            v, e = quad(lambda x: 1.0 / x * wave(x))
        out, err = out + coeff * v, err + abs(coeff) * e
    return out, err


@pytest.mark.parametrize("terms", [
    [(1.0, ("delta", 0))], [(1.0, ("delta", 2))],
    [(1.0, ("monomial", 0))], [(1.0, ("monomial", 3))],
    [(1.0, ("heaviside", 0))], [(1.0, ("heaviside", 2))],
    [(1.0, ("power_i0", 1, -1.0))], [(1.0, ("power_i0", -1, -1.0))],
    [(0.5 - 2j, ("power_i0", 1, -1.0)), (1j, ("heaviside", 1)),
     (3.0, ("delta", 1))],
])
def test_1d_estimate_matches_the_every_row_route(terms):
    """The estimator integrates the k > 0 half of each ladder and takes
    the -k rows as their conjugates: rays and meta are those of a run of
    all 16 rows, bit for bit, with centres on the window's plateau, in its
    annulus (smooth kinds only) and outside it."""
    t = SymbolicDistribution1D(terms)
    centres = [0.0, 0.2, -0.25, 0.5, -0.8, 1.5]
    if all(kind[0] in ("monomial", "heaviside") for _, kind in terms):
        centres += [0.3, -0.45]
    wf = ml.wf_estimate_1d(t, centres)

    rs = [ml.WF1D_K_BASE * 2 ** j for j in range(ml.WF1D_OCTAVES + 1)]
    ks = np.array([s * r for s in (1.0, -1.0) for r in rs])
    vals, errs = np.zeros((2, len(centres), len(ks)), dtype=complex)
    for i, c in enumerate(centres):
        vals[i], errs[i] = _pair_wave_every_row(t, c, ks)
    ref = ml._estimate(
        [(c,) for c in centres], ((1.0,), (-1.0,)), rs,
        np.abs(vals).reshape(len(centres), 2, len(rs)),
        ml.WF1D_THRESHOLD, ml.WF1D_AMP_FLOOR, ml.WF1D_REL_FLOOR,
        {"abserr": errs.real.reshape(-1, len(rs)).max(axis=1)})
    assert wf.rays == ref.rays
    assert wf.meta.keys() == ref.meta.keys()
    for key in ref.meta:
        assert np.array_equal(wf.meta[key], ref.meta[key], equal_nan=True)


def _wf1d_models():
    """The expressions of perfbench/wavefront.py's WF1D_MODELS."""
    return [expr for expr, _ in perfbench_module("wavefront").WF1D_MODELS]


def test_1d_ladders_meet_their_tolerance_on_the_starting_panels(monkeypatch):
    """Each quadrature run of wf_estimate_1d starts on one panel per period
    of the ladder's top frequency and meets its tolerance there: it calls
    its integrand once, on the benchmark's six models at 0, +-0.7 and +-0.9
    and on AC11's three estimates.  The rays are those of the run started
    on one panel (and the origin where a kernel breaks), which bisected for
    6-7 rounds: flags exactly, exponents to 1e-12, amplitudes to 1e-12
    relative."""
    n_edges = math.ceil(ml.WF1D_K_BASE * 2 ** ml.WF1D_OCTAVES
                        * ml.WF1D_WINDOW[1] / math.pi) + 1
    calls = []

    def counted(f, a, b, points, **kw):
        calls.append(0)

        def f_counted(x):
            calls[-1] += 1
            return f(x)
        return quad_complex(f_counted, a, b, points, **kw)

    def one_panel(f, a, b, points, **kw):
        # the estimator passes its panel edges, then its breakpoints
        assert np.array_equal(points[:n_edges], np.linspace(a, b, n_edges))
        return quad_complex(f, a, b, points[n_edges:], **kw)

    def estimates(quad):
        monkeypatch.setattr(ml, "quad_complex", quad)
        return [ml.wf_estimate_1d(formats.parse_distribution(expr),
                                  (0.0, 0.7, -0.7, 0.9, -0.9))
                for expr in _wf1d_models()] + [
            ml.wf_estimate_1d(SymbolicDistribution1D.delta(0)),
            ml.wf_estimate_1d(SymbolicDistribution1D.power_i0(-1.0, +1)),
            ml.wf_estimate_1d(SymbolicDistribution1D.power_i0(-1.0, -1))]
    got = estimates(counted)
    assert len(calls) == 22 and set(calls) == {1}
    for wf, ref in zip(got, estimates(one_panel), strict=True):
        for r, w in zip(wf.rays, ref.rays, strict=True):
            assert (r.center, r.direction, r.singular) == (
                w.center, w.direction, w.singular)
            if math.isfinite(w.exponent):
                assert abs(r.exponent - w.exponent) <= 1e-12
            else:
                assert r.exponent == w.exponent
            assert abs(r.amplitude - w.amplitude) <= 1e-12 * w.amplitude


def test_1d_centre_that_is_not_finite_is_rejected():
    for centre in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="centre %r" % centre):
            ml.wf_estimate_1d(SymbolicDistribution1D.delta(0),
                              centers=(0.0, centre))


def top_wave_phase_error(centre):
    """k_top ulp(|x0| + R): the phase error of the ladder's top wave."""
    k_top = ml.WF1D_K_BASE * 2 ** ml.WF1D_OCTAVES
    return k_top * math.ulp(abs(centre) + ml.WF1D_WINDOW[1])


@pytest.mark.parametrize("centre", [1023.5, 1e4, 1e5, 1e10, -1e10, 1e12,
                                    1e14, 1e15])
def test_1d_centre_whose_top_wave_phase_is_off_is_rejected(centre):
    """Past |x0| + R = 1024 the top wave's phase error exceeds the run's
    relative tolerance.  A constant once warned from 1e5 on, came out
    singular at 1e10 and 1e12 (exponents 2.87 and 2.25), and at 1e14 and
    1e15 (exponents 1.453 and -0.116) with no warning, the float grid there
    being coarser than a starting panel's nodes."""
    phase = top_wave_phase_error(centre)
    assert phase > ml.WF1D_EPSREL
    with pytest.raises(InputError, match=re.escape(
            "centre %r: the top wave k = 512 has phase error %.3g there, "
            "k ulp(|x0| + 0.5), over the bound 1e-10" % (centre, phase))):
        ml.wf_estimate_1d(SymbolicDistribution1D.monomial(0),
                          centers=(0.0, centre))


def test_1d_centres_within_the_phase_bound_are_accepted():
    """The benchmark's centres 0 and +-[0.6, 1.0], 0.9, 1e3 and the last
    float centre before |x0| + R reaches 1024, each with its margin under
    the bound: a constant is regular at each, with no QuadratureWarning."""
    centres = (0.0, 0.6, 1.0, -0.6, -1.0, 0.9, 1e3,
               np.nextafter(1023.5, 0.0))
    margins = [ml.WF1D_EPSREL / top_wave_phase_error(c) for c in centres]
    assert min(margins[:6]) > 800 and 1.7 < margins[6] == margins[7] < 1.8
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.monomial(0),
                           centers=centres)
    assert len(wf.rays) == 16 and wf.singular() == []


def test_1d_centre_too_large_for_its_window_is_rejected():
    """At 1e300, x0 - R and x0 + R round to one float: the window is empty
    and the estimate once came out regular with amplitude 0."""
    with pytest.raises(InputError, match=r"centre 1e\+300"):
        ml.wf_estimate_1d(SymbolicDistribution1D.monomial(1),
                          centers=(1e300,))


def test_window_annulus_over_origin_rejected():
    with pytest.raises(ml.WindowTooWide):
        ml.wf_estimate_1d(SymbolicDistribution1D.delta(0), centers=(0.3,))


# --------------------------------------------------------------------------
# product compatibility

def test_squaring_delta_is_rejected():
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.delta(0))
    ok, witnesses = ml.product_compatible(wf, wf)
    assert not ok and witnesses
    r1, r2 = witnesses[0]
    assert r1.direction[0] == -r2.direction[0]


def test_one_sided_boundary_value_is_squarable():
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.power_i0(-1.0, +1))
    ok, witnesses = ml.product_compatible(wf, wf)
    assert ok and witnesses == []


def test_whitney_sum_needs_matching_base_point():
    ray_up = ml.WFRay((0.0,), (1.0,), 0.0, 1.0, True)
    ray_dn_far = ml.WFRay((3.0,), (-1.0,), 0.0, 1.0, True)
    wf1 = ml.WFEstimate([ray_up], 2.0, {})
    wf2 = ml.WFEstimate([ray_dn_far], 2.0, {})
    assert ml.product_compatible(wf1, wf2)[1] == []


# --------------------------------------------------------------------------
# bicharacteristic flow

def test_flat_flow_is_a_straight_null_ray():
    rep = ml.bicharacteristic_flow((0.0, 0.0), (1.0, 1.0),
                                   dt=0.01, n_steps=200)
    assert rep["sigma_drift"] == 0.0
    # dx/dt = 2 G k = (2, -2): the ray is straight with constant covector
    assert np.allclose(rep["k"][-1], (1.0, 1.0))
    assert np.allclose(rep["x"][-1], (2 * rep["time"], -2 * rep["time"]),
                       atol=1e-12)


def conformal(x):
    w = math.exp(-0.4 * math.sin(x[0]) * math.cos(x[1]))
    return np.diag([w, -w])


def test_conformal_null_ray_stays_null():
    rep = ml.bicharacteristic_flow((0.2, -0.1), (1.0, 1.0), dt=0.01,
                                   n_steps=300, metric_inv=conformal)
    assert rep["sigma"][0] == 0.0
    assert rep["sigma_drift"] == 0.0


def test_conformal_timelike_ray_drifts_mildly():
    rep = ml.bicharacteristic_flow((0.0, 0.0), (1.0, 0.3), dt=0.005,
                                   n_steps=200, metric_inv=conformal)
    assert 0.0 < rep["sigma_drift"] < 1e-5


def test_midpoint_flow_is_reversible():
    fwd = ml.bicharacteristic_flow((0.1, 0.4), (0.9, 0.5), dt=0.01,
                                   n_steps=150, metric_inv=conformal)
    back = ml.bicharacteristic_flow(fwd["x"][-1], fwd["k"][-1], dt=-0.01,
                                    n_steps=150, metric_inv=conformal)
    assert np.max(np.abs(back["x"][-1] - (0.1, 0.4))) < 1e-9
    assert np.max(np.abs(back["k"][-1] - (0.9, 0.5))) < 1e-9


def test_flow_drift_is_per_unit_of_the_flows_own_time():
    """At dt = +-1e-16 the flow runs for 1e-15; the drift rate divides by
    that duration, with no floor under it."""
    for dt in (1e-16, -1e-16):
        r, drift = acceptance.flow_drift((0.0, 0.0), (1.0, 0.3), dt, 10,
                                         conformal)
        assert r["time"] == dt * 10 and r["sigma_drift"] > 0.0
        assert drift == r["sigma_drift"] / abs(r["time"]) > 0.1


def reference_grads(metric_inv, x, k):
    """(2 G k, -d sigma / dx) at (x, k), the x derivative of the symbol a
    central difference with h = 1e-6."""
    G = metric_inv(x)
    dx = 2.0 * G @ k
    dk = np.zeros(x.size)
    h = 1e-6
    for a in range(x.size):
        xp = x.copy(); xp[a] += h
        xm = x.copy(); xm[a] -= h
        dk[a] = -(k @ metric_inv(xp) @ k - k @ metric_inv(xm) @ k) / (2 * h)
    return dx, dk


def reference_flow(x0, k0, dt, n_steps, metric_inv=None, fixpoint_iters=12):
    """The earlier integrator, kept as an oracle: up to fixpoint_iters
    iterations per step on numpy arrays, each step started from (x, k),
    stopped only by an update below 1e-15."""
    if metric_inv is None:
        G0 = np.diag([1.0, -1.0])
        metric_inv = lambda x: G0
    x = np.asarray(x0, dtype=float).copy()
    k = np.asarray(k0, dtype=float).copy()
    grads = partial(reference_grads, metric_inv)

    def sigma(x, k):
        return float(k @ metric_inv(x) @ k)

    xs = [x.copy()]
    ks = [k.copy()]
    sigmas = [sigma(x, k)]
    for _ in range(n_steps):
        xm, km = x.copy(), k.copy()
        for _ in range(fixpoint_iters):
            dxm, dkm = grads((x + xm) / 2, (k + km) / 2)
            xm_new = x + dt * dxm
            km_new = k + dt * dkm
            if (np.max(np.abs(xm_new - xm)) < 1e-15
                    and np.max(np.abs(km_new - km)) < 1e-15):
                xm, km = xm_new, km_new
                break
            xm, km = xm_new, km_new
        x, k = xm, km
        xs.append(x.copy())
        ks.append(k.copy())
        sigmas.append(sigma(x, k))
    return {"x": np.array(xs), "k": np.array(ks), "sigma": np.array(sigmas)}


@pytest.mark.parametrize("x0, k0, dt", [
    ((0.0, 0.0), (1.0, 1.0), 0.01),   # the `paqft flow` default
    ((0.3, -0.7), (1.7, -0.4), 0.01),
    ((-0.9, 0.2), (0.6, 1.9), -0.02),
    ((0.5, 0.5), (1.25, 0.0), 0.0075),
])
def test_flat_flow_matches_the_reference_bit_for_bit(x0, k0, dt):
    rep = ml.bicharacteristic_flow(x0, k0, dt, 400)
    ref = reference_flow(x0, k0, dt, 400)
    for key in ("x", "k", "sigma"):
        assert np.array_equal(rep[key], ref[key]), key
    assert rep["fixpoint_capped"] == 0


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def either_sign(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[SIGNED_ZERO | either_sign(0.0, 2.0)] * 2),
       st.tuples(*[SIGNED_ZERO | either_sign(0.1, 3.0)] * 2)
       | st.tuples(SIGNED_ZERO, SIGNED_ZERO),
       either_sign(0.001, 0.05), st.integers(1, 60))
def test_flat_flow_reuses_only_what_k_fixes(x0, k0, dt, n_steps):
    """The flat flow reuses its derivative, noise floor and sigma while k
    keeps its bit pattern; signed zeros in x0 and k0, k = 0 and dt < 0
    (which turns a -0.0 in k into 0.0) still give the reference's flow
    bit for bit, with one iteration a step after the first, which takes
    two unless k = 0."""
    rep = ml.bicharacteristic_flow(x0, k0, dt, n_steps)
    ref = reference_flow(x0, k0, dt, n_steps)
    for key in ("x", "k", "sigma"):
        assert rep[key].tobytes() == ref[key].tobytes(), key
    assert rep["iterations"] == n_steps + any(k0)


CONFORMAL_RAYS = [
    ((0.2, -0.1), (1.0, 1.0)),     # null
    ((-0.6, 0.8), (1.6, -1.6)),    # null
    ((0.0, 0.0), (1.0, 0.3)),      # timelike
    ((0.7, 0.4), (1.1, -1.8)),     # spacelike
]


@pytest.mark.parametrize("x0, k0", CONFORMAL_RAYS)
def test_conformal_flow_matches_the_reference(x0, k0):
    rep = ml.bicharacteristic_flow(x0, k0, 0.01, 400, metric_inv=conformal)
    ref = reference_flow(x0, k0, 0.01, 400, metric_inv=conformal)
    assert np.max(np.abs(rep["x"] - ref["x"])) < 1e-8
    assert np.max(np.abs(rep["k"] - ref["k"])) < 1e-8
    assert rep["fixpoint_capped"] == 0


@pytest.mark.parametrize("x0, k0", CONFORMAL_RAYS)
def test_every_step_solves_the_midpoint_equation(x0, k0):
    """The extrapolated start changes where a step's iteration begins, not
    where it stops: each accepted step (y, y+) leaves a midpoint residual
    |y+ - y - dt f((y + y+)/2)| at the noise floor of the central
    difference (at most 7e-12 on these rays; 2e-7 and more when a step
    stops after two iterations), f the reference's own derivative."""
    dt = 0.01
    rep = ml.bicharacteristic_flow(x0, k0, dt, 400, metric_inv=conformal)
    xs, ks = rep["x"], rep["k"]
    worst = 0.0
    for i in range(400):
        dx, dk = reference_grads(conformal, (xs[i] + xs[i + 1]) / 2,
                                 (ks[i] + ks[i + 1]) / 2)
        worst = max(worst, np.max(np.abs(xs[i + 1] - xs[i] - dt * dx)),
                    np.max(np.abs(ks[i + 1] - ks[i] - dt * dk)))
    assert worst <= 1e-9


class CountingMetric:
    def __init__(self, metric_inv):
        self.metric_inv, self.calls = metric_inv, 0

    def __call__(self, x):
        self.calls += 1
        return self.metric_inv(x)


def test_conformal_null_flow_stops_at_the_noise_floor():
    """Five metric calls per iteration and one for sigma: 8.18 a step on
    this ray (1.43 iterations, from the six-point extrapolated start),
    where `reference_flow` runs all 12 iterations of nearly every step
    (60.1 a step).  The bound leaves a margin of 10% over the 3271 calls."""
    counted = CountingMetric(conformal)
    ml.bicharacteristic_flow((0.3, -0.5), (1.4, -1.4), 0.01, 400,
                             metric_inv=counted)
    assert counted.calls <= 3600


def test_flow_counts_its_iterations():
    """`iterations` is every fixed-point iteration: five metric calls each
    (G and the four symbols of the difference) and one call per point for
    sigma."""
    counted = CountingMetric(conformal)
    rep = ml.bicharacteristic_flow((0.0, 0.0), (1.0, 0.3), 0.01, 400,
                                   metric_inv=counted)
    assert 400 < rep["iterations"] < 12 * 400
    assert counted.calls == 5 * rep["iterations"] + 400 + 1


def test_flat_flow_takes_one_iteration_a_step():
    """The extrapolated start is exact for a constant metric: the first
    step (started at y) takes two iterations, every other step one, on the
    default metric (no difference quotient) as on the same metric passed
    in, and the two give the same flow."""
    counted = CountingMetric(lambda x: np.diag([1.0, -1.0]))
    rep = ml.bicharacteristic_flow((0.1, 0.2), (1.3, 0.4), 0.01, 400,
                                   metric_inv=counted)
    assert counted.calls == 5 * 401 + 401
    flat = ml.bicharacteristic_flow((0.1, 0.2), (1.3, 0.4), 0.01, 400)
    assert rep["iterations"] == flat["iterations"] == 400 + 1
    for key in ("x", "k", "sigma"):
        assert np.array_equal(rep[key], flat[key]), key


def test_capped_fixed_point_steps_are_counted(monkeypatch):
    coarse = ml.bicharacteristic_flow((0.0, 0.0), (1.0, 0.3), 0.5, 20,
                                      metric_inv=conformal)
    assert 0 < coarse["fixpoint_capped"] <= 20
    fine = ml.bicharacteristic_flow((0.0, 0.0), (1.0, 0.3), 0.01, 400,
                                    metric_inv=conformal)
    assert fine["fixpoint_capped"] == 0
    monkeypatch.setattr(ml, "FLOW_FIXPOINT_ITERS", 1)
    starved = ml.bicharacteristic_flow((0.0, 0.0), (1.0, 0.3), 0.01, 10,
                                       metric_inv=conformal)
    assert starved["fixpoint_capped"] == 10


# --------------------------------------------------------------------------
# 2d sampled estimator

def grid_field(n=96, spacing=0.1):
    values = np.zeros((n, n))
    return ml.SampledField2D(values, spacing, spacing), n, spacing


def test_sampled_field_takes_real_samples():
    with pytest.raises(TypeError, match="real samples"):
        ml.SampledField2D(np.zeros((4, 4), dtype=complex), 0.1, 0.1)


def test_sampled_field_takes_finite_samples():
    """A nan or infinite sample raises NonFiniteSamples, an InputError
    naming how many there are and where the first is: the estimator zeroes
    the points outside its cut in the window, and 0 * nan is nan."""
    assert issubclass(ml.NonFiniteSamples, InputError)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((4, 5))
        values[2, 3] = values[3, 0] = bad
        with pytest.raises(ml.NonFiniteSamples,
                           match=r"2 found, the first at \(2, 3\)"):
            ml.SampledField2D(values, 0.1, 0.1)


@pytest.mark.parametrize("values, a_t, a_x, named", [
    (np.zeros(5), 0.1, 0.1, r"shape \(5,\)"),
    (np.zeros((4, 4)), 0, 0.1, "a_t = 0.0"),
    (np.zeros((4, 4)), 0.1, math.nan, "a_x = nan"),
    (np.zeros((4, 4)), -0.05, 0.1, "a_t = -0.05"),
    (np.zeros((4, 4)), 0.05, math.inf, "a_x = inf")])
def test_sampled_field_rejects_bad_input(values, a_t, a_x, named):
    """Samples that are not 2-D, and a spacing that is zero, nan, negative
    or infinite, raise an InputError naming them, not a bare ValueError, a
    ZeroDivisionError, an estimate with every centre skipped or a failed
    check."""
    with pytest.raises(InputError, match=named):
        ml.SampledField2D(values, a_t, a_x)


def test_box_half_width_is_bounded_before_any_allocation():
    """A spacing whose box half-width floor(R/a + 1/2) passes
    WF2D_MAX_HALF_WIDTH is refused, naming it, before the field pads its
    samples or a window is built (at a = 1e-4 the window alone would be
    50,001 x 50,001); the smallest spacing within the bound is taken."""
    R = ml.WF2D_SIGMA * ml.WF2D_CUT_SIGMAS
    tracemalloc.start()
    try:
        with pytest.raises(InputError,
                           match=r"a_t = 0\.0001: .*WF2D_MAX_HALF_WIDTH"):
            ml.SampledField2D(np.zeros((4, 4)), 1e-4, 1e-4)
        with pytest.raises(InputError, match="a_x = 5e-324"):
            ml.SampledField2D(np.zeros((4, 4)), 0.1, 5e-324)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    a = R / (ml.WF2D_MAX_HALF_WIDTH + 0.5)
    with pytest.raises(InputError):
        ml.SampledField2D(np.zeros((1, 1)), a, 0.1)
    field = ml.SampledField2D(np.ones((1, 1)), np.nextafter(a, 1), 0.1)
    assert ml._half_widths(field.a_t, 0.1) == [ml.WF2D_MAX_HALF_WIDTH, 25]
    assert field.padded.shape == (4001, 101) and field.padded.sum() == 1.0


def test_samples_are_kept_once_padded_by_two_box_half_widths():
    """`values` is a view of the interior of `padded`, whose border of two
    box half-widths (100 rows and 50 columns on AC11's spacings) is zero,
    so AC11's 512x256 field is kept as 712x356.  The samples are copied:
    later writes to the caller's array do not reach the field."""
    values = np.random.default_rng(50).standard_normal((512, 256))
    field = ml.SampledField2D(values, 0.05, 0.1)
    assert field.padded.shape == (712, 356)
    assert np.shares_memory(field.values, field.padded)
    assert np.array_equal(field.values, values)
    assert np.abs(field.padded).sum() == np.abs(values).sum()
    before = values[0, 0]
    values[0, 0] += 1.0
    assert not np.shares_memory(field.values, values)
    assert field.values[0, 0] == before != values[0, 0]


def test_centres_must_be_finite_and_within_integer_reach():
    """A nan or infinite centre, or one whose nearest grid point an int64
    cannot hold exactly, raises InputError; a far centre within that reach
    is skipped."""
    field, n, h = grid_field()
    for bad in ((np.nan, 4.8), (4.8, np.inf), (-np.inf, 4.8), (4.8, 1e300),
                (2.0 ** 52 * h, 4.8)):
        with pytest.raises(InputError, match=r"within 2\*\*52 steps"):
            ml.wf_estimate_2d(field, [(4.8, 4.8), bad])
    far = (2.0 ** 51 * h, -4.8)
    assert ml.wf_estimate_2d(field, [far]).meta["skipped_centers"] == [far]


def test_point_source_singular_at_its_site_only():
    field, n, h = grid_field()
    field.values[n // 2, n // 2] = 1.0
    c0 = ((n // 2) * h, (n // 2) * h)
    far = (n // 4 * h, n // 4 * h)
    wf = ml.wf_estimate_2d(field, [c0, far])
    assert len(wf.singular_at(c0)) > 0
    assert wf.singular_at(far) == []


def test_broad_bump_is_regular():
    field, n, h = grid_field()
    T, X = np.meshgrid(np.arange(n) * h, np.arange(n) * h, indexing="ij")
    c = n // 2 * h
    field.values[:] = np.exp(-((T - c) ** 2 + (X - c) ** 2) / (2 * 2.0 ** 2))
    wf = ml.wf_estimate_2d(field, [(c, c)])
    assert not wf.singular()


def test_nyquist_guard():
    values = np.zeros((16, 16))
    coarse = ml.SampledField2D(values, 1.0, 1.0)
    with pytest.raises(ml.MicrolocalError):
        ml.wf_estimate_2d(coarse, [(8.0, 8.0)])


# --------------------------------------------------------------------------
# 2d estimator against a naive reference

def reference_wf2d(field, centers, n_rays=16, k_base=1.25, n_octaves=3,
                   sigma=0.5, R=2.5, amp_floor=1e-7, rel_floor=1e-4):
    """Per-centre pairing over the grid points inside the cut, for each of
    the n_rays directions on its own, and a least-squares line per ray:
    {(centre, j): (peak, exponent)}.  A point (i, j) is offset from the
    centre by ((i - it) a_t + (it a_t - t0), (j - ix) a_x + (ix a_x - x0)),
    (it, ix) the centre's nearest grid point, and is inside the cut when
    its squared offset is below R*R (1 - 2**-30).  The grid is first cut
    to the rows and columns inside it; a point inside the cut lies in
    both, so the masked points are those of the full grid.  The phases
    e^{i r d.p}, p the offset, of all directions at the lowest frequency
    come from one exponential per (direction, point); each octave doubles
    r, so squaring them gives the next rung.  The fits of all rays are one
    polyfit."""
    rs = [k_base * 2 ** j for j in range(n_octaves + 1)]
    a = 2 * math.pi * np.arange(n_rays) / n_rays
    dirs = np.stack([np.cos(a), np.sin(a)], axis=1)
    cut = R * R * (1 - 2.0 ** -30)
    nt, nx = field.values.shape
    out = {}
    for (t0, x0) in centers:
        it, ix = round(t0 / field.a_t), round(x0 / field.a_x)
        dt = (np.arange(nt) - it) * field.a_t + (it * field.a_t - t0)
        dx = (np.arange(nx) - ix) * field.a_x + (ix * field.a_x - x0)
        rows, cols = dt ** 2 < cut, dx ** 2 < cut
        T, X = np.meshgrid(dt[rows], dx[cols], indexing="ij")
        dist2 = T ** 2 + X ** 2
        mask = dist2 < cut
        if not mask.any():
            continue
        v = field.values[np.ix_(rows, cols)][mask] \
            * np.exp(-dist2[mask] / (2 * sigma ** 2)) * field.a_t * field.a_x
        phase = np.exp(1j * rs[0] * (dirs @ np.stack([T[mask], X[mask]])))
        amps = []
        for _ in rs:
            amps.append(np.abs((phase * v).sum(1)))
            phase = phase * phase
        amps = np.array(amps)  # (frequency, direction)
        peak = amps.max(0)
        ys = np.log(np.maximum(amps, np.maximum(amp_floor, peak * 1e-14)))
        slope = np.polyfit(np.log(rs), ys, 1)[0]
        fit = (peak >= amp_floor) & (amps[-1] > rel_floor * peak)
        for j in range(n_rays):
            out[(t0, x0), j] = (peak[j], -slope[j] if fit[j] else math.inf)
    return out


def assert_matches_reference(wf, ref):
    assert len(wf.rays) == len(ref)
    peak = max(max(p for p, _ in ref.values()), 1e-300)
    for i, r in enumerate(wf.rays):
        want_amp, want_expo = ref[r.center, i % 16]
        assert abs(r.amplitude - want_amp) <= 1e-12 * peak
        assert r.singular == (want_expo < wf.threshold)
        assert r.exponent == pytest.approx(want_expo, abs=1e-8)


def masked_loop_wf2d(field, centers):
    """wf_estimate_2d's pairing with the cut made per centre through a mask
    of its whole box: the box is skipped where the squared offset from the
    centre, (i - it) a_t + s_t and (j - ix) a_x + s_x on each axis, is at
    least R*R (1 - 2**-30) all over it, and else zeroed there after its
    product with the window.  (paired centres, their (centre, WF2D_RAYS/2,
    frequency) amplitudes, skipped centres)."""
    R = ml.WF2D_SIGMA * ml.WF2D_CUT_SIGMAS
    g = -0.5 / (ml.WF2D_SIGMA * ml.WF2D_SIGMA)
    a_t, a_x = field.a_t, field.a_x
    rs, _, ht, hx, E_t, E_x = ml._phase_tables(a_t, a_x)
    off_t, off_x = np.arange(-ht, ht + 1) * a_t, np.arange(-hx, hx + 1) * a_x
    nt, nx = field.values.shape
    cs, amps, skipped = [], [], []
    for t0, x0 in centers:
        it, ix = round(t0 / a_t), round(x0 / a_x)
        i0, i1 = max(it - ht, 0), min(it + ht + 1, nt)
        j0, j1 = max(ix - hx, 0), min(ix + hx + 1, nx)
        s_t, s_x = it * a_t - t0, ix * a_x - x0
        dt = np.arange(i0 - it, i1 - it) * a_t + s_t
        dx = np.arange(j0 - ix, j1 - ix) * a_x + s_x
        outside = (dt * dt)[:, None] + dx * dx >= R * R * (1 - 2.0 ** -30)
        if outside.all():
            skipped.append((t0, x0))
            continue
        window = np.exp(g * (off_t + s_t) ** 2)[:, None] \
            * np.exp(g * (off_x + s_x) ** 2)
        bt = slice(i0 - it + ht, i1 - it + ht)
        bx = slice(j0 - ix + hx, j1 - ix + hx)
        box = window[bt, bx] * field.values[i0:i1, j0:j1]
        box[outside] = 0.0
        A = (box.T @ E_t[bt]).view(complex)
        amps.append((A * E_x[bx]).sum(0))
        cs.append((t0, x0))
    amps = np.abs(amps).reshape(len(cs), ml.WF2D_RAYS // 2, len(rs))
    return cs, amps * (a_t * a_x), skipped


def captured_wf2d(monkeypatch, field, centers):
    """wf_estimate_2d's paired centres and the amplitudes it hands to the
    fit, and its estimate."""
    got = {}
    estimate = ml._estimate

    def capture(cs, dirs, rs, amps, *rest):
        got.update(cs=list(cs), amps=amps.copy())
        return estimate(cs, dirs, rs, amps, *rest)

    with monkeypatch.context() as m:
        m.setattr(ml, "_estimate", capture)
        wf = ml.wf_estimate_2d(field, centers)
    return got["cs"], got["amps"], wf


def assert_cut_as_the_masked_loop(monkeypatch, field, centers):
    """wf_estimate_2d pairs, skips and cuts bit for bit as masked_loop_wf2d:
    the amplitudes it hands to the fit are equal arrays."""
    got_cs, got_amps, wf = captured_wf2d(monkeypatch, field, centers)
    cs, amps, skipped = masked_loop_wf2d(field, centers)
    assert got_cs == cs and wf.meta["skipped_centers"] == skipped
    assert np.array_equal(got_amps, amps)


def two_d_cases():
    """Fields on a 96x96 grid (point sources, one next to the t = 0 edge, a
    broad bump, and their sum) and centres of every kind, with the skipped
    ones between the others."""
    n, h = 96, 0.1
    T, X = np.meshgrid(np.arange(n) * h, np.arange(n) * h, indexing="ij")
    c = n // 2 * h
    points = np.zeros((n, n))
    points[n // 2, n // 2] = 1.0
    points[3, 70] = -0.5  # next to the t = 0 edge
    bump = np.exp(-((T - c) ** 2 + (X - c) ** 2) / (2 * 2.0 ** 2))
    skipped = [(-3.0, 4.8), (20.0, 20.0),          # no grid point in reach
               (4.8, -4.0), (12.6, 3.0)]
    centers = [(c, c), (2.0, 3.0), (c, 2.0), (7.5, 9.5),  # grid-aligned
               skipped[0],
               (c + 0.031, c - 0.027), (0.55, 6.98),  # off-grid
               (c - 0.047, c + 0.052), (5.51, 4.49),
               skipped[1], skipped[2],
               (0.3, 7.0), (9.4, 0.2), (0.0, 0.0),  # cut by the grid edge
               (-1.0, 4.8), (4.8, 11.2),            # centre off the grid
               skipped[3]]
    centers += [(1.0 + 0.25 * i, 8.013 - 0.2 * i) for i in range(0, 21, 5)]
    fields = [ml.SampledField2D(v, h, h)
              for v in (points, bump, points + bump)]
    return fields, centers, skipped


def test_2d_estimate_matches_full_grid_reference():
    fields, centers, skipped = two_d_cases()
    for field in fields:
        wf = ml.wf_estimate_2d(field, centers)
        assert_matches_reference(wf, reference_wf2d(field, centers))
        assert wf.meta["skipped_centers"] == skipped
        assert [r.center for r in wf.rays[::16]] == [
            p for p in centers if p not in skipped]


def test_phase_tables_are_cached_per_spacing():
    """Tables are built once per grid spacing and shared read-only: a
    spacing met again reuses its tables, and estimates on alternating
    spacings match the reference."""
    fields, centers, _ = two_d_cases()
    values = fields[2].values
    ml._phase_tables.cache_clear()
    for a_t, a_x in ((0.1, 0.1), (0.05, 0.1), (0.1, 0.1)):
        field = ml.SampledField2D(values, a_t, a_x)
        centres = [(t * a_t / 0.1, x) for t, x in centers]
        assert_matches_reference(ml.wf_estimate_2d(field, centres),
                                 reference_wf2d(field, centres))
    info = ml._phase_tables.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    *_, E_t, E_x = ml._phase_tables(0.1, 0.1)
    for table in (E_t, E_x):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


def test_cold_and_warm_cut_windows_pair_alike(monkeypatch):
    """A call on an empty cut-window cache and the same call again, on
    the windows the first one left there, hand equal amplitudes to the
    fit and give equal rays."""
    fields, centers, _ = two_d_cases()
    field, centers = fields[2], centers[:8]  # fewer windows than the cache
    ml._cut_window.cache_clear()
    _, cold, wf_cold = captured_wf2d(monkeypatch, field, centers)
    built = ml._cut_window.cache_info().misses
    assert built == wf_cold.meta["windows"] > 1
    _, warm, wf_warm = captured_wf2d(monkeypatch, field, centers)
    assert ml._cut_window.cache_info()[:2] == (built, built)  # hits, misses
    assert np.array_equal(cold, warm) and wf_cold.rays == wf_warm.rays
    assert wf_cold.meta["windows"] == wf_warm.meta["windows"]


def test_cached_cut_windows_are_read_only(monkeypatch):
    """Every window the estimator takes from the cache refuses writes, so
    no call can change those of a later one."""
    fields, centers, _ = two_d_cases()
    taken = []
    cut_window = ml._cut_window

    def spy(*key):
        taken.append(cut_window(*key))
        return taken[-1]

    monkeypatch.setattr(ml, "_cut_window", spy)
    ml.wf_estimate_2d(fields[0], centers)
    assert len(taken) > 1
    for window in taken:
        with pytest.raises(ValueError, match="read-only"):
            window[0, 0] = 0.0


def test_cut_windows_are_shared_across_extents(monkeypatch):
    """Two fields with one spacing but different extents share one cache
    entry: the cut depends on the centre's offsets, not on the grid's
    extent.  Each still pairs as the masked loop."""
    rng = np.random.default_rng(48)
    short = ml.SampledField2D(rng.standard_normal((96, 96)), 0.1, 0.1)
    long = ml.SampledField2D(rng.standard_normal((400, 96)), 0.1, 0.1)
    centre = [(4.8, 4.8)]
    ml._cut_window.cache_clear()
    for field in (short, long, short):
        assert ml.wf_estimate_2d(field, centre).meta["windows"] == 1
        assert_cut_as_the_masked_loop(monkeypatch, field, centre)
    info = ml._cut_window.cache_info()
    assert info.currsize == 1
    assert info.misses == 1


def test_skipped_centres_build_no_window():
    """A call whose centres are all skipped takes no window from the
    cache and builds none."""
    fields, _, skipped = two_d_cases()
    ml._cut_window.cache_clear()
    wf = ml.wf_estimate_2d(fields[0], skipped)
    assert wf.rays == [] and wf.meta["windows"] == 0
    info = ml._cut_window.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


# grid offsets (time steps, space steps) exactly R = 2.5 from the centre on
# AC11's spacings (0.05, 0.1) and on (0.02, 0.02)
ON_CUT = {(0.05, 0.1): [(50, 0), (-50, 0), (0, 25), (0, -25), (30, 20),
                        (-30, -20), (30, -20), (14, 24), (-14, 24), (48, 7),
                        (48, -7), (-48, 7), (40, 15), (-40, -15)],
          (0.02, 0.02): [(117, 44), (-117, 44), (117, -44), (-117, -44),
                         (44, 117), (-44, 117), (44, -117), (-44, -117)]}


def one_step_inside(offsets):
    """Each offset moved one step toward the centre on each axis it leaves
    the centre's row or column on."""
    return ([(dt - np.sign(dt), dx) for dt, dx in offsets if dt]
            + [(dt, dx - np.sign(dx)) for dt, dx in offsets if dx])


def cut_fates(a_t, a_x, offsets, shape, positions=40):
    """{offset: set of fates}: at each of the positions (t and x steps
    both moving), a field with a single sample there and grid-aligned
    centres at each offset from it; a fate is True when the centre's
    estimate sees the sample (a nonzero amplitude)."""
    fates = {o: set() for o in offsets}
    for k in range(positions):
        pt, px = shape[0] // 2 + k, shape[1] // 2 + k % 7
        values = np.zeros(shape)
        values[pt, px] = 1.0
        field = ml.SampledField2D(values, a_t, a_x)
        centres = [((pt - dt) * a_t, (px - dx) * a_x) for dt, dx in offsets]
        amps = [r.amplitude for r in ml.wf_estimate_2d(field, centres).rays]
        seen = np.reshape(amps, (len(offsets), -1)).max(1) > 0.0
        for o, kept in zip(offsets, seen.tolist()):
            fates[o].add(kept)
    return fates


def test_points_on_the_cut_fall_as_in_the_reference():
    """A single sample exactly R from a grid-aligned centre is dropped at
    every position, and one a step inside is kept, on AC11's spacings and
    on (0.02, 0.02).  On the latter the squared offsets of (117, 44) and
    (44, 117) round below R*R, so only the cut's margin drops them.  At one
    position the estimate matches the reference."""
    R = ml.WF2D_SIGMA * ml.WF2D_CUT_SIGMAS
    assert (117 * 0.02) ** 2 + (44 * 0.02) ** 2 < R * R
    for (a_t, a_x), shape in (((0.05, 0.1), (240, 100)),
                              ((0.02, 0.02), (320, 320))):
        on_cut = ON_CUT[a_t, a_x]
        inside = one_step_inside(on_cut)
        fates = cut_fates(a_t, a_x, on_cut + inside, shape)
        assert all(fates[o] == {False} for o in on_cut)
        assert all(fates[o] == {True} for o in inside)
        values = np.zeros(shape)
        values[shape[0] // 2, shape[1] // 2] = 1.0
        field = ml.SampledField2D(values, a_t, a_x)
        centres = [((shape[0] // 2 - dt) * a_t, (shape[1] // 2 - dx) * a_x)
                   for dt, dx in on_cut + inside]
        assert_matches_reference(ml.wf_estimate_2d(field, centres),
                                 reference_wf2d(field, centres))


def test_estimate_is_invariant_under_whole_step_translations(monkeypatch):
    """A random field and the same field displaced by whole grid steps, in
    t, in x and in both: grid-aligned centres at matching positions, their
    boxes away from the edges, hand equal amplitudes to the fit, bit for
    bit.  A single sample at each of AC11's on-cut offsets from a
    grid-aligned centre has one fate at every position."""
    a_t, a_x = 0.05, 0.1
    values = np.random.default_rng(49).standard_normal((160, 80))
    centres = [(i, j) for i in range(50, 110, 7) for j in range(25, 55, 6)]
    got = []
    for st, sx in ((0, 0), (37, 0), (0, 11), (123, 29)):
        moved = np.zeros((160 + st, 80 + sx))
        moved[st:, sx:] = values
        field = ml.SampledField2D(moved, a_t, a_x)
        at = [((i + st) * a_t, (j + sx) * a_x) for i, j in centres]
        got.append(captured_wf2d(monkeypatch, field, at)[1])
    assert all(np.array_equal(got[0], amps) for amps in got[1:])
    on_cut = ON_CUT[a_t, a_x]
    fates = cut_fates(a_t, a_x, on_cut, (240, 100))
    assert all(len(fates[o]) == 1 for o in on_cut)


def test_cut_window_pairs_bit_for_bit_as_the_masked_loop(monkeypatch):
    """The cut made once per window gives the amplitudes, the paired and
    the skipped centres of the per-centre masked cut, bit for bit: over
    AC11's full grid, seeded off-grid centres on its field, some near or
    past its edge, centres past its corners whose clipped boxes hold grid
    points but none inside the cut, the centres of two_d_cases (clipped
    and skipped ones among them), and a grid 205 long in t."""
    field, _, centres = ml.ac11_grid()
    rng = np.random.default_rng(47)
    near = [(t + rng.uniform(-0.05, 0.05), x + rng.uniform(-0.1, 0.1))
            for t, x in centres[::7]]
    edge = [tuple(rng.uniform(-3.0, 28.6, 2)) for _ in range(150)]
    corner = [(-2.48, -2.48), (-2.3, 27.2), (27.3, -2.2), (27.7, 27.1)]
    assert ml.wf_estimate_2d(field, corner).meta["skipped_centers"] == corner
    for cs in (centres, near, edge, corner):
        assert_cut_as_the_masked_loop(monkeypatch, field, cs)
    fields, centers, _ = two_d_cases()
    for field in fields:
        assert_cut_as_the_masked_loop(monkeypatch, field, centers)
    field = ml.SampledField2D(rng.standard_normal((4100, 40)), 0.05, 0.1)
    aligned = [(i * 0.05, j * 0.1)
               for i in range(3950, 4100, 9) for j in range(0, 40, 4)]
    near = [(t + rng.uniform(-0.025, 0.025), x + rng.uniform(-0.05, 0.05))
            for t, x in aligned]
    assert_cut_as_the_masked_loop(monkeypatch, field, aligned + near)


def test_skip_rule_takes_the_nearest_point_after_rounding(monkeypatch):
    """A centre half a time step from its anchor, 648 steps out, whose
    offset from the anchor's row rounds to more than half a step, so the
    next row is nearer; in x it lies just past the cut from the grid's
    first column along the anchor's row, and inside it along the next
    row.  Its box holds one kept point, and it is paired as in the masked
    loop, not skipped on the anchor's row."""
    a_t, a_x = 0.05, 0.1
    t0, x0 = 32.425000000000004, -2.4998749957106323
    it, ix = round(t0 / a_t), round(x0 / a_x)
    s_t, s_x = it * a_t - t0, ix * a_x - x0
    off_t = (np.array([0, 1, -1]) * a_t + s_t) ** 2
    assert abs(s_t) > a_t / 2 and off_t[1] < off_t[0] < off_t[2]
    d2_x = (-ix * a_x + s_x) ** 2
    cut = 6.25 * (1 - 2.0 ** -30)
    assert d2_x + off_t[1] < cut <= d2_x + off_t[0]
    field = ml.SampledField2D(
        np.random.default_rng(51).standard_normal((it + 3, 8)), a_t, a_x)
    assert masked_loop_wf2d(field, [(t0, x0)])[2] == []
    assert_cut_as_the_masked_loop(monkeypatch, field, [(t0, x0)])


def test_box_reaches_every_point_inside_the_cut():
    """On AC11's spacings, centres half a step off the grid in t, in x or
    in both, the farthest a centre gets from its anchor (the nearest grid
    point).  No grid point more than h = floor(R/a + 1/2) steps from the
    anchor passes the cut dT*dT + dX*dX < R*R, being at least (h + 1/2) a
    > R away, and some point h steps out does: the box of wf_estimate_2d
    is the smallest that holds the cut.  On a random field the estimate
    at these centres matches the full-grid reference, so no point inside
    the cut is left out of the box."""
    a_t, a_x = 0.05, 0.1
    R = ml.WF2D_SIGMA * ml.WF2D_CUT_SIGMAS
    ht, hx = (math.floor(R / a + 0.5) for a in (a_t, a_x))
    field = ml.SampledField2D(
        np.random.default_rng(5).standard_normal((200, 100)), a_t, a_x)
    ts, xs = np.arange(200) * a_t, np.arange(100) * a_x
    centres = [(ts[it] + st * a_t / 2, xs[ix] + sx * a_x / 2)
               for it, ix in ((100, 50), (101, 51))  # round() ties go even
               for st in (-1, 0, 1) for sx in (-1, 0, 1)]
    reach_t, reach_x = set(), set()
    for t0, x0 in centres:
        inside = np.argwhere((ts[:, None] - t0) ** 2 + (xs - x0) ** 2
                             < R * R)
        dt = inside[:, 0] - round(t0 / a_t)
        dx = inside[:, 1] - round(x0 / a_x)
        assert np.abs(dt).max() <= ht and np.abs(dx).max() <= hx
        reach_t |= {dt.min(), dt.max()}
        reach_x |= {dx.min(), dx.max()}
    assert {-ht, ht} <= reach_t and {-hx, hx} <= reach_x
    wf = ml.wf_estimate_2d(field, centres)
    assert_matches_reference(wf, reference_wf2d(field, centres))


def test_rays_hold_python_scalars():
    """Rays are WFRay tuples of Python scalars, also when the threshold and
    the centres are numpy scalars."""
    field, n, h = grid_field()
    field.values[n // 2, n // 2] = 1.0
    c = np.float64(n // 2 * h)
    wfs = [ml.wf_estimate_2d(field, [(c, c), (c / 2, c)],
                             threshold=np.float64(2.5)),
           ml.wf_estimate_1d(SymbolicDistribution1D.delta(0),
                             centers=(np.float64(0.0), 0.7))]
    for wf in wfs:
        assert wf.singular() and len(wf.singular()) < len(wf.rays)
        for r in wf.rays:
            assert type(r) is ml.WFRay
            assert type(r.exponent) is float
            assert type(r.amplitude) is float
            assert type(r.singular) is bool
            assert type(r.direction) is tuple
            assert all(type(d) is float for d in r.direction)


def test_2d_estimate_pairs_each_centre_on_its_own():
    """One call over all centres, skipped ones included, is the
    concatenation of one call per centre."""
    fields, centers, skipped = two_d_cases()
    for field in fields:
        wf = ml.wf_estimate_2d(field, centers)
        ones = [ml.wf_estimate_2d(field, [p]) for p in centers]
        assert wf.rays == [r for one in ones for r in one.rays]
        assert wf.meta["skipped_centers"] == [
            p for one in ones for p in one.meta["skipped_centers"]]


def test_window_is_built_once_per_run_of_equal_shifts():
    """meta["windows"] counts the Gaussian windows a call builds: one per
    run of consecutive paired centres that share the sub-grid shift
    (it*a_t - t0, ix*a_x - x0) from their anchor; skipped centres build
    none."""
    fields, centers, skipped = two_d_cases()
    h = fields[0].a_t
    shifts = [(round(t0 / h) * h - t0, round(x0 / h) * h - x0)
              for t0, x0 in centers if (t0, x0) not in skipped]
    runs = len(list(groupby(shifts)))
    assert 1 < runs < len(shifts)
    for field in fields:
        assert ml.wf_estimate_2d(field, centers).meta["windows"] == runs
    assert ml.wf_estimate_2d(fields[0], skipped).meta["windows"] == 0


def test_each_shift_around_one_anchor_gets_its_own_window():
    """Consecutive centres with the same anchor (nearest grid point) but
    different sub-grid shifts are each paired with their own window."""
    fields, _, _ = two_d_cases()
    c = 4.8
    centres = [(c, c), (c + 0.03, c - 0.02), (c - 0.04, c + 0.045),
               (c + 0.049, c + 0.049)]
    assert len({(round(t / 0.1), round(x / 0.1)) for t, x in centres}) == 1
    for field in fields:
        wf = ml.wf_estimate_2d(field, centres)
        assert wf.meta["windows"] == 4
        assert_matches_reference(wf, reference_wf2d(field, centres))


def test_opposite_directions_are_half_the_rays_apart():
    """wf_estimate_2d pairs and fits the first half of the directions and
    gives direction j + WF2D_RAYS/2 the fit of direction j: that rests on
    the second half being the negated first half."""
    assert ml.WF2D_RAYS % 2 == 0
    field, n, h = grid_field()
    dirs = [r.direction for r in ml.wf_estimate_2d(field, [(4.8, 4.8)]).rays]
    half = ml.WF2D_RAYS // 2
    assert len(dirs) == ml.WF2D_RAYS
    for d, e in zip(dirs[:half], dirs[half:]):
        assert e == (-d[0], -d[1])


@pytest.fixture(scope="module")
def full_grid_check():
    """One AC11 run on its full grid, shared by the tests that read it."""
    return ml.propagation_check()


def test_commutator_front_rides_the_light_cone(full_grid_check):
    """AC11 on its full grid: at least 90% of the singular mass sits on the
    light cone."""
    rep = full_grid_check
    assert rep["fraction_on_cone"] >= 0.9
    assert rep["n_singular_centers"] > 0


def test_propagation_decisions_are_pinned(full_grid_check):
    """AC11's singular flags (by the sha256 of each centre's flags), its
    near-decision counts and its singular centres: a speed-up of the
    estimator moves none of them, and AC11 fails unless its estimate makes
    these decisions.  All of its centres are on the grid, so one window
    serves them all."""
    wf = full_grid_check["wf"]
    assert ml.flags_sha256(wf) == (
        "5e97da32a667a5cab77bf6f9a4b58726a65a270e2a787fd5b88a13a4b70da6ff")
    assert len(wf.near_threshold()) == 108
    assert len(wf.near_floor()) == 1490
    assert full_grid_check["decisions"] == ml.AC11_DECISIONS == (
        ml.flags_sha256(wf), 108, 1490)
    assert full_grid_check["n_singular_centers"] == 412
    assert wf.meta["windows"] == 1


def test_propagation_flags_match_reference(full_grid_check):
    """The rays of every fourth of the full grid's centres match the
    reference pairing."""
    from fractions import Fraction
    from paqft.lattice import Lattice1p1, PropagatorSet
    rep = full_grid_check
    centers = list(dict.fromkeys(r.center for r in rep["wf"].rays))
    assert len(centers) == rep["n_centers"] == 1079
    lat = Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0)
    field = ml.SampledField2D(PropagatorSet(lat).causal_column(256, 128),
                              0.05, 0.1)
    picked = set(centers[::4])
    wf = rep["wf"]
    sub = ml.WFEstimate([r for r in wf.rays if r.center in picked],
                        wf.threshold, {})
    assert_matches_reference(sub, reference_wf2d(field, centers[::4]))


def test_margins_are_aligned_with_rays(monkeypatch):
    field, n, h = grid_field()
    field.values[n // 2, n // 2] = 1.0
    wf = ml.wf_estimate_2d(field, [(4.8, 4.8), (2.4, 2.4)])
    margin, ratio = wf.meta["exponent_margin"], wf.meta["floor_ratio"]
    assert len(margin) == len(ratio) == len(wf.rays) == 32
    for r, m, q in zip(wf.rays, margin, ratio):
        assert m == r.exponent - wf.threshold
        # the point source rays are singular and far above the floor; the
        # empty window far away has no peak at all
        assert (q > 1.0) if r.center == (4.8, 4.8) else np.isnan(q)
    monkeypatch.setattr(ml, "NEAR_BAND", 1e6)
    assert wf.near_threshold() == [r for r in wf.rays
                                   if math.isfinite(r.exponent)]
    monkeypatch.setattr(ml, "NEAR_BAND", 0.5)
    assert all(abs(r.exponent - wf.threshold) <= 0.5
               for r in wf.near_threshold())
    # rays without a peak (nan ratio) are never near the floor
    monkeypatch.setattr(ml, "NEAR_FACTOR", 1e300)
    assert wf.near_floor() == [r for r in wf.rays if r.center == (4.8, 4.8)]


def test_1d_margins(monkeypatch):
    wf = ml.wf_estimate_1d(SymbolicDistribution1D.delta(1))
    # exponent -1 against threshold 4: five units inside the singular side
    assert np.allclose(wf.meta["exponent_margin"], -5.0)
    assert wf.near_threshold() == []
    monkeypatch.setattr(ml, "NEAR_BAND", 4.9)
    assert wf.near_threshold() == []
    monkeypatch.setattr(ml, "NEAR_BAND", 5.1)
    assert len(wf.near_threshold()) == 2
