"""Extension of singular model distributions across the origin.

Oracles: the minimal-subtraction value of the 1/x family has a closed
subtracted-quadrature form, and extension ambiguities are validated on
held-out probes rather than the fitting set.
"""
import math
import random
import warnings

import numpy as np
import pytest
from scipy import integrate

from paqft.dist1d import (TestFunction1D, SymbolicDistribution1D,
                          DivergentPairing)
from paqft import dist1d
from paqft import egrenorm as eg

from conftest import dist_scaled, dist_sum

RNG = random.Random(1311)


def probe(poly=(1.0, 0.5, -0.25), r0=0.5, R=1.0):
    return TestFunction1D.from_poly(poly, r0, R)


def ms_oracle_inverse_x(f):
    """MS value of the x_+^{zeta-1} family at zeta = 0:
    int_0^1 (f - f(0))/x + int_1^R f/x, by direct quadrature."""
    f0 = f(0.0).real
    pts = [f.plateau_radius]
    a = integrate.quad(lambda x: (f(x).real - f0) / x, 0.0, 1.0,
                       points=pts, limit=400)[0]
    b = integrate.quad(lambda x: f(x).real / x, 1.0,
                       max(f.support_radius, 1.0 + 1e-9), limit=400)[0]
    return a + b


# --------------------------------------------------------------------------
# scaling degrees

def test_regression_recovers_symbolic_degrees():
    cases = [
        (SymbolicDistribution1D.delta(0), 1.0),
        (SymbolicDistribution1D.delta(2), 3.0),
        # the probe reaches order k; a quadratic one paired delta^k, k >= 3,
        # to 0 at every scale ("needs more nonzero samples")
        (SymbolicDistribution1D.delta(3), 4.0),
        (SymbolicDistribution1D.delta(40), 41.0),
        (SymbolicDistribution1D.delta(78), 79.0),
        (SymbolicDistribution1D.heaviside(0), 0.0),
        (SymbolicDistribution1D.monomial(2), -2.0),
        (SymbolicDistribution1D.halfline(-1.5, +1), 1.5),
        (SymbolicDistribution1D.power_i0(-1.0, +1), 1.0),
    ]
    for t, want in cases:
        assert t.scaling_degree() == want
        assert eg.scaling_degree_regression(t) == pytest.approx(want, abs=0.05)
        assert eg.divergence_degree(t) == want - 1.0


def test_regression_of_a_sum_follows_its_top_delta_order():
    # (x+i0)^-2 (sd 2) with delta^3 (sd 4): the quadratic probe saw only
    # the first, below the divergence degree 3 of the sum; one regression
    # of the whole sum read a slope between the two, 3.887895
    t = dist_sum(SymbolicDistribution1D.delta(3),
                 SymbolicDistribution1D.power_i0(-2.0, +1))
    assert eg.divergence_degree(t) == 3.0
    assert eg.scaling_degree_regression(t) == pytest.approx(4.0, abs=1e-9)


def test_regression_of_a_sum_is_the_largest_term_degree():
    # x_+^-0.5 (sd 0.5) with delta (sd 1): one regression of the whole sum
    # read 0.850033; each term by itself keeps its bits
    halfline = SymbolicDistribution1D.halfline(-0.5, +1, 0)
    delta = SymbolicDistribution1D.delta(0)
    t = dist_sum(halfline, delta)
    assert eg.scaling_degree_regression(t) == pytest.approx(1.0, abs=1e-9)
    assert eg.scaling_degree_regression(t) == max(
        eg.scaling_degree_regression(halfline),
        eg.scaling_degree_regression(delta))


@pytest.mark.parametrize("k", [79, 100, 170, 171, pytest.param(
    2 ** 1024 - 2 ** 970 - 1, id="largest_parsed")])
def test_regression_names_a_delta_order_past_the_float_range(k):
    # delta^100 pairs to k! (2^8)^k times the probe coefficient: inf, and
    # above 170 k! alone is no float; never a NaN slope
    with pytest.raises(eg.ExtensionError, match=r"delta\^%d overflow" % k):
        eg.scaling_degree_regression(SymbolicDistribution1D.delta(k))


@pytest.mark.parametrize("c", [5e-324, 1.5, -3.0, 1e300, 1e307, -1.7e308])
def test_regression_ignores_a_common_factor(c):
    # a common factor cannot change the degree: the subnormal coefficient
    # used to drop every sample under the floor, and 1e307 up to overflow
    # them (both "needs more nonzero samples")
    t = dist_scaled(SymbolicDistribution1D.power_i0(-2.0, +1), c)
    assert eg.scaling_degree_regression(t) == pytest.approx(2.0, abs=0.05)


def test_unit_scaled_divides_by_the_power_of_two_at_the_largest():
    delta = SymbolicDistribution1D.delta(0)
    x2 = SymbolicDistribution1D.monomial(2)
    t = dist_sum(dist_scaled(delta, 1.5), dist_scaled(x2, -0.25))
    assert eg.unit_scaled(t)[0] == 1.0
    assert eg.unit_scaled(t)[1].terms == t.terms
    s, t = eg.unit_scaled(dist_sum(dist_scaled(delta, -3.0),
                                   dist_scaled(x2, 2j)))
    assert (s, t.terms) == (2.0, ((-1.5, ("delta", 0)), (1j, ("monomial", 2))))
    assert eg.unit_scaled(dist_scaled(delta, 1e307))[0] == 2.0 ** 1019
    assert eg.unit_scaled(dist_scaled(delta, 5e-324))[0] == 5e-324


def test_regression_raises_at_halfline_pole():
    with pytest.raises(DivergentPairing):
        eg.scaling_degree_regression(SymbolicDistribution1D.halfline(-1, +1))


def test_regression_needs_nonzero_samples():
    with pytest.raises(eg.ExtensionError):
        eg.scaling_degree_regression(SymbolicDistribution1D([]))


# --------------------------------------------------------------------------
# the W-scheme projection

def test_w_projection_kills_the_jet():
    w = eg.make_w_projection(2)
    f = probe((0.7, -1.3, 0.2, 0.05))
    g = eg.w_project(f, w)
    for k in range(3):
        assert g.derivative_at_0(k) == 0
    assert g.derivative_at_0(3) == f.derivative_at_0(3)
    with pytest.raises(ValueError):
        eg.make_w_projection(-1)


@pytest.mark.parametrize("k, r0, R", [(0, 0.5, 1.0), (2, 0.3, 0.7),
                                      (3, 0.5, 1.0)])
def test_w_project_appends_the_scaled_w_atoms(k, r0, R):
    """w_alpha is one atom x^alpha / alpha! on the window (r0, R); the
    projection is f's atoms, then -f^(alpha)(0) w_alpha for each alpha
    with a nonzero jet (here not alpha = 1), and its jets 0..k vanish."""
    w = eg.make_w_projection(k, r0, R)
    assert [wa.atoms for wa in w] == [
        ((1.0 / math.factorial(a), (0.0,) * a + (1.0,), r0, R),)
        for a in range(k + 1)]
    f = probe((0.75, 0.0, -0.25, 0.125), 0.45, 1.2)
    g = eg.w_project(f, w)
    jets = [f.derivative_at_0(a) for a in range(k + 1)]
    tail = [(a, c) for a, c in enumerate(jets) if c]
    assert g.atoms[:len(f.atoms)] == f.atoms
    assert len(g.atoms) == len(f.atoms) + len(tail)
    for (a, c), (coeff, poly, *window) in zip(tail,
                                             g.atoms[len(f.atoms):]):
        assert (poly, window) == ((0.0,) * a + (1.0,), [r0, R])
        assert coeff == pytest.approx(-c / math.factorial(a), rel=1e-15)
    for a in range(k + 1):
        assert g.derivative_at_0(a) == 0
    assert g.derivative_at_0(k + 1) == f.derivative_at_0(k + 1)


def test_extension_unique_below_zero_divergence():
    t = SymbolicDistribution1D.halfline(-0.5, +1)  # div = -0.5
    f = probe()
    e = eg.extend(t)
    assert e.pair(f) == t.pair(f)
    with pytest.warns(eg.NegativeDivergenceWarning):
        e2 = eg.extend(t, w_alphas=eg.make_w_projection(1))
    assert e2.pair(f) == t.pair(f)


def test_extension_evaluates_at_the_pole():
    t = SymbolicDistribution1D.halfline(-2, +1)  # div = 1
    f = probe()
    with pytest.raises(DivergentPairing):
        t.pair(f)
    e = eg.extend(t)
    val = e.pair(f)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    # on probes with a vanishing jet the extension is the plain pairing
    flat = probe((0.0, 0.0, 0.4, -0.2))
    assert e.pair(flat) == pytest.approx(t.pair(flat), rel=1e-12)


def test_extension_family_must_cover_order():
    t = SymbolicDistribution1D.halfline(-2, +1)
    with pytest.raises(eg.ExtensionError):
        eg.extend(t, w_alphas=eg.make_w_projection(0))


def test_two_schemes_differ_by_local_terms():
    t = SymbolicDistribution1D.halfline(-2, +1)
    e1 = eg.extend(t, w_alphas=eg.make_w_projection(1, 0.5, 1.0))
    e2 = eg.extend(t, w_alphas=eg.make_w_projection(1, 0.3, 0.7))
    coeffs, resid = eg.extension_ambiguity(e1, e2, max_order=1)
    assert resid < 1e-9
    # held-out probe: the fitted delta polynomial predicts the difference
    f = probe((0.9, 0.4, -0.1, 0.3), 0.45, 1.2)
    want = sum(c * (-1) ** a * f.derivative_at_0(a)
               for a, c in enumerate(coeffs))
    got = e1.pair(f) - e2.pair(f)
    assert got == pytest.approx(want, abs=1e-8)


def test_nonlocal_difference_is_rejected():
    t = SymbolicDistribution1D.halfline(-2, +1)
    w = eg.make_w_projection(1)
    e1 = eg.extend(t, w_alphas=w)
    smeared = eg.extend(
        dist_sum(t, dist_scaled(SymbolicDistribution1D.heaviside(0), 0.3)),
        w_alphas=w)
    with pytest.raises(eg.NonLocalDifference):
        eg.extension_ambiguity(e1, smeared, max_order=1)


def test_quadrature_runs_do_not_grow_with_probes_or_scales(monkeypatch):
    """extension_ambiguity pairs all its probes, and the regression all 8
    of its scales, in one batch: as many quad_complex runs as one probe
    takes, whatever the number of probes (2 (max_order + 1) + 6)."""
    runs, real = [], dist1d.quad_complex

    def counting(*args, **kw):
        runs.append(args[1:3])
        return real(*args, **kw)
    monkeypatch.setattr(dist1d, "quad_complex", counting)
    t = SymbolicDistribution1D.power_i0(-2.0, +1)
    w1, w2 = (eg.extend(t, eg.make_w_projection(1, r0, R))
              for r0, R in ((0.4, 0.8), (0.25, 0.6)))
    ms = eg.ms_extension(lambda z: SymbolicDistribution1D.power_i0(-2.0 + z))
    wide = TestFunction1D.from_poly((1.0, 0.3), 0.3, 1.5)  # beyond 1

    def one_probe(e):
        runs.clear()
        e.pair_batch([wide])
        return len(runs)
    # two panels each side of the origin: inside and beyond |x| = 1
    assert one_probe(w1) == one_probe(w2) == one_probe(ms) == 4
    for e in (w1, ms):
        for max_order in (1, 2, 4):
            runs.clear()
            eg.extension_ambiguity(e, w2, max_order=max_order)
            assert len(runs) == 8, (max_order, runs)
    for term in (t, SymbolicDistribution1D.halfline(-0.5, +1, 1),
                 SymbolicDistribution1D.monomial(1)):
        runs.clear()
        term.pair_batch([probe()])
        one = len(runs)
        runs.clear()
        eg.scaling_degree_regression(term)
        assert len(runs) == one > 0


# --------------------------------------------------------------------------
# analytic regularization

def test_entire_family_has_no_pole():
    family = lambda z: SymbolicDistribution1D.power_i0(-1.0 + z, +1)
    f = probe()
    rep = eg.analytic_regularization(family, f, 3)
    assert rep["pole_order"] == 0
    assert rep["principal"] == []
    direct = SymbolicDistribution1D.power_i0(-1.0, +1).pair(f)
    assert rep["regular_value"] == pytest.approx(direct, abs=1e-7)


def test_simple_pole_residue_is_the_value_at_zero():
    family = lambda z: SymbolicDistribution1D.halfline(z - 1.0, +1)
    f = probe()
    rep = eg.analytic_regularization(family, f, 3)
    assert rep["pole_order"] == 1
    assert rep["principal"][0] == pytest.approx(f(0.0), abs=1e-7)


def test_second_pole_residue_is_the_first_jet():
    family = lambda z: SymbolicDistribution1D.halfline(z - 2.0, +1)
    f = probe((0.8, -0.6, 0.3))
    rep = eg.analytic_regularization(family, f, 3)
    assert rep["pole_order"] == 1
    assert rep["principal"][0] == pytest.approx(f.derivative_at_0(1),
                                                abs=1e-6)


def test_pole_cap_enforced():
    family = lambda z: SymbolicDistribution1D.halfline(z - 1.0, +1)
    with pytest.raises(eg.PoleOrderExceeded):
        eg.analytic_regularization(family, probe(), pole_cap=0)


def test_minimal_subtraction_against_oracle():
    family = lambda z: SymbolicDistribution1D.halfline(z - 1.0, +1)
    for poly, r0, R in (((1.0, 0.4), 0.5, 1.0),
                        ((0.5, -0.3, 0.2), 0.5, 2.0)):
        f = probe(poly, r0, R)
        got = eg.minimal_subtraction(family, f, pole_cap=eg.MS_POLE_CAP)
        assert got == pytest.approx(ms_oracle_inverse_x(f), abs=1e-8)
        ext = eg.ms_extension(family)
        assert ext.pair(f) == pytest.approx(got, rel=1e-12)


def test_feynman_square_demo_report():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = eg.feynman_square_demo()
    assert [str(w.message) for w in caught] == []
    assert rep["scaling_degree_symbolic"] == 2.0
    assert rep["scaling_degree_regression"] == pytest.approx(2.0, abs=0.05)
    assert rep["divergence_degree"] == 1.0
    assert rep["ambiguity_residual"] < 1e-7
    c0, c1 = rep["ambiguity_coefficients"]
    # the delta' mismatch between the schemes is exactly -i pi
    assert c1 == pytest.approx(-1j * math.pi, abs=1e-6)
    assert abs(c0.imag) < 1e-6
    d = rep["w_value_probe"] - rep["ms_value_probe"]
    assert np.isfinite(d.real) and np.isfinite(d.imag)
