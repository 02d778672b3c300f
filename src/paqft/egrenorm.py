"""Extension of singular distributions across the origin.

Workflow: measure the scaling degree (symbolically and by a scaling
regression), read off the divergence degree, then either project test
functions onto the subspace vanishing to that order (W-scheme) or remove the
pole of an analytic regularization (minimal subtraction, from Laurent
coefficients read off as trapezoid sums on two small circles, each with its
error bound).  Different schemes differ by local terms only; the difference
is fitted and certified here.
"""

from __future__ import annotations

import math
import random
import warnings

import numpy as np

from . import CheckFailed
from .dist1d import (DistError, SymbolicDistribution1D, TestFunction1D,
                     pair_family, pointwise_power_product)


class ExtensionError(DistError, CheckFailed):
    pass


class NonLocalDifference(ExtensionError):
    """Two extensions differ by something not supported at the origin."""


class PoleOrderExceeded(ExtensionError):
    pass


class NegativeDivergenceWarning(UserWarning):
    """Extension is unique; a supplied projection was ignored."""


def unit_scaled(t: SymbolicDistribution1D):
    """(s, t / s) for s the power of two at the largest |coefficient| of t,
    1 when that lies in [1, 2).  The division is exact, and so is scaling a
    result linear in t back by s, unless a value overflows or underflows."""
    top = max((abs(c) for c, _ in t.terms), default=1.0)
    s = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return s, SymbolicDistribution1D([(c / s, kind) for c, kind in t.terms])


def scaling_degree_regression(t: SymbolicDistribution1D) -> float:
    """The largest of minus the slopes of log|<t(lam .), f>| against log(lam)
    over lam = 2^-1..2^-8, one per term of t (a sum of terms of different
    degree has no one slope), each unit_scaled (a common factor cannot
    change the slope, and a huge or tiny one would overflow the samples or
    drop them under the floor).

    The probe f is 1 + x/2 - x^2/4 + x^3/8 + ... + x^k/8 on its plateau, k
    the term's delta order (at least 2), so that delta^k pairs to a nonzero
    value.  A delta order whose scaled pairings overflow the float range
    (k! alone does above 170) raises ExtensionError."""
    # an empty t is regressed whole, and finds no samples
    parts = [SymbolicDistribution1D([term]) for term in t.terms] or [t]
    return max(map(_term_regression, parts))


def _term_regression(t: SymbolicDistribution1D) -> float:
    t = unit_scaled(t)[1]
    k = max([2] + [kind[1] for _, kind in t.terms if kind[0] == "delta"])
    overflow = ExtensionError(f"scaling regression: the scaled pairings of "
                              f"delta^{k} overflow the float range")
    if k > 170:
        raise overflow
    probe = TestFunction1D.from_poly((1.0, 0.5, -0.25) + (0.125,) * (k - 2),
                                     0.5, 1.0)
    lams = 2.0 ** -np.arange(1, 9)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v = t.pair_scaled(lams, probe)
    except OverflowError:
        raise overflow from None
    if not np.isfinite(v).all():
        raise overflow
    keep = abs(v) > 1e-300
    if np.count_nonzero(keep) < 4:
        raise ExtensionError("scaling regression needs more nonzero samples")
    slope = np.polyfit(np.log(lams[keep]), np.log(abs(v[keep])), 1)[0]
    return -float(slope)


def divergence_degree(t: SymbolicDistribution1D) -> float:
    """Scaling degree minus the dimension of the line."""
    return t.scaling_degree() - 1.0


def make_w_projection(order: int, r0: float = 0.5, R: float = 1.0):
    """w_alpha = x^alpha / alpha! * window, alpha = 0..order; these satisfy
    w_alpha^(beta)(0) = delta_ab exactly on the plateau."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [TestFunction1D([(1.0 / math.factorial(alpha),
                             (0.0,) * alpha + (1.0,), r0, R)])
            for alpha in range(order + 1)]


def w_project(f: TestFunction1D, w_alphas) -> TestFunction1D:
    """f minus its jet at the origin paired into the w family: f's atoms,
    then each w_alpha's atoms scaled by -f^(alpha)(0); the result vanishes
    at 0 to the order of the family."""
    atoms = list(f.atoms)
    for alpha, w in enumerate(w_alphas):
        c = f.derivative_at_0(alpha)
        if c:
            atoms += [(coeff * c * -1, poly, r0, R)
                      for coeff, poly, r0, R in w.atoms]
    return TestFunction1D(atoms)


class ExtendedDistribution:
    """A distribution extended across the origin, by a W-scheme projection
    or by minimal subtraction, as its batch pairing: pair_batch(fs) gives
    (values, error estimates) on the test functions fs, in one batch."""

    __slots__ = ("pair_batch",)

    def __init__(self, pair_batch):
        self.pair_batch = pair_batch

    def pair(self, f: TestFunction1D) -> complex:
        return complex(self.pair_batch([f])[0][0])


def extend(t: SymbolicDistribution1D, w_alphas=None) -> ExtendedDistribution:
    """Extension across the origin.

    div < 0: the extension is unique, any supplied projection is ignored
    (with a warning).  div >= 0: project onto test functions vanishing to
    order floor(div) using the supplied (or default) w family.
    """
    div = divergence_degree(t)
    if div < 0:
        if w_alphas is not None:
            warnings.warn("negative divergence degree: unique extension, "
                          "projection ignored", NegativeDivergenceWarning)
        return ExtendedDistribution(t.pair_batch)
    k = int(math.floor(div))
    if w_alphas is None:
        w_alphas = make_w_projection(k)
    if len(w_alphas) < k + 1:
        raise ExtensionError(
            f"need w_alpha up to order {k}, got {len(w_alphas)}")
    w_alphas = list(w_alphas)
    return ExtendedDistribution(
        lambda fs: t.pair_batch([w_project(f, w_alphas) for f in fs]))


def extension_ambiguity(e1: ExtendedDistribution, e2: ExtendedDistribution,
                        max_order: int):
    """Fit e1 - e2 = sum_a c_a delta^(a), a <= max_order, over
    2 (max_order + 1) + 6 random probes drawn from a fixed seed, each
    extension pairing all of them in one batch.

    Returns (coefficients, max residual).  A residual above 1e-8 times the
    largest difference (at least 1) means the difference is not local at the
    origin and the fit is rejected.
    """
    rng = random.Random(11)
    m = 2 * (max_order + 1) + 6
    probes = [TestFunction1D.random_probe(rng, max_degree=max_order + 2)
              for _ in range(m)]
    b = e1.pair_batch(probes)[0] - e2.pair_batch(probes)[0]
    A = np.array([[(-1) ** alpha * f.derivative_at_0(alpha)
                   for alpha in range(max_order + 1)] for f in probes])
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.max(np.abs(A @ coeffs - b))
    scale = max(1.0, float(np.max(np.abs(b))))
    if resid > 1e-8 * scale:
        raise NonLocalDifference(
            f"difference is not a local term (residual {resid:.3e})")
    return coeffs, float(resid)


# Minimal subtraction samples a family on the circles |zeta| = r of MS_RADII,
# MS_ANGLES half-offset angles each, and reads the Laurent coefficients on
# the last (smallest) circle.  The regular part's nearest other singularity
# sits at |zeta| ~ 1 for the families here, so aliasing falls like r^N.
MS_RADII = (0.1, 0.05)
MS_ANGLES = 16  # even: each circle is built in conjugate pairs
MS_POLE_CAP = 3  # the largest pole order a minimal subtraction removes


def ms_circle() -> np.ndarray:
    """The sample points zeta, shape (len(MS_RADII), MS_ANGLES): angles
    2 pi (j + 1/2) / MS_ANGLES, the upper half computed and point
    MS_ANGLES - 1 - j the exact conjugate of point j, so that a real test
    function pairs each sample of the lower half as the conjugate of its
    mate (dist1d._pair_halfline)."""
    upper = np.exp(2j * np.pi * (np.arange(MS_ANGLES // 2) + 0.5) / MS_ANGLES)
    return np.multiply.outer(MS_RADII, np.concatenate(
        [upper, upper[::-1].conj()]))


def analytic_regularization(family, f: TestFunction1D,
                            pole_cap: int) -> dict:
    """Laurent data of zeta -> <family(zeta), f> around zeta = 0.

    family maps a nonzero complex zeta to a SymbolicDistribution1D of one
    term layout; one pair_family run pairs it at every point of ms_circle().
    On a circle of radius r the trapezoid sum c_k = mean(v_j zeta_j^-k) is
    the Laurent coefficient up to aliasing by c_(k +- N) r^N.  Read on the
    smallest circle, c_k carries the bound

        (max sample abserr + N eps max|v|) r^-k + |c_k(r') - c_k(r)|,

    the quadrature and rounding error of the sum plus the gap to the larger
    circle r' as the aliasing estimate.  The pole order p is the largest
    k <= pole_cap + 1 with |c_-k| above its bound; p > pole_cap raises
    PoleOrderExceeded.  pole_margin is the smaller of |c_-p| over its bound
    and each bound over |c_-k| for k > p (inf when neither exists), and
    error bounds regular_value = c_0.
    """
    return _regularizations(family, [f], pole_cap)[0]


def _regularizations(family, fs, pole_cap: int) -> list:
    """analytic_regularization on each test function of fs, with one
    pair_family run for every circle sample and every f."""
    zetas = ms_circle()
    vals, errs = pair_family([family(z) for z in zetas.ravel()], fs)
    return [_laurent_data(zetas, v, e, pole_cap)
            for v, e in zip(vals.T, errs.T)]


def _laurent_data(zetas, vals, errs, pole_cap: int) -> dict:
    """analytic_regularization's report from the samples vals at zetas."""
    ks = np.arange(pole_cap + 2)  # c_-k for k = 0 .. pole_cap + 1
    coeffs = np.mean(vals.reshape(zetas.shape)[..., None]
                     * zetas[..., None] ** ks, axis=1)  # one row per circle
    noise = np.max(errs) + MS_ANGLES * np.finfo(float).eps * np.max(abs(vals))
    bound = noise * MS_RADII[-1] ** ks + abs(coeffs[0] - coeffs[-1])
    c = coeffs[-1]
    above = np.flatnonzero(abs(c[1:]) > bound[1:])
    p = int(above[-1]) + 1 if len(above) else 0
    ratios = [abs(c[p]) / bound[p]] if p else []
    ratios += [bound[k] / abs(c[k]) for k in range(p + 1, len(ks)) if c[k]]
    margin = min(ratios, default=math.inf)
    if p > pole_cap:
        raise PoleOrderExceeded(
            f"pole order {p} exceeds {pole_cap} (margin {margin:.1e})")
    return {
        "pole_order": p,
        "principal": [complex(v) for v in c[p:0:-1]],  # c_-p .. c_-1
        "regular_value": complex(c[0]),
        "error": float(bound[0]),
        "pole_margin": margin,
    }


def minimal_subtraction(family, f: TestFunction1D, pole_cap: int) -> complex:
    """Regular value at zeta = 0 after removing the principal part."""
    return analytic_regularization(family, f, pole_cap)["regular_value"]


def ms_extension(family) -> ExtendedDistribution:
    """Minimal-subtraction extension: the MS values on the test functions
    fs and their error bounds, from one pair_family run over the circle
    samples and all f."""
    def pair_batch(fs):
        reps = _regularizations(family, fs, MS_POLE_CAP)
        return (np.array([r["regular_value"] for r in reps]),
                np.array([r["error"] for r in reps]))
    return ExtendedDistribution(pair_batch)


def feynman_square_demo() -> dict:
    """Square of the model propagator 1/(x + i0), extended two ways.

    Returns the scaling/divergence data, the W-scheme and minimal-subtraction
    values on a probe, and the fitted local ambiguity between the schemes.
    """
    prop = SymbolicDistribution1D.power_i0(-1.0)
    square = pointwise_power_product(prop, prop)
    sd_sym = square.scaling_degree()
    sd_reg = scaling_degree_regression(square)
    div = divergence_degree(square)

    ext_w = extend(square)
    family = lambda z: SymbolicDistribution1D.power_i0(-2.0 + z)
    ext_ms = ms_extension(family)

    coeffs, resid = extension_ambiguity(ext_w, ext_ms, max_order=1)
    probe = TestFunction1D.from_poly((1.0, -0.5, 0.25, 0.125), 0.4, 0.9)
    return {
        "scaling_degree_symbolic": sd_sym,
        "scaling_degree_regression": sd_reg,
        "divergence_degree": div,
        "w_value_probe": ext_w.pair(probe),
        "ms_value_probe": ext_ms.pair(probe),
        "ambiguity_coefficients": list(coeffs),
        "ambiguity_residual": resid,
    }
