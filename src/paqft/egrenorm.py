"""Extension of singular distributions across the origin.

Workflow: measure the scaling degree (symbolically and by a scaling
regression), read off the divergence degree, then either project test
functions onto the subspace vanishing to that order (W-scheme) or remove the
pole of an analytic regularization (minimal subtraction).  Different schemes
differ by local terms only; the difference is fitted and certified here.
"""

from __future__ import annotations

import cmath
import math
import random
import warnings

import numpy as np

from .dist1d import (DistError, SymbolicDistribution1D, TestFunction1D,
                     pair_family, pointwise_power_product)


class ExtensionError(DistError):
    pass


class NonLocalDifference(ExtensionError):
    """Two extensions differ by something not supported at the origin."""


class PoleOrderExceeded(ExtensionError):
    pass


class NegativeDivergenceWarning(UserWarning):
    """Extension is unique; a supplied projection was ignored."""


def scaling_degree(t: SymbolicDistribution1D) -> float:
    return t.scaling_degree()


def scaling_degree_regression(t: SymbolicDistribution1D,
                              probe: TestFunction1D | None = None,
                              lams=None) -> float:
    """Slope of log|<t(lam .), f>| against log(lam); sd is minus the slope."""
    if probe is None:
        probe = TestFunction1D.from_poly((1.0, 0.5, -0.25), 0.5, 1.0)
    if lams is None:
        lams = [2.0 ** -k for k in range(1, 9)]
    xs, ys = [], []
    for lam in lams:
        v = t.pair_scaled(lam, probe)
        if abs(v) > 1e-300:
            xs.append(math.log(lam))
            ys.append(math.log(abs(v)))
    if len(xs) < 4:
        raise ExtensionError("scaling regression needs more nonzero samples")
    slope = np.polyfit(xs, ys, 1)[0]
    return -float(slope)


def divergence_degree(t: SymbolicDistribution1D) -> float:
    """Scaling degree minus the dimension of the line."""
    return t.scaling_degree() - 1.0


def make_w_projection(order: int, r0: float = 0.5, R: float = 1.0):
    """w_alpha = x^alpha / alpha! * window, alpha = 0..order; these satisfy
    w_alpha^(beta)(0) = delta_ab exactly on the plateau."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [TestFunction1D.monomial(alpha, r0, R, coeff=1.0 / math.factorial(alpha))
            for alpha in range(order + 1)]


def w_project(f: TestFunction1D, w_alphas) -> TestFunction1D:
    """f minus its jet at the origin paired into the w family; the result
    vanishes at 0 to the order of the family."""
    out = f
    for alpha, w in enumerate(w_alphas):
        c = f.derivative_at_0(alpha)
        if c:
            out = out - w * c
    return out


class ExtendedDistribution:
    """A distribution extended across the origin with a W-scheme projection
    (or unmodified when the divergence degree is negative)."""

    __slots__ = ("base", "w_alphas", "div")

    def __init__(self, base: SymbolicDistribution1D, w_alphas, div: float):
        self.base = base
        self.w_alphas = w_alphas
        self.div = div

    def pair(self, f: TestFunction1D) -> complex:
        return self.pair_with_error(f)[0]

    def pair_with_error(self, f: TestFunction1D):
        """(<t, f>, quadrature error estimate) of the extension."""
        if self.w_alphas is None:
            return self.base.pair_with_error(f)
        return self.base.pair_with_error(w_project(f, self.w_alphas))


def extend(t: SymbolicDistribution1D, w_alphas=None,
           order: int | None = None) -> ExtendedDistribution:
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
        return ExtendedDistribution(t, None, div)
    k = int(math.floor(div)) if order is None else order
    if w_alphas is None:
        w_alphas = make_w_projection(k)
    if len(w_alphas) < k + 1:
        raise ExtensionError(
            f"need w_alpha up to order {k}, got {len(w_alphas)}")
    return ExtendedDistribution(t, list(w_alphas), div)


def extension_ambiguity(e1: ExtendedDistribution, e2: ExtendedDistribution,
                        max_order: int, n_probes: int | None = None,
                        seed: int = 11, tol: float = 1e-8):
    """Fit e1 - e2 = sum_a c_a delta^(a), a <= max_order, over random probes.

    Returns (coefficients, max residual).  A residual above tol means the
    difference is not local at the origin and the fit is rejected.
    """
    rng = random.Random(seed)
    m = n_probes or 2 * (max_order + 1) + 6
    probes = [TestFunction1D.random_probe(rng, max_degree=max_order + 2)
              for _ in range(m)]
    A = np.zeros((m, max_order + 1), dtype=complex)
    b = np.zeros(m, dtype=complex)
    for i, f in enumerate(probes):
        b[i] = e1.pair(f) - e2.pair(f)
        for alpha in range(max_order + 1):
            A[i, alpha] = (-1) ** alpha * f.derivative_at_0(alpha)
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.max(np.abs(A @ coeffs - b))
    scale = max(1.0, float(np.max(np.abs(b))))
    if resid > tol * scale:
        raise NonLocalDifference(
            f"difference is not a local term (residual {resid:.3e})")
    return coeffs, float(resid)


def analytic_regularization(family, f: TestFunction1D, pole_cap: int = 3,
                            radii=(0.1, 0.05), n_angles: int = 8,
                            tail_order: int = 8, tol: float = 1e-9) -> dict:
    """Laurent data of zeta -> <family(zeta), f> around zeta = 0.

    family maps a nonzero complex zeta to a SymbolicDistribution1D of one
    term layout.  Samples on small circles (one pair_family run) are fitted
    to sum_{k=-p}^{q} c_k zeta^k for increasing pole order p; the first p
    whose fit residual is below tol * scale (the largest sample, at least 1)
    wins, with pole_margin the factor by which the nearer of it and the
    order-(p-1) fit clears tol * scale.  The analytic tail must be long
    enough to push the truncation error below tol at the outer radius.
    """
    zetas = [r * cmath.exp(2j * math.pi * (j + 0.5) / n_angles)
             for r in radii for j in range(n_angles)]
    vals, errs = pair_family([family(z) for z in zetas], f)
    zetas = np.array(zetas)
    threshold = tol * max(1.0, float(np.max(np.abs(vals))))
    margin = math.inf
    for p in range(pole_cap + 1):
        powers = list(range(-p, tail_order + 1))
        A = np.array([[z ** k for k in powers] for z in zetas])
        # column scaling keeps the Vandermonde solvable in double precision
        colscale = np.max(np.abs(A), axis=0)
        sol, *_ = np.linalg.lstsq(A / colscale, vals, rcond=None)
        coeffs = sol / colscale
        resid = float(np.max(np.abs(A @ coeffs - vals)))
        if resid < threshold:
            by_power = dict(zip(powers, coeffs))
            return {
                "pole_order": p,
                "principal": [by_power[k] for k in range(-p, 0)],
                "regular_value": complex(by_power[0]),
                "coefficients": by_power,
                "residual": resid,
                "n_samples": len(vals),
                "sample_error": float(np.max(errs)),
                "pole_margin": min(margin, threshold / resid if resid
                                   else math.inf),
            }
        margin = resid / threshold
    raise PoleOrderExceeded(
        f"no fit with pole order <= {pole_cap} (residual {resid:.3e})")


def minimal_subtraction(family, f: TestFunction1D, **kw) -> complex:
    """Regular value at zeta = 0 after removing the principal part."""
    return analytic_regularization(family, f, **kw)["regular_value"]


def ms_extension(family, pole_cap: int = 3, **kw):
    """Minimal-subtraction extension as a pairing closure."""

    class _MS:
        def pair(self, f):
            return minimal_subtraction(family, f, pole_cap=pole_cap, **kw)

    return _MS()


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
