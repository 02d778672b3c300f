"""Acceptance battery: thirteen numbered end-to-end checks.

Each criterion is a function returning (passed, one-line detail); run_all
times it, records its warnings, numbers it by its position in ALL, and
records a CheckFailed it raises as its failure, with the message.  The
same battery backs tests/test_acceptance.py and the CLI `suite` subcommand,
so pass and fail mean the same thing everywhere.  The checks a criterion
shares with a CLI command (the commutator, Bogoliubov, W-extension, flow
and GNS checks below, quantization.wick_theorem_demo and
graphs.tadpole_demo) are one function each, called by both: the command
with its config and seed, the criterion with its fixed inputs.

Exact checks compare rational/Gaussian-rational coefficients for literal
equality; numeric checks state their tolerance in the detail line.
"""

import math
import random
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import CheckFailed, InputError
from .exact import ExactComplex
from .series import FormalSeries
from .lattice import Lattice1p1, ExactPropagators
from .functionals import (PolyFunctional, smeared_field, local_power,
                          interaction_vertex, pointwise_product, free_action)
from . import quantization as qz
from . import graphs as gr
from . import dist1d
from . import egrenorm as eg
from . import microlocal as ml
from . import algebra as alg


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    seconds: float
    detail: str
    warnings: dict = field(default_factory=dict)  # category name -> count

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        out = "AC%02d %s %6.2fs  %s: %s" % (
            self.index, tag, self.seconds, self.title, self.detail)
        if self.warnings:
            out += "; warnings: " + ", ".join(
                "%s x%d" % kv for kv in sorted(self.warnings.items()))
        return out


@lru_cache(maxsize=None)
def _ctx(n_t, n_x):
    """An n_t x n_x lattice (a_t = 1/2, a_x = 1, m = 1) and its kernels."""
    lat = Lattice1p1(n_t, n_x)
    return lat, ExactPropagators(lat)


def small_weight(rng):
    """A small random nonzero rational: numerator in [-9, 9], denominator
    in [1, 4]."""
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))


def sparse_smear(rng, lat, n_sites):
    """n_sites random sites with small random rational weights; more sites
    than the lattice has raise InputError."""
    if n_sites > lat.n_sites:
        raise InputError("n_sites = %d: the lattice has %d sites" % (
            n_sites, lat.n_sites))
    out = {}
    while len(out) < n_sites:
        s = rng.randrange(lat.n_sites)
        out[s] = small_weight(rng)
    return out


def _random_poly(rng, lat, max_degree, sites):
    """Two random monomials of degree <= max_degree on `sites`."""
    terms = {}
    for _ in range(2):
        deg = rng.randint(1, max_degree)
        key = tuple(sorted(rng.choice(sites) for _ in range(deg)))
        c = ExactComplex(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)))
        terms[key] = terms.get(key, ExactComplex(0)) + c
    return PolyFunctional(lat, terms)


# ----------------------------------------------------- checks shared with cli

GNS_RESIDUAL_TOL = 1e-10  # a GNS residual passes below this
FLOW_DRIFT_TOL = 1e-8  # symbol drift per unit time of a null ray


def tol_text(tol):
    """A tolerance as a detail line writes it: 1e-8, not 1e-08."""
    return np.format_float_scientific(tol, trim="-", exp_digits=1)


def commutator_check(xp, f, g):
    """[Phi(f), Phi(g)] under the star_H product, <f, Delta g>, and whether
    the commutator is exactly i hbar <f, Delta g> times the unit."""
    lat = xp.lat
    comm = qz.QuantProduct(xp, "star_H").commutator(smeared_field(lat, f),
                                                     smeared_field(lat, g))
    val = Fraction(0)  # <f, Delta g> = sum vol^2 f_i Delta(i,j) g_j
    for i, fi in f.items():
        for j, gj in g.items():
            val += fi * xp.causal_entry(i, j) * gj
    val *= lat.volume_weight ** 2
    want = PolyFunctional(
        lat, {(): FormalSeries({(1, 0): ExactComplex(0, val)})})
    return comm, val, comm == want


def round_trip(bog, F):
    """R(F) and whether Rinv(R(F)) = F exactly."""
    RF = bog.R(F)
    return RF, bog.Rinv(RF) == F


W_RADII = ((0.4, 0.8), (0.25, 0.6))  # (inner, outer) radius of each W scheme


def w_extensions(t):
    """Extend t across the origin by the two W-projections of W_RADII and
    fit their difference by delta derivatives up to the extension order
    floor(div); below div 0 the extension is unique and takes no
    projection.  Returns (div, order, e1, e2, coefficients, residual)."""
    div = eg.divergence_degree(t)
    order = max(0, int(math.floor(div)))
    e1, e2 = (eg.extend(t, eg.make_w_projection(order, r0, R)
                        if div >= 0 else None) for r0, R in W_RADII)
    coeffs, resid = eg.extension_ambiguity(e1, e2, max_order=order)
    return div, order, e1, e2, coeffs, resid


def flow_drift(x0, k0, dt, n_steps, metric_inv=None):
    """The null bicharacteristic from (x0, k0) over n_steps of dt and its
    symbol drift per unit of the flow's duration |dt| * n_steps; a flow of
    no duration has no rate, and raises ZeroDivisionError."""
    r = ml.bicharacteristic_flow(x0, k0, dt, n_steps, metric_inv=metric_inv)
    return r, r["sigma_drift"] / abs(r["time"])


def gns_states():
    """The built-in states as (name, AlgebraState)."""
    c2 = alg.functions_on_points(2)
    m2 = alg.matrix_algebra(2)
    return [("C2 point evaluation", alg.AlgebraState(c2, [1.0, 0.0])),
            ("M2 vector state", alg.AlgebraState(m2, [1.0, 0.0, 0.0, 0.0])),
            ("M2 tracial state", alg.AlgebraState(m2, [0.5, 0.0, 0.0, 0.5]))]


GNS_RESIDUALS = ("residual_homomorphism", "residual_adjoint",
                 "residual_state")


def gns_check(states):
    """The GNS representation of each (name, AlgebraState), and whether
    each is cyclic with every residual below GNS_RESIDUAL_TOL."""
    reps = [alg.gns_construct(state.alg, state) for _, state in states]
    return reps, all(r["cyclic"]
                     and max(r[k] for k in GNS_RESIDUALS) < GNS_RESIDUAL_TOL
                     for r in reps)


# ---------------------------------------------------------------- criteria

def criterion(title):
    """Give the decorated criterion the title its report line shows."""
    def register(fn):
        fn.title = title
        return fn
    return register


@criterion("field commutator on 24x24 (m=1)")
def crit_01():
    """Smeared-field commutator equals i hbar <f, Delta g> times the unit."""
    lat, xp = _ctx(24, 24)
    rng = random.Random(101)
    good = 0
    for _ in range(20):
        f = sparse_smear(rng, lat, rng.randint(4, 6))
        g = sparse_smear(rng, lat, rng.randint(4, 6))
        good += commutator_check(xp, f, g)[2]
    return good == 20, ("%d/20 random pairs exact to hbar<=2 (coefficient "
                        "equality)" % good)


@criterion("Wick expansion of (phi^2 f)(phi^2 g)")
def crit_02():
    """Three-term Wick structure with normal-ordered coefficients 4 and 2;
    the degree-2 products of the two factors and of a third that shares a
    site with each are independent, so they determine them.  The shared
    sites give the products common monomials, so the rank takes
    elimination steps."""
    lat, xp = _ctx(8, 4)
    f1 = {lat.site(3, 1): Fraction(2, 3), lat.site(4, 2): Fraction(-1, 2)}
    f2 = {lat.site(3, 2): Fraction(1), lat.site(5, 0): Fraction(3, 4)}
    f3 = {lat.site(3, 1): Fraction(1), lat.site(3, 2): Fraction(-2, 5)}
    inj = qz.multilocal_injectivity_check(
        [local_power(lat, f, 2) for f in (f1, f2, f3)], 2)
    return (qz.wick_theorem_demo(xp, f1, f2)["match"] and inj["injective"],
            "three terms, binding coefficients (1, 4, 2), exact match; "
            "degree-2 products of three factors sharing sites have rank %d "
            "of %d over %d monomials" % (inj["rank"], inj["expected"],
                                          inj["n_monomials"]))


@criterion("classical limit and Peierls Jacobi")
def crit_03():
    """Classical limit, the Peierls bracket against its defining sum
    sum_{y,z} vol^2 dF/dphi(y) Delta(y, z) dG/dphi(z) built term by term
    from functional derivatives, and the Jacobi identity."""
    lat, xp = _ctx(24, 24)
    rng = random.Random(103)
    sites = [rng.randrange(lat.n_sites) for _ in range(6)]
    prod = qz.QuantProduct(xp, "star_H")
    ok_cl = True
    for _ in range(5):
        F = _random_poly(rng, lat, 3, sites)
        G = _random_poly(rng, lat, 3, sites)
        if (gr.h_slice(prod.product(F, G), 0)
                != gr.h_slice(pointwise_product(F, G), 0)):
            ok_cl = False
    F = _random_poly(rng, lat, 3, sites)
    G = _random_poly(rng, lat, 3, sites)
    H = _random_poly(rng, lat, 3, sites)
    FG = qz.peierls_bracket(F, G, xp)
    w2 = lat.volume_weight ** 2
    by_sum = PolyFunctional.constant(lat, 0, FG.trunc_h, FG.trunc_l)
    for y in F.support():
        for z in G.support():
            by_sum = by_sum + pointwise_product(
                F.func_derivative(y),
                G.func_derivative(z)) * (w2 * xp.causal_entry(y, z))
    J = (qz.peierls_bracket(F, qz.peierls_bracket(G, H, xp), xp)
         + qz.peierls_bracket(G, qz.peierls_bracket(H, F, xp), xp)
         + qz.peierls_bracket(H, FG, xp))
    jacobi = J.is_zero()
    return ok_cl and FG == by_sum and jacobi, (
        "hbar^0 slice = pointwise exactly; {F, G} %s the sum of dF Delta dG; "
        "Jacobi sum %s" % ("==" if FG == by_sum else "!=",
                           "== 0 exactly" if jacobi else "nonzero"))


@criterion("alpha_H equivalence of star products")
def crit_04():
    """alpha_H carries the Wightman star product to the Hadamard one."""
    lat, xp = _ctx(24, 24)
    rng = random.Random(104)
    sites = [rng.randrange(lat.n_sites) for _ in range(6)]
    bad = 0
    for _ in range(20):
        F = _random_poly(rng, lat, 3, sites)
        G = _random_poly(rng, lat, 3, sites)
        if not qz.star_H_equivalence_check(xp, F, G).is_zero():
            bad += 1
    return bad == 0, ("%d/20 random degree<=3 pairs agree exactly"
                      % (20 - bad))


@criterion("tadpole self-line cancellation")
def crit_05():
    """Self-contraction terms cancel in the tadpole-dressed product."""
    lat, xp = _ctx(8, 4)
    r = gr.tadpole_demo(xp, {lat.site(3, 1): Fraction(1, 2)},
                        {lat.site(4, 2): Fraction(2, 3)})
    return (r["self_terms_cancel"],
            "order-hbar slice of dressed product has no self-contractions, "
            "exact")


@criterion("graph expansion of T2/T3 and Sym factors")
def crit_06():
    """Graph expansion of T-products, the time-ordering operator
    T = e^{(hbar/2) Gamma_F}, and symmetry factor cross-check."""
    lat, xp = _ctx(8, 4)
    rng = random.Random(106)
    sites = [rng.randrange(lat.n_sites) for _ in range(4)]
    prod = qz.QuantProduct(xp, "timeordered_F")
    T = lambda F, sign: qz.exp_gamma(F, prod.kernel, Fraction(sign, 2))
    ok_graphs = True
    for n in (2, 3):
        for _ in range(3):
            fs = [_random_poly(rng, lat, 2, sites) for _ in range(n)]
            direct = prod.multi(fs)
            if gr.graph_expand_Tn(fs, xp) != direct or (n == 2 and direct != T(
                    pointwise_product(T(fs[0], -1), T(fs[1], -1)), 1)):
                ok_graphs = False
    graphs = [g for n in (2, 3, 4) for g in gr.enumerate_graphs(n, 4)]
    ok_sym = all(gr.symmetry_factor(g) == gr.symmetry_factor_multinomial(g)
                 for g in graphs)
    return ok_graphs and ok_sym, (
        "graph sum = direct product exactly (hbar<=2), and = "
        "T(T^-1 F . T^-1 G) for two factors; Sym = multinomial on "
        "%d graphs with <=4 lines" % len(graphs))


@criterion("causal factorization S(V1+V2) = S(V1) * S(V2)")
def crit_07():
    """Causal factorization of the S-matrix to second order in the coupling."""
    lat, xp = _ctx(8, 4)
    g1 = {lat.site(5, 1): Fraction(1, 2)}   # later
    g2 = {lat.site(2, 3): Fraction(1, 3)}   # earlier, also spacelike part
    V1 = interaction_vertex(lat, g1, 4)
    V2 = interaction_vertex(lat, g2, 4)
    return (qz.causal_factorization_check(xp, V1, V2).is_zero(),
            "residual functional identically zero to order lambda^2")


@criterion("Bogoliubov round trip and star_S associativity")
def crit_08():
    """Bogoliubov map round trip, interacting product associativity, the
    interacting field equation R_V(dS0/dphi(x) - i hbar dV/dphi(x)) ==
    dS0/dphi(x) at x = (5, 1), and the *-algebra and local net: R_V(F)* ==
    R_{-conj V}(F*), and [R F, R G]_{*_H} == 0 for F = (1 + 2i) phi^2 +
    phi/3 on (6, 0) and G = phi^2 + i phi on (6, 2), spacelike to each
    other with the vertex (5, 1) in both their pasts, so R moves both and
    the commutator is the telescoped one of two nonlinear functionals.
    The commutator runs at truncation (3, 3), where K-lines first run both
    ways between F and G, so it sees their direction; truncation commutes
    with every operation of the chain, so it holds at (2, 2) as well.
    The first two hold for any V; the field equation ties R_V to the
    action, and has teeth only because x is a vertex: built from -V or 2V
    the map fails it."""
    lat, xp = _ctx(8, 4)
    vertices = {lat.site(3, 1): Fraction(1), lat.site(5, 1): Fraction(1)}
    S_I = interaction_vertex(lat, vertices, 4)
    bog = qz.BogoliubovMap(xp, S_I)
    rng = random.Random(108)
    sites = [rng.randrange(lat.n_sites) for _ in range(4)]
    ok_rt = all([round_trip(bog, _random_poly(rng, lat, 2, sites))[1]
                 for _ in range(3)])  # a list: every draw is made
    ok_assoc = True
    for _ in range(2):
        A = _random_poly(rng, lat, 2, sites)
        B = _random_poly(rng, lat, 2, sites)
        C = _random_poly(rng, lat, 2, sites)
        lhs = bog.star_interacting(A, bog.star_interacting(B, C))
        rhs = bog.star_interacting(bog.star_interacting(A, B), C)
        if lhs != rhs:
            ok_assoc = False
    x = lat.site(5, 1)
    dS0 = free_action(lat).func_derivative(x)
    i_hbar = FormalSeries({(1, 0): ExactComplex(0, 1)})
    ok_eom = bog.R(dS0 - S_I.func_derivative(x) * i_hbar) == dS0

    def pair(t):  # F and G at truncation (t, t)
        return [local_power(lat, {s: c2}, 2, t, t)
                + local_power(lat, {s: c1}, 1, t, t)
                for s, c2, c1 in ((lat.site(6, 0), ExactComplex(1, 2),
                                   Fraction(1, 3)),
                                  (lat.site(6, 2), 1, ExactComplex(0, 1)))]

    F = pair(2)[0]
    ok_star = bog.R(F).conj() == qz.BogoliubovMap(xp, S_I.conj() * (-1)).R(
        F.conj())
    bog3 = qz.BogoliubovMap(xp, interaction_vertex(lat, vertices, 4, 3, 3))
    RF3, RG3 = map(bog3.R, pair(3))
    ok_local = qz.QuantProduct(xp, "star_H").commutator(RF3, RG3).is_zero()
    return ok_rt and ok_assoc and ok_eom and ok_star and ok_local, (
        "Rinv(R(F)) = F and (A *_S B) *_S C = A *_S (B *_S C) exactly "
        "(hbar<=2, lambda<=2); R_V(dS0/dphi - i hbar dV/dphi) = dS0/dphi "
        "exactly at the vertex (5, 1); R_V(F)* = R_{-conj V}(F*) and "
        "[R F, R G]_{*_H} = 0 exactly for F, G on (6, 0), (6, 2), the "
        "commutator at truncation (3, 3)")


MS_PROBES = ((1.0, 0.4), (0.5, -0.3, 0.2))  # polynomials on radii (1, 2)


@criterion("Epstein-Glaser extension of (x+i0)^-2")
def crit_09():
    """Extension of (x+i0)^-2 and minimal subtraction of x_+^(z-1)."""
    t = dist1d.SymbolicDistribution1D.power_i0(-2.0, +1)
    sd = eg.scaling_degree_regression(t)
    div, _, e1, e2, _, resid = w_extensions(t)
    d1 = [dist1d.TestFunction1D.from_poly((0.0, 0.0, c2, c3), 0.5, 1.0)
          for c2, c3 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4))]
    (v1, err1), (v2, err2) = e1.pair_batch(d1), e2.pair_batch(d1)
    worst_d1 = float(np.max(abs(v1 - v2) + err1 + err2))
    worst_err = float(np.max([err1, err2]))

    fam = lambda z: dist1d.SymbolicDistribution1D.halfline(z - 1.0, +1)
    worst_ms, ms = 0.0, []
    for poly in MS_PROBES:
        f = dist1d.TestFunction1D.from_poly(poly, 1.0, 2.0)
        ms.append(eg.analytic_regularization(fam, f, pole_cap=2))
        worst_ms = max(worst_ms, abs(ms[-1]["regular_value"]
                                     - _ms_halfline_oracle(f)))
    ok = (abs(sd - 2.0) < 0.05 and div == 1 and worst_d1 < 1e-9
          and resid < 1e-8 and worst_ms < 1e-8)
    return ok, (
        "sd = %.4f (want 2 +- 0.05), div = %d; W-extensions agree to %.1e on "
        "D_1 probes, difference plus both error estimates (tol 1e-9; worst "
        "quadrature error estimate %.1e); ambiguity = (delta, delta') fit, "
        "residual %.1e (tol 1e-8); MS of x_+^(z-1) vs oracle %.1e (tol 1e-8; "
        "worst MS error bound %.1e, pole-order margin %.1e)" % (
            sd, div, worst_d1, worst_err, resid, worst_ms,
            max(r["error"] for r in ms),
            min(r["pole_margin"] for r in ms)))


def _ms_halfline_oracle(f):
    """Minimal subtraction of <x_+^(z-1), f> at z = 0, independently of the
    library's pairing: int_0^1 (f - f(0))/x + int_1^inf f/x is, for each
    atom coeff p(x) W(x; r0, R) of f,

        coeff (sum_(j>=1) p_j r0^j / j + p_0 log r0) + int_r0^R coeff p W / x,

    the annulus integral by 8-panel, 20-node Gauss-Legendre on the atom's
    values at single points (TestFunction1D's scalar path)."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    out = 0j
    for atom in f.atoms:
        coeff, poly, r0, R = atom
        g, h = dist1d.TestFunction1D([atom]), (R - r0) / 16  # half a panel
        out += coeff * (poly[0] * math.log(r0) + sum(
            c * r0 ** j / j for j, c in enumerate(poly) if j))
        for i in range(8):
            xs = (r0 + (2 * i + 1) * h + h * nodes).tolist()
            out += h * sum(w * g(x) / x for x, w in zip(xs, weights))
    return out


@criterion("divergence degrees in d=4")
def crit_10():
    """Power counting for phi^4 graphs in four dimensions."""
    d_fish = gr.divergence_degree(gr.Multigraph(2, {(1, 2): 2}), 4)
    d_sun = gr.divergence_degree(gr.Multigraph(2, {(1, 2): 3}), 4)
    d_edge = gr.divergence_degree(gr.Multigraph(2, {(1, 2): 1}), 4)
    sd_fish = d_fish + 4  # div = sd - 4 in d = 4 for two-vertex graphs
    ok = d_fish == 0 and d_sun == 2 and d_edge == -2 and sd_fish == 4
    return ok, ("fish div = %d (want 0), rising sun div = %d (want 2); "
                "sd(Delta_F^2) = div + 4 = %d (want 4), exact integers"
                % (d_fish, d_sun, sd_fish))


@criterion("microlocal estimates and propagation")
def crit_11():
    """Wavefront content of model distributions and the lattice propagator;
    (x+i0)^-1 squares, not times (x-i0)^-1; the propagation estimate's
    decisions must be AC11_DECISIONS bit for bit: a pin of BLAS rounding."""
    wf_d = ml.wf_estimate_1d(dist1d.SymbolicDistribution1D.delta(0))
    d_dirs = sorted(r.direction[0] for r in wf_d.singular_at(0.0))
    wf_p = ml.wf_estimate_1d(
        dist1d.SymbolicDistribution1D.power_i0(-1.0, +1))
    p_dirs = sorted(r.direction[0] for r in wf_p.singular_at(0.0))
    wf_m = ml.wf_estimate_1d(
        dist1d.SymbolicDistribution1D.power_i0(-1.0, -1))
    squarable = ml.product_compatible(wf_p, wf_p)[0]
    opposite = ml.product_compatible(wf_p, wf_m)[0]

    _, drift = flow_drift((0.0, 0.0), (1.0, 1.0), 0.01, 400)

    prop = ml.propagation_check()
    wfs = (wf_d, wf_p, wf_m, prop["wf"])
    near = sum(len(wf.near_threshold()) for wf in wfs)
    floor = sum(len(wf.near_floor()) for wf in wfs)
    n_rays = sum(len(wf.rays) for wf in wfs)
    frac = prop["fraction_on_cone"]
    ok = (d_dirs == [-1.0, 1.0] and p_dirs == [-1.0] and squarable
          and not opposite and drift < FLOW_DRIFT_TOL
          and frac >= ml.AC11_CONE_FRACTION
          and prop["decisions"] == ml.AC11_DECISIONS)
    return ok, (
        "WF(delta) dirs %s, WF((x+i0)^-1) dirs %s (default threshold); "
        "(x+i0)^-1 times itself %s, times (x-i0)^-1 %s; "
        "%d of %d rays within %g of their threshold, %d within %gx of "
        "the rel_floor test; "
        "sigma drift %.1e per unit time (tol %s); %.1f%% of singular mass "
        "within %g deg of the lattice cone (need %g%%, margin %+.1f points)"
        % (d_dirs, p_dirs, "admissible" if squarable else "REJECTED",
           "ADMITTED" if opposite else "rejected", near, n_rays,
           ml.NEAR_BAND, floor, ml.NEAR_FACTOR, drift,
           tol_text(FLOW_DRIFT_TOL), 100 * frac, ml.AC11_CONE_TOL_DEG,
           100 * ml.AC11_CONE_FRACTION, 100 * (frac - ml.AC11_CONE_FRACTION)))


@criterion("GNS representations and direct-sum mixture")
def crit_12():
    """GNS construction for three states, uniqueness of the M2 tracial
    triple up to a unitary intertwiner (NoIntertwiner otherwise), and the
    direct-sum mixture."""
    reps, ok = gns_check(gns_states())
    dims = tuple(r["dim"] for r in reps)
    worst = max(max(r["residual_homomorphism"], r["residual_adjoint"])
                for r in reps)
    tracial = reps[2]
    u = np.kron(np.array([[1, 1j], [1j, 1]]) / np.sqrt(2),
                [[0.6, -0.8], [0.8, 0.6]])  # a fixed unitary
    inter = alg.gns_uniqueness_check(tracial, dict(
        tracial, pi=u @ tracial["pi"] @ u.conj().T,
        Omega=u @ tracial["Omega"]))
    unique = max(inter["residual_unitary"], inter["residual_intertwine"],
                 inter["residual_vector"])
    ds = alg.direct_sum_state_example()
    ok = (ok and dims == (1, 2, 4)
          and max(abs(w - 0.5) for w in ds["omega_weights"]) < GNS_RESIDUAL_TOL
          and ds["block_residual"] < GNS_RESIDUAL_TOL)
    return ok, ("dims %s (want (1,2,4)), residuals <= %.1e (tol %s), "
                "cyclic; tracial triple = its unitary conjugate up to an "
                "intertwiner, residual %.1e (tol %s); mixture = equal-weight "
                "direct sum, block residual %.1e"
                % (dims, worst, tol_text(GNS_RESIDUAL_TOL), unique,
                   tol_text(alg.INTERTWINER_TOL), ds["block_residual"]))


@criterion("retarded propagator support and inverse")
def crit_13():
    """Support and inverse properties of the retarded propagator, checked
    on its offset table g[n, dx].  E is read off the exact free action:
    its Hessian row at an interior site is a_t a_x E there, the same on
    every lattice of these spacings, mass and width, so it is read on the
    shortest one.  Each column of Delta_R is the table shifted to the
    column's site, so a_t a_x E Delta_R = id on interior rows is that row
    applied to the table, with Delta_R's zero row at offset -1 prepended,
    at offsets 0 .. n_t - 2; every table entry enters."""
    lat, xp = _ctx(24, 24)
    g = xp.ps.ret_table()
    dx = np.arange(lat.n_x)
    dist = np.minimum(dx, lat.n_x - dx)
    cone_ok = not np.any(g[dist[None, :] > np.arange(lat.n_t)[:, None]])

    strip = Lattice1p1(4, lat.n_x, lat.a_t, lat.a_x, lat.mass)
    padded = np.vstack([np.zeros(lat.n_x), g])
    resid = np.zeros((lat.n_t - 1, lat.n_x))
    for (r,), c in free_action(strip).partial(strip.site(1, 0)).terms.items():
        t, x = strip.coords(r)  # the neighbour (t, x) of the site (1, 0)
        resid += (float(c.coefficient(0, 0).re)
                  * np.roll(padded, -x, axis=1)[t:t + lat.n_t - 1])
    resid[0, 0] -= 1.0
    worst = float(np.max(np.abs(resid)))
    cone = ("zero outside the lattice cone exactly" if cone_ok
            else "NOT zero outside the lattice cone")
    return cone_ok and worst < 1e-10, (
        "%s; |E Delta_R - id| = %.1e on interior rows (tol 1e-10)"
        % (cone, worst))


ALL = (crit_01, crit_02, crit_03, crit_04, crit_05, crit_06, crit_07,
       crit_08, crit_09, crit_10, crit_11, crit_12, crit_13)


def run_all(indices):
    """Run the criteria numbered in `indices` (all by default), each timed
    and with its warnings recorded; a criterion that raises CheckFailed
    fails with the exception as its detail, and the rest still run."""
    results = []
    for i, fn in enumerate(ALL, start=1):
        if indices is not None and i not in indices:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                passed, detail = fn()
            except CheckFailed as e:
                passed, detail = False, "%s: %s" % (type(e).__name__, e)
            seconds = time.perf_counter() - t0
        results.append(CriterionResult(
            i, fn.title, passed, seconds, detail,
            dict(Counter(w.category.__name__ for w in caught))))
    return results


def report(results):
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append("%d/%d criteria passed, %.1fs total"
                 % (n_pass, len(results), sum(r.seconds for r in results)))
    return "\n".join(lines)
