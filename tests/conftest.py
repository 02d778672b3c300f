import cmath
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paqft.dist1d import SymbolicDistribution1D
from paqft.exact import ExactComplex
from paqft.lattice import Lattice1p1, ExactPropagators
from paqft.functionals import PolyFunctional
from paqft.quantization import QuantProduct, contract


@pytest.fixture(scope="session")
def lat24():
    return Lattice1p1(24, 24)  # a_t=1/2, a_x=1, m=1


@pytest.fixture(scope="session")
def xp24(lat24):
    return ExactPropagators(lat24)


@pytest.fixture(scope="session")
def lat_small():
    return Lattice1p1(8, 4, Fraction(1, 2), Fraction(1))


@pytest.fixture(scope="session")
def xp_small(lat_small):
    return ExactPropagators(lat_small)


def perfbench_module(name):
    """The module perfbench/<name>.py of this checkout, read by file path."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_functional(rng, lat, max_degree=3, n_terms=2, sites=None):
    """Random polynomial functional with exact rational coefficients."""
    pool = list(sites) if sites is not None else list(range(lat.n_sites))
    terms = {}
    for _ in range(n_terms):
        deg = rng.randint(1, max_degree)
        key = tuple(sorted(rng.choice(pool) for _ in range(deg)))
        c = ExactComplex(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)),
                         Fraction(rng.randint(-2, 2), 2))
        terms[key] = terms.get(key, ExactComplex(0)) + c
    return PolyFunctional(lat, terms)


@pytest.fixture
def rand_functional(lat_small):
    rng = random.Random(77)

    def make(**kw):
        return make_functional(rng, lat_small, **kw)

    return make


def kernel_view(xp, kind):
    """Kernel `kind` as (i, j) -> ExactComplex, each entry read from the
    rows of numerators(xp, kind), the form the contraction engine takes; a
    pair the rows leave out is zero."""
    return rows_view(numerators(xp, kind))


def rows_view(kernel):
    """A kernel (lat, rows, den), as contract takes it, as (i, j) ->
    ExactComplex."""
    _, rows, den = kernel

    def entry(i, j):
        re, im = rows((i,), (j,)).get(i, {}).get(j, (0, 0))
        return ExactComplex(Fraction(re, den), Fraction(im, den))
    return entry


# -- the Dirac kernel ---------------------------------------------------------
# i*DiracD = (i/2)(Delta_R + Delta_A), the kernel of the Dirac time-ordered
# product, which no library path reads: built here from the lifted retarded
# and advanced numerators, a second symmetric kernel for the checks of the
# kernel identities and of the contraction engine, and the time-ordered
# kernel of the free-picture oracle maps.

def dirac_rows(xp):
    """i*DiracD as contract takes it: the entry (0, r + a) at each site
    pair's offset, over the lift's denominator."""
    r, a, _, den = xp._lifted

    def rows(ys, zs):
        out = {}
        for y in ys:
            row = {z: (0, r[k] + a[k]) for z in zs
                   if r[k := xp._offset(y, z)] + a[k]}
            if row:
                out[y] = row
        return out
    return xp.lat, rows, den


class DiracProduct(QuantProduct):
    """QuantProduct's maps on dirac_rows: the Dirac time-ordered product,
    whose commutator, like the Feynman one's, is 0."""

    def __init__(self, xp):
        self.xp, self.kind, self.kernel = xp, "timeordered_D", dirac_rows(xp)


def numerators(xp, kind):
    """xp.numerators(kind), or dirac_rows(xp) for kind "timeordered_D"."""
    return dirac_rows(xp) if kind == "timeordered_D" else xp.numerators(kind)


def quant_product(xp, kind):
    """QuantProduct(xp, kind), or DiracProduct(xp) for "timeordered_D"."""
    return (DiracProduct(xp) if kind == "timeordered_D"
            else QuantProduct(xp, kind))


# -- the anti-time-ordered exponential ---------------------------------------
# Sbar(-V), the star-inverse of S(V) in the oracle maps of the Bogoliubov
# map, built the direct way, from anti-Feynman rows; the tests compare it
# with the conjugate of S(-conj V).

def antifeynman_rows(xp):
    """The anti-Feynman kernel H - i*DiracD as contract takes it: the rows
    of xp.numerators("timeordered_F"), each entry conjugated."""
    lat, rows, den = xp.numerators("timeordered_F")

    def conj_rows(ys, zs):
        return {y: {z: (re, -im) for z, (re, im) in row.items()}
                for y, row in rows(ys, zs).items()}
    return lat, conj_rows, den


def antitimeordered_s_matrix(xp, V):
    """sum_n V^{x n} / n! in the anti-Feynman product, each product one
    contract over antifeynman_rows, to the coupling truncation of V."""
    kernels = [antifeynman_rows(xp)]
    schedules = [(((0, 1, 0),) * n, Fraction(1, math.factorial(n)))
                 for n in range(V.trunc_h + 1)]
    out = term = PolyFunctional.constant(V.lat, 1, V.trunc_h, V.trunc_l)
    for n in range(1, V.trunc_l + 1):
        term = contract([term, V], kernels, schedules) * Fraction(1, n)
        out = out + term
    return out


# -- dense site-by-site oracles ----------------------------------------------
# The library keeps each kernel as a table keyed by the site offset; these
# spell the same objects out as n_sites x n_sites matrices, by the naive
# route, for the checks that compare against them on small lattices.

def interior_sites(lat):
    """The sites of the interior time rows 1 .. n_t - 2."""
    return [lat.site(t, x) for t in range(1, lat.n_t - 1)
            for x in range(lat.n_x)]


def kg_matrix(lat):
    """Dense stencil matrix for box + m^2 (signature +,-), interior time
    rows only."""
    n = lat.n_sites
    at2 = float(lat.a_t) ** 2
    ax2 = float(lat.a_x) ** 2
    m2 = lat.mass ** 2
    P = np.zeros((n, n))
    for t in range(1, lat.n_t - 1):
        for x in range(lat.n_x):
            r = lat.site(t, x)
            P[r, lat.site(t + 1, x)] += 1.0 / at2
            P[r, lat.site(t - 1, x)] += 1.0 / at2
            P[r, r] += -2.0 / at2 + 2.0 / ax2 + m2
            P[r, lat.site(t, x + 1)] += -1.0 / ax2
            P[r, lat.site(t, x - 1)] += -1.0 / ax2
    return P


def el_matrix(lat):
    """E = S''(0) = -(box + m^2): the linearized field-equation operator."""
    return -kg_matrix(lat)


def retarded_matrix(ps):
    """Delta_R(i, j): the retarded table read at every site pair's offset,
    zero unless i is strictly later than j."""
    lat = ps.lat
    g = ps.ret_table()
    R = np.zeros((lat.n_sites, lat.n_sites))
    for i in range(lat.n_sites):
        ti, xi = lat.coords(i)
        for j in range(lat.n_sites):
            tj, xj = lat.coords(j)
            if ti > tj:
                R[i, j] = g[ti - tj, (xi - xj) % lat.n_x]
    return R


def dist_sum(*ts):
    """The sum of distributions: their terms in one list, as the parser
    builds a sum."""
    return SymbolicDistribution1D([term for t in ts for term in t.terms])


def dist_scaled(t, c):
    """The distribution t times the scalar c, term by term."""
    return SymbolicDistribution1D([(coeff * c, kind)
                                   for coeff, kind in t.terms])


# -- dense Weyl operators --------------------------------------------------
# The library holds each grid Weyl operator as its triple (s, beta, theta);
# these spell W(alpha, beta) and a triple out as n x n complex matrices on
# samples over x_j = x0 + j dx, for the checks that compare against them.

WEYL_X0 = -8.0  # the grid's first point


def weyl_phase(a1, b1, a2, b2, hbar):
    """Composition phase: W(a1,b1) W(a2,b2) = phase * W(a1+a2, b1+b2)."""
    return cmath.exp(0.5j * hbar * (a1 * b2 - a2 * b1))


def weyl_matrix(alpha, beta, n, dx, hbar, x0):
    """W(alpha, beta): (W phi)(x) = e^{i hbar alpha beta / 2} e^{i beta x}
    phi(x + hbar alpha), with zero padding off the grid; the shift must be
    a whole number of cells."""
    shift = hbar * alpha / dx
    s = round(shift)
    assert abs(shift - s) <= 1e-9, "shift off the grid"
    xs = x0 + dx * np.arange(n)
    W = np.zeros((n, n), dtype=complex)
    ph = cmath.exp(0.5j * hbar * alpha * beta)
    for j in range(n):
        k = j + s
        if 0 <= k < n:
            W[j, k] = ph * cmath.exp(1j * beta * xs[j])
    return W


def triple_matrix(w, n, dx, x0):
    """The matrix of the triple (s, beta, theta):
    (W phi)_j = e^{i(theta + beta x_j)} phi_{j+s}, zero padded."""
    s, beta, theta = w
    W = np.zeros((n, n), dtype=complex)
    j = np.arange(max(0, -s), min(n, n - s))
    W[j, j + s] = np.exp(1j * (float(theta) + float(beta) * (
        x0 + float(dx) * j)))
    return W
