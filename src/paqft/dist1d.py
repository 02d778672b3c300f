"""Singular distributions on the line, paired against plateau test functions.

Test functions are finite sums of polynomial * window atoms, where the
window equals 1 exactly on [-r0, r0] and 0 outside [-R, R].  On the plateau
a test function IS its polynomial, so Taylor subtractions and derivatives at
the origin are available in closed form and the singular part of every
pairing integral can be done exactly; adaptive quadrature only ever sees the
smooth annulus.

Every numerical integral here and in the wave front estimator goes through one
routine, quad_complex: adaptive 21/10-point Gauss-Kronrod on the panels
between breakpoints (window radii, jumps, the origin), complex-valued, all
nodes of a round in one call.  Integrands of a batch (rows: the pairings of
pair_family, the waves of a WF ladder) share one set of intervals, each row
held to its own tolerance, and get QUADPACK's qk21 error estimate per row.
A tolerance missed at the interval limit or roundoff floor warns
(QuadratureWarning).

Every pairing is a batch: pair_family pairs distributions of one term layout
(the circle samples of a minimal subtraction) with a batch of test functions
(the probes of an extension fit, the scales of a regression), one
quadrature run per panel for all of them.  The half-line split sits at the
smallest plateau radius in the batch (each function is its core polynomial
inside its own plateau, so this is exact), and every atom of every function
is evaluated in one array pass (TestFunctionBatch).  A run starts on the
union of the functions' window radii, each panel inside a transition cut
into parts no wider than 1/TRANSITION_PANELS of the narrowest transition
covering it (TestFunctionBatch.breakpoints): the window is one shape,
rescaled, and GK21 meets epsrel 1e-12 on x W across a transition on 8
equal panels, not on 7.  So most runs end after their first round.  On
(delta, 1) the integrand carries the Taylor remainder f - T_N f, formed as
the tail of the core polynomial plus the atoms times W - 1 (0 on the
plateau, -1 beyond R), so that nothing cancels where x^a is large.  A
single pairing, pair, is the batch of one; error estimates sum over terms
(exact terms contribute 0).

delta^(k) pairs exactly; every other kind is a fixed combination of the
half-line pairings x_+^a log^p x and x_-^a log^p|x|, the one quadrature
route: heaviside^m = x_+^m, x^m = x_+^m + (-1)^m x_-^m, (x + s i0)^a =
x_+^a + e^(s i pi a) x_-^a, and at a = -n the symmetric finite part of
x^-n less the residue s i pi (-1)^(n-1) delta^(n-1) / (n-1)!.  The half-line
pairings use analytic continuation, so for kinds of positive divergence
degree the value returned is already one particular extension; it coincides
with the honest pairing whenever the test function vanishes to the required
order at the origin.

A random probe has PROBE_ATOMS atoms; an exponent within INT_TOL of an
integer, in both parts, counts as that integer.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import CheckFailed, InputError


class DistError(Exception):
    pass


class DivergentPairing(DistError, CheckFailed):
    """Pairing has a genuine pole (e.g. x_+^a at a negative integer)."""


class NotHomogeneousClass(DistError):
    pass


PROBE_ATOMS = 2  # atoms of a random probe
TRANSITION_PANELS = 8  # GK21 panels across a window transition: 7 miss 1e-12
INT_TOL = 1e-12  # an exponent this close to an integer is that integer


# ---------------------------------------------------------------------------
# test functions


def _window_scalar(x: float, r0: float, R: float) -> float:
    ax = abs(x)
    if ax <= r0:
        return 1.0
    if ax >= R:
        return 0.0
    u = (R - ax) / (R - r0)
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b)


def _transition(x, r0, R):
    """(|x|, mask, a, b): the mask of the points in the transition
    r0 < |x| < R, and a = e^(-1/u), b = e^(-1/(1-u)) at them, u =
    (R - |x|)/(R - r0), where the window is a/(a+b).  r0 and R may be
    arrays that broadcast against x (a column each: one row per atom)."""
    ax = np.abs(np.asarray(x, dtype=float))
    mid = (ax > r0) & (ax < R)
    u = ((R - ax) / (R - r0))[mid] if mid.any() else np.empty(0)
    return ax, mid, np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))


def _window(x, r0, R):
    """The window at an array of points (see _transition)."""
    ax, mid, a, b = _transition(x, r0, R)
    out = np.array(ax <= r0, dtype=float)
    out[mid] = a / (a + b)
    return out


def _window_less_one(x, r0, R):
    """The window minus 1, with nothing cancelled: 0 on the plateau,
    -b/(a+b) on the transition and -1 beyond R (see _transition)."""
    ax, mid, a, b = _transition(x, r0, R)
    out = np.where(ax >= R, -1.0, 0.0)
    out[mid] = -b / (a + b)
    return out


class TestFunction1D:
    """Sum of coeff * p(x) * window(x; r0, R) atoms; smooth, compact support,
    identically polynomial on the common plateau."""

    __slots__ = ("atoms", "_core")

    def __init__(self, atoms):
        cleaned = []
        for coeff, poly, r0, R in atoms:
            r0, R = float(r0), float(R)
            if not (0 < r0 < R):
                raise ValueError("need 0 < r0 < R")
            poly = tuple(complex(c) for c in poly)
            while poly and poly[-1] == 0:
                poly = poly[:-1]
            if coeff and poly:
                cleaned.append((complex(coeff), poly, r0, R))
        self.atoms = tuple(cleaned)
        self._core = None

    @classmethod
    def from_poly(cls, poly, r0: float, R: float):
        return cls([(1.0, tuple(poly), r0, R)])

    @classmethod
    def random_probe(cls, rng, max_degree: int):
        atoms = []
        for _ in range(PROBE_ATOMS):
            deg = rng.randint(0, max_degree)
            poly = [rng.uniform(-2, 2) for _ in range(deg + 1)]
            r0 = rng.uniform(0.2, 0.7)
            R = r0 + rng.uniform(0.3, 1.0)
            atoms.append((rng.uniform(-2, 2), poly, r0, R))
        return cls(atoms)

    @property
    def support_radius(self) -> float:
        return max((R for _, _, _, R in self.atoms), default=0.0)

    @property
    def plateau_radius(self) -> float:
        return min((r0 for _, _, r0, _ in self.atoms), default=0.0)

    @property
    def core_poly(self) -> tuple:
        # combined polynomial valid on |x| <= plateau_radius
        if self._core is None:
            deg = max((len(p) for _, p, _, _ in self.atoms), default=0)
            core = [0j] * deg
            for coeff, poly, _, _ in self.atoms:
                for j, c in enumerate(poly):
                    core[j] += coeff * c
            self._core = tuple(core)
        return self._core

    def derivative_at_0(self, k: int) -> complex:
        core = self.core_poly
        if k >= len(core):
            return 0j
        return core[k] * math.factorial(k)

    def __call__(self, x):
        """f(x) at one point; TestFunctionBatch evaluates arrays."""
        out = 0j
        for coeff, poly, r0, R in self.atoms:
            w = _window_scalar(float(x), r0, R)
            if w:
                p = 0j
                for c in reversed(poly):
                    p = p * x + c
                out += coeff * p * w
        return out

    def stretched(self, c):
        """x -> f(c x) for c > 0."""
        c = float(c)
        if c <= 0:
            raise ValueError("need c > 0")
        out = []
        for coeff, poly, r0, R in self.atoms:
            out.append((coeff,
                        tuple(p * c ** j for j, p in enumerate(poly)),
                        r0 / c, R / c))
        return TestFunction1D(out)


class TestFunctionBatch:
    """Test functions f_0 .. f_(m-1) as one flat table of their atoms.  An
    evaluation at n points takes every atom of every function in one array
    pass and gives an (m, n) array, row i the values of f_i; so does the
    Taylor remainder, the tail of each core polynomial plus the atoms times
    W - 1, with nothing cancelled.  breakpoints(a, b) gives a quadrature run
    on (a, b) its starting panels: the window radii, and the panels inside
    a transition cut to 1/TRANSITION_PANELS of its width, one set of panels
    for every atom."""

    __slots__ = ("functions", "coeff", "poly", "r0", "R", "rounds", "core",
                 "plateau_radius", "support_radius", "real")

    def __init__(self, functions):
        self.functions = tuple(functions)
        # round j: the j-th atom of each function that has one, as table
        # rows start..stop, and the functions they belong to (a slice when
        # that is all of them)
        self.rounds, atoms = [], []
        for j in range(max((len(f.atoms) for f in self.functions),
                           default=0)):
            owners = [i for i, f in enumerate(self.functions)
                      if len(f.atoms) > j]
            self.rounds.append((len(atoms), len(atoms) + len(owners),
                                owners if len(owners) < len(self.functions)
                                else slice(None)))
            atoms += [self.functions[i].atoms[j] for i in owners]
        # poly[j]: the x^j coefficient of every atom, as a column
        self.poly = np.zeros((max((len(a[1]) for a in atoms), default=0),
                              len(atoms), 1), dtype=complex)
        for k, (_, poly, _, _) in enumerate(atoms):
            self.poly[:len(poly), k, 0] = poly
        self.coeff = np.array([a[0] for a in atoms], dtype=complex)[:, None]
        self.r0 = np.array([a[2] for a in atoms], dtype=float)[:, None]
        self.R = np.array([a[3] for a in atoms], dtype=float)[:, None]
        # every coefficient real: each f_i is real-valued
        self.real = not (self.coeff.imag.any() or self.poly.imag.any())
        self.plateau_radius = min((a[2] for a in atoms), default=0.0)
        self.support_radius = max((a[3] for a in atoms), default=0.0)
        cores = [f.core_poly for f in self.functions]
        self.core = np.zeros((len(cores), max(map(len, cores), default=0)),
                             dtype=complex)
        for i, core in enumerate(cores):
            self.core[i, :len(core)] = core

    def __len__(self):
        return len(self.functions)

    def __call__(self, x):
        """(m, n) values at the n points of a 1D array x."""
        x = np.asarray(x, dtype=float)
        return self._add_atoms(np.zeros((len(self), len(x)), dtype=complex),
                               x, _window(x, self.r0, self.R))

    def _add_atoms(self, out, x, window):
        """out, (m, n), with each atom c p(x) times its row of window (one
        row per atom) added into the row of its function."""
        terms = np.zeros((len(self.coeff), len(x)), dtype=complex)
        for c in self.poly[::-1]:  # Horner, in place
            terms *= x
            terms += c
        np.multiply(self.coeff, terms, out=terms)
        terms *= window
        for start, stop, owners in self.rounds:
            out[owners] += terms[start:stop]
        return out

    def derivative_at_0(self, k: int):
        """f_i^(k)(0) for every i."""
        if k >= self.core.shape[1]:
            return np.zeros(len(self), dtype=complex)
        return self.core[:, k] * math.factorial(k)

    def taylor_remainder(self, x, order: int):
        """f_i(x) - sum_{j<order} f_ij x^j, f_ij the exact core
        coefficients, at the points of a 1D array x, formed with nothing
        cancelled: the tail sum_{j>=order} f_ij x^j (Horner over every j,
        the terms j < order left out) plus the atoms c p(x) (W(x) - 1).  On
        f_i's plateau W - 1 is 0 and the remainder is its tail, bit for
        bit."""
        x = np.asarray(x, dtype=float)
        out = np.zeros((len(self), len(x)), dtype=complex)
        for j in reversed(range(self.core.shape[1])):
            out *= x
            if j >= order:
                out += self.core[:, j, None]
        return self._add_atoms(out, x, _window_less_one(x, self.r0, self.R))

    def breakpoints(self, a: float, b: float):
        """The breakpoints a quadrature run on (a, b), 0 <= a < b, starts
        on: the window radii inside (a, b), and each panel between them
        that lies in some atom's transition (r0, R) cut into equal parts no
        wider than (R - r0) / TRANSITION_PANELS of the narrowest transition
        covering it.  The union of panels is cut, not each atom's, so a
        batch gets no more panels than its narrowest transitions need."""
        edges = np.unique(np.clip(np.concatenate(([a, b], self.r0[:, 0],
                                                  self.R[:, 0])), a, b))
        lo, hi = edges[:-1], edges[1:]
        cover = (self.r0 <= lo) & (hi <= self.R)  # atom x panel
        width = np.min(np.where(cover, self.R - self.r0, np.inf), axis=0,
                       initial=np.inf)
        n = np.maximum(1, np.ceil(TRANSITION_PANELS * (hi - lo) / width)
                       ).astype(int)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        return np.repeat(lo, n) + np.repeat((hi - lo) / n, n) * k


# ---------------------------------------------------------------------------
# quadrature


class QuadratureWarning(UserWarning):
    """Adaptive quadrature stopped short of its tolerance: the interval limit
    was reached, or every interval still over its share of the tolerance sits
    at its roundoff floor.  The returned error estimate says by how much."""


# 21-point Kronrod rule on [-1, 1] with its embedded 10-point Gauss rule
# (QUADPACK qk21): abscissae from the end inwards, the odd-indexed ones are
# the Gauss points.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525478066, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_GK_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_WK = np.array(_WGK[:-1] + _WGK[::-1])
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _WG
_GK_WG[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps


def _gk_nodes(lo, hi):
    """(half-widths, nodes): the 21 Kronrod nodes of [lo_i, hi_i] in row i."""
    h = 0.5 * (hi - lo)
    return h, (0.5 * (lo + hi))[:, None] + h[:, None] * _GK_X


def _gk21(func, lo, hi):
    """Kronrod values, QUADPACK error estimates and roundoff floors of func
    on the intervals [lo_i, hi_i] (axis 0, rows on axis 1), in one call.
    The values func returns are scratch space here, overwritten in place:
    a batch of rows holds one complex array of them and one real one."""
    h, x = _gk_nodes(lo, hi)
    fx = np.asarray(func(x.ravel()), dtype=complex)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    resk = fx @ _GK_WK
    err = h * np.abs(resk - fx @ _GK_WG)
    absf = np.abs(fx)
    resabs = h * (absf @ _GK_WK)
    fx -= 0.5 * resk[..., None]
    resasc = h * (np.abs(fx, out=absf) @ _GK_WK)
    scaled = (resasc > 0) & (err > 0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    floor = 50.0 * _EPS * resabs
    return (h * resk).T, np.maximum(err, floor).T, floor.T


def quad_complex(func, a: float, b: float, points, epsabs: float = 1e-13,
                 epsrel: float = 1e-12, limit: int = 400):
    """(integrals over [a, b], error estimates), arrays of m, for a
    complex-valued func that maps an array of n points to the (m, n) values
    of m integrands (rows), which share one run.  Each call of func must
    return a new array: the run overwrites it.

    Adaptive 21/10-point Gauss-Kronrod on the panels between the breakpoints
    in (a, b), one set of intervals for all rows.  Each round bisects every
    interval where a row not yet within max(epsabs, epsrel |I_k|) has an
    error estimate over its length share of that, and evaluates all new
    nodes in one call.  Stops when every row is within its tolerance; at
    `limit` intervals, or when only intervals at their roundoff floor are
    left to split, it returns what it has and warns with QuadratureWarning.
    """
    edges = np.array(sorted({a, max(a, b), *(p for p in points if a < p < b)}),
                     dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err, floor = _gk21(func, lo, hi)
    while True:
        total, etotal = val.sum(axis=0), err.sum(axis=0)
        tol = np.maximum(epsabs, epsrel * abs(total))
        open_ = etotal > tol
        if not np.count_nonzero(open_):
            break
        mid = 0.5 * (lo + hi)
        share = np.multiply.outer(hi - lo, tol) / (b - a)
        over = ((err > share) & (err > floor) & open_).reshape(len(lo), -1)
        split = np.flatnonzero(over.any(axis=1) & (lo < mid) & (mid < hi))
        room = limit - len(lo)
        if not len(split) or room <= 0:
            i = np.argmax(np.ravel(etotal / tol))  # the worst row
            warnings.warn(
                "quadrature on [%g, %g] stopped at %d intervals with error "
                "estimate %.2e > tolerance %.2e (%s)"
                % (a, b, len(lo), np.ravel(etotal)[i], np.ravel(tol)[i],
                   "interval limit" if len(split) else "roundoff floor"),
                QuadratureWarning, stacklevel=2)
            break
        if len(split) > room:
            worst = np.where(open_, err / tol, 0.0).reshape(len(lo), -1)
            split = split[np.argsort(worst.max(axis=1)[split])[::-1][:room]]
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new = _gk21(func, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val, err, floor = (np.concatenate([old[keep], fresh])
                           for old, fresh in zip((val, err, floor), new))
    return total, etotal


def _power_log_integral(b, p: int, upper: float):
    """int_0^upper x^b log^p(x) dx, Re b > -1 (b complex or an array)."""
    lu = math.log(upper)
    total = 0j
    for i in range(p + 1):
        total += ((-1) ** (p - i) * math.factorial(p) / math.factorial(i)
                  * lu ** i / (b + 1) ** (p - i + 1))
    return np.exp((b + 1) * lu) * total


# ---------------------------------------------------------------------------
# symbolic distributions

# term kinds:
#   ("delta", k)            k-th derivative of delta
#   ("monomial", m)         x^m on the whole line
#   ("heaviside", m)        theta(x) x^m
#   ("power_i0", s, a)      (x + s*i0)^a, s = +-1
#   ("halfline", s, a, p)   x_+^a log^p x  (s=+1)  or  x_-^a log^p|x|  (s=-1)

_SD_RULES = {
    "delta": lambda k: 1 + k,
    "monomial": lambda m: -m,
    "heaviside": lambda m: -m,
    "power_i0": lambda s, a: -complex(a).real,
    "halfline": lambda s, a, p=0: -complex(a).real,
}


class SymbolicDistribution1D:
    """Finite sum of coeff * (homogeneous model term)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = []
        for coeff, kind in terms:
            if kind[0] not in _SD_RULES:
                raise DistError(f"unknown term kind {kind[0]!r}")
            if coeff:
                cleaned.append((complex(coeff), tuple(kind)))
        self.terms = tuple(cleaned)

    @classmethod
    def delta(cls, k: int):
        return cls([(1.0, ("delta", k))])

    @classmethod
    def monomial(cls, m: int):
        if m < 0:
            raise ValueError("need m >= 0")
        return cls([(1.0, ("monomial", m))])

    @classmethod
    def heaviside(cls, m: int):
        if m < 0:
            raise ValueError("need m >= 0")
        return cls([(1.0, ("heaviside", m))])

    @classmethod
    def power_i0(cls, a, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        return cls([(1.0, ("power_i0", sign, complex(a)))])

    @classmethod
    def halfline(cls, a, side: int, log_power: int = 0):
        if side not in (1, -1):
            raise ValueError("side must be +-1")
        return cls([(1.0, ("halfline", side, complex(a), log_power))])

    def scaling_degree(self) -> float:
        """Largest scaling degree among the terms (symbolic rule)."""
        if not self.terms:
            raise NotHomogeneousClass("empty distribution")
        out = None
        for _, kind in self.terms:
            sd = _SD_RULES[kind[0]](*kind[1:])
            out = sd if out is None else max(out, sd)
        return float(out)

    def pair(self, f: TestFunction1D) -> complex:
        return complex(self.pair_batch([f])[0][0])

    def pair_batch(self, fs):
        """(values, error estimates) of <t, f> over the test functions fs,
        one quadrature run per panel for all of them."""
        values, errors = pair_family([self], fs)
        return values[0], errors[0]

    def pair_scaled(self, lams, f: TestFunction1D):
        """<t(lam x), f(x)> = (1/lam) <t, f(x/lam)> for each lam of lams,
        in one batch."""
        lams = np.asarray(lams, dtype=float)
        if np.any(lams <= 0):
            raise ValueError("need lam > 0")
        values, _ = self.pair_batch([f.stretched(1.0 / lam) for lam in lams])
        return values / lams

    def __repr__(self):
        return f"SymbolicDistribution1D({list(self.terms)})"


def _pair_term(kind, fs: TestFunctionBatch):
    """(<term, f_i>, error estimates) over the batch: arrays of shape (m,),
    or (len(a), m) for a halfline or power_i0 term with an exponent array a.
    Every kind but delta^(k) is a combination of the two half-line pairings:
    heaviside^m = x_+^m, x^m = x_+^m + (-1)^m x_-^m and (x + s i0)^a =
    x_+^a + e^(s i pi a) x_-^a, less s i pi f_(n-1) at a = -n."""
    tag = kind[0]
    if tag == "delta":
        k = kind[1]
        return (-1) ** k * fs.derivative_at_0(k), np.zeros(len(fs))
    if tag == "halfline":
        _, side, a, p = kind
        if np.any(_is_int(a) & (a.real < -0.5)):
            j = -int(np.round(a.real)) - 1
            jet = fs.core[:, j] if j < fs.core.shape[1] else 0.0
            scale = np.max(abs(fs.core), axis=1, initial=1.0)
            if np.any(abs(jet) > 1e-9 * scale):
                raise DivergentPairing(
                    f"x_{'+-'[side < 0]}^{a} has a pole against a nonzero "
                    f"order-{j} jet; extend or regularize instead")
        return _pair_halfline(a, p, fs, (side,))[0]
    if tag == "heaviside":
        return _pair_halfline(complex(kind[1]), 0, fs, (1,))[0]
    sign, a = (1, complex(kind[1])) if tag == "monomial" else kind[1:]
    residue = 0.0
    if np.any(_is_int(a)):
        n = int(round(a.real))
        phase = np.float64((-1) ** n)
        if n < 0:  # the pole term is in neither side: Fp x^-n
            residue = (sign * 1j * math.pi * fs.derivative_at_0(-n - 1)
                       / math.factorial(-n - 1))
    else:
        phase = np.exp(sign * 1j * math.pi * a)
    (plus, e_plus), (minus, e_minus) = _pair_halfline(a, 0, fs, (1, -1))
    return (plus + phase[..., None] * minus - residue,
            e_plus + abs(phase)[..., None] * e_minus)


def _is_int(z):
    return (abs(z.imag) < INT_TOL) & (abs(z.real - np.round(z.real)) < INT_TOL)


def _pair_halfline(a, p: int, fs: TestFunctionBatch, sides):
    """[(<x_+^a log^p x, f_i(s x)>, error estimates) for s in sides], side -1
    being x_-^a log^p|x|, by analytic continuation: subtract the Taylor
    polynomial to order N-1 on (0, 1), N minimal with Re(a) + N > -1, and
    add back the boundary moments.  At a negative integer a = -n the j = n-1
    moment is a pole and is left out: the value is the pairing itself on
    test functions whose order-(n-1) jet vanishes (as after a w-scheme
    projection), and side 1 plus (-1)^n times side -1 is the symmetric
    finite part of x^-n.  An array of non-integer a gives one row per
    exponent, all weighted by exp(a_k log x) at shared nodes, with the
    largest N any row needs.

    The exponents, their flips, the closed-form parts and the two runs'
    starting breakpoints (TestFunctionBatch.breakpoints: the window radii,
    the panels inside a transition cut to 1/TRANSITION_PANELS of its width,
    on which most runs meet their tolerance in one round) are set up once;
    each side has its own two quadrature runs, evaluates f_i(s x) directly,
    or its Taylor remainder as the core polynomial's tail plus the atoms
    times W - 1, and takes core coefficient j times s^j.  On a real batch
    the value at conj(a) is the conjugate of the one at a, bit for bit, so
    the runs integrate the exponents with Im a < 0 conjugated, each
    distinct one once, and conjugate their rows back; a complex batch flips
    none and integrates each distinct a."""
    core = fs.core.T  # row j: the x^j core coefficient of every f_i
    lead = np.shape(a) + (len(fs),)
    pole = (-int(np.round(a.real)) - 1
            if np.any(_is_int(a) & (a.real < -0.5)) else None)
    N = max(0, int(math.floor(-np.min(np.real(a)))))
    while np.any(np.real(a) + N <= -1):
        N += 1
    delta = min(fs.plateau_radius, 1.0)
    # closed-form factors of core coefficient j: int_0^delta x^(a+j) log^p x
    # where f_i is its core polynomial (j >= N), and the boundary moments
    # int_0^1 x^(a+j) log^p x of the subtracted polynomial (j < N)
    inner = [(j, _power_log_integral(a + j, p, delta))
             for j in range(N, len(core))]
    moments = [(j, (-1) ** p * math.factorial(p) / (a + j + 1) ** (p + 1))
               for j in range(min(N, len(core))) if j != pole]
    # quadrature rows: each distinct exponent, conjugated where flipped, once
    flip = np.less(np.imag(a), 0) & fs.real
    index = {}
    inv = np.reshape([index.setdefault(z, len(index)) for z in
                      np.where(flip, np.conj(a), a).ravel().tolist()],
                     np.shape(a))
    rows = np.array(list(index))

    def quad(func, lo, hi, points):  # rows spread back to the shape of a
        v, e = quad_complex(lambda x: func(x).reshape(-1, len(x)), lo, hi,
                            points)
        v, e = (u.reshape(rows.shape + (len(fs),)) for u in (v, e))
        return np.where(flip[..., None], v[inv].conj(), v[inv]), e[inv]

    def weight(x):  # shape(rows) + (1, n), to broadcast over the batch
        log_x = np.log(x)
        w = np.exp(rows[:, None, None] * log_x)
        return w * log_x ** p if p else w

    R = fs.support_radius
    near = fs.breakpoints(delta, 1.0) if delta < 1.0 else None
    far = fs.breakpoints(1.0, R) if R > 1.0 else None
    out = []
    for s in sides:
        cs = core * (float(s) ** np.arange(len(core)))[:, None]
        value, err = np.zeros(lead, dtype=complex), np.zeros(lead)
        for j, c in inner:  # exact inner part on (0, delta)
            value += np.multiply.outer(c, cs[j])
        if delta < 1.0:  # numeric part on (delta, 1), explicitly subtracted
            v, err = quad(lambda x: weight(x) * fs.taylor_remainder(s * x, N),
                          delta, 1.0, near)
            value += v
        for j, c in moments:
            value += np.multiply.outer(c, cs[j])
        if R > 1.0:  # far part (1, R)
            v, e = quad(lambda x: weight(x) * fs(s * x), 1.0, R, far)
            value, err = value + v, err + e
        out.append((value, err))
    return out


def exponent_family(t: SymbolicDistribution1D):
    """zeta -> t with its exponent shifted by zeta, for t one halfline or
    (x +- i0)^a term, both of which carry the exponent third; any other t
    raises InputError."""
    kinds = [kind for _, kind in t.terms]
    if len(kinds) != 1 or kinds[0][0] not in ("halfline", "power_i0"):
        raise InputError(f"an exponent family needs one halfline or "
                         f"(x+-i0)^a term, not {kinds}")
    (c, kind), = t.terms
    return lambda z: SymbolicDistribution1D(
        [(c, kind[:2] + (kind[2] + z,) + kind[3:])])


def pair_family(dists, fs):
    """(values, error estimates), shape (len(dists), len(fs)): <t_k, f_i>
    over distributions of one term layout, the same kinds (signs or sides,
    log powers) less their exponent, index 2 if any, coefficients free; and
    over test functions fs.  Every term pairs in one batch: all f_i share one
    quadrature run per panel, each row held to its own tolerance, and a
    halfline or power_i0 term with varying non-integer exponents pairs as
    one exponent array.  Any other family raises DistError."""
    if len({tuple(k[:2] + k[3:] for _, k in t.terms) for t in dists}) != 1:
        raise DistError("pair_family needs one term layout over the family")
    fs = TestFunctionBatch(fs)
    values = np.zeros((len(dists), len(fs)), dtype=complex)
    errors = np.zeros((len(dists), len(fs)))
    for terms in zip(*(t.terms for t in dists)):
        coeffs, kinds = zip(*terms)
        kind = kinds[0]
        if len(set(kinds)) > 1:
            a = np.array([k[2] for k in kinds], dtype=complex)
            if _is_int(a).any():
                raise DistError("a varying exponent meets an integer")
            kind = kind[:2] + (a,) + kind[3:]
        v, e = _pair_term(kind, fs)
        coeffs = np.array(coeffs)[:, None]
        values += coeffs * v
        errors += abs(coeffs) * e
    return values, errors


def pointwise_power_product(t1: SymbolicDistribution1D,
                            t2: SymbolicDistribution1D) -> SymbolicDistribution1D:
    """Product of two single-term boundary values (x + s i0)^a with the SAME
    side s; exponents add.  Other products are not defined here."""
    if len(t1.terms) != 1 or len(t2.terms) != 1:
        raise DistError("only single-term products are supported")
    c1, k1 = t1.terms[0]
    c2, k2 = t2.terms[0]
    if k1[0] != "power_i0" or k2[0] != "power_i0" or k1[1] != k2[1]:
        raise DistError("product needs matching (x + s i0)^a factors")
    return SymbolicDistribution1D(
        [(c1 * c2, ("power_i0", k1[1], k1[2] + k2[2]))])
