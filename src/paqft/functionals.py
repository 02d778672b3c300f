"""Polynomial functionals of lattice field configurations.

A PolyFunctional is a sparse multivariate polynomial in the site variables
phi[s], with FormalSeries coefficients: monomial keys are sorted site tuples.
Constructors bake the volume weight a_t*a_x into every site sum that stands
for an integral; functional derivatives divide it back out, so contraction
pairings (Peierls bracket, star products) reduce to plain partial-derivative
sums against the kernels with all measure factors cancelled exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exact import ExactComplex, to_fraction
from .lattice import Lattice1p1, kg_apply, leapfrog
from .series import DEFAULT_TRUNC_H, DEFAULT_TRUNC_L, FormalSeries


class FunctionalError(Exception):
    pass


class DimensionMismatch(FunctionalError):
    pass


class CutoffTooSmall(FunctionalError):
    """Cutoff function is not identically 1 around a probed site."""


class PolyFunctional:
    """Sparse polynomial functional; immutable by convention."""

    __slots__ = ("lat", "terms", "trunc_h", "trunc_l")

    def __init__(self, lat: Lattice1p1, terms,
                 trunc_h: int = DEFAULT_TRUNC_H, trunc_l: int = DEFAULT_TRUNC_L):
        clean = {}
        for key, c in terms.items():
            key = tuple(sorted(key))
            for s in key:
                if not 0 <= s < lat.n_sites:
                    raise DimensionMismatch(f"site {s} outside lattice")
            if not isinstance(c, FormalSeries):
                c = FormalSeries.const(c, trunc_h, trunc_l)
            else:
                c = c.truncate(trunc_h, trunc_l)
            if key in clean:
                c = clean[key] + c
            if c:
                clean[key] = c
            elif key in clean:
                del clean[key]
        self.lat = lat
        self.terms = clean
        self.trunc_h = trunc_h
        self.trunc_l = trunc_l

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, lat, value, trunc_h: int,
                 trunc_l: int) -> "PolyFunctional":
        return cls(lat, {(): value}, trunc_h, trunc_l)

    # -- structure -----------------------------------------------------------

    @property
    def max_degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def support(self) -> set[int]:
        out: set[int] = set()
        for k in self.terms:
            out.update(k)
        return out

    def coefficient(self, key) -> FormalSeries:
        return self.terms.get(tuple(sorted(key)),
                              FormalSeries.zero(self.trunc_h, self.trunc_l))

    # -- algebra -------------------------------------------------------------

    def _wrap(self, terms) -> "PolyFunctional":
        return PolyFunctional(self.lat, terms, self.trunc_h, self.trunc_l)

    def __add__(self, other):
        th = min(self.trunc_h, other.trunc_h)
        tl = min(self.trunc_l, other.trunc_l)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return PolyFunctional(self.lat, out, th, tl)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] - c if k in out else -c
        return PolyFunctional(self.lat, out, min(self.trunc_h, other.trunc_h),
                              min(self.trunc_l, other.trunc_l))

    def __mul__(self, other):
        """Scalar multiple (number or FormalSeries); use pointwise_product for F*G."""
        if isinstance(other, FormalSeries):
            return self._wrap({k: c * other for k, c in self.terms.items()})
        v = ExactComplex.lift(other)
        return self._wrap({k: c.scale(v) for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PolyFunctional):
            return NotImplemented
        return (self.terms == other.terms and self.trunc_h == other.trunc_h
                and self.trunc_l == other.trunc_l)

    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, phi) -> FormalSeries:
        """Exact evaluation; phi is a site-indexed sequence/dict of rationals."""
        total = FormalSeries.zero(self.trunc_h, self.trunc_l)
        cache = {}
        for key, c in self.terms.items():
            v = ExactComplex(1)
            for s in key:
                if s not in cache:
                    cache[s] = ExactComplex.lift(phi[s])
                v = v * cache[s]
            total = total + c.scale(v)
        return total

    # -- derivatives ---------------------------------------------------------

    def partial(self, site: int) -> "PolyFunctional":
        """Plain partial derivative d/dphi[site] (no measure factor)."""
        out = {}
        for key, c in self.terms.items():
            m = key.count(site)
            if not m:
                continue
            i = key.index(site)
            new = key[:i] + key[i + 1:]
            add = c.scale(m)
            out[new] = out[new] + add if new in out else add
        return self._wrap(out)

    def func_derivative(self, site: int) -> "PolyFunctional":
        """delta F / delta phi(site): partial derivative over the volume weight."""
        return self.partial(site) * (Fraction(1) / self.lat.volume_weight)

    def __repr__(self):
        return (f"PolyFunctional({len(self.terms)} terms, "
                f"deg {self.max_degree}, trunc=({self.trunc_h},{self.trunc_l}))")


def smeared_field(lat: Lattice1p1, f) -> PolyFunctional:
    """Phi(f) = sum_s f[s] * (a_t a_x) * phi[s]; f a dict site -> value."""
    return local_power(lat, f, 1)


def local_power(lat: Lattice1p1, f, power: int,
                trunc_h: int = DEFAULT_TRUNC_H,
                trunc_l: int = DEFAULT_TRUNC_L) -> PolyFunctional:
    """Integral of f * phi^power: sum_s f[s] * (a_t a_x) * phi[s]^power,
    f a dict site -> value."""
    w = lat.volume_weight
    terms = {}
    for s, v in f.items():
        v = ExactComplex.lift(v) * w
        if v:
            terms[(s,) * power] = v
    return PolyFunctional(lat, terms, trunc_h, trunc_l)


def interaction_vertex(lat: Lattice1p1, f, power: int,
                       trunc_h: int = DEFAULT_TRUNC_H,
                       trunc_l: int = DEFAULT_TRUNC_L) -> PolyFunctional:
    """lambda/power! * integral of f phi^power: the quartic vertex carries one
    formal power of the coupling."""
    base = local_power(lat, f, power, trunc_h, trunc_l)
    coeff = FormalSeries.coupling(trunc_h, trunc_l).scale(
        Fraction(1, math.factorial(power)))
    return base * coeff


def pointwise_product(F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
    if F.lat is not G.lat:
        raise DimensionMismatch("functionals live on different lattices")
    th = min(F.trunc_h, G.trunc_h)
    tl = min(F.trunc_l, G.trunc_l)
    out = {}
    for k1, c1 in F.terms.items():
        for k2, c2 in G.terms.items():
            key = tuple(sorted(k1 + k2))
            c = c1 * c2
            out[key] = out[key] + c if key in out else c
    return PolyFunctional(F.lat, out, th, tl)


class GeneralizedLagrangian:
    """Cutoff action for the scalar field with a quartic term of coupling
    lam (0 for the free field).

    Density (forward differences, periodic space):
        1/2 (d_t phi)^2 - 1/2 (d_x phi)^2 - 1/2 m^2 phi^2 - lam/4! phi^4
    summed against the cutoff with weight a_t*a_x.  Its second derivative at
    phi = 0 on interior sites is exactly the linearized operator E used by
    the Green functions.
    """

    def __init__(self, lat: Lattice1p1, cutoff, lam):
        self.lat = lat
        self.cutoff = [to_fraction(v) for v in cutoff]
        if len(self.cutoff) != lat.n_sites:
            raise DimensionMismatch("cutoff length != number of sites")
        self.lam = to_fraction(lam)

    def action(self) -> PolyFunctional:
        lat = self.lat
        w = lat.volume_weight
        m2 = to_fraction(lat.mass) ** 2
        at2 = lat.a_t ** 2
        ax2 = lat.a_x ** 2
        terms: dict[tuple, Fraction] = {}

        def add(key, val):
            key = tuple(sorted(key))
            terms[key] = terms.get(key, Fraction(0)) + val

        for t in range(lat.n_t):
            for x in range(lat.n_x):
                s = lat.site(t, x)
                fw = self.cutoff[s] * w
                if not fw:
                    continue
                if t + 1 < lat.n_t:
                    sp = lat.site(t + 1, x)
                    half = fw / (2 * at2)
                    add((sp, sp), half)
                    add((sp, s), -2 * half)
                    add((s, s), half)
                sx = lat.site(t, x + 1)
                halfx = fw / (2 * ax2)
                add((sx, sx), -halfx)
                add((sx, s), 2 * halfx)
                add((s, s), -halfx)
                add((s, s), -fw * m2 / 2)
                if self.lam:
                    add((s, s, s, s), -fw * self.lam / 24)
        return PolyFunctional(lat, terms)

    def euler_lagrange(self, phi, probe) -> np.ndarray:
        """S'(phi) as a site vector: -((box + m^2) phi + lam/3! phi^3) where
        the cutoff is identically 1; raises CutoffTooSmall if a site of
        `probe` has a stencil neighborhood that leaves the flat region."""
        lat = self.lat
        for s in probe:
            t, x = lat.coords(s)
            if not lat.is_interior_time(t):
                raise CutoffTooSmall(f"site {s} touches the time boundary")
            for nb in (s, lat.site(t + 1, x), lat.site(t - 1, x),
                       lat.site(t, x + 1), lat.site(t, x - 1)):
                if self.cutoff[nb] != 1:
                    raise CutoffTooSmall(
                        f"cutoff not 1 on the stencil around site {s}")
        arr = np.asarray(phi, dtype=float).reshape(lat.n_t, lat.n_x)
        out = -(kg_apply(lat, arr)
                + float(self.lam) / 6.0 * arr ** 3)
        out[0, :] = 0.0
        out[-1, :] = 0.0
        return out.reshape(-1)

    def solve_leapfrog(self, phi0, phi1) -> np.ndarray:
        """March the (nonlinear) field equation from two initial time rows;
        the result satisfies euler_lagrange == 0 on interior sites exactly
        up to rounding."""
        return leapfrog(self.lat, phi0, phi1, float(self.lam))
