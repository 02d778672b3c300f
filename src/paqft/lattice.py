"""Discretized 1+1D Minkowski spacetime and the free-field propagators.

Periodic in space, open in time.  The linearized field-equation operator is
E = -(box + m^2) with the centered second-difference box; its retarded Green
kernel is built by leapfrog time stepping, so support inside the lattice cone
(one spatial cell per time step) holds with exact zeros outside.

The positive-frequency two-point kernel uses the leapfrog dispersion

    omega_hat_k = (2/a_t) * arcsin(a_t * Omega_k / 2),
    Omega_k^2   = m^2 + (2/a_x * sin(k a_x / 2))^2,

with mode amplitude 1/(2 s_k N_x a_x), s_k = sin(omega_hat_k a_t)/a_t.  With
these choices the mode-sum and time-stepped commutator kernels agree to
rounding and the equal-time canonical pairing is exact, which the exact-lift
layer (ExactPropagators) turns into identities over the rationals.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import InputError
from .exact import to_fraction


class LatticeError(InputError):
    pass


class UnstableStep(LatticeError):
    """Leapfrog stability violated (Courant or massive band-edge bound)."""


class ZeroModeSingular(LatticeError):
    """m = 0 has an undamped k = 0 mode; no positive-frequency split."""


class Lattice1p1:
    """Uniform n_t x n_x grid, spacings a_t, a_x (exact rationals), mass m."""

    def __init__(self, n_t: int, n_x: int,
                 a_t=Fraction(1, 2), a_x=Fraction(1), mass: float = 1.0):
        if n_t < 4 or n_x < 4 or n_x % 2:
            raise LatticeError(f"n_t = {n_t}, n_x = {n_x}: need n_t >= 4, "
                               f"even n_x >= 4")
        a_t = to_fraction(a_t)
        a_x = to_fraction(a_x)
        if a_t <= 0 or a_x <= 0:
            raise LatticeError(f"a_t = {a_t}, a_x = {a_x}: want both > 0")
        if a_t > a_x:
            raise UnstableStep(f"Courant condition a_t <= a_x violated: "
                               f"{a_t} > {a_x}")
        if not 0 <= mass < math.inf:
            raise LatticeError(f"mass = {mass}: want a finite number >= 0")
        # band edge: a_t^2 * max_k Omega_k^2 < 4 keeps every mode oscillatory
        try:
            edge = float(a_t) ** 2 * (mass ** 2 + 4.0 / float(a_x) ** 2)
        except ArithmeticError:  # overflow, or a_x^2 underflowing to 0
            raise LatticeError(f"a_t = {a_t}, a_x = {a_x}, mass = {mass}: "
                               f"the band edge leaves the float range"
                               ) from None
        if mass > 0 and edge >= 4.0:
            raise UnstableStep(
                f"massive band edge a_t^2 (m^2 + 4/a_x^2) = {edge:.6g} >= 4")
        self.n_t = n_t
        self.n_x = n_x
        self.a_t = a_t
        self.a_x = a_x
        self.mass = float(mass)

    @property
    def n_sites(self) -> int:
        return self.n_t * self.n_x

    @property
    def volume_weight(self) -> Fraction:
        """Exact weight a_t*a_x carried by every site sum standing for an integral."""
        return self.a_t * self.a_x

    def site(self, t: int, x: int) -> int:
        if not 0 <= t < self.n_t:
            raise IndexError(f"time index {t} outside open interval")
        return t * self.n_x + x % self.n_x

    def coords(self, i: int) -> tuple[int, int]:
        return divmod(i, self.n_x)

    def per_dist(self, x1: int, x2: int) -> int:
        d = abs(x1 - x2) % self.n_x
        return min(d, self.n_x - d)

    def in_past_cone(self, i: int, j: int) -> bool:
        """Site i in the (closed) lattice past cone of site j, slope one cell per step."""
        ti, xi = self.coords(i)
        tj, xj = self.coords(j)
        return ti <= tj and self.per_dist(xi, xj) <= tj - ti

    def __repr__(self):
        return (f"Lattice1p1(n_t={self.n_t}, n_x={self.n_x}, "
                f"a_t={self.a_t}, a_x={self.a_x}, m={self.mass})")


def leapfrog(lat: Lattice1p1, phi0, phi1) -> np.ndarray:
    """March (box + m^2) phi = 0 from the time rows phi0 and phi1 over the
    whole (n_t, n_x) grid."""
    at = float(lat.a_t)
    ax = float(lat.a_x)
    c2 = at * at / (ax * ax)
    m2at2 = lat.mass ** 2 * at * at
    phi = np.zeros((lat.n_t, lat.n_x))
    phi[0] = phi0
    phi[1] = phi1
    row = np.empty(lat.n_x + 2)  # phi[n] between its periodic neighbours
    for n in range(1, lat.n_t - 1):
        p, two = phi[n], 2.0 * phi[n]
        row[1:-1], row[0], row[-1] = p, p[-1], p[0]
        dxx = row[2:] - two + row[:-2]
        phi[n + 1] = two - phi[n - 1] + c2 * dxx - m2at2 * p
    return phi


class PropagatorSet:
    """All free propagators of one lattice, as translation-invariant tables
    keyed by the site offset (n, dx); a kernel at a site pair is its table
    read at their offset (see causal_column and ExactPropagators).

    Kernels are continuum normalized: E applied to the retarded kernel gives
    the lattice delta delta_xy/(a_t*a_x) on interior rows.
    """

    def __init__(self, lat: Lattice1p1):
        self.lat = lat
        self._ret_table = None
        self._wightman_table = None

    # -- translation-invariant tables ---------------------------------------

    def ret_table(self) -> np.ndarray:
        """g[n, dx]: retarded response n steps after a unit kernel-delta source."""
        if self._ret_table is None:
            lat = self.lat
            kick = np.zeros(lat.n_x)  # from the source row of E g = delta
            kick[0] = -float(lat.a_t) / float(lat.a_x)
            self._ret_table = leapfrog(lat, 0.0, kick)
        return self._ret_table

    def mode_data(self):
        lat = self.lat
        if lat.mass == 0:
            raise ZeroModeSingular("positive-frequency split needs m > 0")
        at = float(lat.a_t)
        ax = float(lat.a_x)
        j = np.arange(lat.n_x)
        k = 2.0 * np.pi * j / (lat.n_x * ax)
        omega2 = lat.mass ** 2 + (2.0 / ax * np.sin(k * ax / 2.0)) ** 2
        arg = at * np.sqrt(omega2) / 2.0
        if np.any(arg >= 1.0):
            raise UnstableStep("mode frequency outside the leapfrog band")
        omega_hat = 2.0 / at * np.arcsin(arg)
        s_hat = np.sin(omega_hat * at) / at
        return k, omega_hat, s_hat

    def wightman_table(self) -> np.ndarray:
        """wt[n + n_t - 1, dx]: positive-frequency kernel at time offset n."""
        if self._wightman_table is None:
            lat = self.lat
            k, omega_hat, s_hat = self.mode_data()
            at = float(lat.a_t)
            ax = float(lat.a_x)
            # a time row at a time, so the transient phases are (n_x, modes),
            # not (2 n_t - 1, n_x, modes); same reduction, same bits
            space = 1j * k * np.arange(lat.n_x)[:, None] * ax
            wt = np.array([
                (np.exp(-1j * omega_hat * n * at + space)
                 / (2.0 * s_hat)).sum(axis=1)
                for n in range(-(lat.n_t - 1), lat.n_t)]) / (lat.n_x * ax)
            if not np.isfinite(wt).all():
                raise LatticeError(f"mass = {lat.mass}: the positive-"
                                   f"frequency table is not finite")
            self._wightman_table = wt
        return self._wightman_table

    # -- column views (large lattices) ---------------------------------------

    def causal_column(self, t0: int, x0: int) -> np.ndarray:
        """Delta(. , y0) over the full grid as an (n_t, n_x) array."""
        g = self.ret_table()
        lat = self.lat
        xs = np.arange(lat.n_x)
        out = np.zeros((lat.n_t, lat.n_x))
        for t in range(lat.n_t):
            n = t - t0
            if n > 0:
                out[t] = g[n][(xs - x0) % lat.n_x]
            elif n < 0:
                out[t] = -g[-n][(x0 - xs) % lat.n_x]
        return out


def dyadic(values) -> tuple[list[int], int]:
    """(nums, e): the finite floats as exact integer numerators over 2**e,
    e >= 0 the least such.  Each float is its 53-bit mantissa as an int64
    times a power of two (np.frexp); the mantissa's trailing zeros are
    shifted out, e is minus the least remaining exponent (0 when none is
    negative), and one shift of Python ints puts every numerator over
    2**e."""
    m, ex = np.frexp(np.asarray(values, dtype=float).ravel())
    if not np.isfinite(m).all():
        raise ValueError("dyadic takes finite floats")
    mant = (m * 2.0 ** 53).astype(np.int64)
    nonzero = mant != 0
    zeros = np.frexp(mant & -mant)[1] - 1  # trailing zeros of the mantissa
    mant >>= np.where(nonzero, zeros, 0)
    ex = np.where(nonzero, ex - 53 + zeros, 0)
    e = -int(ex.min(initial=0))
    return (mant.astype(object) << (ex + e).astype(object)).tolist(), e


# Each kernel kind as (re, im) over 2**(e + 1), an integer formula in the
# numerators over 2**e of the retarded entry r, the advanced entry a (r at the
# mirrored offset) and the Hadamard entry h, read from their flat lists at
# one offset k.  Only the kinds in _READS_H index h.
_KINDS = {
    "causal": lambda r, a, h, k: (2 * (r[k] - a[k]), 0),
    "hadamard": lambda r, a, h, k: (2 * h[k], 0),
    "star": lambda r, a, h, k: (0, r[k] - a[k]),
    "star_H": lambda r, a, h, k: (2 * h[k], r[k] - a[k]),
    "timeordered_D": lambda r, a, h, k: (0, r[k] + a[k]),
    "timeordered_F": lambda r, a, h, k: (2 * h[k], r[k] + a[k]),
}
_READS_H = {"hadamard", "star_H", "timeordered_F"}


class ExactPropagators:
    """Exact rational lifts of the float propagator tables, as flat lists.

    On first use the retarded and positive-frequency float tables are lifted
    whole to integer numerators over one power of two (`dyadic`), laid out
    by the offset k = (n + n_t - 1) * n_x + dx: the retarded numerator r (0
    for n <= 0), the advanced a (r at the mirrored offset) and the Hadamard
    h (read at the smaller of the offset and its mirror, so exactly
    symmetric).  A kind's entry at a site pair is an integer formula
    (`_KINDS`) in them at the pair's offset, an (re, im) int pair over the
    lattice's one denominator, computed on each read; only the kinds free
    of h work on a massless lattice, which has no positive-frequency table.
    Structural identities hold by construction (antisymmetric causal
    kernel, symmetric Hadamard kernel, Wightman = H + (i/2)Delta, Feynman =
    H + i*DiracD), so every algebraic relation between the kernels holds
    exactly over the rationals, entry by entry.
    """

    def __init__(self, ps):
        if isinstance(ps, Lattice1p1):
            ps = PropagatorSet(ps)
        self.ps = ps
        self.lat = ps.lat
        self._causal = {}

    @functools.cached_property
    def _lifted(self) -> tuple[list[int], list[int], list[int] | None, int]:
        """(r, a, h, den): the retarded, advanced and Hadamard numerators
        over den / 2 by offset k; h is None on a massless lattice."""
        n_t, n_x = self.lat.n_t, self.lat.n_x
        ret = self.ps.ret_table().ravel().tolist()
        had = (self.ps.wightman_table().real.ravel().tolist()
               if self.lat.mass > 0 else [])
        nums, e = dyadic(ret + had)
        r = [0] * (n_t * n_x) + nums[n_x:len(ret)]
        k = np.arange(len(r))
        mirror = (2 * n_t - 2 - k // n_x) * n_x + -k % n_x
        h = ([nums[i] for i in (np.minimum(k, mirror) + len(ret)).tolist()]
             if had else None)
        return r, [r[m] for m in mirror.tolist()], h, 2 << e

    def _offset(self, i: int, j: int) -> int:
        n_x = self.lat.n_x
        return (i // n_x - j // n_x + self.lat.n_t - 1) * n_x + (i - j) % n_x

    def _rows(self, kind: str, ys, zs) -> dict:
        """{y: {z: entry}} over the nonzero entries of `kind` at (y, z): the
        offset of each pair read off precomputed (t * n_x, x) per site;
        ZeroModeSingular for a kind that reads h on a massless lattice."""
        r, a, h, _ = self._lifted
        if h is None and kind in _READS_H:
            self.ps.wightman_table()  # raises ZeroModeSingular
        f = _KINDS[kind]
        n_x = self.lat.n_x
        past = (self.lat.n_t - 1) * n_x
        cols = [(z, z - z % n_x - past, z % n_x) for z in zs]
        out = {}
        for y in ys:
            ty, xy = y - y % n_x, y % n_x
            row = {}
            for z, tz, xz in cols:
                e = f(r, a, h, ty - tz + (xy - xz) % n_x)
                if e[0] or e[1]:
                    row[z] = e
            if row:
                out[y] = row
        return out

    def numerators(self, kind: str):
        """Kernel `kind` (a key of _KINDS) as (lat, rows, den), the form the
        contraction engine takes: rows(ys, zs) -> {y: {z: (re, im)}} holds
        the nonzero kernel entries at (y, z) times den, as ints."""
        if kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        return self.lat, functools.partial(self._rows, kind), self._lifted[3]

    def causal_entry(self, i: int, j: int) -> Fraction:
        """Delta(i, j) as a reduced Fraction, one per offset."""
        k = self._offset(i, j)
        c = self._causal.get(k)
        if c is None:
            r, a, _, den = self._lifted
            c = self._causal[k] = Fraction(r[k] - a[k], den >> 1)
        return c
