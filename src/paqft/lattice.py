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
from fractions import Fraction

import numpy as np

from .exact import ExactComplex, to_fraction


class LatticeError(Exception):
    pass


class UnstableStep(LatticeError):
    """Leapfrog stability violated (Courant or massive band-edge bound)."""


class ZeroModeSingular(LatticeError):
    """m = 0 has an undamped k = 0 mode; no positive-frequency split."""


class Lattice1p1:
    """Uniform n_t x n_x grid, spacings a_t, a_x (exact rationals), mass m."""

    def __init__(self, n_t: int = 24, n_x: int = 24,
                 a_t=Fraction(1, 2), a_x=Fraction(1), mass: float = 1.0):
        if n_t < 4 or n_x < 4 or n_x % 2:
            raise ValueError("need n_t >= 4 and even n_x >= 4")
        a_t = to_fraction(a_t)
        a_x = to_fraction(a_x)
        if a_t <= 0 or a_x <= 0:
            raise ValueError("spacings must be positive")
        if a_t > a_x:
            raise UnstableStep(f"Courant condition a_t <= a_x violated: "
                               f"{a_t} > {a_x}")
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        # band edge: a_t^2 * max_k Omega_k^2 < 4 keeps every mode oscillatory
        edge = float(a_t) ** 2 * (mass ** 2 + 4.0 / float(a_x) ** 2)
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

    def is_interior_time(self, t: int) -> bool:
        return 1 <= t <= self.n_t - 2

    def interior_sites(self) -> list[int]:
        return [self.site(t, x) for t in range(1, self.n_t - 1)
                for x in range(self.n_x)]

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


def kg_operator(lat: Lattice1p1) -> np.ndarray:
    """Dense stencil matrix for box + m^2 (signature +,-), interior time rows only."""
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


def el_operator(lat: Lattice1p1) -> np.ndarray:
    """E = S''(0) = -(box + m^2): the linearized field-equation operator."""
    return -kg_operator(lat)


def kg_apply(lat: Lattice1p1, phi: np.ndarray) -> np.ndarray:
    """Apply the box + m^2 stencil to a (n_t, n_x) field; boundary rows zero."""
    at2 = float(lat.a_t) ** 2
    ax2 = float(lat.a_x) ** 2
    out = np.zeros_like(phi, dtype=float)
    dtt = phi[2:, :] - 2.0 * phi[1:-1, :] + phi[:-2, :]
    dxx = (np.roll(phi, -1, axis=1) - 2.0 * phi
           + np.roll(phi, 1, axis=1))[1:-1, :]
    out[1:-1, :] = dtt / at2 - dxx / ax2 + lat.mass ** 2 * phi[1:-1, :]
    return out


class PropagatorSet:
    """All free propagators of one lattice, as translation-invariant tables
    and (for small lattices) dense site-indexed matrices.

    Kernels are continuum normalized: E applied to the retarded kernel gives
    the lattice delta delta_xy/(a_t*a_x) on interior rows.
    """

    def __init__(self, lat: Lattice1p1):
        self.lat = lat
        self._ret_table = None
        self._wightman_table = None
        self._retarded = None

    # -- translation-invariant tables ---------------------------------------

    def ret_table(self) -> np.ndarray:
        """g[n, dx]: retarded response n steps after a unit kernel-delta source."""
        if self._ret_table is None:
            lat = self.lat
            at = float(lat.a_t)
            ax = float(lat.a_x)
            c2 = at * at / (ax * ax)
            m2at2 = lat.mass ** 2 * at * at
            g = np.zeros((lat.n_t, lat.n_x))
            if lat.n_t > 1:
                g[1, 0] = -at / ax  # kick from the source row of E g = delta
            for n in range(1, lat.n_t - 1):
                dxx = np.roll(g[n], -1) - 2.0 * g[n] + np.roll(g[n], 1)
                g[n + 1] = 2.0 * g[n] - g[n - 1] + c2 * dxx - m2at2 * g[n]
            self._ret_table = g
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
            n = np.arange(-(lat.n_t - 1), lat.n_t)[:, None, None]
            dx = np.arange(lat.n_x)[None, :, None]
            phase = np.exp(-1j * omega_hat[None, None, :] * n * at
                           + 1j * k[None, None, :] * dx * ax)
            wt = (phase / (2.0 * s_hat[None, None, :])).sum(axis=2)
            self._wightman_table = wt / (lat.n_x * ax)
        return self._wightman_table

    # -- dense matrices ------------------------------------------------------

    def _offsets(self):
        lat = self.lat
        t = np.arange(lat.n_t).repeat(lat.n_x)
        x = np.tile(np.arange(lat.n_x), lat.n_t)
        dt = t[:, None] - t[None, :]
        dx = (x[:, None] - x[None, :]) % lat.n_x
        return dt, dx

    def retarded(self) -> np.ndarray:
        if self._retarded is None:
            g = self.ret_table()
            dt, dx = self._offsets()
            out = np.zeros(dt.shape)
            mask = dt > 0
            out[mask] = g[dt[mask], dx[mask]]
            self._retarded = out
        return self._retarded

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
    """(nums, e): the floats as exact integer numerators over 2**e, e >= 0
    the least such, read off their integer ratios (no float is scaled)."""
    ratios = [float(x).as_integer_ratio() for x in values]
    e = max((q for _, q in ratios), default=1).bit_length() - 1
    return [p << (e - q.bit_length() + 1) for p, q in ratios], e


# Each kernel kind as (re, im) over 2**(e + 1), an integer formula in the
# numerators over 2**e of the retarded entry r, the advanced entry a (r at the
# mirrored offset) and the Hadamard entry h at one offset.  h is a thunk, as a
# massless lattice has no positive-frequency table.
_KINDS = {
    "causal": lambda r, a, h: (2 * (r - a), 0),
    "hadamard": lambda r, a, h: (2 * h(), 0),
    "star": lambda r, a, h: (0, r - a),
    "star_H": lambda r, a, h: (2 * h(), r - a),
    "timeordered_D": lambda r, a, h: (0, r + a),
    "timeordered_F": lambda r, a, h: (2 * h(), r + a),
    "antitimeordered_F": lambda r, a, h: (2 * h(), -(r + a)),
}


class ExactPropagators:
    """Exact rational lifts of the float propagator tables, one integer
    table per kernel kind.

    On first use the retarded and positive-frequency float tables are lifted
    whole to integer numerators over one power of two (`dyadic`); only the
    kinds free of h work on a massless lattice, which has no
    positive-frequency table.  Every kernel depends only on the site offset
    (n, dx), so each kind keeps one table keyed by offset that holds (re, im)
    int pairs over the lattice's one denominator, each computed once per
    lattice on first use.  Structural identities hold by construction
    (antisymmetric causal kernel, symmetric Hadamard kernel, Wightman =
    H + (i/2)Delta, Feynman = H + i*DiracD, anti-Feynman = H - i*DiracD), so
    every algebraic relation between the kernels holds exactly over the
    rationals, entry by entry.
    """

    def __init__(self, ps):
        if isinstance(ps, Lattice1p1):
            ps = PropagatorSet(ps)
        self.ps = ps
        self.lat = ps.lat
        self._tables = {kind: {} for kind in _KINDS}

    @functools.cached_property
    def _lifted(self) -> tuple[list[int], list[int] | None, int]:
        """(ret, had, den): the retarded and Hadamard tables, flat, as
        numerators over den / 2; had is None on a massless lattice."""
        ret = self.ps.ret_table().ravel().tolist()
        had = (self.ps.wightman_table().real.ravel().tolist()
               if self.lat.mass > 0 else [])
        nums, e = dyadic(ret + had)
        return nums[:len(ret)], nums[len(ret):] if had else None, 2 << e

    def _lift(self, key: int):
        """(r, a, h) at the offset key = n * n_x + dx; h is a thunk.  H is
        read at the smaller of the offset and its mirror, so it is exactly
        symmetric."""
        n_t, n_x = self.lat.n_t, self.lat.n_x
        ret, had, _ = self._lifted
        n, dx = divmod(key, n_x)
        mirror = -n * n_x + -dx % n_x
        r = ret[key] if n > 0 else 0
        a = ret[mirror] if n < 0 else 0

        def h():
            if had is None:
                self.ps.wightman_table()  # raises ZeroModeSingular
            return had[min(key, mirror) + (n_t - 1) * n_x]
        return r, a, h

    def _entry(self, kind: str, i: int, j: int) -> tuple[int, int]:
        n_x = self.lat.n_x
        key = (i // n_x - j // n_x) * n_x + (i - j) % n_x
        table = self._tables[kind]
        e = table.get(key)
        if e is None:
            e = table[key] = _KINDS[kind](*self._lift(key))
        return e

    def numerators(self, kind: str):
        """Kernel `kind` (a key of _KINDS) as (entry, den), the form the
        contraction engine takes: entry(i, j) -> (re, im) is the kernel at
        (i, j) times den, as ints.  Sites at the same offset share one
        pair."""
        if kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        return functools.partial(self._entry, kind), self._lifted[2]

    def kernel(self, kind: str):
        """Kernel `kind` as (i, j) -> ExactComplex, a view of numerators."""
        entry, den = self.numerators(kind)
        return lambda i, j: ExactComplex(*(Fraction(v, den)
                                           for v in entry(i, j)))

    def causal_entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._entry("causal", i, j)[0], self._lifted[2])
