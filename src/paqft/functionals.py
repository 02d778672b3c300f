"""Polynomial functionals of lattice field configurations.

A PolyFunctional is a sparse multivariate polynomial in the site variables
phi[s] with coefficients in Q(i)[hbar, lambda], truncated in both orders.
It is stored in one canonical form, the layout of FLINT's fmpq_poly: grade
slices {(h, l): {monomial: (re, im)}} of Gaussian-integer numerators over
one positive int denominator, with monomial keys sorted site tuples, no
zero pair, no empty slice, no order above the truncation, and no common
factor of the denominator and all numerators.  Every operation reads and
writes that form with int arithmetic over an lcm and reduces its result
once, so == is dict equality.  FormalSeries (series.py) is only the view
through which coefficients are built and read: the constructor takes
FormalSeries or number values, and `terms` gives them back.

add_product is the library's one pointwise multiplication m: `+`, `-`,
pointwise_product and every term of quantization.contract go through it.

Constructors bake the volume weight a_t*a_x into every site sum that stands
for an integral; functional derivatives divide it back out, so contraction
pairings (Peierls bracket, star products) reduce to plain partial-derivative
sums against the kernels with all measure factors cancelled exactly.  The
free action of the lattice is such a functional, whose Hessian is the wave
operator of the Green functions; the interaction is interaction_vertex.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ExactComplex, to_fraction
from .lattice import Lattice1p1
from .series import DEFAULT_TRUNC_H, DEFAULT_TRUNC_L, FormalSeries


class DimensionMismatch(Exception):
    pass


def add_product(acc: dict, banks: tuple, scale: int) -> None:
    """acc += scale * the pointwise product of banks, by sorted monomial.
    Bank keys are sorted, so a product key needs sorting only when both
    of its parts are nonempty; with three banks or more, the product of
    all but the last is sorted before the last joins it."""
    *head, last = banks
    prod = head[0].items() if head else [((), (1, 0))]
    for bank in head[1:]:
        prod = [(tuple(sorted(k1 + k2)) if k1 and k2 else k1 or k2,
                 (a * c - b * e, a * e + b * c))
                for k1, (a, b) in prod for k2, (c, e) in bank.items()]
    last = last.items()
    for k1, (a, b) in prod:
        a, b = a * scale, b * scale
        for k2, (c, e) in last:
            key = tuple(sorted(k1 + k2)) if k1 and k2 else k1 or k2
            r0, i0 = acc.get(key, (0, 0))
            acc[key] = (r0 + a * c - b * e, i0 + a * e + b * c)


def gradient(bank: dict) -> dict:
    """{y: dT/dphi[y]} of a bank T = {sorted monomial: (re, im)}, one entry
    per site T holds: the last slot of each run of y is dropped and the
    run's length multiplies; no two keys of one derivative merge."""
    out: dict[int, dict] = {}
    for key, (re, im) in bank.items():
        last = len(key) - 1
        for i, y in enumerate(key):
            if i == last or key[i + 1] != y:
                m = i + 1 - key.index(y)
                out.setdefault(y, {})[key[:i] + key[i + 1:]] = (m * re, m * im)
    return out


def _same_lattice(F, G) -> None:
    if F.lat is not G.lat:
        raise DimensionMismatch("functionals live on different lattices")


class PolyFunctional:
    """Sparse polynomial functional in the canonical form above; immutable
    by convention."""

    __slots__ = ("lat", "slices", "den", "trunc_h", "trunc_l", "_terms")

    def __init__(self, lat: Lattice1p1, terms,
                 trunc_h: int = DEFAULT_TRUNC_H, trunc_l: int = DEFAULT_TRUNC_L):
        """terms maps site tuples (any order, repeats merge) to FormalSeries
        or exact numbers (an order-(0, 0) coefficient)."""
        parts = []
        for key, c in terms.items():
            key = tuple(sorted(key))
            for s in key:
                if not 0 <= s < lat.n_sites:
                    raise DimensionMismatch(f"site {s} outside lattice")
            series = c.coeff if isinstance(c, FormalSeries) else {(0, 0): c}
            for hl, v in series.items():
                v = ExactComplex.lift(v)
                parts.append((hl, key, v.re, v.im))
        den = math.lcm(*(x.denominator for *_, re, im in parts
                         for x in (re, im)))
        slices: dict[tuple, dict] = {}
        for hl, key, re, im in parts:
            bank = slices.setdefault(hl, {})
            r0, i0 = bank.get(key, (0, 0))
            bank[key] = (r0 + re.numerator * (den // re.denominator),
                         i0 + im.numerator * (den // im.denominator))
        self._set(lat, slices, den, trunc_h, trunc_l)

    @classmethod
    def from_numerators(cls, lat, slices: dict, den: int, trunc_h: int,
                        trunc_l: int) -> "PolyFunctional":
        """The functional of grade slices {(h, l): {sorted monomial:
        (re, im)}} over den >= 1, brought to the canonical form."""
        F = cls.__new__(cls)
        F._set(lat, slices, den, trunc_h, trunc_l)
        return F

    def _set(self, lat, slices, den, trunc_h, trunc_l) -> None:
        """Store slices over den in the canonical form: orders above the
        truncation, zero pairs and empty slices dropped, then one gcd
        over den and every numerator divided out."""
        clean = {}
        g = den
        for (h, l), bank in slices.items():
            if h > trunc_h or l > trunc_l:
                continue
            bank = {k: v for k, v in bank.items() if v[0] or v[1]}
            if bank:
                clean[h, l] = bank
                for re, im in bank.values():
                    if g == 1:
                        break
                    g = math.gcd(g, re, im)
        if g != 1:
            den //= g
            clean = {hl: {k: (re // g, im // g) for k, (re, im) in bank.items()}
                     for hl, bank in clean.items()}
        self.lat = lat
        self.slices = clean
        self.den = den
        self.trunc_h = trunc_h
        self.trunc_l = trunc_l
        self._terms = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, lat, value, trunc_h: int,
                 trunc_l: int) -> "PolyFunctional":
        return cls(lat, {(): value}, trunc_h, trunc_l)

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{monomial: FormalSeries}: the coefficients as reduced Fractions,
        built on first read and kept."""
        if self._terms is None:
            view: dict[tuple, dict] = {}
            for hl, bank in self.slices.items():
                for key, (re, im) in bank.items():
                    view.setdefault(key, {})[hl] = ExactComplex(
                        Fraction(re, self.den), Fraction(im, self.den))
            self._terms = {key: FormalSeries(c, self.trunc_h, self.trunc_l)
                           for key, c in view.items()}
        return self._terms

    def support(self) -> set[int]:
        return {s for bank in self.slices.values() for k in bank for s in k}

    def coefficient(self, key) -> FormalSeries:
        return self.terms.get(tuple(sorted(key)),
                              FormalSeries({}, self.trunc_h, self.trunc_l))

    # -- algebra -------------------------------------------------------------

    def _combine(self, other, sign: int) -> "PolyFunctional":
        """self + sign * other over the lcm of the denominators."""
        _same_lattice(self, other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {hl: {k: (re * a, im * a) for k, (re, im) in bank.items()}
               for hl, bank in self.slices.items()}
        for hl, bank in other.slices.items():
            add_product(out.setdefault(hl, {}), (bank,), b)
        return PolyFunctional.from_numerators(
            self.lat, out, den, min(self.trunc_h, other.trunc_h),
            min(self.trunc_l, other.trunc_l))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        """Scalar multiple (number or FormalSeries); use pointwise_product for F*G."""
        return pointwise_product(self, PolyFunctional.constant(
            self.lat, other, self.trunc_h, self.trunc_l))

    def __eq__(self, other):
        if not isinstance(other, PolyFunctional):
            return NotImplemented
        return (self.den == other.den and self.slices == other.slices
                and self.trunc_h == other.trunc_h
                and self.trunc_l == other.trunc_l)

    def is_zero(self) -> bool:
        return not self.slices

    def conj(self) -> "PolyFunctional":
        """The complex conjugate; hbar and lambda are formal, left alone."""
        return PolyFunctional.from_numerators(
            self.lat, {hl: {k: (re, -im) for k, (re, im) in bank.items()}
                       for hl, bank in self.slices.items()},
            self.den, self.trunc_h, self.trunc_l)

    # -- derivatives ---------------------------------------------------------

    def partial(self, site: int) -> "PolyFunctional":
        """Plain partial derivative d/dphi[site] (no measure factor)."""
        return PolyFunctional.from_numerators(
            self.lat, {hl: gradient(bank).get(site, {})
                       for hl, bank in self.slices.items()},
            self.den, self.trunc_h, self.trunc_l)

    def func_derivative(self, site: int) -> "PolyFunctional":
        """delta F / delta phi(site): partial derivative over the volume weight."""
        return self.partial(site) * (Fraction(1) / self.lat.volume_weight)

    def __repr__(self):
        return (f"PolyFunctional({len(self.terms)} terms, "
                f"trunc=({self.trunc_h},{self.trunc_l}))")


def smeared_field(lat: Lattice1p1, f) -> PolyFunctional:
    """Phi(f) = sum_s f[s] * (a_t a_x) * phi[s]; f a dict site -> value."""
    return local_power(lat, f, 1)


def local_power(lat: Lattice1p1, f, power: int,
                trunc_h: int = DEFAULT_TRUNC_H,
                trunc_l: int = DEFAULT_TRUNC_L) -> PolyFunctional:
    """Integral of f * phi^power: sum_s f[s] * (a_t a_x) * phi[s]^power,
    f a dict site -> value, built as one bank of numerators."""
    if power < 1:
        raise ValueError(f"power = {power}: want >= 1")
    w = lat.volume_weight
    values = [(s, ExactComplex.lift(v)) for s, v in f.items()]
    den = math.lcm(*(x.denominator for _, v in values for x in (v.re, v.im)))
    bank = {}
    for s, v in values:
        if not 0 <= s < lat.n_sites:
            raise DimensionMismatch(f"site {s} outside lattice")
        bank[(s,) * power] = (
            v.re.numerator * (den // v.re.denominator) * w.numerator,
            v.im.numerator * (den // v.im.denominator) * w.numerator)
    return PolyFunctional.from_numerators(
        lat, {(0, 0): bank}, den * w.denominator, trunc_h, trunc_l)


def interaction_vertex(lat: Lattice1p1, f, power: int,
                       trunc_h: int = DEFAULT_TRUNC_H,
                       trunc_l: int = DEFAULT_TRUNC_L) -> PolyFunctional:
    """lambda/power! * integral of f phi^power: the quartic vertex carries one
    formal power of the coupling."""
    return local_power(lat, f, power, trunc_h, trunc_l) * FormalSeries(
        {(0, 1): Fraction(1, math.factorial(power))}, trunc_h, trunc_l)


def pointwise_product(F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
    _same_lattice(F, G)
    th = min(F.trunc_h, G.trunc_h)
    tl = min(F.trunc_l, G.trunc_l)
    out: dict[tuple, dict] = {}
    for (h1, l1), b1 in F.slices.items():
        for (h2, l2), b2 in G.slices.items():
            if h1 + h2 <= th and l1 + l2 <= tl:
                add_product(out.setdefault((h1 + h2, l1 + l2), {}),
                            (b1, b2), 1)
    return PolyFunctional.from_numerators(F.lat, out, F.den * G.den, th, tl)


def free_action(lat: Lattice1p1) -> PolyFunctional:
    """The free action of the lattice, exactly:

        sum over sites of a_t a_x (1/2 (d_t phi)^2 - 1/2 (d_x phi)^2
                                   - 1/2 m^2 phi^2)

    with forward differences, periodic in space and open in time.  Its
    second derivative at an interior site is a_t a_x times the row of the
    linearized operator E = -(box + m^2) that builds the Green functions."""
    w = lat.volume_weight
    kt = w / (2 * lat.a_t ** 2)  # the weight of each (phi(t+1) - phi(t))^2
    kx = w / (2 * lat.a_x ** 2)  # and of each (phi(x+1) - phi(x))^2
    m2 = to_fraction(lat.mass) ** 2
    terms: dict[tuple, Fraction] = {}

    def add(key, val):
        key = tuple(sorted(key))
        terms[key] = terms.get(key, Fraction(0)) + val

    for t in range(lat.n_t):
        for x in range(lat.n_x):
            s = lat.site(t, x)
            if t + 1 < lat.n_t:
                sp = lat.site(t + 1, x)
                add((sp, sp), kt)
                add((sp, s), -2 * kt)
                add((s, s), kt)
            sx = lat.site(t, x + 1)
            add((sx, sx), -kx)
            add((sx, s), 2 * kx)
            add((s, s), -kx - w * m2 / 2)
    return PolyFunctional(lat, terms)
