"""Truncated formal power series in hbar and the coupling lambda: the view
through which the coefficient of one monomial is built and read.

A PolyFunctional stores its coefficients as Gaussian-integer numerators over
one denominator (functionals.py) and does all arithmetic there.  Its
constructor takes FormalSeries values, and PolyFunctional.terms gives them
back, with ExactComplex coefficients of reduced Fractions.
"""

from __future__ import annotations

from .exact import ExactComplex

DEFAULT_TRUNC_H = 2
DEFAULT_TRUNC_L = 2


class FormalSeries:
    """Polynomial in (hbar, lambda) truncated at (trunc_h, trunc_l).

    coeff maps (h_power, l_power) -> ExactComplex; zero coefficients are not
    stored and keys never exceed the truncation orders.
    """

    __slots__ = ("coeff", "trunc_h", "trunc_l")

    def __init__(self, coeff, trunc_h: int = DEFAULT_TRUNC_H,
                 trunc_l: int = DEFAULT_TRUNC_L):
        clean = {}
        for (h, l), c in coeff.items():
            if h < 0 or l < 0:
                raise ValueError("negative series order")
            c = ExactComplex.lift(c)
            if c and h <= trunc_h and l <= trunc_l:
                clean[(h, l)] = c
        self.coeff = clean
        self.trunc_h = trunc_h
        self.trunc_l = trunc_l

    def coefficient(self, h: int, l: int) -> ExactComplex:
        return self.coeff.get((h, l), ExactComplex(0))
