"""Exact rational-complex scalars.

Every coefficient in the quantization stack lives in Q + iQ so that algebraic
identities can be asserted with ==, not with tolerances.  Floats are dyadic
rationals, hence Fraction(float) is an exact lift (the propagator tables
take the integer route, lattice.dyadic).
"""

from __future__ import annotations

from fractions import Fraction


def to_fraction(x) -> Fraction:
    """Exact lift of int/Fraction/float into Fraction (a float is a dyadic
    rational, so its lift is exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"cannot lift {type(x).__name__} exactly")


class ExactComplex:
    """Complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = to_fraction(re)
        self.im = to_fraction(im)

    @classmethod
    def lift(cls, x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        return cls(to_fraction(x))

    def __add__(self, other):
        o = ExactComplex.lift(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = ExactComplex.lift(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = ExactComplex.lift(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    def __truediv__(self, other):
        o = ExactComplex.lift(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex((self.re * o.re + self.im * o.im) / n,
                            (self.im * o.re - self.re * o.im) / n)

    def __eq__(self, other):
        try:
            o = ExactComplex.lift(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"

