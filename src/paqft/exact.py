"""Exact rational-complex scalars.

Every coefficient in the quantization stack lives in Q + iQ so that algebraic
identities can be asserted with ==, not with tolerances.  Floats are dyadic
rationals, hence Fraction(float) is an exact lift (the propagator tables
take the integer route, lattice.dyadic).
"""

from __future__ import annotations

from fractions import Fraction


def to_fraction(x) -> Fraction:
    """Exact lift of int/Fraction/float into Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # dyadic lift, exact by IEEE-754
        return Fraction(x)
    raise TypeError(f"cannot lift {type(x).__name__} exactly")


class ExactComplex:
    """Complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", to_fraction(re))
        object.__setattr__(self, "im", to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def lift(cls, x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        return cls(to_fraction(x))

    def __add__(self, other):
        o = ExactComplex.lift(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactComplex.lift(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactComplex.lift(other) - self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        o = ExactComplex.lift(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ExactComplex.lift(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex((self.re * o.re + self.im * o.im) / n,
                            (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return ExactComplex.lift(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = EC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def __eq__(self, other):
        try:
            o = ExactComplex.lift(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"


EC_ONE = ExactComplex(1)
