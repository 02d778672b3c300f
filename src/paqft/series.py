"""Truncated formal power series in hbar and the coupling lambda.

The coefficient ring for everything downstream.  Coefficients are exact
(ExactComplex); truncation orders travel with each value and mixed-order
operations take the minimum, so orders never silently inflate.
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
            if h > trunc_h or l > trunc_l:
                continue
            c = ExactComplex.lift(c)
            if c:
                clean[(h, l)] = c
        object.__setattr__(self, "coeff", clean)
        object.__setattr__(self, "trunc_h", trunc_h)
        object.__setattr__(self, "trunc_l", trunc_l)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, trunc_h: int, trunc_l: int) -> "FormalSeries":
        return cls({(0, 0): ExactComplex.lift(value)}, trunc_h, trunc_l)

    @classmethod
    def zero(cls, trunc_h: int = DEFAULT_TRUNC_H,
             trunc_l: int = DEFAULT_TRUNC_L) -> "FormalSeries":
        return cls({}, trunc_h, trunc_l)

    @classmethod
    def coupling(cls, trunc_h: int, trunc_l: int) -> "FormalSeries":
        return cls({(0, 1): 1}, trunc_h, trunc_l)

    # -- ring operations ---------------------------------------------------

    def _join(self, other) -> tuple["FormalSeries", int, int]:
        if not isinstance(other, FormalSeries):
            raise TypeError(
                f"a FormalSeries operand, not {type(other).__name__}")
        return (other, min(self.trunc_h, other.trunc_h),
                min(self.trunc_l, other.trunc_l))

    def __add__(self, other):
        o, th, tl = self._join(other)
        out = dict(self.coeff)
        for k, c in o.coeff.items():
            out[k] = out.get(k, 0) + c
        return FormalSeries(out, th, tl)

    def __sub__(self, other):
        o, th, tl = self._join(other)
        out = dict(self.coeff)
        for k, c in o.coeff.items():
            out[k] = out.get(k, 0) - c
        return FormalSeries(out, th, tl)

    def __neg__(self):
        return FormalSeries({k: -c for k, c in self.coeff.items()},
                            self.trunc_h, self.trunc_l)

    def __mul__(self, other):
        o, th, tl = self._join(other)
        out = {}
        for (h1, l1), c1 in self.coeff.items():
            for (h2, l2), c2 in o.coeff.items():
                h, l = h1 + h2, l1 + l2
                if h > th or l > tl:
                    continue
                key = (h, l)
                out[key] = out.get(key, 0) + c1 * c2
        return FormalSeries(out, th, tl)

    def scale(self, c) -> "FormalSeries":
        c = ExactComplex.lift(c)
        return FormalSeries({k: v * c for k, v in self.coeff.items()},
                            self.trunc_h, self.trunc_l)

    # -- queries -----------------------------------------------------------

    def coefficient(self, h: int, l: int) -> ExactComplex:
        return self.coeff.get((h, l), ExactComplex(0))

    def truncate(self, trunc_h: int, trunc_l: int) -> "FormalSeries":
        return FormalSeries(self.coeff, trunc_h, trunc_l)

    def __bool__(self):
        return bool(self.coeff)

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.coeff == other.coeff
                and self.trunc_h == other.trunc_h
                and self.trunc_l == other.trunc_l)

    def __repr__(self):
        if not self.coeff:
            return "FormalSeries(0)"
        parts = []
        for (h, l) in sorted(self.coeff):
            c = self.coeff[(h, l)]
            s = str(c.re) if c.im == 0 else f"({c.re}+{c.im}i)"
            mono = "".join(["" if h == 0 else f"*h^{h}",
                            "" if l == 0 else f"*l^{l}"])
            parts.append(s + mono)
        return "FormalSeries(" + " + ".join(parts) + ")"
