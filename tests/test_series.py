"""Ring laws, truncation and coefficient conjugation for the truncated
double power series."""

import operator

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from paqft.exact import ExactComplex
from paqft.series import FormalSeries


def S(d, th=2, tl=2):
    return FormalSeries({k: ExactComplex(*v) if isinstance(v, tuple)
                         else ExactComplex(v) for k, v in d.items()}, th, tl)


def test_truncation_in_products():
    h = FormalSeries({(1, 0): 1})
    assert not h * h * h  # falls off the hbar <= 2 window
    g = FormalSeries.coupling(2, 2)
    assert h * h * g
    assert not h * g * g * g


def test_a_scalar_operand_is_rejected():
    # a scalar is lifted with FormalSeries.const or multiplied in with scale
    h = FormalSeries({(1, 0): 1})
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="a FormalSeries operand, not int"):
            op(h, 1)
        with pytest.raises(TypeError):
            op(1, h)
    with pytest.raises(TypeError, match="cannot lift complex exactly"):
        ExactComplex.lift(1j)


def test_coefficient_lookup_and_shift():
    s = S({(0, 1): 3, (2, 0): (0, 1)})
    assert s.coefficient(0, 1) == ExactComplex(3)
    assert s.coefficient(1, 1) == ExactComplex(0)
    t = s * FormalSeries({(1, 0): 1})  # one power of hbar up
    assert t.coefficient(1, 1) == ExactComplex(3)
    # (2,0) shifts to (3,0), which falls off the hbar window
    assert t.coefficient(3, 0) == ExactComplex(0)
    assert t.coefficient(2, 1) == ExactComplex(0)


small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def series(draw):
    keys = [(h, l) for h in range(3) for l in range(3)]
    picked = draw(st.lists(st.sampled_from(keys), max_size=4))
    coeff = {}
    for k in picked:
        coeff[k] = ExactComplex(draw(small_frac), draw(small_frac))
    return FormalSeries(coeff)


@given(series(), series(), series())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + FormalSeries.zero() == a
    assert a * FormalSeries.const(1, 2, 2) == a


@given(series())
@settings(max_examples=40, deadline=None)
def test_conjugate_is_involutive_and_multiplicative(a):
    # the involution of Q(i), coefficient by coefficient, is a ring
    # automorphism of the series
    def conj(s):
        return FormalSeries({k: c.conjugate() for k, c in s.coeff.items()})

    assert conj(conj(a)) == a
    b = a * FormalSeries({(1, 0): 1})
    assert conj(a * b) == conj(a) * conj(b)
