"""Ring laws, truncation and coefficient conjugation for the truncated
double power series.  The series ring is the coefficient ring of the
functionals, so its operations are those of constant functionals; a
FormalSeries is the view of one coefficient."""

from hypothesis import given, settings
import hypothesis.strategies as st

from paqft.exact import ExactComplex
from paqft.functionals import PolyFunctional, pointwise_product
from paqft.series import FormalSeries


def S(d, th=2, tl=2):
    return FormalSeries({k: ExactComplex(*v) if isinstance(v, tuple)
                         else ExactComplex(v) for k, v in d.items()}, th, tl)


def test_truncation_in_products(lat_small):
    def const(d):
        return PolyFunctional(lat_small, {(): S(d)})

    h, g = const({(1, 0): 1}), const({(0, 1): 1})
    assert pointwise_product(h, pointwise_product(h, h)).is_zero()
    assert not pointwise_product(h, pointwise_product(h, g)).is_zero()
    assert pointwise_product(pointwise_product(h, g),
                             pointwise_product(g, g)).is_zero()


def test_coefficient_lookup_and_shift(lat_small):
    s = S({(0, 1): 3, (2, 0): (0, 1)})
    assert s.coefficient(0, 1) == ExactComplex(3)
    assert s.coefficient(1, 1) == ExactComplex(0)
    # one power of hbar up
    t = (PolyFunctional(lat_small, {(): s})
         * FormalSeries({(1, 0): 1})).coefficient(())
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
def test_ring_laws(lat_small, a, b, c):
    a, b, c = (PolyFunctional(lat_small, {(): s}) for s in (a, b, c))
    one = PolyFunctional.constant(lat_small, 1, 2, 2)
    zero = PolyFunctional.constant(lat_small, 0, 2, 2)
    mul = pointwise_product
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert a + zero == a
    assert mul(a, one) == a


@given(series(), series())
@settings(max_examples=40, deadline=None)
def test_conjugate_is_involutive_and_multiplicative(lat_small, a, b):
    # the involution of Q(i), coefficient by coefficient, is a ring
    # automorphism of the series
    def conj(s):
        return FormalSeries({k: ExactComplex(c.re, -c.im)
                             for k, c in s.coeff.items()})

    def mul(s, t):
        return pointwise_product(PolyFunctional(lat_small, {(): s}),
                                 PolyFunctional(lat_small, {(): t})
                                 ).coefficient(())

    assert conj(conj(a)).coeff == a.coeff
    assert conj(mul(a, b)).coeff == mul(conj(a), conj(b)).coeff
