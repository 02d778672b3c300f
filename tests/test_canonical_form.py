"""The stored form of a functional is canonical, and its view is exact.

A PolyFunctional keeps Gaussian-integer numerators in grade slices over one
denominator.  The reference below keeps every coefficient as a plain pair of
Fractions per (monomial, h, l), with no lifting and no shared denominator,
in the style of `naive` in test_contraction.py; each library operation is
compared with it twice: through the Fraction view (`terms`) and with ==
against the functional that the constructor builds from the reference.
Inputs have non-dyadic rationals, repeated sites, keys in any order (so
terms merge), zero and cancelling coefficients, and orders above the
truncation.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from paqft.exact import ExactComplex
from paqft.functionals import (DimensionMismatch, PolyFunctional,
                               pointwise_product, smeared_field)
from paqft.quantization import QuantProduct, contract
from paqft.series import FormalSeries
from test_contraction import cmul, functional, plain


# ------------------------------------------------------------- reference

def accumulate(pieces, th, tl):
    """sites -> {(h, l): (re, im)} from (key, (h, l), (re, im)) pieces:
    keys sorted, like terms added, orders above (th, tl) and zeros
    dropped."""
    out = {}
    for key, (h, l), c in pieces:
        if h > th or l > tl:
            continue
        acc = out.setdefault(tuple(sorted(key)), {})
        r0, i0 = acc.get((h, l), (0, 0))
        acc[h, l] = (r0 + c[0], i0 + c[1])
    clean = {}
    for key, acc in out.items():
        acc = {hl: c for hl, c in acc.items() if c != (0, 0)}
        if acc:
            clean[key] = acc
    return clean


def pieces(ref):
    return [(key, hl, c) for key, acc in ref.items() for hl, c in acc.items()]


def ref_combine(a, b, sign, th, tl):
    return accumulate(pieces(a) + [(k, hl, (sign * c[0], sign * c[1]))
                                   for k, hl, c in pieces(b)], th, tl)


def ref_product(a, b, th, tl):
    return accumulate([(k1 + k2, (h1 + h2, l1 + l2), cmul(c1, c2))
                       for k1, (h1, l1), c1 in pieces(a)
                       for k2, (h2, l2), c2 in pieces(b)], th, tl)


def ref_partial(a, site, th, tl):
    out = []
    for key, hl, (re, im) in pieces(a):
        m = key.count(site)
        if m:
            rest = list(key)
            rest.remove(site)
            out.append((tuple(rest), hl, (m * re, m * im)))
    return accumulate(out, th, tl)


def assert_canonical(F):
    assert isinstance(F.den, int) and F.den >= 1
    g = F.den
    for (h, l), bank in F.slices.items():
        assert 0 <= h <= F.trunc_h and 0 <= l <= F.trunc_l
        assert bank, "empty slice"
        for key, (re, im) in bank.items():
            assert key == tuple(sorted(key))
            assert re or im, "zero pair"
            g = math.gcd(g, re, im)
    assert g == 1, "not reduced"


# ------------------------------------------------------------ strategies

# non-dyadic on purpose, zero included
RATIONALS = st.builds(Fraction, st.integers(-7, 7),
                      st.sampled_from([1, 2, 3, 5, 7, 9]))
COMPLEX = st.tuples(RATIONALS, RATIONALS)
SITES = [3, 9, 14, 22]
ORDER = st.integers(0, 3)  # the truncations below are 1 or 2
TRUNC = st.integers(1, 2)


@st.composite
def inputs(draw):
    """(terms, reference, th, tl): the constructor's input, with keys in any
    order and some cancelled under their reversed key, values as
    FormalSeries truncated above (th, tl) or as bare numbers, and the
    reference built from the same pieces."""
    th, tl = draw(TRUNC), draw(TRUNC)
    raw = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(SITES), max_size=3).map(tuple),
        st.tuples(ORDER, ORDER), COMPLEX, st.booleans()), max_size=6))
    series: dict[tuple, dict] = {}
    for key, hl, c, cancel in raw:
        series.setdefault(key, {})[hl] = c
        if cancel and key[::-1] != key:
            series.setdefault(key[::-1], {})[hl] = (-c[0], -c[1])
    terms = {}
    for key, acc in series.items():
        if set(acc) == {(0, 0)} and draw(st.booleans()):
            terms[key] = ExactComplex(*acc[0, 0])
        else:
            terms[key] = FormalSeries(
                {hl: ExactComplex(*c) for hl, c in acc.items()}, 3, 3)
    ref = accumulate([(key, hl, c) for key, acc in series.items()
                      for hl, c in acc.items()], th, tl)
    return terms, ref, th, tl


def build(lat, case):
    terms, ref, th, tl = case
    F = PolyFunctional(lat, terms, th, tl)
    assert_canonical(F)
    assert plain(F) == ref
    return F, ref, th, tl


# ----------------------------------------------------------------- tests

@settings(max_examples=150, deadline=None)
@given(inputs(), inputs(), st.sampled_from(SITES), COMPLEX,
       st.dictionaries(st.tuples(ORDER, ORDER), COMPLEX, max_size=3))
def test_operations_are_canonical_and_match_the_reference(
        lat_small, f, g, site, number, series):
    lat = lat_small
    F, a, th_f, tl_f = build(lat, f)
    G, b, th_g, tl_g = build(lat, g)
    th, tl = min(th_f, th_g), min(tl_f, tl_g)

    def check(got, want, th, tl):
        assert_canonical(got)
        assert plain(got) == want
        assert got == functional(lat, want, th, tl)

    check(F + G, ref_combine(a, b, 1, th, tl), th, tl)
    check(F - G, ref_combine(a, b, -1, th, tl), th, tl)
    check(pointwise_product(F, G), ref_product(a, b, th, tl), th, tl)
    check(F.partial(site), ref_partial(a, site, th_f, tl_f), th_f, tl_f)
    check(F * ExactComplex(*number),
          ref_product(a, {(): {(0, 0): number}}, th_f, tl_f), th_f, tl_f)
    check(F * FormalSeries({hl: ExactComplex(*c)
                            for hl, c in series.items()}, 3, 3),
          ref_product(a, {(): series}, th_f, tl_f), th_f, tl_f)


@settings(max_examples=100, deadline=None)
@given(inputs(), inputs())
def test_round_trips_are_equal_and_a_bump_is_not(lat_small, f, g):
    F, _, th, tl = build(lat_small, f)
    G = PolyFunctional(lat_small, g[0], th, tl)
    assert F + G - G == F
    assert (F - F).slices == {} and (F - F).den == 1
    assert PolyFunctional(lat_small, dict(F.terms), th, tl) == F
    for key, s in F.terms.items():
        for hl, c in s.coeff.items():
            terms = dict(F.terms)
            coeff = dict(s.coeff)
            coeff[hl] = c + ExactComplex(Fraction(1, 2 ** 80))
            terms[key] = FormalSeries(coeff, th, tl)
            assert PolyFunctional(lat_small, terms, th, tl) != F


def test_the_zero_functional_has_one_form(lat_small):
    zeros = [PolyFunctional(lat_small, {}, 2, 2),
             PolyFunctional(lat_small, {(3,): Fraction(1, 3),
                                        (3, 9): 0}, 2, 2)
             - PolyFunctional(lat_small, {(3,): Fraction(2, 6)}, 2, 2),
             PolyFunctional(lat_small, {(3, 9): FormalSeries(
                 {(3, 0): Fraction(1, 7)}, 3, 3)}, 2, 2)]
    for Z in zeros:
        assert (Z.slices, Z.den) == ({}, 1)
    assert all(Z == zeros[0] for Z in zeros)


def test_an_inexact_value_is_rejected(lat_small):
    with pytest.raises(TypeError, match="cannot lift complex exactly"):
        PolyFunctional(lat_small, {(3,): 1j}, 2, 2)


def test_functionals_of_two_lattices_do_not_mix(xp_small, xp24):
    Fa, Fb = smeared_field(xp_small.lat, {3: 1}), smeared_field(xp24.lat,
                                                                {3: 1})
    for F, G in ((Fa, Fb), (Fb, Fa)):
        with pytest.raises(DimensionMismatch):
            F + G
        with pytest.raises(DimensionMismatch):
            F - G
    # the 24x24 sites contracted with the 8x4 kernel
    with pytest.raises(DimensionMismatch, match="kernel"):
        QuantProduct(xp_small, "star_H").product(Fb, Fb)
    with pytest.raises(DimensionMismatch, match="kernel"):
        contract([Fa, Fb], [xp_small.numerators("star")],
                 [(((0, 1, 0),), 1)])
    assert not QuantProduct(xp24, "star_H").product(Fb, Fb).is_zero()
