"""Polynomial functionals: derivatives, field equations, and the classical
bracket."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from paqft.exact import ExactComplex
from paqft.series import DEFAULT_TRUNC_H, DEFAULT_TRUNC_L, FormalSeries
from paqft.functionals import (PolyFunctional, DimensionMismatch,
                               smeared_field, local_power, interaction_vertex,
                               pointwise_product, free_action, gradient)
from paqft.lattice import Lattice1p1, leapfrog
from paqft.quantization import peierls_bracket
from conftest import el_matrix, interior_sites, make_functional


# -------------------------------------------------------------- derivatives

def test_func_derivative_is_partial_over_volume(lat_small):
    rng = random.Random(22)
    F = make_functional(rng, lat_small, max_degree=2, n_terms=2)
    s = sorted(F.support())[0]
    w = Fraction(1) / lat_small.volume_weight
    assert F.func_derivative(s) == F.partial(s) * w


def partial_bank(bank, y):
    """dT/dphi[y] of a bank T = {monomial: (re, im)}, one site at a time:
    each key holding y loses one y and its coefficient gains its count."""
    out = {}
    for key, (re, im) in bank.items():
        m = key.count(y)
        if m:
            i = key.index(y)
            out[key[:i] + key[i + 1:]] = (m * re, m * im)
    return out


GAUSSIAN_INTS = st.tuples(st.integers(-10 ** 20, 10 ** 20),
                          st.integers(-10 ** 20, 10 ** 20))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(bank={(): (3, -1)})
@example(bank={(2, 2, 2, 2): (1, 1), (2, 5, 5): (0, -7), (2,): (4, 0)})
@given(bank=st.dictionaries(
    st.lists(st.integers(0, 6), max_size=4).map(lambda k: tuple(sorted(k))),
    GAUSSIAN_INTS, max_size=6))
def test_gradient_is_the_partial_at_every_site(bank):
    """Banks with repeated sites up to phi^4, the empty monomial and
    Gaussian-integer values: the gradient holds one entry per site of the
    bank, equal to the one-site derivative, and none for another site."""
    grad = gradient(bank)
    sites = {s for key in bank for s in key}
    assert grad.keys() == sites
    for y in range(-1, 8):
        assert grad.get(y, {}) == partial_bank(bank, y)


def test_site_bounds_checked(lat_small):
    with pytest.raises(DimensionMismatch):
        PolyFunctional(lat_small, {(lat_small.n_sites,): 1})


def ref_local_power(lat, f, power, trunc_h, trunc_l):
    """local_power by the generic route: each value lifted, times the volume
    weight, through the PolyFunctional constructor."""
    w = lat.volume_weight
    return PolyFunctional(lat, {(s,) * power: ExactComplex.lift(v) * w
                                for s, v in f.items()}, trunc_h, trunc_l)


# a_t a_x = 1/2 and 2/9
LOCAL_LATTICES = [Lattice1p1(8, 4, Fraction(1, 2), Fraction(1)),
                  Lattice1p1(8, 4, Fraction(1, 3), Fraction(2, 3))]
RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
VALUES = st.one_of(
    st.just(0), st.integers(-10, 10), RATIONAL,
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(ExactComplex, RATIONAL, RATIONAL))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(lat=0, f={}, power=1, th=2, tl=2)
@example(lat=1, f={0: 0, 5: ExactComplex(0)}, power=2, th=2, tl=2)
@example(lat=1, f={3: 5e-324, 7: -1e300, 9: Fraction(2, 9),
                   31: ExactComplex(Fraction(1, 3), Fraction(-4, 7))},
         power=4, th=0, tl=0)
@given(lat=st.integers(0, 1),
       f=st.dictionaries(st.integers(0, 31), VALUES, max_size=6),
       power=st.integers(1, 4), th=st.integers(0, 3), tl=st.integers(0, 3))
def test_local_power_matches_the_constructor_route(lat, f, power, th, tl):
    lat = LOCAL_LATTICES[lat]
    assert local_power(lat, f, power, th, tl) == ref_local_power(
        lat, f, power, th, tl)
    assert smeared_field(lat, f) == ref_local_power(
        lat, f, 1, DEFAULT_TRUNC_H, DEFAULT_TRUNC_L)


@pytest.mark.parametrize("site", [-1, 32])
def test_local_power_checks_its_sites(lat_small, site):
    for power in (1, 2, 4):
        for build in (local_power, ref_local_power):
            with pytest.raises(DimensionMismatch):
                build(lat_small, {0: 1, site: Fraction(1, 3)}, power, 2, 2)
    with pytest.raises(ValueError, match="power = 0"):
        local_power(lat_small, {0: 1}, 0)


def test_interaction_vertex_carries_coupling(lat_small):
    V = interaction_vertex(lat_small, {5: Fraction(1)}, 4)
    c = V.coefficient((5, 5, 5, 5))
    assert c.coefficient(0, 1) == ExactComplex(
        lat_small.volume_weight * Fraction(1, 24))
    assert c.coefficient(0, 0) == ExactComplex(0)


# --------------------------------------------------------- field equations

def test_leapfrog_solution_satisfies_field_equation():
    """The leapfrog march from two random time rows solves E phi = 0 on
    the interior rows, E the dense oracle."""
    lat = Lattice1p1(12, 8, Fraction(1, 2), Fraction(1))
    rng = np.random.default_rng(4)
    phi0 = rng.normal(size=lat.n_x) * 0.3
    phi1 = phi0 + 0.05 * rng.normal(size=lat.n_x)
    phi = leapfrog(lat, phi0, phi1).reshape(-1)
    rows = interior_sites(lat)
    assert np.max(np.abs((el_matrix(lat) @ phi)[rows])) < 1e-12


def test_constant_field_euler_lagrange(lat_small):
    """At a constant field c the action's derivative at an interior site
    is -m^2 c a_t a_x, exactly: the field equation of the free action."""
    S = free_action(lat_small)
    c = Fraction(7, 10)
    want = -Fraction(lat_small.mass) ** 2 * c * lat_small.volume_weight
    for s in interior_sites(lat_small):
        D = S.partial(s)
        assert list(D.slices) == [(0, 0)]
        bank = D.slices[0, 0]
        assert not any(im for _, im in bank.values())
        assert sum(Fraction(re, D.den) * c ** len(key)
                   for key, (re, _) in bank.items()) == want


def test_action_second_derivative_is_linearized_operator(lat_small):
    """d^2 S / dphi_s dphi_r at zero reproduces the weighted E stencil on
    every interior row."""
    S = free_action(lat_small)
    E = el_matrix(lat_small)
    w = lat_small.volume_weight
    for s in interior_sites(lat_small):
        row = S.partial(s)
        for r in range(lat_small.n_sites):
            second = row.partial(r).coefficient(()).coefficient(0, 0)
            assert second == ExactComplex(Fraction(E[s, r]) * w)


# ----------------------------------------------------------------- bracket

def test_peierls_antisymmetric_and_bilinear(xp_small, rand_functional):
    F = rand_functional()
    G = rand_functional()
    H = rand_functional()
    assert peierls_bracket(F, G, xp_small) == peierls_bracket(
        G, F, xp_small) * (-1)
    assert (peierls_bracket(F + G, H, xp_small)
            == peierls_bracket(F, H, xp_small)
            + peierls_bracket(G, H, xp_small))


def test_peierls_of_smeared_fields_is_pairing(xp_small):
    lat = xp_small.lat
    f = {lat.site(2, 1): Fraction(1, 2), lat.site(3, 0): Fraction(2)}
    g = {lat.site(4, 2): Fraction(-1, 3)}
    br = peierls_bracket(smeared_field(lat, f), smeared_field(lat, g),
                         xp_small)
    w2 = lat.volume_weight ** 2
    want = sum((fi * xp_small.causal_entry(i, j) * gj
                for i, fi in f.items() for j, gj in g.items()), Fraction(0))
    assert br.coefficient(()).coefficient(0, 0) == ExactComplex(want * w2)


def test_peierls_jacobi_identically_zero(xp_small, rand_functional):
    F = rand_functional(max_degree=2)
    G = rand_functional(max_degree=2)
    H = rand_functional(max_degree=2)
    J = (peierls_bracket(F, peierls_bracket(G, H, xp_small), xp_small)
         + peierls_bracket(G, peierls_bracket(H, F, xp_small), xp_small)
         + peierls_bracket(H, peierls_bracket(F, G, xp_small), xp_small))
    assert J.is_zero()


def test_subtraction_is_adding_the_negative(lat_small):
    rng = random.Random(33)
    series = FormalSeries({(0, 0): Fraction(2, 3),
                           (1, 0): ExactComplex(Fraction(-1, 5), Fraction(3, 7)),
                           (1, 1): Fraction(5, 9)})
    for _ in range(20):
        F = make_functional(rng, lat_small, max_degree=3, n_terms=4)
        G = make_functional(rng, lat_small, max_degree=3, n_terms=4) * series
        shared = PolyFunctional(lat_small, dict(list(F.terms.items())[:2]))
        G = G + shared * series  # overlapping keys, some cancelling parts
        assert F - G == F + G * (-1)
        assert G - F == G + F * (-1)
        assert (F - F).is_zero() and (G - G).is_zero()
        assert F - (F + G) == G * (-1)
        low = PolyFunctional(lat_small, G.terms, trunc_h=1, trunc_l=2)
        assert F - low == F + low * (-1)
        assert (F - low).trunc_h == 1
