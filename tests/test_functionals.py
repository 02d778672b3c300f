"""Polynomial functionals: derivatives, field equations, and the classical
bracket."""

import random
from fractions import Fraction

import numpy as np
import pytest

from paqft.exact import ExactComplex
from paqft.series import FormalSeries
from paqft.functionals import (PolyFunctional, DimensionMismatch,
                               smeared_field, local_power, interaction_vertex,
                               pointwise_product, free_action)
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


def test_site_bounds_checked(lat_small):
    with pytest.raises(DimensionMismatch):
        PolyFunctional(lat_small, {(lat_small.n_sites,): 1})


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
