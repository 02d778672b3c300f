"""Deformation products, Bogoliubov maps, and causal factorization.

Everything here is exact rational-complex arithmetic, so equalities are
asserted with == on functionals, not with tolerances.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from paqft.exact import ExactComplex
from paqft.series import FormalSeries
from paqft.functionals import (PolyFunctional, smeared_field, local_power,
                               interaction_vertex, pointwise_product)
from paqft.quantization import (QuantProduct, alpha_H, star_H_equivalence_check,
                                wick_theorem_demo, BogoliubovMap,
                                s_matrix, causal_factorization_check,
                                time_order_op,
                                causally_later, multilocal_injectivity_check,
                                NoLambdaGrading, RankDeficient)

from conftest import make_functional


def sparse(rng, lat, n=3):
    f = {}
    for _ in range(n):
        t = rng.randrange(1, lat.n_t - 1)
        x = rng.randrange(lat.n_x)
        f[lat.site(t, x)] = Fraction(rng.randint(-9, 9) or 1,
                                     rng.randint(1, 4))
    return f


def pairing(xp, f, g):
    """w^2 sum_{y,z} f(y) Delta(y,z) g(z), exact."""
    w = xp.lat.volume_weight
    acc = Fraction(0)
    for y, fy in f.items():
        for z, gz in g.items():
            acc += fy * xp.causal_entry(y, z) * gz
    return acc * w * w


def test_star_commutator_of_fields_is_central(xp_small):
    lat = xp_small.lat
    star = QuantProduct(xp_small, "star")
    rng = random.Random(5)
    for _ in range(6):
        f, g = sparse(rng, lat), sparse(rng, lat)
        F = smeared_field(lat, f)
        G = smeared_field(lat, g)
        val = pairing(xp_small, f, g)
        want = PolyFunctional(lat, {
            (): FormalSeries({(1, 0): ExactComplex(0, val)})})
        assert star.commutator(F, G) == want


def test_hbar_zero_slice_is_pointwise(xp_small, rand_functional):
    star = QuantProduct(xp_small, "star")
    for _ in range(4):
        F = rand_functional()
        G = rand_functional()
        P = star.product(F, G)
        Q = pointwise_product(F, G)
        for key in set(P.terms) | set(Q.terms):
            a = P.terms.get(key, FormalSeries({}))
            b = Q.terms.get(key, FormalSeries({}))
            assert ({l: v for (h, l), v in a.coeff.items() if h == 0}
                    == {l: v for (h, l), v in b.coeff.items() if h == 0})


def test_star_is_associative(xp_small, rand_functional):
    star = QuantProduct(xp_small, "star")
    for _ in range(3):
        F, G, H = (rand_functional() for _ in range(3))
        assert star.product(star.product(F, G), H) \
            == star.product(F, star.product(G, H))


def test_star_H_is_associative(xp_small, rand_functional):
    sH = QuantProduct(xp_small, "star_H")
    for _ in range(3):
        F, G, H = (rand_functional() for _ in range(3))
        assert sH.product(sH.product(F, G), H) \
            == sH.product(F, sH.product(G, H))


def test_star_H_equivalent_to_star(xp_small, rand_functional):
    for _ in range(6):
        F = rand_functional()
        G = rand_functional()
        assert star_H_equivalence_check(xp_small, F, G).is_zero()


def test_alpha_H_is_invertible(xp_small, rand_functional):
    for _ in range(4):
        F = rand_functional()
        assert alpha_H(xp_small, alpha_H(xp_small, F, -1), +1) == F


@pytest.mark.parametrize("kind", ["timeordered_D", "timeordered_F"])
def test_time_ordered_product_conjugates_pointwise(xp_small, rand_functional,
                                                   kind):
    """F x_T G = T(T^-1 F . T^-1 G) with T = e^{(hbar/2) Gamma_K}; holds
    because both time-ordered kernels are symmetric."""
    tp = QuantProduct(xp_small, kind)
    T = lambda F, sign: time_order_op(xp_small, F, sign, kind)
    for _ in range(4):
        F = rand_functional(max_degree=4)
        G = rand_functional(max_degree=4)
        want = tp.product(F, G)
        assert want != pointwise_product(F, G)
        assert T(pointwise_product(T(F, -1), T(G, -1)), +1) == want


def test_wick_expansion_three_terms(xp_small):
    lat = xp_small.lat
    f1 = {lat.site(3, 1): Fraction(1)}
    f2 = {lat.site(2, 2): Fraction(1, 2), lat.site(2, 3): Fraction(1)}
    rep = wick_theorem_demo(xp_small, f1, f2)
    assert rep["match"]
    assert [t["hbar_power"] for t in rep["terms"]] == [0, 1, 2]
    assert [t["binding_coefficient"] for t in rep["terms"]] == [1, 4, 2]
    assert rep["product"] == rep["expected"]


def test_tadpole_first_order_cancellation(xp_small):
    from paqft.graphs import tadpole_demo
    lat = xp_small.lat
    F = local_power(lat, {lat.site(3, 1): Fraction(1)}, 2)
    G = local_power(lat, {lat.site(4, 2): Fraction(1, 2)}, 2)
    rep = tadpole_demo(xp_small, F, G)
    assert rep["self_terms_cancel"]
    assert rep["dressed_h1"] == rep["cross_expected_h1"]


def test_unknown_product_kind_rejected(xp_small):
    with pytest.raises(ValueError):
        QuantProduct(xp_small, "normal")


def interaction(lat, sites=None):
    f = {s: Fraction(1) for s in (sites or [lat.site(3, 1), lat.site(4, 2)])}
    return interaction_vertex(lat, f, 4)


def test_bogoliubov_roundtrip(xp_small, rand_functional):
    V = interaction(xp_small.lat)
    bog = BogoliubovMap(xp_small, V)
    for _ in range(3):
        F = rand_functional()
        assert bog.Rinv(bog.R(F)) == F
        assert bog.R(bog.Rinv(F)) == F


def test_bogoliubov_roundtrip_at_three_vertices(xp_small):
    """R^-1 R F == F at (hbar, lambda) = (3, 3) with a vertex on the four
    sites of t = 2: S(V) reaches V^3, so graphs of three vertices join the
    round trip."""
    lat = xp_small.lat
    V = interaction_vertex(lat, {lat.site(2, x): Fraction(1)
                                 for x in range(lat.n_x)}, 4, 3, 3)
    F = local_power(lat, {lat.site(5, 0): Fraction(1),
                          lat.site(6, 2): Fraction(-2, 3)}, 3, 3, 3)
    bog = BogoliubovMap(xp_small, V)
    RF = bog.R(F)
    assert any((3, 3) in c.coeff for c in RF.terms.values())
    assert bog.Rinv(RF) == F


def test_bogoliubov_fixes_unit(xp_small):
    V = interaction(xp_small.lat)
    bog = BogoliubovMap(xp_small, V)
    one = PolyFunctional.unit(xp_small.lat)
    assert bog.R(one) == one
    assert bog.Rinv(one) == one


def test_interacting_star_is_associative(xp_small):
    lat = xp_small.lat
    V = interaction(lat)
    bog = BogoliubovMap(xp_small, V)
    rng = random.Random(11)
    F, G, H = (make_functional(rng, lat, max_degree=2, n_terms=2)
               for _ in range(3))
    lhs = bog.star_interacting(bog.star_interacting(F, G), H)
    rhs = bog.star_interacting(F, bog.star_interacting(G, H))
    assert lhs == rhs


def test_interaction_must_carry_coupling(xp_small):
    lat = xp_small.lat
    bad = local_power(lat, {lat.site(3, 1): Fraction(1)}, 4)  # no coupling
    with pytest.raises(NoLambdaGrading):
        BogoliubovMap(xp_small, bad)
    with pytest.raises(NoLambdaGrading):
        s_matrix(xp_small, bad)


def test_s_matrix_is_unit_plus_coupling(xp_small):
    V = interaction(xp_small.lat)
    S = s_matrix(xp_small, V)
    # the coupling-order-zero slice is exactly the unit functional
    for key, c in S.terms.items():
        zero_slice = {k: v for k, v in c.coeff.items() if k[1] == 0}
        if key == ():
            assert zero_slice == {(0, 0): ExactComplex(1)}
        else:
            assert zero_slice == {}


def _star_inverse_reference(sp, A):
    """Star-inverse of A = 1 + O(coupling) by the geometric series
    sum_n (1 - A)^{*n}, which ends at the coupling truncation."""
    one = PolyFunctional.unit(A.lat, A.trunc_h, A.trunc_l)
    a = one - A
    out = term = one
    for _ in range(A.trunc_l):
        term = sp.product(term, a)
        out = out + term
    return out


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(4, 27),  # sites of the interior rows
                       st.fractions(-3, 3, max_denominator=4).filter(bool),
                       min_size=1, max_size=3),
       st.integers(2, 4), st.integers(1, 3), st.integers(1, 3))
def test_antitimeordered_s_matrix_is_star_inverse(xp_small, f, degree,
                                                  th, tl):
    """Sbar(-V) equals the geometric series for S(V)^{*-1}, and
    S(V) * Sbar(-V) = 1 = Sbar(-V) * S(V), exactly."""
    V = interaction_vertex(xp_small.lat, f, degree, th, tl)
    star = QuantProduct(xp_small, "star_H")
    S = s_matrix(xp_small, V)
    S_bar = s_matrix(xp_small, V * (-1), "antitimeordered_F")
    assert S_bar == _star_inverse_reference(star, S)
    one = PolyFunctional.unit(xp_small.lat, th, tl)
    assert star.product(S, S_bar) == one
    assert star.product(S_bar, S) == one


COUPLINGS = st.fractions(-3, 3, max_denominator=4).filter(bool)


@settings(max_examples=12, deadline=None)
@given(st.dictionaries(st.integers(4, 27), COUPLINGS, min_size=1, max_size=3),
       st.dictionaries(st.integers(0, 31), COUPLINGS, min_size=1, max_size=2),
       st.integers(2, 4), st.integers(1, 2), st.integers(1, 3),
       st.integers(1, 3))
def test_bogoliubov_map_sees_only_the_past_cone(xp_small, v, f, degree,
                                                power, th, tl):
    """R_V(F) == R_V'(F) exactly, where V' keeps only the vertex sites in
    the closed past cone of supp F."""
    lat = xp_small.lat
    past = {s: c for s, c in v.items()
            if any(lat.in_past_cone(s, y) for y in f)}
    F = local_power(lat, f, power, th, tl)
    R = BogoliubovMap(xp_small, interaction_vertex(lat, v, degree, th, tl)).R
    R_past = BogoliubovMap(
        xp_small, interaction_vertex(lat, past, degree, th, tl)).R
    assert R(F) == R_past(F)


def test_causal_factorization_exact(xp_small):
    lat = xp_small.lat
    V1 = interaction_vertex(lat, {lat.site(5, 1): Fraction(1)}, 4)
    V2 = interaction_vertex(lat, {lat.site(2, 3): Fraction(1)}, 4)
    assert causally_later(lat, V1, V2)
    assert causal_factorization_check(xp_small, V1, V2).is_zero()


def test_causal_factorization_spacelike_both_orders(xp_small):
    lat = xp_small.lat
    # same time slice, separated in space beyond the light cone reach
    V1 = interaction_vertex(lat, {lat.site(3, 0): Fraction(1)}, 4)
    V2 = interaction_vertex(lat, {lat.site(3, 2): Fraction(1)}, 4)
    assert causally_later(lat, V1, V2) and causally_later(lat, V2, V1)
    assert causal_factorization_check(xp_small, V1, V2).is_zero()
    assert causal_factorization_check(xp_small, V2, V1).is_zero()


def test_causal_factorization_rejects_wrong_order(xp_small):
    lat = xp_small.lat
    V1 = interaction_vertex(lat, {lat.site(2, 3): Fraction(1)}, 4)
    V2 = interaction_vertex(lat, {lat.site(5, 3): Fraction(1)}, 4)
    with pytest.raises(ValueError):
        causal_factorization_check(xp_small, V1, V2)


def test_multilocal_products_injective(xp_small):
    lat = xp_small.lat
    basis = [smeared_field(lat, {lat.site(3, 1): Fraction(1)}),
             smeared_field(lat, {lat.site(4, 2): Fraction(1)}),
             local_power(lat, {lat.site(2, 2): Fraction(1)}, 2)]
    rep = multilocal_injectivity_check(basis, 2)
    assert rep["injective"] and rep["rank"] == rep["expected"] == 6


def test_multilocal_rank_deficient_for_repeated_basis(xp_small):
    lat = xp_small.lat
    F = smeared_field(lat, {lat.site(3, 1): Fraction(1)})
    with pytest.raises(RankDeficient):
        multilocal_injectivity_check([F, F], 1)


def test_multilocal_rejects_constant_part(xp_small):
    lat = xp_small.lat
    one = PolyFunctional.unit(lat)
    with pytest.raises(ValueError):
        multilocal_injectivity_check([one], 1)
