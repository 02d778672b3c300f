"""Deformation products, Bogoliubov maps, and causal factorization.

Everything here is exact rational-complex arithmetic, so equalities are
asserted with == on functionals, not with tolerances.
"""
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from paqft.exact import ExactComplex
from paqft.series import FormalSeries
from paqft.functionals import (PolyFunctional, smeared_field, local_power,
                               interaction_vertex, pointwise_product,
                               free_action)
from paqft.lattice import ExactPropagators, Lattice1p1, ZeroModeSingular
from paqft import acceptance
from paqft import quantization as qz
from paqft.quantization import (QuantProduct, alpha_H, star_H_equivalence_check,
                                wick_theorem_demo, BogoliubovMap,
                                s_matrix, causal_factorization_check,
                                causally_later, multilocal_injectivity_check,
                                NoLambdaGrading, NonLocalInteraction)

from conftest import antitimeordered_s_matrix, make_functional
from paqft.graphs import h_slice
from test_contraction import RATIONALS, SITES, cmul, functional, plain


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


def nonlinear(sites):
    """Up to three monomials of degree 0-3 on `sites` (repeats allowed),
    each with a short (hbar, lambda) series of complex rational
    coefficients."""
    key = st.lists(st.sampled_from(sites), max_size=3).map(
        lambda k: tuple(sorted(k)))
    series = st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=2)
    return st.dictionaries(key, series, min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(nonlinear(SITES), nonlinear(SITES), st.integers(1, 3),
       st.integers(1, 2), st.sampled_from(qz.PRODUCT_KINDS))
def test_telescoped_commutator_is_the_difference_of_products(
        xp_small, f, g, th, tl, kind):
    """[F, G] from one causal line and K-lines both ways == F x G - G x F,
    for nonlinear F, G, every kind and hbar-truncation 1-3; its hbar^1
    slice is i {F, G}, and the time-ordered kinds give 0."""
    lat = xp_small.lat
    F, G = functional(lat, f, th, tl), functional(lat, g, th, tl)
    product = QuantProduct(xp_small, kind)
    commutator = product.commutator(F, G)
    assert commutator == product.product(F, G) - product.product(G, F)
    if kind.startswith("timeordered"):
        assert commutator == PolyFunctional.from_numerators(lat, {}, 1, th,
                                                            tl)
    else:
        assert h_slice(commutator, 1) == h_slice(
            qz.peierls_bracket(F, G, xp_small) * ExactComplex(0, 1), 0)


def test_field_commutator_reads_one_causal_block(lat_small, monkeypatch):
    """Between smeared fields the causal line leaves constants, so the
    commutator reads the causal kernel over supp f x supp g once and no
    star_H table; nonlinear arguments read the star_H tables both ways,
    once each, after the causal one."""
    xp = ExactPropagators(lat_small)
    reads = []
    numerators = xp.numerators

    def counting(kind):
        lat, rows, den = numerators(kind)
        return lat, lambda ys, zs: reads.append(
            (kind, sorted(ys), sorted(zs))) or rows(ys, zs), den
    monkeypatch.setattr(xp, "numerators", counting)
    f, g = sparse(random.Random(44), lat_small), sparse(
        random.Random(45), lat_small)
    F, G = smeared_field(lat_small, f), smeared_field(lat_small, g)
    star_H = QuantProduct(xp, "star_H")
    want = PolyFunctional(lat_small, {(): FormalSeries({(1, 0): ExactComplex(
        0, pairing(xp, f, g))})})
    assert want != PolyFunctional(lat_small, {})
    assert star_H.commutator(F, G) == want
    assert reads == [("causal", sorted(f), sorted(g))]
    F2, G2 = (local_power(lat_small, h, 2) for h in (f, g))
    reads.clear()
    star_H.commutator(F2, G2)
    assert reads[0] == ("causal", sorted(f), sorted(g))
    assert sorted(reads[1:]) == [("star_H", sorted(f), sorted(g)),
                                 ("star_H", sorted(g), sorted(f))]


def test_massless_lattice_contracts_the_kinds_free_of_h():
    """On a massless lattice the star and Dirac-time-ordered products and
    the Peierls bracket run through the contraction engine, == the sums
    over the retarded float table lifted pair by pair; the Wightman
    product raises ZeroModeSingular when it reads its rows."""
    lat = Lattice1p1(8, 4, Fraction(1, 4), Fraction(1), mass=0.0)
    xp = ExactPropagators(lat)
    ret = xp.ps.ret_table()

    def r(i, j):
        (ti, xi), (tj, xj) = lat.coords(i), lat.coords(j)
        return Fraction(ret[ti - tj, (xi - xj) % 4]) if ti > tj else 0

    rng = random.Random(11)
    f, g = sparse(rng, lat), sparse(rng, lat)
    w2 = lat.volume_weight ** 2
    pairs = [(y, z, f[y] * g[z] * w2) for y in f for z in g]
    F, G = local_power(lat, f, 2), local_power(lat, g, 2)
    for kind, sign in (("star", -1), ("timeordered_D", 1)):
        one, two = {}, ExactComplex(0)
        for y, z, base in pairs:
            k = ExactComplex(0, (r(y, z) + sign * r(z, y)) / 2)
            key = tuple(sorted((y, z)))
            one[key] = one.get(key, ExactComplex(0)) + k * base * 4
            two = two + k * k * base * 2
        want = pointwise_product(F, G) + PolyFunctional(lat, {
            **{key: FormalSeries({(1, 0): c}) for key, c in one.items()},
            (): FormalSeries({(2, 0): two})})
        assert want.slices[(1, 0)] and want.slices[(2, 0)]
        assert QuantProduct(xp, kind).product(F, G) == want, kind
    bracket = sum(base * (r(y, z) - r(z, y)) for y, z, base in pairs)
    assert bracket and qz.peierls_bracket(
        smeared_field(lat, f), smeared_field(lat, g), xp) == PolyFunctional(
            lat, {(): bracket})
    sH = QuantProduct(xp, "star_H")
    with pytest.raises(ZeroModeSingular,
                       match="positive-frequency split needs m > 0"):
        sH.product(F, G)


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
    T = lambda F, sign: qz.exp_gamma(F, tp.kernel, Fraction(sign, 2))
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
    rep = tadpole_demo(xp_small, {lat.site(3, 1): Fraction(1)},
                       {lat.site(4, 2): Fraction(1, 2)})
    assert rep["self_terms_cancel"]
    assert rep["dressed_h1"] == rep["cross_expected_h1"]


def test_unknown_product_kind_rejected(xp_small):
    with pytest.raises(ValueError):
        QuantProduct(xp_small, "normal")


def interaction(lat, sites=None):
    f = {s: Fraction(1) for s in (sites or [lat.site(3, 1), lat.site(4, 2)])}
    return interaction_vertex(lat, f, 4)


@pytest.mark.parametrize("vertices, rows", [
    (((3, 1), (4, 2)), None),
    (((3, 1), (5, 1)), (6, 7)),
], ids=["light-cone", "timelike"])
def test_bogoliubov_roundtrip(xp_small, rand_functional, vertices, rows):
    """R^-1 R F == F and R R^-1 F == F.  The vertices of the second case
    are two rows apart, where the Dirac kernel between them is nonzero and
    the Feynman and anti-Feynman kernels differ, with F in their future."""
    lat = xp_small.lat
    V = interaction(lat, [lat.site(*v) for v in vertices])
    bog = BogoliubovMap(xp_small, V)
    sites = (None if rows is None else
             [lat.site(t, x) for t in rows for x in range(lat.n_x)])
    for _ in range(3):
        F = rand_functional(sites=sites)
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
    one = PolyFunctional.constant(xp_small.lat, 1, 2, 2)
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
    one = PolyFunctional.constant(A.lat, 1, A.trunc_h, A.trunc_l)
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
    """Sbar(-V), the conjugate of S(-conj V), equals the anti-time-ordered
    exponential of -V built from anti-Feynman rows and the geometric series
    for S(V)^{*-1}, and S(V) * Sbar(-V) = 1 = Sbar(-V) * S(V), exactly."""
    V = interaction_vertex(xp_small.lat, f, degree, th, tl)
    star = QuantProduct(xp_small, "star_H")
    S = s_matrix(xp_small, V)
    S_bar = s_matrix(xp_small, V.conj() * (-1)).conj()
    assert S_bar == antitimeordered_s_matrix(xp_small, V * (-1))
    assert S_bar == _star_inverse_reference(star, S)
    one = PolyFunctional.constant(xp_small.lat, 1, th, tl)
    assert star.product(S, S_bar) == one
    assert star.product(S_bar, S) == one


COUPLINGS = st.fractions(-3, 3, max_denominator=4).filter(bool)


def unrestricted_maps(xp, V):
    """R_V, R_V^-1 and the interacting product built from the S-matrices
    of the whole V: the oracle for the library's BogoliubovMap, which
    restricts V to the past cone of each argument."""
    tp, sp = QuantProduct(xp, "timeordered_F"), QuantProduct(xp, "star_H")
    S = s_matrix(xp, V)
    S_neg = s_matrix(xp, V * (-1))
    S_bar = antitimeordered_s_matrix(xp, V * (-1))

    def R(F):
        return sp.product(S_bar, tp.product(S, F))

    def Rinv(F):
        return tp.product(S_neg, sp.product(S, F))

    return R, Rinv, lambda F, G: Rinv(sp.product(R(F), R(G)))


# sites of V lie on rows 1..6; sites 0..3 (row 0) have none of them in
# their past, and sites 28 and 30 (row 7) together have all of them
NO_PAST = dict(v={9: 1, 22: -2}, f={1: Fraction(1, 2)}, g={3: 1},
               degree=4, power=2, th=2, tl=2, fh=2, fl=2)
ALL_PAST = dict(v={4: 1, 15: Fraction(-1, 2), 27: 2}, f={28: 1, 30: -1},
                g={29: Fraction(3, 4)}, degree=3, power=1, th=2, tl=2,
                fh=2, fl=2)
# ALL_PAST's vertices sit on (1, 0), (3, 3) and (6, 3): site 9 = (2, 1) has
# the first in its past, site 31 = (7, 3) all three, site 1 = (0, 1) none
EARLY_LATE = dict(ALL_PAST, f={9: 1}, g={31: Fraction(3, 4)})
LATE_EARLY = dict(ALL_PAST, g={9: Fraction(3, 4)})
EMPTY_PAST = dict(ALL_PAST, f={1: Fraction(1, 2)})


@settings(max_examples=12, deadline=None)
@example(**NO_PAST)
@example(**ALL_PAST)
@example(**dict(ALL_PAST, th=1, tl=1, fh=3, fl=3))  # F above V's orders
@example(**dict(NO_PAST, th=1, tl=2, fh=3, fl=2))
@example(**EARLY_LATE)
@example(**LATE_EARLY)
@example(**EMPTY_PAST)  # R F = F: the product keeps R^-1(F * R G)
@given(v=st.dictionaries(st.integers(4, 27), COUPLINGS, min_size=1,
                         max_size=3),
       f=st.dictionaries(st.integers(0, 31), COUPLINGS, min_size=1,
                         max_size=2),
       g=st.dictionaries(st.integers(0, 31), COUPLINGS, min_size=1,
                         max_size=2),
       degree=st.integers(2, 4), power=st.integers(1, 2),
       th=st.integers(1, 3), tl=st.integers(1, 3),
       fh=st.integers(1, 3), fl=st.integers(1, 3))
def test_bogoliubov_map_sees_only_the_past_cone(xp_small, v, f, g, degree,
                                                power, th, tl, fh, fl):
    """R and R^-1, which use only the vertex sites in the closed past cone
    of their argument, and the interacting product, which uses only those
    in the future of supp F and the past of supp G, are == the maps built
    from all of V, whatever the truncation orders of F against V's.  With
    no vertex between F and G (NO_PAST, ALL_PAST, LATE_EARLY) the product
    is F *_H G, cut to V's orders, and the second NO_PAST example fails
    without that cut."""
    lat = xp_small.lat
    V = interaction_vertex(lat, v, degree, th, tl)
    F = local_power(lat, f, power, fh, fl)
    G = local_power(lat, g, 1, fh, fl)
    bog = BogoliubovMap(xp_small, V)
    R, Rinv, star_interacting = unrestricted_maps(xp_small, V)
    assert bog.R(F) == R(F)
    assert bog.Rinv(F) == Rinv(F)
    assert bog.star_interacting(F, G) == star_interacting(F, G)


@st.composite
def causal_pairs(draw):
    """(case, F's sites, G's sites) as (row, column) on 8x4, forced into
    one of four cases: F nowhere earlier than G, G nowhere earlier than F,
    spacelike both ways (one row, distinct columns), and F on two sites
    two rows or more apart, where every column is in the cone."""
    case = draw(st.sampled_from(("F later", "G later", "spacelike",
                                 "F timelike")))
    col = st.integers(0, 3)
    if case == "spacelike":
        t, xs = draw(st.integers(0, 7)), draw(st.permutations(range(4)))
        k = draw(st.integers(1, 3))
        return case, [(t, x) for x in xs[:k]], [(t, x) for x in xs[k:]]
    if case == "F timelike":
        t = draw(st.integers(0, 5))
        F = [(t, draw(col)), (draw(st.integers(t + 2, 7)), draw(col))]
        return case, F, [(draw(st.integers(0, 7)), draw(col))]
    r = draw(st.integers(0, 6))
    late = [(draw(st.integers(r + 1, 7)), draw(col))
            for _ in range(draw(st.integers(1, 2)))]
    early = [(draw(st.integers(0, r)), draw(col))
             for _ in range(draw(st.integers(1, 2)))]
    return (case, late, early) if case == "F later" else (case, early, late)


@settings(max_examples=24, deadline=None)
@given(pair=causal_pairs(),
       v=st.dictionaries(st.integers(4, 27), COUPLINGS, min_size=2,
                         max_size=4),
       imaginary=st.booleans(), degree=st.integers(2, 4),
       power=st.integers(1, 2), th=st.integers(1, 2), tl=st.integers(1, 2),
       v_below=st.booleans(), fh=st.integers(1, 3), fl=st.integers(1, 3))
def test_interacting_product_uses_the_vertices_between_f_and_g(
        xp_small, pair, v, imaginary, degree, power, th, tl, v_below, fh,
        fl):
    """F *_V G, built from the vertex sites in the future of supp F and the
    past of supp G, is == the product built from all of V, for real and
    imaginary V, with V's orders below F's in some draws; and when F is
    nowhere earlier than G it is F *_H G, cut to V's orders."""
    lat = xp_small.lat
    case, f, g = pair
    V = interaction_vertex(lat, v, degree, th, tl)
    if imaginary:
        V = V * FormalSeries({(0, 0): ExactComplex(0, 1)}, th, tl)
    if v_below:
        fh, fl = th + 1, tl + 1
    F = local_power(lat, {lat.site(*s): Fraction(i + 1, 2)
                          for i, s in enumerate(f)}, power, fh, fl)
    G = local_power(lat, {lat.site(*s): Fraction(1, i + 1)
                          for i, s in enumerate(g)}, 1, fh, fl)
    later = {"F later": (F, G), "G later": (G, F), "spacelike": (F, G),
             "F timelike": (F, F)}[case]
    assert causally_later(lat, *later) == (case != "F timelike")
    assert case != "spacelike" or causally_later(lat, G, F)
    bog = BogoliubovMap(xp_small, V)
    product = bog.star_interacting(F, G)
    assert product == unrestricted_maps(xp_small, V)[2](F, G)
    if causally_later(lat, F, G):
        free = QuantProduct(xp_small, "star_H").product(F, G)
        assert product == PolyFunctional.from_numerators(
            lat, free.slices, free.den, min(free.trunc_h, th),
            min(free.trunc_l, tl))


LAT_16x8 = Lattice1p1(16, 8, Fraction(1, 2), Fraction(1))
COMPLEX = st.builds(ExactComplex, st.sampled_from(
    [1, -2, Fraction(1, 2), Fraction(-3, 4)]), st.sampled_from(
    [0, 1, Fraction(-1, 3)]))


@pytest.fixture(scope="module")
def xp_of():
    """The exact kernels of the lattices interaction_draws draws on."""
    return {lat: ExactPropagators(lat) for lat in (LAT_8x4, LAT_16x8)}


@st.composite
def interaction_draws(draw):
    """(lattice, V, F, G) on 8x4 or 16x8: V one-site terms of degree 3 or
    4 on 2-4 sites of the interior rows, two rows at least, each with a
    complex coupling; F and G multilocal, one or two monomials of degree
    1-3 on one or more sites, with complex coefficients; V, F and G each
    at truncation orders from 1 to 3."""
    lat = draw(st.sampled_from([LAT_8x4, LAT_16x8]))
    interior = lat.n_t - 2
    t0 = draw(st.integers(1, interior))
    ts = [t0, 1 + (t0 + draw(st.integers(0, interior - 2))) % interior]
    ts += draw(st.lists(st.integers(1, interior), max_size=2))
    sites = {lat.site(t, draw(st.integers(0, lat.n_x - 1))) for t in ts}
    th, tl = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    V = PolyFunctional(lat, {
        (s,) * draw(st.integers(3, 4)): FormalSeries(
            {(0, 1): draw(COMPLEX)}, th, tl) for s in sites}, th, tl)
    any_site = st.integers(0, lat.n_sites - 1)

    def functional():
        monomials = draw(st.lists(st.lists(any_site, min_size=1, max_size=3),
                                  min_size=1, max_size=2))
        fh, fl = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return PolyFunctional(lat, {tuple(m): draw(COMPLEX)
                                    for m in monomials}, fh, fl)
    return lat, V, functional(), functional()


@settings(max_examples=60, deadline=None)
@given(draw=interaction_draws())
def test_bogoliubov_map_matches_the_s_matrix_oracle(xp_of, draw):
    """R, R^-1 and the interacting product in both argument orders are ==
    the maps built from the S-matrices of the whole V (unrestricted_maps),
    on drawn multi-row vertices with complex couplings and multilocal
    arguments, on 8x4 and 16x8."""
    lat, V, F, G = draw
    xp = xp_of[lat]
    bog = BogoliubovMap(xp, V)
    R, Rinv, star_interacting = unrestricted_maps(xp, V)
    assert bog.R(F) == R(F)
    assert bog.Rinv(F) == Rinv(F)
    assert bog.star_interacting(F, G) == star_interacting(F, G)
    assert bog.star_interacting(G, F) == star_interacting(G, F)


def test_interacting_product_contracts_once_without_vertices_between(
        xp_small, monkeypatch):
    """One contract call, the *_H product, when no vertex lies in the
    future of F and the past of G, cold or warm; with vertices between
    them the map builds R of each monomial on the first call, and a warm
    repeat makes the *_H product alone.  No call builds an S-matrix."""
    lat = xp_small.lat
    V = interaction(lat, [lat.site(3, 1), lat.site(5, 1)])
    early = local_power(lat, {lat.site(1, 1): 1}, 2)
    late = local_power(lat, {lat.site(7, 1): 1}, 2)
    around = local_power(lat, {lat.site(2, 1): 1, lat.site(4, 1): 1}, 1)
    bog = BogoliubovMap(xp_small, V)
    calls, built = [], []
    contract = qz.contract
    monkeypatch.setattr(qz, "contract",
                        lambda *args: calls.append(1) or contract(*args))
    monkeypatch.setattr(qz, "s_matrix", lambda *args: built.append(1))
    for F, G in ((late, early), (early, late), (around, late)):
        bog.star_interacting(F, G)  # cold: R of each monomial is built
        assert (len(calls) == 1) == (F is late)
        calls.clear()
        bog.star_interacting(F, G)
        assert len(calls) == 1
        calls.clear()
    assert built == []


def test_ac08_multiplies_across_a_vertex(monkeypatch):
    """AC08's associativity draws include products with a vertex between
    the two arguments, so the criterion cannot pass on F *_H G alone."""
    sizes = []
    diamond = BogoliubovMap._diamond

    def counted(self, F, G):
        D = diamond(self, F, G)
        sizes.append(len(D))
        return D

    monkeypatch.setattr(BogoliubovMap, "_diamond", counted)
    assert acceptance.crit_08()[0]
    assert len(sizes) == 8 and any(sizes)


def test_bogoliubov_map_builds_each_monomial_once(xp_small, monkeypatch):
    """R and R^-1 are == the oracle maps on arguments with none, one and
    both vertices in their past; the map builds no S-matrix, and R of each
    (vertex sites, monomial) once, so a warm repeat contracts nothing."""
    lat = xp_small.lat
    V = interaction(lat, [lat.site(2, 0), lat.site(5, 2)])
    R, Rinv, _ = unrestricted_maps(xp_small, V)
    args = [smeared_field(lat, {lat.site(t, x): 1})
            for t, x in ((1, 0), (3, 0), (7, 2))]
    want = [(R(F), Rinv(F)) for F in args]
    calls, built = [], []
    contract = qz.contract
    monkeypatch.setattr(qz, "contract",
                        lambda *args: calls.append(1) or contract(*args))
    monkeypatch.setattr(qz, "s_matrix", lambda *args: built.append(1))
    bog = BogoliubovMap(xp_small, V)
    assert [(bog.R(F), bog.Rinv(F)) for F in args] == want
    assert calls and not built
    calls.clear()
    for F in args:
        bog.Rinv(bog.R(F))
    assert calls == []


def past_of(lat, sites, vertex_sites):
    """The vertex sites in the closed past cone of `sites`."""
    return {s for s in vertex_sites
            if any(lat.in_past_cone(s, y) for y in sites)}


@settings(max_examples=12, deadline=None)
@given(v=st.dictionaries(st.integers(4, 27), COUPLINGS, min_size=2,
                         max_size=4),
       f=st.dictionaries(st.integers(0, 31), COUPLINGS, min_size=1,
                         max_size=2),
       pick=st.integers(0, 3), degree=st.integers(2, 4),
       power=st.integers(1, 2), th=st.integers(1, 3), tl=st.integers(1, 3),
       fh=st.integers(1, 3), fl=st.integers(1, 3))
def test_s_matrix_absorbs_the_bogoliubov_map(xp_small, v, f, pick, degree,
                                             power, th, tl, fh, fl):
    """S_W * R F == S_W x_T F, S_W the S-matrix of the terms of V on W, for
    W the past of supp F and of one vertex site outside it: past-closed and
    strictly larger than the past of F.  The interacting product rests on
    this identity."""
    lat = xp_small.lat
    F = local_power(lat, f, power, fh, fl)
    past_F = past_of(lat, F.support(), v)
    outside = sorted(set(v) - past_F)
    assume(outside)
    W = past_F | past_of(lat, [outside[pick % len(outside)]], v)
    assert W > past_F
    S_W = s_matrix(xp_small, interaction_vertex(
        lat, {s: c for s, c in v.items() if s in W}, degree, th, tl))
    bog = BogoliubovMap(xp_small, interaction_vertex(lat, v, degree, th, tl))
    assert QuantProduct(xp_small, "star_H").product(S_W, bog.R(F)) \
        == QuantProduct(xp_small, "timeordered_F").product(S_W, F)


def free_picture_maps(xp, V):
    """R and the interacting product built at H = 0, by the naive route:
    V' = alpha_H^-1 V without its constant term, S0 the exponential in the
    time-ordered product of the Dirac kernel, *0 the star product of
    (i/2) Delta, and Sbar0(-V') = conj S0(-V') for a real V.  The maps of
    V are alpha_H R0 alpha_H^-1 and alpha_H R0^-1(R0 F' *0 R0 G') with
    F' = alpha_H^-1 F."""
    t0, s0 = QuantProduct(xp, "timeordered_D"), QuantProduct(xp, "star")
    Vp = alpha_H(xp, V, -1)
    Vp = PolyFunctional.from_numerators(
        V.lat, {hl: {k: c for k, c in bank.items() if k}
                for hl, bank in Vp.slices.items()},
        Vp.den, Vp.trunc_h, Vp.trunc_l)

    def S0(W):
        out = term = PolyFunctional.constant(W.lat, 1, W.trunc_h, W.trunc_l)
        for n in range(1, W.trunc_l + 1):
            term = t0.product(term, W) * Fraction(1, n)
            out = out + term
        return out

    S, S_neg = S0(Vp), S0(Vp * (-1))
    S_bar = S_neg.conj()

    def R0(F):
        return s0.product(S_bar, t0.product(S, F))

    def R(F):
        return alpha_H(xp, R0(alpha_H(xp, F, -1)), 1)

    def star_interacting(F, G):
        X = s0.product(R0(alpha_H(xp, F, -1)), R0(alpha_H(xp, G, -1)))
        return alpha_H(xp, t0.product(S_neg, s0.product(S, X)), 1)

    return R, star_interacting


def ladder_inputs(lat):
    """V, F and G of the ladder rung (2, 2, 4) of tools/timing.py: F has no
    vertex in its past, G all four."""
    V = interaction_vertex(lat, {lat.site(2, x): 1 for x in range(4)}, 4)
    F = local_power(lat, {lat.site(1, 0): 1, lat.site(1, 2): 1}, 2)
    G = local_power(lat, {lat.site(6, 1): 1}, 2)
    return V, F, G


def timelike_inputs(lat):
    """Vertices two rows apart, where the Feynman and anti-Feynman kernels
    differ, both in the past of F; G has none in its past."""
    V = interaction(lat, [lat.site(3, 1), lat.site(5, 1)])
    F = local_power(lat, {lat.site(6, 0): 1, lat.site(7, 1): 1}, 2)
    G = local_power(lat, {lat.site(4, 3): 1}, 1)
    return V, F, G


@pytest.mark.parametrize("inputs, moved", [
    (ladder_inputs, [True, False]),
    (timelike_inputs, [False, False]),
], ids=["ladder", "timelike"])
def test_interacting_maps_match_the_free_picture(xp_small, inputs, moved):
    """R F, R G and the interacting product in both orders are == the
    maps built at H = 0 from alpha_H^-1 V.  moved says, per order (F, G)
    and (G, F), whether the interacting product differs from the free
    F *_H G, G *_H F.  A product whose first argument is nowhere earlier
    than its second is the free one (the ladder's (G, F)), and so is one
    with no vertex in the future of the first and the past of the
    second: in the timelike case no vertex is later than F, and of G on
    (4, 3) the vertex (3, 1) is earlier and (5, 1) off the cone.  The R
    check sees V in either case: R moves one argument."""
    V, F, G = inputs(xp_small.lat)
    bog = BogoliubovMap(xp_small, V)
    R, star_interacting = free_picture_maps(xp_small, V)
    sH = QuantProduct(xp_small, "star_H")
    assert (bog.R(F), bog.R(G)) != (F, G)
    for (A, B), differs in zip(((F, G), (G, F)), moved):
        assert bog.R(A) == R(A)
        product = bog.star_interacting(A, B)
        assert product == star_interacting(A, B)
        assert (product != sH.product(A, B)) == differs


@pytest.mark.parametrize("trunc", [2, 3])
def test_r_is_multiplicative_on_a_time_row(xp_small, trunc):
    """On one row the Feynman kernel is the *_H one, so R is a *_H
    homomorphism there: R(phi(x) phi(y)) == R phi(x) * R phi(y) -
    (phi(x) * phi(y) - phi(x) phi(y)) for x, y on one row, and
    R(phi(x)^3) == (R phi(x))^{*3} - 3c R phi(x), c = phi(x) * phi(x) -
    phi(x)^2, at the vertex site (5, 1).  The cube without its 3c term is
    not ==."""
    lat = xp_small.lat
    V = interaction_vertex(lat, {lat.site(*s): 1 for s in (
        (2, 0), (2, 1), (3, 2), (5, 1))}, 4, trunc, trunc)
    bog = BogoliubovMap(xp_small, V)
    star = QuantProduct(xp_small, "star_H").product

    def phi(t, x):
        return local_power(lat, {lat.site(t, x): 1}, 1, trunc, trunc)

    for x, y in (((6, 0), (6, 2)), ((5, 1), (5, 3)), ((4, 1), (4, 2))):
        A, B = phi(*x), phi(*y)
        assert bog.R(pointwise_product(A, B)) == star(bog.R(A), bog.R(B)) \
            - (star(A, B) - pointwise_product(A, B))
    A = phi(5, 1)
    RA, c = bog.R(A), star(A, A) - pointwise_product(A, A)
    cube = star(star(RA, RA), RA)
    R_cube = bog.R(pointwise_product(A, pointwise_product(A, A)))
    assert R_cube == cube - pointwise_product(c, RA) * 3
    assert R_cube != cube


def test_interacting_field_equation(xp_small):
    """R_V(dS0/dphi(x) - i hbar dV/dphi(x)) == dS0/dphi(x) at a vertex site
    x, S0 the free action truncated to V's orders: the interacting field
    solves the interacting equation of motion.  The sign of the
    interaction term matters: with + i hbar the equation fails."""
    lat = xp_small.lat
    V = interaction(lat, [lat.site(*s)
                          for s in ((2, 0), (2, 1), (3, 2), (5, 1))])
    x = lat.site(5, 1)
    dS0 = free_action(lat).func_derivative(x)
    dS0 = PolyFunctional.from_numerators(lat, dS0.slices, dS0.den,
                                         V.trunc_h, V.trunc_l)
    i_hbar_dV = V.func_derivative(x) * FormalSeries(
        {(1, 0): ExactComplex(0, 1)}, V.trunc_h, V.trunc_l)
    bog = BogoliubovMap(xp_small, V)
    assert bog.R(dS0 - i_hbar_dV) == dS0
    assert bog.R(dS0 + i_hbar_dV) != dS0


def test_a_complex_interaction_maps_as_the_oracle(xp_small, monkeypatch):
    """V with Gaussian-rational coefficients at lambda^1 on two sites is
    not real; R and R^-1 are == the oracle maps, whose Sbar(-V) is the
    anti-time-ordered exponential, R^-1 R is the identity, and the map
    builds no S-matrix for it."""
    lat = xp_small.lat
    a, b = lat.site(2, 1), lat.site(4, 3)
    V = PolyFunctional(lat, {
        (a,) * 4: FormalSeries({(0, 1): ExactComplex(Fraction(1, 2), 1)}),
        (b, b): FormalSeries({(0, 1): ExactComplex(-1, Fraction(1, 3))})},
        2, 2)
    # both vertices lie in the past of F, so the map uses all of V
    F = local_power(lat, {lat.site(6, 0): 1, lat.site(5, 2): Fraction(1, 2)},
                    2, 2, 2)
    R, Rinv, _ = unrestricted_maps(xp_small, V)
    want = R(F), Rinv(F)
    built = []
    monkeypatch.setattr(qz, "s_matrix", lambda *args: built.append(1))
    bog = BogoliubovMap(xp_small, V)
    RF = bog.R(F)
    assert (RF, bog.Rinv(F)) == want
    assert bog.Rinv(RF) == F
    assert built == []


def one_site_field(lat, t, x, c2, c1, trunc):
    """c2 phi^2 + c1 phi on the site (t, x), truncated at (trunc, trunc)."""
    s = lat.site(t, x)
    return (local_power(lat, {s: c2}, 2, trunc, trunc)
            + local_power(lat, {s: c1}, 1, trunc, trunc))


@pytest.mark.parametrize("trunc", [2, 3])
@pytest.mark.parametrize("c, star_map", [
    (1, False), (ExactComplex(0, 1), True), (ExactComplex(2, -3), False),
], ids=["real", "imaginary", "complex"])
def test_bogoliubov_map_conjugates_into_minus_conj_v(xp_small, c, star_map,
                                                     trunc):
    """R_V(F)* == R_{-conj V}(F*) for F = (1 + 2i) phi^2 + phi/3 on one
    site, with both vertices in its past.  S(V) carries no i/hbar, so a
    physical interaction V_ph enters as V = (i/hbar) V_ph, and the
    identity reads R_{V_ph}(F)* == R_{conj V_ph}(F*): R_V is a *-map,
    R_V(F)* == R_V(F*), exactly when V is imaginary (V_ph Hermitian)."""
    lat = xp_small.lat
    V = interaction_vertex(lat, {lat.site(3, 1): c, lat.site(5, 1): c}, 4,
                           trunc, trunc)
    F = one_site_field(lat, 6, 1, ExactComplex(1, 2), Fraction(1, 3), trunc)
    bog = BogoliubovMap(xp_small, V)
    RF = bog.R(F)
    assert RF != F
    assert RF.conj() == BogoliubovMap(xp_small, V.conj() * (-1)).R(F.conj())
    assert (RF.conj() == bog.R(F.conj())) == star_map


@pytest.mark.parametrize("trunc", [2, 3])
def test_rinv_conjugates_into_minus_conj_v_only_below_hbar_cubed(xp_small,
                                                                 trunc):
    """The R^-1 form R_V^-1(F)* == R_{-conj V}^-1(F*), for the F and
    vertices of the test above, holds at (2, 2) and fails at (3, 3), for
    each coefficient, while the R form holds at both.  R_V^-1 F has
    two-site terms on (3, 1)-(5, 1), (3, 1)-(6, 1) and (5, 1)-(6, 1), and
    the conjugation identity is proved only for local arguments (ROADMAP
    K): here the vertex (5, 1) lies between the sites of those terms."""
    lat = xp_small.lat
    F = one_site_field(lat, 6, 1, ExactComplex(1, 2), Fraction(1, 3), trunc)
    for c in (1, ExactComplex(0, 1), ExactComplex(2, -3)):
        V = interaction_vertex(lat, {lat.site(3, 1): c, lat.site(5, 1): c},
                               4, trunc, trunc)
        bog = BogoliubovMap(xp_small, V)
        minus_conj = BogoliubovMap(xp_small, V.conj() * (-1))
        RinvF = bog.Rinv(F)
        assert {frozenset(map(lat.coords, key)) for key in RinvF.terms
                if len(set(key)) == 2} == {
            frozenset(pair) for pair in itertools.combinations(
                [(3, 1), (5, 1), (6, 1)], 2)}
        assert (RinvF.conj() == minus_conj.Rinv(F.conj())) == (trunc == 2)
        assert bog.R(F).conj() == minus_conj.R(F.conj())


K_COEFFICIENTS = [1, ExactComplex(0, 1), ExactComplex(2, -3), Fraction(-1, 2)]
# xp_small's lattice, for the strategy to draw sites on
LAT_8x4 = Lattice1p1(8, 4, Fraction(1, 2), Fraction(1))


@st.composite
def local_net_draws(draw):
    """(F's site, the vertices {site: coefficient}, G's site) on 8x4: F on
    rows 5-7, 1-3 vertices on earlier sites of F's past cone, each with a
    coefficient of K_COEFFICIENTS, G on a site spacelike to F."""
    lat = LAT_8x4
    f = draw(st.sampled_from(range(lat.site(5, 0), lat.n_sites)))
    past = [s for s in range(f - f % lat.n_x) if lat.in_past_cone(s, f)]
    spacelike = [s for s in range(lat.n_sites) if not (
        lat.in_past_cone(s, f) or lat.in_past_cone(f, s))]
    sites = draw(st.lists(st.sampled_from(past), min_size=1, max_size=3,
                          unique=True))
    return f, {s: draw(st.sampled_from(K_COEFFICIENTS)) for s in sites}, \
        draw(st.sampled_from(spacelike))


@settings(max_examples=40, deadline=None)
@given(draw=local_net_draws(), trunc=st.sampled_from([2, 3]))
def test_k_identities_hold_on_drawn_vertices(xp_small, draw, trunc):
    """K's two identities on drawn one-site quartic vertices in the past
    of F = (1 + 2i) phi^2 + phi/3: R_V(F)* == R_{-conj V}(F*), and Einstein
    causality [R F, R G]_{*_H} == 0 for G = phi^2 + i phi on a site
    spacelike to F, at truncations (2, 2) and (3, 3)."""
    lat = xp_small.lat
    f, vertices, g = draw
    V = interaction_vertex(lat, vertices, 4, trunc, trunc)
    F = one_site_field(lat, *lat.coords(f), ExactComplex(1, 2),
                       Fraction(1, 3), trunc)
    G = one_site_field(lat, *lat.coords(g), 1, ExactComplex(0, 1), trunc)
    bog = BogoliubovMap(xp_small, V)
    RF = bog.R(F)
    assert RF.conj() == BogoliubovMap(xp_small, V.conj() * (-1)).R(F.conj())
    assert QuantProduct(xp_small, "star_H").commutator(
        RF, bog.R(G)).is_zero()


@pytest.mark.parametrize("trunc", [2, 3])
@pytest.mark.parametrize("c", [1, ExactComplex(0, 1)],
                         ids=["real", "imaginary"])
@pytest.mark.parametrize("vertices, f, g, commute", [
    ([(5, 1)], (7, 0), (7, 2), True),
    ([(3, 1), (5, 1)], (6, 0), (6, 2), True),
    ([(3, 1), (5, 1)], (6, 0), (4, 1), False),
], ids=["one-vertex", "two-vertices", "timelike"])
def test_interacting_fields_at_spacelike_separation_commute(
        xp_small, c, trunc, vertices, f, g, commute):
    """Einstein causality: [R F, R G]_{*_H} == 0 for F and G at spacelike
    separation, and != 0 for the timelike pair.  R moves both F and G, so
    this is not the free commutator: the vertices sit where the retarded
    kernel reaches F's and G's sites (one step ahead it reaches only the
    same x, so a vertex on (5, 1) leaves (6, 0) and (6, 2) alone)."""
    lat = xp_small.lat
    V = interaction_vertex(lat, {lat.site(*s): c for s in vertices}, 4,
                           trunc, trunc)
    F = one_site_field(lat, *f, ExactComplex(1, 2), Fraction(1, 3), trunc)
    G = one_site_field(lat, *g, 1, ExactComplex(0, 1), trunc)
    bog = BogoliubovMap(xp_small, V)
    RF, RG = bog.R(F), bog.R(G)
    assert RF != F and RG != G
    commutator = QuantProduct(xp_small, "star_H").commutator(RF, RG)
    assert commutator.is_zero() == commute


@pytest.mark.parametrize("key", [(1, 21), (5, 5, 21)])
def test_a_non_local_interaction_is_rejected(xp_small, key):
    """A term on two sites has no one place in the cones and rows the map
    works on, and is rejected; for such a V, Sbar(-V) is not the
    star-inverse of S(V) either, so the oracle maps fail too."""
    lat = xp_small.lat
    V = PolyFunctional(lat, {key: FormalSeries({(0, 1): 1})}, 2, 2)
    star = QuantProduct(xp_small, "star_H")
    S_bar = antitimeordered_s_matrix(xp_small, V * (-1))
    assert star.product(s_matrix(xp_small, V), S_bar) \
        != PolyFunctional.constant(lat, 1, 2, 2)
    with pytest.raises(NonLocalInteraction, match=re.escape(str(key))):
        BogoliubovMap(xp_small, V)


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
    rep = multilocal_injectivity_check([F, F], 1)
    assert (rep["injective"], rep["rank"], rep["expected"]) == (False, 1, 2)


# The probe route, kept as the oracle of the rank: each basis functional is
# evaluated on plain Fraction pairs at seeded rational probes, a product's
# value is the product of its factors' values, and the rank of the values
# over Q(i) is half the rank over Q of [[Re, -Im], [Im, Re]].

def evaluate(F, phi):
    """The hbar^0 lambda^0 value of F at phi = {site: (re, im)}."""
    total = (0, 0)
    for key, s in plain(F).items():
        c = s.get((0, 0), (0, 0))
        for site in key:
            c = cmul(c, phi[site])
        total = (total[0] + c[0], total[1] + c[1])
    return total


def fraction_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / p[col]
            rows[r] = [a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return rank


def probe_rank(basis, degree, n_probes):
    rng = random.Random(0)
    sites = set().union(*(F.support() for F in basis))
    probes = [{s: (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0)
               for s in sites} for _ in range(n_probes)]
    values = [[evaluate(F, phi) for phi in probes] for F in basis]
    realified = []
    for combo in itertools.combinations_with_replacement(values, degree):
        row = [(1, 0)] * n_probes
        for v in combo:
            row = [cmul(a, b) for a, b in zip(row, v)]
        realified.append([re for re, _ in row] + [-im for _, im in row])
        realified.append([im for _, im in row] + [re for re, _ in row])
    return fraction_rank(realified) // 2


WEIGHT = st.tuples(st.builds(Fraction, st.sampled_from([-3, -1, 1, 2]),
                             st.integers(1, 3)),
                   st.sampled_from([Fraction(0), Fraction(1, 2)]))


@st.composite
def bases(draw):
    """(basis, degree): 1-3 functionals, each a list of (power, {site:
    (re, im)}) parts summed, on 2-4 sites; a functional may be a multiple
    or a sum of earlier ones, so the products may be dependent."""
    sites = draw(st.lists(st.integers(4, 27), min_size=2, max_size=4,
                          unique=True))
    basis = []
    for _ in range(draw(st.integers(1, 3))):
        if basis and draw(st.integers(0, 2)) == 0:
            parts = []
            for prev in draw(st.lists(st.sampled_from(basis), min_size=1,
                                      max_size=2)):
                c = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
                parts += [(p, {s: (re * c, im * c)
                               for s, (re, im) in f.items()})
                          for p, f in prev]
        else:
            parts = [(draw(st.integers(1, 2)),
                      draw(st.dictionaries(st.sampled_from(sites), WEIGHT,
                                           min_size=1)))]
        basis.append(parts)
    return basis, draw(st.integers(1, 2))


def _phi(site):
    return [(1, {site: (1, 0)})]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@example(case=([_phi(5), _phi(5)], 1))  # F twice
@example(case=([[(2, {5: (1, 0), 9: (2, 0)})],
                [(2, {5: (2, 0), 9: (4, 0)})]], 2))  # F and 2F
@example(case=([_phi(5), _phi(9), _phi(5) + _phi(9)], 2))  # phi(a) + phi(b)
@example(case=([_phi(5), _phi(9), [(2, {13: (1, 0)})]], 2))
@given(case=bases())
def test_multilocal_rank_matches_the_probe_route(lat_small, case):
    specs, degree = case
    basis = []
    for parts in specs:
        F = PolyFunctional(lat_small, {}, 2, 2)
        for power, f in parts:
            w = {s: ExactComplex(*v) for s, v in f.items()}
            F = F + (smeared_field(lat_small, w) if power == 1
                     else local_power(lat_small, w, power))
        basis.append(F)
    rep = multilocal_injectivity_check(basis, degree)
    assert rep["rank"] == probe_rank(basis, degree,
                                     2 * rep["expected"] + 4)
    assert rep["injective"] == (rep["rank"] == rep["expected"])


def test_multilocal_rejects_constant_part(xp_small):
    lat = xp_small.lat
    one = PolyFunctional.constant(lat, 1, 2, 2)
    with pytest.raises(ValueError):
        multilocal_injectivity_check([one], 1)
