"""Propagator identities on small lattices, exact where the construction is
exact, and the guard rails on the discretization parameters."""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from paqft.exact import ExactComplex
from paqft.functionals import smeared_field
from paqft.lattice import (ExactPropagators, Lattice1p1, PropagatorSet,
                           dyadic, kg_operator, el_operator, kg_apply,
                           UnstableStep, ZeroModeSingular)
from paqft.quantization import QuantProduct


def _pairs(lat):
    return [(i, j) for i in range(lat.n_sites) for j in range(lat.n_sites)]


def test_courant_and_band_edge_guards():
    with pytest.raises(UnstableStep):
        Lattice1p1(8, 4, Fraction(2), Fraction(1))
    with pytest.raises(UnstableStep):
        Lattice1p1(8, 4, Fraction(1, 2), Fraction(1, 2), mass=1.0)


def test_zero_mode_needs_mass():
    lat = Lattice1p1(8, 4, Fraction(1, 4), Fraction(1), mass=0.0)
    ps = PropagatorSet(lat)
    with pytest.raises(ZeroModeSingular):
        ps.wightman_table()
    # the retarded table is still fine massless
    assert ps.ret_table().shape == (8, 4)


def test_retarded_supported_on_future_cone(lat_small):
    R = PropagatorSet(lat_small).retarded()
    for i, j in _pairs(lat_small):
        if not lat_small.in_past_cone(j, i):
            assert R[i, j] == 0.0


def test_commutator_function_antisymmetric_exact(xp_small):
    lat = xp_small.lat
    for i, j in _pairs(lat):
        assert xp_small.causal_entry(i, j) == -xp_small.causal_entry(j, i)


def test_hadamard_symmetric_exact(xp_small):
    H = xp_small.kernel("hadamard")
    for i, j in _pairs(xp_small.lat):
        assert H(i, j) == H(j, i)
        assert H(i, j).im == 0


def test_wightman_decomposition_exact(xp_small):
    """W = H + (i/2) Delta, F = H + i D and F + Fbar = 2 H, coefficient by
    coefficient."""
    half_i = ExactComplex(0, Fraction(1, 2))
    H, C, W, S, iD, F, Fbar = (xp_small.kernel(kind) for kind in (
        "hadamard", "causal", "star_H", "star", "timeordered_D",
        "timeordered_F", "antitimeordered_F"))
    for i, j in _pairs(xp_small.lat):
        assert S(i, j) == half_i * C(i, j)
        assert W(i, j) == H(i, j) + S(i, j)
        assert F(i, j) == H(i, j) + iD(i, j)
        assert Fbar(i, j) + F(i, j) == H(i, j) * 2


def test_feynman_minus_wightman_supported_on_past_cone(xp_small):
    """F - W = i Delta_A vanishes unless i is in the past cone of j; this
    is what makes causal factorization exact on the lattice."""
    lat = xp_small.lat
    R = xp_small.ps.retarded()
    F = xp_small.kernel("timeordered_F")
    W = xp_small.kernel("star_H")
    for i, j in _pairs(lat):
        diff = F(i, j) - W(i, j)
        assert diff == ExactComplex(0, Fraction(float(R[j, i])))
        if not lat.in_past_cone(i, j):
            assert diff == ExactComplex(0)


def test_retarded_inverts_linearized_operator(lat_small):
    R = PropagatorSet(lat_small).retarded()
    E = el_operator(lat_small)
    resid = float(lat_small.volume_weight) * (E @ R) - np.eye(lat_small.n_sites)
    rows = lat_small.interior_sites()
    assert np.max(np.abs(resid[rows])) == 0.0


def test_wightman_solves_field_equation_on_interior(lat_small):
    wt = PropagatorSet(lat_small).wightman_table()
    n_t, n_x = lat_small.n_t, lat_small.n_x
    W = np.zeros((lat_small.n_sites, lat_small.n_sites), dtype=complex)
    for i in range(lat_small.n_sites):
        ti, xi = lat_small.coords(i)
        for j in range(lat_small.n_sites):
            tj, xj = lat_small.coords(j)
            W[i, j] = wt[ti - tj + n_t - 1, (xi - xj) % n_x]
    E = el_operator(lat_small)
    resid = E @ W
    rows = lat_small.interior_sites()
    assert np.max(np.abs(resid[rows])) < 1e-12


def test_exact_lift_matches_float_tables(xp_small):
    lat = xp_small.lat
    ps = PropagatorSet(lat)
    R = ps.retarded()
    wt = ps.wightman_table()
    H = xp_small.kernel("hadamard")
    for i, j in _pairs(lat):
        assert float(xp_small.causal_entry(i, j)) == R[i, j] - R[j, i]
        (ti, xi), (tj, xj) = lat.coords(i), lat.coords(j)
        # H is read at the offset or at its mirror, whichever is smaller
        assert float(H(i, j).re) in (
            wt[ti - tj + lat.n_t - 1, (xi - xj) % lat.n_x].real,
            wt[tj - ti + lat.n_t - 1, (xj - xi) % lat.n_x].real)


def reference_kernels(ps, i, j):
    """Every kernel kind at (i, j), lifted straight from the float tables
    for this one site pair."""
    lat = ps.lat
    (ti, xi), (tj, xj) = lat.coords(i), lat.coords(j)

    def ret(n, dx):
        return Fraction(float(ps.ret_table()[n, dx % lat.n_x])) if n > 0 else 0

    r, a = ret(ti - tj, xi - xj), ret(tj - ti, xj - xi)
    n, dx = min((ti - tj, (xi - xj) % lat.n_x), (tj - ti, (xj - xi) % lat.n_x))
    h = Fraction(float(ps.wightman_table()[n + lat.n_t - 1, dx].real))
    return {"causal": ExactComplex(r - a), "hadamard": ExactComplex(h),
            "star": ExactComplex(0, Fraction(r - a) / 2),
            "star_H": ExactComplex(h, Fraction(r - a) / 2),
            "timeordered_D": ExactComplex(0, Fraction(r + a) / 2),
            "timeordered_F": ExactComplex(h, Fraction(r + a) / 2),
            "antitimeordered_F": ExactComplex(h, -Fraction(r + a) / 2)}


def _offset_pairs(lat):
    """Site pairs that meet every offset (n, dx): all sites against one
    site of the first and one of the last time row."""
    return [(i, j) for i in range(lat.n_sites)
            for j in (lat.site(0, 0), lat.site(lat.n_t - 1, 0))]


def test_kernels_match_reference_lift(xp_small, xp24):
    """8x4 on every site pair; 24x24 (dyadic exponents up to 72) on every
    offset."""
    kinds = ("causal", "hadamard", "star", "star_H", "timeordered_D",
             "timeordered_F", "antitimeordered_F")
    for xp, pairs in ((xp_small, _pairs(xp_small.lat)),
                      (xp24, _offset_pairs(xp24.lat))):
        kernels = {kind: xp.kernel(kind) for kind in kinds}
        ps = PropagatorSet(xp.lat)
        for i, j in pairs:
            want = reference_kernels(ps, i, j)
            for kind in kinds:
                assert kernels[kind](i, j) == want[kind], (kind, i, j)


def test_entries_are_shared_per_offset(xp_small):
    lat = xp_small.lat
    for kind in ("hadamard", "star_H"):
        e1 = xp_small.numerators(kind)[0](lat.site(3, 1), lat.site(1, 3))
        e2 = xp_small.numerators(kind)[0](lat.site(6, 0), lat.site(4, 2))
        assert e1 is e2


@pytest.mark.parametrize("x", [
    5e-324, 2.5e-320, 1e-300, -1e-300, -0.75, 3.0 * 2.0 ** -120,
    -(2.0 ** 60 + 2.0 ** 8), 1.0 / 3.0, 0.0])
def test_dyadic_is_exact(x):
    """Subnormals, tiny and negative values and exponents above 100, alone
    and sharing one power of two with ordinary entries."""
    nums, e = dyadic([x])
    assert Fraction(nums[0], 2 ** e) == Fraction(x)
    assert e == 0 or nums[0] % 2  # the least power of two
    values = [x, 0.5, -1.25, 1e-30]
    nums, e = dyadic(values)
    assert [Fraction(v, 2 ** e) for v in nums] == [Fraction(v)
                                                    for v in values]


def test_massless_lattice_has_the_kinds_free_of_h():
    lat = Lattice1p1(8, 4, Fraction(1, 4), Fraction(1), mass=0.0)
    xp = ExactPropagators(lat)
    ret = xp.ps.ret_table()
    for i, j in _pairs(lat):
        (ti, xi), (tj, xj) = lat.coords(i), lat.coords(j)
        r = Fraction(ret[ti - tj, (xi - xj) % 4]) if ti > tj else 0
        a = Fraction(ret[tj - ti, (xj - xi) % 4]) if tj > ti else 0
        assert xp.causal_entry(i, j) == r - a
        assert xp.kernel("star")(i, j) == ExactComplex(0, (r - a) / 2)
        assert xp.kernel("timeordered_D")(i, j) == ExactComplex(
            0, (r + a) / 2)
    f, g = {lat.site(2, 0): Fraction(1, 3)}, {lat.site(5, 1): Fraction(2)}
    comm = QuantProduct(xp, "star").commutator(smeared_field(lat, f),
                                               smeared_field(lat, g))
    want = (f[lat.site(2, 0)] * g[lat.site(5, 1)] * lat.volume_weight ** 2
            * xp.causal_entry(lat.site(2, 0), lat.site(5, 1)))
    assert want and comm.terms[()].coeff == {(1, 0): ExactComplex(0, want)}
    for kind in ("hadamard", "star_H", "timeordered_F", "antitimeordered_F"):
        with pytest.raises(ZeroModeSingular,
                           match="positive-frequency split needs m > 0"):
            xp.kernel(kind)(3, 7)


def test_lifts_are_freed_without_the_cycle_collector(lat_small):
    """Nothing an ExactPropagators hands out is stored back on it, so its
    tables go with the last reference, not at a later gc pass."""
    xp = ExactPropagators(lat_small)
    xp.causal_entry(3, 7)
    xp.kernel("star_H")(3, 7)
    ref = weakref.ref(xp)
    gc.disable()
    try:
        del xp
        assert ref() is None
    finally:
        gc.enable()


def test_kernel_dispatch(xp_small):
    k_star = xp_small.kernel("star")
    k_h = xp_small.kernel("star_H")
    k_f = xp_small.kernel("timeordered_F")
    had = xp_small.kernel("hadamard")(3, 7).re
    causal = xp_small.causal_entry(3, 7)
    assert k_star(3, 7) == ExactComplex(0, causal / 2)
    assert k_h(3, 7) == ExactComplex(had, causal / 2)
    assert k_f(3, 7) == ExactComplex(
        had, xp_small.kernel("timeordered_D")(3, 7).im)
    with pytest.raises(ValueError):
        xp_small.kernel("nonsense")


def test_causal_column_agrees_with_entries(xp_small):
    lat = xp_small.lat
    ps = xp_small.ps
    col = ps.causal_column(4, 1)
    j = lat.site(4, 1)
    for i in range(lat.n_sites):
        t, x = lat.coords(i)
        assert col[t, x] == pytest.approx(float(xp_small.causal_entry(i, j)))


def test_kg_apply_matches_matrix(lat_small):
    rng = np.random.default_rng(3)
    phi = rng.normal(size=lat_small.n_sites)
    K = kg_operator(lat_small)
    got = kg_apply(lat_small, phi.reshape(lat_small.n_t, lat_small.n_x))
    want = (K @ phi).reshape(lat_small.n_t, lat_small.n_x)
    rows = [lat_small.coords(s)[0] for s in lat_small.interior_sites()]
    assert np.allclose(got[rows], want[rows], atol=1e-12)
