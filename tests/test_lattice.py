"""Propagator identities on small lattices, exact where the construction is
exact, and the guard rails on the discretization parameters."""

import gc
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from paqft import acceptance
from paqft.exact import ExactComplex
from paqft.functionals import smeared_field
from paqft.lattice import (ExactPropagators, Lattice1p1, PropagatorSet,
                           dyadic, leapfrog, UnstableStep,
                           ZeroModeSingular)
from paqft.quantization import QuantProduct

from conftest import (antifeynman_rows, el_matrix, interior_sites,
                      kernel_view, retarded_matrix, rows_view)


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


def roll_leapfrog(lat, phi0, phi1):
    """The leapfrog march with each row's neighbours from np.roll, apart
    from the library's padded row, in the same float operation order."""
    at = float(lat.a_t)
    ax = float(lat.a_x)
    c2 = at * at / (ax * ax)
    m2at2 = lat.mass ** 2 * at * at
    phi = np.zeros((lat.n_t, lat.n_x))
    phi[0] = phi0
    phi[1] = phi1
    for n in range(1, lat.n_t - 1):
        dxx = np.roll(phi[n], -1) - 2.0 * phi[n] + np.roll(phi[n], 1)
        phi[n + 1] = 2.0 * phi[n] - phi[n - 1] + c2 * dxx - m2at2 * phi[n]
    return phi


def reference_ret_table(lat):
    """The retarded table by the np.roll march, from the kick of the
    source row of E g = delta."""
    kick = np.zeros(lat.n_x)
    kick[0] = -float(lat.a_t) / float(lat.a_x)
    return roll_leapfrog(lat, 0.0, kick)


@pytest.mark.parametrize("lat", [
    Lattice1p1(8, 4, Fraction(1, 2), Fraction(1)),
    Lattice1p1(24, 24),
    Lattice1p1(48, 48),
    Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0),
    Lattice1p1(8, 4, Fraction(1, 4), Fraction(1), mass=0.0),
], ids=repr)
def test_leapfrog_matches_the_roll_march(lat):
    """From two random time rows holding zeros of both signs, the march
    gives the np.roll march's bits, down to the sign of every zero."""
    rng = np.random.default_rng(lat.n_t * lat.n_x)
    phi0, phi1 = rng.standard_normal((2, lat.n_x))
    phi0[::3], phi1[1::3] = -0.0, 0.0
    got, want = leapfrog(lat, phi0, phi1), roll_leapfrog(lat, phi0, phi1)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("lat", [
    Lattice1p1(8, 4, Fraction(1, 2), Fraction(1)),
    Lattice1p1(12, 8, Fraction(1, 2), Fraction(1)),
    Lattice1p1(24, 24),
    Lattice1p1(48, 48),
    Lattice1p1(96, 96),
    Lattice1p1(512, 256, Fraction(1, 20), Fraction(1, 10), 1.0),
    Lattice1p1(8, 4, Fraction(1, 4), Fraction(1), mass=0.0),
], ids=repr)
def test_ret_table_matches_its_own_recursion(lat):
    """Same bits, down to the sign of every zero (the propagators CSV
    prints -0.0)."""
    got, want = PropagatorSet(lat).ret_table(), reference_ret_table(lat)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _ac13_with_table(monkeypatch, table):
    """AC13 on `table` in place of the retarded one: (passed, whether the
    cone check passed, residual of the field equation)."""
    monkeypatch.setattr(PropagatorSet, "ret_table", lambda self: table)
    passed, detail = acceptance.crit_13()
    resid = float(re.search(r"id\| = (\S+) on", detail).group(1))
    return passed, detail.startswith("zero outside"), resid


def test_ac13_checks_the_cone_exactly(monkeypatch):
    """A subnormal entry just outside the cone fails AC13, though it moves
    the field equation by far less than its tolerance."""
    lat, xp = acceptance._ctx(24, 24)
    bad = xp.ps.ret_table().copy()
    assert bad[3, 4] == 0.0
    bad[3, 4] = 5e-324
    passed, cone_ok, resid = _ac13_with_table(monkeypatch, bad)
    assert not passed and not cone_ok and resid < 1e-320


def test_ac13_takes_in_every_table_entry(monkeypatch):
    """Any one entry of the table perturbed, inside the cone or out, moves
    the field equation past AC13's tolerance: each enters it at some
    offset, as each entry of the dense Delta_R does."""
    lat, xp = acceptance._ctx(24, 24)
    g = xp.ps.ret_table().copy()
    assert _ac13_with_table(monkeypatch, g) == (True, True, 0.0)
    for n in range(lat.n_t):
        for dx in range(lat.n_x):
            bad = g.copy()
            bad[n, dx] += 1e-6
            passed, cone_ok, resid = _ac13_with_table(monkeypatch, bad)
            assert not passed and resid > 1e-7, (n, dx, resid)
            assert cone_ok == (lat.per_dist(0, dx) <= n), (n, dx)


def test_retarded_supported_on_future_cone(lat_small):
    R = retarded_matrix(PropagatorSet(lat_small))
    for i, j in _pairs(lat_small):
        if not lat_small.in_past_cone(j, i):
            assert R[i, j] == 0.0


def test_commutator_function_antisymmetric_exact(xp_small):
    lat = xp_small.lat
    for i, j in _pairs(lat):
        assert xp_small.causal_entry(i, j) == -xp_small.causal_entry(j, i)


def test_hadamard_symmetric_exact(xp_small):
    H = kernel_view(xp_small, "hadamard")
    for i, j in _pairs(xp_small.lat):
        assert H(i, j) == H(j, i)
        assert H(i, j).im == 0


def test_wightman_decomposition_exact(xp_small):
    """W = H + (i/2) Delta and F = H + i D, and the conjugated Feynman rows
    are Fbar = H - i D, coefficient by coefficient."""
    half_i = ExactComplex(0, Fraction(1, 2))
    H, C, W, S, iD, F = (kernel_view(xp_small, kind) for kind in (
        "hadamard", "causal", "star_H", "star", "timeordered_D",
        "timeordered_F"))
    Fbar = rows_view(antifeynman_rows(xp_small))
    for i, j in _pairs(xp_small.lat):
        assert S(i, j) == half_i * C(i, j)
        assert W(i, j) == H(i, j) + S(i, j)
        assert F(i, j) == H(i, j) + iD(i, j)
        assert Fbar(i, j) == H(i, j) - iD(i, j)


def test_feynman_minus_wightman_supported_on_past_cone(xp_small):
    """F - W = i Delta_A vanishes unless i is in the past cone of j; this
    is what makes causal factorization exact on the lattice."""
    lat = xp_small.lat
    R = retarded_matrix(xp_small.ps)
    F = kernel_view(xp_small, "timeordered_F")
    W = kernel_view(xp_small, "star_H")
    for i, j in _pairs(lat):
        diff = F(i, j) - W(i, j)
        assert diff == ExactComplex(0, Fraction(float(R[j, i])))
        if not lat.in_past_cone(i, j):
            assert diff == ExactComplex(0)


def test_retarded_inverts_linearized_operator(lat_small):
    R = retarded_matrix(PropagatorSet(lat_small))
    E = el_matrix(lat_small)
    resid = float(lat_small.volume_weight) * (E @ R) - np.eye(lat_small.n_sites)
    rows = interior_sites(lat_small)
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
    E = el_matrix(lat_small)
    resid = E @ W
    rows = interior_sites(lat_small)
    assert np.max(np.abs(resid[rows])) < 1e-12


def reference_wightman_table(lat):
    """The positive-frequency table from the whole (2 n_t - 1, n_x, modes)
    phase array, summed over modes in one reduction."""
    k, omega_hat, s_hat = PropagatorSet(lat).mode_data()
    at, ax = float(lat.a_t), float(lat.a_x)
    n = np.arange(-(lat.n_t - 1), lat.n_t)[:, None, None]
    dx = np.arange(lat.n_x)[None, :, None]
    phase = np.exp(-1j * omega_hat[None, None, :] * n * at
                   + 1j * k[None, None, :] * dx * ax)
    wt = (phase / (2.0 * s_hat[None, None, :])).sum(axis=2)
    return wt / (lat.n_x * ax)


@pytest.mark.parametrize("n_t, n_x", [(8, 4), (24, 24), (48, 48), (96, 96)])
def test_wightman_table_rows_match_the_whole_array_sum(n_t, n_x):
    lat = Lattice1p1(n_t, n_x)
    assert np.array_equal(PropagatorSet(lat).wightman_table(),
                          reference_wightman_table(lat))


def test_exact_lift_matches_float_tables(xp_small):
    lat = xp_small.lat
    ps = PropagatorSet(lat)
    R = retarded_matrix(ps)
    wt = ps.wightman_table()
    H = kernel_view(xp_small, "hadamard")
    for i, j in _pairs(lat):
        assert float(xp_small.causal_entry(i, j)) == R[i, j] - R[j, i]
        (ti, xi), (tj, xj) = lat.coords(i), lat.coords(j)
        # H is read at the offset or at its mirror, whichever is smaller
        assert float(H(i, j).re) in (
            wt[ti - tj + lat.n_t - 1, (xi - xj) % lat.n_x].real,
            wt[tj - ti + lat.n_t - 1, (xj - xi) % lat.n_x].real)


KINDS = ("causal", "hadamard", "star", "star_H", "timeordered_D",
         "timeordered_F")


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
            "timeordered_F": ExactComplex(h, Fraction(r + a) / 2)}


def _offset_pairs(lat):
    """Site pairs that meet every offset (n, dx): all sites against one
    site of the first and one of the last time row."""
    return [(i, j) for i in range(lat.n_sites)
            for j in (lat.site(0, 0), lat.site(lat.n_t - 1, 0))]


def test_rows_hold_exactly_the_nonzero_entries(xp_small):
    """rows(ys, zs) over every site pair of 8x4 has an entry at (i, j)
    exactly where the reference lift is nonzero, and it is that entry times
    den; a row with no nonzero entry is left out."""
    lat = xp_small.lat
    ps = PropagatorSet(lat)
    want = {kind: {} for kind in KINDS}
    for i, j in _pairs(lat):
        for kind, v in reference_kernels(ps, i, j).items():
            if v != ExactComplex(0):
                want[kind].setdefault(i, {})[j] = v
    sites = range(lat.n_sites)
    for kind in KINDS:
        _, rows, den = xp_small.numerators(kind)
        got = rows(sites, sites)
        assert got == {i: {j: (v.re * den, v.im * den) for j, v in row.items()}
                       for i, row in want[kind].items()}, kind


def test_kernels_match_reference_lift(xp_small, xp24):
    """8x4 on every site pair; 24x24 (dyadic exponents up to 72) on every
    offset."""
    for xp, pairs in ((xp_small, _pairs(xp_small.lat)),
                      (xp24, _offset_pairs(xp24.lat))):
        kernels = {kind: kernel_view(xp, kind) for kind in KINDS}
        ps = PropagatorSet(xp.lat)
        for i, j in pairs:
            want = reference_kernels(ps, i, j)
            for kind in KINDS:
                assert kernels[kind](i, j) == want[kind], (kind, i, j)


def _entries_by_offset(xp, kind):
    """{(n, dx): the set of entries of `kind` over all site pairs at that
    offset}, an absent entry read as (0, 0)."""
    lat = xp.lat
    sites = range(lat.n_sites)
    rows = xp.numerators(kind)[1](sites, sites)
    out = {}
    for i in sites:
        (ti, xi), row = lat.coords(i), rows.get(i, {})
        for j in sites:
            tj, xj = lat.coords(j)
            out.setdefault((ti - tj, (xi - xj) % lat.n_x), set()).add(
                row.get(j, (0, 0)))
    return out


def test_entries_depend_only_on_the_offset(xp_small, xp24):
    """All site pairs at one offset give == entries: every kind and every
    offset of 8x4, every offset of 24x24 for star_H, which reads the
    retarded, advanced and Hadamard lists.  The entries are read, not
    kept: after a commutator the lift holds no per-kind table."""
    for xp, kinds in ((xp_small, KINDS), (xp24, ("star_H",))):
        lat = xp.lat
        for kind in kinds:
            by_offset = _entries_by_offset(xp, kind)
            assert len(by_offset) == (2 * lat.n_t - 1) * lat.n_x
            for offset, entries in by_offset.items():
                assert len(entries) == 1, (kind, offset, entries)
    xp = ExactPropagators(xp_small.lat)
    f, g = {3: Fraction(1, 3)}, {21: Fraction(2)}
    QuantProduct(xp, "star_H").commutator(smeared_field(xp.lat, f),
                                          smeared_field(xp.lat, g))
    assert set(vars(xp)) == {"ps", "lat", "_lifted", "_causal"}
    n_offsets = (2 * xp.lat.n_t - 1) * xp.lat.n_x
    assert [len(v) for v in xp._lifted[:3]] == 3 * [n_offsets]
    assert xp._causal == {}


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


def dyadic_by_ratios(values):
    """The float-by-float route: each float's integer ratio p/q, e read off
    the largest q and every p shifted up to 2**e."""
    ratios = [float(x).as_integer_ratio() for x in values]
    e = max((q for _, q in ratios), default=1).bit_length() - 1
    return [p << (e - q.bit_length() + 1) for p, q in ratios], e


@pytest.mark.parametrize("values", [
    [], [0.0], [0.0, -0.0], [5e-324, 0.0], [-5e-324, 2.5e-320, 1e-310],
    [3.0, -7.0, 2.0 ** 60, -(2.0 ** 60 + 2.0 ** 8), 1.0],
    [1.0, 0.5, -1.25, 1.0 / 3.0], [1e300, 1e-300, -0.75, 0.0],
    [float(2 ** 52 + 1), -float(2 ** 53), 6.0]])
def test_dyadic_matches_integer_ratios(values):
    """Zeros, negative values, subnormals and integer-valued entries give
    the (nums, e) of the integer-ratio route, ints for ints."""
    got = dyadic(values)
    assert got == dyadic_by_ratios(values)
    assert all(type(v) is int for v in got[0])


def test_dyadic_matches_integer_ratios_on_the_tables():
    ps = PropagatorSet(Lattice1p1(24, 24, Fraction(1, 2), Fraction(1)))
    values = (ps.ret_table().ravel().tolist()
              + ps.wightman_table().real.ravel().tolist())
    assert dyadic(values) == dyadic_by_ratios(values)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_dyadic_refuses_non_finite_floats(x):
    with pytest.raises(ValueError):
        dyadic([1.0, x])


def test_massless_lattice_has_the_kinds_free_of_h():
    lat = Lattice1p1(8, 4, Fraction(1, 4), Fraction(1), mass=0.0)
    xp = ExactPropagators(lat)
    ret = xp.ps.ret_table()
    for i, j in _pairs(lat):
        (ti, xi), (tj, xj) = lat.coords(i), lat.coords(j)
        r = Fraction(ret[ti - tj, (xi - xj) % 4]) if ti > tj else 0
        a = Fraction(ret[tj - ti, (xj - xi) % 4]) if tj > ti else 0
        assert xp.causal_entry(i, j) == r - a
        assert kernel_view(xp, "star")(i, j) == ExactComplex(0, (r - a) / 2)
        assert kernel_view(xp, "timeordered_D")(i, j) == ExactComplex(
            0, (r + a) / 2)
    f, g = {lat.site(2, 0): Fraction(1, 3)}, {lat.site(5, 1): Fraction(2)}
    comm = QuantProduct(xp, "star").commutator(smeared_field(lat, f),
                                               smeared_field(lat, g))
    want = (f[lat.site(2, 0)] * g[lat.site(5, 1)] * lat.volume_weight ** 2
            * xp.causal_entry(lat.site(2, 0), lat.site(5, 1)))
    assert want and comm.terms[()].coeff == {(1, 0): ExactComplex(0, want)}
    for kind in ("hadamard", "star_H", "timeordered_F"):
        _, rows, _ = xp.numerators(kind)
        with pytest.raises(ZeroModeSingular,
                           match="positive-frequency split needs m > 0"):
            rows((3,), (7,))


def test_lifts_are_freed_without_the_cycle_collector(lat_small):
    """Nothing an ExactPropagators hands out is stored back on it, so its
    tables go with the last reference, not at a later gc pass."""
    xp = ExactPropagators(lat_small)
    xp.causal_entry(3, 7)
    kernel_view(xp, "star_H")(3, 7)
    ref = weakref.ref(xp)
    gc.disable()
    try:
        del xp
        assert ref() is None
    finally:
        gc.enable()


def test_kernel_dispatch(xp_small):
    k_star = kernel_view(xp_small, "star")
    k_h = kernel_view(xp_small, "star_H")
    k_f = kernel_view(xp_small, "timeordered_F")
    had = kernel_view(xp_small, "hadamard")(3, 7).re
    causal = xp_small.causal_entry(3, 7)
    assert k_star(3, 7) == ExactComplex(0, causal / 2)
    assert k_h(3, 7) == ExactComplex(had, causal / 2)
    assert k_f(3, 7) == ExactComplex(
        had, kernel_view(xp_small, "timeordered_D")(3, 7).im)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        xp_small.numerators("nonsense")


def test_causal_column_agrees_with_entries(xp_small):
    lat = xp_small.lat
    ps = xp_small.ps
    col = ps.causal_column(4, 1)
    j = lat.site(4, 1)
    for i in range(lat.n_sites):
        t, x = lat.coords(i)
        assert col[t, x] == pytest.approx(float(xp_small.causal_entry(i, j)))
