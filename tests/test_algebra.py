"""Finite star-algebras, GNS representations, and grid Weyl operators."""
import cmath
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from paqft.algebra import (FiniteStarAlgebra, AlgebraState, AlgebraError,
                           GNS_TOL, StateNotPositive, NoIntertwiner,
                           ShiftOffGrid, functions_on_points, matrix_algebra,
                           gram_matrix, gns_construct, gns_uniqueness_check,
                           direct_sum_state_example, WEYL_PAIRS, weyl_triple,
                           weyl_product, weyl_adjoint, weyl_rep_check)

from conftest import WEYL_X0, triple_matrix, weyl_matrix, weyl_phase


# --------------------------------------------------------------------------
# algebra validation

def test_builtin_algebras_validate():
    assert functions_on_points(3).dim == 3
    m2 = matrix_algebra(2)
    assert m2.dim == 4
    e = np.eye(4)  # e00, e01, e10, e11
    assert np.array_equal(m2.c[1, 2], e[0])  # e01 e10 = e00
    assert np.array_equal(m2.c[2, 1], e[3])  # e10 e01 = e11
    assert np.array_equal(m2.star[1], e[2])  # e01^* = e10


def test_validation_rejects_broken_structures():
    good = functions_on_points(2)
    with pytest.raises(AlgebraError, match="unit laws fail"):
        FiniteStarAlgebra(good.c, good.star, [1.0, 0.0])
    # basis 1, x, y with x y = x and every other product of x, y zero:
    # (x y) y = x but x (y y) = 0
    c = np.zeros((3, 3, 3))
    c[0] = c[:, 0] = np.eye(3)
    c[1, 2, 1] = 1.0
    with pytest.raises(AlgebraError, match="not associative"):
        FiniteStarAlgebra(c, np.eye(3), [1.0, 0.0, 0.0])
    with pytest.raises(AlgebraError, match="not involutive"):
        FiniteStarAlgebra(good.c, [[0.0, 1.0], [1.0, 0.5]], good.unit)
    # entrywise conjugation on M_2 is involutive, but
    # (e01 e10)^* = e00 while e10^* e01^* = e10 e01 = e11
    m2 = matrix_algebra(2)
    with pytest.raises(AlgebraError,
                       match="involution is not antimultiplicative"):
        FiniteStarAlgebra(m2.c, np.eye(4), m2.unit)
    # shape guards
    with pytest.raises(AlgebraError):
        FiniteStarAlgebra(np.zeros((2, 2, 3)), good.star, good.unit)


# --------------------------------------------------------------------------
# states

def test_state_normalization_and_positivity():
    alg = functions_on_points(2)
    with pytest.raises(AlgebraError):
        AlgebraState(alg, [2.0, 0.0])  # omega(1) = 2
    with pytest.raises(StateNotPositive):
        AlgebraState(alg, [1.5, -0.5])  # normalized but indefinite
    st = AlgebraState(alg, [0.25, 0.75])
    assert st.value(alg.unit) == pytest.approx(1.0)
    G = gram_matrix(alg, st.omega)
    assert np.allclose(G, np.diag([0.25, 0.75]))


def tracial_state(n):
    alg = matrix_algebra(n)
    omega = alg.unit / n
    return alg, AlgebraState(alg, omega)


# --------------------------------------------------------------------------
# GNS construction

def test_gns_pure_point_state_is_one_dimensional():
    alg = functions_on_points(2)
    rep = gns_construct(alg, AlgebraState(alg, [1.0, 0.0]))
    assert rep["dim"] == 1 and rep["cyclic"]
    assert rep["residual_homomorphism"] < 1e-12


def test_gns_mixed_state_dimension_and_residuals():
    alg = functions_on_points(2)
    rep = gns_construct(alg, AlgebraState(alg, [0.5, 0.5]))
    assert rep["dim"] == 2 and rep["cyclic"]
    for key in ("residual_homomorphism", "residual_adjoint",
                "residual_state"):
        assert rep[key] < 1e-10


def test_gns_tracial_state_on_m2_is_four_dimensional():
    alg, st = tracial_state(2)
    rep = gns_construct(alg, st)
    assert rep["dim"] == 4 and rep["cyclic"]
    assert rep["residual_homomorphism"] < 1e-10
    assert rep["residual_adjoint"] < 1e-10
    assert rep["residual_state"] < 1e-10
    # the quotient keeps every Gram direction for a faithful state
    assert np.all(rep["gram_eigenvalues"] > 0)


def test_gns_vector_reproduces_the_state():
    alg, st = tracial_state(2)
    rep = gns_construct(alg, st)
    eye = np.eye(alg.dim)
    for i in range(alg.dim):
        got = np.vdot(rep["Omega"], rep["pi"][i] @ rep["Omega"])
        assert got == pytest.approx(st.value(eye[i]), abs=1e-10)


def reference_gns(alg, state):
    """The GNS triple by loops over the basis: pi(b_i) = Q L_i Q^+ with L_i
    = c[i].T the matrix of x -> b_i x, pi(b_i) pi(b_j) against
    sum_k c_ijk pi(b_k), pi(b_i)^dagger against sum_a star_ia pi(b_a), and
    <Omega, pi(b_i) Omega> against omega(b_i) one i at a time."""
    G = gram_matrix(alg, state.omega)
    w, V = np.linalg.eigh((G + G.conj().T) / 2)
    scale = max(1.0, float(w.max()))
    keep = w > GNS_TOL * scale
    r, Vr, dr = int(np.count_nonzero(keep)), V[:, keep], np.sqrt(w[keep])
    Q, Qpinv = dr[:, None] * Vr.conj().T, Vr / dr[None, :]
    d = alg.dim
    pis = [Q @ alg.c[i].T @ Qpinv for i in range(d)]
    Omega = Q @ alg.unit
    hom = max(float(np.max(np.abs(pis[i] @ pis[j] - sum(
        alg.c[i, j, k] * pis[k] for k in range(d)))))
        for i in range(d) for j in range(d))
    adj = max(float(np.max(np.abs(pis[i].conj().T - sum(
        alg.star[i, a] * pis[a] for a in range(d))))) for i in range(d))
    vec = max(abs(np.vdot(Omega, pis[i] @ Omega) - state.value(np.eye(d)[i]))
              for i in range(d))
    cyc = np.column_stack([p @ Omega for p in pis])
    return {"dim": r, "pi": pis, "Omega": Omega,
            "residual_homomorphism": hom, "residual_adjoint": adj,
            "residual_state": vec,
            "cyclic": np.linalg.matrix_rank(cyc, tol=GNS_TOL * scale) == r}


def changed_basis(n, density, seed):
    """M_n on the basis b_i = sum_a T[i, a] e_a for a random complex T, with
    the state tr(density x); its structure constants are not 0/1."""
    m = matrix_algebra(n)
    rng = np.random.default_rng(seed)
    d = n * n
    T = np.eye(d) + 0.3 * (rng.standard_normal((d, d))
                           + 1j * rng.standard_normal((d, d)))
    Tinv = np.linalg.inv(T)
    alg = FiniteStarAlgebra(np.einsum("ia,jb,abm,mk->ijk", T, T, m.c, Tinv),
                            T.conj() @ m.star @ Tinv, m.unit @ Tinv)
    return alg, AlgebraState(alg, T @ np.asarray(density).T.ravel())


@pytest.mark.parametrize("n, density, gns_dim", [
    (2, np.diag([1.0, 0.0]), 2),
    (3, np.diag([0.5, 0.3, 0.2]), 9),
    (3, [[0.5, 0.2j, 0.0], [-0.2j, 0.5, 0.0], [0.0, 0.0, 0.0]], 6),
], ids=["M2-vector", "M3-faithful", "M3-rank2"])
def test_gns_matches_the_loop_reference(n, density, gns_dim):
    alg, st = changed_basis(n, density, seed=n)
    got, want = gns_construct(alg, st), reference_gns(alg, st)
    assert got["dim"] == want["dim"] == gns_dim
    assert got["cyclic"] and want["cyclic"]
    assert np.max(np.abs(got["pi"] - np.array(want["pi"]))) < 1e-12
    assert np.max(np.abs(got["Omega"] - want["Omega"])) < 1e-12
    for key in ("residual_homomorphism", "residual_adjoint",
                "residual_state"):
        assert abs(got[key] - want[key]) < 1e-12, key


def test_gns_uniqueness_intertwiner():
    # the second triple is the first conjugated by a fixed non-diagonal
    # unitary V, so the intertwiner found must be V
    alg, st = tracial_state(2)
    rep1 = gns_construct(alg, st)
    u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    V = np.kron(u, [[0.6, -0.8], [0.8, 0.6]])
    rep2 = dict(rep1, pi=V @ rep1["pi"] @ V.conj().T,
                Omega=V @ rep1["Omega"])
    rep = gns_uniqueness_check(rep1, rep2)
    assert np.max(np.abs(rep["U"] - V)) < 1e-12
    assert rep["residual_unitary"] < 1e-8
    assert rep["residual_intertwine"] < 1e-8


def test_no_intertwiner_between_different_dimensions():
    alg = functions_on_points(2)
    pure = gns_construct(alg, AlgebraState(alg, [1.0, 0.0]))
    mixed = gns_construct(alg, AlgebraState(alg, [0.5, 0.5]))
    with pytest.raises(NoIntertwiner):
        gns_uniqueness_check(pure, mixed)


def test_direct_sum_decomposition():
    rep = direct_sum_state_example()
    assert rep["dims"] == (1, 1, 2)
    assert rep["block_residual"] < 1e-10
    assert max(abs(w - 0.5) for w in rep["omega_weights"]) < 1e-10


# --------------------------------------------------------------------------
# Weyl operators

def test_weyl_phase_value():
    assert weyl_phase(1.0, 0.0, 0.0, 1.0, 1.0) \
        == pytest.approx(cmath.exp(0.5j))
    # antisymmetry of the exponent under swapping the pair
    assert weyl_phase(2.0, 0.5, -1.0, 1.5, 1.0) \
        == pytest.approx(1.0 / weyl_phase(-1.0, 1.5, 2.0, 0.5, 1.0))


def test_weyl_matrix_is_a_shift_with_phase():
    n, dx = 8, 0.5
    W = weyl_matrix(1.0, 0.0, n, dx, 1.0, 0.0)
    phi = np.zeros(n, dtype=complex)
    phi[4] = 1.0
    out = W @ phi
    # shift by hbar*alpha/dx = 2 cells toward lower index
    assert out[2] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(out) > 1e-15) == 1


def test_weyl_shift_must_align_with_grid():
    with pytest.raises(ShiftOffGrid):
        weyl_triple(Fraction(3, 10), 0, Fraction(1, 4), Fraction(1))


def test_weyl_relations_hold_on_interior():
    rep = weyl_rep_check(0.25, 1.0)
    assert rep["composition_residual"] == rep["adjoint_residual"] == 0
    assert rep["phase_example"] == pytest.approx(cmath.exp(0.5j))
    assert (rep["dx"], rep["interior_margin_cells"]) == (0.25, 12)


def test_weyl_phase_example_is_at_the_given_hbar():
    """e^{i hbar/2}: at hbar = 1/2 it is e^{i/4}, and the float the CSV
    prints at hbar = 1 is that of e^{0.5i}."""
    assert weyl_rep_check(0.25, 0.5)["phase_example"] \
        == pytest.approx(cmath.exp(0.25j))
    assert weyl_rep_check(0.25, 1.0)["phase_example"] \
        == complex(np.exp(0.5j))


def test_weyl_grids_past_the_float_phase_resolution_are_exact():
    # 2 (n - 1) dx eps of the dense matrices' phases passed 1e-8 at
    # dx = hbar = 4e5 (n = 64) and at 3e5 (n = 1000); the triples carry no
    # x_j and no n, so there and at 1e300 the relations are ==
    for dx in (4e5, 3e5, 1e300):
        rep = weyl_rep_check(dx, dx)
        assert rep["composition_residual"] == rep["adjoint_residual"] == 0


def test_weyl_decimals_are_read_as_they_are_spelled():
    # 0.1 is 1/10, so hbar alpha / dx = 10 alpha; 1e-300 is no shift of 0
    rep = weyl_rep_check(0.1, 1.0)
    assert rep["interior_margin_cells"] == 30
    assert rep["composition_residual"] == 0
    with pytest.raises(ShiftOffGrid):
        weyl_rep_check(0.25, 1e-300)


@pytest.mark.parametrize("n", [64, 1024])
def test_weyl_triples_act_as_the_dense_operators(n):
    """Each triple's matrix is weyl_matrix, the product's is W1 W2 and the
    adjoint's W1^* on the interior columns, within 1e-8 (the tolerance of
    the dense relations)."""
    dx, hbar = Fraction(1, 4), Fraction(1)
    cells = lambda w: abs(w[0])
    for (a1, b1), (a2, b2) in WEYL_PAIRS:
        w1, w2 = (weyl_triple(a, b, dx, hbar) for a, b in ((a1, b1), (a2, b2)))
        W1, W2 = (weyl_matrix(float(a), float(b), n, 0.25, 1.0, WEYL_X0)
                  for a, b in ((a1, b1), (a2, b2)))
        dense = lambda w: triple_matrix(w, n, dx, WEYL_X0)
        assert np.max(np.abs(dense(w1) - W1)) < 1e-8
        lo = cells(w1) + cells(w2)
        diff = dense(weyl_product(w1, w2, dx)) - W1 @ W2
        assert np.max(np.abs(diff[:, lo:n - lo])) < 1e-8
        diff = dense(weyl_adjoint(w1, dx)) - W1.conj().T
        assert np.max(np.abs(diff[:, cells(w1):n - cells(w1)])) < 1e-8


small = st.fractions(-3, 3, max_denominator=3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.fractions(Fraction(1, 4), 3, max_denominator=4),
       st.fractions(Fraction(1, 4), 3, max_denominator=4),
       st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3), small),
                min_size=2, max_size=2))
def test_weyl_relations_are_exact_on_the_grid(dx, hbar, ops):
    """W(alpha, beta) with alpha = (k / q) dx / hbar: == for both relations
    when q divides k for both operators, ShiftOffGrid otherwise."""
    (a1, b1), (a2, b2) = [(Fraction(k, q) * dx / hbar, b) for k, q, b in ops]
    if any(k % q for k, q, _ in ops):
        with pytest.raises(ShiftOffGrid):
            for a, b in ((a1, b1), (a2, b2)):
                weyl_triple(a, b, dx, hbar)
        return
    w1, w2 = weyl_triple(a1, b1, dx, hbar), weyl_triple(a2, b2, dx, hbar)
    s, b, theta = weyl_triple(a1 + a2, b1 + b2, dx, hbar)
    assert weyl_product(w1, w2, dx) == (
        s, b, theta + hbar * (a1 * b2 - a2 * b1) / 2)
    assert weyl_adjoint(w1, dx) == weyl_triple(-a1, -b1, dx, hbar)


def test_weyl_pure_multiplier_commutes_globally():
    # alpha = 0 operators are diagonal phases: relations exact on all of C^n
    n, dx = 16, 0.25
    W1 = weyl_matrix(0.0, 1.0, n, dx, 1.0, 0.0)
    W2 = weyl_matrix(0.0, 2.5, n, dx, 1.0, 0.0)
    lhs = W1 @ W2
    rhs = (weyl_phase(0.0, 1.0, 0.0, 2.5, 1.0)
           * weyl_matrix(0.0, 3.5, n, dx, 1.0, 0.0))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
