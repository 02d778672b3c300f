"""Finite-dimensional *-algebras, states, GNS representations, Weyl operators.

Everything is concrete linear algebra: an algebra is a structure-constant
tensor c with an involution matrix star, a state is a functional on the
basis, and the GNS construction quotients the Gram matrix's null space to
produce an explicit matrix representation with a cyclic vector.  The
axioms, the representation pi(b_i) of every basis element and the GNS
residuals are array expressions on c and star, with no loop over the basis.

The floating-point tolerances are module constants: STAR_TOL for the
algebra axioms, STATE_TOL for a state's normalization and positivity,
GNS_TOL for the Gram null space and INTERTWINER_TOL for the residuals of a
GNS intertwiner.  The Weyl relations are checked on the
shift pairs WEYL_PAIRS over a grid that starts at WEYL_X0, and hold when
their residuals stay within WEYL_TOL.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import CheckFailed, InputError

STAR_TOL = 1e-12  # algebra axioms, entrywise
STATE_TOL = 1e-10  # omega(1) = 1, and Gram eigenvalues >= -STATE_TOL * max
GNS_TOL = 1e-10  # Gram eigenvalues below GNS_TOL * max span the null space
INTERTWINER_TOL = 1e-8  # unitarity, intertwining and U Omega1 = Omega2
WEYL_TOL = 1e-8  # composition and adjoint residuals on interior columns
WEYL_MAX_N = 1024  # grid points, at most: n x n complex matrices, 16 MB each


class AlgebraError(Exception):
    pass


class StateNotPositive(AlgebraError):
    pass


class NoIntertwiner(AlgebraError, CheckFailed):
    pass


class ShiftOffGrid(InputError):
    """Weyl shift is not an integer number of grid cells."""


def _off(a, b) -> float:
    """Largest entrywise distance between two arrays; a is overwritten."""
    a -= b  # at dim 32 a is 16 MB: no third such array
    return float(np.max(np.abs(a)))


class FiniteStarAlgebra:
    """Unital associative *-algebra on an explicit basis.

    mul_const[i, j, k] is the coefficient of b_k in b_i b_j; star[i, a] gives
    b_i^* = sum_a star[i, a] b_a; unit is the coefficient vector of 1.
    """

    def __init__(self, mul_const, star, unit):
        self.c = np.asarray(mul_const, dtype=complex)
        self.star = np.asarray(star, dtype=complex)
        self.unit = np.asarray(unit, dtype=complex)
        self.dim = self.c.shape[0]
        if self.c.shape != (self.dim,) * 3:
            raise AlgebraError("structure constants must be dim^3")
        if self.star.shape != (self.dim, self.dim):
            raise AlgebraError("involution matrix must be dim^2")
        self._validate()

    def _validate(self):
        c, star, eye = self.c, self.star, np.eye(self.dim)
        # 1 b_j = b_j and b_i 1 = b_i
        if max(_off(np.einsum("i,ijk->jk", self.unit, c), eye),
               _off(np.einsum("j,ijk->ik", self.unit, c), eye)) > STAR_TOL:
            raise AlgebraError("unit laws fail")
        # (b_i b_j) b_k == b_i (b_j b_k), both sides one BLAS product:
        # c[i, j, m] c[m, k, l], and c[j, k, m] c[i, m, l] laid out as ijkl
        lhs = np.tensordot(c, c, axes=(2, 0))
        rhs = np.tensordot(c, c, axes=(2, 1)).transpose(2, 0, 1, 3)
        if _off(lhs, rhs) > STAR_TOL:
            raise AlgebraError("multiplication is not associative")
        # b_i^** = b_i, and (b_i b_j)^* = b_j^* b_i^*
        if _off(star.conj() @ star, eye) > STAR_TOL:
            raise AlgebraError("involution is not involutive")
        if _off(np.einsum("ijm,mk->ijk", c.conj(), star),
                np.einsum("ja,ib,abk->ijk", star, star, c,
                          optimize=True)) > STAR_TOL:
            raise AlgebraError("involution is not antimultiplicative")

    def __repr__(self):
        return f"FiniteStarAlgebra(dim={self.dim})"


def functions_on_points(n: int) -> FiniteStarAlgebra:
    """Commutative algebra of functions on n points (pointwise product)."""
    c = np.eye(n)[:, None] * np.eye(n)  # c[i, j, k] = 1 iff i = j = k
    return FiniteStarAlgebra(c, np.eye(n), np.ones(n))


def matrix_algebra(n: int) -> FiniteStarAlgebra:
    """Full matrix algebra M_n with the e_ij basis, row-major."""
    d = n * n
    i, j, l = np.indices((n, n, n)).reshape(3, -1)
    c = np.zeros((d, d, d))
    c[i * n + j, j * n + l, i * n + l] = 1.0  # e_ij e_jl = e_il
    # e_ij^* = e_ji
    star = np.eye(d).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(d, d)
    return FiniteStarAlgebra(c, star, np.eye(n).ravel())


class AlgebraState:
    """Normalized positive functional, given by its values on the basis.

    w, V are the eigenvalues and eigenvectors of the symmetrised Gram
    matrix: they decide positivity here and give the GNS quotient."""

    def __init__(self, alg: FiniteStarAlgebra, omega):
        self.alg = alg
        self.omega = np.asarray(omega, dtype=complex)
        if self.omega.shape != (alg.dim,):
            raise AlgebraError("state vector has wrong length")
        u = self.value(alg.unit)
        if abs(u - 1.0) > STATE_TOL:
            raise AlgebraError(f"state is not normalized: omega(1) = {u}")
        G = gram_matrix(alg, self.omega)
        self.w, self.V = np.linalg.eigh((G + G.conj().T) / 2)  # w ascending
        if self.w[0] < -STATE_TOL * max(1.0, self.w[-1]):
            raise StateNotPositive(f"Gram matrix has eigenvalue {self.w[0]}")

    def value(self, x) -> complex:
        return complex(np.asarray(x, dtype=complex) @ self.omega)


def gram_matrix(alg: FiniteStarAlgebra, omega) -> np.ndarray:
    """G[i, j] = omega(b_i^* b_j)."""
    omega = np.asarray(omega, dtype=complex)
    return np.einsum("ia,ajk,k->ij", alg.star, alg.c, omega)


def gns_construct(alg: FiniteStarAlgebra, state: AlgebraState) -> dict:
    """GNS triple (H, pi, Omega) of a state, with certification residuals.

    The Hilbert space is the quotient by the Gram null space; pi acts by
    left multiplication pushed through the quotient map, and pi[i] is the
    matrix of pi(b_i).
    """
    w, V = state.w, state.V
    scale = max(1.0, float(w[-1]))
    keep = w > GNS_TOL * scale
    r = int(np.count_nonzero(keep))
    Vr = V[:, keep]
    dr = np.sqrt(w[keep])
    Q = (dr[:, None] * Vr.conj().T)          # quotient map, r x dim
    Qpinv = Vr / dr[None, :]                 # right inverse, dim x r
    # c[i].T is the matrix of x -> b_i x
    pi = Q @ alg.c.transpose(0, 2, 1) @ Qpinv
    Omega = Q @ alg.unit
    # pi(b_i) pi(b_j) = pi(b_i b_j) and pi(b_i)^dagger = pi(b_i^*)
    hom = _off(pi[:, None] @ pi[None], np.tensordot(alg.c, pi, 1))
    adj = _off(pi.conj().transpose(0, 2, 1), np.tensordot(alg.star, pi, 1))
    cyc = pi @ Omega                         # row i: pi(b_i) Omega
    vec = float(max(abs(np.vdot(Omega, v) - o)
                    for v, o in zip(cyc, state.omega)))
    cyc_rank = int(np.linalg.matrix_rank(cyc, tol=GNS_TOL * scale))

    return {
        "dim": r,
        "pi": pi,
        "Omega": Omega,
        "residual_homomorphism": hom,
        "residual_adjoint": adj,
        "residual_state": vec,
        "cyclic": cyc_rank == r,
        "gram_eigenvalues": w,
    }


def gns_uniqueness_check(rep1: dict, rep2: dict) -> dict:
    """Unitary intertwiner between two GNS triples of the same state.

    U is defined on the dense subspace by U (pi1(a) Omega1) = pi2(a) Omega2;
    it must come out unitary and intertwine the representations.
    """
    if rep1["dim"] != rep2["dim"]:
        raise NoIntertwiner("GNS dimensions differ")
    pi1, pi2 = rep1["pi"], rep2["pi"]
    U = (pi2 @ rep2["Omega"]).T @ np.linalg.pinv((pi1 @ rep1["Omega"]).T)
    unit_res = _off(U.conj().T @ U, np.eye(rep1["dim"]))
    inter = _off(U @ pi1, pi2 @ U)
    om = _off(U @ rep1["Omega"], rep2["Omega"])
    if max(unit_res, inter, om) > INTERTWINER_TOL:
        raise NoIntertwiner(
            f"no unitary intertwiner (residuals {unit_res:.2e}, "
            f"{inter:.2e}, {om:.2e})")
    return {"U": U, "residual_unitary": unit_res,
            "residual_intertwine": inter, "residual_vector": om}


def direct_sum_state_example() -> dict:
    """Mixture of the two point evaluations on functions over two points:
    the GNS space is the direct sum of the two one-dimensional pure GNS
    spaces, with Omega = (1/sqrt(2), 1/sqrt(2))."""
    alg = functions_on_points(2)
    st1 = AlgebraState(alg, [1.0, 0.0])
    st2 = AlgebraState(alg, [0.0, 1.0])
    mix = AlgebraState(alg, [0.5, 0.5])
    g1 = gns_construct(alg, st1)
    g2 = gns_construct(alg, st2)
    gm = gns_construct(alg, mix)
    # mixed rep decomposes: each pi is diagonalizable with the pure blocks
    block_res = 0.0
    for i in range(alg.dim):
        ev_mixed = sorted(np.linalg.eigvals(gm["pi"][i]).real)
        ev_blocks = sorted([complex(g1["pi"][i][0, 0]).real,
                            complex(g2["pi"][i][0, 0]).real])
        block_res = max(block_res, max(abs(a - b) for a, b
                                       in zip(ev_mixed, ev_blocks)))
    omega_weights = np.abs(gm["Omega"]) ** 2
    return {
        "dims": (g1["dim"], g2["dim"], gm["dim"]),
        "block_residual": block_res,
        "omega_weights": sorted(float(x) for x in omega_weights),
    }


# ---------------------------------------------------------------------------
# Weyl operators on a discrete line


def weyl_phase(a1: float, b1: float, a2: float, b2: float,
               hbar: float) -> complex:
    """Composition phase: W(a1,b1) W(a2,b2) = phase * W(a1+a2, b1+b2)."""
    return cmath.exp(0.5j * hbar * (a1 * b2 - a2 * b1))


def weyl_matrix(alpha: float, beta: float, n: int, dx: float,
                hbar: float, x0: float) -> np.ndarray:
    """W(alpha, beta) on samples over x_j = x0 + j dx:
    (W phi)(x) = e^{i hbar alpha beta / 2} e^{i beta x} phi(x + hbar alpha),
    with zero padding off the grid; the shift must align with the grid."""
    shift = hbar * alpha / dx
    s = round(shift)
    if abs(shift - s) > 1e-9:
        raise ShiftOffGrid(f"shift hbar * alpha = {hbar * alpha} is not a "
                           f"multiple of dx = {dx}")
    xs = x0 + dx * np.arange(n)
    W = np.zeros((n, n), dtype=complex)
    ph = cmath.exp(0.5j * hbar * alpha * beta)
    for j in range(n):
        k = j + s
        if 0 <= k < n:
            W[j, k] = ph * cmath.exp(1j * beta * xs[j])
    return W


WEYL_PAIRS = (((1, 0), (0, 1)), ((2, 0.5), (-1, 1.5)), ((0, 2), (3, 0)))
WEYL_X0 = -8.0  # the grid's first point


def weyl_rep_check(n: int, dx: float, hbar: float) -> dict:
    """Composition and adjoint relations for grid Weyl operators.

    Zero padding breaks the relations only in the edge columns a shift can
    reach, so they are asserted on the interior columns exactly; a grid
    without one (n at most twice the reach), or of more than WEYL_MAX_N
    points, raises InputError naming n before any matrix is built.  A
    phase e^{i beta x_j} is off by up to |beta x_j| eps, so a grid whose
    largest |beta x_j| puts that past WEYL_TOL raises InputError naming dx
    and n: there the relations cannot be checked, not found to fail.
    """
    cells = lambda a: round(abs(hbar * a / dx))  # the columns a shift moves
    reach = max(cells(a1) + cells(a2) for (a1, _), (a2, _) in WEYL_PAIRS)
    if n <= 2 * reach:
        raise InputError(f"n = {n}: no interior column, need n > {2 * reach}")
    if n > WEYL_MAX_N:
        raise InputError(f"n = {n}: more grid points than WEYL_MAX_N = "
                         f"{WEYL_MAX_N}, each operator an n x n matrix")
    theta = max(abs(b1) + abs(b2) for (_, b1), (_, b2) in WEYL_PAIRS) * max(
        abs(WEYL_X0), abs(WEYL_X0 + (n - 1) * dx))
    if theta * np.finfo(float).eps > WEYL_TOL:
        raise InputError(f"dx = {dx}, n = {n}: phase arguments |beta x_j| "
                         f"up to {theta:.3g} carry rounding above WEYL_TOL "
                         f"= {WEYL_TOL:g}; keep (n - 1) dx smaller")
    comp_res = adj_res = 0.0
    for (a1, b1), (a2, b2) in WEYL_PAIRS:
        W1 = weyl_matrix(a1, b1, n, dx, hbar, WEYL_X0)
        W2 = weyl_matrix(a2, b2, n, dx, hbar, WEYL_X0)
        W12 = weyl_matrix(a1 + a2, b1 + b2, n, dx, hbar, WEYL_X0)
        phase = weyl_phase(a1, b1, a2, b2, hbar)
        lo, hi = cells(a1) + cells(a2), n - cells(a1) - cells(a2)
        comp_res = max(comp_res, float(np.max(np.abs(
            (W1 @ W2 - phase * W12)[:, lo:hi]))))
        Wm = weyl_matrix(-a1, -b1, n, dx, hbar, WEYL_X0)
        adj_res = max(adj_res, float(np.max(np.abs(
            (W1.conj().T - Wm)[:, cells(a1):n - cells(a1)]))))
    return {"composition_residual": comp_res, "adjoint_residual": adj_res,
            "interior_margin_cells": reach, "n": n, "dx": dx,
            "phase_example": weyl_phase(1.0, 0.0, 0.0, 1.0, 1.0)}
