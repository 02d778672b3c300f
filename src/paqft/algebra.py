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
GNS intertwiner.  The Weyl relations need none: each Weyl operator on the
grid is a triple of rationals, and the relations are decided with ==.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import CheckFailed, InputError

STAR_TOL = 1e-12  # algebra axioms, entrywise
STATE_TOL = 1e-10  # omega(1) = 1, and Gram eigenvalues >= -STATE_TOL * max
GNS_TOL = 1e-10  # Gram eigenvalues below GNS_TOL * max span the null space
INTERTWINER_TOL = 1e-8  # unitarity, intertwining and U Omega1 = Omega2


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

WEYL_PAIRS = (((1, 0), (0, 1)), ((2, Fraction(1, 2)), (-1, Fraction(3, 2))),
              ((0, 2), (3, 0)))


def weyl_triple(alpha, beta, dx: Fraction, hbar: Fraction) -> tuple:
    """W(alpha, beta) on samples over x_j = x0 + j dx, zero padded off the
    grid, is (W phi)_j = e^{i(theta + beta x_j)} phi_{j+s}: held over Q as
    (s, beta, theta), s = hbar alpha / dx and theta = hbar alpha beta / 2,
    whatever x0 and n.  ShiftOffGrid unless s is a whole number of cells."""
    s = hbar * alpha / dx
    if s.denominator != 1:
        raise ShiftOffGrid(f"W({alpha}, {beta}): shift hbar alpha / dx = "
                           f"{s} cells is not a whole number")
    return int(s), beta, hbar * alpha * beta / 2


def weyl_product(w1: tuple, w2: tuple, dx: Fraction) -> tuple:
    """The triple of W1 W2: W2's phase is read at x_{j+s1} = x_j + s1 dx."""
    (s1, b1, t1), (s2, b2, t2) = w1, w2
    return s1 + s2, b1 + b2, t1 + t2 + b2 * s1 * dx


def weyl_adjoint(w: tuple, dx: Fraction) -> tuple:
    """The triple of W^*."""
    s, b, t = w
    return -s, -b, -t + b * s * dx


def weyl_rep_check(dx, hbar) -> dict:
    """The Weyl relation W1 W2 = e^{i hbar (a1 b2 - a2 b1) / 2} W(a1 + a2,
    b1 + b2) and the adjoint relation W1^* = W(-a1, -b1) on WEYL_PAIRS,
    decided with == on the triples, dx and hbar read as the decimals or
    ratios they spell (0.1 is 1/10).  The sides' shifts and betas agree by
    construction, so a residual is the gap |theta - theta'| over Q, on any
    grid.  Zero padding breaks the relations only in the edge columns a
    shift reaches, interior_margin_cells of them at each edge.
    phase_example is e^{i hbar/2}, of W(1, 0) W(0, 1) = e^{i hbar/2}
    W(1, 1); the items are in the weyl CSV's order."""
    dx, hbar = Fraction(str(dx)), Fraction(str(hbar))
    W = lambda a, b: weyl_triple(a, b, dx, hbar)
    reach = max(abs(W(a1, b1)[0]) + abs(W(a2, b2)[0])  # columns shifts move
                for (a1, b1), (a2, b2) in WEYL_PAIRS)
    comp_res = adj_res = 0
    for (a1, b1), (a2, b2) in WEYL_PAIRS:
        theta = W(a1 + a2, b1 + b2)[2] + hbar * (a1 * b2 - a2 * b1) / 2
        comp_res = max(comp_res, abs(
            weyl_product(W(a1, b1), W(a2, b2), dx)[2] - theta))
        adj_res = max(adj_res, abs(
            weyl_adjoint(W(a1, b1), dx)[2] - W(-a1, -b1)[2]))
    return {"dx": float(dx), "composition_residual": comp_res,
            "adjoint_residual": adj_res, "interior_margin_cells": reach,
            "phase_example": complex(np.exp(0.5j * float(hbar)))}
