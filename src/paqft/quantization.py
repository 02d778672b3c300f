"""Deformation quantization of lattice functionals.

Every product here is one exponential-contraction formula,

    F x_K G = sum_n (hbar^n / n!) <F^(n), K^(x n) G^(n)>,

differing only in the contraction kernel K: (i/2)Delta for the star product,
the positive-frequency kernel for the Wick-ordered star product, i*DiracD
and Feynman for the two time-ordered products.  The Wick transform alpha_H
and the time-ordering operator are the same formula with both ends of each
line in one functional (exp_gamma, e^{(hbar/2) Gamma_K}), the Peierls
bracket is one line of the causal kernel Delta between two functionals, and
the graph expansion of graphs.py is the same formula with n functionals and
lines between any two of them.  The commutator is computed as
F x G - G x F = i hbar {F, G} + O(hbar^2): K^(x n) - (K^T)^(x n) telescopes
into terms that each hold one factor K - K^T = i Delta, so every order
starts with the Peierls bracket's causal line, followed by K-lines both
ways.  The formal S-matrix is the exponential of the vertex in a
time-ordered product; BogoliubovMap builds R without it, from *_H
commutators with the vertices, row by row.

All of them are thin callers of `contract`, the single contraction engine.
It follows the formula: a line contracts, through its own kernel, functional
derivatives of two whole factors (or two of one), so one schedule can mix
kernels, as the commutator's causal line and K-lines do.  A factor comes in
the stored form of a PolyFunctional, grade slices of Gaussian-integer
numerators over one denominator (one polynomial per (hbar, lambda) order),
and is used as it is; a kernel comes as int pairs over one declared
denominator (a power of two per lattice, ExactPropagators.numerators), its
rows over a pair of factors' supports read once per call, when a line first
finds fields to contract there; between lines the state is a list of tensor
terms, one polynomial per factor, and a line reads every derivative of a
polynomial off its gradient (functionals.gradient).  Each polynomial's
gradient and each kernel row smeared against it are computed once per call,
whichever slice tuples, schedules and tensor terms hold that polynomial.
The factors' denominators, the kernel denominators and the schedule weights
(1/n!, 1/prod l_ij!) fold into one final denominator, each final term is
closed by the pointwise multiplication m (functionals.add_product), and the
result is reduced once, in ints, into the same form; no Fraction is built
between products.  The results are exactly those of rational arithmetic, and
identities (commutation relations, equivalences, factorisation) are checked
with ==.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .exact import ExactComplex
from .functionals import (DimensionMismatch, PolyFunctional, add_product,
                          gradient, local_power, pointwise_product)
from .lattice import ExactPropagators
from .series import FormalSeries

PRODUCT_KINDS = ("star", "star_H", "timeordered_D", "timeordered_F")
_CAUSAL_KINDS = ("star", "star_H")  # K - K^T = i Delta; the others are 0


class NoLambdaGrading(Exception):
    """Interaction term must carry at least one power of the coupling."""


class NonLocalInteraction(Exception):
    """Interaction term off one site: R places each term in one past cone
    and on one time row."""


def _smeared(grad: dict, row: dict, out: dict) -> dict:
    """out += sum_z K(y, z) dT/dphi[z] for the kernel row {z: K(y, z)} and
    grad = gradient(T); returns out."""
    for z, d in grad.items():
        kv = row.get(z)
        if kv is not None:
            kr, ki = kv
            for k, (re, im) in d.items():
                r0, i0 = out.get(k, (0, 0))
                out[k] = (r0 + re * kr - im * ki, i0 + re * ki + im * kr)
    return out


class _Lines:
    """The lines of one contract call over its kernels.

    A line (i, j, k) reads the table {y: {z: K}} of kernels[k] over
    supp F_i x supp F_j on first use, and only when a term still has a
    field to contract in both banks (two in bank i when i == j), so a line
    that finds only constants reads no kernel at all.  Each bank's
    gradient, and per kernel each smeared row sum_z K(y, z) d_z T and each
    Gamma_K T, is computed once per bank object, so tensor terms and slice
    tuples that share a bank share them.  The gradient and Gamma_K caches
    hold every bank they key by id, so no id is reused while the caches
    live."""

    def __init__(self, kernels: list, supports: list):
        self.kernels = kernels
        self.supports = supports
        self.tables: dict[tuple, dict] = {}  # (k, i, j) -> {y: {z: K}}
        self.grads: dict[int, tuple] = {}  # id(T) -> (T, gradient(T))
        self.rows: dict[tuple, dict] = {}  # (k, id(T), y) -> smeared row
        self.gammas: dict[tuple, tuple] = {}  # (k, id(T)) -> (T, Gamma_K T)

    def table(self, i: int, j: int, k: int) -> dict:
        key = k, i, j
        if key not in self.tables:
            self.tables[key] = self.kernels[k][1](self.supports[i],
                                                  self.supports[j])
        return self.tables[key]

    def grad(self, bank: dict) -> dict:
        hit = self.grads.get(id(bank))
        if hit is None:
            hit = self.grads[id(bank)] = (bank, gradient(bank))
        return hit[1]

    def gamma(self, bank: dict, i: int, k: int) -> dict:
        """Gamma_K T = sum_{y,z} K(y, z) d_z d_y T: one field y, then a
        different field z."""
        hit = self.gammas.get((k, id(bank)))
        if hit is None:
            out: dict = {}
            if any(len(m) > 1 for m in bank):
                g, table = self.grad(bank), self.table(i, i, k)
                for y in g.keys() & table.keys():
                    _smeared(self.grad(g[y]), table[y], out)
            hit = self.gammas[k, id(bank)] = (bank, out)
        return hit[1]

    def apply(self, terms: list, line: tuple) -> list:
        """The line (i, j, k) on tensor terms, each a tuple of banks.
        i != j: (T_i, T_j) -> d_y T_i (x) sum_z K(y, z) d_z T_j, one term
        per site y of T_i with a kernel row.  i == j: T_i -> Gamma_K T_i."""
        i, j, k = line
        out = []
        for banks in terms:
            if i == j:
                gamma = self.gamma(banks[i], i, k)
                if gamma:
                    out.append(banks[:i] + (gamma,) + banks[i + 1:])
                continue
            if not (any(banks[i]) and any(banks[j])):  # a bank of constants
                continue
            gi, gj = self.grad(banks[i]), self.grad(banks[j])
            table = self.table(i, j, k)
            for y in gi.keys() & table.keys():
                key = k, id(banks[j]), y
                smeared = self.rows.get(key)
                if smeared is None:
                    smeared = self.rows[key] = _smeared(gj, table[y], {})
                if smeared:
                    new = list(banks)
                    new[i], new[j] = gi[y], smeared
                    out.append(tuple(new))
        return out


def _after(memo: dict, lines: tuple, lines_of: _Lines) -> list:
    """Tensor terms after `lines`; memo holds those after each prefix
    computed so far, so schedules that share a prefix share its lines."""
    if lines not in memo:
        memo[lines] = lines_of.apply(_after(memo, lines[:-1], lines_of),
                                     lines[-1])
    return memo[lines]


@functools.lru_cache(maxsize=256)
def _plan(schedules: tuple, dens: tuple) -> tuple:
    """(plan, scale_den) of a schedule set over the kernel denominators
    dens: per schedule (lines, n, scale), n = len(lines), with
    scale / scale_den = weight / (the product of its lines' kernel
    denominators); scale_den is the lcm of those products (den^N for one
    kernel, N the most lines of any schedule) times the lcm of the
    weights' denominators."""
    weights = [Fraction(w) for _, w in schedules]
    q = math.lcm(*(w.denominator for w in weights))
    line_dens = [math.prod(dens[k] for _, _, k in lines)
                 for lines, _ in schedules]
    d = math.lcm(*line_dens)
    plan = tuple((lines, len(lines), w.numerator * (q // w.denominator)
                  * (d // ld))
                 for (lines, _), w, ld in zip(schedules, weights, line_dens))
    return plan, d * q


def _slice_tuples(factors: list, th: int, tl: int) -> list:
    """((h, l), banks) for each tuple of grade slices, one per factor,
    whose orders sum to (h, l) within (th, tl), in itertools.product
    order; a partial tuple already over the truncation is dropped with
    all its completions."""
    tuples = [((0, 0), ())]
    for f in factors:
        tuples = [((h + fh, l + fl), banks + (bank,))
                  for (h, l), banks in tuples
                  for (fh, fl), bank in f.slices.items()
                  if h + fh <= th and l + fl <= tl]
    return tuples


def contract(factors, kernels, schedules) -> PolyFunctional:
    """The contraction engine behind every product, Gamma_K, commutator and
    graph sum.

    factors are the functionals F_0..F_{k-1}, one bank each.  kernels is a
    list of triples (lat, rows, den): the lattice every factor must live
    on, and rows(ys, zs) -> {y: {z: (re, im)}}, the nonzero kernel entries
    at (y, z) for y in ys and z in zs times the positive int den, as ints.
    schedules is a list of (lines, weight): lines is a tuple of lines
    (i, j, k), applied in order, each contracting one field of bank i with
    one field of bank j (a different field of the same bank when i == j)
    through kernels[k], so each line carries its own kernel.  The result is

        sum over schedules of weight * hbar^len(lines) * (lines applied to
        F_0 ... F_{k-1}), the remaining fields of all banks multiplied,

    truncated at the smallest truncation orders of the factors.

    The grade slices (h, l) -> {monomial: (re, im)} of each factor are used
    as stored.  For each tuple of slices, one per bank, whose orders leave
    room under the truncation (built pruned, see _slice_tuples), the lines
    act on whole banks (see _Lines.apply), on a state of tensor terms that
    schedules sharing a prefix share; gradients, smeared rows and Gamma_K
    are computed once per bank object (and kernel) for the whole call, and
    the table of a kernel over a pair of banks is read on first use, only
    by a line that has fields left to contract.  The banks of each final
    term are multiplied pointwise and added at (sum h + len(lines), sum l).
    A schedule is scaled by the lcm of every schedule's product of kernel
    denominators over its own, and that lcm joins the product of the
    factors' denominators (see _plan, built once per schedule set and
    kernel denominators); the result is reduced once.
    """
    factors, kernels = list(factors), list(kernels)
    lat = factors[0].lat
    if any(f.lat is not k_lat for f in factors for k_lat, _, _ in kernels):
        raise DimensionMismatch(
            "a factor and a kernel live on different lattices")
    th = min(f.trunc_h for f in factors)
    tl = min(f.trunc_l for f in factors)
    den = math.prod(f.den for f in factors)

    plan, scale_den = _plan(tuple(schedules),
                            tuple(dk for _, _, dk in kernels))
    lines_of = _Lines(kernels, [f.support() for f in factors])
    out: dict[tuple, dict] = {}
    for (h, l), banks in _slice_tuples(factors, th, tl):
        memo = {(): [banks]}
        for lines, n, scale in plan:
            if h + n > th:
                continue
            acc = out.setdefault((h + n, l), {})
            for term in _after(memo, lines, lines_of):
                add_product(acc, term, scale)
    return PolyFunctional.from_numerators(lat, out, den * scale_den, th, tl)


# The causal line F -> G: bank 0 to bank 1 through kernel 0, Delta.
_CAUSAL = (0, 1, 0)


def peierls_bracket(F: PolyFunctional, G: PolyFunctional,
                    xp: ExactPropagators) -> PolyFunctional:
    """{F, G} = <Delta F^(1), G^(1)> with volume weights; exact coefficients.

    In partial-derivative form the weights cancel: sum_{y,z} dF/dphi[y]
    Delta(y,z) dG/dphi[z], one causal line F -> G, the line every
    commutator starts with.  contract counts the line as an hbar order, so
    the factors enter one order deeper and the bracket is read one order
    down."""
    deeper = [PolyFunctional.from_numerators(f.lat, f.slices, f.den,
                                             f.trunc_h + 1, f.trunc_l)
              for f in (F, G)]
    out = contract(deeper, [xp.numerators("causal")], [((_CAUSAL,), 1)])
    return PolyFunctional.from_numerators(
        F.lat, {(h - 1, l): bank for (h, l), bank in out.slices.items()},
        out.den, min(F.trunc_h, G.trunc_h), min(F.trunc_l, G.trunc_l))


@functools.cache
def _exponential(line: tuple[int, int, int], n_max: int, c=1) -> tuple:
    """(line^n, c^n / n!) for n <= n_max: the schedules of
    e^{c * hbar * line}."""
    return tuple(((line,) * n, Fraction(c) ** n / math.factorial(n))
                 for n in range(n_max + 1))


@functools.cache
def _telescoped(n_max: int) -> tuple:
    """The schedules of sum_{1 <= n <= n_max} (hbar^n / n!) <F^(n),
    (K^(x n) - (K^T)^(x n)) G^(n)> / i for K - K^T = i Delta, with Delta
    kernel 0 and K kernel 1.  The telescoping sum
        K^(x n) - (K^T)^(x n) = sum_{m<n} (K^T)^(x m) (x) (K - K^T) (x)
                                K^(x (n-1-m))
    sends its (K - K^T) slot to the front, as F^(n) and G^(n) are
    symmetric: the causal line F -> G, then m K-lines G -> F (K^T on
    F -> G) and n-1-m K-lines F -> G, each schedule with weight 1/n!.
    All of them share the causal line, so contract runs it once."""
    return tuple(((_CAUSAL,) + ((1, 0, 1),) * m + ((0, 1, 1),) * (n - 1 - m),
                  Fraction(1, math.factorial(n)))
                 for n in range(1, n_max + 1) for m in range(n))


def exp_gamma(F: PolyFunctional, kernel, prefactor: Fraction) -> PolyFunctional:
    """e^{prefactor * hbar * Gamma_K} F, truncated in hbar, where
    Gamma_K F = sum_{y,z} K(y,z) d^2 F / dphi[y] dphi[z]; kernel is K as
    contract takes each of its kernels."""
    return contract([F], [kernel],
                    _exponential((0, 0, 0), F.trunc_h, prefactor))


class QuantProduct:
    """One of the product structures, bound to a lattice's exact kernels."""

    def __init__(self, xp: ExactPropagators, kind: str):
        if kind not in PRODUCT_KINDS:
            raise ValueError(f"unknown product kind {kind!r}")
        self.xp = xp
        self.kind = kind
        self.kernel = xp.numerators(kind)

    def product(self, F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
        n_max = min(F.trunc_h, G.trunc_h)
        return contract([F, G], [self.kernel], _exponential((0, 1, 0), n_max))

    def multi(self, factors) -> PolyFunctional:
        """Iterated product; for the commutative time-ordered kinds this equals
        the n-fold product with all cross contractions."""
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        out = factors[0]
        for f in factors[1:]:
            out = self.product(out, f)
        return out

    def commutator(self, F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
        """[F, G] = F x G - G x F = i hbar {F, G} + O(hbar^2): for the star
        kinds, whose K - K^T is i Delta, i times the schedules of
        _telescoped over the kernels (Delta, K).  Between smeared fields
        the causal line leaves constants, so no K-line finds a field and
        no K table is read.  The time-ordered kernels are symmetric: no
        schedule, and the result is 0."""
        n_max = min(F.trunc_h, G.trunc_h)
        out = contract([F, G], [self.xp.numerators("causal"), self.kernel],
                       _telescoped(n_max) if self.kind in _CAUSAL_KINDS
                       else ())
        return PolyFunctional.from_numerators(  # times i
            out.lat, {hl: {key: (-im, re) for key, (re, im) in bank.items()}
                      for hl, bank in out.slices.items()},
            out.den, out.trunc_h, out.trunc_l)


def alpha_H(xp: ExactPropagators, F: PolyFunctional, sign: int) -> PolyFunctional:
    """Wick-transform e^{sign (hbar/2) Gamma_H}; sign=-1 normal-orders."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return exp_gamma(F, xp.numerators("hadamard"), Fraction(sign, 2))


def star_H_equivalence_check(xp: ExactPropagators, F: PolyFunctional,
                             G: PolyFunctional) -> PolyFunctional:
    """F *_H G - alpha_H(alpha_H^-1 F * alpha_H^-1 G); zero when exact."""
    sH = QuantProduct(xp, "star_H")
    s = QuantProduct(xp, "star")
    lhs = sH.product(F, G)
    rhs = alpha_H(xp, s.product(alpha_H(xp, F, -1), alpha_H(xp, G, -1)), +1)
    return lhs - rhs


def wick_theorem_demo(xp: ExactPropagators, f1, f2) -> dict:
    """Expand (integral of phi^2 f1) *_H (integral of phi^2 f2), at the
    default series truncation, and certify the three-term structure with
    normal-ordered binding coefficients (1, 4, 2) on the (no, one,
    two)-contraction terms."""
    lat = xp.lat
    F = local_power(lat, f1, 2)
    G = local_power(lat, f2, 2)
    prod = QuantProduct(xp, "star_H").product(F, G)

    w2 = lat.volume_weight ** 2
    _, rows, dk = xp.numerators("star_H")
    wightman = rows(f1, f2)
    one = {}  # order hbar: sites -> coefficient
    two = ExactComplex(0)  # order hbar^2, the constant
    for s1, v1 in f1.items():
        for s2, v2 in f2.items():
            wp = ExactComplex(*(Fraction(v, dk) for v in
                                wightman.get(s1, {}).get(s2, (0, 0))))
            base = ExactComplex.lift(v1) * ExactComplex.lift(v2) * w2
            key = tuple(sorted((s1, s2)))
            one[key] = one.get(key, ExactComplex(0)) + base * wp * 4
            two = two + base * wp * wp * 2
    contracted = {key: FormalSeries({(1, 0): c}) for key, c in one.items()}
    contracted[()] = FormalSeries({(2, 0): two})
    expected = pointwise_product(F, G) + PolyFunctional(lat, contracted)

    rows = [
        {"contractions": 0, "hbar_power": 0, "binding_coefficient": 1,
         "structure": "(phi^2 f1)(phi^2 f2)"},
        {"contractions": 1, "hbar_power": 1, "binding_coefficient": 4,
         "structure": "(phi f1) W (phi f2)"},
        {"contractions": 2, "hbar_power": 2, "binding_coefficient": 2,
         "structure": "f1 W^2 f2"},
    ]
    return {"product": prod, "expected": expected,
            "match": prod == expected, "terms": rows}


class BogoliubovMap:
    """R_V, its inverse and F *_V G in the interaction picture (Dyson;
    Brunetti-Fredenhagen): R F = S(V)^-1 * (S(V) x_T F) with no S-matrix
    built.  R is linear; R m is built once per map for each monomial m and
    the vertex sites it needs, those in its closed past cone (the others
    are nowhere earlier than those and m, so their S-matrix factor
    cancels).  Delta vanishes on a time row, so there the Feynman kernel is
    the *_H one, and S(V) = S(V_last) * ... * S(V_first) with S(V_t) =
    exp_*(V_t), V_t the terms of V on row t.  For m on one row,
    S(V) x_T m = m * S(V), so R m = S^-1 * m * S is the kick
    e^{-ad V_first} ... e^{-ad V_last} m, the latest row first, each series
    cut at the lambda truncation.  Any other m is A B, A its fields on its
    latest row; A is nowhere earlier than B, so R(A x_T B) = R A * R B
    (Bogoliubov causality) and R m = R A * R B - R(A x_T B - A B), the
    bracket of lower degree.  R - 1 raises the lambda order, so R^-1 X is
    solved grade by grade: Y_l = X_l - [(R - 1) Y_<l]_l.

    F *_V G = R_D^-1(R_D F * R_D G) needs only the terms of V on D, the
    vertex sites in the closed future cone of supp F and the closed past
    cone of supp G: one off the past of G is nowhere earlier than D and G,
    one in it but off the future of F nowhere later than D and F, and both
    cancel; an empty D leaves F * G, cut to V's orders, one product.  V
    must carry the coupling, which makes every series finite per order, and
    each of its terms must sit on one site, its place in cones and rows.
    """

    def __init__(self, xp: ExactPropagators, V: PolyFunctional):
        if any(l == 0 for (_, l) in V.slices):
            raise NoLambdaGrading("the interaction must carry the coupling")
        for key in (key for bank in V.slices.values() for key in bank):
            if len(set(key)) != 1:
                raise NonLocalInteraction(
                    f"interaction term on sites {key} is not on one site")
        self.V, self.sp = V, QuantProduct(xp, "star_H")
        self._feynman = xp.numerators("timeordered_F")
        self._sites = frozenset(V.support())
        self._R: dict[tuple, PolyFunctional] = {}  # (sites, monomial) -> R

    def _past(self, sites: frozenset, of) -> frozenset:
        """The vertex sites of `sites` in the closed past cone of `of`."""
        lat = self.V.lat
        return frozenset(s for s in sites
                         if any(lat.in_past_cone(s, y) for y in of))

    def _monomial(self, m: tuple) -> PolyFunctional:
        V = self.V
        return PolyFunctional.from_numerators(V.lat, {(0, 0): {m: (1, 0)}},
                                              1, V.trunc_h, V.trunc_l)

    def _kick(self, sites: frozenset, X: PolyFunctional) -> PolyFunctional:
        """e^{-ad V_t} X under *_H, V_t the terms of V on `sites`."""
        V = self.V
        out = term = X
        V_t = PolyFunctional.from_numerators(V.lat, {
            hl: {k: c for k, c in bank.items() if k[0] in sites}
            for hl, bank in V.slices.items()}, V.den, V.trunc_h, V.trunc_l)
        for n in range(1, V.trunc_l + 1):
            term = self.sp.commutator(V_t, term) * Fraction(-1, n)
            out = out + term
        return out

    def _R_monomial(self, sites: frozenset, m: tuple) -> PolyFunctional:
        """R of the monomial m (a sorted site tuple) for the terms of V on
        those of `sites` in the closed past cone of m, at V's orders."""
        sites = self._past(sites, m)
        if (sites, m) not in self._R:
            n_x = self.V.lat.n_x
            top = [y // n_x for y in m].index(m[-1] // n_x) if m else 0
            if top == 0 or not sites:  # one row: kicks, latest row first
                X = self._monomial(m)
                for t in sorted({s // n_x for s in sites}, reverse=True):
                    X = self._kick({s for s in sites if s // n_x == t}, X)
            else:  # m = A B, A on the latest row
                A, B = m[top:], m[:top]
                bracket = contract(  # A x_T B - A B
                    [self._monomial(A), self._monomial(B)], [self._feynman],
                    _exponential((0, 1, 0), self.V.trunc_h)[1:])
                X = self.sp.product(self._R_monomial(sites, A),
                                    self._R_monomial(sites, B)) \
                    - self._apply(sites, bracket)
            self._R[sites, m] = X
        return self._R[sites, m]

    def _apply(self, sites: frozenset, F: PolyFunctional) -> PolyFunctional:
        """R F for the terms of V on `sites`: each monomial's R, times its
        coefficient and orders, summed over one denominator."""
        V = self.V
        th, tl = min(F.trunc_h, V.trunc_h), min(F.trunc_l, V.trunc_l)
        parts = [(h, l, c, self._R_monomial(sites, m))
                 for (h, l), bank in F.slices.items() for m, c in bank.items()]
        den = math.lcm(*(P.den for *_, P in parts))
        out: dict[tuple, dict] = {}
        for h, l, c, P in parts:
            for (h2, l2), bank in P.slices.items():
                if h + h2 <= th and l + l2 <= tl:
                    add_product(out.setdefault((h + h2, l + l2), {}),
                                ({(): c}, bank), den // P.den)
        return PolyFunctional.from_numerators(V.lat, out, F.den * den, th, tl)

    def _inverse(self, sites: frozenset, X: PolyFunctional) -> PolyFunctional:
        """R^-1 X for the terms of V on `sites`: Y <- Y - (R - 1) Y_l for
        l = 0, 1, ... solves grade l of Y, as (R - 1) Y_l lies above it."""
        Y = X
        for l in range(min(X.trunc_l, self.V.trunc_l) + 1):
            Y_l = PolyFunctional.from_numerators(Y.lat, {
                hl: bank for hl, bank in Y.slices.items() if hl[1] == l},
                Y.den, Y.trunc_h, Y.trunc_l)
            Y = Y + Y_l - self._apply(sites, Y_l)
        return Y

    def R(self, F: PolyFunctional) -> PolyFunctional:
        return self._apply(self._sites, F)

    def Rinv(self, F: PolyFunctional) -> PolyFunctional:
        return self._inverse(self._sites, F)

    def _diamond(self, F: PolyFunctional, G: PolyFunctional) -> frozenset:
        """The vertex sites in the closed future cone of supp F and the
        closed past cone of supp G."""
        lat, supp = self.V.lat, F.support()
        return frozenset(s for s in self._past(self._sites, G.support())
                         if any(lat.in_past_cone(y, s) for y in supp))

    def star_interacting(self, F: PolyFunctional,
                         G: PolyFunctional) -> PolyFunctional:
        D = self._diamond(F, G)
        return self._inverse(D, self.sp.product(self._apply(D, F),
                                                self._apply(D, G)))


def causally_later(lat, F: PolyFunctional, G: PolyFunctional) -> bool:
    """True when no point of supp F lies in the closed past cone of a point
    of supp G, i.e. F is nowhere earlier than G."""
    for y in F.support():
        for z in G.support():
            if lat.in_past_cone(y, z):
                return False
    return True


def causal_factorization_check(xp: ExactPropagators, V1: PolyFunctional,
                               V2: PolyFunctional) -> PolyFunctional:
    """S(V1 + V2) - S(V1) * S(V2) for V1 nowhere earlier than V2.

    Returns the residual functional; it vanishes identically whenever the
    support condition holds, because the time-ordered kernel coincides with
    the Wick kernel off the past cone.
    """
    if not causally_later(xp.lat, V1, V2):
        raise ValueError("supp V1 intersects the past of supp V2")
    return s_matrix(xp, V1 + V2) - QuantProduct(xp, "star_H").product(
        s_matrix(xp, V1), s_matrix(xp, V2))


def s_matrix(xp: ExactPropagators, V: PolyFunctional) -> PolyFunctional:
    """Formal S-matrix sum_n V^{x_T n} / n! in the Feynman time-ordered
    product, to the coupling truncation of V."""
    if any(l == 0 for (_, l) in V.slices):
        raise NoLambdaGrading("S-matrix argument must carry the coupling")
    product = QuantProduct(xp, "timeordered_F").product
    out = PolyFunctional.constant(V.lat, 1, V.trunc_h, V.trunc_l)
    term = out
    for n in range(1, V.trunc_l + 1):
        term = product(term, V) * Fraction(1, n)
        if term.is_zero():
            break
        out = out + term
    return out


def multilocal_injectivity_check(basis, degree: int) -> dict:
    """Rank of the multiplication map on degree-`degree` symmetric products of
    the basis functionals (degree >= 1): the exact rank of the products'
    hbar^0 lambda^0 slices, one row of Gaussian-integer numerators per
    product over the union of their monomials.  Each row leaves out its
    product's denominator, a nonzero scale that keeps the rank.

    Expected rank (injectivity) is the multiset count C(n+k-1, k)."""
    basis = list(basis)
    if any(() in bank for b in basis for bank in b.slices.values()):
        raise ValueError("basis functionals must vanish at phi = 0")
    banks = []
    for combo in itertools.combinations_with_replacement(basis, degree):
        P = combo[0]
        for G in combo[1:]:
            P = pointwise_product(P, G)
        banks.append(P.slices.get((0, 0), {}))
    monomials = sorted(set().union(*banks))
    rank = _exact_rank([[ExactComplex(*bank.get(k, (0, 0)))
                         for k in monomials] for bank in banks])
    expected = math.comb(len(basis) + degree - 1, degree)
    return {"n_basis": len(basis), "degree": degree, "rank": rank,
            "expected": expected, "injective": rank == expected,
            "n_monomials": len(monomials)}


def _exact_rank(rows: list[list[ExactComplex]]) -> int:
    """Gaussian elimination over the exact rational-complex field."""
    mat = [list(r) for r in rows]
    rank = 0
    n_cols = len(mat[0]) if mat else 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
