"""Deformation quantization of lattice functionals.

Every product here is one exponential-contraction formula,

    F x_K G = sum_n (hbar^n / n!) <F^(n), K^(x n) G^(n)>,

differing only in the contraction kernel K: (i/2)Delta for the star product,
the positive-frequency kernel for the Wick-ordered star product, i*DiracD and
Feynman for the two time-ordered products, anti-Feynman for the
anti-time-ordered one.  The Wick transform alpha_H and the time-ordering
operator are the same formula with both ends of each line in one functional
(e^{(hbar/2) Gamma_K}), and the graph expansion of graphs.py is the same
formula with n functionals and lines between any two of them.  The formal
S-matrix is the exponential of the vertex in a time-ordered product, and the
Bogoliubov map R F = Sbar(-V) * (S(V) x_T F) takes the star-inverse of S(V)
as Sbar(-V), the anti-time-ordered exponential of -V.

All of them are thin callers of `contract`, the single contraction engine.
It works on Gaussian-integer numerators over shared denominators: each input
functional's coefficients are lifted once to int pairs over the lcm of its
denominators, the kernel comes as int pairs over one declared denominator
(a power of two per lattice, ExactPropagators.numerators) and is tabulated
once per call, every contraction order accumulates in ints, and the kernel
denominator and the schedule weights (1/n!, 1/prod l_ij!) fold into one
final denominator.  Fractions are normalised once per output coefficient,
so the results, ExactComplex coefficients in FormalSeries in PolyFunctionals,
are exactly those of rational arithmetic, and identities (commutation
relations, equivalences, factorisation) are checked with equality.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .exact import ExactComplex
from .functionals import PolyFunctional, pointwise_product, local_power
from .lattice import ExactPropagators
from .series import FormalSeries

PRODUCT_KINDS = ("star", "star_H", "timeordered_D", "timeordered_F",
                 "antitimeordered_F")


class QuantizationError(Exception):
    pass


class NoLambdaGrading(QuantizationError):
    """Interaction term must carry at least one power of the coupling."""


class RankDeficient(QuantizationError):
    """Probe family too small to certify the rank; enlarge the probe set."""


def _remove_one(key: tuple, site: int) -> tuple:
    i = key.index(site)
    return key[:i] + key[i + 1:]


def _common_denominator(values) -> int:
    d = 1
    for c in values:
        d = math.lcm(d, c.re.denominator, c.im.denominator)
    return d


def _numerators(c: ExactComplex, d: int) -> tuple[int, int]:
    """(re, im) of c * d as ints; d must be a multiple of both denominators."""
    return (c.re.numerator * (d // c.re.denominator),
            c.im.numerator * (d // c.im.denominator))


def _mul_add(acc: dict, s: dict, t: dict, th: int, tl: int) -> dict:
    """acc += s * t for series of int pairs {(h, l): (re, im)}, truncated at
    (th, tl); returns acc."""
    for (h1, l1), (a, b) in s.items():
        for (h2, l2), (c, d) in t.items():
            hl = (h1 + h2, l1 + l2)
            if hl[0] > th or hl[1] > tl:
                continue
            re, im = a * c - b * d, a * d + b * c
            if hl in acc:
                r0, i0 = acc[hl]
                acc[hl] = (r0 + re, i0 + im)
            else:
                acc[hl] = (re, im)
    return acc


def _contract_line(states: dict, i: int, j: int, table: dict) -> dict:
    """Apply one line between banks i and j (i == j: within bank i).

    states maps a tuple of bank monomials to its int-pair weight; every way
    of picking one field y of bank i and one other field z of bank j
    contributes weight * K(y, z) with the multiplicities of y and z."""
    nxt: dict[tuple, tuple[int, int]] = {}
    for keys, (wr, wi) in states.items():
        ki = keys[i]
        for y in set(ki):
            row = table.get(y)
            if row is None:
                continue
            m0 = ki.count(y)
            kir = _remove_one(ki, y)
            kj = kir if i == j else keys[j]
            for z in set(kj):
                kv = row.get(z)
                if kv is None:
                    continue
                m = m0 * kj.count(z)
                new = list(keys)
                new[i] = kir
                new[j] = _remove_one(kj, z)
                new = tuple(new)
                kr, ki_ = kv
                re, im = m * (wr * kr - wi * ki_), m * (wr * ki_ + wi * kr)
                if new in nxt:
                    r0, i0 = nxt[new]
                    nxt[new] = (r0 + re, i0 + im)
                else:
                    nxt[new] = (re, im)
    return nxt


def _after(memo: dict, lines: tuple, table: dict) -> dict:
    """States after `lines`; memo holds those after each prefix computed so
    far, so schedules that share a prefix share its contractions."""
    if lines not in memo:
        memo[lines] = _contract_line(_after(memo, lines[:-1], table),
                                     *lines[-1], table)
    return memo[lines]


def contract(factors, kernel, schedules) -> PolyFunctional:
    """The contraction engine behind every product, Gamma_K and graph sum.

    factors are the functionals F_0..F_{k-1}, one bank each.  schedules is a
    list of (lines, weight): lines is a tuple of bank pairs (i, j), applied
    in order, each contracting one field of bank i with one field of bank j
    (a different field of the same bank when i == j).  kernel is a pair
    (entry, den): entry(y, z) -> (re, im) is the kernel at (y, z) times the
    positive int den, as ints.  The result is

        sum over schedules of weight * hbar^len(lines) * (lines applied to
        F_0 ... F_{k-1}), the remaining fields of all banks multiplied,

    truncated at the smallest truncation orders of the factors.  A schedule
    of n lines is scaled by den^(N - n), N the most lines of any schedule,
    and den^N joins the final denominator.
    """
    factors = list(factors)
    th = min(f.trunc_h for f in factors)
    tl = min(f.trunc_l for f in factors)

    den = 1
    banks = []
    for f in factors:
        d = _common_denominator(c for s in f.terms.values()
                                for c in s.coeff.values())
        banks.append([(key, {hl: _numerators(c, d)
                             for hl, c in s.coeff.items()})
                      for key, s in f.terms.items()])
        den *= d

    entry, dk = kernel
    table: dict[int, dict] = {}
    for i, j in {line for lines, _ in schedules for line in lines}:
        for y in factors[i].support():
            row = table.setdefault(y, {})
            for z in factors[j].support():
                kv = entry(y, z)
                if kv[0] or kv[1]:
                    row[z] = kv

    n_max = max((len(lines) for lines, _ in schedules), default=0)
    q = math.lcm(*(Fraction(w).denominator for _, w in schedules))
    plan = [(lines, len(lines), Fraction(w).numerator
             * (q // Fraction(w).denominator) * dk ** (n_max - len(lines)))
            for lines, w in schedules]
    den *= dk ** n_max * q

    out: dict[tuple, dict] = {}
    for combo in itertools.product(*banks):
        keys = tuple(k for k, _ in combo)
        series = combo[0][1]
        for _, s in combo[1:]:
            series = _mul_add({}, series, s, th, tl)
        if not series:
            continue
        room = th - min(h for h, _ in series)
        memo = {(): {keys: (1, 0)}}
        for lines, n, scale in plan:
            if n > room or not scale:
                continue
            for rest, (wr, wi) in _after(memo, lines, table).items():
                key = tuple(sorted(itertools.chain.from_iterable(rest)))
                _mul_add(out.setdefault(key, {}), series,
                         {(n, 0): (wr * scale, wi * scale)}, th, tl)

    terms = {}
    for key, acc in out.items():
        coeff = {hl: ExactComplex(Fraction(re, den), Fraction(im, den))
                 for hl, (re, im) in acc.items() if re or im}
        if coeff:
            terms[key] = FormalSeries(coeff, th, tl)
    return PolyFunctional(factors[0].lat, terms, th, tl)


def _exponential(line: tuple[int, int], n_max: int, c=1) -> list:
    """(line^n, c^n / n!) for n <= n_max: the schedules of
    e^{c * hbar * line}."""
    return [((line,) * n, Fraction(c) ** n / math.factorial(n))
            for n in range(n_max + 1)]


def exp_gamma(F: PolyFunctional, kernel, prefactor: Fraction) -> PolyFunctional:
    """e^{prefactor * hbar * Gamma_K} F, truncated in hbar, where
    Gamma_K F = sum_{y,z} K(y,z) d^2 F / dphi[y] dphi[z]; kernel is K as
    contract takes it."""
    return contract([F], kernel, _exponential((0, 0), F.trunc_h, prefactor))


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
        return contract([F, G], self.kernel, _exponential((0, 1), n_max))

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
        """F x G - G x F in one contraction pass: the uncontracted terms
        cancel, so only lines F -> G (weight 1/n!) and G -> F (-1/n!) run."""
        n_max = min(F.trunc_h, G.trunc_h)
        return contract(
            [F, G], self.kernel,
            _exponential((0, 1), n_max)[1:]
            + [(lines, -w) for lines, w
               in _exponential((1, 0), n_max)[1:]])


def alpha_H(xp: ExactPropagators, F: PolyFunctional, sign: int = 1) -> PolyFunctional:
    """Wick-transform e^{sign (hbar/2) Gamma_H}; sign=-1 normal-orders."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return exp_gamma(F, xp.numerators("hadamard"), Fraction(sign, 2))


def time_order_op(xp: ExactPropagators, F: PolyFunctional, sign: int = 1,
                  kind: str = "timeordered_D") -> PolyFunctional:
    """The time-ordering operator e^{sign (hbar/2) Gamma_K} for K the
    time-ordered kernel; conjugating the pointwise product by it gives the
    corresponding time-ordered product."""
    if kind not in ("timeordered_D", "timeordered_F"):
        raise ValueError("kind must be a time-ordered kernel")
    return exp_gamma(F, xp.numerators(kind), Fraction(sign, 2))


def star_H_equivalence_check(xp: ExactPropagators, F: PolyFunctional,
                             G: PolyFunctional) -> PolyFunctional:
    """F *_H G - alpha_H(alpha_H^-1 F * alpha_H^-1 G); zero when exact."""
    sH = QuantProduct(xp, "star_H")
    s = QuantProduct(xp, "star")
    lhs = sH.product(F, G)
    rhs = alpha_H(xp, s.product(alpha_H(xp, F, -1), alpha_H(xp, G, -1)), +1)
    return lhs - rhs


def wick_theorem_demo(xp: ExactPropagators, f1, f2,
                      trunc_h: int = 2, trunc_l: int = 2) -> dict:
    """Expand (integral of phi^2 f1) *_H (integral of phi^2 f2) and certify
    the three-term structure with normal-ordered binding coefficients
    (1, 4, 2) on the (no, one, two)-contraction terms."""
    lat = xp.lat
    F = local_power(lat, f1, 2, trunc_h, trunc_l)
    G = local_power(lat, f2, 2, trunc_h, trunc_l)
    prod = QuantProduct(xp, "star_H").product(F, G)

    w2 = lat.volume_weight ** 2
    items1 = f1.items() if isinstance(f1, dict) else enumerate(f1)
    items1 = [(s, v) for s, v in items1 if v]
    items2 = f2.items() if isinstance(f2, dict) else enumerate(f2)
    items2 = [(s, v) for s, v in items2 if v]

    wightman = xp.kernel("star_H")
    one_terms: dict[tuple, FormalSeries] = {}
    two_terms: dict[tuple, FormalSeries] = {}
    for s1, v1 in items1:
        for s2, v2 in items2:
            wp = wightman(s1, s2)
            base = ExactComplex.lift(v1) * ExactComplex.lift(v2) * w2
            key = tuple(sorted((s1, s2)))
            c1 = FormalSeries({(1, 0): base * wp * 4}, trunc_h, trunc_l)
            one_terms[key] = one_terms.get(
                key, FormalSeries.zero(trunc_h, trunc_l)) + c1
            c2 = FormalSeries({(2, 0): base * wp * wp * 2}, trunc_h, trunc_l)
            two_terms[()] = two_terms.get(
                (), FormalSeries.zero(trunc_h, trunc_l)) + c2
    expected = (pointwise_product(F, G)
                + PolyFunctional(lat, one_terms, trunc_h, trunc_l)
                + PolyFunctional(lat, two_terms, trunc_h, trunc_l))

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
    """R_V and its inverse, built from the formal S-matrix S(V).

    R F = Sbar(-V) * (S(V) x_T F)
    R^-1 F = S(-V) x_T (S(V) * F)

    S(-V) is the x_T-inverse of S(V), and Sbar(-V), the S-matrix of -V
    with the anti-Feynman kernel, is its star-inverse: off equal times the
    Feynman kernel is the Wightman kernel of the later site against the
    earlier one and the anti-Feynman kernel the reverse, so the
    largest-time argument gives S(V) * Sbar(-V) = 1 order by order.  The
    interaction must carry the formal coupling, which makes every series
    finite per order.
    """

    def __init__(self, xp: ExactPropagators, V: PolyFunctional):
        self.tp = QuantProduct(xp, "timeordered_F")
        self.sp = QuantProduct(xp, "star_H")
        self._S = s_matrix(xp, V)
        self._S_neg = s_matrix(xp, V * (-1))
        self._S_star_inv = s_matrix(xp, V * (-1), "antitimeordered_F")

    def R(self, F: PolyFunctional) -> PolyFunctional:
        return self.sp.product(self._S_star_inv, self.tp.product(self._S, F))

    def Rinv(self, F: PolyFunctional) -> PolyFunctional:
        return self.tp.product(self._S_neg, self.sp.product(self._S, F))

    def star_interacting(self, F: PolyFunctional,
                         G: PolyFunctional) -> PolyFunctional:
        return self.Rinv(self.sp.product(self.R(F), self.R(G)))


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


def s_matrix(xp: ExactPropagators, V: PolyFunctional,
             kind: str = "timeordered_F") -> PolyFunctional:
    """Formal S-matrix sum_n V^{x_K n} / n! in the product of kernel `kind`
    (timeordered_F; antitimeordered_F for Sbar), to the coupling truncation
    of V."""
    for c in V.terms.values():
        if any(l == 0 for (_, l) in c.coeff):
            raise NoLambdaGrading("S-matrix argument must carry the coupling")
    product = QuantProduct(xp, kind).product
    out = PolyFunctional.unit(V.lat, V.trunc_h, V.trunc_l)
    term = out
    for n in range(1, V.trunc_l + 1):
        term = product(term, V) * Fraction(1, n)
        if term.is_zero():
            break
        out = out + term
    return out


def multilocal_injectivity_check(basis, degree: int, n_probes: int | None = None,
                                 seed: int = 7, max_enlarge: int = 3) -> dict:
    """Rank of the multiplication map on degree-`degree` symmetric products of
    the basis functionals, certified on exact rational probe configurations.

    Expected rank (injectivity) is the multiset count C(n+k-1, k)."""
    basis = list(basis)
    n = len(basis)
    expected = math.comb(n + degree - 1, degree) if n else 0
    if n == 0:
        return {"n_basis": 0, "degree": degree, "rank": 0,
                "expected": 0, "injective": True}
    for b in basis:
        if () in b.terms:
            raise ValueError("basis functionals must vanish at phi = 0")
    lat = basis[0].lat
    products = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        P = basis[combo[0]]
        for i in combo[1:]:
            P = pointwise_product(P, basis[i])
        products.append(P)
    support = sorted(set().union(*[b.support() for b in basis]))

    rng = random.Random(seed)
    m = n_probes or 2 * expected + 4
    for _ in range(max_enlarge):
        probes = []
        for _ in range(m):
            phi = {}
            for s in support:
                phi[s] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            probes.append(phi)
        rows = [[P.evaluate(phi).coefficient(0, 0) for phi in probes]
                for P in products]
        rank = _exact_rank(rows)
        if rank == expected:
            return {"n_basis": n, "degree": degree, "rank": rank,
                    "expected": expected, "injective": True,
                    "n_probes": m}
        m *= 2
    if rank < expected:
        raise RankDeficient(
            f"rank {rank} < expected {expected} with {m // 2} probes")
    return {"n_basis": n, "degree": degree, "rank": rank,
            "expected": expected, "injective": rank == expected, "n_probes": m}


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
