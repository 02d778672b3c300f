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
It follows the formula: a line contracts, through the kernel, functional
derivatives of two whole factors (or two of one).  Each factor is split
once into grade slices, one polynomial per (hbar, lambda) order, held as
Gaussian-integer numerators over the lcm of its denominators; the kernel
comes as int pairs over one declared denominator (a power of two per
lattice, ExactPropagators.numerators), tabulated once per call; between
lines the state is a list of tensor terms, one polynomial per factor.  The
kernel denominator and the schedule weights (1/n!, 1/prod l_ij!) fold into
one final denominator and Fractions are normalised once per output
coefficient, so the results, ExactComplex coefficients in FormalSeries in
PolyFunctionals, are exactly those of rational arithmetic, and identities
(commutation relations, equivalences, factorisation) are checked with ==.

The checks take no knobs: the Wick demo runs at the default series
truncation, and the injectivity check draws its rational probes from the
fixed seed PROBE_SEED, enlarging the set at most PROBE_ROUNDS times.
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


def _add(acc: dict, key, re: int, im: int) -> None:
    if key in acc:
        r0, i0 = acc[key]
        acc[key] = (r0 + re, i0 + im)
    else:
        acc[key] = (re, im)


def _partial(bank: dict, y: int) -> dict:
    """dT/dphi[y] of a bank T = {monomial: (re, im)}; no two keys merge."""
    out = {}
    for key, (re, im) in bank.items():
        m = key.count(y)
        if m:
            out[_remove_one(key, y)] = (m * re, m * im)
    return out


def _smeared(bank: dict, row: dict, out: dict) -> dict:
    """out += sum_z K(y, z) dT/dphi[z] for the kernel row {z: K(y, z)};
    returns out."""
    for key, (re, im) in bank.items():
        for z in set(key):
            kv = row.get(z)
            if kv is not None:
                m = key.count(z)
                kr, ki = kv
                _add(out, _remove_one(key, z), m * (re * kr - im * ki),
                     m * (re * ki + im * kr))
    return out


def _line(terms: list, i: int, j: int, table: dict) -> list:
    """Apply the line (i, j) to tensor terms, each a tuple of banks.
    i != j: (T_i, T_j) -> d_y T_i (x) sum_z K(y, z) d_z T_j, one term per
    site y of T_i with a kernel row.  i == j: T_i -> Gamma_K T_i =
    sum_{y,z} K(y, z) d_z d_y T_i, one field y, then a different field z."""
    out = []
    for banks in terms:
        sites = {s for key in banks[i] for s in key} & table.keys()
        if i == j:
            gamma: dict = {}
            for y in sites:
                _smeared(_partial(banks[i], y), table[y], gamma)
            if gamma:
                out.append(banks[:i] + (gamma,) + banks[i + 1:])
            continue
        for y in sites:
            smeared = _smeared(banks[j], table[y], {})
            if smeared:
                new = list(banks)
                new[i], new[j] = _partial(banks[i], y), smeared
                out.append(tuple(new))
    return out


def _after(memo: dict, lines: tuple, table: dict) -> list:
    """Tensor terms after `lines`; memo holds those after each prefix
    computed so far, so schedules that share a prefix share its lines."""
    if lines not in memo:
        memo[lines] = _line(_after(memo, lines[:-1], table), *lines[-1],
                            table)
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

    truncated at the smallest truncation orders of the factors.

    Each factor is split once into grade slices (h, l) -> {monomial:
    (re, im)}.  For each tuple of slices, one per bank, whose orders leave
    room under the truncation, the lines act on whole banks (see _line),
    on a state of tensor terms that schedules sharing a prefix share.  The
    banks of each final term are multiplied pointwise and added at
    (sum h + len(lines), sum l).  A schedule of n lines is scaled by
    den^(N - n), N the most lines of any schedule, and den^N joins the
    final denominator.
    """
    factors = list(factors)
    th = min(f.trunc_h for f in factors)
    tl = min(f.trunc_l for f in factors)

    den = 1
    slices = []
    for f in factors:
        d = _common_denominator(c for s in f.terms.values()
                                for c in s.coeff.values())
        grades: dict[tuple, dict] = {}
        for key, s in f.terms.items():
            for hl, c in s.coeff.items():
                grades.setdefault(hl, {})[key] = _numerators(c, d)
        slices.append(list(grades.items()))
        den *= d

    entry, dk = kernel
    supports = [f.support() for f in factors]
    table: dict[int, dict] = {}
    for i, j in {line for lines, _ in schedules for line in lines}:
        for y in supports[i]:
            row = table.setdefault(y, {})
            for z in supports[j]:
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
    for combo in itertools.product(*slices):
        h, l = map(sum, zip(*(hl for hl, _ in combo)))
        if h > th or l > tl:
            continue
        memo = {(): [tuple(bank for _, bank in combo)]}
        for lines, n, scale in plan:
            if h + n > th or not scale:
                continue
            for banks in _after(memo, lines, table):
                prod = list(banks[0].items())
                for bank in banks[1:]:
                    prod = [(k1 + k2, (a * c - b * e, a * e + b * c))
                            for k1, (a, b) in prod
                            for k2, (c, e) in bank.items()]
                for key, (re, im) in prod:
                    _add(out.setdefault(tuple(sorted(key)), {}), (h + n, l),
                         re * scale, im * scale)

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


def time_order_op(xp: ExactPropagators, F: PolyFunctional, sign: int,
                  kind: str) -> PolyFunctional:
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
            c1 = FormalSeries({(1, 0): base * wp * 4})
            one_terms[key] = one_terms.get(key, FormalSeries.zero()) + c1
            c2 = FormalSeries({(2, 0): base * wp * wp * 2})
            two_terms[()] = two_terms.get((), FormalSeries.zero()) + c2
    expected = (pointwise_product(F, G) + PolyFunctional(lat, one_terms)
                + PolyFunctional(lat, two_terms))

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


PROBE_SEED = 7  # seeds the rational probe configurations
PROBE_ROUNDS = 3  # probe sets tried, each twice the last


def multilocal_injectivity_check(basis, degree: int) -> dict:
    """Rank of the multiplication map on degree-`degree` symmetric products of
    the basis functionals, certified on exact rational probe configurations:
    2 r + 4 probes for an expected rank r, doubled up to PROBE_ROUNDS times.

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
    products = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        P = basis[combo[0]]
        for i in combo[1:]:
            P = pointwise_product(P, basis[i])
        products.append(P)
    support = sorted(set().union(*[b.support() for b in basis]))

    rng = random.Random(PROBE_SEED)
    m = 2 * expected + 4
    for _ in range(PROBE_ROUNDS):
        probes = [{s: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for s in support} for _ in range(m)]
        rows = [[P.evaluate(phi).coefficient(0, 0) for phi in probes]
                for P in products]
        rank = _exact_rank(rows)
        if rank == expected:
            return {"n_basis": n, "degree": degree, "rank": rank,
                    "expected": expected, "injective": True,
                    "n_probes": m}
        m *= 2
    # the products number `expected`, so their rank is at most that
    raise RankDeficient(
        f"rank {rank} < expected {expected} with {m // 2} probes")


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
