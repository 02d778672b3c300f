"""The contraction engine against a naive reference.

Every product, alpha_H and the graph sum run through one primitive
(`quantization.contract`), so comparing the graph route with the binary
product (AC06) cannot see a bug in that primitive.  The reference below
enumerates every ordered choice of field slots on plain Fraction pairs,
with no lifting, no shared denominators and no merging of states; the
library routes are compared with it on random functionals with repeated
sites and non-dyadic coefficients.  The Peierls bracket has a second
reference, the site-pair loop over partial derivatives that it replaced.
"""
import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from paqft import quantization
from paqft.exact import ExactComplex
from paqft.functionals import (PolyFunctional, interaction_vertex,
                               pointwise_product)
from paqft.graphs import graph_expand_Tn
from paqft.quantization import (QuantProduct, alpha_H, contract,
                                peierls_bracket, s_matrix)
from paqft.series import FormalSeries

from conftest import kernel_view


# ------------------------------------------------------------- reference

def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def naive(factors, lines, weight, th, tl, out):
    """out += weight * hbar^len(lines) * (lines applied to the product of
    factors).  factors: per bank a dict sites -> {(h, l): (re, im)};
    lines: (i, j, kernel), kernel(y, z) -> (re, im); out: sites ->
    {(h, l): (re, im)}."""
    def walk(banks, k, value):
        if k == len(lines):
            yield tuple(sorted(itertools.chain(*banks))), value
            return
        i, j, kernel = lines[k]
        for p, y in enumerate(banks[i]):
            rest = banks[i][:p] + banks[i][p + 1:]
            bj = rest if i == j else banks[j]
            for q, z in enumerate(bj):
                new = list(banks)
                new[i] = rest
                new[j] = bj[:q] + bj[q + 1:]
                yield from walk(new, k + 1, cmul(value, kernel(y, z)))

    for combo in itertools.product(*(f.items() for f in factors)):
        coeff = {(0, 0): (Fraction(1), Fraction(0))}
        for _, series in combo:
            prod = {}
            for ((h1, l1), a), ((h2, l2), b) in itertools.product(
                    coeff.items(), series.items()):
                r0, i0 = prod.get((h1 + h2, l1 + l2), (0, 0))
                c = cmul(a, b)
                prod[h1 + h2, l1 + l2] = (r0 + c[0], i0 + c[1])
            coeff = prod
        for key, value in walk([list(k) for k, _ in combo], 0, (weight, 0)):
            acc = out.setdefault(key, {})
            for (h, l), c in coeff.items():
                h += len(lines)
                if h <= th and l <= tl:
                    r0, i0 = acc.get((h, l), (0, 0))
                    c = cmul(c, value)
                    acc[h, l] = (r0 + c[0], i0 + c[1])
    return out


def nonzero(out):
    """Drop zero coefficients and empty terms."""
    clean = {}
    for key, acc in out.items():
        acc = {hl: c for hl, c in acc.items() if c != (0, 0)}
        if acc:
            clean[key] = acc
    return clean


def plain(F):
    """A PolyFunctional as sites -> {(h, l): (re, im)}."""
    return {key: {hl: (c.re, c.im) for hl, c in s.coeff.items()}
            for key, s in F.terms.items()}


def functional(lat, terms, th, tl):
    return PolyFunctional(lat, {
        key: FormalSeries({hl: ExactComplex(*c) for hl, c in s.items()},
                          th, tl)
        for key, s in terms.items()}, th, tl)


def pair_kernel(kernel):
    def k(y, z):
        v = kernel(y, z)
        return (v.re, v.im)
    return k


# ------------------------------------------------------------ strategies

# non-dyadic on purpose: the lattice kernels only have dyadic entries
RATIONALS = st.builds(Fraction, st.integers(-7, 7),
                      st.sampled_from([1, 2, 3, 5, 7, 9]))


def terms(sites, order=1):
    """Up to three monomials of degree <= 4 on a few sites (repeats
    allowed), each with a short series in (hbar, lambda) of orders up to
    `order`."""
    key = st.lists(st.sampled_from(sites), min_size=0, max_size=4).map(
        lambda k: tuple(sorted(k)))
    series = st.dictionaries(
        st.tuples(st.integers(0, order), st.integers(0, order)),
        st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=2)
    return st.dictionaries(key, series, min_size=1, max_size=3)


SITES = [3, 9, 14, 22]  # on the 8x4 lattice: spacelike and timelike pairs
TRUNC_H = st.integers(1, 3)
TRUNC_L = st.integers(1, 2)


# ----------------------------------------------------------------- tests

@settings(max_examples=40, deadline=None)
@given(terms(SITES), terms(SITES), TRUNC_H, TRUNC_L,
       st.sampled_from(["star", "star_H", "timeordered_D", "timeordered_F"]))
def test_product_matches_reference(xp_small, f, g, th, tl, kind):
    kernel = pair_kernel(kernel_view(xp_small, kind))
    want = {}
    for n in range(th + 1):
        naive([f, g], [(0, 1, kernel)] * n, Fraction(1, math.factorial(n)),
              th, tl, want)
    lat = xp_small.lat
    got = QuantProduct(xp_small, kind).product(functional(lat, f, th, tl),
                                               functional(lat, g, th, tl))
    assert plain(got) == nonzero(want)


@settings(max_examples=30, deadline=None)
@given(terms(SITES), TRUNC_H, TRUNC_L, st.sampled_from([1, -1]))
def test_alpha_H_matches_reference(xp_small, f, th, tl, sign):
    had = pair_kernel(kernel_view(xp_small, "hadamard"))
    want = {}
    for n in range(th + 1):
        naive([f], [(0, 0, had)] * n,
              Fraction(sign, 2) ** n / math.factorial(n), th, tl, want)
    got = alpha_H(xp_small, functional(xp_small.lat, f, th, tl), sign)
    assert plain(got) == nonzero(want)


@settings(max_examples=25, deadline=None)
@given(st.lists(terms(SITES[:3]), min_size=2, max_size=3),
       st.integers(1, 2), TRUNC_L)
def test_graph_sum_matches_reference(xp_small, fs, th, tl):
    # T_n as a sum over multisets of vertex pairs, enumerated here
    kernel = pair_kernel(kernel_view(xp_small, "timeordered_F"))
    pairs = list(itertools.combinations(range(len(fs)), 2))
    want = {}
    for n_lines in range(th + 1):
        for lines in itertools.combinations_with_replacement(pairs, n_lines):
            sym = math.prod(math.factorial(lines.count(p)) for p in set(lines))
            naive(fs, [(i, j, kernel) for i, j in lines], Fraction(1, sym),
                  th, tl, want)
    lat = xp_small.lat
    got = graph_expand_Tn([functional(lat, f, th, tl) for f in fs], xp_small)
    assert plain(got) == nonzero(want)


# Two non-dyadic kernels as (numerators(y, z), den): thirds and sevenths
# over 21, and fifths and thirds over 15, so the lines of one schedule
# carry different denominators.
NON_DYADIC = [
    (lambda y, z: (7 * (y - 2 * z + 1), 3 * (y * z % 5)), 21),
    (lambda y, z: (5 * ((y + z) % 3 - 1), 3 * (y - z) % 4), 15),
]


@st.composite
def engine_cases(draw):
    """1-3 banks, each a functional with series orders up to 2 (so some
    tuples of grades exceed the truncation before any line runs), and up
    to four schedules of up to three lines between any two banks, a bank
    with itself included, each line through either kernel of NON_DYADIC."""
    fs = draw(st.lists(terms(SITES, order=2), min_size=1, max_size=3))
    lines = [(i, j, k) for i in range(len(fs)) for j in range(len(fs))
             for k in range(len(NON_DYADIC))]
    schedule = st.lists(st.sampled_from(lines), max_size=3).map(tuple)
    return fs, draw(st.lists(st.tuples(schedule, RATIONALS), min_size=1,
                             max_size=4))


@settings(max_examples=60, deadline=None)
@given(engine_cases(), TRUNC_H, TRUNC_L)
def test_engine_with_non_dyadic_kernel(lat_small, case, th, tl):
    """Arbitrary schedules (shared prefixes, same-bank and cross-bank lines,
    zero weights, a kernel per line) over the two kernels of NON_DYADIC,
    given as numerators over 21 and over 15."""
    fs, schedules = case

    def rows_of(numerators):
        return lambda ys, zs: {
            y: {z: numerators(y, z) for z in zs if any(numerators(y, z))}
            for y in ys}

    def entry(numerators, den):
        return lambda y, z: tuple(Fraction(v, den) for v in numerators(y, z))

    fractions = [entry(*kernel) for kernel in NON_DYADIC]
    want = {}
    for lines, w in schedules:
        naive(fs, [(i, j, fractions[k]) for i, j, k in lines], w, th, tl,
              want)
    got = contract([functional(lat_small, f, th, tl) for f in fs],
                   [(lat_small, rows_of(n), den) for n, den in NON_DYADIC],
                   schedules)
    assert plain(got) == nonzero(want)


@settings(max_examples=30, deadline=None)
@given(terms(SITES), TRUNC_H, TRUNC_L,
       st.sampled_from(["star", "star_H", "timeordered_D", "timeordered_F"]))
def test_one_functional_in_both_banks_matches_reference(xp_small, f, th, tl,
                                                        kind):
    """F x F with one object in both banks: the banks share every
    derivative and smeared row, which must not mix their fields."""
    kernel = pair_kernel(kernel_view(xp_small, kind))
    want = {}
    for n in range(th + 1):
        naive([f, f], [(0, 1, kernel)] * n, Fraction(1, math.factorial(n)),
              th, tl, want)
    F = functional(xp_small.lat, f, th, tl)
    assert plain(QuantProduct(xp_small, kind).product(F, F)) == nonzero(want)


@settings(max_examples=20, deadline=None)
@given(terms(SITES[:3]), terms(SITES[:3]), st.integers(1, 2), TRUNC_L)
def test_graph_sum_with_a_repeated_factor_matches_reference(xp_small, f, g,
                                                            th, tl):
    """T_3(F, G, F) with one object in banks 0 and 2."""
    kernel = pair_kernel(kernel_view(xp_small, "timeordered_F"))
    pairs = list(itertools.combinations(range(3), 2))
    want = {}
    for n_lines in range(th + 1):
        for lines in itertools.combinations_with_replacement(pairs, n_lines):
            sym = math.prod(math.factorial(lines.count(p)) for p in set(lines))
            naive([f, g, f], [(i, j, kernel) for i, j in lines],
                  Fraction(1, sym), th, tl, want)
    lat = xp_small.lat
    F, G = functional(lat, f, th, tl), functional(lat, g, th, tl)
    assert plain(graph_expand_Tn([F, G, F], xp_small)) == nonzero(want)


def test_contract_does_each_derivative_and_row_once(xp_small, monkeypatch):
    """One contract call, S(V) x_T F at (hbar, lambda) = (2, 2), takes the
    gradient of each bank once and smears each bank's gradient with each
    kernel row once, however many slice tuples, schedules and tensor terms
    share them."""
    lat = xp_small.lat
    V = interaction_vertex(lat, {lat.site(3, 1): 1, lat.site(4, 2): 1}, 4,
                           2, 2)
    S = s_matrix(xp_small, V)
    F = PolyFunctional(lat, {(lat.site(1, 0),): Fraction(1, 3),
                             (lat.site(2, 1), lat.site(6, 3)): 2}, 2, 2)
    want = QuantProduct(xp_small, "timeordered_F").product(S, F)
    grads, rows, keep = [], [], []

    def gradient(bank):
        keep.append(bank)  # no id is reused while the call runs
        grads.append(id(bank))
        return real_gradient(bank)

    def smeared(grad, row, out):
        keep.append((grad, row))
        rows.append((id(grad), id(row)))
        return real_smeared(grad, row, out)
    real_gradient, real_smeared = quantization.gradient, quantization._smeared
    monkeypatch.setattr(quantization, "gradient", gradient)
    monkeypatch.setattr(quantization, "_smeared", smeared)
    got = QuantProduct(xp_small, "timeordered_F").product(S, F)
    assert got == want
    assert grads and len(set(grads)) == len(grads)
    assert rows and len(set(rows)) == len(rows)


def peierls_loop(F, G, xp):
    """{F, G} as the sum over site pairs of dF/dphi[y] Delta(y, z)
    dG/dphi[z], one pointwise product per pair."""
    th = min(F.trunc_h, G.trunc_h)
    tl = min(F.trunc_l, G.trunc_l)
    out = PolyFunctional(F.lat, {}, th, tl)
    for y in sorted(F.support()):
        dF = F.partial(y)
        for z in sorted(G.support()):
            d = xp.causal_entry(y, z)
            dG = G.partial(z)
            if d and dF and dG:
                out = out + pointwise_product(dF, dG) * ExactComplex(d)
    return out


@settings(max_examples=40, deadline=None)
@given(terms(SITES, order=3), terms(SITES, order=3), st.integers(0, 3),
       st.integers(0, 3), TRUNC_L)
def test_peierls_bracket_matches_site_pair_loop(xp_small, f, g, th_f, th_g,
                                                tl):
    # series orders up to 3 reach the top hbar order of every truncation
    lat = xp_small.lat
    F, G = functional(lat, f, th_f, tl), functional(lat, g, th_g, tl)
    assert peierls_bracket(F, G, xp_small) == peierls_loop(F, G, xp_small)
