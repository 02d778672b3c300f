"""Part `interacting` of workload `exact`: the interacting layer on 8x4.

a_t = 1/2, a_x = 1, m = 1, the two-site quartic vertex of the tier-1 tests,
hbar <= 2 and lambda <= 2.  Items: Bogoliubov R / R^-1 round trips, nested
associativity of the interacting star product, causal factorization of
vertex pairs in causal order, and T2/T3 graph sums against the direct
product.  Deep contraction with coefficients of 60+ bits; no floats.
"""

import math
import random
from fractions import Fraction
from functools import partial

from paqft import graphs as gr
from paqft import quantization as qz
from paqft.exact import ExactComplex
from paqft.functionals import PolyFunctional, interaction_vertex
from paqft.lattice import ExactPropagators, Lattice1p1, PropagatorSet
from paqft.series import FormalSeries

# Items per pass.  Associativity checks are the slowest kind; three per pass
# over six passes put the tail item (10 items beyond it) inside that kind,
# not on the edge between kinds of very different cost.
SIZES = {
    "full": {"trunc": 2, "round_trips": 3, "assoc": 3, "causal": 1,
             "graphs": (2, 3)},
    "tiny": {"trunc": 1, "round_trips": 1, "assoc": 1, "causal": 1,
             "graphs": (2,)},
}
NOMINAL_PASS_S = 6.0


class State:
    def __init__(self, lat, xp, bog, vertex_sites, trunc):
        self.lat = lat
        self.xp = xp
        self.bog = bog
        self.vertex_sites = vertex_sites
        self.trunc = trunc


def setup(seed, size, tr):
    """Lattice, float tables, fresh exact lifts and the Bogoliubov map."""
    trunc = SIZES[size]["trunc"]
    lat = Lattice1p1(8, 4, Fraction(1, 2), Fraction(1))
    ps = PropagatorSet(lat)
    with tr.span("lattice.tables_s"):
        ps.ret_table()
        ps.wightman_table()
    xp = ExactPropagators(ps)
    sites = (lat.site(3, 1), lat.site(4, 2))
    vertex = interaction_vertex(lat, {s: Fraction(1) for s in sites}, 4,
                                trunc, trunc)
    with tr.span("quantization.bogoliubov_init_s"):
        bog = qz.BogoliubovMap(xp, vertex)
    return State(lat, xp, bog, sites, trunc)


def _coeff(rng):
    return ExactComplex(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2), 2))


def _functional(rng, st, degrees, pool):
    """One term per entry of `degrees`; all sites distinct, from the pool."""
    sites = rng.sample(pool, sum(degrees))
    terms = {}
    for d in degrees:
        key, sites = tuple(sorted(sites[:d])), sites[d:]
        terms[key] = FormalSeries({(0, 0): _coeff(rng)}, st.trunc, st.trunc)
    return PolyFunctional(st.lat, terms, st.trunc, st.trunc)


def items(st, seed, pass_index, size):
    cfg = SIZES[size]
    rng = random.Random(seed * 1_000_003 + pass_index)
    # Functionals avoid the vertex sites and repeat no site, so every seed
    # gives the same contraction pattern; the seed moves sites and values.
    free = [s for s in range(st.lat.n_sites) if s not in st.vertex_sites]
    out = []
    for _ in range(cfg["round_trips"]):
        out.append(("round_trip",
                    partial(round_trip, st, _functional(rng, st, (1, 2), free))))
    for _ in range(cfg["assoc"]):
        a, b, c = rng.sample(free, 3)
        fields = [_functional(rng, st, (1,), [s]) for s in (a, b, c)]
        out.append(("associativity", partial(associativity, st, *fields)))
    for _ in range(cfg["causal"]):
        while True:
            y1, y2 = rng.sample(range(st.lat.n_sites), 2)
            if not st.lat.in_past_cone(y1, y2):
                break
        V1 = interaction_vertex(st.lat, {y1: Fraction(rng.randint(1, 4), 2)},
                                4, st.trunc, st.trunc)
        V2 = interaction_vertex(st.lat, {y2: Fraction(rng.randint(1, 4), 3)},
                                4, st.trunc, st.trunc)
        out.append(("causal_factorization",
                    partial(causal_factorization, st, V1, V2)))
    pool = rng.sample(range(st.lat.n_sites), 4)
    for n in cfg["graphs"]:
        fs = [_functional(rng, st, (1, 2), pool) for _ in range(n)]
        out.append(("graph_sum", partial(graph_sum, st, fs)))
    return out


# ------------------------------------------------------------------ oracles

def coupling_free_part(F):
    """The lambda^0 slice of F as {(key, h): (re, im)} plain Fractions."""
    out = {}
    for key, series in F.terms.items():
        for (h, l), c in series.coeff.items():
            if l == 0:
                out[(key, h)] = (c.re, c.im)
    return out


def classical_product(F, G):
    """hbar^0 lambda^0 part of the pointwise product F G, computed on plain
    Fraction pairs without the library's series or product code."""
    out = {}
    for k1, s1 in F.terms.items():
        a = s1.coeff.get((0, 0))
        for k2, s2 in G.terms.items():
            b = s2.coeff.get((0, 0))
            if a is None or b is None:
                continue
            key = tuple(sorted(k1 + k2))
            re = a.re * b.re - a.im * b.im
            im = a.re * b.im + a.im * b.re
            r0, i0 = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (r0 + re, i0 + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def classical_part(F):
    return {key: (c.re, c.im) for key, series in F.terms.items()
            for (h, l), c in series.coeff.items() if h == 0 and l == 0}


# -------------------------------------------------------------------- items

def round_trip(st, F, tr, tally):
    """R^-1 R F = F, and R F = F at lambda^0 (the interaction is O(lambda))."""
    with tr.span("quantization.R_s"):
        RF = st.bog.R(F)
    with tr.span("quantization.Rinv_s"):
        back = st.bog.Rinv(RF)
    tally.exact(RF)
    with tr.span("oracle_s"):
        return back == F and coupling_free_part(RF) == coupling_free_part(F)


def associativity(st, A, B, C, tr, tally):
    """(A *_int B) *_int C = A *_int (B *_int C); the classical part of
    A *_int B is the pointwise product."""
    with tr.span("quantization.star_interacting_s"):
        AB = st.bog.star_interacting(A, B)
        lhs = st.bog.star_interacting(AB, C)
        rhs = st.bog.star_interacting(A, st.bog.star_interacting(B, C))
    tally.exact(AB)
    tally.exact(lhs)
    with tr.span("oracle_s"):
        return lhs == rhs and classical_part(AB) == classical_product(A, B)


def causal_factorization(st, V1, V2, tr, tally):
    """S(V1 + V2) = S(V1) * S(V2) for V1 nowhere earlier than V2."""
    with tr.span("quantization.causal_factorization_s"):
        res = qz.causal_factorization_check(st.xp, V1, V2)
    with tr.span("oracle_s"):
        return res.is_zero()


def graph_sum(st, fs, tr, tally):
    """T_n as a graph sum equals the iterated time-ordered product."""
    with tr.span("graphs.expand_Tn_s"):
        via_graphs = gr.graph_expand_Tn(fs, st.xp)
    with tr.span("quantization.product_s"):
        direct = qz.QuantProduct(st.xp, "timeordered_F").multi(fs)
    tally.exact(via_graphs)
    # multigraphs on n vertices with <= trunc lines: multisets of the
    # C(n, 2) vertex pairs of size <= trunc
    pairs = len(fs) * (len(fs) - 1) // 2
    tally.counts["graphs.graphs_enumerated"] += math.comb(pairs + st.trunc,
                                                          st.trunc)
    with tr.span("oracle_s"):
        return via_graphs == direct
