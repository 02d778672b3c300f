"""Part `free_wide` of workload `exact`: free products, 24x24 and 48x48.

Items: commutators of smeared fields over 12-24 seeded sites against an
independent <f, Delta g> sum, alpha_H equivalence of degree-3 functionals
over 6-12 sites, and the Wick demo.  The same contraction engine as
`interacting`, used wide and shallow: thousands of distinct kernel entries
are lifted per pass and coefficients stay short.
"""

import random
from fractions import Fraction
from functools import partial

from paqft import quantization as qz
from paqft.exact import ExactComplex
from paqft.functionals import PolyFunctional, smeared_field
from paqft.lattice import ExactPropagators, Lattice1p1, PropagatorSet
from paqft.series import FormalSeries

# Commutators are the most numerous kind of the `exact` workload, so its
# median item is a commutator, not one on the edge between kinds.
SIZES = {
    "full": {"lattices": (24, 48), "commutators": 12, "alpha_H": 3,
             "sites": (12, 24), "alpha_sites": (6, 12)},
    "tiny": {"lattices": (8,), "commutators": 1, "alpha_H": 1,
             "sites": (4, 6), "alpha_sites": (4, 6)},
}
NOMINAL_PASS_S = 2.4


def setup(seed, size, tr):
    """Float tables and fresh exact lifts for every lattice of the pass."""
    out = []
    for n in SIZES[size]["lattices"]:
        lat = Lattice1p1(n, n)  # a_t = 1/2, a_x = 1, m = 1
        ps = PropagatorSet(lat)
        with tr.span("lattice.tables_s"):
            ps.ret_table()
            ps.wightman_table()
        out.append(ExactPropagators(ps))
    return out


def _smear(rng, lat, n_sites):
    out = {}
    while len(out) < n_sites:
        out[rng.randrange(lat.n_sites)] = Fraction(rng.randint(-9, 9) or 1,
                                                   rng.randint(1, 4))
    return out


def _cubic(rng, lat, pool):
    """A degree-1 plus a degree-3 term on four distinct sites of the pool."""
    sites = rng.sample(pool, 4)
    terms = {}
    for key in ((sites[0],), tuple(sorted(sites[1:]))):
        c = ExactComplex(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)))
        terms[key] = FormalSeries({(0, 0): c})
    return PolyFunctional(lat, terms)


def items(xps, seed, pass_index, size):
    cfg = SIZES[size]
    rng = random.Random(seed * 1_000_003 + pass_index)
    out = []
    # Support sizes follow a fixed schedule, so every pass and every seed does
    # the same number of contractions; the seed moves sites and values.
    lo, hi = cfg["sites"]
    sizes = [lo + i * (hi - lo) // max(1, cfg["commutators"] - 1)
             for i in range(cfg["commutators"])]
    for xp in xps:
        lat = xp.lat
        for n in sizes:
            f, g = _smear(rng, lat, n), _smear(rng, lat, n)
            out.append(("commutator", partial(commutator, xp, f, g)))
        for i in range(cfg["alpha_H"]):
            pool = rng.sample(range(lat.n_sites), cfg["alpha_sites"][i % 2])
            F, G = _cubic(rng, lat, pool), _cubic(rng, lat, pool)
            out.append(("alpha_H", partial(alpha_h, xp, F, G)))
        f1, f2 = _smear(rng, lat, 2), _smear(rng, lat, 2)
        out.append(("wick", partial(wick, xp, f1, f2)))
    return out


# ------------------------------------------------------------------ oracles

def pairing(xp, f, g):
    """<f, Delta g> = vol^2 sum_ij f_i Delta(i, j) g_j, summed directly."""
    acc = Fraction(0)
    for i, fi in f.items():
        for j, gj in g.items():
            acc += fi * xp.causal_entry(i, j) * gj
    return acc * xp.lat.volume_weight ** 2


def commutator_matches(comm, xp, f, g):
    """[Phi(f), Phi(g)] is the constant i hbar <f, Delta g>, nothing else."""
    want = pairing(xp, f, g)
    if not want:
        return comm.is_zero()
    if set(comm.terms) != {()}:
        return False
    coeff = comm.terms[()].coeff
    return set(coeff) == {(1, 0)} and coeff[(1, 0)] == ExactComplex(0, want)


# -------------------------------------------------------------------- items

def commutator(xp, f, g, tr, tally):
    with tr.span("quantization.product_s"):
        comm = qz.QuantProduct(xp, "star_H").commutator(
            smeared_field(xp.lat, f), smeared_field(xp.lat, g))
    tally.exact(comm)
    with tr.span("oracle_s"):
        return commutator_matches(comm, xp, f, g)


def alpha_h(xp, F, G, tr, tally):
    """F *_H G = alpha_H(alpha_H^-1 F * alpha_H^-1 G) exactly."""
    with tr.span("quantization.alpha_H_s"):
        residual = qz.star_H_equivalence_check(xp, F, G)
    with tr.span("oracle_s"):
        return residual.is_zero()


def wick(xp, f1, f2, tr, tally):
    """Three-term Wick expansion with binding coefficients (1, 4, 2)."""
    with tr.span("quantization.wick_s"):
        r = qz.wick_theorem_demo(xp, f1, f2)
    tally.exact(r["product"])
    with tr.span("oracle_s"):
        return (r["match"] and [row["binding_coefficient"]
                                for row in r["terms"]] == [1, 4, 2])
