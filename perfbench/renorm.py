"""Part `renorm` of workload `numeric`: extension of distributions, GNS.

Distributions are written in the CLI grammar and parsed with
formats.parse_distribution.  Items: scaling-degree regression, two
W-projection extensions of (x+i0)^-2 and their local ambiguity, minimal
subtraction and analytic regularization of x_+^(z-1) on seeded probes, a
principal-value pairing, the Feynman-square demo, and GNS on the AC12
states.  The only part where dist1d quadrature, egrenorm fits and algebra
do the work.
"""

import math
import random
from functools import partial

from scipy import integrate

from paqft import algebra as alg
from paqft import egrenorm as eg
from paqft import formats
from paqft.dist1d import SymbolicDistribution1D, TestFunction1D

SIZES = {
    "full": {"sd": 2, "extensions": 1, "ms": 3, "regularizations": 1,
             "pairings": 1, "feynman": 1},
    "tiny": {"sd": 1, "extensions": 1, "ms": 1, "regularizations": 1,
             "pairings": 1, "feynman": 1},
}
NOMINAL_PASS_S = 1.7

# expression, symbolic scaling degree
SD_CASES = (("(x+i0)^-2", 2.0), ("(x-i0)^-1.5", 1.5), ("x_+^-0.5", 0.5),
            ("delta", 1.0), ("delta^1", 2.0), ("(x+i0)^-1", 1.0))
SD_TOL = 0.05       # AC09
AGREE_TOL = 1e-9    # AC09: W-extensions agree on D_1 probes
FIT_TOL = 1e-8      # AC09: ambiguity fit residual and MS against the oracle
GNS_TOL = 1e-10     # AC12


def _family(z):
    return SymbolicDistribution1D.halfline(z - 1.0, +1)


class State:
    def __init__(self, c2, m2):
        self.c2 = c2
        self.m2 = m2


def setup(seed, size, tr):
    """The two finite *-algebras behind the AC12 states."""
    return State(alg.functions_on_points(2), alg.matrix_algebra(2))


def _probe(rng):
    """Polynomial core on a plateau of radius < 1, support beyond 1."""
    poly = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(2, 3))]
    return TestFunction1D.from_poly(poly, rng.uniform(0.5, 0.9),
                                    rng.uniform(1.5, 2.5))


def items(st, seed, pass_index, size):
    cfg = SIZES[size]
    rng = random.Random(seed * 1_000_003 + pass_index)
    out = []
    for _ in range(cfg["sd"]):
        out.append(("sd_regression",
                    partial(sd_regression, *rng.choice(SD_CASES))))
    for _ in range(cfg["extensions"]):
        r1, r2 = rng.uniform(0.3, 0.45), rng.uniform(0.2, 0.3)
        windows = ((r1, r1 + rng.uniform(0.3, 0.5)),
                   (r2, r2 + rng.uniform(0.3, 0.5)))
        d1 = [TestFunction1D.from_poly(
            (0.0, 0.0, rng.uniform(-1, 1), rng.uniform(-1, 1)), 0.5, 1.0)
            for _ in range(3)]
        out.append(("extension", partial(extension, windows, d1)))
    for _ in range(cfg["ms"]):
        out.append(("ms", partial(ms, _probe(rng))))
    for _ in range(cfg["regularizations"]):
        out.append(("regularization", partial(regularization, _probe(rng))))
    for _ in range(cfg["pairings"]):
        out.append(("pairing", partial(pairing, _probe(rng))))
    for _ in range(cfg["feynman"]):
        out.append(("feynman_square", feynman_square))
    out.append(("gns", partial(gns, st, rng.uniform(0.1, 0.9))))
    return out


# ------------------------------------------------------------------ oracles

def ms_halfline_oracle(f):
    """MS value of <x_+^(z-1), f> at z = 0, by direct quadrature:
    int_0^1 (f - f(0))/x + int_1^R f/x."""
    f0 = f(0.0).real
    inner = integrate.quad(lambda x: (f(x).real - f0) / x, 0.0, 1.0,
                           points=[f.plateau_radius], limit=200,
                           epsabs=1e-13, epsrel=1e-12)[0]
    outer = integrate.quad(lambda x: f(x).real / x, 1.0, f.support_radius,
                           limit=200, epsabs=1e-13, epsrel=1e-12)[0]
    return inner + outer


def cauchy_pairing_oracle(f):
    """<(x + i0)^-1, f> = PV int f/x - i pi f(0), PV by Cauchy-weight quad."""
    R = f.support_radius
    pv = integrate.quad(lambda x: f(x).real, -R, R, weight="cauchy", wvar=0.0,
                        limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    return pv - 1j * math.pi * f(0.0).real


# -------------------------------------------------------------------- items

def sd_regression(expr, sd, tr, tally):
    with tr.span("formats.parse_s"):
        t = formats.parse_distribution(expr)
    with tr.span("egrenorm.sd_regression_s"):
        got = eg.scaling_degree_regression(t)
    with tr.span("oracle_s"):
        return t.scaling_degree() == sd and abs(got - sd) < SD_TOL


def extension(windows, d1_probes, tr, tally):
    """Two W-extensions of (x+i0)^-2 agree on D_1 and differ by a local term."""
    with tr.span("formats.parse_s"):
        t = formats.parse_distribution("(x+i0)^-2")
    with tr.span("egrenorm.ambiguity_s"):
        e1, e2 = (eg.extend(t, eg.make_w_projection(1, r0, R))
                  for r0, R in windows)
        _coeffs, resid = eg.extension_ambiguity(e1, e2, max_order=1)
    with tr.span("dist1d.pair_s"):
        worst = max(abs(e1.pair(f) - e2.pair(f)) for f in d1_probes)
    with tr.span("oracle_s"):
        return worst < AGREE_TOL and resid < FIT_TOL


def ms(f, tr, tally):
    with tr.span("egrenorm.ms_s"):
        got = eg.minimal_subtraction(_family, f, pole_cap=2)
    with tr.span("oracle_s"):
        return abs(got - ms_halfline_oracle(f)) < FIT_TOL


def regularization(f, tr, tally):
    """x_+^(z-1) = delta / z + O(1): a simple pole with residue f(0)."""
    with tr.span("egrenorm.ms_s"):
        r = eg.analytic_regularization(_family, f, pole_cap=2)
    with tr.span("oracle_s"):
        return (r["pole_order"] == 1
                and abs(r["principal"][0] - f(0.0).real) < FIT_TOL
                and abs(r["regular_value"] - ms_halfline_oracle(f)) < FIT_TOL)


def pairing(f, tr, tally):
    with tr.span("formats.parse_s"):
        t = formats.parse_distribution("(x+i0)^-1")
    with tr.span("dist1d.pair_s"):
        got = t.pair(f)
    with tr.span("oracle_s"):
        return abs(got - cauchy_pairing_oracle(f)) < FIT_TOL


def feynman_square(tr, tally):
    """(x+i0)^-2 as the square of the propagator: sd 2, div 1, and the W and
    MS extensions differ by a local term (AC09 tolerances)."""
    with tr.span("egrenorm.feynman_square_s"):
        r = eg.feynman_square_demo()
    with tr.span("oracle_s"):
        return (r["scaling_degree_symbolic"] == 2.0
                and abs(r["scaling_degree_regression"] - 2.0) < SD_TOL
                and r["divergence_degree"] == 1.0
                and r["ambiguity_residual"] < FIT_TOL)


def gns(st, p, tr, tally):
    """AC12: GNS dimensions (1, 2, 4), residuals, cyclicity, and the
    equal-weight direct sum of the mixed state on C^2."""
    with tr.span("algebra.gns_s"):
        reps = [alg.gns_construct(st.c2, alg.AlgebraState(st.c2, [1.0, 0.0])),
                alg.gns_construct(st.m2, alg.AlgebraState(
                    st.m2, [1.0, 0.0, 0.0, 0.0])),
                alg.gns_construct(st.m2, alg.AlgebraState(
                    st.m2, [p, 0.0, 0.0, 1.0 - p]))]
        mix = alg.direct_sum_state_example()
    with tr.span("oracle_s"):
        worst = max(max(r["residual_homomorphism"], r["residual_adjoint"])
                    for r in reps)
        return ([r["dim"] for r in reps] == [1, 2, 4] and worst < GNS_TOL
                and all(r["cyclic"] for r in reps)
                and max(abs(w - 0.5) for w in mix["omega_weights"]) < GNS_TOL
                and mix["block_residual"] < GNS_TOL)
