"""Batch command line interface.

Every subcommand reads an optional key=value config file, writes one CSV
artifact into --out, and prints a short human-readable summary.  Artifacts
are named {subcommand}_{label}.csv where the label defaults to a UTC
timestamp; pass --label to get stable filenames.  Artifact content never
depends on the clock: the same config and seed give byte-identical files.

Exit codes: 0 ok, 2 config error, 3 numerical check failure, 4 internal
invariant violation or unexpected exception.
"""

import csv
import datetime
import math
import os
import random
import sys
import traceback
from fractions import Fraction

import click
import numpy as np

from . import __version__
from .exact import ExactComplex
from .series import FormalSeries
from .lattice import (Lattice1p1, ExactPropagators, LatticeError)
from .functionals import (FunctionalError, PolyFunctional, smeared_field,
                          local_power, interaction_vertex)
from . import quantization as qz
from . import graphs as gr
from . import dist1d
from . import egrenorm as eg
from . import microlocal as ml
from . import algebra as al
from . import formats
from . import acceptance
from .acceptance import pairing, sparse_smear

CONFIG_ERRORS = (formats.FormatError, LatticeError, ValueError,
                 KeyError, OSError)
INVARIANT_ERRORS = (qz.QuantizationError, gr.GraphError, al.AlgebraError,
                    FunctionalError)
CHECK_ERRORS = (eg.ExtensionError, dist1d.DivergentPairing,
                ml.MicrolocalError)

DEGREE_CAP = 8  # demos stay below this; the cap catches runaway expansions


def _fail(code, msg):
    click.echo("error: %s" % msg, err=True)
    sys.exit(code)


LATTICE_KEYS = ("n_t", "n_x", "a_t", "a_x", "mass")


def _load_cfg(path, keys):
    """The config file of a command that reads `keys`; any other key is a
    config error (exit 2) rather than a silently ignored typo."""
    if path is None:
        return {}
    try:
        cfg = formats.load_config(path)
    except CONFIG_ERRORS as e:
        _fail(2, "bad config %s: %s" % (path, e))
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        _fail(2, "bad config %s: unknown key %s (this command reads: %s)"
              % (path, ", ".join(unknown), ", ".join(keys) or "none"))
    return cfg


def _artifact(out, name, label):
    os.makedirs(out, exist_ok=True)
    if label is None:
        label = datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y%m%dT%H%M%SZ")
    return os.path.join(out, "%s_%s.csv" % (name, label))


def common_opts(fn):
    fn = click.option("--config", "config_path", type=click.Path(),
                      default=None, help="key=value config file")(fn)
    fn = click.option("--out", "out", type=click.Path(), default=".",
                      help="artifact directory")(fn)
    fn = click.option("--seed", type=int, default=0,
                      help="seed for any randomized inputs")(fn)
    fn = click.option("--label", default=None,
                      help="artifact filename label (default: UTC timestamp)")(fn)
    return fn


def _lattice_from(cfg):
    return Lattice1p1(int(cfg.get("n_t", 12)), int(cfg.get("n_x", 8)),
                      Fraction(cfg.get("a_t", Fraction(1, 2))),
                      Fraction(cfg.get("a_x", Fraction(1))),
                      float(cfg.get("mass", 1.0)))


def _guarded(fn):
    """Map library exceptions to the documented exit codes; any other
    exception is an internal error (exit 4)."""
    try:
        return fn()
    except CHECK_ERRORS as e:
        _fail(3, "%s: %s" % (type(e).__name__, e))
    except INVARIANT_ERRORS as e:
        _fail(4, "%s: %s" % (type(e).__name__, e))
    except CONFIG_ERRORS as e:
        _fail(2, "%s: %s" % (type(e).__name__, e))
    except Exception as e:  # _fail's SystemExit is no Exception
        traceback.print_exc()
        _fail(4, "%s: %s" % (type(e).__name__, e))


@click.group()
@click.version_option(__version__)
def main():
    """Desk-scale perturbative algebraic QFT on a 1+1D lattice."""


# ------------------------------------------------------------------ states

@main.command()
@common_opts
def gns(config_path, out, seed, label):
    """GNS construction for built-in or file-given states."""
    cfg = _load_cfg(config_path, ("algebra_file",))

    def body():
        cases = []
        if "algebra_file" in cfg:
            try:
                a, omega = formats.load_algebra(cfg["algebra_file"])
                if omega is None:
                    raise formats.FormatError(
                        "algebra file has no omega record")
                al.AlgebraState(a, omega)
            except al.AlgebraError as e:
                _fail(2, "algebra file rejected: %s" % e)
            cases.append(("file", a, omega))
        else:
            c2 = al.functions_on_points(2)
            m2 = al.matrix_algebra(2)
            cases = [("C2 point evaluation", c2, [1.0, 0.0]),
                     ("M2 vector state", m2, [1.0, 0.0, 0.0, 0.0]),
                     ("M2 tracial state", m2, [0.5, 0.0, 0.0, 0.5])]
        rows, ok = [], True
        for name, a, omega in cases:
            rep = al.gns_construct(a, al.AlgebraState(a, omega))
            worst = max(rep["residual_homomorphism"], rep["residual_adjoint"],
                        rep["residual_state"])
            good = worst < 1e-10 and rep["cyclic"]
            ok = ok and good
            rows.append((name, rep["dim"], rep["residual_homomorphism"],
                         rep["residual_adjoint"], rep["residual_state"],
                         rep["cyclic"]))
            click.echo("%-22s dim %d  worst residual %.2e  cyclic %s"
                       % (name, rep["dim"], worst, rep["cyclic"]))
        return rows, ok

    rows, ok = _guarded(body)
    path = _artifact(out, "gns", label)
    formats.write_csv(path, ("state", "dim", "residual_homomorphism",
                             "residual_adjoint", "residual_state", "cyclic"),
                      rows)
    click.echo("artifact: %s" % path)
    if not ok:
        _fail(3, "a GNS residual exceeded 1e-10")


@main.command()
@common_opts
def weyl(config_path, out, seed, label):
    """Exponentiated commutation relations on a discrete line."""
    cfg = _load_cfg(config_path, ("n", "dx", "hbar"))

    def body():
        return al.weyl_rep_check(n=int(cfg.get("n", 64)),
                                 dx=float(cfg.get("dx", 0.25)),
                                 hbar=float(cfg.get("hbar", 1.0)))

    r = _guarded(body)
    worst = max(r["composition_residual"], r["adjoint_residual"])
    rows = [("n", r["n"]), ("dx", r["dx"]),
            ("composition_residual", r["composition_residual"]),
            ("adjoint_residual", r["adjoint_residual"]),
            ("interior_margin_cells", r["interior_margin_cells"]),
            ("phase_example", r["phase_example"])]
    path = _artifact(out, "weyl", label)
    formats.write_csv(path, ("quantity", "value"), rows)
    click.echo("phase factor example: %s" % formats.fmt_value(
        r["phase_example"]))
    click.echo("worst interior residual: %.2e" % worst)
    click.echo("artifact: %s" % path)
    if worst > 1e-8:
        _fail(3, "Weyl relation residual %.2e exceeds 1e-8" % worst)


# -------------------------------------------------------------- propagators

@main.command()
@common_opts
def propagators(config_path, out, seed, label):
    """Propagator offset tables for a lattice, with a binary cache."""
    cfg = _load_cfg(config_path, LATTICE_KEYS)

    def body():
        lat = _lattice_from(cfg)
        os.makedirs(out, exist_ok=True)
        key = "prop_%d_%d_%s_%s_%s" % (
            lat.n_t, lat.n_x, lat.a_t, lat.a_x, lat.mass)
        cache = os.path.join(out, key.replace("/", "-") + ".npz")
        if os.path.exists(cache):
            blob = np.load(cache)
            want = {"ret": (lat.n_t, lat.n_x),
                    "wig": (2 * lat.n_t - 1, lat.n_x)}
            got = {k: blob[k].shape for k in want
                   if k in getattr(blob, "files", ())}
            if got != want:
                _fail(2, "propagator cache %s does not fit this lattice: "
                      "arrays %s, expected %s" % (cache, got, want))
            ret, wig = blob["ret"], blob["wig"]
            click.echo("cache hit: %s" % cache)
        else:
            ps = ExactPropagators(lat).ps
            ret, wig = ps.ret_table(), ps.wightman_table()
            np.savez(cache, ret=ret, wig=wig)
            click.echo("cache write: %s" % cache)
        return lat, ret, wig

    lat, ret, wig = _guarded(body)
    rows = []
    for n in range(lat.n_t):
        for dx in range(lat.n_x):
            rows.append(("retarded", n, dx, ret[n, dx]))
    for n in range(-(lat.n_t - 1), lat.n_t):
        for dx in range(lat.n_x):
            rows.append(("wightman", n, dx, wig[n + lat.n_t - 1, dx]))
    path = _artifact(out, "propagators", label)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# n_t=%d n_x=%d a_t=%s a_x=%s m=%s\n"
                 % (lat.n_t, lat.n_x, lat.a_t, lat.a_x, lat.mass))
    with open(path, "a", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("kind", "dt", "dx", "value"))
        for row in rows:
            w.writerow([formats.fmt_value(v) for v in row])
    click.echo("tables: retarded (%d x %d), wightman (pm%d x %d)"
               % (lat.n_t, lat.n_x, lat.n_t - 1, lat.n_x))
    click.echo("artifact: %s" % path)


# --------------------------------------------------------------- products

@main.command()
@common_opts
def commutator(config_path, out, seed, label):
    """Field commutator against the covariant pairing, term by term."""
    cfg = _load_cfg(config_path, LATTICE_KEYS + ("n_sites",))

    def body():
        lat = _lattice_from(cfg)
        xp = ExactPropagators(lat)
        rng = random.Random(seed)
        f = sparse_smear(rng, lat, int(cfg.get("n_sites", 4)))
        g = sparse_smear(rng, lat, int(cfg.get("n_sites", 4)))
        comm = qz.QuantProduct(xp, "star_H", DEGREE_CAP).commutator(
            smeared_field(lat, f), smeared_field(lat, g))
        val = pairing(xp, f, g)
        want = PolyFunctional(
            lat, {(): FormalSeries({(1, 0): ExactComplex(0, val)})})
        return comm, val, comm == want

    comm, val, ok = _guarded(body)
    path = _artifact(out, "commutator", label)
    formats.write_csv(path, ("degree", "hbar_order", "lambda_order", "sites",
                             "coefficient"), formats.functional_rows(comm))
    click.echo("[Phi(f), Phi(g)] = i hbar <f, Delta g>, <f, Delta g> = %s"
               % val)
    click.echo("identity holds exactly: %s" % ok)
    click.echo("artifact: %s" % path)
    if not ok:
        _fail(3, "commutator does not equal i hbar <f, Delta g>")


@main.command()
@common_opts
def wick(config_path, out, seed, label):
    """Three-term expansion of a product of two quadratic densities."""
    cfg = _load_cfg(config_path, LATTICE_KEYS + ("n_sites",))

    def body():
        lat = _lattice_from(cfg)
        xp = ExactPropagators(lat)
        rng = random.Random(seed)
        f1 = sparse_smear(rng, lat, int(cfg.get("n_sites", 2)))
        f2 = sparse_smear(rng, lat, int(cfg.get("n_sites", 2)))
        return qz.wick_theorem_demo(xp, f1, f2)

    r = _guarded(body)
    rows = [(row["contractions"], row["hbar_power"],
             row["binding_coefficient"], row["structure"])
            for row in r["terms"]]
    path = _artifact(out, "wick", label)
    formats.write_csv(path, ("contractions", "hbar_power",
                             "binding_coefficient", "structure"), rows)
    click.echo("normal-ordered coefficients (1, 4, 2); "
               "term-by-term match: %s" % r["match"])
    click.echo("artifact: %s" % path)
    if not r["match"]:
        _fail(3, "Wick expansion does not match the three-term structure")


@main.command()
@common_opts
def tadpole(config_path, out, seed, label):
    """Self-contraction cancellation in the dressed pointwise product."""
    cfg = _load_cfg(config_path, LATTICE_KEYS)

    def body():
        lat = _lattice_from(cfg)
        xp = ExactPropagators(lat)
        rng = random.Random(seed)
        F = local_power(lat, sparse_smear(rng, lat, 2), 2)
        G = local_power(lat, sparse_smear(rng, lat, 2), 2)
        return gr.tadpole_demo(xp, F, G)

    r = _guarded(body)
    rows = [("dressed_h1",) + row
            for row in formats.functional_rows(r["dressed_h1"])]
    rows += [("cross_expected_h1",) + row
             for row in formats.functional_rows(r["cross_expected_h1"])]
    path = _artifact(out, "tadpole", label)
    formats.write_csv(path, ("route", "degree", "hbar_order", "lambda_order",
                             "sites", "coefficient"), rows)
    click.echo("self-line terms cancel at order hbar: %s"
               % r["self_terms_cancel"])
    click.echo("artifact: %s" % path)
    if not r["self_terms_cancel"]:
        _fail(3, "tadpole cancellation failed")


@main.command()
@common_opts
def smatrix(config_path, out, seed, label):
    """Formal S-matrix of a quartic vertex, term by term."""
    cfg = _load_cfg(config_path, LATTICE_KEYS)

    def body():
        lat = _lattice_from(cfg)
        xp = ExactPropagators(lat)
        rng = random.Random(seed)
        V = interaction_vertex(lat, sparse_smear(rng, lat, 1), 4)
        S = qz.s_matrix(xp, V, degree_cap=DEGREE_CAP)
        unit_ok = S.coefficient(()).coefficient(0, 0) == ExactComplex(1)
        return S, unit_ok

    S, unit_ok = _guarded(body)
    path = _artifact(out, "smatrix", label)
    formats.write_csv(path, ("degree", "hbar_order", "lambda_order", "sites",
                             "coefficient"), formats.functional_rows(S))
    click.echo("S = T exp(V) to (hbar<=%d, lambda<=%d); unit at lambda^0: %s"
               % (S.trunc_h, S.trunc_l, unit_ok))
    click.echo("artifact: %s" % path)
    if not unit_ok:
        _fail(3, "S-matrix lambda^0 term is not the unit")


@main.command()
@common_opts
def bogoliubov(config_path, out, seed, label):
    """Interacting observable R(F) and the round-trip check."""
    cfg = _load_cfg(config_path, LATTICE_KEYS)

    def body():
        lat = _lattice_from(cfg)
        xp = ExactPropagators(lat)
        rng = random.Random(seed)
        S_I = interaction_vertex(lat, sparse_smear(rng, lat, 1), 4)
        bog = qz.BogoliubovMap(xp, S_I)  # intermediate degrees exceed the cap
        F = smeared_field(lat, sparse_smear(rng, lat, 2))
        RF = bog.R(F)
        ok = bog.Rinv(RF) == F
        return RF, ok

    RF, ok = _guarded(body)
    path = _artifact(out, "bogoliubov", label)
    formats.write_csv(path, ("degree", "hbar_order", "lambda_order", "sites",
                             "coefficient"), formats.functional_rows(RF))
    click.echo("R(F) terms: %d; Rinv(R(F)) = F exactly: %s"
               % (len(RF.terms), ok))
    click.echo("artifact: %s" % path)
    if not ok:
        _fail(3, "Bogoliubov round trip failed")


# ----------------------------------------------------------------- graphs

@main.command()
@common_opts
def graphs(config_path, out, seed, label):
    """List multigraphs with symmetry factors and divergence degrees."""
    cfg = _load_cfg(config_path, ("n", "lines", "d"))

    def body():
        n = int(cfg.get("n", 2))
        lines = int(cfg.get("lines", 4))
        d = int(cfg.get("d", 4))
        rows = []
        for g in gr.enumerate_graphs(n, lines):
            rows.append((n, g.total_lines, str(g), gr.symmetry_factor(g),
                         gr.divergence_degree(g, d)))
        return n, lines, d, rows

    n, lines, d, rows = _guarded(body)
    path = _artifact(out, "graphs", label)
    formats.write_csv(path, ("n_vertices", "total_lines", "graph", "Sym",
                             "div"), rows)
    click.echo("%d graphs on %d vertices with <= %d lines, d = %d"
               % (len(rows), n, lines, d))
    click.echo("artifact: %s" % path)


# ------------------------------------------------------------- extensions

_PROBES = (
    ("plateau", (1.0,)),
    ("poly_1_x", (1.0, 1.0)),
    ("poly_quad", (0.5, -0.3, 0.2)),
)


def _sd_report(t):
    """Scaling degree by scaling regression when the direct pairing exists,
    by the symbolic rule otherwise (pole at the origin)."""
    try:
        return eg.scaling_degree_regression(t), "regression"
    except dist1d.DivergentPairing:
        return eg.scaling_degree(t), "symbolic"


@main.command()
@click.argument("expression")
@common_opts
def extend(expression, config_path, out, seed, label):
    """Extend a distribution on the punctured line across the origin.

    EXPRESSION uses the term grammar, e.g. "(x+i0)^-2 + 3/2*delta".
    """
    _load_cfg(config_path, ())  # reads no keys; rejects any

    def body():
        t = formats.parse_distribution(expression)
        sd, how = _sd_report(t)
        div = eg.divergence_degree(t)
        order = max(0, int(math.floor(div)))
        # below div 0 the extension is unique and takes no projection
        e1, e2 = (eg.extend(t, eg.make_w_projection(order, r0, R)
                            if div >= 0 else None)
                  for r0, R in ((0.4, 0.8), (0.25, 0.6)))
        coeffs, resid = eg.extension_ambiguity(e1, e2, max_order=order)
        rows = [("scaling_degree", sd), ("sd_method", how),
                ("divergence_degree", div), ("extension_order", order),
                ("ambiguity_residual", resid)]
        for a, c in enumerate(coeffs):
            rows.append(("ambiguity_delta_%d" % a, c))
        for name, poly in _PROBES:
            f = dist1d.TestFunction1D.from_poly(poly, 0.5, 1.0)
            rows.append(("pairing_%s" % name, e1.pair(f)))
        return sd, how, div, order, resid, rows

    sd, how, div, order, resid, rows = _guarded(body)
    path = _artifact(out, "extend", label)
    formats.write_csv(path, ("quantity", "value"), rows)
    click.echo("sd = %.6f (%s), div = %.6f, extension order %d"
               % (sd, how, div, order))
    click.echo("two w-projection extensions differ by a local term, "
               "fit residual %.2e" % resid)
    click.echo("artifact: %s" % path)


@main.command()
@click.argument("family_atom")
@common_opts
def ms(family_atom, config_path, out, seed, label):
    """Minimal subtraction along an analytic family.

    FAMILY_ATOM is a single term such as "x_+^-1" or "(x+i0)^-2"; the family
    shifts its exponent by the regularization parameter.
    """
    _load_cfg(config_path, ())  # reads no keys; rejects any

    def body():
        base = formats.parse_distribution(family_atom)
        if len(base.terms) != 1:
            _fail(2, "family seed must be a single term")
        coeff, kind = base.terms[0]
        if kind[0] == "halfline":
            _, side, a, p = kind
            fam = lambda z: dist1d.SymbolicDistribution1D.halfline(
                a + z, side, p, coeff)
        elif kind[0] == "power_i0":
            _, sgn, a = kind
            fam = lambda z: dist1d.SymbolicDistribution1D.power_i0(
                a + z, sgn, coeff)
        else:
            _fail(2, "family seed must be a halfline or (x+-i0) power")
        sd, how = _sd_report(base)
        div = eg.divergence_degree(base)
        rows = [("scaling_degree", sd), ("sd_method", how),
                ("divergence_degree", div)]
        worst_pole = 0
        for name, poly in _PROBES:
            f = dist1d.TestFunction1D.from_poly(poly, 0.5, 1.0)
            r = eg.analytic_regularization(fam, f, pole_cap=3)
            worst_pole = max(worst_pole, r["pole_order"])
            rows.append(("pole_order_%s" % name, r["pole_order"]))
            rows.append(("ms_value_%s" % name, r["regular_value"]))
            for k, c in enumerate(r["principal"]):
                rows.append(("pole_%s_order_%d" % (name, k + 1), c))
        return sd, div, worst_pole, rows

    sd, div, worst_pole, rows = _guarded(body)
    path = _artifact(out, "ms", label)
    formats.write_csv(path, ("quantity", "value"), rows)
    click.echo("sd = %.6f, div = %.6f, max pole order %d"
               % (sd, div, worst_pole))
    click.echo("artifact: %s" % path)


# -------------------------------------------------------------- microlocal

@main.command()
@click.argument("expression")
@common_opts
def wf(expression, config_path, out, seed, label):
    """Wavefront set estimate of a 1D distribution expression."""
    cfg = _load_cfg(config_path, ("centers",))

    def body():
        t = formats.parse_distribution(expression)
        centers = cfg.get("centers", [0.0])
        if not isinstance(centers, list):
            centers = [centers]
        centers = tuple(float(c) for c in centers)
        return ml.wf_estimate_1d(t, centers=centers)

    est = _guarded(body)
    rows = [(r.center[0], r.direction[0], r.exponent, r.amplitude, r.singular)
            for r in est.rays]
    path = _artifact(out, "wf", label)
    formats.write_csv(path, ("x", "k_hat", "exponent", "amplitude",
                             "singular"), rows)
    sing = est.singular()
    click.echo("%d rays probed, %d singular (threshold %.2f)"
               % (len(est.rays), len(sing), est.threshold))
    click.echo("%d rays within 0.05 of the threshold, %d within 2x of the "
               "rel_floor test" % (len(est.near_threshold(0.05)),
                                   len(est.near_floor(2.0))))
    for r in sing:
        click.echo("  x = %+.3f  k_hat = %+d  exponent %.2f"
                   % (r.center[0], int(r.direction[0]), r.exponent))
    click.echo("artifact: %s" % path)


@main.command()
@common_opts
def flow(config_path, out, seed, label):
    """Integrate a null bicharacteristic and report the symbol drift."""
    cfg = _load_cfg(config_path, ("x0", "k0", "dt", "n_steps", "metric",
                                  "drift_tol"))

    def body():
        x0 = tuple(float(v) for v in cfg.get("x0", [0.0, 0.0]))
        k0 = tuple(float(v) for v in cfg.get("k0", [1.0, 1.0]))
        dt = float(cfg.get("dt", 0.01))
        n_steps = int(cfg.get("n_steps", 400))
        metric = cfg.get("metric", "flat")
        if metric == "flat":
            minv = None
        elif metric == "conformal":
            def minv(x):
                w = math.exp(-0.4 * math.sin(x[0]) * math.cos(x[1]))
                return np.diag([w, -w])
        else:
            _fail(2, "metric must be flat or conformal")
        r = ml.bicharacteristic_flow(x0, k0, dt, n_steps, metric_inv=minv)
        return r, dt, n_steps, float(cfg.get("drift_tol", 1e-8))

    r, dt, n_steps, tol = _guarded(body)
    rows = [(i * dt, x[0], x[1], k[0], k[1], s)
            for i, (x, k, s) in enumerate(zip(r["x"], r["k"], r["sigma"]))]
    path = _artifact(out, "flow", label)
    formats.write_csv(path, ("time", "t", "x", "k_t", "k_x", "sigma"), rows)
    drift = r["sigma_drift"] / max(n_steps * dt, 1e-12)
    click.echo("sigma drift %.2e per unit time over %d steps (tol %.1e)"
               % (drift, n_steps, tol))
    click.echo("artifact: %s" % path)
    if drift > tol:
        _fail(3, "symbol drift %.2e exceeds %.1e per unit time"
              % (drift, tol))


# ------------------------------------------------------------------ suite

@main.command()
@common_opts
def suite(config_path, out, seed, label):
    """Run the full acceptance battery and exit nonzero on any failure."""
    cfg = _load_cfg(config_path, ("only",))
    only = cfg.get("only")
    if only is not None and not isinstance(only, list):
        only = [only]
    indices = set(int(i) for i in only) if only else None
    results = acceptance.run_all(indices)
    rows = [(r.index, r.title, "PASS" if r.passed else "FAIL",
             "%.3f" % r.seconds, r.detail) for r in results]
    path = _artifact(out, "suite", label)
    formats.write_csv(path, ("criterion", "title", "status", "seconds",
                             "detail"), rows)
    click.echo(acceptance.report(results))
    click.echo("artifact: %s" % path)
    if not all(r.passed for r in results):
        _fail(3, "acceptance criteria failed")


if __name__ == "__main__":
    main()
