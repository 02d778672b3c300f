"""Batch command line interface.

Every subcommand reads an optional key=value config file, writes one CSV
artifact into --out, and prints a short human-readable summary.  Artifacts
are named {subcommand}_{label}.csv where the label defaults to a UTC
timestamp; pass --label to get stable filenames.  Artifact content never
depends on the clock: the same config and seed give byte-identical files.

Each subcommand is one function (cfg, seed[, argument]) -> (rows, summary
lines, failure message or None), registered with `command`, which owns
the config, the artifact, the summary and the exit codes.  Checks that a
command shares with the acceptance battery live in acceptance.py.

Exit codes: 0 ok, 2 config error, 3 numerical check failure, 4 internal
invariant violation or unexpected exception.
"""

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
from .lattice import (Lattice1p1, ExactPropagators, LatticeError)
from .functionals import (FunctionalError, smeared_field, interaction_vertex)
from . import quantization as qz
from . import graphs as gr
from . import dist1d
from . import egrenorm as eg
from . import microlocal as ml
from . import algebra as al
from . import formats
from . import acceptance

CONFIG_ERRORS = (formats.FormatError, LatticeError, ValueError,
                 KeyError, OSError)
INVARIANT_ERRORS = (qz.QuantizationError, gr.GraphError, al.AlgebraError,
                    FunctionalError)
CHECK_ERRORS = (eg.ExtensionError, dist1d.DivergentPairing,
                ml.MicrolocalError)


def _fail(code, msg):
    click.echo("error: %s" % msg, err=True)
    sys.exit(code)


def _load_cfg(path, keys, checks):
    """The config of a command whose `keys` map each key it reads to
    (convert, default): every value converted once, defaults filled in.  A
    file that will not load, any other key and a value that will not
    convert or that `checks` rejects are config errors (exit 2), raised
    before any work."""
    cfg = {}
    if path is not None:
        try:
            cfg = formats.load_config(path)
        except CONFIG_ERRORS as e:
            _fail(2, "bad config %s: %s" % (path, e))
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        _fail(2, "bad config %s: unknown key %s (this command reads: %s)"
              % (path, ", ".join(unknown), ", ".join(keys) or "none"))
    out = {}
    for key, (convert, default) in keys.items():
        try:
            out[key] = convert(cfg[key]) if key in cfg else default
        except (ValueError, TypeError, ArithmeticError) as e:
            _fail(2, "bad config %s: key %s = %r: %s"
                  % (path, key, cfg[key], e))
    for key, check in checks.items():
        try:
            check(out)
        except (ValueError, ArithmeticError) as e:
            _fail(2, "bad config %s: key %s = %r: %s"
                  % (path, key, out[key], e))
    return out


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


def command(keys, header, argument=None, comment=None, needs_out=False,
            checks=None):
    """Register fn(cfg, seed[, out][, argument]) -> (rows, summary lines,
    failure message or None) as the subcommand named after it.

    `keys` maps each config key to (convert, default), `checks` a key to a
    test across keys (see _load_cfg).  The subcommand loads the config,
    runs fn under _guarded, writes the rows under `header` (after the line
    `comment(cfg)` if given), echoes the summary and the artifact path, and
    exits 3 with the failure message if there is one.  `argument` names a
    positional command line argument; `needs_out` passes the artifact
    directory (the propagator cache lives there)."""
    def register(fn):
        def run(config_path, out, seed, label, **arg):
            cfg = _load_cfg(config_path, keys, checks or {})
            extra = ((out,) if needs_out else ()) + tuple(arg.values())
            os.makedirs(out, exist_ok=True)
            rows, lines, failure = _guarded(lambda: fn(cfg, seed, *extra))
            if label is None:
                label = datetime.datetime.now(datetime.timezone.utc).strftime(
                    "%Y%m%dT%H%M%SZ")
            path = os.path.join(out, "%s_%s.csv" % (fn.__name__, label))
            formats.write_csv(path, header, rows,
                              comment(cfg) if comment else None)
            click.echo("\n".join([*lines, "artifact: %s" % path]))
            if failure:
                _fail(3, failure)
        run.__doc__ = fn.__doc__
        run = click.option("--config", "config_path", type=click.Path(),
                           default=None, help="key=value config file")(run)
        run = click.option("--out", "out", type=click.Path(), default=".",
                           help="artifact directory")(run)
        run = click.option("--seed", type=int, default=0,
                           help="seed for any randomized inputs")(run)
        run = click.option("--label", default=None, help="artifact filename "
                           "label (default: UTC timestamp)")(run)
        if argument:
            run = click.argument(argument)(run)
        return main.command(fn.__name__)(run)
    return register


def _int(v):
    if type(v) is not int:  # int() truncates 2.5 and reads yes (True) as 1
        raise ValueError("want an integer")
    return v


def _real(convert):
    """`convert` (float or Fraction) for a numeric key, rejecting a bool."""
    def checked(v):
        if isinstance(v, bool):
            raise ValueError("want a number, not a boolean")
        return convert(v)
    return checked


_float, _fraction = _real(float), _real(Fraction)


def _positive(v):
    x = _float(v)
    if not (x > 0 and math.isfinite(x)):  # nan fails x > 0
        raise ValueError("want a positive finite number")
    return x


def _floats(v):
    return tuple(_float(x) for x in (v if isinstance(v, list) else [v]))


def _pair(v):
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError("want two comma-separated numbers")
    return _floats(v)


def _criteria(v):
    idx = v if isinstance(v, list) else [v]
    if not all(type(i) is int and 1 <= i <= len(acceptance.ALL) for i in idx):
        raise ValueError("criteria are numbered 1-%d" % len(acceptance.ALL))
    return set(idx)


LATTICE = {"n_t": (_int, 12), "n_x": (_int, 8),
           "a_t": (_fraction, Fraction(1, 2)),
           "a_x": (_fraction, Fraction(1)), "mass": (_float, 1.0)}
FUNCTIONAL = ("degree", "hbar_order", "lambda_order", "sites", "coefficient")
QUANTITY = ("quantity", "value")


def _exact(cfg, seed, *sizes):
    """The configured lattice, its exact kernels and one random smearing
    per entry of `sizes` (that many sites), drawn in order."""
    lat = Lattice1p1(*(cfg[k] for k in LATTICE))
    rng = random.Random(seed)
    return lat, ExactPropagators(lat), [acceptance.sparse_smear(rng, lat, n)
                                        for n in sizes]


# ------------------------------------------------------------------ states

@command({"algebra_file": (str, None)},
         ("state", "dim") + acceptance.GNS_RESIDUALS + ("cyclic",))
def gns(cfg, seed):
    """GNS construction for built-in or file-given states."""
    states = acceptance.gns_states()
    if cfg["algebra_file"] is not None:
        try:
            a, omega = formats.load_algebra(cfg["algebra_file"])
            if omega is None:
                raise formats.FormatError("algebra file has no omega record")
            al.AlgebraState(a, omega)
        except al.AlgebraError as e:
            _fail(2, "algebra file rejected: %s" % e)
        states = [("file", a, omega)]
    reps, ok = acceptance.gns_check(states)
    rows = [(name, rep["dim"]) + tuple(rep[k] for k in acceptance.GNS_RESIDUALS)
            + (rep["cyclic"],) for (name, _, _), rep in zip(states, reps)]
    lines = ["%-22s dim %d  worst residual %.2e  cyclic %s"
             % (name, dim, max(residuals), cyclic)
             for name, dim, *residuals, cyclic in rows]
    return rows, lines, None if ok else "a GNS residual exceeded 1e-10"


@command({"n": (_int, 64), "dx": (_positive, 0.25),
          "hbar": (_positive, 1.0)},
         QUANTITY, checks={"n": lambda c: al.weyl_grid_check(
             c["n"], c["dx"], c["hbar"])})
def weyl(cfg, seed):
    """Exponentiated commutation relations on a discrete line."""
    r = al.weyl_rep_check(n=cfg["n"], dx=cfg["dx"], hbar=cfg["hbar"])
    worst = max(r["composition_residual"], r["adjoint_residual"])
    rows = [(k, r[k]) for k in ("n", "dx", "composition_residual",
                                "adjoint_residual", "interior_margin_cells",
                                "phase_example")]
    lines = ["phase factor example: %s"
             % formats.fmt_value(r["phase_example"]),
             "worst interior residual: %.2e" % worst]
    return rows, lines, ("Weyl relation residual %.2e exceeds 1e-8" % worst
                         if worst > 1e-8 else None)


# -------------------------------------------------------------- propagators

@command(LATTICE, ("kind", "dt", "dx", "value"), needs_out=True,
         comment=lambda c: "# n_t=%d n_x=%d a_t=%s a_x=%s m=%s" % (
             c["n_t"], c["n_x"], c["a_t"], c["a_x"], c["mass"]))
def propagators(cfg, seed, out):
    """Propagator offset tables for a lattice, with a binary cache."""
    lat, xp, _ = _exact(cfg, seed)
    key = "prop_%d_%d_%s_%s_%s" % (
        lat.n_t, lat.n_x, lat.a_t, lat.a_x, lat.mass)
    cache = os.path.join(out, key.replace("/", "-") + ".npz")
    if os.path.exists(cache):
        # opened here, not by np.load: a plain .npy array has no close()
        with open(cache, "rb") as fh:
            blob = np.load(fh)
            want = {"ret": (lat.n_t, lat.n_x),
                    "wig": (2 * lat.n_t - 1, lat.n_x)}
            got = {k: blob[k].shape for k in want
                   if k in getattr(blob, "files", ())}
            if got != want:
                _fail(2, "propagator cache %s does not fit this lattice: "
                      "arrays %s, expected %s" % (cache, got, want))
            ret, wig = blob["ret"], blob["wig"]
        lines = ["cache hit: %s" % cache]
    else:
        ret, wig = xp.ps.ret_table(), xp.ps.wightman_table()
        np.savez(cache, ret=ret, wig=wig)
        lines = ["cache write: %s" % cache]
    rows = [("retarded", n, dx, ret[n, dx])
            for n in range(lat.n_t) for dx in range(lat.n_x)]
    rows += [("wightman", n, dx, wig[n + lat.n_t - 1, dx])
             for n in range(-(lat.n_t - 1), lat.n_t) for dx in range(lat.n_x)]
    lines.append("tables: retarded (%d x %d), wightman (pm%d x %d)"
                 % (lat.n_t, lat.n_x, lat.n_t - 1, lat.n_x))
    return rows, lines, None


# --------------------------------------------------------------- products

@command({**LATTICE, "n_sites": (_int, 4)}, FUNCTIONAL)
def commutator(cfg, seed):
    """Field commutator against the covariant pairing, term by term."""
    _, xp, (f, g) = _exact(cfg, seed, cfg["n_sites"], cfg["n_sites"])
    comm, val, ok = acceptance.commutator_check(xp, f, g)
    return formats.functional_rows(comm), [
        "[Phi(f), Phi(g)] = i hbar <f, Delta g>, <f, Delta g> = %s" % val,
        "identity holds exactly: %s" % ok], (
        None if ok else "commutator does not equal i hbar <f, Delta g>")


WICK_TERM = ("contractions", "hbar_power", "binding_coefficient", "structure")


@command({**LATTICE, "n_sites": (_int, 2)}, WICK_TERM)
def wick(cfg, seed):
    """Three-term expansion of a product of two quadratic densities."""
    _, xp, (f1, f2) = _exact(cfg, seed, cfg["n_sites"], cfg["n_sites"])
    r, ok = acceptance.wick_check(xp, f1, f2)
    rows = [tuple(term[k] for k in WICK_TERM) for term in r["terms"]]
    return rows, ["normal-ordered coefficients (1, 4, 2); "
                  "term-by-term match: %s" % ok], (
        None if ok else
        "Wick expansion does not match the three-term structure")


@command(LATTICE, ("route",) + FUNCTIONAL)
def tadpole(cfg, seed):
    """Self-contraction cancellation in the dressed pointwise product."""
    _, xp, (f, g) = _exact(cfg, seed, 2, 2)
    r, ok = acceptance.tadpole_check(xp, f, g)
    rows = [(route,) + row for route in ("dressed_h1", "cross_expected_h1")
            for row in formats.functional_rows(r[route])]
    return rows, ["self-line terms cancel at order hbar: %s" % ok], (
        None if ok else "tadpole cancellation failed")


@command(LATTICE, FUNCTIONAL)
def smatrix(cfg, seed):
    """Formal S-matrix of a quartic vertex, term by term."""
    lat, xp, (g,) = _exact(cfg, seed, 1)
    V = interaction_vertex(lat, g, 4)
    S = qz.s_matrix(xp, V)
    ok = S.coefficient(()).coefficient(0, 0) == ExactComplex(1)
    return formats.functional_rows(S), [
        "S = T exp(V) to (hbar<=%d, lambda<=%d); unit at lambda^0: %s"
        % (S.trunc_h, S.trunc_l, ok)], (
        None if ok else "S-matrix lambda^0 term is not the unit")


@command(LATTICE, FUNCTIONAL)
def bogoliubov(cfg, seed):
    """Interacting observable R(F) and the round-trip check."""
    lat, xp, (g, f) = _exact(cfg, seed, 1, 2)
    # no degree cap: the map's intermediate degrees exceed it
    bog = qz.BogoliubovMap(xp, interaction_vertex(lat, g, 4))
    RF, ok = acceptance.round_trip(bog, smeared_field(lat, f))
    return formats.functional_rows(RF), [
        "R(F) terms: %d; Rinv(R(F)) = F exactly: %s" % (len(RF.terms), ok)], (
        None if ok else "Bogoliubov round trip failed")


# ----------------------------------------------------------------- graphs

@command({"n": (_int, 2), "lines": (_int, 4), "d": (_int, 4)},
         ("n_vertices", "total_lines", "graph", "Sym", "div"))
def graphs(cfg, seed):
    """List multigraphs with symmetry factors and divergence degrees."""
    n, d = cfg["n"], cfg["d"]
    rows = [(n, g.total_lines, str(g), gr.symmetry_factor(g),
             gr.divergence_degree(g, d))
            for g in gr.enumerate_graphs(n, cfg["lines"])]
    return rows, ["%d graphs on %d vertices with <= %d lines, d = %d"
                  % (len(rows), n, cfg["lines"], d)], None


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
        return t.scaling_degree(), "symbolic"


def _probe(poly):
    return dist1d.TestFunction1D.from_poly(poly, 0.5, 1.0)


@command({}, QUANTITY, argument="expression")
def extend(cfg, seed, expression):
    """Extend a distribution on the punctured line across the origin.

    EXPRESSION uses the term grammar, e.g. "(x+i0)^-2 + 3/2*delta".
    """
    t = formats.parse_distribution(expression)
    sd, how = _sd_report(t)
    div, order, e1, _, coeffs, resid = acceptance.w_extensions(t)
    rows = [("scaling_degree", sd), ("sd_method", how),
            ("divergence_degree", div), ("extension_order", order),
            ("ambiguity_residual", resid)]
    rows += [("ambiguity_delta_%d" % a, c) for a, c in enumerate(coeffs)]
    rows += [("pairing_%s" % name, e1.pair(_probe(poly)))
             for name, poly in _PROBES]
    return rows, ["sd = %.6f (%s), div = %.6f, extension order %d"
                  % (sd, how, div, order),
                  "two w-projection extensions differ by a local term, "
                  "fit residual %.2e" % resid], None


@command({}, QUANTITY, argument="family_atom")
def ms(cfg, seed, family_atom):
    """Minimal subtraction along an analytic family.

    FAMILY_ATOM is a single term such as "x_+^-1" or "(x+i0)^-2"; the family
    shifts its exponent by the regularization parameter.
    """
    base = formats.parse_distribution(family_atom)
    if len(base.terms) != 1:
        _fail(2, "family seed must be a single term")
    coeff, kind = base.terms[0]
    if kind[0] not in ("halfline", "power_i0"):
        _fail(2, "family seed must be a halfline or (x+-i0) power")
    # both kinds carry the exponent third: (kind, side or sign, a[, log power])
    fam = lambda z: dist1d.SymbolicDistribution1D(
        [(coeff, kind[:2] + (kind[2] + z,) + kind[3:])])
    sd, how = _sd_report(base)
    div = eg.divergence_degree(base)
    rows = [("scaling_degree", sd), ("sd_method", how),
            ("divergence_degree", div)]
    worst_pole, margin, error = 0, math.inf, 0.0
    for name, poly in _PROBES:
        r = eg.analytic_regularization(fam, _probe(poly), pole_cap=3)
        worst_pole = max(worst_pole, r["pole_order"])
        margin = min(margin, r["pole_margin"])
        error = max(error, r["error"])
        rows.append(("pole_order_%s" % name, r["pole_order"]))
        rows.append(("ms_value_%s" % name, r["regular_value"]))
        rows += [("pole_%s_order_%d" % (name, k + 1), c)
                 for k, c in enumerate(r["principal"])]
    return rows, ["sd = %.6f, div = %.6f, max pole order %d, pole margin "
                  "%.1e, worst MS error bound %.1e"
                  % (sd, div, worst_pole, margin, error)], None


# -------------------------------------------------------------- microlocal

@command({"centers": (_floats, (0.0,))},
         ("x", "k_hat", "exponent", "amplitude", "singular"),
         argument="expression")
def wf(cfg, seed, expression):
    """Wavefront set estimate of a 1D distribution expression."""
    est = ml.wf_estimate_1d(formats.parse_distribution(expression),
                            centers=cfg["centers"])
    rows = [(r.center[0], r.direction[0], r.exponent, r.amplitude, r.singular)
            for r in est.rays]
    sing = est.singular()
    lines = ["%d rays probed, %d singular (threshold %.2f)"
             % (len(est.rays), len(sing), est.threshold),
             "%d rays within 0.05 of the threshold, %d within 2x of the "
             "rel_floor test" % (len(est.near_threshold(0.05)),
                                 len(est.near_floor(2.0)))]
    lines += ["  x = %+.3f  k_hat = %+d  exponent %.2f"
              % (r.center[0], int(r.direction[0]), r.exponent) for r in sing]
    return rows, lines, None


def _conformal(x):
    w = math.exp(-0.4 * math.sin(x[0]) * math.cos(x[1]))
    return np.diag([w, -w])


def _metric(name):
    """`metric` = flat | conformal -> the inverse metric (None when flat)."""
    if name not in ("flat", "conformal"):
        raise ValueError("must be flat or conformal")
    return _conformal if name == "conformal" else None


@command({"x0": (_pair, (0.0, 0.0)), "k0": (_pair, (1.0, 1.0)),
          "dt": (_float, 0.01), "n_steps": (_int, 400),
          "metric": (_metric, None),
          "drift_tol": (_float, 1e-8)},
         ("time", "t", "x", "k_t", "k_x", "sigma"))
def flow(cfg, seed):
    """Integrate a null bicharacteristic and report the symbol drift."""
    dt, n_steps, tol = cfg["dt"], cfg["n_steps"], cfg["drift_tol"]
    r, drift = acceptance.flow_drift(cfg["x0"], cfg["k0"], dt, n_steps,
                                     cfg["metric"])
    rows = [(i * dt, x[0], x[1], k[0], k[1], s)
            for i, (x, k, s) in enumerate(zip(r["x"], r["k"], r["sigma"]))]
    return rows, ["sigma drift %.2e per unit time over %d steps (tol %.1e)"
                  % (drift, n_steps, tol)], (
        "symbol drift %.2e exceeds %.1e per unit time" % (drift, tol)
        if drift > tol else None)


# ------------------------------------------------------------------ suite

@command({"only": (_criteria, None)},
         ("criterion", "title", "status", "seconds", "detail"))
def suite(cfg, seed):
    """Run the full acceptance battery and exit nonzero on any failure."""
    results = acceptance.run_all(cfg["only"])
    rows = [(r.index, r.title, "PASS" if r.passed else "FAIL",
             "%.3f" % r.seconds, r.detail) for r in results]
    return rows, [acceptance.report(results)], (
        None if all(r.passed for r in results)
        else "acceptance criteria failed")


if __name__ == "__main__":
    main()
