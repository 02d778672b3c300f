"""Batch command line interface.

Every subcommand reads an optional key=value config file, writes one CSV
artifact into --out (and reads nothing there), and prints a short
human-readable summary.  Artifacts are named {subcommand}_{label}.csv
where the label defaults to a UTC timestamp; pass --label to get stable
filenames.  Artifact content never depends on the clock: the same config
and seed give byte-identical files.

Each subcommand is one function (cfg, seed[, argument]) -> (rows, summary
lines, failure message or None), registered with `command`, which owns
the config, the artifact, the summary and the exit codes.  Checks that a
command shares with the acceptance battery live in acceptance.py.

Exit codes: 0 ok, 2 invalid input (InputError, OSError), 3 a failed check
(CheckFailed, a failure message, a cell not finite), 4 any other error.
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

from . import __version__, CheckFailed, InputError
from .exact import ExactComplex
from .lattice import Lattice1p1, PropagatorSet, ExactPropagators
from .functionals import smeared_field, interaction_vertex
from . import quantization as qz
from . import graphs as gr
from . import dist1d
from . import egrenorm as eg
from . import microlocal as ml
from . import algebra as al
from . import formats
from . import acceptance


def _fail(code, msg):
    click.echo("error: %s" % msg, err=True)
    sys.exit(code)


def _load_cfg(path, keys):
    """The config of a command whose `keys` map each key it reads to
    (convert, default): every value converted once, defaults filled in.  A
    file that will not load, any other key and a value that will not
    convert are config errors (exit 2), raised before any work."""
    cfg = {}
    if path is not None:
        try:
            cfg = formats.load_config(path)
        except (InputError, OSError) as e:
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
    return out


def _guarded(fn):
    """fn(), exiting 2 on invalid input, 3 on a failed check and 4, with
    the traceback, on any other exception (a bug)."""
    try:
        return fn()
    except (InputError, OSError) as e:
        _fail(2, "%s: %s" % (type(e).__name__, e))
    except CheckFailed as e:
        _fail(3, "%s: %s" % (type(e).__name__, e))
    except Exception as e:  # _fail's SystemExit is no Exception
        traceback.print_exc()
        _fail(4, "%s: %s" % (type(e).__name__, e))


@click.group()
@click.version_option(__version__)
def main():
    """Desk-scale perturbative algebraic QFT on a 1+1D lattice."""


def command(keys, header, argument=None, comment=None, may_be_inf=()):
    """Register fn(cfg, seed[, argument]) -> (rows, summary lines,
    failure message or None) as the subcommand named after it.

    `keys` maps each config key to (convert, default) (see _load_cfg).  The
    subcommand loads the config, runs fn under _guarded, writes the rows
    under `header` (after the line `comment(cfg)` if given), echoes the
    summary and the artifact path, and exits 3 with the failure message if
    there is one, else if a cell is not finite: an infinite one outside the
    columns `may_be_inf` overflowed, and a NaN lost its meaning.  `argument`
    names a positional command line argument."""
    def register(fn):
        def run(config_path, out, seed, label, **arg):
            cfg = _load_cfg(config_path, keys)
            os.makedirs(out, exist_ok=True)
            rows, lines, failure = _guarded(lambda: fn(cfg, seed,
                                                       *arg.values()))
            if label is None:
                label = datetime.datetime.now(datetime.timezone.utc).strftime(
                    "%Y%m%dT%H%M%SZ")
            path = os.path.join(out, "%s_%s.csv" % (fn.__name__, label))
            formats.write_csv(path, header, rows,
                              comment(cfg) if comment else None)
            click.echo("\n".join([*lines, "artifact: %s" % path]))
            failure = failure or _non_finite(
                rows, [header.index(c) for c in may_be_inf])
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


def _non_finite(rows, skip):
    """The failure of the first row with an infinite cell outside the
    columns `skip`, else of the rows with a NaN cell, if any."""
    def has(test, row, skip=()):
        return any(isinstance(v, (float, complex)) and test(v)
                   for j, v in enumerate(row) if j not in skip)
    text = lambda row: ",".join(map(formats.fmt_value, row))
    big = [row for row in rows if has(np.isinf, row, skip)]
    nan = [row for row in rows if has(np.isnan, row)]
    if big:  # named by its label, if it leads with one
        return "%s overflows the float range" % (
            big[0][0] if isinstance(big[0][0], str) else text(big[0]))
    if nan:
        return "NaN in %d artifact row(s), the first %s" % (len(nan),
                                                            text(nan[0]))


def _int(v):
    if type(v) is not int:  # int() truncates 2.5
        raise ValueError("want an integer")
    return v


def _at_least(low):
    """An integer key that must be at least `low`."""
    def checked(v):
        if _int(v) < low:
            raise ValueError("want an integer >= %d" % low)
        return v
    return checked


_count = _at_least(1)


def _finite(v):
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("want a finite number")
    return x


def _positive(v):
    x = _finite(v)
    if not x > 0:
        raise ValueError("want a positive finite number")
    return x


def _rational(v):  # as spelled: 1/3 stays exact, and 0.1 is 1/10
    _positive(v)
    return Fraction(str(v))


def _floats(v):
    return tuple(_finite(x) for x in (v if isinstance(v, list) else [v]))


def _pair(v):
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError("want two comma-separated numbers")
    return tuple(_finite(x) for x in v)


def _criteria(v):
    idx = v if isinstance(v, list) else [v]
    if not all(type(i) is int and 1 <= i <= len(acceptance.ALL) for i in idx):
        raise ValueError("criteria are numbered 1-%d" % len(acceptance.ALL))
    return set(idx)


LATTICE = {"n_t": (_int, 12), "n_x": (_int, 8),
           "a_t": (_rational, Fraction(1, 2)),
           "a_x": (_rational, Fraction(1)), "mass": (float, 1.0)}
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
    states = (acceptance.gns_states() if cfg["algebra_file"] is None
              else [("file", formats.load_algebra(cfg["algebra_file"]))])
    reps, ok = acceptance.gns_check(states)
    rows = [(name, rep["dim"]) + tuple(rep[k] for k in acceptance.GNS_RESIDUALS)
            + (rep["cyclic"],) for (name, _), rep in zip(states, reps)]
    lines = ["%-22s dim %d  worst residual %.2e  cyclic %s"
             % (name, dim, max(residuals), cyclic)
             for name, dim, *residuals, cyclic in rows]
    return rows, lines, None if ok else "a GNS residual exceeded %s" % (
        acceptance.tol_text(acceptance.GNS_RESIDUAL_TOL))


@command({"dx": (_rational, 0.25), "hbar": (_rational, 1.0)}, QUANTITY)
def weyl(cfg, seed):
    """Exponentiated commutation relations on a discrete line."""
    r = al.weyl_rep_check(**cfg)
    worst = max(r["composition_residual"], r["adjoint_residual"])
    return list(r.items()), ["phase factor example: %s"
                             % formats.fmt_value(r["phase_example"]),
                             "worst interior residual: %s" % worst], (
        worst and "a Weyl relation is off by %s in its phase argument" % worst)


# -------------------------------------------------------------- propagators

@command(LATTICE, ("kind", "dt", "dx", "value"),
         comment=lambda c: "# n_t=%d n_x=%d a_t=%s a_x=%s m=%s" % (
             c["n_t"], c["n_x"], c["a_t"], c["a_x"], c["mass"]))
def propagators(cfg, seed):
    """Propagator offset tables for a lattice."""
    lat = Lattice1p1(*(cfg[k] for k in LATTICE))
    ps = PropagatorSet(lat)
    ret, wig = ps.ret_table(), ps.wightman_table()
    rows = [("retarded", n, dx, ret[n, dx])
            for n in range(lat.n_t) for dx in range(lat.n_x)]
    rows += [("wightman", n, dx, wig[n + lat.n_t - 1, dx])
             for n in range(-(lat.n_t - 1), lat.n_t) for dx in range(lat.n_x)]
    return rows, ["tables: retarded (%d x %d), wightman (pm%d x %d)"
                  % (lat.n_t, lat.n_x, lat.n_t - 1, lat.n_x)], None


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
    r = qz.wick_theorem_demo(xp, f1, f2)
    ok = r["match"]
    rows = [tuple(term[k] for k in WICK_TERM) for term in r["terms"]]
    return rows, ["normal-ordered coefficients (1, 4, 2); "
                  "term-by-term match: %s" % ok], (
        None if ok else
        "Wick expansion does not match the three-term structure")


@command(LATTICE, ("route",) + FUNCTIONAL)
def tadpole(cfg, seed):
    """Self-contraction cancellation in the dressed pointwise product."""
    _, xp, (f, g) = _exact(cfg, seed, 2, 2)
    r = gr.tadpole_demo(xp, f, g)
    ok = r["self_terms_cancel"]
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


def _causal_pair(rng, lat, xp):
    """Vertex sites a, b, a on an earlier row, with Delta(a, b) != 0, and
    two field sites y on later rows with Delta(b, y) != 0 (so in the future
    of a too), each with a small random weight.  R phi(y) then carries
    [[V_a, V_b], phi(y)] at lambda^2 hbar^2, which kicks applied out of time
    order get wrong.  b is drawn from rows 1 to n_t - 3, where the site
    below it, the one above it and the two beside that one two rows up
    always qualify."""
    n_x = lat.n_x
    b = rng.randrange(n_x, lat.n_sites - 2 * n_x)
    row = b - b % n_x
    a = rng.choice([s for s in range(row) if xp.causal_entry(s, b)])
    ys = rng.sample([y for y in range(row + n_x, lat.n_sites)
                     if xp.causal_entry(b, y)], 2)
    return ({s: acceptance.small_weight(rng) for s in (a, b)},
            {y: acceptance.small_weight(rng) for y in ys})


@command(LATTICE, FUNCTIONAL)
def bogoliubov(cfg, seed):
    """Interacting observable R(F) and the round-trip check, V on two sites
    with a nonzero Dirac kernel between them and F in the future of both."""
    lat = Lattice1p1(*(cfg[k] for k in LATTICE))
    xp = ExactPropagators(lat)
    g, f = _causal_pair(random.Random(seed), lat, xp)
    bog = qz.BogoliubovMap(xp, interaction_vertex(lat, g, 4))
    RF, ok = acceptance.round_trip(bog, smeared_field(lat, f))
    return formats.functional_rows(RF), [
        "R(F) terms: %d; Rinv(R(F)) = F exactly: %s" % (len(RF.terms), ok)], (
        None if ok else "Bogoliubov round trip failed")


# ----------------------------------------------------------------- graphs

@command({"n": (_count, 2), "lines": (_at_least(0), 4), "d": (_int, 4)},
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
    if not t.terms:
        raise InputError("%r is the zero distribution" % expression)
    # the extension runs unit_scaled, its results scaled back: a huge
    # coefficient cannot overflow the pairings or the fit
    scale, t = eg.unit_scaled(t)
    sd, how = _sd_report(t)
    div, order, e1, _, coeffs, resid = acceptance.w_extensions(t)
    rows = [("scaling_degree", sd), ("sd_method", how),
            ("divergence_degree", div), ("extension_order", order),
            ("ambiguity_residual", resid * scale)]
    rows += [("ambiguity_delta_%d" % a, complex(c) * scale)
             for a, c in enumerate(coeffs)]
    values, _ = e1.pair_batch([_probe(poly) for _, poly in _PROBES])
    rows += [("pairing_%s" % name, complex(v) * scale)
             for (name, _), v in zip(_PROBES, values)]
    return rows, ["sd = %.6f (%s), div = %.6f, extension order %d"
                  % (sd, how, div, order),
                  "two w-projection extensions differ by a local term, "
                  "fit residual %.2e" % (resid * scale)], None


@command({}, QUANTITY, argument="family_atom")
def ms(cfg, seed, family_atom):
    """Minimal subtraction along an analytic family.

    FAMILY_ATOM is a single term such as "x_+^-1" or "(x+i0)^-2"; the family
    shifts its exponent by the regularization parameter.
    """
    # the family runs unit_scaled, its results scaled back: a huge
    # coefficient cannot overflow the circle samples
    scale, base = eg.unit_scaled(formats.parse_distribution(family_atom))
    fam = dist1d.exponent_family(base)
    sd, how = _sd_report(base)
    div = eg.divergence_degree(base)
    rows = [("scaling_degree", sd), ("sd_method", how),
            ("divergence_degree", div)]
    worst_pole, margin, error = 0, math.inf, 0.0
    for name, poly in _PROBES:
        r = eg.analytic_regularization(fam, _probe(poly),
                                     pole_cap=eg.MS_POLE_CAP)
        worst_pole = max(worst_pole, r["pole_order"])
        margin = min(margin, r["pole_margin"])
        error = max(error, r["error"] * scale)
        rows.append(("pole_order_%s" % name, r["pole_order"]))
        rows.append(("ms_value_%s" % name, r["regular_value"] * scale))
        rows += [("pole_%s_order_%d" % (name, k + 1), c * scale)
                 for k, c in enumerate(r["principal"])]
    return rows, ["sd = %.6f, div = %.6f, max pole order %d, pole margin "
                  "%.1e, worst MS error bound %.1e"
                  % (sd, div, worst_pole, margin, error)], None


# -------------------------------------------------------------- microlocal

@command({"centers": (_floats, (0.0,))},
         ("x", "k_hat", "exponent", "amplitude", "singular"),
         argument="expression", may_be_inf=("exponent",))
def wf(cfg, seed, expression):
    """Wavefront set estimate of a 1D distribution expression."""
    est = ml.wf_estimate_1d(formats.parse_distribution(expression),
                            centers=cfg["centers"])
    rows = [(r.center[0], r.direction[0], r.exponent, r.amplitude, r.singular)
            for r in est.rays]
    sing = est.singular()
    lines = ["%d rays probed, %d singular (threshold %.2f)"
             % (len(est.rays), len(sing), est.threshold),
             "%d rays within %g of the threshold, %d within %gx of the "
             "rel_floor test" % (len(est.near_threshold()), ml.NEAR_BAND,
                                 len(est.near_floor()), ml.NEAR_FACTOR)]
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
          "dt": (_positive, 0.01), "n_steps": (_count, 400),
          "metric": (_metric, None),
          "drift_tol": (_positive, acceptance.FLOW_DRIFT_TOL)},
         ("time", "t", "x", "k_t", "k_x", "sigma"))
def flow(cfg, seed):
    """Integrate a null bicharacteristic and report the symbol drift."""
    dt, n_steps, tol = cfg["dt"], cfg["n_steps"], cfg["drift_tol"]
    r, drift = acceptance.flow_drift(cfg["x0"], cfg["k0"], dt, n_steps,
                                     cfg["metric"])
    rows = [(i * dt, x[0], x[1], k[0], k[1], s)
            for i, (x, k, s) in enumerate(zip(r["x"], r["k"], r["sigma"]))]
    capped = r["fixpoint_capped"]
    failures = ["symbol drift %.2e exceeds %.1e per unit time" % (drift, tol)
                ] if not drift <= tol else []  # a NaN drift fails
    if capped:
        failures.append("%d of %d steps hit the fixed-point cap unconverged"
                        % (capped, n_steps))
    return rows, ["sigma drift %.2e per unit time over %d steps (tol %.1e)"
                  % (drift, n_steps, tol),
                  "%d steps hit the fixed-point cap" % capped,
                  "%.2f fixed-point iterations per step"
                  % (r["iterations"] / n_steps)], (
        "; ".join(failures) or None)


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
