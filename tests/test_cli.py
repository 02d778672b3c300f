"""End-to-end command line checks through click's test runner."""
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from paqft import cli
from paqft import algebra as al
from paqft import acceptance
from paqft.dist1d import QuadratureWarning


RUNNER = CliRunner()


def run(args, expect=0):
    result = RUNNER.invoke(cli.main, args)
    if result.exit_code != expect:  # pragma: no cover - debugging aid
        raise AssertionError(
            "exit %d != %d for %r\noutput:\n%s\nexception: %r"
            % (result.exit_code, expect, args, result.output,
               result.exception))
    return result


def small_cfg(tmp_path, extra=""):
    p = tmp_path / "small.cfg"
    p.write_text("n_t = 8\nn_x = 4\na_t = 1/2\na_x = 1\n" + extra)
    return str(p)


def csv_lines(path):
    return path.read_text().splitlines()


# --------------------------------------------------------------------------
# plain runs of every subcommand

def test_gns_builtin_states(tmp_path):
    res = run(["gns", "--out", str(tmp_path), "--label", "t"])
    assert "M2 tracial state" in res.output
    lines = csv_lines(tmp_path / "gns_t.csv")
    assert lines[0].startswith("state,dim,")
    assert len(lines) == 4


def test_weyl_report(tmp_path):
    res = run(["weyl", "--out", str(tmp_path), "--label", "t"])
    assert "worst interior residual" in res.output
    lines = csv_lines(tmp_path / "weyl_t.csv")
    assert lines[0] == "quantity,value"
    assert any(l.startswith("composition_residual,") for l in lines)


def test_weyl_fails_only_when_a_relation_is_not_equal(tmp_path, monkeypatch):
    report = al.weyl_rep_check(0.25, 1.0)
    monkeypatch.setattr(cli.al, "weyl_rep_check", lambda **kw: dict(
        report, adjoint_residual=Fraction(1, 4)))
    res = run(["weyl", "--out", str(tmp_path)], expect=3)
    assert "a Weyl relation is off by 1/4 in its phase argument" in res.output


def test_propagators_cache_and_header(tmp_path):
    cfg = small_cfg(tmp_path)
    for label in "ab":
        run(["propagators", "--config", cfg, "--out", str(tmp_path),
             "--label", label])
    a = (tmp_path / "propagators_a.csv").read_bytes()
    b = (tmp_path / "propagators_b.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0].startswith(b"# n_t=8 n_x=4")


def test_spacings_are_read_as_written(tmp_path):
    """a_t = 0.1 and a_x = 0.8 build the lattice of 1/10 and 4/5, not of
    the floats nearest them, and the comment line says so; the table rows
    are those of a_t = 1/10, a_x = 4/5, since float(1/10) == 0.1."""
    out = {}
    for label, a_t, a_x in (("dec", "0.1", "0.8"), ("frac", "1/10", "4/5")):
        cfg = tmp_path / (label + ".cfg")
        cfg.write_text("n_t = 8\nn_x = 4\na_t = %s\na_x = %s\n" % (a_t, a_x))
        run(["propagators", "--config", str(cfg), "--out", str(tmp_path),
             "--label", label])
        out[label] = csv_lines(tmp_path / ("propagators_%s.csv" % label))
    assert out["dec"][0] == "# n_t=8 n_x=4 a_t=1/10 a_x=4/5 m=1.0"
    assert out["dec"] == out["frac"]


def test_propagators_write_one_file(tmp_path):
    """Into an empty --out, the CSV is the one file written."""
    run(["propagators", "--config", small_cfg(tmp_path), "--out",
         str(tmp_path / "out"), "--label", "t"])
    assert ([p.name for p in (tmp_path / "out").iterdir()]
            == ["propagators_t.csv"])


def _npz(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# files under the names of the former binary cache (prop_v2_*) and of its
# untagged predecessor (prop_*): readable or not, fitting or not, each one
# is left as it is and no table is taken from it
STALE_CACHES = {
    "older format": ("prop_8_4_1-2_1_1.0.npz", _npz(ret=np.zeros((8, 4)))),
    "misshapen": ("prop_v2_8_4_1-2_1_1.0.npz",
                  _npz(ret=np.zeros((4, 4)), wig=np.zeros((15, 4)))),
    "one table": ("prop_v2_8_4_1-2_1_1.0.npz", _npz(ret=np.zeros((8, 4)))),
    "fits, wrong values": ("prop_v2_8_4_1-2_1_1.0.npz",
                           _npz(ret=np.zeros((8, 4)), wig=np.ones((15, 4)))),
    "no archive": ("prop_v2_8_4_1-2_1_1.0.npz", _npy(np.zeros((8, 4)))),
    "zip header": ("prop_v2_8_4_1-2_1_1.0.npz",
                   b"PK\x03\x04" + bytes(range(256))),
    "no zip": ("prop_v2_8_4_1-2_1_1.0.npz", bytes(range(256))),
    "empty": ("prop_v2_8_4_1-2_1_1.0.npz", b""),
}


@pytest.mark.parametrize("kind", sorted(STALE_CACHES))
def test_propagators_read_no_file_left_in_out(tmp_path, kind):
    """A file left in --out where the binary cache used to be is neither
    read (exit 0, the same CSV bytes as into an empty --out) nor changed."""
    cfg = small_cfg(tmp_path)
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    run(["propagators", "--config", cfg, "--out", str(fresh),
         "--label", "t"])
    name, blob = STALE_CACHES[kind]
    stale.mkdir()
    (stale / name).write_bytes(blob)
    run(["propagators", "--config", cfg, "--out", str(stale),
         "--label", "t"])
    assert (stale / name).read_bytes() == blob
    assert sorted(p.name for p in stale.iterdir()) == sorted(
        [name, "propagators_t.csv"])
    assert ((stale / "propagators_t.csv").read_bytes()
            == (fresh / "propagators_t.csv").read_bytes())


def test_commutator_deterministic_across_runs(tmp_path):
    cfg = small_cfg(tmp_path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        res = run(["commutator", "--config", cfg, "--out", str(d),
                   "--seed", "3", "--label", "t"])
        assert "identity holds exactly: True" in res.output
    assert (d1 / "commutator_t.csv").read_bytes() \
        == (d2 / "commutator_t.csv").read_bytes()


def test_wick_three_terms(tmp_path):
    cfg = small_cfg(tmp_path)
    res = run(["wick", "--config", cfg, "--out", str(tmp_path),
               "--label", "t"])
    assert "term-by-term match: True" in res.output
    lines = csv_lines(tmp_path / "wick_t.csv")
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]


def test_tadpole_cancellation(tmp_path):
    cfg = small_cfg(tmp_path)
    res = run(["tadpole", "--config", cfg, "--out", str(tmp_path),
               "--label", "t"])
    assert "cancel at order hbar: True" in res.output
    lines = csv_lines(tmp_path / "tadpole_t.csv")
    assert lines[0].startswith("route,degree,")


def test_smatrix_unit(tmp_path):
    cfg = small_cfg(tmp_path)
    res = run(["smatrix", "--config", cfg, "--out", str(tmp_path),
               "--label", "t"])
    assert "unit at lambda^0: True" in res.output


def test_bogoliubov_roundtrip(tmp_path):
    cfg = small_cfg(tmp_path)
    res = run(["bogoliubov", "--config", cfg, "--out", str(tmp_path),
               "--label", "t"])
    assert "Rinv(R(F)) = F exactly: True" in res.output


# sha256 of every artifact at --seed 5.  The exact ones (commutator to
# bogoliubov, default lattice) were taken from the all-Fraction contraction
# code that the integer engine replaced: any change to an exact coefficient
# changes these bytes.  The others were taken before the CLI and the
# acceptance battery were made to share one function per check; each was
# byte-identical across repeated runs.  `ms` and `wf` were taken again when
# the circle samples of a minimal subtraction and the waves of a WF ladder
# came to share one quadrature run each: values moved in their last digits
# only (MS values by <= 2e-16, WF exponents by <= 6e-14 and amplitudes by
# <= 1e-15 relative); pole orders and flags did not.  `ms` was taken once
# more when minimal subtraction moved from a least-squares fit to trapezoid
# sums on two circles of 16 samples: MS values moved by <= 8.7e-15, inside
# their reported error, residues by <= 1e-16; pole orders did not.  `extend`
# was taken again when the probes of an extension fit, the scales of a
# scaling-degree regression and the named probes came to be paired in one
# batch each, sharing one set of quadrature intervals: the regression degree
# moved by 6.7e-16, the fit coefficients by <= 6.7e-16 (fit residual
# 1.8e-15 -> 3.6e-15) and pairing_plateau by 2.2e-16 (error estimate
# 2.8e-14); the two other pairings did not move.  `ms` was taken a third
# time when each circle's lower half became the exact conjugate of its upper
# half (samples moved by <= 5.1e-17) and a real test function's conjugate
# samples came to be paired once: MS values moved by <= 1.7e-15, inside
# their reported error bounds of 5.6e-14 to 2.6e-13, residues by <= 2.3e-16;
# pole orders did not.  `extend` was taken a third time when every kind
# came to pair as a combination of the two half-line pairings, integer
# (x +- i0)^-n as the symmetric finite part of x^-n from both sides less
# its residue: scaling_degree moved 2.0000000000000004 -> 2.000000000000001,
# ambiguity_delta_0 -1.421097540807104 -> -1.4210975408071043 and
# ambiguity_delta_1 -3.2016185557179397e-16 -> -2.7603372461690616e-16 (old
# sha256 479bb9c8...); the fit residual and the three pairings did not move.
# `weyl` was taken again when the Weyl relations came to be decided on exact
# (shift, beta, theta) triples instead of dense float matrices:
# composition_residual moved 3.1401849173675503e-16 -> 0 and
# adjoint_residual 1.6653345369377348e-16 -> 0 (old sha256 2c1acc20...); the
# n, dx, interior_margin_cells and phase_example cells did not move.  It was
# taken a third time when the `n` key went, as the triples do not read it:
# the row `n,64` went, and no other cell moved (old sha256 332f8c1b...).
# `wf` was taken again when each wave ladder's quadrature came to start on
# one panel per period of the ladder's top frequency: two exponent cells
# moved, 1.4463182413434783 -> 1.4463182413433386 and
# -0.0012842423981034253 -> -0.0012842423981034475 (old sha256 e64f5837...);
# amplitudes and flags did not.  `bogoliubov` was taken again when its
# vertex moved from one drawn site to two with a nonzero Dirac kernel
# between them, F on two later sites in the future of both, so that the
# kicks' time order shows at lambda^2 hbar^2 (old sha256 e33eeb64...): every
# row moved, as the draw changed (V on (4,0) and (5,0), F on (7,0) and
# (10,6); was V on (9,7), F on (7,3) and (11,0)), and R(F) went from 3
# terms to 5, one of them the lambda^2 hbar^2 term on both vertex sites.
# `extend` was taken a fourth time and `ms` a fourth time when each half-line
# run came to start on panels cut to 1/8 of its window transitions, and the
# Taylor remainder came to be formed as the tail polynomial plus the atoms
# times W - 1.  `extend` (old sha256 0528f79a...): scaling_degree
# 2.000000000000001 -> 2.0000000000000004, ambiguity_residual
# 3.552713678800501e-15 -> 1.7763568394002505e-15, ambiguity_delta_0
# -1.4210975408071043 -> -1.4210975408071047, ambiguity_delta_1
# -2.7603372461690616e-16 -> -2.656965437347211e-16, pairing_poly_1_x
# 0.6748565957413009 -> 0.6748565957413007 and pairing_poly_quad
# 0.6374282978706505 -> 0.6374282978706504 (error estimates 3.3e-14 and
# 2.2e-14).  `ms` (old sha256 bcf5b26a...): pole_poly_quad_order_1
# 0.4999999999999998+2.168404344971009e-19i ->
# 0.4999999999999998-2.168404344971009e-19i (MS error bound 5.6e-14); no
# MS value and no pole order moved.
# `suite` is hashed without its `seconds` column, which is a wall-clock time.
PINNED = {
    "commutator":
        "978e1ff2c7583ad01ef713faedfbf80ac04fee6c9f05f0e2094579ed2870f978",
    "wick":
        "74cd1e0310ffc9c29e8647e728a25dee908d68f8731e95b36a00522801923b70",
    "tadpole":
        "eb71f73a5e8310117469cc3f67e2d89a105a8a84cfa778f2c71b319497c284cc",
    "smatrix":
        "ad3caaaf1f6a3aef7e57273c9d1584d9451ccc96aba10592fdaaea347de7d2f4",
    "bogoliubov":
        "2f80d9576233a9cc8c7e03e4a76aa0ac48c7abb0739ab8a1164cdca3eb8a2e3f",
    "gns":
        "6092a52a3ecee58f57dc88e74adf5098de275594bfbb10ef0801f4d600fd7208",
    "weyl":
        "fede6982ce34595b725e45bf9e92488e8de605ceecdad9b9d760dfa396aed1f9",
    "flow":
        "be1f9404440ef48bcd864a485b6c2dcc7f81b304e4732e8c66b1e678d80ce38d",
    "propagators":
        "2f5f9aa6da4cee2a65d8758864361a558f90ecf09d2deb9441d82254012d3275",
    "graphs":
        "069b10b7b2220d1e335947db3971ea5165f0e6e7a32b8d604f70de1dc3ca28d8",
    "extend":
        "8ea37940edee2af8f91b26af5d3deb1544ed943ecf15ec12d8bffcf9a76fc4a8",
    "ms":
        "5c543e06ab8b944e44954d86c6b7a5dbdfa7d4809a10482cc16fc1fbe681cdbe",
    "wf":
        "aeea68a61f211227a708d5547f27fdb08ddcde410b77377c8de71871e85725aa",
    "suite":
        "4f6a7a48e11ef24e96615ad68b5d79a8342864a36c25b4c599bc6782c8ce69f7",
}

# (argument, config file text) of the pinned runs that are not at defaults
PIN_INPUTS = {
    "propagators": (None, "n_t = 8\nn_x = 4\na_t = 1/2\na_x = 1\n"),
    "graphs": (None, "n = 2\nlines = 3\nd = 4\n"),
    "extend": ("(x+i0)^-2", None),
    "ms": ("x_+^-1", None),
    "wf": ("(x+i0)^-1 + 1/2*heaviside", None),
    "suite": (None, "only = 5, 10\n"),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_exact_artifacts_are_pinned(tmp_path, command):
    arg, text = PIN_INPUTS.get(command, (None, None))
    args = [command] + ([arg] if arg else [])
    if text:
        cfg = tmp_path / "pin.cfg"
        cfg.write_text(text)
        args += ["--config", str(cfg)]
    run(args + ["--out", str(tmp_path), "--seed", "5", "--label", "pin"])
    data = (tmp_path / ("%s_pin.csv" % command)).read_bytes()
    if command == "suite":
        rows = [line.split(b",") for line in data.splitlines(keepends=True)]
        drop = rows[0].index(b"seconds")
        data = b"".join(b",".join(r[:drop] + r[drop + 1:]) for r in rows)
    got = hashlib.sha256(data).hexdigest()
    assert got == PINNED[command], "%s artifact: sha256 %s, pinned %s" % (
        command, got, PINNED[command])


def test_graphs_listing(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("n = 2\nlines = 3\nd = 4\n")
    res = run(["graphs", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"])
    lines = csv_lines(tmp_path / "graphs_t.csv")
    # one pair of vertices: multiplicity 0..3
    assert len(lines) == 5
    assert "4 graphs" in res.output


def test_extend_pole_expression(tmp_path):
    res = run(["extend", "(x+i0)^-2", "--out", str(tmp_path),
               "--label", "t"])
    assert re.search(r"sd = 2\.0\d* \(regression\)", res.output)
    assert "extension order 1" in res.output
    lines = csv_lines(tmp_path / "extend_t.csv")
    assert any(l.startswith("ambiguity_delta_1,") for l in lines)


@pytest.mark.parametrize("expr", ["(x+i0)^-3", "(x-i0)^-3"])
def test_extend_of_a_cubic_pole_meets_its_tolerances(tmp_path, expr):
    """The regression's smallest scale (plateau 2^-9) once stopped at the
    400-interval limit, twice per command: its Taylor remainder, formed as
    f less its Taylor polynomial, carried rounding of about eps |f| / x^3
    into the run's integrand."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(["extend", expr, "--out", str(tmp_path)])
    assert [str(w.message) for w in caught
            if issubclass(w.category, QuadratureWarning)] == []


def test_extend_takes_delta_orders_above_two(tmp_path):
    res = run(["extend", "delta^3", "--out", str(tmp_path)])
    assert "sd = 4.000000 (regression), div = 3.000000" in res.output
    res = run(["extend", "delta^100", "--out", str(tmp_path)], expect=3)
    assert ("ExtensionError: scaling regression: the scaled pairings of "
            "delta^100 overflow the float range") in res.output


@pytest.mark.parametrize("expr, sd", [("delta^3 + (x+i0)^-2", "4.000000"),
                                      ("x_+^-0.5 + delta", "1.000000")])
def test_extend_reports_the_largest_degree_of_a_sum(tmp_path, expr, sd):
    # one regression of the whole sum read a slope between its terms'
    # degrees: 3.887895 and 0.850033
    res = run(["extend", expr, "--out", str(tmp_path)])
    assert "sd = %s (regression)" % sd in res.output


def test_extend_falls_back_to_symbolic_degree(tmp_path):
    res = run(["extend", "x_+^-1", "--out", str(tmp_path), "--label", "t"])
    assert "(symbolic)" in res.output


def test_extend_below_zero_divergence_passes_no_projection(tmp_path,
                                                           monkeypatch):
    from paqft import egrenorm as eg
    given = []

    def recording_extend(t, w_alphas=None):
        given.append(w_alphas)
        return real_extend(t, w_alphas)
    real_extend = eg.extend
    monkeypatch.setattr(eg, "extend", recording_extend)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run(["extend", "x_+^-0.5", "--out", str(tmp_path),
                   "--label", "t"])
    assert [str(w.message) for w in caught] == []
    assert given == [None, None]
    assert "div = -0.500000, extension order 0" in res.output


def test_ms_family(tmp_path):
    res = run(["ms", "x_+^-1", "--out", str(tmp_path), "--label", "t"])
    assert "max pole order 1" in res.output
    lines = csv_lines(tmp_path / "ms_t.csv")
    assert any(l.startswith("ms_value_plateau,") for l in lines)
    assert any(l.startswith("pole_plateau_order_1,") for l in lines)


def test_wf_delta(tmp_path):
    res = run(["wf", "delta", "--out", str(tmp_path), "--label", "t"])
    assert "2 singular" in res.output
    lines = csv_lines(tmp_path / "wf_t.csv")
    assert lines[0] == "x,k_hat,exponent,amplitude,singular"
    assert len(lines) == 3


def test_wf_reports_margins(tmp_path):
    from paqft import formats, microlocal as ml
    expr = "(x+i0)^-1 + 1/2*heaviside"
    res = run(["wf", expr, "--out", str(tmp_path), "--label", "t"])
    wf = ml.wf_estimate_1d(formats.parse_distribution(expr))
    assert ("%d rays within 0.05 of the threshold, %d within 2x of the "
            "rel_floor test" % (len(wf.near_threshold()),
                                len(wf.near_floor()))) in res.output
    res = run(["wf", "delta^1", "--out", str(tmp_path), "--label", "t"])
    assert ("0 rays within 0.05 of the threshold, 0 within 2x of the "
            "rel_floor test") in res.output
    assert csv_lines(tmp_path / "wf_t.csv")[0] == \
        "x,k_hat,exponent,amplitude,singular"


def test_wf_centers_from_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("centers = 0.0, 2.0\n")
    res = run(["wf", "delta", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"])
    assert "4 rays probed, 2 singular" in res.output


def test_flow_flat_null(tmp_path):
    res = run(["flow", "--out", str(tmp_path), "--label", "t"])
    assert "sigma drift 0.00e+00" in res.output
    assert "0 steps hit the fixed-point cap" in res.output
    assert "1.00 fixed-point iterations per step" in res.output
    lines = csv_lines(tmp_path / "flow_t.csv")
    assert lines[0] == "time,t,x,k_t,k_x,sigma"
    assert len(lines) == 402


def test_suite_single_criterion(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("only = 5, 10\n")
    res = run(["suite", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"])
    assert "AC05 PASS" in res.output and "AC10 PASS" in res.output
    lines = csv_lines(tmp_path / "suite_t.csv")
    assert len(lines) == 3


def test_a_criterion_that_raises_keeps_the_report(tmp_path, monkeypatch):
    # no intertwiner meets a zero tolerance: AC12 raises NoIntertwiner, and
    # its line fails while the other twelve criteria still run and pass
    monkeypatch.setattr(al, "INTERTWINER_TOL", 0)
    res = run(["suite", "--out", str(tmp_path), "--label", "t"], expect=3)
    rows = csv_lines(tmp_path / "suite_t.csv")[1:]
    assert len(rows) == 13
    status = {int(r.split(",")[0]): r.split(",")[2] for r in rows}
    assert status == {i: "FAIL" if i == 12 else "PASS" for i in range(1, 14)}
    assert "NoIntertwiner" in rows[11]
    assert "AC12 FAIL" in res.output and "12/13 criteria passed" in res.output


def test_default_label_is_a_timestamp(tmp_path):
    run(["weyl", "--out", str(tmp_path)])
    names = [p.name for p in tmp_path.iterdir()]
    assert any(re.fullmatch(r"weyl_\d{8}T\d{6}Z\.csv", n) for n in names)


# --------------------------------------------------------------------------
# exit codes

def test_missing_config_is_a_config_error(tmp_path):
    res = run(["weyl", "--config", str(tmp_path / "nope.cfg")], expect=2)
    assert "bad config" in res.output


@pytest.mark.parametrize("command, text", [
    ("graphs", "n = 2\nlinez = 9\n"),
    ("commutator", "n_t = 8\nn_x = 4\nmas = 2\n"),
    ("weyl", "n = 64\n"),  # the grid size the triples never read
])
def test_unknown_config_key_is_a_config_error(tmp_path, command, text):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    res = run([command, "--config", str(cfg), "--out", str(tmp_path)],
              expect=2)
    assert "unknown key" in res.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, text", [
    ("graphs", "n = two\n"),
    ("suite", "only = 14\n"),
    ("suite", "only = 0\n"),
    ("suite", "only = five\n"),
    ("suite", "only = yes\n"),
    ("suite", "only = 2.5\n"),
    ("weyl", "dx = 0\n"),
    ("weyl", "dx = -0.25\n"),
    ("weyl", "hbar = nan\n"),
    ("commutator", "n_t = 17/2\n"),
    ("graphs", "lines = on\n"),
    ("flow", "n_steps = 12.5\n"),
    ("commutator", "a_t = yes\n"),
    ("commutator", "a_t = 1/0\n"),
    ("commutator", "a_t = inf\n"),
    ("commutator", "mass = on\n"),
    ("flow", "k0 = 1.0, yes\n"),
    ("flow", "k0 = 1.0, inf\n"),
    ("flow", "x0 = nan, 0.0\n"),
    ("flow", "dt = nan\n"),
    ("flow", "dt = 0\n"),
    ("flow", "n_steps = -5\n"),
    ("flow", "n_steps = 0\n"),
    ("flow", "drift_tol = nan\n"),
    ("flow", "drift_tol = -1\n"),
    ("wf delta", "centers = nan\n"),
    ("wf delta", "centers = 0.0, inf\n"),
    ("graphs", "n = 0\n"),
    ("graphs", "n = -1\n"),
    ("graphs", "lines = -2\n"),
])
def test_bad_config_value_is_a_config_error(tmp_path, command, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    res = run([*command.split(), "--config", str(cfg), "--out",
               str(tmp_path)], expect=2)
    key = text.split(" =")[0]
    assert "bad config %s: key %s = " % (cfg, key) in res.output
    if key == "only":
        assert "criteria are numbered 1-13" in res.output
    assert "AC" not in res.output  # rejected before any work
    assert not list(tmp_path.glob("*.csv"))


def test_readme_lists_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \|", readme, flags=re.M)
    assert sorted(listed) == sorted(cli.main.commands)
    assert len(listed) == len(set(listed))


def test_unstable_lattice_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_t = 8\nn_x = 4\na_t = 2\na_x = 1\n")
    run(["commutator", "--config", str(cfg), "--out", str(tmp_path)],
        expect=2)


def test_bad_expression_is_a_config_error(tmp_path):
    res = run(["extend", "wobble^2", "--out", str(tmp_path)], expect=2)
    assert "cannot parse" in res.output


def test_ms_rejects_non_power_seed(tmp_path):
    res = run(["ms", "delta", "--out", str(tmp_path)], expect=2)
    assert ("InputError: an exponent family needs one halfline or "
            "(x+-i0)^a term, not [('delta', 0)]") in res.output
    res = run(["ms", "x_+^-1 + delta", "--out", str(tmp_path)], expect=2)
    assert "('halfline', 1, (-1+0j), 0), ('delta', 0)]" in res.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("expr", ["(x+i0)^-2", "x_+^-0.5",
                                  "delta + 2*x_+^-0.5"])
def test_wf_rejects_a_term_without_a_wave_pairing(tmp_path, monkeypatch,
                                                  expr):
    monkeypatch.setattr(cli.ml, "_pair_wave_1d",
                        lambda *a, **kw: pytest.fail("pairing ran"))
    res = run(["wf", expr, "--out", str(tmp_path)], expect=2)
    term = {"(x+i0)^-2": "('power_i0', 1, (-2+0j))"}.get(
        expr, "('halfline', 1, (-0.5+0j), 0)")
    assert "NoWavePairing: no wave pairing for the term %s" % term \
        in res.output
    assert not list(tmp_path.glob("*.csv"))


def _centres_cfg(tmp_path, centres):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("centers = %s\n" % centres)
    return str(cfg)


@pytest.mark.parametrize("expr", ["delta^1", "(x-i0)^-1"])
def test_wf_rejects_a_centre_in_the_window_annulus(tmp_path, monkeypatch,
                                                   expr):
    # 0.25 < |0.3| < 0.5: the window's value at the singularity is neither
    # 1 nor 0, so the pairing would fail; the centre is a config error
    monkeypatch.setattr(cli.ml, "_pair_wave_1d",
                        lambda *a, **kw: pytest.fail("pairing ran"))
    res = run(["wf", expr, "--config", _centres_cfg(tmp_path, "0.0, 0.3"),
               "--out", str(tmp_path)], expect=2)
    assert ("WindowTooWide: centre 0.3 lies in the window's transition "
            "annulus") in res.output
    assert not list(tmp_path.glob("*.csv"))


def test_wf_rejects_a_centre_whose_top_wave_phase_is_off(tmp_path,
                                                       monkeypatch):
    """At 1e10 the top wave's phase is good only to 1e-3: once a constant
    came out singular there; now the centre is refused before any pairing."""
    monkeypatch.setattr(cli.ml, "_pair_wave_1d",
                        lambda *a, **kw: pytest.fail("pairing ran"))
    res = run(["wf", "x^0", "--config", _centres_cfg(tmp_path, "1e10"),
               "--out", str(tmp_path)], expect=2)
    assert ("InputError: centre 10000000000.0: the top wave k = 512 has "
            "phase error 0.000977 there") in res.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("expr, centre", [
    ("delta^1", "0.25"), ("delta^1", "-0.5"), ("(x-i0)^-1", "0.25"),
    ("(x-i0)^-1", "0.5"), ("x^2", "0.3"), ("heaviside", "0.3")])
def test_wf_pairs_at_the_annulus_edges_and_for_smooth_terms(tmp_path, expr,
                                                            centre):
    res = run(["wf", expr, "--config", _centres_cfg(tmp_path, centre),
               "--out", str(tmp_path)])
    assert "2 rays probed" in res.output


def test_extend_rejects_the_zero_distribution(tmp_path):
    res = run(["extend", "0*delta", "--out", str(tmp_path)], expect=2)
    assert "'0*delta' is the zero distribution" in res.output


@pytest.mark.parametrize("expr", ["delta - delta",
                                  "1/2*x^1 + delta - delta - 1/2*x^1"])
def test_extend_rejects_terms_that_cancel(tmp_path, expr):
    res = run(["extend", expr, "--out", str(tmp_path)], expect=2)
    assert "%r is the zero distribution" % expr in res.output


@pytest.mark.parametrize("command, expr", [
    ("wf", "nan*delta"), ("ms", "inf*x_+^-1"), ("extend", "nan*delta"),
    ("extend", "1e400*delta"), ("ms", "1e308*x_+^-1 + 1e308*x_+^-1")])
def test_non_finite_coefficients_are_config_errors(tmp_path, command, expr):
    res = run([command, expr, "--out", str(tmp_path)], expect=2)
    assert "FormatError" in res.output and "not finite" in res.output


@pytest.mark.parametrize("command, expr", [
    ("ms", "x_+^-" + "9" * 400), ("extend", "(x+i0)^-" + "9" * 400)])
def test_non_finite_exponents_are_config_errors(tmp_path, command, expr):
    """An exponent beyond the float range would become inf; it is rejected
    as written instead of overflowing inside the computation (exit 4)."""
    res = run([command, expr, "--out", str(tmp_path)], expect=2)
    assert "FormatError" in res.output and "not a finite number" in res.output


def test_like_terms_merge_into_one_ms_family_seed(tmp_path):
    run(["ms", "2*x_+^-1", "--out", str(tmp_path), "--label", "a"])
    run(["ms", "x_+^-1 + x_+^-1", "--out", str(tmp_path), "--label", "b"])
    assert (tmp_path / "ms_a.csv").read_bytes() \
        == (tmp_path / "ms_b.csv").read_bytes()


@pytest.mark.parametrize("expr", ["1.7e308*(x+i0)^-2", "1e308*x_+^-2"])
def test_a_nan_result_is_a_check_failure(tmp_path, monkeypatch, expr):
    """A NaN in an artifact row exits 3, whatever computed it; here the
    ambiguity fit of `extend` is made to return one.  Next to a row that
    overflows, the overflow is the failure named."""
    fit = cli.acceptance.w_extensions
    monkeypatch.setattr(cli.acceptance, "w_extensions",
                        lambda t: fit(t)[:-1] + (math.nan,))
    res = run(["extend", expr, "--out", str(tmp_path)], expect=3)
    assert {"1.7e308*(x+i0)^-2": "ambiguity_delta_0 overflows the float range",
            "1e308*x_+^-2": "NaN in 1 artifact row(s), the first "
                            "ambiguity_residual,nan"}[expr] in res.output


def test_extend_near_the_float_limit_runs_unit_scaled(tmp_path):
    """`extend` pairs and fits t over the power of two at its largest
    coefficient and scales the results back, as `ms` does, so a coefficient
    near the float limit no longer overflows the fit to NaN: a result in
    range is the unit result scaled, one past it exits 3 by name."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no raw overflow warning either
        run(["extend", "1e308*x_+^-2", "--out", str(tmp_path), "--label",
             "big"])
        run(["extend", "x_+^-2", "--out", str(tmp_path), "--label", "one"])
        res = run(["extend", "1.7e308*(x+i0)^-2", "--out", str(tmp_path)],
                  expect=3)
    assert "ambiguity_delta_0 overflows the float range" in res.output
    big = quantities(tmp_path / "extend_big.csv")
    one = quantities(tmp_path / "extend_one.csv")
    assert big.keys() == one.keys()
    for q in big:
        b, o = (complex(v[q].replace("i", "j")) if q != "sd_method"
                else v[q] for v in (big, one))
        if q.startswith(("ambiguity_delta", "pairing")):
            assert b == pytest.approx(1e308 * o, rel=1e-12)
        elif q != "ambiguity_residual":
            assert b == o
    assert complex(big["ambiguity_residual"]).real <= 1e-8 * 1e308


def test_an_ms_value_past_the_float_range_is_a_check_failure(tmp_path):
    res = run(["ms", "1.7e308*(x+i0)^-2", "--out", str(tmp_path)], expect=3)
    assert "ms_value_plateau overflows the float range" in res.output


def quantities(path):
    return dict(line.split(",", 1) for line in csv_lines(path)[1:])


@pytest.mark.parametrize("command", ["extend", "ms"])
def test_a_huge_coefficient_scales_the_result(tmp_path, command):
    """A common factor cannot change a scaling degree or a pole order, and
    scales every value; at 1e307 the regression's samples overflowed
    (exit 3, "needs more nonzero samples")."""
    for label, expr in (("big", "1e307*(x+i0)^-2"), ("one", "(x+i0)^-2")):
        run([command, expr, "--out", str(tmp_path), "--label", label])
    big = quantities(tmp_path / ("%s_big.csv" % command))
    one = quantities(tmp_path / ("%s_one.csv" % command))
    assert big.keys() == one.keys()
    assert float(big["scaling_degree"]) == pytest.approx(2.0, abs=1e-6)
    for q in big:
        if q.startswith(("pole_order", "sd_", "divergence", "extension")):
            assert big[q] == one[q]
        elif q.startswith(("ms_value", "pairing")):
            b, o = (complex(v[q].replace("i", "j")) for v in (big, one))
            assert b == pytest.approx(1e307 * o, rel=1e-12)


@pytest.mark.parametrize("command, expr, top", [
    ("extend", "heaviside^" + "9" * 400, "2^1024 - 2^970 - 1"),
    ("wf", "delta^" + "9" * 400, "2^1024 - 2^970 - 1"),
    ("extend", "x^%d" % (2 ** 1024 - 2 ** 970), "2^1024 - 2^970 - 1"),
    ("extend", "x_+^-1*log^200", "170"),
    ("ms", "x_+^-1*log^171", "170"),
    ("ms", "x_-^-0.5*log^" + "9" * 30, "170")])
def test_orders_past_the_pairings_are_config_errors(tmp_path, command, expr,
                                                    top):
    """An order beyond the float range, or a log power whose factorial is
    no float, used to overflow inside the pairing (exit 4)."""
    res = run([command, expr, "--out", str(tmp_path)], expect=2)
    assert "FormatError" in res.output
    assert "the largest accepted is %s" % top in res.output


def test_the_largest_orders_still_parse(tmp_path):
    # x^m at the float limit is 0 on the probe window; log^170 reaches
    # the numeric checks, which fail on the overflowed values (exit 3)
    run(["wf", "x^%d" % (2 ** 1024 - 2 ** 970 - 1), "--out", str(tmp_path)])
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        run(["ms", "x_+^-1*log^170", "--out", str(tmp_path)], expect=3)


def test_bad_metric_is_a_config_error(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("metric = curly\n")
    run(["flow", "--config", str(cfg), "--out", str(tmp_path)], expect=2)


def test_flow_drift_tolerance_check(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("metric = conformal\nk0 = 1.0, 0.3\n")
    res = run(["flow", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"], expect=3)
    assert "exceeds" in res.output
    cfg.write_text("metric = conformal\nk0 = 1.0, 0.3\ndrift_tol = 1e-4\n")
    run(["flow", "--config", str(cfg), "--out", str(tmp_path),
         "--label", "t"])


def test_flow_capped_fixed_point_fails_the_check(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("metric = conformal\nk0 = 1.0, 0.3\ndt = 0.5\n"
                   "n_steps = 20\ndrift_tol = 1.0\n")
    res = run(["flow", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"], expect=3)
    assert "of 20 steps hit the fixed-point cap unconverged" in res.output
    assert "exceeds" not in res.output
    # the count is a note, not a column
    assert csv_lines(tmp_path / "flow_t.csv")[0] == "time,t,x,k_t,k_x,sigma"


def test_flow_nan_drift_fails_the_check(tmp_path, monkeypatch):
    empty = {"x": [], "k": [], "sigma": [], "iterations": 0,
             "fixpoint_capped": 0}
    monkeypatch.setattr(cli.acceptance, "flow_drift",
                        lambda *args: (empty, float("nan")))
    res = run(["flow", "--out", str(tmp_path)], expect=3)
    assert "symbol drift nan exceeds" in res.output


def test_gns_algebra_file_paths(tmp_path, monkeypatch):
    good = tmp_path / "alg.txt"
    good.write_text("dim 2\nc 0 0 0 1\nc 1 1 1 1\ns 0 0 1\ns 1 1 1\n"
                    "unit 0 1\nunit 1 1\nomega 0 0.5\nomega 1 0.5\n")
    cfg = tmp_path / "g.cfg"
    cfg.write_text("algebra_file = %s\n" % good)
    grams, gram_matrix = [], al.gram_matrix

    def counted(*args):
        grams.append(args)
        return gram_matrix(*args)
    monkeypatch.setattr(al, "gram_matrix", counted)
    res = run(["gns", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"])
    assert "file" in res.output
    assert len(grams) == 1  # the file's state is built once
    monkeypatch.undo()

    broken = tmp_path / "broken.txt"
    broken.write_text("dim 2\nc 0 0 0 1\nc 1 1 0 1\ns 0 0 1\ns 1 1 1\n"
                      "unit 0 1\nomega 0 1\n")
    cfg.write_text("algebra_file = %s\n" % broken)
    res = run(["gns", "--config", str(cfg), "--out", str(tmp_path)],
              expect=2)
    assert "FormatError: algebra file rejected" in res.output

    no_omega = tmp_path / "no_omega.txt"
    no_omega.write_text("dim 1\nc 0 0 0 1\ns 0 0 1\n")
    cfg.write_text("algebra_file = %s\n" % no_omega)
    res = run(["gns", "--config", str(cfg), "--out", str(tmp_path)],
              expect=2)
    assert "algebra file rejected: no omega record" in res.output
    assert [p.name for p in tmp_path.glob("gns_*.csv")] == ["gns_t.csv"]

    cfg.write_text("algebra_file = %s\n" % (tmp_path / "missing.txt"))
    run(["gns", "--config", str(cfg), "--out", str(tmp_path)], expect=2)

    # an index outside [0, dim), a record short of fields or a value that is
    # not finite is a config error that names the record, not a wrapped
    # index, an IndexError or a NaN in the Gram matrix (exit 4)
    for record in ("omega -2 1", "c 5 0 0 1", "dim", "s 0 1 nan"):
        bad = tmp_path / "bad.txt"
        bad.write_text(good.read_text() + record + "\n")
        cfg.write_text("algebra_file = %s\n" % bad)
        res = run(["gns", "--config", str(cfg), "--out", str(tmp_path)],
                  expect=2)
        assert repr(record) in res.output

    # a path that reads like a boolean is a path all the same
    monkeypatch.chdir(tmp_path)
    (tmp_path / "yes").write_text(good.read_text())
    cfg.write_text("algebra_file = yes\n")
    res = run(["gns", "--config", str(cfg), "--out", str(tmp_path)])
    assert "file" in res.output


def test_internal_invariant_maps_to_exit_4(tmp_path, monkeypatch):
    def boom(**kw):
        raise al.AlgebraError("synthetic invariant break")

    monkeypatch.setattr(cli.al, "weyl_rep_check", boom)
    res = run(["weyl", "--out", str(tmp_path)], expect=4)
    assert "synthetic invariant break" in res.output


def test_unexpected_exception_maps_to_exit_4(tmp_path, monkeypatch):
    def boom(**kw):
        raise RuntimeError("synthetic library bug")

    monkeypatch.setattr(cli.al, "weyl_rep_check", boom)
    res = run(["weyl", "--out", str(tmp_path)], expect=4)
    assert "RuntimeError: synthetic library bug" in res.output


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_a_bare_library_error_is_a_bug(tmp_path, monkeypatch, error):
    """Invalid input raises a paqft.InputError; a bare ValueError or
    KeyError from inside the library is a bug (exit 4), not the user's."""
    def boom(**kw):
        raise error("synthetic library bug")

    monkeypatch.setattr(cli.al, "weyl_rep_check", boom)
    res = run(["weyl", "--out", str(tmp_path)], expect=4)
    assert "%s: " % error.__name__ in res.output
    assert "synthetic library bug" in res.output


@pytest.mark.parametrize("command", ["commutator", "wick"])
def test_more_sites_than_the_lattice_is_an_input_error(tmp_path, command):
    """n_sites above the lattice's site count looped forever drawing
    distinct sites; a subprocess with a timeout fails instead of hanging."""
    cfg = tmp_path / "sites.cfg"
    cfg.write_text("n_sites = 97\n")  # the default lattice has 12 x 8
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    res = subprocess.run(
        [sys.executable, "-m", "paqft.cli", command, "--config", str(cfg),
         "--out", str(tmp_path)], capture_output=True, text=True, env=env,
        timeout=10)
    assert res.returncode == 2, res.stderr
    assert "InputError: n_sites = 97: the lattice has 96 sites" in res.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_suite_runs_without_scipy(tmp_path):
    """numpy and click are the library's only dependencies: with scipy
    blocked from import, `paqft suite` runs in a subprocess and passes all
    thirteen criteria."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = ("import sys; sys.modules['scipy'] = None; "
            "from paqft.cli import main; main()")
    res = subprocess.run(
        [sys.executable, "-c", code, "suite", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "13/13 criteria passed" in res.stdout


def test_failed_criterion_maps_to_exit_3(tmp_path, monkeypatch):
    bad = acceptance.CriterionResult(1, "synthetic", False, 0.0, "nope")

    monkeypatch.setattr(cli.acceptance, "run_all", lambda idx: [bad])
    res = run(["suite", "--out", str(tmp_path), "--label", "t"], expect=3)
    assert "FAIL" in res.output
