"""End-to-end command line checks through click's test runner."""
import gc
import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from paqft import cli
from paqft import algebra as al
from paqft import acceptance


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


def test_propagators_cache_and_header(tmp_path):
    cfg = small_cfg(tmp_path)
    res1 = run(["propagators", "--config", cfg, "--out", str(tmp_path),
                "--label", "a"])
    assert "cache write" in res1.output
    res2 = run(["propagators", "--config", cfg, "--out", str(tmp_path),
                "--label", "b"])
    assert "cache hit" in res2.output
    a = (tmp_path / "propagators_a.csv").read_bytes()
    b = (tmp_path / "propagators_b.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0].startswith(b"# n_t=8 n_x=4")
    assert (tmp_path / "prop_v2_8_4_1-2_1_1.0.npz").exists()


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
# their reported error, residues by <= 1e-16; pole orders did not.  `suite`
# is hashed without its `seconds` column, which is a wall-clock time.
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
        "e33eeb644fe92fc1c6f5a6c8e42e1ee3d9dfd48999e979ca94ef20625476c132",
    "gns":
        "6092a52a3ecee58f57dc88e74adf5098de275594bfbb10ef0801f4d600fd7208",
    "weyl":
        "2c1acc20ebc7928a5e808c9ad3523290c17f7f9eee9ad9bedc81254c67d6029c",
    "flow":
        "be1f9404440ef48bcd864a485b6c2dcc7f81b304e4732e8c66b1e678d80ce38d",
    "propagators":
        "2f5f9aa6da4cee2a65d8758864361a558f90ecf09d2deb9441d82254012d3275",
    "graphs":
        "069b10b7b2220d1e335947db3971ea5165f0e6e7a32b8d604f70de1dc3ca28d8",
    "extend":
        "ef1420b175c53cf8554621588d61956c1d93c92f921f662f8852104ee38c9b47",
    "ms":
        "3d23d0de29748724aea09566b7fd759a588903780a0de973da470714c79ec8b5",
    "wf":
        "e64f58370af46a4c1f3a9de0d665c303ba777a0b808acc8005351fb5a927e7bd",
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
            "rel_floor test" % (len(wf.near_threshold(0.05)),
                                len(wf.near_floor(2.0)))) in res.output
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
    ("weyl", "n = 2.5\n"),
    ("weyl", "n = 24\n"),
    ("weyl", "n = 4\n"),
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
    run(["ms", "delta", "--out", str(tmp_path)], expect=2)
    run(["ms", "x_+^-1 + delta", "--out", str(tmp_path)], expect=2)


@pytest.mark.parametrize("expr", ["(x+i0)^-2", "x_+^-0.5",
                                  "delta + 2*x_+^-0.5"])
def test_wf_rejects_a_term_without_a_wave_pairing(tmp_path, monkeypatch,
                                                  expr):
    monkeypatch.setattr(cli.ml, "wf_estimate_1d",
                        lambda *a, **kw: pytest.fail("pairing ran"))
    res = run(["wf", expr, "--out", str(tmp_path)], expect=2)
    assert "no wave pairing for the term" in res.output
    assert repr(expr) in res.output


def _centres_cfg(tmp_path, centres):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("centers = %s\n" % centres)
    return str(cfg)


@pytest.mark.parametrize("expr", ["delta^1", "(x-i0)^-1"])
def test_wf_rejects_a_centre_in_the_window_annulus(tmp_path, monkeypatch,
                                                   expr):
    # 0.25 < |0.3| < 0.5: the window's value at the singularity is neither
    # 1 nor 0, so the pairing would fail; the centre is a config error
    monkeypatch.setattr(cli.ml, "wf_estimate_1d",
                        lambda *a, **kw: pytest.fail("pairing ran"))
    res = run(["wf", expr, "--config", _centres_cfg(tmp_path, "0.0, 0.3"),
               "--out", str(tmp_path)], expect=2)
    assert "centre 0.3 lies in the window's transition annulus" in res.output
    assert repr(expr) in res.output


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


@pytest.mark.parametrize("command, expr", [
    ("extend", "1e308*delta"), ("ms", "1e307*x_+^-1")])
def test_a_nan_result_is_a_check_failure(tmp_path, command, expr):
    """A huge coefficient overflows to NaN inside the computation; the
    overflow warnings are the CLI's to print, not errors."""
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        res = run([command, expr, "--out", str(tmp_path)], expect=3)
    assert "NaN in" in res.output


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
    empty = {"x": [], "k": [], "sigma": [], "fixpoint_capped": 0}
    monkeypatch.setattr(cli.acceptance, "flow_drift",
                        lambda *args: (empty, float("nan")))
    res = run(["flow", "--out", str(tmp_path)], expect=3)
    assert "symbol drift nan exceeds" in res.output


def test_gns_algebra_file_paths(tmp_path):
    good = tmp_path / "alg.txt"
    good.write_text("dim 2\nc 0 0 0 1\nc 1 1 1 1\ns 0 0 1\ns 1 1 1\n"
                    "unit 0 1\nunit 1 1\nomega 0 0.5\nomega 1 0.5\n")
    cfg = tmp_path / "g.cfg"
    cfg.write_text("algebra_file = %s\n" % good)
    res = run(["gns", "--config", str(cfg), "--out", str(tmp_path),
               "--label", "t"])
    assert "file" in res.output

    broken = tmp_path / "broken.txt"
    broken.write_text("dim 2\nc 0 0 0 1\nc 1 1 0 1\ns 0 0 1\ns 1 1 1\n"
                      "unit 0 1\nomega 0 1\n")
    cfg.write_text("algebra_file = %s\n" % broken)
    res = run(["gns", "--config", str(cfg), "--out", str(tmp_path)],
              expect=2)
    assert "algebra file rejected" in res.output

    cfg.write_text("algebra_file = %s\n" % (tmp_path / "missing.txt"))
    run(["gns", "--config", str(cfg), "--out", str(tmp_path)], expect=2)

    # an index outside [0, dim) or a record short of fields is a config
    # error that names the record, not a wrapped index or an IndexError
    for record in ("omega -2 1", "c 5 0 0 1", "dim"):
        bad = tmp_path / "bad.txt"
        bad.write_text(good.read_text() + record + "\n")
        cfg.write_text("algebra_file = %s\n" % bad)
        res = run(["gns", "--config", str(cfg), "--out", str(tmp_path)],
                  expect=2)
        assert repr(record) in res.output


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


def test_propagators_ignore_a_cache_of_an_older_format(tmp_path):
    """A file under the name without a format tag, misshapen so that reading
    it would fail, is left alone: the tables are computed and cached anew."""
    old = tmp_path / "prop_8_4_1-2_1_1.0.npz"
    np.savez(old, ret=np.zeros((8, 4)))
    res = run(["propagators", "--config", small_cfg(tmp_path), "--out",
               str(tmp_path), "--label", "t"])
    assert "cache write" in res.output
    assert (tmp_path / "prop_v2_8_4_1-2_1_1.0.npz").exists()
    fresh = tmp_path / "fresh"
    run(["propagators", "--config", small_cfg(tmp_path), "--out",
         str(fresh), "--label", "t"])
    assert ((tmp_path / "propagators_t.csv").read_bytes()
            == (fresh / "propagators_t.csv").read_bytes())


@pytest.mark.parametrize("arrays", [
    {"ret": np.zeros((4, 4)), "wig": np.zeros((15, 4))},
    {"ret": np.zeros((8, 4))},
])
def test_propagators_rejects_a_misshapen_cache(tmp_path, arrays):
    name = "prop_v2_8_4_1-2_1_1.0.npz"
    np.savez(tmp_path / name, **arrays)
    res = run(["propagators", "--config", small_cfg(tmp_path), "--out",
               str(tmp_path), "--label", "t"], expect=2)
    assert name in res.output
    assert not (tmp_path / "propagators_t.csv").exists()


def test_propagators_rejects_a_cache_that_is_no_archive(tmp_path):
    with open(tmp_path / "prop_v2_8_4_1-2_1_1.0.npz", "wb") as fh:
        np.save(fh, np.zeros((8, 4)))
    res = run(["propagators", "--config", small_cfg(tmp_path), "--out",
               str(tmp_path), "--label", "t"], expect=2)
    assert "arrays {}" in res.output


def test_propagators_close_the_cache(tmp_path):
    """A cache hit and a misshapen cache (exit 2) both leave the .npz
    closed: no ResourceWarning once the garbage is collected."""
    cfg = small_cfg(tmp_path)
    bad = tmp_path / "bad"
    bad.mkdir()
    np.savez(bad / "prop_v2_8_4_1-2_1_1.0.npz", ret=np.zeros((8, 4)))
    run(["propagators", "--config", cfg, "--out", str(tmp_path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hit = run(["propagators", "--config", cfg, "--out", str(tmp_path)])
        run(["propagators", "--config", cfg, "--out", str(bad)], expect=2)
        gc.collect()
    assert "cache hit" in hit.output
    assert not [w for w in caught if w.category is ResourceWarning]


def test_failed_criterion_maps_to_exit_3(tmp_path, monkeypatch):
    bad = acceptance.CriterionResult(1, "synthetic", False, 0.0, "nope")

    monkeypatch.setattr(cli.acceptance, "run_all", lambda idx: [bad])
    res = run(["suite", "--out", str(tmp_path), "--label", "t"], expect=3)
    assert "FAIL" in res.output
