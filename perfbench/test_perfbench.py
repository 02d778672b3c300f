"""Tests of the benchmark itself: declared metrics, tiny runs, oracles.

    python3 -m pytest perfbench
"""

import json
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import free_wide  # noqa: E402
import harness  # noqa: E402
import interacting  # noqa: E402
import renorm  # noqa: E402
import run  # noqa: E402
import wavefront  # noqa: E402
from paqft import egrenorm, microlocal  # noqa: E402
from paqft import quantization as qz  # noqa: E402
from paqft.exact import ExactComplex  # noqa: E402
from paqft.functionals import PolyFunctional, smeared_field  # noqa: E402
from paqft.series import FormalSeries  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == run.PER_LAYER
    assert set(LAYERS["per_layer"]) == set(run.PER_LAYER)


def test_declared_workloads_match_the_code():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(LAYERS["workloads"]) == set(names)
    parts = [p for ps in run.WORKLOADS.values() for p in ps]
    assert set(LAYERS["parts"]) == set(parts)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


def test_refuses_a_tree_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no paqft to measure."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tail_has_ten_items_beyond_it():
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0


# ------------------------------------------------------------------ oracles

def _bump(F):
    """F with one coefficient moved by 2^-80."""
    key = next(iter(F.terms))
    (h, l), c = next(iter(F.terms[key].coeff.items()))
    terms = dict(F.terms)
    coeff = dict(F.terms[key].coeff)
    coeff[(h, l)] = c + ExactComplex(Fraction(1, 2 ** 80))
    terms[key] = FormalSeries(coeff, F.trunc_h, F.trunc_l)
    return PolyFunctional(F.lat, terms, F.trunc_h, F.trunc_l)


def test_commutator_oracle_rejects_a_perturbed_coefficient():
    xp, = free_wide.setup(1, "tiny", harness.OFF)
    f, g = {3: Fraction(1, 2), 9: Fraction(-2)}, {10: Fraction(3), 17: 1}
    tally = harness.Tally()
    assert free_wide.commutator(xp, f, g, harness.OFF, tally)
    comm = qz.QuantProduct(xp, "star_H").commutator(
        smeared_field(xp.lat, f), smeared_field(xp.lat, g))
    assert free_wide.commutator_matches(comm, xp, f, g)
    assert not free_wide.commutator_matches(_bump(comm), xp, f, g)


def test_round_trip_fails_when_the_library_perturbs_a_coefficient(
        monkeypatch):
    st = interacting.setup(1, "tiny", harness.OFF)
    items = [it for it in interacting.items(st, 1, 0, "tiny")
             if it[0] == "round_trip"]
    assert harness.run_pass(items).failed == 0
    rinv = type(st.bog).Rinv
    monkeypatch.setattr(type(st.bog), "Rinv",
                        lambda self, F: _bump(rinv(self, F)))
    assert harness.run_pass(items).failed == len(items)


def test_digest_sees_one_coefficient():
    st = interacting.setup(1, "tiny", harness.OFF)
    F = interacting._functional(random.Random(0), st, (1, 2),
                                list(range(st.lat.n_sites)))
    a, b, c = harness.Tally(), harness.Tally(), harness.Tally()
    a.exact(F)
    b.exact(F)
    c.exact(_bump(F))
    assert a.digest == b.digest != c.digest


def test_wf1d_check_rejects_a_flipped_flag(monkeypatch):
    expr, dirs = "delta", (-1.0, 1.0)
    assert wavefront.wf1d(expr, dirs, 0.8, harness.OFF, harness.Tally())
    real = microlocal.wf_estimate_1d

    def flipped(*a, **kw):
        wf = real(*a, **kw)
        r = wf.rays[0]
        wf.rays[0] = r._replace(singular=not r.singular)
        return wf

    monkeypatch.setattr(microlocal, "wf_estimate_1d", flipped)
    assert not wavefront.wf1d(expr, dirs, 0.8, harness.OFF, harness.Tally())


def test_cone_fraction_sees_off_cone_singular_mass():
    Ray = microlocal.WFRay
    on = [Ray((3.0, 3.0), (1.0, 0.0), 0.5, 1.0, True)]
    off = [Ray((0.0, 5.0), (1.0, 0.0), 0.5, 1.0, True)]
    assert wavefront.fraction_on_cone(on, (0.0, 0.0)) == 1.0
    assert wavefront.fraction_on_cone(on + off, (0.0, 0.0)) == 0.5


def test_ms_check_rejects_a_shifted_value(monkeypatch):
    f = renorm._probe(random.Random(5))
    assert renorm.ms(f, harness.OFF, harness.Tally())
    real = egrenorm.minimal_subtraction
    monkeypatch.setattr(egrenorm, "minimal_subtraction",
                        lambda *a, **kw: real(*a, **kw) + 1e-6)
    assert not renorm.ms(f, harness.OFF, harness.Tally())


def test_run_pass_counts_raising_and_false_items():
    def boom(tr, tally):
        raise ValueError("library bug")

    res = harness.run_pass([("ok", lambda tr, t: True),
                            ("false", lambda tr, t: False),
                            ("raises", boom)])
    assert (len(res.item_times), res.failed) == (3, 2)


def test_warnings_are_counted_not_silenced():
    def warns(tr, tally):
        warnings.warn("twice", UserWarning)
        warnings.warn("twice", UserWarning)
        return True

    assert harness.run_pass([("w", warns), ("w", warns)]).n_warnings == 4


def test_scaled_times_follow_the_probe():
    ref = harness.REF_PROBE_S
    assert harness.speed_factor([ref, 9 * ref, ref / 9]) == 1.0
    assert harness.speed_factor([2 * ref] * 4) == 0.5
    res = harness.run_pass([("ok", lambda tr, t: True)] * 3, scale=True)
    assert len(res.scaled_times) == 3 and res.scaled_wall > 0
    assert harness.run_pass([("ok", lambda tr, t: True)]).scaled_wall is None
