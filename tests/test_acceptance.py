"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints the criterion's pass/fail line (visible with -v on failure,
and in `paqft suite` output); the assertion also enforces the runtime budget.
"""
import warnings

from paqft import acceptance
from paqft import egrenorm as eg


def check(fn, budget):
    r, = acceptance.run_all({acceptance.ALL.index(fn) + 1})
    print(r.line())
    assert r.passed, r.line()
    assert r.seconds < budget, "runtime %.2fs over the %ds budget" \
        % (r.seconds, budget)
    return r


def test_ac01_canonical_commutator():
    check(acceptance.crit_01, 5)


def test_ac02_wick_three_term_expansion():
    check(acceptance.crit_02, 1)


def test_ac03_classical_limit_and_jacobi():
    check(acceptance.crit_03, 5)


def test_ac04_normal_ordering_equivalence():
    check(acceptance.crit_04, 10)


def test_ac05_tadpole_cancellation():
    check(acceptance.crit_05, 1)


def test_ac06_graph_expansion_oracle():
    check(acceptance.crit_06, 30)


def test_ac07_causal_factorization():
    check(acceptance.crit_07, 10)


def test_ac08_bogoliubov_consistency():
    check(acceptance.crit_08, 30)


def test_ac09_extension_and_minimal_subtraction():
    check(acceptance.crit_09, 20)


def test_ac10_divergence_power_counting():
    check(acceptance.crit_10, 1)


def test_ac11_microlocal_estimates():
    check(acceptance.crit_11, 60)


def test_ac12_gns_representations():
    check(acceptance.crit_12, 5)


def test_ac13_retarded_support_and_inverse():
    check(acceptance.crit_13, 5)


def test_warnings_inside_a_criterion_are_recorded(monkeypatch):
    def noisy():
        warnings.warn("no convergence", RuntimeWarning)
        warnings.warn("no convergence", RuntimeWarning)
        warnings.warn("unique extension", eg.NegativeDivergenceWarning)
        return acceptance.CriterionResult(1, "noisy", True, 0.0, "ok")

    monkeypatch.setattr(acceptance, "ALL", (noisy,))
    r, = acceptance.run_all()
    assert r.warnings == {"RuntimeWarning": 2,
                          "NegativeDivergenceWarning": 1}
    assert r.line().endswith(
        "warnings: NegativeDivergenceWarning x1, RuntimeWarning x2")
