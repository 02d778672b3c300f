"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints the criterion's pass/fail line (visible with -v on failure,
and in `paqft suite` output); the assertion also enforces the runtime budget.
The tests are generated from BUDGETS, one per criterion of acceptance.ALL,
and named test_acNN_<topic>.
"""
import warnings

from paqft import acceptance
from paqft import egrenorm as eg

# criterion number -> (test name topic, wall-clock budget in seconds)
BUDGETS = {
    1: ("canonical_commutator", 5),
    2: ("wick_three_term_expansion", 1),
    3: ("classical_limit_and_jacobi", 5),
    4: ("normal_ordering_equivalence", 10),
    5: ("tadpole_cancellation", 1),
    6: ("graph_expansion_oracle", 30),
    7: ("causal_factorization", 10),
    8: ("bogoliubov_consistency", 30),
    9: ("extension_and_minimal_subtraction", 20),
    10: ("divergence_power_counting", 1),
    11: ("microlocal_estimates", 60),
    12: ("gns_representations", 5),
    13: ("retarded_support_and_inverse", 5),
}


def _criterion_test(index, budget):
    def test():
        r, = acceptance.run_all({index})
        print(r.line())
        assert r.passed, r.line()
        assert r.seconds < budget, "runtime %.2fs over the %ds budget" \
            % (r.seconds, budget)
    return test


for _index, (_topic, _budget) in BUDGETS.items():
    globals()["test_ac%02d_%s" % (_index, _topic)] = \
        _criterion_test(_index, _budget)


def test_every_criterion_has_a_budget():
    assert sorted(BUDGETS) == list(range(1, len(acceptance.ALL) + 1))


def test_warnings_inside_a_criterion_are_recorded(monkeypatch):
    def noisy():
        warnings.warn("no convergence", RuntimeWarning)
        warnings.warn("no convergence", RuntimeWarning)
        warnings.warn("unique extension", eg.NegativeDivergenceWarning)
        return True, "ok"

    noisy.title = "noisy"
    monkeypatch.setattr(acceptance, "ALL", [noisy])
    r, = acceptance.run_all(None)
    assert (r.index, r.title, r.passed, r.detail) == (1, "noisy", True, "ok")
    assert r.warnings == {"RuntimeWarning": 2,
                          "NegativeDivergenceWarning": 1}
    assert r.line().endswith(
        "warnings: NegativeDivergenceWarning x1, RuntimeWarning x2")
