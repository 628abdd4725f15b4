"""Acceptance gate: the ten numbered checks, one test each.

Each test prints the criterion's PASS/FAIL line (run pytest with -s or
read the failure message) and asserts the criterion passed.  The detail
strings carry the measured margins.  The README's verification notes
explain four checks whose assertions rest on an analysis of the method:

* criterion 2: exact staircase disc rejection against the provable
  full-area bound, with the published constant reported alongside.
* criterion 6: at h = 100 the heavy-tail drift probe agrees with
  quadrature and contracts, as scale invariance in log|x| predicts.
* criterion 7: each classification cell runs at its own window pair;
  the super-quadratic cell's 1/L gap decay needs a span wider than 5x.
* criterion 8: the jump-distance argmax is located on a quadrature
  curve; the chains must agree with that curve within four standard
  errors.
"""

import pytest

from pdrwm import verify
from pdrwm.experiments import SCENARIOS, ScenarioCheck

SEED = 0


def run(criterion) -> None:
    r = criterion(SEED)
    line = (
        f"criterion {r.index:02d} {'PASS' if r.passed else 'FAIL'} "
        f"{r.name} ({r.elapsed:.1f}s): {r.detail}"
    )
    print(line)
    assert r.passed, line


def test_criterion_01_closed_form_acceptance():
    run(verify.criterion_1)


def test_criterion_02_staircase_disc_rejection_bound():
    run(verify.criterion_2)


def test_criterion_03_hemisphere_overlap_and_descent():
    run(verify.criterion_3)


def test_criterion_04_far_tail_acceptance_mass():
    run(verify.criterion_4)


def test_criterion_05_light_tail_drift_contraction():
    run(verify.criterion_5)


def test_criterion_06_heavy_tail_drift_step_size():
    run(verify.criterion_6)


def test_criterion_07_gap_trend_classification():
    run(verify.criterion_7)


def test_criterion_08_esjd_optimum_location():
    run(verify.criterion_8)


def test_criterion_09_truncated_moments_and_tail_bound():
    run(verify.criterion_9)


def test_criterion_10_discretized_chain_consistency():
    run(verify.criterion_10)


@pytest.mark.parametrize(
    "criterion, scenario, params",
    [
        (verify.criterion_3, "lemma7_sweep", {"n_steps": 100_000}),
        (verify.criterion_4, "lemma4_probe", {"n": 100_000}),
        (verify.criterion_5, "lemma2_drift", {"n": 100_000}),
        (verify.criterion_7, "oracle_scan", {}),
        (verify.criterion_8, "esjd_scan", {"n_steps": 100_000}),
    ],
)
@pytest.mark.parametrize("passed", [True, False])
def test_criterion_runs_its_scenario_at_pinned_size(
    monkeypatch, criterion, scenario, params, passed
):
    """Checks 3, 4, 5, 7 and 8 run their scenario body at their own sample
    size (not the scenario default) and pass iff all its checks pass."""
    calls = []

    def recorder(seed, digest, /, **kwargs):
        calls.append((seed, kwargs))
        checks = (ScenarioCheck("a", True, "one"), ScenarioCheck("b", passed, "two"))
        return {}, checks

    monkeypatch.setitem(SCENARIOS, scenario, recorder)
    r = criterion(3)
    assert calls == [(3, params)]
    assert r.passed is passed
    assert r.detail == "a: one; b: two"
