"""The refinement sweep (tests/refine_sweep.py): the schedule it halves and
the changes it reads off two synthetic records."""

from types import SimpleNamespace

import pytest

import refine_sweep
from fklab import experiments, semigroup


def test_halved_schedule_halves_every_dt_where_the_runners_read_it():
    base = semigroup.default_schedule(100.0)
    with refine_sweep.halved_schedule():
        for module in (semigroup, experiments):
            assert module.default_schedule(100.0) == tuple(
                (t_end, dt / 2.0) for t_end, dt in base)
    assert experiments.default_schedule(100.0) == base


def test_changes_against_tolerances_and_half_cis():
    def record(slope, observed, value):
        return SimpleNamespace(
            checks=[{"name": "gap", "passed": True, "observed": observed,
                     "tol": 0.1},
                    {"name": "count", "passed": True, "observed": 0, "tol": None}],
            fits=[{"name": "expo", "passed": True, "slope": slope, "tol": 0.02}],
            estimates=[{"name": "radius", "value": value, "ci_low": value - 0.5,
                        "ci_high": value + 0.5},
                       {"name": "bare", "value": value, "ci_low": None,
                        "ci_high": None}])

    rows = refine_sweep.compare(record(0.375, 0.5, 4.0),
                                record(0.376, 0.49, 4.25))
    assert rows["fit:expo"]["of_tol"] == pytest.approx(0.05)
    assert rows["check:gap"]["of_tol"] == pytest.approx(-0.1)
    assert rows["check:count"]["change"] == 0 and rows["check:count"]["of_tol"] is None
    assert rows["estimate:radius"]["of_half_ci"] == pytest.approx(0.5)
    assert rows["estimate:bare"]["of_half_ci"] is None
    assert "-0.1 of tol" in refine_sweep._line("check:gap", rows["check:gap"])
