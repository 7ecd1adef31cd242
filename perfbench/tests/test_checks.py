"""Each correctness check accepts an exact output and rejects a planted wrong one.

    python3 -m pytest perfbench/tests -q
"""

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


# ---------------------------------------------------------------------------
# tilted_min: moments of V at the tilt centre against Campbell's theorem

N_TILTED = 240


def _tilted_record():
    rows = []
    for t, R in ((1e5, 1401.0), (1e6, 4340.0), (1e7, 13565.0)):
        mean = checks.campbell_integrals(t, 2.0, math.inf, powers=(1,))[1]
        k2 = checks.campbell_integrals(t, 2.0, R, powers=(2,))[2]
        rows.append({"t": t, "box_radius": R, "mc_mean": mean, "mc_var": k2})
    return {"params": {"d": 1, "alpha": 2.0, "t": 1e7}, "n_samples": N_TILTED,
            "status": "fail", "tables": {"moments": rows}}


def _standard_errors(row):
    box = checks.campbell_integrals(row["t"], 2.0, row["box_radius"], powers=(2, 4))
    return (math.sqrt(box[2] / N_TILTED),
            math.sqrt((box[4] + 2.0 * box[2] ** 2) / N_TILTED))


def test_tilted_min_accepts_the_campbell_moments():
    assert checks.check_tilted_min(_tilted_record()) == []


@pytest.mark.parametrize("rung", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tilted_min_rejects_a_mean_five_standard_errors_off(rung, sign):
    rec = _tilted_record()
    row = rec["tables"]["moments"][rung]
    row["mc_mean"] += sign * 5.0 * _standard_errors(row)[0]
    fails = checks.check_tilted_min(rec)
    assert len(fails) == 1 and "mean" in fails[0]


def test_tilted_min_rejects_a_variance_five_standard_errors_off():
    rec = _tilted_record()
    row = rec["tables"]["moments"][2]
    row["mc_var"] += 5.0 * _standard_errors(row)[1]
    fails = checks.check_tilted_min(rec)
    assert len(fails) == 1 and "variance" in fails[0]


def test_tilted_min_accepts_a_mean_three_standard_errors_off():
    rec = _tilted_record()
    row = rec["tables"]["moments"][0]
    row["mc_mean"] += 3.0 * _standard_errors(row)[0]
    assert checks.check_tilted_min(rec) == []


def test_campbell_integrals_reduce_to_closed_forms_without_tilt():
    # t -> 0: lam -> 1, and int_R vhat^k = 2 (1 + 1/(k alpha - 1))
    got = checks.campbell_integrals(1e-12, 2.0, math.inf)
    for k, v in got.items():
        assert v == pytest.approx(2.0 * (1.0 + 1.0 / (2.0 * k - 1.0)), rel=1e-9)


# ---------------------------------------------------------------------------
# fk_ladder: control radii against the Mehler marginal, monotone q in L

T_LADDER = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
L_LADDER = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)


def _fk_record():
    ctrl = [{"t": t, "kind": "control_marginal",
             "radius": checks.mehler_median_radius(t, 2.0)} for t in T_LADDER]
    ctrl += [{"t": t, "kind": "control_sup", "radius": 1.0} for t in T_LADDER]
    conf = [{"t": t, "L": L, "q_mean": 1.0 - math.exp(-L / t ** 0.375)}
            for t in T_LADDER for L in L_LADDER]
    return {"params": {"d": 1, "alpha": 2.0, "t": 1024.0}, "status": "pass",
            "settings": {"t_ladder": list(T_LADDER)},
            "tables": {"control_radius": ctrl, "confinement": conf}}


def test_fk_ladder_accepts_the_mehler_radii():
    assert checks.check_fk_ladder(_fk_record()) == []


@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_fk_ladder_rejects_a_control_radius_scaled_by_one_percent(factor):
    rec = _fk_record()
    rec["tables"]["control_radius"][3]["radius"] *= factor
    fails = checks.check_fk_ladder(rec)
    assert len(fails) == 1 and "Mehler" in fails[0]


def test_fk_ladder_rejects_q_decreasing_in_L():
    rec = _fk_record()
    conf = rec["tables"]["confinement"]
    conf[3]["q_mean"], conf[4]["q_mean"] = conf[4]["q_mean"], conf[3]["q_mean"]
    fails = checks.check_fk_ladder(rec)
    assert len(fails) == 1 and "decreases" in fails[0]


def test_fk_ladder_allows_roundoff_at_full_mass():
    rec = _fk_record()
    for row in rec["tables"]["confinement"][-3:]:
        row["q_mean"] = 1.0
    rec["tables"]["confinement"][-2]["q_mean"] = 1.0 - 3e-14
    assert checks.check_fk_ladder(rec) == []


def test_fk_ladder_rejects_a_failed_record():
    rec = _fk_record()
    rec["status"] = "fail"
    assert checks.check_fk_ladder(rec) == ["record status is 'fail'"]


# ---------------------------------------------------------------------------
# ids_tail: positive, monotone, bracketed N_hat with the Lifshitz exponent

def _ids_rows(lambdas, exponent=2.0, l1=22.8):
    rows = []
    for lam in lambdas:
        n = math.exp(-l1 * lam ** -exponent)
        rows.append({"lambda": lam, "n_hat": n, "ci_low": 0.8 * n, "ci_high": 1.2 * n})
    return rows


def _ids_record(exponent=2.0):
    return {"params": {"d": 1, "alpha": 1.5, "t": 1.0}, "status": "pass",
            "tables": {"ids": _ids_rows((0.4, 0.56, 0.72, 0.88, 1.04, 1.2), exponent),
                       "ids_auxiliary": _ids_rows((1.75, 2.0, 2.3, 2.65, 3.0), 1.4, 3.0)}}


def test_ids_tail_accepts_a_pure_lifshitz_tail():
    assert checks.check_ids_tail(_ids_record()) == []


def test_ids_tail_rejects_a_non_monotone_curve():
    rec = _ids_record()
    rows = rec["tables"]["ids"]
    rows[3]["n_hat"], rows[4]["n_hat"] = rows[4]["n_hat"], rows[3]["n_hat"]
    for r in rows[3:5]:
        r["ci_low"], r["ci_high"] = 0.5 * r["n_hat"], 2.0 * r["n_hat"]
    fails = checks.check_ids_tail(rec)
    assert len(fails) == 1 and "decreases" in fails[0]


def test_ids_tail_rejects_a_zero():
    rec = _ids_record()
    rec["tables"]["ids"][0].update(n_hat=0.0, ci_low=0.0)
    assert any("positive" in f for f in checks.check_ids_tail(rec))


@pytest.mark.parametrize("bad", [{"ci_high": math.inf}, {"ci_low": 1.0}])
def test_ids_tail_rejects_a_ci_that_is_infinite_or_misses(bad):
    rec = _ids_record()
    rec["tables"]["ids_auxiliary"][2].update(bad)
    fails = checks.check_ids_tail(rec)
    assert len(fails) == 1 and "CI" in fails[0]


@pytest.mark.parametrize("exponent", [1.6, 2.4])
def test_ids_tail_rejects_the_wrong_exponent(exponent):
    fails = checks.check_ids_tail(_ids_record(exponent))
    assert len(fails) == 1 and "slope" in fails[0]


def test_checks_do_not_mutate_the_record():
    rec = _ids_record()
    before = copy.deepcopy(rec)
    checks.check_ids_tail(rec)
    assert rec == before
