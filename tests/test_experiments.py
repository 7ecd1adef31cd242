"""Scenario harness: power-law fits, run records, batched evolution, runners."""

import dataclasses
import json
import math

import numpy as np
import pytest

from fklab import experiments
from fklab.experiments import (
    ARTIFACT_VERSION,
    SCENARIOS,
    RunRecord,
    _record,
    config_hash,
    field_abs_quantile,
    fit_power_law,
    run_confinement,
    run_constants,
    run_ids,
    run_laplace,
    run_lemma5,
    run_localization,
    run_mgf,
    run_occupation,
    run_spectrum,
    run_tilted,
)
from fklab.model import ModelParams, quadratic_profile
from fklab.semigroup import (FKStepper, batched_evolve, check_on_lattice,
                             column_masses, default_schedule, time_marginal)
from fklab.spectral import make_grid

import refine_sweep

P = ModelParams(d=1, alpha=2.0, t=100.0)


# --- fit_power_law -------------------------------------------------------

def test_fit_exact_power_law():
    xs = [1.0, 2.0, 3.0, 5.0, 8.0]
    fit = fit_power_law([(x, 7.0 * x ** 2.5) for x in xs])
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(7.0, rel=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_zero_weight_point_is_ignored():
    pts = [(x, 7.0 * x ** 2.5) for x in (1.0, 2.0, 3.0, 5.0)] + [(4.0, 1e9)]
    fit = fit_power_law(pts, weights=[1.0, 1.0, 1.0, 1.0, 0.0])
    assert fit.slope == pytest.approx(2.5, abs=1e-12)


def test_fit_recovers_noisy_exponent():
    rng = np.random.default_rng(3)
    ts = np.array([16.0, 32, 64, 128, 256, 512, 1024])
    ys = 2.0 * ts ** 0.375 * np.exp(rng.normal(0.0, 0.03, ts.size))
    fit = fit_power_law(list(zip(ts, ys)))
    assert fit.slope == pytest.approx(0.375, abs=0.05)
    assert fit.stderr > 0


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, 2.0)])           # too few
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])  # degenerate x
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])  # y <= 0
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)],
                      weights=[1.0, -1.0, 1.0])


# --- run records ----------------------------------------------------------

def chk(name, passed, control=False):
    return {"name": name, "passed": passed, "observed": 1.0, "target": 1.0,
            "tol": 0.1, "control": control, "note": None}


def test_record_serialization_is_byte_stable():
    def make():
        return _record("demo", P, 7, 10, {"h": 0.25, "ladder": [1.0, 2.0]},
                       [chk("a", True, control=True)],
                       estimates=({"name": "e", "value": float("nan"),
                                   "ci_low": None, "ci_high": None,
                                   "se": None, "note": None},))
    r1, r2 = make(), make()
    assert r1.to_json() == r2.to_json()
    assert r1.config_hash == r2.config_hash
    data = json.loads(r1.to_json())
    assert data["artifact_version"] == ARTIFACT_VERSION
    assert data["estimates"][0]["value"] == "NaN"


def test_record_hash_tracks_inputs_only():
    base = config_hash("demo", {"d": 1, "alpha": 2.0, "t": 1.0}, 7, {"h": 0.25})
    assert base == config_hash("demo", {"d": 1, "alpha": 2.0, "t": 1.0}, 7,
                               {"h": 0.25})
    assert base != config_hash("demo", {"d": 1, "alpha": 2.0, "t": 1.0}, 8,
                               {"h": 0.25})
    assert base != config_hash("demo", {"d": 1, "alpha": 2.0, "t": 1.0}, 7,
                               {"h": 0.5})


def test_record_status_rules():
    ok = _record("s", P, 0, 0, {}, [chk("c", True, True), chk("v", True)])
    assert ok.status == "pass" and ok.passed
    failed = _record("s", P, 0, 0, {}, [chk("c", True, True), chk("v", False)])
    assert failed.status == "fail"
    gated = _record("s", P, 0, 0, {}, [chk("c", False, True), chk("v", False)])
    assert gated.status == "control_failed"


def test_record_rejects_unserializable_settings():
    with pytest.raises(TypeError):
        _record("s", P, 0, 0, {"bad": object()}, [chk("c", True)])


def test_record_save_roundtrip(tmp_path):
    rec = _record("demo", P, 1, 2, {"x": 1}, [chk("c", True)])
    path = tmp_path / "demo.json"
    rec.save(path)
    assert json.loads(path.read_text())["config_hash"] == rec.config_hash


# --- schedules and batched evolution --------------------------------------

def test_default_schedule_shapes():
    assert default_schedule(1024.0) == ((4.0, 0.1), (16.0, 0.2), (64.0, 0.5),
                                        (256.0, 1.0), (1024.0, 2.0))
    assert default_schedule(100.0) == ((4.0, 0.1), (16.0, 0.2), (64.0, 0.5),
                                       (100.0, 1.0))
    assert default_schedule(10.0) == ((4.0, 0.1), (10.0, 0.2))
    assert default_schedule(2.0) == ((2.0, 0.1),)


def test_step_lattice_at_the_last_segment_end():
    # past t = 256 the step is 2, so 257 is off the lattice and 256 and 258
    # are on it
    check_on_lattice((16.0, 256.0, 258.0, 1024.0))
    with pytest.raises(ValueError, match=r"horizon 257 is not a multiple of dt = 2,"):
        check_on_lattice((256.0, 257.0))


def test_localization_splitting_error_is_below_the_grid_error():
    # default_schedule against every dt halved, on the same draws, through
    # every segment: radii within 5e-4 relative and q_mean within 1e-3,
    # where halving h moves the control radii by about 1.5e-3 at t <= 1024
    kw = dict(t_ladder=(16.0, 64.0, 128.0, 512.0), n_samples=2, seed=0)
    base = run_localization(**kw)
    with refine_sweep.halved_schedule():
        fine = run_localization(**kw)
    assert [end for end, _ in base.settings["schedule"]] == [4.0, 16.0, 64.0,
                                                             256.0, 512.0]
    assert [dt for _, dt in fine.settings["schedule"]] == [
        dt / 2.0 for _, dt in base.settings["schedule"]]
    for table in ("control_radius", "radius"):
        a, b = ([r["radius"] for r in rec.tables[table]] for rec in (base, fine))
        np.testing.assert_allclose(b, a, rtol=5e-4, atol=0)
    q_a, q_b = ([r["q_mean"] for r in rec.tables["confinement"]]
                for rec in (base, fine))
    np.testing.assert_allclose(q_b, q_a, rtol=0, atol=1e-3)


def test_batched_evolve_columns_are_independent():
    # a column of a batch evolves as it would alone
    grid = make_grid(6.0, 0.05)
    x = grid.nodes()
    V = 0.3 * x ** 2 + np.sin(x)
    ref = batched_evolve(grid, V[:, None], ((4.0, 0.02),))[0][:, 0]
    V2 = np.stack([V, 2.0 * V], axis=1)
    out, _ = batched_evolve(grid, V2, ((4.0, 0.02),))
    assert np.max(np.abs(out[:, 0] - ref)) <= 1e-12 * np.max(ref)
    # and a chain of calls through 2 ends on the bits of the one-shot run
    fields, u, start = {}, None, 0.0
    for end in (2.0, 4.0):
        u = fields[end] = batched_evolve(grid, V2, ((4.0, 0.02),), initial=u,
                                         start=start, horizons=(end, end))[0]
        start = end
    assert set(fields) == {2.0, 4.0}
    assert np.array_equal(fields[4.0], out)


def test_batched_evolve_duhamel_constant_f_is_t_times_mass():
    grid = make_grid(6.0, 0.05)
    x = grid.nodes()
    V = np.stack([0.3 * x ** 2, 0.1 * x ** 2 + 1.0], axis=1)
    out, (w,) = batched_evolve(grid, V, ((2.0, 0.02), (4.0, 0.05)),
                               fs=(np.ones_like(V),))
    assert column_masses(grid, w) == pytest.approx(
        4.0 * column_masses(grid, out), rel=1e-12)


def test_batched_evolve_rejects_bad_schedules():
    grid = make_grid(4.0, 0.1)
    V = np.zeros((grid.n, 1))
    with pytest.raises(ValueError):
        batched_evolve(grid, V, ((4.0, 0.02), (16.0, 0.07)))
    with pytest.raises(ValueError):   # a time off the step lattice
        time_marginal(grid, V, ((4.0, 0.02),), [0.03])
    with pytest.raises(ValueError):   # the runs to 14.5 and to 1.5 divide
        time_marginal(grid, V, ((4.0, 0.02), (16.0, 0.07)), [14.5])
    with pytest.raises(ValueError):
        batched_evolve(grid, V, ((4.0, -0.1),))
    with pytest.raises(ValueError):
        batched_evolve(grid, V[:, 0], ((4.0, 0.1),))


def _schedule_steps(t):
    """Steps of default_schedule(t), which are also the steps of any longer
    default schedule up to time t."""
    steps, prev = 0, 0.0
    for t_end, dt in default_schedule(t):
        steps += round((t_end - prev) / dt)
        prev = t_end
    return steps


@pytest.mark.parametrize("horizons", [
    (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),   # the stated ladder
    (256.0, 16.0, 64.0, 1024.0, 32.0),                  # unsorted
    (33.0, 8.0, 33.0, 100.0),    # a repeated horizon; 33 on the dt = 0.5 stretch
])
def test_retired_control_is_the_snapshot_diagonal(monkeypatch, horizons):
    # localization's control, column k retired at horizons[k]: the same bits
    # as column k of a run of the whole batch to horizons[k], in the
    # schedule's own steps, with each column stepped only until its horizon
    params = ModelParams(d=1, alpha=2.0, t=16.0)
    grid = make_grid(8.0, 0.25)
    n = grid.n
    nodes = grid.nodes()
    V = np.stack([quadratic_profile(nodes, params.with_t(t)) for t in horizons],
                 axis=1)
    plain_step = FKStepper.step
    calls = []

    def counted_step(self, u):
        calls.append(u.size)
        return plain_step(self, u)

    t_max = max(horizons)
    monkeypatch.setattr(FKStepper, "step", counted_step)
    out, _ = batched_evolve(grid, V, default_schedule(t_max), horizons=horizons)
    monkeypatch.setattr(FKStepper, "step", plain_step)

    assert out.shape == V.shape
    for k, t in enumerate(horizons):
        ref, _ = batched_evolve(grid, V, default_schedule(t))
        assert np.array_equal(out[:, k], ref[:, k])
        # masses summed over the (n, m) result, as localization sums them
        assert column_masses(grid, out)[k] == column_masses(grid, ref)[k]
    assert len(calls) == _schedule_steps(t_max)
    cells, prev = 0, 0
    for t in sorted(set(horizons)):
        live = sum(h >= t for h in horizons)
        cells += (_schedule_steps(t) - prev) * live * n
        prev = _schedule_steps(t)
    assert sum(calls) == cells


def test_retired_control_rejects_a_horizon_off_the_step_lattice():
    grid = make_grid(4.0, 0.25)
    V = np.zeros((grid.n, 2))
    with pytest.raises(ValueError, match=r"ending at 33\.03"):
        batched_evolve(grid, V, default_schedule(33.03), horizons=(16.0, 33.03))
    # a valid schedule, and a horizon off its lattice inside it
    with pytest.raises(ValueError, match=r"^horizon 33\.03 is not a multiple "
                                         r"of dt = 0\.5, "):
        batched_evolve(grid, np.zeros((grid.n, 3)), default_schedule(64.0),
                       horizons=(16.0, 33.03, 64.0))


def test_batched_evolve_rejects_bad_horizons():
    grid = make_grid(4.0, 0.25)
    x = grid.nodes()
    V = np.stack([0.1 * x ** 2, np.abs(np.sin(x))], axis=1)
    schedule = default_schedule(64.0)
    with pytest.raises(ValueError, match="fs"):
        batched_evolve(grid, V, schedule, fs=(np.ones_like(V),), horizons=(16.0, 64.0))
    # a wrong count, a horizon past the schedule's end, and horizons at or
    # before start
    for horizons, start in (((16.0, 64.0, 64.0), 0.0), ((16.0, 66.0), 0.0),
                            ((16.0, 32.0), 16.0), ((16.0, 32.0), 20.0)):
        with pytest.raises(ValueError, match="horizons"):
            batched_evolve(grid, V, schedule, start=start, horizons=horizons)
    # horizons that end before the schedule does: each column as a one-shot
    # run to its horizon leaves it, bit for bit
    out, _ = batched_evolve(grid, V, schedule, horizons=(16.0, 32.0))
    for k, t in enumerate((16.0, 32.0)):
        assert np.array_equal(out[:, k],
                              batched_evolve(grid, V, default_schedule(t))[0][:, k])


@pytest.mark.parametrize("runner, ladder", [
    # localization would run its control to 32 before meeting 64.1, and
    # occupation its control well and the rung at 16
    (run_localization, (16.0, 32.0, 64.1)),
    (run_occupation, (16.0, 64.1)),
], ids=["localization", "occupation"])
def test_runner_refuses_a_horizon_off_the_step_lattice(monkeypatch, runner, ladder):
    calls = []
    plain_step = FKStepper.step

    def counted_step(self, u):
        calls.append(1)
        return plain_step(self, u)

    monkeypatch.setattr(FKStepper, "step", counted_step)
    with pytest.raises(ValueError, match=r"horizon 64\.1 is not a multiple of dt = 1,"):
        runner(t_ladder=ladder, n_samples=2)
    assert calls == []


@pytest.mark.parametrize("runner, kw, width", [
    # sub-boxes of 2.1 ... 63.9 under an L column of 2 ... 64
    (run_localization, {"h": 0.3}, "2"),
    (run_localization, {"h": 0.7, "L_ladder": (2.1, 4.2)}, "96"),
    # t = 4 would run on (-6, 6)
    (run_lemma5, {"h": 3.0}, "4"),
    # t = 4 is whole, and its draws would come before t = 6 snapped
    (run_lemma5, {"h": 4.0 / 3.0, "t_values": (4.0, 6.0)}, "6"),
], ids=["localization_L", "localization_full", "lemma5", "lemma5_second_t"])
def test_runner_refuses_an_h_that_snaps_a_stated_half_width(monkeypatch, runner,
                                                            kw, width):
    calls = []
    plain_step = FKStepper.step

    def counted_step(self, u):
        calls.append("step")
        return plain_step(self, u)

    monkeypatch.setattr(FKStepper, "step", counted_step)
    for name in ("sample_tilted", "sample_homogeneous"):
        monkeypatch.setattr(experiments, name,
                            lambda *a, _name=name, **k: calls.append(_name))
    h = kw["h"]
    with pytest.raises(ValueError, match=rf"^h = {h:g} does not divide the "
                                         rf"stated half-width {width}$"):
        runner(n_samples=2, **kw)
    assert calls == []


def test_field_abs_quantile_half_normal_median():
    grid = make_grid(6.0, 0.05)
    x = grid.nodes()
    q = field_abs_quantile(x, np.exp(-x ** 2 / 2.0), 0.5)
    assert q == pytest.approx(0.674490, abs=5e-4)
    with pytest.raises(ValueError):
        field_abs_quantile(x, np.exp(-x ** 2), 1.5)


# --- scenario runners (reduced scales) -------------------------------------

def test_registry_covers_all_runners():
    assert set(SCENARIOS) == {
        "constants", "mgf", "laplace", "spectrum", "ids", "tilted",
        "localization", "confinement", "occupation", "local_min_stats",
        "ou_limit", "lemma5"}


def test_run_constants_passes_and_is_deterministic():
    a = run_constants()
    b = run_constants()
    assert a.status == "pass"
    assert a.to_json() == b.to_json()
    names = {e["name"] for e in a.estimates}
    assert {"a1", "a2", "C", "l1", "l2"} <= names


def test_run_mgf_single_alpha_small_grid():
    rec = run_mgf(alphas=(2.0,), s_grid=(1e2, 1e3))
    assert rec.status == "pass"
    assert all(c["observed"] <= c["tol"] for c in rec.checks)


def test_run_laplace_residual_and_pair_bound():
    rec = run_laplace()
    assert rec.status == "pass"
    resid = next(c for c in rec.checks if c["name"] == "residual_ratio_C")
    assert resid["observed"] == pytest.approx(resid["target"], rel=0.05)
    margins = [r["margin"] for r in rec.tables["two_point"]]
    assert all(m > 0 for m in margins) and margins == sorted(margins)


def test_run_spectrum_control_and_samples():
    rec = run_spectrum(n_samples=2)
    assert rec.status == "pass"
    assert any(c["control"] for c in rec.checks)


def _off(fn, how):
    """fn's results, perturbed by `how`."""
    return lambda *args, **kwargs: how(fn(*args, **kwargs))


# per runner with a control gate: a small size, the control's oracle in
# fklab.experiments and how it is made to fail, the tables the gated record
# keeps, and the draws of the control itself (sample_tilted, sample_homogeneous)
GATED = {
    "spectrum": ({"n_samples": 2}, "spectral_gap", lambda g: 2.0 * g, set(), (0, 0)),
    "localization": ({"n_samples": 2, "t_ladder": (16.0, 32.0, 64.0)}, "fit_power_law",
                     lambda f: f._replace(slope=f.slope + 1.0), {"control_radius"}, (0, 0)),
    "confinement": ({"n_samples": 2}, "field_deviation", lambda dev: dev + 1.0, set(),
                    (0, 0)),
    "local_min_stats": ({"n_samples": 8}, "predicted_tilted_mean", lambda m: 2.0 * m,
                        set(), (1, 1)),
    "occupation": ({"n_samples": 2, "t_ladder": (16.0, 64.0)}, "nu_coordinate_variance",
                   lambda v: 2.0 * v, set(), (0, 0)),
    "ou_limit": ({"n_samples": 2}, "groundstate_transform_check",
                 lambda rep: dataclasses.replace(rep, sup_rel_err=1.0), set(), (0, 0)),
}


@pytest.mark.parametrize("scenario", sorted(GATED))
def test_failed_control_stops_the_run(scenario, monkeypatch):
    # a failed control returns the record with its controls alone: status
    # control_failed, no Monte Carlo table and no draw past the control's own
    size, oracle, how, tables, draws = GATED[scenario]
    monkeypatch.setattr(experiments, oracle, _off(getattr(experiments, oracle), how))
    drawn = {"sample_tilted": 0, "sample_homogeneous": 0}
    for name in drawn:
        def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            drawn[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    rec = SCENARIOS[scenario](**size)
    assert rec.status == "control_failed"
    assert rec.checks and all(c["control"] for c in rec.checks)
    assert set(rec.tables) == tables
    assert (drawn["sample_tilted"], drawn["sample_homogeneous"]) == draws


def test_run_tilted_count_calibration():
    rec = run_tilted(n_samples=50)
    assert rec.status == "pass"


def test_run_ids_structure_is_honest():
    rec = run_ids(n_samples=40)
    assert rec.tables["ids"][0]["lambda"] == pytest.approx(0.4)
    # the verdict is the judged slope fit, or a failed check naming why the
    # slope could not be fitted; nothing else decides the status
    slope_fit = [f for f in rec.fits if f["name"] == "lifshitz_slope"]
    slope_chk = [c for c in rec.checks if c["name"] == "lifshitz_slope"]
    assert len(slope_fit) + len(slope_chk) == 1
    if slope_fit:
        assert slope_fit[0]["passed"] is not None
        assert rec.status == ("pass" if slope_fit[0]["passed"] else "fail")
    else:
        assert not slope_chk[0]["passed"]
        assert rec.status == "fail"
    diag = [f for f in rec.fits if f["passed"] is None]
    assert all(f["name"].startswith("diagnostic_") for f in diag)
    for table in ("ids", "ids_auxiliary"):
        for row in rec.tables[table]:
            assert math.isfinite(row["ci_low"]) and math.isfinite(row["ci_high"])
            assert row["ci_low"] <= row["n_hat"] <= row["ci_high"]


def test_run_ids_failed_slope_counts_each_excluded_lambda():
    # the fit needs three lambdas with 0 < N_hat < 1; at 8 draws the
    # steepest tilt finds no spectral mass below 0.4, and from 20 up the
    # unit cell holds more than one state
    rec = run_ids(lambda_grid=(0.4, 0.56, 20.0, 30.0), n_samples=8)
    assert [r["n_hat"] == 0.0 for r in rec.tables["ids"]] == [True, False, False, False]
    assert [r["n_hat"] >= 1.0 for r in rec.tables["ids"]] == [False, False, True, True]
    chk = next(c for c in rec.checks if c["name"] == "lifshitz_slope")
    assert chk["passed"] is False and rec.status == "fail"
    assert chk["note"] == ("1/4 grid points have 0 < N_hat < 1, fewer than the 3 "
                           "the fit needs: 1 returned N_hat = 0 and 2 returned "
                           "N_hat >= 1")
    assert not any(f["name"] == "lifshitz_slope" for f in rec.fits)


@pytest.mark.parametrize("L_ladder, side", [((40.0, 48.0, 64.0), "censored_low"),
                                            ((0.5, 0.75, 1.0), "censored_high")],
                         ids=["censored_low", "censored_high"])
def test_run_localization_radii_outside_the_ladder_fail(L_ladder, side):
    # every radius crosses below the smallest L or above the largest, so
    # each is censored to that end of the ladder, no radius is bracketed and
    # no exponent can be fitted
    rec = run_localization(n_samples=4, t_ladder=(16.0, 32.0, 64.0),
                           L_ladder=L_ladder, seed=1)
    checks = {c["name"]: c for c in rec.checks}
    assert checks["control_marginal_exponent"]["passed"]
    assert checks["radius_bracketed"]["passed"] is False
    assert checks["radius_bracketed"]["observed"] == 12
    mc = checks["mc_confinement_exponent"]
    assert mc["passed"] is False and mc["note"] == "too few bracketed radii to fit"
    assert rec.status == "fail"
    assert not any(f["name"] == "mc_confinement_exponent" for f in rec.fits)
    end = L_ladder[0] if side == "censored_low" else L_ladder[-1]
    for row in rec.tables["radius"]:
        assert row[side] == 4 and row["censored_low"] + row["censored_high"] == 4
        assert row["radius"] == row["ci_low"] == row["ci_high"] == end


def test_run_lemma5_small():
    rec = run_lemma5(t_values=(4.0,), n_samples=8)
    assert rec.status == "pass"
    agg = next(c for c in rec.checks if c["name"] == "aggregate_bound_t4")
    assert agg["passed"]


def test_run_confinement_small_ladder():
    # minimizer_near_center is frac_close >= 0.9 at the top rung; at t = 1e3
    # it fails at most seeds, so the small ladder tops out at 1e5, where
    # 12 samples pass at each of seeds 0-79
    rec = run_confinement(t_ladder=(1e4, 1e5), n_samples=12)
    assert rec.status == "pass"
    ctrl = next(c for c in rec.checks if c["control"])
    assert ctrl["observed"] <= 1e-12
    meds = [r["scaled_median"] for r in rec.tables["deviation"]]
    assert meds[1] < meds[0]


def test_run_confinement_stated_size():
    # The verdict's tolerances are set for the stated size, where about 37
    # seeds in 40 pass
    rec = run_confinement()
    assert rec.status == "pass"
    ctrl = next(c for c in rec.checks if c["control"])
    assert ctrl["observed"] <= 1e-12
    meds = [r["scaled_median"] for r in rec.tables["deviation"]]
    assert meds[2] < meds[1] < meds[0]


def test_run_confinement_one_rung_fails_its_trend_check():
    # a single median shows no trend; all() over no pairs must not pass it
    rec = run_confinement(t_ladder=(1e3,), n_samples=20)
    trend = next(c for c in rec.checks
                 if c["name"] == "scaled_deviation_decreasing")
    assert trend["passed"] is False and len(trend["observed"]) == 1
