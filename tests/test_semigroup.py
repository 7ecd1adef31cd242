"""Feynman-Kac evolution: heat kernel, splitting order, partition functions."""

import inspect
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.fft import dst

from fklab.experiments import LOCALIZATION_FULL_RADIUS, _columns, _compensated, run_localization
from fklab.model import ModelParams, constants, nu_coordinate_variance, vhat_sum
from fklab.points import Box, sample_homogeneous
from fklab.potential import PotentialView, evaluate_V
from fklab.semigroup import (
    FKInstabilityError,
    FKStepper,
    GroundstateReport,
    _dirichlet_eigenvalues,
    _evolve_link,
    _retired_control,
    batched_evolve,
    column_masses,
    groundstate_transform_check,
    jackknife_mean,
    oscillator_ground_state,
    ou_transition_density,
    time_marginal,
)
from fklab.spectral import Grid, make_grid, smallest_eigs
from reference import brownian_partition_mc, strategy_log_lower_bound

P12 = ModelParams(d=1, alpha=2.0, t=1.0)


def evolve(g, V, t, dt, initial=None, **kw):
    """One problem as one column of batched_evolve on a single-dt schedule:
    (u_t, [w ...]) with the column axis dropped."""
    if initial is not None:
        initial = np.asarray(initial)[:, None]
    u, ws = batched_evolve(g, np.asarray(V)[:, None], ((t, dt),),
                           initial=initial, **kw)
    return u[:, 0], [w[:, 0] for w in ws]


def evolve_links(g, V, t, dt, times, initial=None):
    """One problem run in links on ((t, dt),) through the sorted times:
    {time: u}, the column axis dropped."""
    u = None if initial is None else np.asarray(initial)[:, None]
    out, start = {}, 0.0
    for end in sorted(times):
        u = _evolve_link(g, np.asarray(V)[:, None], ((t, dt),), start, end, u)
        out[end], start = u[:, 0], end
    return out


def test_heat_kernel_matches_gaussian():
    g = Grid(6.0, 0.01)
    t = 0.25
    u = evolve(g, np.zeros(g.n), t, 1e-3)[0]
    x = g.nodes()
    gauss = np.exp(-x ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    assert float(np.max(np.abs(u - gauss))) < 1e-4
    assert g.integrate(u) == pytest.approx(1.0, abs=1e-8)


def test_constant_potential_factorizes():
    g = Grid(4.0, 0.02)
    t = 0.5
    free = evolve(g, np.zeros(g.n), t, 1e-3)[0]
    c = 1.7
    killed = evolve(g, np.full(g.n, c), t, 1e-3)[0]
    np.testing.assert_allclose(killed, math.exp(-c * t) * free,
                               rtol=1e-12, atol=1e-14)


def test_strang_splitting_is_second_order():
    g = Grid(4.0, 0.02)
    x = g.nodes()
    t = 0.5

    def mass_at(dt):
        return g.integrate(evolve(g, x ** 2, t, dt)[0])

    ref = mass_at(1.0 / 2048.0)
    e1 = abs(mass_at(1.0 / 32.0) - ref)
    e2 = abs(mass_at(1.0 / 64.0) - ref)
    assert 3.0 < e1 / e2 < 5.0


def _localization_grids():
    # every grid of the localization ladder at the runner's defaults
    defaults = {k: p.default for k, p in
                inspect.signature(run_localization).parameters.items()}
    radii = [*defaults["L_ladder"], LOCALIZATION_FULL_RADIUS]
    return [make_grid(r, defaults["h"]) for r in radii]


def _scipy_heat(u, mult):
    """The spectral heat step written with scipy.fft's public transform."""
    coef = dst(u, type=1, axis=0)
    coef *= mult
    return dst(coef, type=1, axis=0)


def test_heat_step_is_bit_equal_to_scipy_fft():
    # the step calls pocketfft's private DST-I binding; it must stay the very
    # routine scipy.fft.dst(type=1) runs, so any drift fails here
    grids = _localization_grids()
    assert [g.n for g in grids] == [15, 23, 31, 47, 63, 95, 127, 191, 255, 383, 511, 767]
    rng = np.random.default_rng(5)
    tau = 0.25
    for grid in grids:
        n, h = grid.n, grid.h
        mult = np.exp(-tau * _dirichlet_eigenvalues(n, h)) / (2.0 * (n + 1))
        for m in (None, 6, 7):
            shape = (n,) if m is None else (n, m)
            V = rng.uniform(0.0, 3.0, shape)
            stepper = FKStepper(grid, V, tau)
            u = rng.uniform(0.0, 1.0, shape)
            ref_mult = mult if m is None else mult[:, None]
            # the multiplier is built at V's shape; the reference broadcasts
            assert stepper._heat._mult.shape == shape
            assert np.array_equal(stepper._heat._mult,
                                  np.broadcast_to(ref_mult, shape))
            assert np.array_equal(stepper._heat.apply(u.copy()),
                                  _scipy_heat(u, ref_mult))
            # chained Strang steps from a delta, so the fields span many decades
            half = np.exp(-0.5 * tau * V)
            u = np.zeros(shape)
            u[n // 2] = 1.0 / h
            ref = u.copy()
            for _ in range(300):
                u = stepper.step(u)
                ref = half * _scipy_heat(half * ref, ref_mult)
                assert np.array_equal(u, ref)


def test_columns_step_as_if_alone():
    # a column of an (n, m) stepper gets the very bits a one-column stepper
    # gives it: pocketfft transforms columns in SIMD pairs, so odd m also
    # sends a last column through the scalar tail.  Retiring control columns
    # and the full-shape heat multiplier both rest on this.
    rng = np.random.default_rng(12)
    for grid in _localization_grids():
        n = grid.n
        for m in range(1, 8):
            V = rng.uniform(0.0, 3.0, (n, m))
            dt = float(rng.choice([0.02, 0.05, 0.1, 0.25]))
            batch = FKStepper(grid, V, dt)
            alone = [FKStepper(grid, V[:, [j]], dt) for j in range(m)]
            u = np.zeros((n, m))
            u[n // 2] = 1.0 / grid.h
            cols = [u[:, [j]].copy() for j in range(m)]
            for _ in range(50):
                u = batch.step(u)
                cols = [s.step(c) for s, c in zip(alone, cols)]
                assert np.array_equal(u, np.hstack(cols))


def test_mass_growth_raises_instability(monkeypatch):
    # a step that gains 1% mass must be caught; only column 2 gains, and
    # the error names it and the time
    plain_step = FKStepper.step

    def leaky_step(self, u):
        out = plain_step(self, u)
        out[:, 2] *= 1.01
        return out

    monkeypatch.setattr(FKStepper, "step", leaky_step)
    g = Grid(4.0, 0.05)
    x = g.nodes()
    V_cols = 0.01 * np.stack([x ** 2] * 4, axis=1)
    with pytest.raises(FKInstabilityError, match=r"column 2: .* by t = 0\.8 "):
        batched_evolve(g, V_cols, ((1.0, 0.05),))
    monkeypatch.setattr(FKStepper, "step", plain_step)
    batched_evolve(g, V_cols, ((1.0, 0.05),))


def test_instability_in_a_later_link_names_absolute_time(monkeypatch):
    # the retired control runs the schedule in links between horizons; an
    # error in the second link names the time since 0 and the column of the
    # caller's batch, not the link's own clock and column
    plain_step = FKStepper.step
    calls = []

    def leaky_after_first_link(self, u):
        calls.append(None)
        out = plain_step(self, u)
        if len(calls) > 50:              # default_schedule(2.0): dt = 0.02
            out[:, -1] *= 1.01
        return out

    monkeypatch.setattr(FKStepper, "step", leaky_after_first_link)
    g = Grid(4.0, 0.05)
    x = g.nodes()
    V_cols = 0.01 * np.stack([x ** 2] * 3, axis=1)
    # link 1 runs all three columns to t = 1; link 2 runs columns 1 and 2,
    # and the mass check at its 16th step sees column 2 grow
    with pytest.raises(FKInstabilityError, match=r"column 2: .* by t = 1\.32 ") as e:
        _retired_control(g, V_cols, (1.0, 2.0, 2.0))
    assert (e.value.column, e.value.t) == (2, pytest.approx(1.32))


def test_mass_below_round_off_may_wobble_without_raising():
    # lemma5's seed-3 column 91 at t = 16: delta-start mass decays to about
    # -2.6e-24, far below 64 eps of its starting 8, where round-off moves it
    # up by 3%; that is not growth under V >= 0
    params = ModelParams(1, 2.0, 16.0)
    grid = make_grid(16.0, 0.125)
    cfg = sample_homogeneous(Box(46.0), 3, path=(16, 91))
    view = PotentialView(cfg, params)
    V = evaluate_V(view, grid.nodes()[:, None])
    u, _ = batched_evolve(grid, V[:, None], ((16.0, 0.005),))
    assert abs(u.sum()) < 64.0 * np.finfo(float).eps / grid.h


def test_positivity_and_mass_decay():
    g = Grid(5.0, 0.05)
    cfg = sample_homogeneous(Box(5.0), seed=3)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    fields = evolve_links(g, V, 1.0, 1e-3, (0.25, 0.5, 0.75, 1.0))
    final = fields[1.0]
    peak = float(np.max(final))
    assert np.all(final >= -1e-12 * peak)
    masses = [g.integrate(fields[s]) for s in (0.25, 0.5, 0.75, 1.0)]
    assert all(b < a for a, b in zip(masses, masses[1:]))


def test_monotone_in_potential():
    g = Grid(4.0, 0.05)
    x = g.nodes()
    V = np.abs(np.sin(x))
    W = V + 0.3 * np.exp(-x ** 2)
    uv = evolve(g, V, 0.5, 1e-3)[0]
    uw = evolve(g, W, 0.5, 1e-3)[0]
    assert np.all(uv >= uw - 1e-14)


def test_semigroup_property():
    g = Grid(4.0, 0.05)
    cfg = sample_homogeneous(Box(4.0), seed=9)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    one_shot = evolve(g, V, 1.5, 1e-3)[0]
    stage1 = evolve(g, V, 1.0, 1e-3)[0]
    stage2 = evolve(g, V, 0.5, 1e-3, initial=stage1)[0]
    np.testing.assert_allclose(stage2, one_shot, rtol=1e-12, atol=1e-300)


def test_mass_decay_rate_approaches_lambda1():
    # -log <T_t 1, 1> / t converges to the ground-state eigenvalue of the
    # same discrete operator; the offset -log <phi1, 1>^2 / t decays like 1/t
    g = Grid(6.0, 0.05)
    cfg = sample_homogeneous(Box(6.0), seed=17)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    lam1 = smallest_eigs(g, V).lambda1
    fields = evolve_links(g, V, 40.0, 0.01, (10.0, 20.0, 40.0),
                          initial=np.ones(g.n))
    gaps = [abs(-math.log(g.integrate(fields[t])) / t - lam1) for t in (10.0, 20.0, 40.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.08


def test_occupation_constant_f_is_exact():
    g = Grid(4.0, 0.05)
    cfg = sample_homogeneous(Box(4.0), seed=21)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    t = 0.75
    u, (w1,) = evolve(g, V, t, 1e-3, fs=(np.ones((g.n, 1)),))
    assert g.integrate(w1) == pytest.approx(t * g.integrate(u), rel=1e-12)


def test_occupation_odd_f_vanishes_by_symmetry():
    g = Grid(4.0, 0.05)
    x = g.nodes()
    u, (wx,) = evolve(g, x ** 2, 1.0, 1e-3, fs=(x[:, None],))
    assert abs(g.integrate(wx)) < 1e-12 * g.integrate(u)


def test_occupation_second_moment_matches_ou():
    # Brownian path in the quadratic well c x^2 spends its time like the
    # stationary ground-state measure: second moment 1/(2 theta)
    c = constants(P12).C
    g = Grid(3.0, 0.02)
    x = g.nodes()
    t = 24.0
    u, (wx2,) = evolve(g, c * x ** 2, t, 2e-3, fs=((x ** 2)[:, None],))
    second = g.integrate(wx2) / (t * g.integrate(u))
    want = 1.0 / (2.0 * math.sqrt(2.0 * c))
    assert second == pytest.approx(want, rel=1e-3)
    assert want == pytest.approx(nu_coordinate_variance(P12), rel=1e-12)


def test_groundstate_transform_identity():
    rep = groundstate_transform_check(constants(P12).C, 1.0, h=0.01, dt=4e-4)
    assert isinstance(rep, GroundstateReport)
    assert rep.sup_rel_err < 5e-3
    assert rep.mass_rel_err < 1e-4
    assert rep.lambda1 == pytest.approx(constants(P12).a2, rel=1e-12)


def test_ou_transition_density_normalizes():
    x = np.linspace(-5, 5, 4001)
    dens = ou_transition_density(x, 0.7, 0.8, 2.0)
    assert integrate.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-10)
    mean = integrate.trapezoid(x * dens, x)
    assert mean == pytest.approx(0.7 * math.exp(-1.6), abs=1e-9)
    psi = oscillator_ground_state(x, 2.0)
    assert integrate.trapezoid(psi ** 2, x) == pytest.approx(1.0, abs=1e-10)


def test_time_marginal_free_motion():
    g = Grid(8.0, 0.02)
    V = np.zeros((g.n, 1))
    schedule = ((1.0, 1e-3),)
    marg = time_marginal(g, V, schedule, [0.5])
    x = g.nodes()
    dens = marg[0.5][:, 0]
    assert np.sum(dens) * 0.02 == pytest.approx(1.0, rel=1e-10)
    mean = np.sum(x * dens) * 0.02
    var = np.sum(x ** 2 * dens) * 0.02 - mean ** 2
    assert abs(mean) < 1e-8
    assert var == pytest.approx(0.5, rel=1e-3)
    with pytest.raises(ValueError):
        time_marginal(g, V, schedule, [1.5])


def _truncated(schedule, t):
    """The schedule's segments up to time t, ending at t."""
    out, prev = [], 0.0
    for t_end, dt in schedule:
        if prev < t:
            out.append((min(t_end, t), dt))
        prev = t_end
    return tuple(out)


def _schedule_steps(schedule):
    steps, prev = 0, 0.0
    for t_end, dt in schedule:
        steps += round((t_end - prev) / dt)
        prev = t_end
    return steps


# unsorted times, one repeated; s = 1 and horizon - s = 1 fall on the
# boundary between the two segments
MARGINAL_SCHEDULE = ((1.0, 0.02), (3.0, 0.05))
MARGINAL_TIMES = [2.2, 0.5, 1.0, 2.0, 0.5]


def _marginal_problem():
    g = Grid(3.0, 0.05)
    x = g.nodes()
    rng = np.random.default_rng(4)
    V = np.stack([0.5 * x ** 2, np.abs(np.sin(3.0 * x)), rng.uniform(0, 2, x.size)],
                 axis=1)
    init = np.zeros(V.shape)
    init[[50, 60, 70], [0, 1, 2]] = 1.0 / g.h
    return g, V, init


def test_time_marginal_is_bit_equal_to_one_shot_runs():
    # each link chain ends on the bits of one batched_evolve run that stops
    # at s (forward) or at horizon - s (backward)
    g, V, init = _marginal_problem()
    horizon = MARGINAL_SCHEDULE[-1][0]
    marg = time_marginal(g, V, MARGINAL_SCHEDULE, MARGINAL_TIMES, init)
    assert set(marg) == set(MARGINAL_TIMES)
    for s in MARGINAL_TIMES:
        fwd = batched_evolve(g, V, _truncated(MARGINAL_SCHEDULE, s), initial=init)[0]
        bwd = batched_evolve(g, V, _truncated(MARGINAL_SCHEDULE, horizon - s),
                             initial=np.ones(V.shape))[0]
        dens = fwd * bwd
        assert np.array_equal(marg[s], dens / (dens.sum(axis=0) * g.h))


def test_time_marginal_steps_only_to_the_last_times(monkeypatch):
    # forward to max(s), backward to horizon - min(s), and no further
    plain_step = FKStepper.step
    calls = []

    def counted_step(self, u):
        calls.append(None)
        return plain_step(self, u)

    monkeypatch.setattr(FKStepper, "step", counted_step)
    g, V, init = _marginal_problem()
    horizon = MARGINAL_SCHEDULE[-1][0]
    time_marginal(g, V, MARGINAL_SCHEDULE, MARGINAL_TIMES, init)
    want = (_schedule_steps(_truncated(MARGINAL_SCHEDULE, max(MARGINAL_TIMES)))
            + _schedule_steps(_truncated(MARGINAL_SCHEDULE,
                                         horizon - min(MARGINAL_TIMES))))
    assert len(calls) == want == 74 + 80


def test_time_marginal_instability_names_time_since_zero(monkeypatch):
    # the forward pass's first link takes 10 steps; column 1 grows from the
    # second link on, whose check at its 16th step names t = 0.5 + 16 dt
    plain_step = FKStepper.step
    calls = []

    def leaky_after_first_link(self, u):
        calls.append(None)
        out = plain_step(self, u)
        if len(calls) > 10:
            out[:, 1] *= 1.01
        return out

    monkeypatch.setattr(FKStepper, "step", leaky_after_first_link)
    g = Grid(4.0, 0.05)
    V = 0.01 * np.stack([g.nodes() ** 2] * 3, axis=1)
    with pytest.raises(FKInstabilityError, match=r"column 1: .* by t = 1\.3 ") as e:
        time_marginal(g, V, ((2.0, 0.05),), [0.5, 1.5])
    assert (e.value.column, e.value.t) == (1, pytest.approx(1.3))


def test_brownian_mc_agrees_with_grid_evolution():
    pts = np.array([-0.5, 1.0])
    t = 2.0
    R = 5.0
    mc_mean, mc_se = brownian_partition_mc(pts, P12, t, R, n_paths=20000,
                                           seed=33, dt=1e-3)
    g = Grid(R, 0.01)
    V = vhat_sum(g.nodes()[:, None], pts[:, None], P12.alpha)
    grid_val = g.integrate(evolve(g, V, t, 2.5e-4)[0])
    assert abs(mc_mean - grid_val) < 3.0 * mc_se + 2e-3


def test_quenched_partition_and_far_guard():
    grid = Grid(3.0, 0.05)
    cfg = sample_homogeneous(Box(40.0), seed=41)
    view = PotentialView(cfg, P12, max_far_bound=0.1)
    V = evaluate_V(view, grid.nodes()[:, None])
    z = grid.integrate(evolve(grid, V, 2.0, 1e-2)[0])
    assert 0.0 < z < 1.0
    strict = PotentialView(cfg, P12, max_far_bound=0.01)
    with pytest.raises(ValueError, match="exceeds tolerance"):
        evaluate_V(strict, Grid(39.5, 0.05).nodes()[:, None])


def _homogeneous_columns(grid, n, seed):
    """Compensated potentials of n unit-rate environments on a box 30 wider
    than the grid, one column each, as the scenario runners build them."""
    cfg_box = Box(grid.radius + 30.0)
    views = [_compensated(sample_homogeneous(cfg_box, seed, path=(r,)), P12)
             for r in range(n)]
    return _columns(views, grid.nodes())


def test_annealed_partition_deterministic_and_above_strategy_bound():
    t = 2.0
    grid = make_grid(4.0, 0.1)

    def estimate():
        u, _ = batched_evolve(grid, _homogeneous_columns(grid, 12, 55), ((t, 1e-2),))
        return jackknife_mean(column_masses(grid, u))

    (mean, se), again = estimate(), estimate()
    assert (mean, se) == again
    assert mean < 1.0
    bound = max(strategy_log_lower_bound(P12, rho, t=t) for rho in (1.0, 2.0, 3.0))
    assert math.log(mean + 1.96 * se) > bound


def test_confinement_ratio_monotone_in_L():
    # q(L), the mass of paths kept inside (-L, L) over the mass in the full
    # box, on the same environments, cut out of the full grid as
    # run_localization cuts its sub-boxes
    h, t = 0.1, 4.0
    full = make_grid(6.0, h)
    nodes = full.nodes()
    V = _homogeneous_columns(full, 6, 61)
    schedule = ((t, 1e-2),)
    den = column_masses(full, batched_evolve(full, V, schedule)[0])
    q = {}
    for L in (2.0, 4.0, 6.0):
        sub = make_grid(L, h)
        u, _ = batched_evolve(sub, V[np.abs(nodes) < L - 0.5 * h], schedule)
        q[L] = column_masses(sub, u) / den
    assert np.all((0.0 < q[2.0]) & (q[2.0] < q[4.0]) & (q[4.0] <= 1.0 + 1e-12))
    np.testing.assert_allclose(q[6.0], 1.0, rtol=0, atol=1e-12)


def test_jackknife_mean():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    mean, se = jackknife_mean(vals)
    assert mean == pytest.approx(2.5)
    assert se == pytest.approx(np.std(vals, ddof=1) / 2.0, rel=1e-12)


def test_spec_guards():
    g = Grid(2.0, 0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        FKStepper(g, np.zeros(g.n), 0.0)
    # a 2-d V would broadcast against the 1-d multiplier and diffuse along
    # x only; no stepper meets one, since a grid is one radius and refuses
    # a second half-width
    with pytest.raises(TypeError):
        Grid((1.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        evolve(g, np.zeros(g.n), 1.0, 0.3)  # dt does not divide t
    with pytest.raises(ValueError):   # a time off the step lattice
        time_marginal(g, np.zeros((g.n, 1)), ((1.0, 0.01),), [0.005])


def test_fields_and_radius_defaults():
    # the default initial field is a unit-mass delta at the origin, per column
    g = Grid(2.0, 0.1)
    delta = np.zeros((g.n, 2))
    delta[np.argmin(np.abs(g.nodes()))] = 1.0 / g.h
    np.testing.assert_allclose(column_masses(g, delta), 1.0, rtol=1e-12)
    V = np.stack([g.nodes() ** 2, np.ones(g.n)], axis=1)
    assert np.array_equal(batched_evolve(g, V, ((0.1, 0.1),))[0],
                          batched_evolve(g, V, ((0.1, 0.1),), initial=delta)[0])
    assert make_grid(10.0, 0.25).radius == 10.0
