"""Poisson sampling, tilted measures and thinning."""

import math

import numpy as np
import pytest

from fklab import model
from fklab.experiments import _mu_for
from fklab.model import ModelParams, vhat_radial, vhat_sum
from fklab.points import (
    SQUEEZE_ABS,
    SQUEEZE_REL,
    Box,
    DiscreteMeasure,
    PointConfig,
    sample_homogeneous,
    sample_tilted,
    squeeze_core,
    stream,
    thinning_keep,
    tilt_acceptance,
    tilt_log_weight,
)


def test_box_basics():
    b = Box.cube(2, 3.0)
    assert b.volume == pytest.approx(36.0)
    assert b.contains(np.array([[0.0, 0.0], [2.9, -2.9], [3.1, 0.0]])).tolist() == [
        True, True, False]
    shifted = b.shifted(np.array([1.0, 0.0]))
    assert shifted.contains(np.array([[3.5, 0.0]]))[0]
    with pytest.raises(ValueError):
        Box(center=(0.0,), half_widths=(-1.0,))


def test_stream_is_deterministic_and_path_sensitive():
    a = stream(42, 1, 2).standard_normal(5)
    b = stream(42, 1, 2).standard_normal(5)
    c = stream(42, 1, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_homogeneous_counts_match_poisson_mean():
    box = Box.cube(1, 50.0)
    counts = [sample_homogeneous(box, 1.0, seed=100, path=(i,)).n
              for i in range(400)]
    mean = np.mean(counts)
    # Poisson(100): SE of the mean over 400 draws is 0.5
    assert abs(mean - box.volume) < 3.0 * math.sqrt(box.volume / 400.0)
    var = np.var(counts, ddof=1)
    assert 0.7 * box.volume < var < 1.3 * box.volume


def test_homogeneous_spatial_uniformity():
    box = Box.cube(1, 20.0)
    cfg = sample_homogeneous(box, 5.0, seed=7)
    pts = cfg.points[:, 0]
    left = np.sum(pts < 0.0)
    # binomial(n, 1/2) three-sigma band
    n = pts.size
    assert abs(left - n / 2) < 3.0 * math.sqrt(n / 4.0)


def test_tilt_weight_matches_shape():
    params = ModelParams(d=1, alpha=2.0, t=2.0)
    mu = DiscreteMeasure.delta(np.zeros(1))
    # candidate point inside the cap: acceptance e^{-t}
    assert tilt_log_weight(np.array([0.3]), mu, params)[0] == pytest.approx(-2.0)
    # at distance 2 the shape is 1/4: acceptance e^{-t/4}
    assert tilt_log_weight(np.array([2.0]), mu, params)[0] == pytest.approx(-0.5)
    # two-atom measure averages the shape over atoms
    mu2 = DiscreteMeasure(atoms=np.array([[0.0], [2.0]]),
                          weights=np.array([0.5, 0.5]))
    want = -2.0 * (0.5 * 1.0 + 0.5 * 0.25)
    assert tilt_log_weight(np.array([2.0]), mu2, params)[0] == pytest.approx(want)


@pytest.mark.parametrize("m", [3073, 3074, 5001])
def test_blocked_tilt_weight_equals_one_block(m, monkeypatch):
    # 32 atoms make blocks of 1024 rows; m = 3073 would leave a one-row block
    params = ModelParams(d=1, alpha=1.5, t=1e6)
    mu = DiscreteMeasure.gauss_hermite(32, 40.0)
    y = np.random.default_rng(m).uniform(-400.0, 400.0, (m, 1))
    blocked = tilt_log_weight(y, mu, params)
    monkeypatch.setattr(model, "PAIR_BLOCK", 2 ** 60)
    assert np.array_equal(blocked, tilt_log_weight(y, mu, params))


# Narrow Gauss-Hermite atoms sit within 1 of each other, and their computed
# weights sum to 1 - 2^-52 (6 atoms) or 1 + 2^-52 (14 atoms).  So at t = 600
# the exact acceptance on an atom differs from the bounds of both stages by
# about 1e-13, relatively, and a squeeze without margins in either stage
# decides some planted u wrongly.  A negative std stands for skewed atoms,
# spread uniformly over [std, -std] with random weights, whose core hull
# does not sit in the middle of the whole hull.
@pytest.mark.parametrize("atoms, std, t", [(32, 40.0, 1e5), (32, 40.0, 1e7), (1, 0.0, 300.0),
                                           (5, 40.0, 0.7), (6, 0.05, 600.0), (14, 0.05, 600.0),
                                           (12, -50.0, 1e4)])
def test_squeeze_decides_as_the_exact_test(atoms, std, t):
    params = ModelParams(d=1, alpha=1.5, t=t)
    if atoms == 1:
        mu = DiscreteMeasure.delta(np.zeros(1))
    elif std > 0:
        mu = DiscreteMeasure.gauss_hermite(atoms, std)
    else:
        spread = np.random.default_rng(0)
        mu = DiscreteMeasure(spread.uniform(std, -std, (atoms, 1)),
                             spread.dirichlet(np.ones(atoms)))
    rng = np.random.default_rng(atoms)
    y = rng.uniform(-2000.0, 2000.0, (4000, 1))
    y[:atoms, 0] = mu.atoms[:, 0]                # candidates on the atoms
    lo, hi = mu.atoms.min(), mu.atoms.max()
    near = np.maximum(np.maximum(lo - y[:, 0], y[:, 0] - hi), 0.0)
    far = np.maximum(y[:, 0] - lo, hi - y[:, 0])
    # stage 2: the core's share W of Phi is bounded through the core's hull
    core_lo, core_hi, w = squeeze_core(mu)
    core_near = np.maximum(np.maximum(core_lo - y[:, 0], y[:, 0] - core_hi), 0.0)
    core_far = np.maximum(y[:, 0] - core_lo, core_hi - y[:, 0])
    up = w * vhat_radial(core_near, 1.5) + (1.0 - w) * vhat_radial(near, 1.5)
    down = w * vhat_radial(core_far, 1.5) + (1.0 - w) * vhat_radial(far, 1.5)
    phi = vhat_sum(y, mu.atoms, 1.5, mu.weights)
    assert np.all(down * (1.0 - 1e-12) <= phi) and np.all(phi <= up * (1.0 + 1e-12))
    edges = [np.exp(-t * vhat_radial(near, 1.5)) * (1.0 - SQUEEZE_REL) - SQUEEZE_ABS,
             np.exp(-t * vhat_radial(far, 1.5)) * (1.0 + SQUEEZE_REL) + SQUEEZE_ABS,
             np.exp(-t * up), np.exp(-t * down),
             np.exp(-t * up) * (1.0 - SQUEEZE_REL) - SQUEEZE_ABS,
             np.exp(-t * down) * (1.0 + SQUEEZE_REL) + SQUEEZE_ABS]
    acc = tilt_acceptance(y, mu, params)
    # u on and next to every band edge of both stages, and on the stage-2
    # bounds without margins, then uniform draws
    planted = [np.nextafter(e, s) for e in edges for s in (-1.0, 2.0)] + edges
    for u in planted + [rng.random(y.shape[0]) for _ in range(25)]:
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        assert np.array_equal(thinning_keep(y, u, mu, params, t), u < acc)


# Criterion 05's tilt: the 32-atom measure of run_local_min_stats at alpha = 2
# and the box radii its 1% far-field variance rule gives on each rung.
@pytest.mark.parametrize("t, radius", [(1e5, 1401.0), (1e6, 4333.0), (1e7, 13544.0)])
def test_criterion_05_tilt_thins_exactly(t, radius):
    params = ModelParams(d=1, alpha=2.0, t=t)
    mu = _mu_for(params)
    box = Box.cube(1, radius)
    for seed, rep in [(0, 0), (0, 1), (5, 7), (1101, 3)]:
        base = sample_homogeneous(box, 1.0, seed, path=(2, rep))
        u = stream(seed, 2, rep, 1).random(base.n)
        want = base.points[u < tilt_acceptance(base.points, mu, params)]
        got = sample_tilted(mu, params, box, seed, path=(2, rep)).points
        assert np.array_equal(got, want)


def test_tilted_at_t_zero_equals_homogeneous():
    box = Box.cube(1, 8.0)
    params = ModelParams(d=1, alpha=2.0, t=1.0)
    mu = DiscreteMeasure.delta(np.zeros(1))
    plain = sample_homogeneous(box, 1.0, seed=11)
    tilted = sample_tilted(mu, params, box, seed=11, t=0.0)
    np.testing.assert_array_equal(plain.points, tilted.points)


def test_tilted_thinning_matches_density():
    # on a box where vhat == 1 everywhere, the tilted process is homogeneous
    # with rate exp(-t); check the count mean against that analytic value
    box = Box.cube(1, 1.0)
    params = ModelParams(d=1, alpha=2.0, t=1.5)
    mu = DiscreteMeasure.delta(np.zeros(1))
    counts = [sample_tilted(mu, params, box, seed=5, path=(i,)).n
              for i in range(2000)]
    mean = np.mean(counts)
    lam = math.exp(-1.5) * box.volume
    assert abs(mean - lam) < 3.0 * math.sqrt(lam / 2000.0)


def test_tilt_acceptance_bounds():
    params = ModelParams(d=1, alpha=2.0, t=3.0)
    mu = DiscreteMeasure.delta(np.zeros(1))
    x = np.array([[0.0], [2.0], [3.9]])
    acc = tilt_acceptance(x, mu, params)
    assert np.all(acc > 0.0) and np.all(acc <= 1.0)
    assert acc[0] == pytest.approx(math.exp(-3.0))
    assert acc[1] == pytest.approx(math.exp(-0.75))


def test_measure_invariants():
    atoms = np.array([[1.0], [3.0]])
    mu = DiscreteMeasure(atoms=atoms, weights=np.array([0.25, 0.75]))
    assert mu.barycenter[0] == pytest.approx(2.5)
    # centered second moment: 0.25*(1.5)^2 + 0.75*(0.5)^2
    assert mu.second_moment == pytest.approx(0.75)
    shifted = mu.translated(np.array([-2.5]))
    assert shifted.barycenter[0] == pytest.approx(0.0)
    assert shifted.second_moment == pytest.approx(mu.second_moment)
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=atoms, weights=np.array([0.5, 0.6]))


def test_gauss_hermite_measure_moments():
    mu = DiscreteMeasure.gauss_hermite(16, std=0.7, center=1.2)
    assert mu.barycenter[0] == pytest.approx(1.2, abs=1e-12)
    assert mu.second_moment == pytest.approx(0.49, rel=1e-10)


def test_config_rejects_dimension_mismatch():
    box = Box.cube(2, 1.0)
    with pytest.raises(ValueError):
        PointConfig(np.array([[0.0]]), box)
