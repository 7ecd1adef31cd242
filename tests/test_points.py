"""Poisson sampling, tilted measures and thinning."""

import math

import numpy as np
import pytest

from fklab import model, points
from fklab.experiments import _mu_for, run_local_min_stats
from fklab.model import ModelParams, constants, vhat_radial, vhat_sum
from fklab.points import (
    SQUEEZE_ABS,
    SQUEEZE_REL,
    Box,
    DiscreteMeasure,
    PointConfig,
    sample_homogeneous,
    sample_tilted,
    stream,
    superposition_blocks,
    thinning_keep,
    thinning_table,
    tilt_acceptance,
    tilt_log_weight,
)


def test_box_basics():
    b = Box(3.0)
    assert b.radius == 3.0 and b.volume == 6.0
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            Box(radius)


def test_stream_is_deterministic_and_path_sensitive():
    a = stream(42, 1, 2).standard_normal(5)
    b = stream(42, 1, 2).standard_normal(5)
    c = stream(42, 1, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_homogeneous_counts_match_poisson_mean():
    box = Box(50.0)
    counts = [sample_homogeneous(box, seed=100, path=(i,)).n
              for i in range(400)]
    mean = np.mean(counts)
    # Poisson(100): SE of the mean over 400 draws is 0.5
    assert abs(mean - box.volume) < 3.0 * math.sqrt(box.volume / 400.0)
    var = np.var(counts, ddof=1)
    assert 0.7 * box.volume < var < 1.3 * box.volume


def test_homogeneous_spatial_uniformity():
    box = Box(100.0)
    cfg = sample_homogeneous(box, seed=7)
    pts = cfg.points[:, 0]
    left = np.sum(pts < 0.0)
    # binomial(n, 1/2) three-sigma band
    n = pts.size
    assert abs(left - n / 2) < 3.0 * math.sqrt(n / 4.0)


def test_tilt_weight_matches_shape():
    params = ModelParams(d=1, alpha=2.0, t=2.0)
    mu = DiscreteMeasure.delta(np.zeros(1))
    # candidate point inside the cap: acceptance e^{-t}
    assert tilt_log_weight(np.array([0.3]), mu, params, t=params.t)[0] == pytest.approx(-2.0)
    # at distance 2 the shape is 1/4: acceptance e^{-t/4}
    assert tilt_log_weight(np.array([2.0]), mu, params, t=params.t)[0] == pytest.approx(-0.5)
    # two-atom measure averages the shape over atoms
    mu2 = DiscreteMeasure(atoms=np.array([[0.0], [2.0]]),
                          weights=np.array([0.5, 0.5]))
    want = -2.0 * (0.5 * 1.0 + 0.5 * 0.25)
    assert tilt_log_weight(np.array([2.0]), mu2, params, t=params.t)[0] == pytest.approx(want)


def test_tilt_weight_refuses_a_batch_of_2d_points():
    # reshaped to one column, an (m, 2) batch would be read as 2m points
    params = ModelParams(d=1, alpha=2.0, t=1.0)
    mu = DiscreteMeasure.delta(np.zeros(1))
    y = np.array([[0.0, 5.0], [1.0, 2.0]])
    for f in (tilt_log_weight, tilt_acceptance):
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            f(y, mu, params, t=params.t)


@pytest.mark.parametrize("m", [3073, 3074, 5001])
def test_blocked_tilt_weight_equals_one_block(m, monkeypatch):
    # 32 atoms make blocks of 1024 rows; m = 3073 would leave a one-row block
    params = ModelParams(d=1, alpha=1.5, t=1e6)
    mu = DiscreteMeasure.gauss_hermite(32, 40.0)
    y = np.random.default_rng(m).uniform(-400.0, 400.0, (m, 1))
    blocked = tilt_log_weight(y, mu, params, t=params.t)
    monkeypatch.setattr(model, "PAIR_BLOCK", 2 ** 60)
    assert np.array_equal(blocked, tilt_log_weight(y, mu, params, t=params.t))


# Narrow Gauss-Hermite atoms sit within 1 of each other, and their computed
# weights sum to 1 - 2^-52 (6 atoms) or 1 + 2^-52 (14 atoms).  The box below
# puts them all in the cell around 0, where the farthest distance is under 1
# and Phi_lo = Phi_up, so at t = 600 the exact acceptance on an atom differs
# from the cell's bounds only by rounding, and a table without margins
# decides some planted u wrongly.  A negative std stands for skewed atoms,
# spread uniformly over [std, -std] with random weights.
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
    box = Box(2000.37)  # cells of width 0.999935...
    lo, delta, sure, maybe = thinning_table(mu, 1.5, t, box)
    n = sure.size - 2
    assert lo == -2000.37 and n == 4001 and delta == 4000.74 / 4001
    edges = lo + np.arange(n + 1) * delta
    rng = np.random.default_rng(atoms)
    x = np.concatenate([
        rng.uniform(-2000.0, 2000.0, 2000), mu.atoms[:, 0],
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [lo, 2000.37, -2000.5, 2000.5]])         # both box ends, and beyond them
    y = x[:, None]
    # each candidate's cell, and bounds on Phi over it without the widening
    k = np.floor((x - lo) / delta)
    cell = np.clip(k, 0, n - 1).astype(int)
    left, right = edges[cell][:, None], edges[cell + 1][:, None]
    a = mu.atoms[:, 0]
    up = vhat_radial(np.maximum(np.maximum(left - a, a - right), 0.0), 1.5) @ mu.weights
    down = vhat_radial(np.maximum(a - left, right - a), 1.5) @ mu.weights
    phi = vhat_sum(y, mu.atoms, 1.5, mu.weights)
    inside = (k >= 0) & (k < n)
    assert np.all(down[inside] * (1.0 - 1e-12) <= phi[inside])
    assert np.all(phi[inside] <= up[inside] * (1.0 + 1e-12))
    # the stored thresholds carry the margins; beyond the box, none decides
    row = np.clip(k + 1, 0, n + 1).astype(int)
    np.testing.assert_allclose(sure[row][inside], np.exp(-t * up[inside]) * (1.0 - SQUEEZE_REL)
                               - SQUEEZE_ABS, rtol=1e-5)
    np.testing.assert_allclose(maybe[row][inside], np.exp(-t * down[inside]) * (1.0 + SQUEEZE_REL)
                               + SQUEEZE_ABS, rtol=1e-5)
    assert np.all(sure[row][~inside] == -np.inf) and np.all(maybe[row][~inside] == np.inf)
    acc = tilt_acceptance(y, mu, params, t=params.t)
    # the thresholds leave room for 1e-10 of rounding, five times that of
    # exp(-t Phi), on either side of the exact acceptance
    assert np.all(sure[row][inside] <= acc[inside] * (1.0 - 1e-10))
    assert np.all(maybe[row][inside] >= acc[inside] * (1.0 + 1e-10))
    # u on and next to each candidate's thresholds, with and without the
    # margins, then uniform draws
    bounds = [sure[row], maybe[row], np.exp(-t * up), np.exp(-t * down)]
    planted = [np.nextafter(e, s) for e in bounds for s in (-1.0, 2.0)] + bounds
    for u in planted + [rng.random(x.size) for _ in range(25)]:
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        assert np.array_equal(thinning_keep(y, u, mu, params, t, box), u < acc)


# Criterion 05's tilt: the 32-atom measure of run_local_min_stats at alpha = 2
# and the box radii its 1% far-field variance rule gives on each rung.
CRITERION_05 = {1e5: 1401.0, 1e6: 4333.0, 1e7: 13544.0}


def _tilt(case):
    """(params, mu, box) of a named tilt: a criterion 05 rung, the IDS tilt
    at one of criterion 08's lambdas, narrow Gauss-Hermite atoms at t = 600
    (see test_squeeze_decides_as_the_exact_test), a tilt so weak that the
    maybe thresholds exceed 1, or one atom near 1.4e4 (see
    test_table_widening_covers_index_rounding)."""
    kind, x = case
    if kind == "c05":
        params = ModelParams(d=1, alpha=2.0, t=x)
        return params, _mu_for(params), Box(CRITERION_05[x])
    if kind == "ids":
        params = ModelParams(d=1, alpha=1.5, t=1.0)
        tilt = (constants(params).a1 / (1.5 * x)) ** 3.0
        hole = tilt ** (1.0 / 1.5)
        half = round(1.5 * hole / 0.25) * 0.25
        return (params.with_t(tilt), DiscreteMeasure.delta(np.zeros(1)),
                Box(half + 3.5 * hole))
    if kind == "weak":
        return (ModelParams(d=1, alpha=2.0, t=x), DiscreteMeasure.delta(np.zeros(1)),
                Box(50.0))
    if kind == "narrow":
        return (ModelParams(d=1, alpha=1.5, t=600.0), DiscreteMeasure.gauss_hermite(x, 0.05),
                Box(2000.37))
    return (ModelParams(d=1, alpha=2.0, t=700.0), DiscreteMeasure.delta(np.array([x])),
            Box(14000.0))


def _name(case):
    return f"{case[0]}-{case[1]:g}"


def _blocks(params, mu, box):
    table = thinning_table(mu, params.alpha, params.t, box)
    return table, superposition_blocks(*table[2:])


@pytest.mark.parametrize("t, radius", CRITERION_05.items())
def test_criterion_05_tilt_thins_exactly(t, radius):
    # replay the stream: base counts, remainder counts, every position, then
    # one u per remainder point; the base is kept whole and a remainder point
    # when u' = s_B + u (M_B - s_B) is below the exact acceptance
    params, mu, _ = _tilt(("c05", t))
    box = Box(radius)
    (lo, delta, _, _), (edges, s, M) = _blocks(params, mu, box)
    left, width = lo + edges[:-1] * delta, np.diff(edges) * delta
    decided = 0
    for seed, rep in [(0, 0), (0, 1), (5, 7), (1101, 3)]:
        rng = stream(seed, 2, rep)
        n_base, n_rest = rng.poisson(s * width), rng.poisson((M - s) * width)
        y = np.repeat(np.concatenate([left, left]), np.concatenate([n_base, n_rest]))
        y += rng.random(y.size) * np.repeat(np.concatenate([width, width]),
                                            np.concatenate([n_base, n_rest]))
        base, rest = y[:n_base.sum()], y[n_base.sum():]
        u = np.repeat(s, n_rest) + rng.random(rest.size) * np.repeat(M - s, n_rest)
        keep = u < tilt_acceptance(rest[:, None], mu, params, t=params.t)
        got = sample_tilted(mu, params, box, seed, path=(2, rep)).points[:, 0]
        assert np.array_equal(got, np.concatenate([base, rest[keep]]))
        decided += keep.sum() * (~keep).sum()
    assert decided > 0          # some remainder points were kept and some not


@pytest.mark.parametrize("case", [("c05", t) for t in CRITERION_05]
                         + [("weak", 1e-10), ("atom", 9000.1), ("atom", 13000.7)], ids=_name)
def test_blocks_bound_the_acceptance(case):
    params, mu, box = _tilt(case)
    (lo, delta, sure, maybe), (edges, s, M) = _blocks(params, mu, box)
    n = sure.size - 2
    assert edges[0] == 0 and edges[-1] == n and np.all(np.diff(edges) >= 1)
    assert np.all(0.0 <= s) and np.all(s < M) and np.all(M <= 1.0)
    # greedy: a block spreads at most SUPERPOSE_EPS unless it is one cell,
    # and taking in the next cell would spread it beyond
    for b in range(s.size):
        i, j = edges[b], edges[b + 1]
        spread = maybe[i + 1:j + 1].max() - sure[i + 1:j + 1].min()
        assert j - i == 1 or spread <= points.SUPERPOSE_EPS
        if j < n:
            assert maybe[i + 1:j + 2].max() - sure[i + 1:j + 2].min() > points.SUPERPOSE_EPS
    # every cell edge and its neighbouring floats, against the blocks of the
    # cells on either side
    block = np.repeat(np.arange(s.size), np.diff(edges))
    k = np.arange(n + 1)
    x = lo + k * delta
    for b in (block[np.maximum(k - 1, 0)], block[np.minimum(k, n - 1)]):
        for y in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)):
            p = tilt_acceptance(y[:, None], mu, params, t=params.t)
            assert np.all(s[b] <= p) and np.all(p <= M[b])


@pytest.mark.parametrize("case", [("c05", t) for t in CRITERION_05]
                         + [("ids", 0.4), ("narrow", 6), ("narrow", 14)], ids=_name)
def test_tilted_counts_follow_the_intensity(case):
    params, mu, box = _tilt(case)
    (lo, delta, sure, _), (edges, s, _) = _blocks(params, mu, box)
    n = sure.size - 2
    # int p over each cell by 16-point Gauss-Legendre, then over each block
    nodes, w = np.polynomial.legendre.leggauss(16)
    y = (lo + (np.arange(n) + 0.5) * delta)[:, None] + 0.5 * delta * nodes
    p = tilt_acceptance(y.reshape(-1, 1), mu, params, t=params.t).reshape(n, 16)
    lam = np.add.reduceat(0.5 * delta * p @ w, edges[:-1])
    draws = 400
    counts = np.empty((draws, s.size))
    for r in range(draws):
        x = sample_tilted(mu, params, box, 3, path=(r,)).points[:, 0]
        cell = np.clip(np.floor((x - lo) / delta), 0, n - 1)
        counts[r] = np.bincount(np.searchsorted(edges, cell, side="right") - 1,
                                minlength=s.size)
    # the count is Poisson(int p over the box): mean and variance both lam
    total, want = counts.sum(axis=1), lam.sum()
    assert abs(total.mean() - want) <= 4.5 * math.sqrt(want / draws)
    assert abs(total.var(ddof=1) - want) <= 4.5 * math.sqrt((want + 2.0 * want ** 2) / draws)
    # and so is each block's; blocks with 5 or more points in all draws
    # make a chi-square on as many degrees of freedom
    z = (counts.mean(axis=0) - lam) / np.sqrt(np.maximum(lam, 1e-300) / draws)
    assert np.all(np.abs(z) <= 5.0)
    big = lam * draws >= 5.0
    assert np.sum(z[big] ** 2) <= big.sum() + 5.0 * math.sqrt(2.0 * big.sum())


# One atom at coordinates near 1.4e4, where an ulp is 1.8e-12: at distance
# about 1 and t = 700 that moves exp(-t Phi) by 2e-9 relatively, more than
# the margins hold, so the cells must be widened to cover the rounding of
# the cell index, of the cell ends and of the distances.
@pytest.mark.parametrize("atom", [9000.1, 13000.7])
def test_table_widening_covers_index_rounding(atom):
    params = ModelParams(d=1, alpha=2.0, t=700.0)
    mu = DiscreteMeasure.delta(np.array([atom]))
    box = Box(14000.0)
    lo, delta, sure, maybe = thinning_table(mu, 2.0, 700.0, box)
    edges = lo + np.arange(sure.size - 1) * delta
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    row = np.clip(np.floor((x - lo) / delta) + 1, 0, sure.size - 1).astype(int)
    acc = tilt_acceptance(x[:, None], mu, params, t=params.t)
    assert np.all(sure[row] <= acc * (1.0 - 1e-10))
    assert np.all(maybe[row] >= acc * (1.0 + 1e-10))


def test_thinning_table_is_built_once_per_rung(monkeypatch):
    built = {"table": [], "blocks": 0}
    table, blocks = points.thinning_table, points.superposition_blocks

    def counted_table(mu, alpha, t, box):
        built["table"].append(t)
        return table(mu, alpha, t, box)

    def counted_blocks(*args):
        built["blocks"] += 1
        return blocks(*args)

    monkeypatch.setattr(points, "thinning_table", counted_table)
    monkeypatch.setattr(points, "superposition_blocks", counted_blocks)
    run_local_min_stats(n_samples=8)
    # one table and one set of blocks for each rung's 8 draws; the t = 0
    # sampler control is the homogeneous draw and needs neither
    assert sorted(built["table"]) == [1e5, 1e6, 1e7] and built["blocks"] == 3


@pytest.mark.parametrize("t, radius", CRITERION_05.items())
def test_criterion_05_table_leaves_few_candidates_undecided(t, radius, monkeypatch):
    params = ModelParams(d=1, alpha=2.0, t=t)
    mu = _mu_for(params)
    box = Box(radius)
    exact = []

    def counted(y, *args):
        exact.append(len(y))
        return tilt_acceptance(y, *args)

    monkeypatch.setattr(points, "tilt_acceptance", counted)
    drawn = 0
    for rep in range(20):
        drawn += sample_homogeneous(box, 0, path=(2, rep)).n
        sample_tilted(mu, params, box, 0, path=(2, rep))
    assert sum(exact) < 0.005 * drawn


def test_tilted_at_t_zero_equals_homogeneous():
    box = Box(8.0)
    params = ModelParams(d=1, alpha=2.0, t=1.0)
    mu = DiscreteMeasure.delta(np.zeros(1))
    plain = sample_homogeneous(box, seed=11)
    tilted = sample_tilted(mu, params, box, seed=11, t=0.0)
    np.testing.assert_array_equal(plain.points, tilted.points)


def test_tilted_thinning_matches_density():
    # on a box where vhat == 1 everywhere, the tilted process is homogeneous
    # with rate exp(-t); check the count mean against that analytic value
    box = Box(1.0)
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
    acc = tilt_acceptance(x, mu, params, t=params.t)
    assert np.all(acc > 0.0) and np.all(acc <= 1.0)
    assert acc[0] == pytest.approx(math.exp(-3.0))
    assert acc[1] == pytest.approx(math.exp(-0.75))


def test_measure_invariants():
    atoms = np.array([[1.0], [3.0]])
    mu = DiscreteMeasure(atoms=atoms, weights=np.array([0.25, 0.75]))
    assert isinstance(mu.barycenter, float) and mu.barycenter == pytest.approx(2.5)
    # centered second moment: 0.25*(1.5)^2 + 0.75*(0.5)^2
    assert mu.second_moment == pytest.approx(0.75)
    shifted = DiscreteMeasure(mu.atoms - 2.5, mu.weights)
    assert shifted.barycenter == pytest.approx(0.0)
    assert shifted.second_moment == pytest.approx(mu.second_moment)
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=atoms, weights=np.array([0.5, 0.6]))
    # a measure lives on the line: (n,) is read as (n, 1), and no other
    # shape is a measure
    assert DiscreteMeasure(np.array([1.0, 3.0]), [0.5, 0.5]).atoms.shape == (2, 1)
    assert DiscreteMeasure.delta(2.0).atoms.shape == (1, 1)
    for bad, w in ((np.zeros((2, 2)), [0.5, 0.5]), (np.zeros((2, 1, 1)), [0.5, 0.5]),
                   (1.0, [1.0])):
        with pytest.raises(ValueError, match="atoms must be"):
            DiscreteMeasure(bad, w)
    with pytest.raises(ValueError, match=r"atoms must be \(n, 1\), got shape \(1, 2\)"):
        DiscreteMeasure.delta(np.zeros(2))
    # weights are one per atom: (n, 1) weights would pass the sum but break
    # every later product, and scalar weights have no length
    for w in ([[0.25], [0.75]], 1.0, [0.5, 0.25, 0.25]):
        with pytest.raises(ValueError, match="weights must be one per atom"):
            DiscreteMeasure(atoms, w)


def test_gauss_hermite_measure_moments():
    mu = DiscreteMeasure.gauss_hermite(16, std=0.7)
    assert mu.atoms.shape == (16, 1)
    assert mu.barycenter == pytest.approx(0.0, abs=1e-12)
    assert mu.second_moment == pytest.approx(0.49, rel=1e-10)


def test_config_rejects_dimension_mismatch():
    box = Box(1.0)
    for pts in (np.zeros((1, 2)), np.zeros((0, 2)), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match="points must be"):
            PointConfig(pts, box)
    assert PointConfig(np.array([0.5, -0.5]), box).points.shape == (2, 1)
