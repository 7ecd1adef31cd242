"""Potential evaluation, far-field compensation, and local minima."""

import math

import numpy as np
import pytest
from scipy import integrate

from fklab import model, potential
from fklab.model import ModelParams, constants, quadratic_profile
from fklab.points import Box, DiscreteMeasure, PointConfig, sample_homogeneous, sample_tilted
from fklab.potential import (
    MinimizerResult,
    PotentialView,
    evaluate_V,
    far_field_bound,
    field_deviation,
    find_local_min,
)
from fklab.spectral import Grid

P12 = ModelParams(d=1, alpha=2.0, t=16.0)


def make_config(points, radius=50.0):
    return PointConfig(points, Box(radius))


def test_single_point_values():
    view = PotentialView(make_config([[0.0]]), P12)
    # capped at 1 inside the unit ball, |x|^-2 outside
    np.testing.assert_allclose(
        evaluate_V(view, np.array([[0.0], [0.5], [2.0], [-4.0]])),
        [1.0, 1.0, 0.25, 0.0625])


def test_superposition_and_shift():
    pts = [[-1.5], [2.0], [7.0]]
    view = PotentialView(make_config(pts), P12)
    x = np.array([[0.3]])
    expected = sum(min(abs(0.3 - p[0]) ** -2.0, 1.0) for p in pts)
    assert evaluate_V(view, x)[0] == pytest.approx(expected, rel=1e-12)
    # translating points and the evaluation point together leaves V unchanged
    shifted = PotentialView(make_config([[p[0] + 3.0] for p in pts]), P12)
    assert evaluate_V(shifted, x + 3.0)[0] == pytest.approx(expected, rel=1e-12)


def test_empty_config_is_zero():
    view = PotentialView(make_config(np.zeros((0, 1))), P12)
    assert evaluate_V(view, np.array([[0.7]]))[0] == 0.0


def test_far_field_bound_matches_quadrature():
    params = ModelParams(d=1, alpha=2.0, t=1.0)
    for dist in (0.0, 0.5, 1.0, 3.0, 10.0):
        # two one-sided tails: 2 * int_dist^inf min(r^-alpha, 1) dr
        cap = 2.0 * max(1.0 - dist, 0.0)
        exact, _ = integrate.quad(lambda r: 2.0 * r ** -2.0, max(dist, 1.0), np.inf)
        assert far_field_bound(params, dist) == pytest.approx(cap + exact, rel=1e-10)
    with pytest.raises(ValueError):
        far_field_bound(params, -0.5)


@pytest.mark.parametrize("d, alpha", [(1, 1.5), (1, 2.0), (2, 2.5), (2, 3.5)])
def test_far_field_bound_below_distance_one(d, alpha):
    # the capped shell R <= |y| < 1 adds sigma_d (1 - R^d) / d to the tail
    params = ModelParams(d=d, alpha=alpha, t=1.0)
    c = constants(params)
    for dist in (0.0, 0.25, 0.5, 0.9):
        want = c.sigma_d * (1.0 - dist ** d) / d + c.sigma_d / (alpha - d)
        assert far_field_bound(params, dist) == pytest.approx(want, rel=1e-14)
    # continuous at R = 1, where the shell is empty
    below = far_field_bound(params, np.nextafter(1.0, 0.0))
    assert below == pytest.approx(far_field_bound(params, 1.0), rel=1e-14)
    assert below >= far_field_bound(params, 1.0)


def test_window_near_the_box_edge_is_judged_by_its_own_margin():
    # config box (-1, 1).  The point x = 0.5 has margin 0.5: the omitted mean
    # is 1.5 to the right (the cap from 0.5 to 1, then 1) and 2/3 to the
    # left, 2.17 in all, so a tolerance of 2.1 must reject it.  The centre,
    # at margin 1, has a bound of 2 and passes in the same view.
    params = ModelParams(d=1, alpha=2.0, t=1.0)
    cfg = make_config([[0.0]], radius=1.0)
    omitted = 0.5 + 1.0 + 1.0 / 1.5
    assert far_field_bound(params, 0.5) == pytest.approx(3.0)
    assert far_field_bound(params, 0.5) >= omitted > 2.1
    assert PotentialView(cfg, params).margins(np.array([[0.5]])) == pytest.approx(0.5)
    # the bound judged at x = 0.5 is 3: a tolerance just above it accepts
    evaluate_V(PotentialView(cfg, params, max_far_bound=3.0 + 1e-12), 0.5)
    view = PotentialView(cfg, params, max_far_bound=2.1)
    assert evaluate_V(view, 0.0) == 1.0
    with pytest.raises(ValueError, match="exceeds tolerance"):
        evaluate_V(view, 0.5)
    with pytest.raises(ValueError, match="exceeds tolerance"):
        evaluate_V(view, np.array([[0.0], [0.5]]))


def test_margins_and_point_guards():
    cfg = make_config([[0.0]], radius=10.0)
    assert np.array_equal(PotentialView(cfg, P12).margins(np.array([[4.0], [-4.0], [9.5]])),
                          [6.0, 6.0, 0.5])
    with pytest.raises(ValueError, match="outside the configuration box"):
        evaluate_V(PotentialView(cfg, P12), np.array([[0.0], [11.0]]))
    with pytest.raises(ValueError, match="margin of at least 1"):
        # margin below 1 cannot be compensated
        evaluate_V(PotentialView(cfg, P12, compensate=True), 9.5)
    with pytest.raises(ValueError, match="exceeds tolerance"):
        evaluate_V(PotentialView(cfg, P12, max_far_bound=1e-6), 9.0)
    # the same views evaluate points that pass every guard
    assert evaluate_V(PotentialView(cfg, P12, compensate=True), 9.0) > 0.0
    assert evaluate_V(PotentialView(cfg, P12), np.array([[-10.0], [10.0]])).shape == (2,)


def test_compensation_mean_is_exact_in_d1():
    # Monte Carlo over configurations: compensated V at x has mean
    # close to the full-space mean sigma_d/(alpha-1) + cap correction.
    params = ModelParams(d=1, alpha=2.0, t=1.0)
    box = Box(60.0)
    x = np.array([[1.0], [-2.0]])
    total = np.zeros(2)
    n = 600
    for i in range(n):
        cfg = sample_homogeneous(box, seed=50, path=(i,))
        view = PotentialView(cfg, params, compensate=True)
        total += evaluate_V(view, x)
    mean = total / n
    # E V(x) = int min(|y|^-2, 1) dy = 2*1 (cap) + 2*int_1^inf y^-2 = 4
    full_mean = 4.0
    se = math.sqrt(8.0 / 3.0 / n)  # var of V is int vhat^2 = 8/3
    np.testing.assert_array_less(np.abs(mean - full_mean), 4.0 * se)


def test_mean_far_field_x_dependence():
    cfg = make_config([[0.0]], radius=30.0)
    view = PotentialView(cfg, P12, compensate=True)
    xb = np.array([[0.0], [8.0]])
    mf = view.mean_far_field(xb)
    # closer to the right edge, the omitted right tail contributes more
    # than the omitted left tail shrinks: total grows toward the boundary
    assert mf[1] > mf[0]
    exact0 = 2.0 * 30.0 ** -1.0
    assert mf[0] == pytest.approx(exact0, rel=1e-12)


def test_find_local_min_single_well():
    # two points: the deepest potential sits between them
    view = PotentialView(make_config([[-1.0], [1.0]]), P12)
    res = find_local_min(view, Box(5.0), coarse_step=0.25, refine_tol=1e-6)
    assert isinstance(res, MinimizerResult)
    # symmetric configuration: interior minimum cannot beat the far field
    # inside the box, so the minimizer is at the box edge
    vals = evaluate_V(view, np.linspace(-5, 5, 4001)[:, None])
    assert res.value <= vals.min() + 1e-9


def test_find_local_min_matches_brute_force():
    cfg = sample_homogeneous(Box(20.0), seed=21)
    view = PotentialView(cfg, P12)
    res = find_local_min(view, Box(6.0), coarse_step=0.05, refine_tol=1e-7)
    xs = np.linspace(-6, 6, 24001)[:, None]
    brute = evaluate_V(view, xs)
    assert res.value <= brute.min() + 1e-6


def test_profile_deviation_zero_for_exact_quadratic():
    # deviation measured against the model's own quadratic profile must
    # vanish when V is replaced by that exact profile; emulate by an empty
    # config plus explicit check of the identity at machine precision
    params = ModelParams(d=1, alpha=2.0, t=64.0)
    x = np.linspace(-1, 1, 101)
    prof = quadratic_profile(x, params)
    c = constants(params)
    np.testing.assert_allclose(prof, c.C * 64.0 ** -1.5 * x ** 2, rtol=1e-14)
    # empty config: V == 0, so deviation equals max of the profile
    view = PotentialView(make_config(np.zeros((0, 1))), params)
    dev = field_deviation(lambda pts: evaluate_V(view, pts), 0.0, radius=1.0,
                          params=params)
    assert dev == pytest.approx(c.C * 64.0 ** -1.5, rel=1e-6)


def test_profile_deviation_constant_invariance():
    # adding far-field compensation (approximately constant on the ball)
    # moves the deviation only by the compensation's variation
    cfg = sample_homogeneous(Box(80.0), seed=31)
    params = ModelParams(d=1, alpha=2.0, t=256.0)
    plain = PotentialView(cfg, params)
    comp = PotentialView(cfg, params, compensate=True)
    m = find_local_min(plain, Box(10.0), 0.1, 1e-6).location
    d_plain = field_deviation(lambda pts: evaluate_V(plain, pts), m, radius=2.0,
                              params=params)
    d_comp = field_deviation(lambda pts: evaluate_V(comp, pts), m, radius=2.0,
                             params=params)
    assert d_comp == pytest.approx(d_plain, abs=5e-4)


@pytest.mark.parametrize("layer", ["Grid", "vhat_sum", "evaluate_V", "sample_tilted"])
def test_d1_layers_refuse_d2_input(layer):
    # each would read d = 2 input by its first coordinate and give wrong
    # numbers, so it is refused where it enters: a box or a grid is one
    # radius, so a second half-width, like a negative or non-finite one, is
    # no radius; a configuration holds (n, 1) points, so no 2-d configuration
    # reaches evaluate_V; vhat_sum and sample_tilted refuse 2-d atoms
    params = ModelParams(d=2, alpha=3.0, t=1.0)
    pts = np.array([[3.0, 4.0], [0.0, 0.5]])
    calls = {
        "Grid": [(lambda: Grid((4.0, 4.0), 0.5), TypeError, None),
                 (lambda: Grid(-4.0, 0.5), ValueError, "radius and spacing must be positive"),
                 (lambda: Grid(math.inf, 0.5), ValueError, "radius and spacing must be positive"),
                 (lambda: Box((4.0, 4.0)), TypeError, None),
                 (lambda: Box(-4.0), ValueError, "radius must be nonnegative and finite"),
                 (lambda: Box(math.nan), ValueError, "radius must be nonnegative and finite")],
        "vhat_sum": [(lambda: model.vhat_sum(np.zeros((1, 2)), pts, 3.0), ValueError,
                      "vhat_sum is 1-d, got d = 2")],
        "evaluate_V": [(lambda: PointConfig(pts, Box(4.0)), ValueError,
                        r"points must be \(n, 1\), got shape \(2, 2\)")],
        "sample_tilted": [(lambda: sample_tilted(DiscreteMeasure.delta(np.zeros(2)),
                                                 params, Box(4.0), 0), ValueError,
                           "sample_tilted is 1-d, got d = 2")],
    }
    for call, error, match in calls[layer]:
        with pytest.raises(error, match=match):
            call()


def test_blocked_evaluate_V_equals_one_block(monkeypatch):
    # 2000 points make blocks of 16 cells' moments, and 301 nodes span 57
    # cells
    params = ModelParams(d=1, alpha=1.5, t=1.0)
    cfg = sample_homogeneous(Box(1000.0), seed=4)
    assert 1900 < cfg.n < 2100
    x = np.random.default_rng(0).uniform(-900.0, 900.0, (301, 1))
    blocked = evaluate_V(PotentialView(cfg, params, compensate=True), x)
    monkeypatch.setattr(model, "PAIR_BLOCK", 2 ** 60)
    # a fresh view: the first one keeps the moments built in blocks
    assert np.array_equal(blocked, evaluate_V(PotentialView(cfg, params, compensate=True), x))


def _ids_draw(seed, r=0):
    """Criterion 08's primary grid (955 nodes) and one tilted draw of its
    environment at the steepest tilt, as tilted_ids_draws makes them."""
    params = ModelParams(d=1, alpha=1.5, t=1.0)
    tilt = (constants(params).a1 / (1.5 * 0.4)) ** 3.0
    hole = tilt ** (1.0 / 1.5)
    half = round(1.5 * hole / 0.25) * 0.25
    nodes = -half + 0.25 * np.arange(1, round(8.0 * half))
    origin = DiscreteMeasure.delta(np.zeros(1))
    cfg = sample_tilted(origin, params, Box(half + 3.5 * hole), seed,
                        t=tilt, path=(r,))
    return params, nodes[:, None], cfg


def test_evaluate_V_d1_is_within_1e14_of_the_pairwise_sum():
    for r in range(4):
        params, x, cfg = _ids_draw(5, r)
        assert x.shape[0] == 955
        view = PotentialView(cfg, params)
        want = model.vhat_sum(x, cfg.points, params.alpha)
        assert np.all(np.abs(evaluate_V(view, x) - want) <= 1e-14 * want)


def test_evaluate_V_d1_does_not_depend_on_the_batch():
    params, x, cfg = _ids_draw(6)
    view = PotentialView(cfg, params, compensate=True)
    perm = np.random.default_rng(1).permutation(x.shape[0])
    shuffled = evaluate_V(view, x[perm])
    one_by_one = np.array([evaluate_V(view, x[i, 0]) for i in perm])
    assert np.array_equal(shuffled, one_by_one)
    assert np.array_equal(shuffled, evaluate_V(view, x)[perm])


def test_view_builds_each_cells_moments_once(monkeypatch):
    params, x, cfg = _ids_draw(7)
    built = []
    build = model.LocalSum._build
    monkeypatch.setattr(model.LocalSum, "_build",
                        lambda self, cells: built.extend(cells.tolist()) or build(self, cells))
    view = PotentialView(cfg, params, compensate=True)
    first = evaluate_V(view, x[:400])
    again = [evaluate_V(view, x[i, 0]) for i in range(0, x.shape[0], 7)]
    assert np.array_equal(again[:58], first[::7])
    evaluate_V(view, x)
    cells = set(np.floor(x[:, 0] / model.LOCAL_CELL).tolist())
    assert sorted(built) == sorted(cells)          # each cell once
    store = view.local_sum
    q = model.local_order(params.alpha)
    assert store.cells.keys() == cells
    assert sum(m.size for _, _, m in store.cells.values()) <= len(cells) * (q + 1)
    assert np.array_equal(store.points, np.sort(cfg.points[:, 0]))


def test_find_local_min_never_leaves_its_box(monkeypatch):
    # one point in the middle of the box (-3, 3) pushes the minimum onto an
    # edge, and a coarse step of 0.7 does not divide the width 6
    box = Box(3.0)
    seen = []
    evaluate = potential.evaluate_V
    monkeypatch.setattr(potential, "evaluate_V",
                        lambda view, x: seen.append(np.array(x)) or evaluate(view, x))
    view = PotentialView(make_config([[0.0]]), P12)
    res = find_local_min(view, box, coarse_step=0.7, refine_tol=1e-6)
    pts = np.concatenate(seen)
    assert pts.min() >= -3.0 and pts.max() <= 3.0
    assert pts.max() == 3.0 and -3.0 <= res.location <= 3.0
