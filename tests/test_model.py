"""Constants and closed-form profiles against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fklab import model
from fklab.model import (
    LOCAL_CELL,
    LocalSum,
    ModelParams,
    constants,
    h_t,
    local_order,
    nu_coordinate_variance,
    quadratic_profile,
    scale_r,
    spectral_gap,
    vhat_radial,
    vhat_sum,
)
from reference import groundstate_phi1, shape_vhat

mpmath.mp.dps = 40


def mp_constants(d, alpha):
    """Gamma-function oracle computed with mpmath, independent of scipy."""
    d_, a_ = mpmath.mpf(d), mpmath.mpf(alpha)
    sigma_d = 2 * mpmath.pi ** (d_ / 2) / mpmath.gamma(d_ / 2)
    omega_d = sigma_d / d_
    a1 = omega_d * mpmath.gamma((a_ - d_) / a_)
    C = (a_ * sigma_d / (2 * d_)) * mpmath.gamma((2 * a_ - d_ + 2) / a_)
    a2 = d_ * mpmath.sqrt(C / 2)
    l1 = ((a_ - d_) / a_) * (d_ / a_) ** (d_ / (a_ - d_)) * a1 ** (a_ / (a_ - d_))
    l2 = a2 * (d_ * a1 / a_) ** ((a_ + d_ - 2) / (2 * (a_ - d_)))
    return {k: float(v) for k, v in
            dict(sigma_d=sigma_d, omega_d=omega_d, a1=a1, C=C, a2=a2, l1=l1, l2=l2).items()}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("offset", [0.5, 1.0, 1.5])
def test_constants_match_gamma_oracle(d, offset):
    alpha = d + offset
    c = constants(ModelParams(d=d, alpha=alpha, t=1.0))
    ref = mp_constants(d, alpha)
    for name, want in ref.items():
        got = getattr(c, name)
        assert got == pytest.approx(want, rel=1e-10), name


def test_constants_frozen_values_d1_alpha2():
    c = constants(ModelParams(d=1, alpha=2.0, t=1.0))
    assert c.a1 == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
    assert c.a1 == pytest.approx(3.5449077018, rel=1e-9)
    assert c.C == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-12)
    assert c.C == pytest.approx(2.6586807764, rel=1e-9)
    assert c.a2 == pytest.approx(1.1529702460, rel=1e-9)
    assert c.l1 == pytest.approx(math.pi, rel=1e-12)
    assert c.l2 == pytest.approx(1.5349900619, rel=1e-9)


def test_constants_frozen_values_d1_alpha15():
    c = constants(ModelParams(d=1, alpha=1.5, t=1.0))
    assert c.a1 == pytest.approx(5.3578770694, rel=1e-9)
    assert c.C == pytest.approx(2.2568632324, rel=1e-9)
    assert c.l1 == pytest.approx(22.7863341660, rel=1e-8)
    assert c.l2 == pytest.approx(2.0076516764, rel=1e-8)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(d=1, alpha=1.0, t=1.0)   # alpha must exceed d
    with pytest.raises(ValueError):
        ModelParams(d=1, alpha=3.0, t=1.0)   # alpha must be below d + 2
    with pytest.raises(ValueError):
        ModelParams(d=2, alpha=3.0, t=-1.0)
    p = ModelParams(d=2, alpha=3.0, t=5.0)
    assert p.with_t(7.0).t == 7.0


def test_shape_vhat_cap_and_tail():
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    assert shape_vhat(0.0, p) == 1.0
    assert shape_vhat(0.5, p) == 1.0
    assert shape_vhat(2.0, p) == pytest.approx(0.25)
    xs = np.array([0.0, 1.0, 3.0, -3.0])
    np.testing.assert_allclose(shape_vhat(xs, p), [1.0, 1.0, 1 / 9, 1 / 9])
    p2 = ModelParams(d=2, alpha=3.0, t=1.0)
    pts = np.array([[3.0, 4.0], [0.1, 0.1]])
    np.testing.assert_allclose(shape_vhat(pts, p2), [5.0 ** -3, 1.0])
    assert vhat_radial(np.array([0.5, 2.0]), 2.0) == pytest.approx([1.0, 0.25])
    # bit for bit the masked form, from the cap edge to overflow
    r = np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 2.0, 1e300, np.inf])
    for alpha in (1.5, 2.0, 2.5):
        masked = np.ones_like(r)
        masked[r > 1.0] = r[r > 1.0] ** -alpha
        assert np.array_equal(vhat_radial(r, alpha), masked)
    assert type(vhat_radial(2.0, 2.0)) is float and vhat_radial(2.0, 2.0) == 0.25


@pytest.mark.parametrize("d, alpha", [(1, 1.5), (1, 2.5)])
def test_vhat_sum_is_bit_equal_to_shape_vhat(d, alpha):
    # rows at r = 0, r < 1, r = 1 exactly and r > 1 from one point, both sides
    p = ModelParams(d=d, alpha=alpha, t=1.0)
    x = np.zeros((9, d))
    x[:, 0] = [0.0, 0.25, -0.999, 1.0, -1.0, 1.5, -3.0, 1e3, 7.123456789]
    for point in (np.zeros(d), np.full(d, 2.5)):
        got = vhat_sum(x + point, point[None, :], alpha)
        want = shape_vhat((x + point) - point, p)
        assert np.array_equal(got, want)
    # weighted sums reduce the same (m, n) block with @ weights
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4.0, 4.0, (7, d))
    w = rng.random(7)
    diff = x[:, None, :] - pts[None, :, :]
    assert np.array_equal(vhat_sum(x, pts, alpha, w), shape_vhat(diff, p) @ w)
    assert np.array_equal(vhat_sum(x, pts, alpha), shape_vhat(diff, p).sum(axis=1))
    assert np.array_equal(vhat_sum(x, pts[:0], alpha), np.zeros(x.shape[0]))


LOCAL_ALPHAS = (1.05, 1.5, 2.0, 2.95)


def vhat_sum_local(x, points, alpha):
    """One call of a fresh LocalSum, which keeps nothing from earlier calls."""
    return LocalSum(points, alpha)(x)


def _order_bound(alpha, q):
    """LocalSum's remainder bound at order q, from lgamma."""
    a = math.exp(math.lgamma(alpha + q + 1) - math.lgamma(alpha) - math.lgamma(q + 2))
    return 1.25 ** alpha * a * 4.0 ** -(q + 1) / (1 - (alpha + q + 1) / (4.0 * (q + 2)))


@pytest.mark.parametrize("alpha, q", zip(LOCAL_ALPHAS, (27, 28, 29, 31)))
def test_local_order_is_the_least_that_meets_its_bound(alpha, q):
    assert local_order(alpha) == q
    assert _order_bound(alpha, q) <= 2.0 ** -53 < _order_bound(alpha, q - 1)
    # the geometric bound covers the series' exact tail at the worst ratio 1/4
    tail = mpmath.nsum(lambda k: abs(mpmath.binomial(-alpha, k)) * mpmath.mpf(4) ** -k,
                       [q + 1, mpmath.inf])
    assert float(tail * mpmath.mpf(1.25) ** alpha) <= _order_bound(alpha, q)


def _assert_local_matches_pairwise(x, pts, alpha):
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    pts = np.asarray(pts, dtype=float).reshape(-1, 1)
    want = vhat_sum(x, pts, alpha)
    got = vhat_sum_local(x, pts, alpha)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("alpha", LOCAL_ALPHAS)
def test_vhat_sum_local_matches_pairwise_on_ids_windows(alpha):
    # criterion 08's primary grid, 955 nodes of spacing 0.25, in a box of
    # half width 398.6 at rate 1, with and without a hole at the origin
    x = -119.5 + 0.25 * np.arange(1, 956)
    rng = np.random.default_rng(int(100 * alpha))
    for seed in range(3):
        pts = rng.uniform(-398.6, 398.6, rng.poisson(797.2))
        _assert_local_matches_pairwise(x, pts, alpha)
        _assert_local_matches_pairwise(x, pts[np.abs(pts) > 12.0 * seed], alpha)


@pytest.mark.parametrize("alpha", LOCAL_ALPHAS)
def test_vhat_sum_local_matches_pairwise_on_planted_cases(alpha):
    w = LOCAL_CELL
    c = 0.5 * w                              # centre of the cell [0, w)
    edges = [0.0, np.nextafter(w, 0.0), w, -w, 2.0 * w]
    reach = [c - 2.0 * w, c + 2.0 * w]       # exactly 2W from the centre
    rng = np.random.default_rng(7)
    x = np.concatenate([edges, rng.uniform(-3.0 * w, 4.0 * w, 40), [c]])
    cases = {
        "on nodes": np.concatenate([x[:8], rng.uniform(-300.0, 300.0, 200)]),
        "on cell edges": np.concatenate([edges, rng.uniform(-300.0, 300.0, 200)]),
        "at reach": reach,
        "at reach, beside others": np.concatenate([reach, np.nextafter(reach, c),
                                                   rng.uniform(-300.0, 300.0, 200)]),
        "none beyond reach": rng.uniform(c - 1.5 * w, c + 1.5 * w, 50),
        "single point": [5.0 * w + 0.3],
    }
    for pts in cases.values():
        _assert_local_matches_pairwise(x, pts, alpha)
    # each worst-ratio pair alone, an edge of the cell against a point at
    # reach, is summed to within 1e-15 of the exact |x - p|^-alpha; the
    # expansion cut 4 orders early is off by 4e-15 to 8e-15 here
    for xe in (0.0, np.nextafter(w, 0.0)):
        for p in reach:
            exact = mpmath.mpf(abs(xe - p)) ** -alpha
            got = vhat_sum_local(np.array([[xe]]), np.array([[p]]), alpha)[0]
            assert abs(got - exact) <= 1e-15 * exact
    # a window with no point beyond reach of any of its cells
    _assert_local_matches_pairwise([1.0, 2.0, 31.0], cases["none beyond reach"], alpha)
    assert np.array_equal(vhat_sum_local(x[:, None], np.zeros((0, 1)), alpha),
                          np.zeros(x.size))
    assert vhat_sum_local(np.zeros((0, 1)), np.ones((3, 1)), alpha).shape == (0,)


def test_vhat_sum_local_rows_do_not_depend_on_the_batch(monkeypatch):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-400.0, 400.0, (800, 1))
    x = rng.uniform(-120.0, 120.0, (300, 1))
    batch = vhat_sum_local(x, pts, 1.5)
    perm = rng.permutation(x.shape[0])
    assert np.array_equal(vhat_sum_local(x[perm], pts, 1.5), batch[perm])
    one_by_one = [vhat_sum_local(x[i:i + 1], pts, 1.5)[0] for i in range(x.shape[0])]
    assert np.array_equal(one_by_one, batch)
    # one LocalSum whose cells were built by earlier one-row calls
    kept = LocalSum(pts, 1.5)
    assert np.array_equal([kept(x[i:i + 1])[0] for i in perm], batch[perm])
    assert np.array_equal(kept(x), batch)
    # moment blocks of one cell each give the same moments
    monkeypatch.setattr(model, "PAIR_BLOCK", 1)
    assert np.array_equal(vhat_sum_local(x, pts, 1.5), batch)


def _masked_build(self, cells):
    """LocalSum._build summing the masked far field of every cell, also of a
    cell whose near range holds every point, where each term weighs 0."""
    p, alpha, width = self.points, self.alpha, LOCAL_CELL
    centre = (cells + 0.5) * width
    lo = np.searchsorted(p, centre - 2.0 * width, side="right")
    hi = np.searchsorted(p, centre + 2.0 * width, side="left")
    q = local_order(alpha)
    coef = np.cumprod(np.concatenate([[1.0],
                                      (-alpha - np.arange(q)) / np.arange(1, q + 1)]))
    u = p[None, :] - centre[:, None]
    u[np.abs(u) < 2.0 * width] = np.inf
    w = np.abs(u) ** -alpha
    moments = np.empty((q + 1, cells.size))
    for k in range(q + 1):
        moments[k] = w.sum(axis=1)
        w *= -1.0 / u
    moments *= coef[:, None]
    self.cells.update(zip(cells.tolist(), zip(lo.tolist(), hi.tolist(), moments.T)))


@pytest.mark.parametrize("alpha", LOCAL_ALPHAS)
def test_cells_that_hold_every_point_keep_zero_moments(monkeypatch, alpha):
    # rows in the cells [0, W) and [W, 2W); points in (-W/2, 3W/2) are near
    # both, and one more at 3W is near only the second, whose near range
    # ends at 7W/2
    w = LOCAL_CELL
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2.0 * w, (40, 1))
    near = rng.uniform(-0.5 * w, 1.5 * w, 30)
    for pts, far_cells in ((near, set()), (np.append(near, 3.0 * w), {0.0})):
        got = LocalSum(pts, alpha)
        out = got(x)
        with monkeypatch.context() as m:
            m.setattr(LocalSum, "_build", _masked_build)
            assert np.array_equal(out, LocalSum(pts, alpha)(x))
        assert got.cells.keys() == {0.0, 1.0}
        assert {k for k, (*_, mom) in got.cells.items() if mom.any()} == far_cells


def test_scales_and_profiles():
    p = ModelParams(d=1, alpha=2.0, t=256.0)
    assert scale_r(p) == pytest.approx(256.0 ** (3.0 / 8.0))
    c = constants(p)
    assert h_t(p) == pytest.approx(c.a1 * 0.5 * 256.0 ** -0.5)
    # quadratic well: C * t^{-(alpha-d+2)/alpha} |x|^2
    assert quadratic_profile(2.0, p) == pytest.approx(c.C * 256.0 ** -1.5 * 4.0)
    assert quadratic_profile(np.array([1.0, -1.0]), p)[1] == pytest.approx(c.C * 256.0 ** -1.5)
    # the profile is on the line: coordinates are squared elementwise, and a
    # 2-d model, whose profile would need |x|^2 over points, is refused
    assert quadratic_profile(np.array([[1.0, 2.0]]), p)[0, 1] == pytest.approx(
        c.C * 256.0 ** -1.5 * 4.0)
    with pytest.raises(ValueError, match="quadratic_profile is 1-d, got d = 2"):
        quadratic_profile(1.0, ModelParams(d=2, alpha=3.0, t=256.0))


def test_groundstate_phi1_normalized_and_variance():
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    x = np.linspace(-8, 8, 20001)
    phi = groundstate_phi1(x, p)
    dx = x[1] - x[0]
    assert np.sum(phi ** 2) * dx == pytest.approx(1.0, rel=1e-8)
    var = np.sum(x ** 2 * phi ** 2) * dx
    assert var == pytest.approx(nu_coordinate_variance(p), rel=1e-8)
    c = constants(p)
    assert nu_coordinate_variance(p) == pytest.approx((8.0 * c.C) ** -0.5, rel=1e-12)
    assert nu_coordinate_variance(p) == pytest.approx(0.2168313, rel=1e-6)
    assert spectral_gap(p) == pytest.approx(math.sqrt(2.0 * c.C), rel=1e-12)



def _concave_conjugate(a1, beta, a2, gamma, lam):
    """sup_s [a1 s^beta + a2 s^gamma - s lam] over s > 0, maximised in
    u = log s on a bracket about the one-term optimum (a1 beta / lam)^(1/(1 - beta))."""
    u1 = math.log(a1 * beta / lam) / (1.0 - beta)
    res = minimize_scalar(
        lambda u: -(a1 * math.exp(beta * u) + a2 * math.exp(gamma * u) - lam * math.exp(u)),
        bounds=(u1 - 3.0, u1 + 3.0), method="bounded", options={"xatol": 1e-12})
    assert u1 - 3.0 < res.x < u1 + 3.0
    return -res.fun


@pytest.mark.parametrize("alpha", [1.5, 1.75, 2.0, 2.5])
def test_l1_l2_are_the_two_term_legendre_transform(alpha):
    # -log N(lambda) ~ l1 lambda^(-d/(alpha-d)) + l2 lambda^(-(alpha+d-2)/(2(alpha-d)))
    # is the concave conjugate of a1 s^(d/alpha) + a2 s^((alpha+d-2)/(2 alpha))
    # to second order.  The third-order remainder is not zero (it is about
    # 0.047 at alpha = 2), so the gap is judged against the l2 term; it is
    # 1.8e-6 of it at alpha = 1.5, lambda = 1e-2, and 4.9e-2 at 2.5, 0.1.
    d = 1
    c = constants(ModelParams(d=d, alpha=alpha, t=1.0))
    beta, gamma = d / alpha, (alpha + d - 2.0) / (2.0 * alpha)
    e1, e2 = -d / (alpha - d), -(alpha + d - 2.0) / (2.0 * (alpha - d))
    for lam in (1e-2, 0.1):
        sup = _concave_conjugate(c.a1, beta, c.a2, gamma, lam)
        l2_term = c.l2 * lam ** e2
        assert abs(sup - c.l1 * lam ** e1 - l2_term) <= 0.1 * l2_term
        # a wrong l2 prefactor, or the exponent of s in place of lambda's
        for wrong in (1.25 * l2_term, c.l2 * lam ** (-gamma)):
            assert abs(sup - c.l1 * lam ** e1 - wrong) > 0.1 * l2_term
