"""Constants and closed-form profiles against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from fklab.model import (
    ModelParams,
    constants,
    groundstate_phi1,
    h_t,
    nu_coordinate_variance,
    nu_density,
    quadratic_profile,
    scale_r,
    shape_vhat,
    spectral_gap,
    vhat_radial,
    vhat_sum,
)

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


@pytest.mark.parametrize("d, alpha", [(1, 1.5), (2, 2.5)])
def test_vhat_sum_is_bit_equal_to_shape_vhat(d, alpha):
    # rows at r = 0, r < 1, r = 1 exactly and r > 1 from one point, both sides
    p = ModelParams(d=d, alpha=alpha, t=1.0)
    x = np.zeros((9, d))
    x[:, 0] = [0.0, 0.25, -0.999, 1.0, -1.0, 1.5, -3.0, 1e3, 7.123456789]
    if d == 2:
        x[:, 1] = [0.0, 0.5, 0.0, 0.0, 0.0, 2.0, 4.0, -1e2, 0.5]
        x = np.vstack([x, [[0.0, 1.0], [0.0, -1.0], [0.6, 0.8]]])
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


def test_scales_and_profiles():
    p = ModelParams(d=1, alpha=2.0, t=256.0)
    assert scale_r(p) == pytest.approx(256.0 ** (3.0 / 8.0))
    c = constants(p)
    assert h_t(p) == pytest.approx(c.a1 * 0.5 * 256.0 ** -0.5)
    # quadratic well: C * t^{-(alpha-d+2)/alpha} |x|^2
    assert quadratic_profile(2.0, p) == pytest.approx(c.C * 256.0 ** -1.5 * 4.0)
    assert quadratic_profile(np.array([1.0, -1.0]), p)[1] == pytest.approx(c.C * 256.0 ** -1.5)


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


def test_nu_density_is_phi1_squared_translated():
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    x = np.linspace(-5, 7, 8001)
    dens = nu_density(x, 1.0, p)
    dx = x[1] - x[0]
    assert np.sum(dens) * dx == pytest.approx(1.0, rel=1e-8)
    mean = np.sum(x * dens) * dx
    assert mean == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(dens, groundstate_phi1(x - 1.0, p) ** 2, rtol=1e-12)
