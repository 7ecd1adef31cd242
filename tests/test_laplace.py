"""Laplace functionals of the Poisson potential against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from fklab.experiments import _mu_for
from fklab.model import ModelParams, constants, h_t
from fklab.points import DiscreteMeasure
from fklab.laplace import (
    QuadratureError,
    QuadratureSpec,
    _gk_quad,
    box_log_laplace,
    exact_log_laplace,
    exact_mgf_V0,
    paper_variance_constant,
    predicted_tilted_mean,
    tilted_mean_V,
    tilted_variance_V,
    two_point_bound_check,
    variance_limit_quadrature,
)
from reference import (stay_probability, strategy_log_lower_bound,
                       variance_limit_closed_form)

P12 = ModelParams(d=1, alpha=2.0, t=1.0)


def test_mgf_small_s_series():
    # -log E e^{-sV(0)} = s*I1 - s^2/2*I2 + s^3/6*I3 - ... with
    # Ik = int vhat^k = 2(1 + 1/(k*alpha - 1)) in d = 1
    s = 0.01
    i1, i2, i3 = 4.0, 8.0 / 3.0, 12.0 / 5.0
    series = s * i1 - s * s / 2.0 * i2 + s ** 3 / 6.0 * i3
    got = -exact_mgf_V0(s, P12)
    assert got == pytest.approx(series, abs=1e-9)


def test_mgf_large_s_asymptotics():
    # |log E + a1 s^(d/alpha)| <= 10 e^{-s} + 1e-6 at large s
    for alpha in (1.5, 2.0, 2.5):
        params = ModelParams(d=1, alpha=alpha, t=1.0)
        c = constants(params)
        for s in (1e2, 1e3, 1e4):
            err = abs(exact_mgf_V0(s, params) + c.a1 * s ** (1.0 / alpha))
            assert err <= 10.0 * math.exp(-s) + 1e-6, (alpha, s, err)


def test_mgf_monotone_and_zero():
    assert exact_mgf_V0(0.0, P12) == 0.0
    vals = [exact_mgf_V0(s, P12) for s in (0.1, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing log-MGF
    assert all(v < 0 for v in vals)


def test_exact_log_laplace_single_atom_reduces_to_mgf():
    mu = DiscreteMeasure.delta(np.array([2.5]))
    t = 7.0
    assert exact_log_laplace(mu, P12, t=t) == pytest.approx(
        -exact_mgf_V0(t, P12), rel=1e-13)


def test_single_atom_functionals_need_no_quadrature(monkeypatch):
    # exact_mgf_V0 and box_log_laplace are closed forms in the incomplete
    # gamma function: they return with the quadrature routine disabled
    def no_quadrature(*args, **kwargs):
        raise AssertionError("_gk_quad called")

    monkeypatch.setattr("fklab.laplace._gk_quad", no_quadrature)
    for params in (P12, ModelParams(d=2, alpha=3.0, t=1.0)):
        assert exact_mgf_V0(50.0, params) < 0.0
    p = ModelParams(d=1, alpha=1.5, t=1.0)
    for half in (0.5, 1.0, 400.0):
        assert 0.0 < box_log_laplace(712.0, p, half) < -exact_mgf_V0(712.0, p)
    with pytest.raises(AssertionError, match="_gk_quad called"):
        exact_log_laplace(DiscreteMeasure(np.array([[-1.0], [1.0]]),
                                          np.array([0.5, 0.5])), P12, t=5.0)


def test_box_log_laplace_is_the_line_value_minus_the_tail():
    # Lambda_B(s) = Lambda_R(s) - 2 int_L^inf (1 - exp(-s y^-alpha)) dy; at
    # the steepest Lifshitz tilt the tail is over a hundred
    p = ModelParams(d=1, alpha=1.5, t=1.0)
    for s, half in ((712.0, 400.0), (3.0, 6.0), (0.2, 1.0)):
        tail = 2.0 * integrate.quad(lambda y: -math.expm1(-s * y ** -1.5), half,
                                    math.inf, epsabs=1e-12, epsrel=1e-12)[0]
        assert box_log_laplace(s, p, half) == pytest.approx(
            -exact_mgf_V0(s, p) - tail, rel=1e-9)
    assert box_log_laplace(712.0, p, 400.0) < -exact_mgf_V0(712.0, p) - 100.0
    # inside the cap vhat = 1
    assert box_log_laplace(2.0, p, 0.5) == pytest.approx(-math.expm1(-2.0))
    assert box_log_laplace(0.0, p, 10.0) == 0.0


def test_exact_log_laplace_brute_force_two_atoms():
    # direct trapezoid of int (1 - exp(-t Phi(y))) dy with analytic tail
    t = 5.0
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    y = np.linspace(-300.0, 300.0, 1_200_001)
    with np.errstate(divide="ignore"):
        phi = 0.5 * np.minimum(np.abs(y - 1.0) ** -2.0, 1.0) \
            + 0.5 * np.minimum(np.abs(y + 1.0) ** -2.0, 1.0)
    inner = integrate.trapezoid(-np.expm1(-t * phi), y)
    # beyond H the integrand is ~ t*phi, phi ~ |y|^-2: tail = 2*t/H
    tail = 2.0 * t / 300.0
    got = exact_log_laplace(mu, P12, t=t)
    assert got == pytest.approx(inner + tail, abs=2e-4)
    assert got > -exact_mgf_V0(t, P12)  # spreading mass costs more


def test_exact_log_laplace_translation_invariance():
    t = 50.0
    mu = DiscreteMeasure(np.array([[-1.0], [2.0]]), np.array([0.3, 0.7]))
    shifted = DiscreteMeasure(mu.atoms + 13.0, mu.weights)
    a = exact_log_laplace(mu, P12, t=t)
    b = exact_log_laplace(shifted, P12, t=t)
    assert a == pytest.approx(b, rel=1e-9)


def test_log_laplace_increasing_in_t():
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    vals = [exact_log_laplace(mu, P12, t=t) for t in (1.0, 4.0, 16.0, 64.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_multi_atom_log_laplace_at_t_zero_is_zero():
    # -log E[exp(-0 <mu, V>)] = 0, whatever the atoms and weights
    mu = DiscreteMeasure(np.array([[-2.0], [0.5], [3.0]]), np.array([0.2, 0.3, 0.5]))
    assert exact_log_laplace(mu, P12, t=0.0) == 0.0
    assert exact_log_laplace(mu, P12, t=1e-6) > 0.0


def test_second_order_constant_recovery():
    # residual of -log E[e^{-t<mu,V>}] after removing a1 sqrt(t), scaled by
    # t^{-1/2} M2, recovers C
    t = 1e6
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    c = constants(P12)
    val = exact_log_laplace(mu, P12, t=t)
    residual = (val - c.a1 * math.sqrt(t)) / (t ** -0.5 * mu.second_moment)
    assert residual == pytest.approx(c.C, rel=5e-2)
    assert residual == pytest.approx(c.C, rel=1e-4)  # far tighter in practice


def test_two_point_bound_margins():
    t = 1e4
    margins = []
    for sep in (1.0, 5.0, 20.0):
        rep = two_point_bound_check(-sep / 2.0, sep / 2.0, P12, t=t)
        assert rep.margin >= 0.0, sep
        margins.append(rep.margin)
    # slack grows like (C/4 - C/5) sep^2 / sqrt(t)
    assert margins[0] < margins[1] < margins[2]
    # at x = y the two atoms have M2 = 0: the single-atom value, and the
    # bound is the leading order alone
    rep = two_point_bound_check(0.7, 0.7, P12, t=t)
    assert rep.lhs_log == exact_mgf_V0(t, P12)
    assert rep.bound_log == -constants(P12).a1 * t ** 0.5


def test_tilted_moments_at_t_zero():
    mu = DiscreteMeasure.delta(np.zeros(1))
    # int vhat = 4 and int vhat^2 = 8/3 for d = 1, alpha = 2
    assert tilted_mean_V(mu, 0.0, P12, t=0.0) == pytest.approx(4.0, rel=1e-10)
    assert tilted_variance_V(mu, 0.0, P12, t=0.0) == pytest.approx(8.0 / 3.0, rel=1e-10)


def test_tilted_mean_radial_and_quadrature_routes_agree():
    mu = DiscreteMeasure.delta(np.zeros(1))
    t = 100.0
    # the closed form at the atom against quadrature out to R, off the atom;
    # the domain-limited route omits the far tail 2 R^(1 - p alpha)/(p alpha - 1)
    # of vhat^p, p = 1 for the mean and 2 for the variance, where t vhat is
    # at most 1e-6
    for moment, R, tail in ((tilted_mean_V, 1e6, 2.0 / 1e6),
                            (tilted_variance_V, 1e4, 2.0 / 3.0 * 1e4 ** -3)):
        fast = moment(mu, 0.0, P12, t=t)
        slow = moment(mu, 1e-14, P12, t=t, domain_radius=R)
        assert fast - slow == pytest.approx(tail, rel=1e-4), moment
        assert fast == pytest.approx(slow + tail, rel=1e-10), moment


def test_predicted_tilted_mean_matches_quadrature():
    t = 1e6
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    pred = predicted_tilted_mean(mu, P12, t=t)
    quad = tilted_mean_V(mu, 0.0, P12, t=t)
    assert quad == pytest.approx(pred, rel=1e-8)
    # the correction is downward from the single-atom mean h_t
    assert pred < h_t(P12.with_t(t))


def test_scaled_variance_plateau():
    mu = DiscreteMeasure.delta(np.zeros(1))
    limit = variance_limit_closed_form(P12)
    assert limit == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
    scaled = [t ** 1.5 * tilted_variance_V(mu, 0.0, P12, t=t)
              for t in (1e2, 1e4, 1e6)]
    for s in scaled:
        assert s == pytest.approx(limit, rel=1e-6)
    assert variance_limit_quadrature(P12) == pytest.approx(limit, rel=1e-6)


def test_paper_variance_constant_documented():
    # the documented closed form alpha*sigma_d*Gamma((3 alpha - d + 1)/alpha)
    # evaluates to 8 in the reference case; recorded, not asserted equal to
    # the quadrature limit (they differ; the limit is what the data obeys)
    assert paper_variance_constant(P12) == pytest.approx(8.0, rel=1e-12)
    assert paper_variance_constant(P12) != pytest.approx(
        variance_limit_closed_form(P12), rel=0.5)


def test_stay_probability_against_image_series():
    # independent oracle: reflection/image representation of the exit time
    def image(rho, t):
        tot = 0.0
        for k in range(-40, 41):
            tot += (-1) ** k * (norm.cdf((2 * k + 1) * rho / math.sqrt(t))
                                - norm.cdf((2 * k - 1) * rho / math.sqrt(t)))
        return tot

    for rho, t in [(1.0, 0.5), (1.0, 2.0), (3.0, 4.0), (0.5, 0.1)]:
        assert stay_probability(rho, t) == pytest.approx(image(rho, t), abs=1e-10)
    assert stay_probability(1.0, 1e-6) == pytest.approx(1.0, abs=1e-12)
    assert stay_probability(0.0, 1.0) == 0.0


def test_strategy_bound_monotone_and_below_zero():
    # log Z_t <= 0 always; the strategy bound must respect that and improve
    # with a sensible confinement radius at moderate t
    t = 16.0
    vals = {rho: strategy_log_lower_bound(P12, rho, t=t) for rho in (0.5, 2.0, 8.0)}
    assert all(v < 0.0 for v in vals.values())
    # rho = 2 beats both a cramped and an oversized ball at this horizon
    assert vals[2.0] > vals[0.5]
    assert vals[2.0] > vals[8.0]


def test_quadrature_spec_guards():
    with pytest.raises(ValueError):
        exact_log_laplace(DiscreteMeasure.delta(np.zeros(1)), P12, t=-1.0)
    with pytest.raises(ValueError):
        tilted_mean_V(DiscreteMeasure.delta(np.zeros(1)), 0.0, P12, t=-2.0)


def _reference_quad(f, pts, ratio=1.25):
    """scipy quad at epsrel 1e-12 between consecutive breakpoints, each piece
    away from 0 cut into geometric panels of |b|/|a| <= ratio."""
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b <= a:
            continue
        edges = [a, b]
        if a > 0.0 or b < 0.0:
            n = math.ceil(math.log(max(abs(a), abs(b)) / min(abs(a), abs(b)))
                          / math.log(ratio))
            edges = np.geomspace(a, b, max(n, 1) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12,
                                    limit=200)[0]
    return total


def _line_breakpoints(kinks, far):
    """kinks, 0 and +-geomspace(1, far), clipped to [-far, far]"""
    g = np.geomspace(1.0, far, 60)
    pts = set(kinks) | set(g) | set(-g) | {0.0}
    return sorted(p for p in pts if -far <= p <= far)


def test_quadratures_match_geometric_reference():
    # every quadrature entry point against scipy quad on fine geometric
    # panels: the tilted_min ladder (full line, and a box of radius 5000 like
    # the sampled box R), the run_mgf grid, box_log_laplace, the variance
    # limit and a two-atom Laplace functional
    rel = 1e-7
    for t in (1e5, 1e6, 1e7):
        p = P12.with_t(t)
        mu = _mu_for(p)
        x, w = mu.atoms[:, 0], np.asarray(mu.weights)
        far = 1e4 * math.sqrt(t)  # t Phi < 1e-8 beyond far
        for power, moment in ((1, tilted_mean_V), (2, tilted_variance_V)):
            def f(y, power=power):
                phi = w @ np.maximum(np.abs(y - x), 1.0) ** -2.0
                return max(abs(y), 1.0) ** (-2.0 * power) * math.exp(-t * phi)

            for radius in (None, 5e3):
                end = far if radius is None else radius
                pts = _line_breakpoints(list(x - 1.0) + list(x + 1.0), end)
                ref = _reference_quad(f, pts)
                if radius is None:  # analytic tails, exp(-t Phi) = 1 - O(1e-8)
                    ref += 2.0 * far ** (1.0 - 2.0 * power) / (2.0 * power - 1.0)
                got = moment(mu, 0.0, p, t=t, domain_radius=radius)
                assert got == pytest.approx(ref, rel=rel), (t, power, radius)

    for alpha in (1.5, 2.0, 2.5):
        params = ModelParams(d=1, alpha=alpha, t=1.0)
        c = constants(params)
        beta = 1.0 / alpha
        for s in (1e2, 1e3, 1e4):
            J = _reference_quad(lambda u: -math.expm1(-u) * u ** (-beta - 1.0),
                                [0.0, 1e-3, s])
            ref = -(c.omega_d * -math.expm1(-s) + c.sigma_d / alpha * s ** beta * J)
            assert exact_mgf_V0(s, params) == pytest.approx(ref, rel=rel), (alpha, s)

    p15 = ModelParams(d=1, alpha=1.5, t=1.0)
    for s, half in ((712.0, 400.0), (40.0, 60.0), (3.0, 6.0)):
        tail = _reference_quad(lambda y: -math.expm1(-s * y ** -1.5), [1.0, half])
        ref = 2.0 * (-math.expm1(-s) + tail)
        assert box_log_laplace(s, p15, half) == pytest.approx(ref, rel=rel), s

    t, scale = 1e8, 1e4
    radial = _reference_quad(lambda r: r ** -4.0 * math.exp(-t / (r * r)),
                             [1e-3 * scale, 1e5 * scale])
    ref = 2.0 * t ** 1.5 * (radial + (1e5 * scale) ** -3.0 / 3.0)
    assert variance_limit_quadrature(P12) == pytest.approx(ref, rel=rel)

    # the difference integral of the two-atom functional at run_laplace's t
    t = 1e6
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))

    def g(y):
        one = math.exp(-t * max(abs(y), 1.0) ** -2.0)
        if abs(y) <= 2.0:
            phi = 0.5 * max(abs(y - 1.0), 1.0) ** -2.0 + 0.5 * max(abs(y + 1.0), 1.0) ** -2.0
            return one - math.exp(-t * phi)
        # Phi - vhat in closed form, free of cancellation in the far field
        y2 = y * y
        return -one * math.expm1(-t * (3.0 * y2 - 1.0) / (y2 * (y2 - 1.0) ** 2))

    diff = _reference_quad(g, _line_breakpoints([-2.0, 2.0], 1e7))
    got = exact_log_laplace(mu, P12, t=t) + exact_mgf_V0(t, P12)
    # the known tail beyond the cut-off H is added back, so this is tighter
    assert got == pytest.approx(diff, rel=2e-9)


def test_gk_quad_error_contract():
    spec = QuadratureSpec()
    kinked = lambda y: np.abs(y - 0.3)
    exact = (0.3 ** 2 + 0.7 ** 2) / 2.0
    with pytest.raises(QuadratureError):
        _gk_quad(kinked, [0.0, 1.0], QuadratureSpec(limit=1))
    with pytest.raises(ValueError):
        QuadratureSpec(limit=0)
    val, err = _gk_quad(kinked, [0.0, 1.0], spec)
    assert 0.0 < err <= max(spec.abs_tol, spec.rel_tol * exact)
    assert abs(val - exact) <= err
    # one f call per sweep, on the 21 nodes of every new panel; a panel away
    # from 0 is cut geometrically first, so [1, 10] starts as 4 of 6 panels
    sizes = []

    def counted(y):
        sizes.append(y.size)
        return np.exp(-y)

    val, err = _gk_quad(counted, [-1.0, 0.0, 1.0, 10.0], spec)
    assert sizes == [21 * 6]
    assert val == pytest.approx(math.exp(1.0) - math.exp(-10.0), rel=1e-14)
    assert err <= spec.rel_tol * val
    assert _gk_quad(counted, [2.0, 2.0], spec) == (0.0, 0.0)
    # on a smooth f, where Kronrod and Gauss agree to round-off, the error
    # is the floor: 50 eps int|f|, up to the rounding of its own sum
    val, err = _gk_quad(np.cos, [0.0, 1.0], spec)
    assert err >= 50.0 * np.finfo(float).eps * math.sin(1.0) * (1.0 - 1e-12)
    with pytest.raises(QuadratureError):
        _gk_quad(lambda y: np.where(y < 0.5, np.inf, y), [0.0, 1.0], spec)
    # a tolerance below the cancellation noise of the two-atom difference
    # integrand is refused, after a bounded number of panels
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    with pytest.raises(QuadratureError):
        exact_log_laplace(mu, P12, QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12), t=1e6)
