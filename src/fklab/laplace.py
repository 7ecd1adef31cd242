"""Quadrature oracles for annealed Laplace functionals of the potential.

For a unit-rate Poisson environment and a finitely supported probability
measure mu, Campbell's formula turns annealed expectations into integrals:

    -log E[exp(-t <mu, V>)] = int (1 - exp(-t Phi(y))) dy,
        Phi(y) = int vhat(x - y) mu(dx),

    E_t[V(x)]   = int vhat(x - y) exp(-t Phi(y)) dy      (tilted mean)
    Var_t[V(x)] = int vhat(x - y)^2 exp(-t Phi(y)) dy    (tilted variance)

where E_t is the expectation under the tilted environment with intensity
exp(-t Phi(y)) dy.  For a single atom everything reduces, via u = t r^-alpha,
to incomplete-gamma expressions (DLMF 8.2); in particular, with beta = d/alpha
and one integration by parts,

    -log E[exp(-s V(0))] = omega_d s^beta gamma(1 - beta, s)
                         = a1 s^beta - omega_d s^beta Gamma(1 - beta, s),

the leading term a1 s^(d/alpha) and an explicit O(e^-s) remainder.  The box
normalizer of the IDS weights (box_log_laplace, d = 1) has the same form.

The single-atom reductions hold in any d.  Measures live on the line
(points.DiscreteMeasure), and the multi-atom and off-atom quadratures are
d = 1; they, and the pair bound, take the horizon as the keyword t.
Multi-atom values are computed as the single-atom value plus a difference
integral D = int (exp(-t vhat) - exp(-t Phi)) dy, which converges fast once
mu is centered (the dipole term cancels), leaving a tail controlled by
t * alpha * M2 * (H - X)^-(alpha + 1).

Second-order predictions: for centered mu supported in B(0, t^(1/alpha - eps)),

    -log E[exp(-t <mu, V>)] = a1 t^(d/alpha)
                            + (C + o(1)) t^((d-2)/alpha) int |z|^2 mu(dz),

and the pair bound with c1 = C / 5 replaces the second moment by |x - y|^2.

Every integral with no closed form goes through one routine, _gk_quad: the
adaptive 21-point Gauss-Kronrod scheme of QUADPACK (Piessens et al., 1983),
run panel-parallel as in Shampine's vectorised quadgk (J. Comput. Appl.
Math. 211, 2008), with a global stopping rule in the spirit of Gander &
Gautschi (BIT 40, 2000).
The integrands take an array of nodes, so one sweep evaluates the 21 nodes
of every live panel in one call, one vhat_sum over nodes x atoms.

Geometric split.  The breakpoints mark kinks and the scales t^(1/alpha);
every panel between them that does not touch 0 is first cut geometrically
into pieces with |b|/|a| <= 2.  A panel spanning decades, such as
[4 t^(1/alpha), H] with H / t^(1/alpha) near 10^3, otherwise puts no node
where the mass is, and Kronrod and Gauss then agree on a wrong value: the
full-line tilted variance at t = 1e5 to 1e7 comes out about 1% low that way.

Error contract.  A panel's error is |Kronrod - Gauss|, floored at 50 eps
int|f| (QUADPACK's roundoff level).  A quadrature returns (value, summed
error) once the summed error is within max(abs_tol, rel_tol |I|); until then
each sweep bisects the panels whose error exceeds their length's share of
that bound.  It raises QuadratureError when QuadratureSpec.limit sweeps are
not enough, when only roundoff-limited panels are left, when a sweep would
add more than _MAX_PANELS panels, or when f is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import ModelParams, constants, h_t, vhat_radial, vhat_sum
from .points import DiscreteMeasure


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive quadrature tolerances; outputs stay in log domain.

    A quadrature stops once its summed error estimate is within
    max(abs_tol, rel_tol * |I|), so with the defaults abs_tol dominates every
    integral below about 1e-2.  The tilted variance at t = 1e6 and 1e7
    (about 8e-10 and 3e-11) is then held only to abs_tol, and its relative
    accuracy rests on the geometric panels, not on the contract.  limit caps the sweeps.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    limit: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.limit < 1:
            raise ValueError("limit must be at least one sweep")


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested accuracy."""


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21), its half from 1
# down to 0: the nodes, their Kronrod weights, and the 10-point Gauss weights
# of the nodes at odd positions
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_GK_X = np.r_[-_XK, _XK[-2::-1]]
_GK_WK = np.r_[_WK, _WK[-2::-1]]
_GK_WD = _GK_WK.copy()  # Kronrod minus Gauss weights
_GK_WD[1::2] -= np.r_[_WG, _WG[::-1]]
# new panels per sweep beyond which a quadrature is taken as runaway: noise
# from cancellation inside f, as in exact_log_laplace's difference integrand
# at tolerances near 1e-14, escapes the roundoff floor, and the panels would
# double every sweep until memory runs out
_MAX_PANELS = 1 << 14


def _geometric_panels(breakpoints):
    """Panels between consecutive breakpoints, with each panel that does not
    touch 0 cut geometrically into pieces of |b|/|a| <= 2; returns the
    arrays (lo, hi) of panel ends."""
    p = np.asarray(breakpoints, dtype=float)
    a, b = p[:-1][p[1:] > p[:-1]], p[1:][p[1:] > p[:-1]]
    away = (a > 0.0) | (b < 0.0)
    ratio = np.where(away, b / np.where(away, a, 1.0), 1.0)
    n = np.maximum(np.ceil(np.abs(np.log2(ratio)) - 1e-9), 1.0).astype(int)
    i = np.repeat(np.arange(a.size), n)
    k = np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)  # piece within panel
    lo = a[i] * ratio[i] ** (k / n[i])
    hi = np.where(k + 1 == n[i], b[i], a[i] * ratio[i] ** ((k + 1) / n[i]))
    return lo, hi


def _gk_quad(f, breakpoints, spec: QuadratureSpec):
    """Adaptive Gauss-Kronrod quadrature of a vectorised f from breakpoints[0]
    to breakpoints[-1]; returns (value, summed error estimate).  The method
    and its error contract are set out in the module docstring."""
    lo, hi = _geometric_panels(breakpoints)
    if lo.size == 0:
        return 0.0, 0.0
    length = float(np.sum(hi - lo))
    a = b = val = err = floor = np.empty(0)
    for _ in range(spec.limit):
        half = 0.5 * (hi - lo)
        y = (0.5 * (hi + lo))[:, None] + half[:, None] * _GK_X
        fy = np.asarray(f(y.ravel()), dtype=float).reshape(y.shape)
        if not np.all(np.isfinite(fy)):
            raise QuadratureError(f"integrand is not finite on "
                                  f"({breakpoints[0]:.3g}, {breakpoints[-1]:.3g})")
        new_floor = 50.0 * np.finfo(float).eps * half * (np.abs(fy) @ _GK_WK)
        a, b = np.r_[a, lo], np.r_[b, hi]
        val = np.r_[val, half * (fy @ _GK_WK)]
        err = np.r_[err, np.maximum(np.abs(half * (fy @ _GK_WD)), new_floor)]
        floor = np.r_[floor, new_floor]
        total, total_err = float(val.sum()), float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return total, total_err
        split = (err > tol * (b - a) / length) & (err > floor)
        if not split.any() or 2 * np.count_nonzero(split) > _MAX_PANELS:
            break
        mid = 0.5 * (a[split] + b[split])
        lo, hi = np.r_[a[split], mid], np.r_[mid, b[split]]
        keep = ~split
        a, b, val, err, floor = a[keep], b[keep], val[keep], err[keep], floor[keep]
    raise QuadratureError(
        f"quadrature on ({breakpoints[0]:.3g}, {breakpoints[-1]:.3g}) achieved "
        f"error {total_err:.3g}, wanted {tol:.3g}")


# ---------------------------------------------------------------------------
# single-atom reductions

def _lower_gamma(a: float, x: float) -> float:
    """The lower incomplete gamma function gamma(a, x), for a > 0."""
    return special.gammainc(a, x) * special.gamma(a)


def exact_mgf_V0(s: float, params: ModelParams) -> float:
    """log E[exp(-s V(0))] = -omega_d s^beta gamma(1 - beta, s), beta = d/alpha,
    in closed form; equals -(a1 s^beta + O(e^-s)) and -> 0 as s -> 0."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0:
        return 0.0
    beta = params.d / params.alpha
    return -float(constants(params).omega_d * s ** beta * _lower_gamma(1.0 - beta, s))


def box_log_laplace(s: float, params: ModelParams, half_width: float) -> float:
    """Lambda_B(s) = int_B (1 - exp(-s vhat(y))) dy over B = [-L, L] (d = 1),
    in closed form: with beta = 1/alpha and a = s max(L, 1)^-alpha,

        Lambda_B(s) = 2 s^beta [gamma(1 - beta, s) - gamma(1 - beta, a)]
                      + 2 L (1 - e^-a),

    which is 2 L (1 - e^-s) for L <= 1, where vhat = 1 on B.  For a >> 1,
    a box inside the hole s^(1/alpha), the two gammas nearly cancel and the
    absolute error grows to about eps s^beta Gamma(1 - beta); the IDS boxes
    have a < 0.1.

    This is -log E[exp(-s V_B(0))] for the potential of the points in B only,
    the normalizer of the tilted process sampled on B.  It tends to
    -exact_mgf_V0(s) as L -> infinity, but the omitted tail is of order
    s L^(1 - alpha) and is not small at large s.
    """
    if params.d != 1:
        raise NotImplementedError("box Laplace functional implemented for d = 1")
    if s < 0 or half_width < 0:
        raise ValueError("s and half_width must be nonnegative")
    if s == 0 or half_width == 0:
        return 0.0
    beta = 1.0 / params.alpha
    a = s * max(half_width, 1.0) ** -params.alpha
    inner = _lower_gamma(1.0 - beta, s) - _lower_gamma(1.0 - beta, a)
    return float(2.0 * s ** beta * inner - 2.0 * half_width * math.expm1(-a))


def _single_atom_moment(power: int, t: float, params: ModelParams):
    """int vhat(y)^power e^{-t vhat(y)} dy, the tilted moment at the single
    atom.

    Cap region: omega_d e^-t.  Far region via u = t r^-alpha, with
    a = (power alpha - d) / alpha:
    (sigma_d/alpha) t^-a * int_0^t u^(a-1) e^-u du.
    """
    c = constants(params)
    a = (power * params.alpha - params.d) / params.alpha
    far = (c.sigma_d / params.alpha) * t ** (-a) * _lower_gamma(a, t)
    return c.omega_d * math.exp(-t) + far


def variance_limit_quadrature(params: ModelParams) -> float:
    """Direct radial quadrature of t^((2a-d)/a) int |y|^(-2 alpha) e^{-t |y|^-alpha} dy.

    Evaluated at the large reference t = 1e8; independent of the
    incomplete-gamma route and of any printed constant.
    """
    t = 1.0e8
    c = constants(params)
    al, d = params.alpha, params.d
    scale = t ** (1.0 / al)

    def f(r):
        return r ** (d - 1.0 - 2.0 * al) * np.exp(-t * r ** (-al))

    pts = [scale * x for x in (1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0, 1e4)]
    val, _ = _gk_quad(f, pts, QuadratureSpec())
    return c.sigma_d * t ** ((2.0 * al - d) / al) * val


def paper_variance_constant(params: ModelParams) -> float:
    """Printed fluctuation constant alpha sigma_d Gamma((3 alpha - d + 1)/alpha),
    kept for comparison against the quadrature limit (they disagree; the
    quadrature value is what the sampler must match)."""
    c = constants(params)
    return params.alpha * c.sigma_d * special.gamma((3.0 * params.alpha - params.d + 1.0) / params.alpha)


# ---------------------------------------------------------------------------
# multi-atom machinery (d = 1 quadrature)

def _difference_breakpoints(atoms: np.ndarray, t: float, alpha: float, H: float):
    scale = t ** (1.0 / alpha)
    pts = {-H, H, 0.0, 1.0, -1.0}
    for x in atoms:
        pts.update((x, x - 1.0, x + 1.0))
    for m in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        pts.update((m * scale, -m * scale))
    return sorted(p for p in pts if -H <= p <= H)


def exact_log_laplace(mu: DiscreteMeasure, params: ModelParams,
                      spec: QuadratureSpec = QuadratureSpec(), *, t: float) -> float:
    """int (1 - exp(-t Phi_mu(y))) dy = -log E[exp(-t <mu, V>)], nonnegative.

    Computed as the single-atom value plus a centered difference integral on
    [-H, H].  Beyond H the difference is t (Phi - vhat) to leading order, so
    its tail t alpha M2 H^-(alpha+1) is added back; H keeps that tail below
    tolerance, which leaves a higher-order remainder.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    base = -exact_mgf_V0(t, params)
    if mu.atoms.shape[0] == 1:
        return base
    if params.d != 1:
        raise NotImplementedError("multi-atom Laplace functional implemented for d = 1")
    al = params.alpha
    atoms = mu.atoms[:, 0] - mu.barycenter
    w = np.asarray(mu.weights)
    X = float(np.max(np.abs(atoms)))
    M2 = float(w @ atoms ** 2)
    if M2 == 0.0:
        return base
    eps_tail = max(spec.abs_tol, 1e-12)
    H = X + (t * al * max(M2, 1e-30) / eps_tail) ** (1.0 / (al + 1.0))
    H = max(H, X + 10.0, 2.0 * t ** (1.0 / al))
    column = atoms[:, None]

    def g(y):
        one = np.exp(-t * vhat_radial(np.abs(y), al))
        return one - np.exp(-t * vhat_sum(y[:, None], column, al, w))

    pts = _difference_breakpoints(atoms, t, al, H)
    diff, _ = _gk_quad(g, pts, spec)
    return base + diff + t * al * M2 * H ** -(al + 1.0)


@dataclass(frozen=True)
class PairBoundReport:
    margin: float
    lhs_log: float
    bound_log: float


def two_point_bound_check(x: float, y: float, params: ModelParams,
                          spec: QuadratureSpec = QuadratureSpec(), *,
                          t: float) -> PairBoundReport:
    """Checks log E[exp(-t (V(x)+V(y))/2)] <= -a1 t^(d/a) - (C/5) t^((d-2)/a) |x-y|^2
    for coordinates x and y on the line."""
    c = constants(params)
    mu = DiscreteMeasure([x, y], [0.5, 0.5])
    lhs = -exact_log_laplace(mu, params, spec, t=t)
    bound = -(c.a1 * t ** (params.d / params.alpha)
              + (c.C / 5.0) * t ** ((params.d - 2.0) / params.alpha) * (x - y) ** 2)
    return PairBoundReport(margin=float(bound - lhs), lhs_log=float(lhs),
                           bound_log=float(bound))


def _tilted_moment(power: int, mu: DiscreteMeasure, at: float, params: ModelParams,
                   spec: QuadratureSpec, t: float, domain_radius: float | None) -> float:
    """int vhat(at - y)^power exp(-t Phi(y)) dy over the line, or over
    |y| <= domain_radius: in closed form at a single atom, else by d = 1
    quadrature."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if mu.atoms.shape[0] == 1 and domain_radius is None \
            and np.allclose(at, mu.atoms[0]) and t > 0:
        return float(_single_atom_moment(power, t, params))
    if params.d != 1:
        raise NotImplementedError("off-atom tilted moments implemented for d = 1")
    at, p, al = float(at), float(power), params.alpha
    atoms = mu.atoms[:, 0]
    w = np.asarray(mu.weights)

    def f(y):
        v = vhat_radial(np.abs(y - at), al)
        return v ** p * np.exp(-t * vhat_sum(y[:, None], mu.atoms, al, w))

    X = float(np.max(np.abs(atoms)))
    if domain_radius is not None:
        H = float(domain_radius)
        tail = 0.0
    else:
        eps = 1e-7
        # H - |at| >= 1.5 keeps the cap region inside the quadrature window,
        # so beyond H the integrand is the pure power (times exp factor ~ 1)
        H = max(abs(at), X) + max(1.5, (t * (1.0 + 1e-3) / eps) ** (1.0 / al))
        q = p * al - 1.0
        tail = ((H - at) ** (-q) + (H + at) ** (-q)) / q
    pts = {at, at - 1.0, at + 1.0, -H, H}
    for x in atoms:
        pts.update((x, x - 1.0, x + 1.0))
    scale = t ** (1.0 / al)
    for m in (0.5, 1.0, 2.0, 4.0):
        pts.update((m * scale, -m * scale))
    pts = sorted(z for z in pts if -H <= z <= H)
    val, _ = _gk_quad(f, pts, spec)
    return float(val + tail)


def tilted_mean_V(mu: DiscreteMeasure, at: float, params: ModelParams,
                  spec: QuadratureSpec = QuadratureSpec(), *,
                  t: float, domain_radius: float | None = None) -> float:
    """E_t[V(at)] = int vhat(at - y) exp(-t Phi(y)) dy.

    t = 0 gives int vhat = omega_d + sigma_d / (alpha - d); at the barycenter
    and large t the value approaches h_t from below at second order:
    h_t - ((alpha-d+2)/alpha) C t^(-(alpha-d+2)/alpha) M2(mu).
    """
    return _tilted_moment(1, mu, at, params, spec, t, domain_radius)


def tilted_variance_V(mu: DiscreteMeasure, at: float, params: ModelParams,
                      spec: QuadratureSpec = QuadratureSpec(), *,
                      t: float, domain_radius: float | None = None) -> float:
    """Var_t[V(at)] = int vhat(at - y)^2 exp(-t Phi(y)) dy.

    t = 0 gives omega_d + sigma_d / (2 alpha - d); the scaled variance
    t^((2 alpha - d)/alpha) Var converges to the quadrature limit (see
    variance_limit_quadrature).
    """
    return _tilted_moment(2, mu, at, params, spec, t, domain_radius)


def predicted_tilted_mean(mu: DiscreteMeasure, params: ModelParams, *, t: float) -> float:
    """Second-order mean at the barycenter:
    h_t - ((alpha - d + 2)/alpha) C t^(-(alpha-d+2)/alpha) M2(mu)."""
    c = constants(params)
    p = params.with_t(t)
    expo = (params.alpha - params.d + 2.0) / params.alpha
    return h_t(p) - expo * c.C * t ** (-expo) * mu.second_moment
