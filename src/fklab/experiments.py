"""Scenario runners producing reproducible, verdict-bearing run records.

Every runner is a pure function of its parameters, its seed among them if it
samples (constants, mgf and laplace record seed 0): randomness comes from
seed-indexed streams keyed by (ladder index, replica), replicas reduce in
index order, and the resulting RunRecord serializes to canonical JSON that is
byte-identical across re-runs of the same configuration.

Control runs drive exact quadratic potentials through the same machinery as
the Monte Carlo; a scenario whose control fails aborts with the distinct
status "control_failed" and its MC output is not interpreted.

DECLARED states once, per scenario, what the CLI accepts, runs and reports:
its name, runner, the least n_samples it runs with, its parameter renames,
its summary lines and its plot.  Only constants and mgf take d; the rest are 1-d.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    ModelParams,
    constants,
    h_t,
    nu_coordinate_variance,
    quadratic_profile,
    scale_r,
    spectral_gap,
    vhat_sum,
)
from .points import Box, DiscreteMeasure, sample_homogeneous, sample_tilted, tilt_acceptance
from .potential import PotentialView, evaluate_V, field_deviation, find_local_min
from .laplace import (
    QuadratureSpec,
    exact_log_laplace,
    exact_mgf_V0,
    paper_variance_constant,
    predicted_tilted_mean,
    tilted_mean_V,
    tilted_variance_V,
    two_point_bound_check,
    variance_limit_quadrature,
)
from .spectral import Grid, ids_estimate, make_grid, smallest_eigs
from .semigroup import (
    batched_evolve,
    check_on_lattice,
    column_masses,
    default_schedule,
    groundstate_transform_check,
    jackknife_mean,
    time_marginal,
)

ARTIFACT_VERSION = 13


# ---------------------------------------------------------------------------
# weighted power-law fitting

class PowerLawFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float


def fit_power_law(points, weights=None) -> PowerLawFit:
    """Weighted least squares for y = e^b * x^a on log-log axes.

    points is a sequence of (x, y) with x, y > 0; weights (optional,
    nonnegative) multiply the squared log-residuals, and zero-weight points
    drop out entirely.  Returns (slope, intercept, stderr of slope).  Needs
    at least 3 effective points and a non-degenerate x range.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],) or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative finite, one per point")
    keep = w > 0
    pts, w = pts[keep], w[keep]
    n = pts.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points with positive weight")
    if np.any(pts <= 0) or not np.all(np.isfinite(pts)):
        raise ValueError("x and y must be positive and finite")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    if np.ptp(lx) < 1e-12:
        raise ValueError("degenerate x range")
    X = np.stack([np.ones(n), lx], axis=1)
    XtW = X.T * w
    cov = np.linalg.inv(XtW @ X)
    beta = cov @ (XtW @ ly)
    resid = ly - X @ beta
    s2 = float(resid @ (w * resid)) / (n - 2)
    stderr = math.sqrt(max(s2 * cov[1, 1], 0.0))
    return PowerLawFit(slope=float(beta[1]), intercept=float(beta[0]), stderr=stderr)


# ---------------------------------------------------------------------------
# run records: canonical serialization and hashing

def _canon(x):
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if x is None or isinstance(x, str):
        return x
    raise TypeError(f"field of type {type(x).__name__} is not record-serializable")


def _dumps(obj) -> str:
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))


def config_hash(scenario: str, params: dict, seed: int, settings: dict) -> str:
    blob = _dumps({"scenario": scenario, "params": params, "seed": seed,
                   "settings": settings, "artifact_version": ARTIFACT_VERSION})
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """Append-only result of one scenario run.

    Every numeric estimate carries a CI or a tolerance; checks and fits carry
    the verdict they were judged by.  status is "pass", "fail", or
    "control_failed" (controls are gating: on control failure the MC portion
    is not interpreted).  When a runner raises under the CLI, its record has
    status "fail", no tables, and one failed check, "run_completed", whose
    note gives the exception's type and message.
    """

    scenario: str
    params: dict
    seed: int
    n_samples: int
    settings: dict
    status: str
    checks: tuple
    fits: tuple
    estimates: tuple
    tables: dict
    config_hash: str
    artifact_version: int = ARTIFACT_VERSION

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return _dumps({
            "scenario": self.scenario, "params": self.params, "seed": self.seed,
            "n_samples": self.n_samples, "settings": self.settings,
            "status": self.status, "checks": self.checks, "fits": self.fits,
            "estimates": self.estimates, "tables": self.tables,
            "config_hash": self.config_hash,
            "artifact_version": self.artifact_version,
        })

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _chk(name, passed, *, observed=None, target=None, tol=None, control=False, note=None):
    return {"name": name, "passed": bool(passed), "observed": observed,
            "target": target, "tol": tol, "control": bool(control), "note": note}


def _est(name, value, *, ci_low=None, ci_high=None, se=None, note=None):
    return {"name": name, "value": value, "ci_low": ci_low, "ci_high": ci_high,
            "se": se, "note": note}


def _fit(name, fit: PowerLawFit, *, target=None, tol=None, judged=True, note=None):
    passed = None
    if judged and target is not None and tol is not None:
        passed = bool(math.isfinite(fit.slope) and abs(fit.slope - target) <= tol)
    return {"name": name, "slope": fit.slope, "intercept": fit.intercept,
            "stderr": fit.stderr, "target": target, "tol": tol,
            "passed": passed, "note": note}


def _record(scenario, params: ModelParams | None, seed, n_samples, settings,
            checks, fits=(), estimates=(), tables=None, d=None, alpha=None):
    if params is not None:
        pdict = {"d": params.d, "alpha": params.alpha, "t": params.t}
    else:
        pdict = {"d": d, "alpha": alpha, "t": None}
    controls_ok = all(c["passed"] for c in checks if c["control"])
    verdicts_ok = all(c["passed"] for c in checks if not c["control"]) \
        and all(f["passed"] for f in fits if f["passed"] is not None)
    status = "pass" if (controls_ok and verdicts_ok) else \
        ("control_failed" if not controls_ok else "fail")
    settings = dict(sorted(settings.items()))
    return RunRecord(
        scenario=scenario, params=pdict, seed=int(seed), n_samples=int(n_samples),
        settings=settings, status=status, checks=tuple(checks), fits=tuple(fits),
        estimates=tuple(estimates), tables=dict(sorted((tables or {}).items())),
        config_hash=config_hash(scenario, pdict, int(seed), settings))


# ---------------------------------------------------------------------------
# shared numeric machinery

def field_abs_quantile(nodes: np.ndarray, values: np.ndarray, q: float) -> float:
    """|x|-quantile of a nonnegative density given by node values."""
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    r, inv = np.unique(np.abs(nodes), return_inverse=True)
    v = np.bincount(inv, weights=np.maximum(values, 0.0), minlength=r.size)
    total = float(v.sum())
    if total <= 0:
        return float("nan")
    # midpoint convention: half of a radius's mass sits below that radius
    c = (np.cumsum(v) - 0.5 * v) / total
    i = int(np.searchsorted(c, q))
    if i == 0:
        return float(r[0])
    if i >= r.size:
        return float(r[-1])
    dr = r[i] - r[i - 1]
    dc = c[i] - c[i - 1]
    frac = (q - c[i - 1]) / dc if dc > 0 else 0.0
    return float(r[i - 1] + frac * dr)


def _crossing_log(xs: np.ndarray, ys: np.ndarray, level: float) -> float:
    """First crossing of `level` by ys over log-xs, linear interpolation."""
    for i in range(1, len(xs)):
        y0, y1 = ys[i - 1], ys[i]
        if (y0 < level <= y1) or (y0 >= level > y1):
            lx0, lx1 = math.log(xs[i - 1]), math.log(xs[i])
            frac = (level - y0) / (y1 - y0)
            return math.exp(lx0 + frac * (lx1 - lx0))
    return float("nan")


def _median_ci(values: np.ndarray):
    """Median with a distribution-free order-statistic 95% CI."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    med = float(np.median(v))
    half = 1.96 * math.sqrt(n / 4.0)
    lo = max(0, int(math.floor(n / 2.0 - half)))
    hi = min(n - 1, int(math.ceil(n / 2.0 + half)))
    return med, float(v[lo]), float(v[hi])


def _moments(values: np.ndarray):
    v = np.asarray(values, dtype=float)
    n = v.size
    mean = float(v.mean())
    c = v - mean
    m2 = float((c ** 2).mean())
    m3 = float((c ** 3).mean())
    m4 = float((c ** 4).mean())
    var = m2 * n / (n - 1)
    skew = m3 / m2 ** 1.5 if m2 > 0 else float("nan")
    kurt = m4 / m2 ** 2 - 3.0 if m2 > 0 else float("nan")
    return mean, var, skew, kurt


def _mu_for(params: ModelParams) -> DiscreteMeasure:
    """32-atom Gauss-Hermite discretization of the limiting coordinate law,
    scaled to the localization scale r(t)."""
    std = math.sqrt(nu_coordinate_variance(params)) * scale_r(params)
    return DiscreteMeasure.gauss_hermite(32, std=std)


# _compensated(cfg, params): the view of cfg's potential the scenarios read,
# far field compensated by its mean, which must stay within 0.5 where read
_compensated = partial(PotentialView, compensate=True, max_far_bound=0.5)


def _columns(views, nodes: np.ndarray) -> np.ndarray:
    """(n_nodes, m) potential values of each view at the 1-d nodes."""
    return np.stack([evaluate_V(view, nodes[:, None]) for view in views], axis=1)


def _stated_grid(radius: float, h: float) -> Grid:
    """make_grid(radius, h), which must not snap: a record that states the
    half-width radius ran on it."""
    grid = make_grid(radius, h)
    if abs(grid.radius - radius) > 1e-9 * radius:
        raise ValueError(f"h = {h:g} does not divide the stated half-width {radius:g}")
    return grid


def _tilted_minima(params: ModelParams, box: Box, search: Box, seed,
                   ti: int, n_samples: int):
    """Draws tilted by _mu_for(params) on the streams (ti, rep), rep <
    n_samples: each one's compensated view, and the location of its local
    minimum of V in `search`."""
    mu = _mu_for(params)
    coarse = scale_r(params) / 16.0
    views = [_compensated(sample_tilted(mu, params, box, seed, path=(ti, rep)), params)
             for rep in range(n_samples)]
    return views, np.array([find_local_min(view, search, coarse, refine_tol=1e-3).location
                            for view in views])


# One-value sizes of the runners; each record states its own in its settings.
LAPLACE_TWO_POINT_T = 1e4                       # horizon of the pair bound
LAPLACE_SEPARATIONS = (1.0, 2.0, 5.0, 10.0, 20.0)
IDS_BOX_SIZE = 40.0                             # least box side of the IDS
LOCALIZATION_FULL_RADIUS = 96.0                 # full grid of localization
LOCALIZATION_CONFIG_MARGIN = 60.0   # environments reach this far past a grid
LEMMA5_CONFIG_MARGIN = 30.0
CONFINEMENT_EPS = 0.25      # a minimizer within eps r(t) is near the center
OCCUPATION_EPS = 0.25       # a barycenter within eps r(t) tracks the minimum
TAIL_VAR_FRACTION = 0.01    # far-field share of Var V(0) local_min's box omits
OU_T = 1.0                  # horizon of the rescaled kernel
OU_Y_RADIUS = 5.0           # radius of its y grid


# ---------------------------------------------------------------------------
# closed-form and quadrature scenarios

def run_constants(d: int = 1, alpha: float = 2.0, t: float = 100.0,
                  h: float = 0.01) -> RunRecord:
    """Constants bundle plus an eigensolver cross-check of the oscillator
    ground energy a2 = d sqrt(C/2) on a fine grid.

    The d-dimensional oscillator -1/2 Laplacian + C |x|^2 separates into d
    copies of the 1-d one, and on a square grid its lowest eigenvalue is
    exactly d times the 1-d one's; so the check solves the 1-d operator on
    (-10 sigma, 10 sigma), sigma the oscillator width, with step h in d = 1
    and max(h, 10 sigma / 60) in d >= 2, and multiplies by d."""
    params = ModelParams(d=d, alpha=alpha, t=t)
    c = constants(params)
    settings = {"h": h, "eigen_cases": "base and d+1 shifts within regime"}
    estimates = [
        _est("sigma_d", c.sigma_d), _est("omega_d", c.omega_d),
        _est("a1", c.a1), _est("a2", c.a2), _est("C", c.C),
        _est("l1", c.l1), _est("l2", c.l2),
        _est("h_t", h_t(params)), _est("r_t", scale_r(params)),
        _est("nu_variance", nu_coordinate_variance(params)),
        _est("spectral_gap", spectral_gap(params)),
    ]
    checks = []
    alphas = [d + 0.5, d + 1.0, d + 1.5]
    if all(abs(alpha - aa) > 1e-9 for aa in alphas):
        alphas.append(alpha)
    for aa in alphas:
        cb = constants(ModelParams(d=d, alpha=aa, t=t))
        sigma = math.sqrt(1.0 / math.sqrt(8.0 * cb.C))   # oscillator width
        radius = 10.0 * sigma
        step = h if d == 1 else max(h, radius / 60.0)
        grid = make_grid(radius, step)
        lam = d * smallest_eigs(grid, cb.C * grid.nodes() ** 2).lambda1
        rel = abs(lam - cb.a2) / cb.a2
        checks.append(_chk(f"oscillator_a2_d{d}_alpha{aa:g}", rel <= 1e-3,
                           observed=rel, target=0.0, tol=1e-3,
                           note=None if d == 1 else
                           f"{d} x lambda1 of the 1-d oscillator on (-10 sigma, "
                           f"10 sigma), step max(h, 10 sigma / 60) = {step:g}"))
    return _record("constants", params, 0, 0, settings, checks,
                   estimates=estimates)


def run_mgf(d: int = 1, alphas=(1.5, 2.0, 2.5), s_grid=(1e2, 1e3, 1e4)) -> RunRecord:
    """Single-point exponential functional against its closed-form asymptote:
    |log E[e^{-s V(0)}] + a1 s^{d/alpha}| <= 10 e^{-s} + 1e-6."""
    settings = {"alphas": list(alphas), "s_grid": list(s_grid)}
    checks, rows = [], []
    for alpha in alphas:
        params = ModelParams(d=d, alpha=float(alpha), t=1.0)
        a1 = constants(params).a1
        for s in s_grid:
            exact = exact_mgf_V0(float(s), params)
            predicted = -a1 * float(s) ** (d / float(alpha))
            err = abs(exact - predicted)
            tol = 10.0 * math.exp(-float(s)) + 1e-6
            checks.append(_chk(f"mgf_alpha{alpha:g}_s{s:g}", err <= tol,
                               observed=err, target=0.0, tol=tol))
            rows.append({"alpha": float(alpha), "s": float(s), "exact": exact,
                         "predicted": predicted, "abs_err": err, "tol": tol})
    return _record("mgf", None, 0, 0, settings, checks,
                   tables={"errors": rows}, d=d, alpha=float(alphas[0]))


def run_laplace(alpha: float = 2.0, t: float = 1e6,
                quad: QuadratureSpec = QuadratureSpec()) -> RunRecord:
    """Two-atom Laplace functional: second-order residual recovers C, and the
    pair bound with c1 = C/5 holds with positive margin over a separation sweep."""
    params = ModelParams(1, alpha, t)
    c = constants(params)
    settings = {"t": t, "two_point_t": LAPLACE_TWO_POINT_T,
                "separations": list(LAPLACE_SEPARATIONS),
                "quad_abs": quad.abs_tol, "quad_rel": quad.rel_tol}
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    val = exact_log_laplace(mu, params, quad, t=t)
    residual = (val - c.a1 * t ** (params.d / alpha)) \
        / (t ** ((params.d - 2.0) / alpha) * mu.second_moment)
    rel = abs(residual - c.C) / c.C
    checks = [_chk("residual_ratio_C", rel <= 0.05, observed=residual,
                   target=c.C, tol=0.05)]
    estimates = [_est("residual_ratio", residual, note="tolerance 5% of C")]
    rows = []
    margins_increasing = True
    prev = -math.inf
    for sep in LAPLACE_SEPARATIONS:
        rep = two_point_bound_check(-0.5 * sep, 0.5 * sep, params, quad,
                                    t=LAPLACE_TWO_POINT_T)
        checks.append(_chk(f"two_point_margin_sep{sep:g}", rep.margin > 0,
                           observed=rep.margin, target=0.0, tol=None,
                           note="margin of the c1 = C/5 pair bound"))
        margins_increasing &= rep.margin > prev
        prev = rep.margin
        rows.append({"separation": sep, "margin": rep.margin,
                     "lhs_log": rep.lhs_log, "bound_log": rep.bound_log})
    checks.append(_chk("two_point_margin_monotone", margins_increasing,
                       note="margin grows with separation"))
    return _record("laplace", params, 0, 0, settings, checks,
                   estimates=estimates, tables={"two_point": rows})


def run_spectrum(alpha: float = 2.0, t: float = 100.0, n_samples: int = 3,
                 seed: int = 0, h: float = 0.05) -> RunRecord:
    """Principal eigenpair diagnostics for sampled configurations, gated by
    the oscillator control (lambda1 = a2 within 1e-3)."""
    params = ModelParams(1, alpha, t)
    c = constants(params)
    box_radius = min(40.0, 4.0 * scale_r(params) * math.log(max(t, math.e)))
    settings = {"h": h, "box_radius": box_radius, "n_samples": n_samples}
    sigma = math.sqrt(1.0 / math.sqrt(8.0 * c.C))
    ctrl_grid = make_grid(10.0 * sigma, 0.01)
    xs = ctrl_grid.nodes()
    ctrl = smallest_eigs(ctrl_grid, c.C * xs ** 2, k=2)
    rel = abs(ctrl.lambda1 - c.a2) / c.a2
    gap_rel = abs((ctrl.lambda2 - ctrl.lambda1) - spectral_gap(params)) \
        / spectral_gap(params)
    checks = [
        _chk("control_oscillator_a2", rel <= 1e-3, observed=rel, target=0.0,
             tol=1e-3, control=True),
        _chk("control_oscillator_gap", gap_rel <= 5e-3, observed=gap_rel,
             target=0.0, tol=5e-3, control=True),
    ]
    if not all(k["passed"] for k in checks):
        return _record("spectrum", params, seed, n_samples, settings, checks)
    grid = make_grid(box_radius, h)
    rows = []
    ok_order = ok_resid = True
    for r in range(n_samples):
        cfg = sample_homogeneous(Box(grid.radius + 30.0), seed, path=(r,))
        Vv = _columns([_compensated(cfg, params)], grid.nodes())[:, 0]
        res = smallest_eigs(grid, Vv, k=2)
        ok_order &= 0.0 < res.lambda1 <= res.lambda2
        ok_resid &= res.residual1 <= 1e-8
        rows.append({"replica": r, "lambda1": res.lambda1,
                     "lambda2": res.lambda2, "residual1": res.residual1})
    checks.append(_chk("eigen_ordering", ok_order,
                       note="0 < lambda1 <= lambda2 for every sample"))
    checks.append(_chk("eigen_residual", ok_resid, target=0.0, tol=1e-8))
    return _record("spectrum", params, seed, n_samples, settings, checks,
                   tables={"eigen": rows})


# ---------------------------------------------------------------------------
# integrated density of states / Lifshitz tail

def run_ids(alpha: float = 1.5, lambda_grid=(0.4, 0.56, 0.72, 0.88, 1.04, 1.2),
            n_samples: int = 1000, seed: int = 0, h: float = 0.25) -> RunRecord:
    """Lifshitz-tail slope: fit of log(-log N(lambda)) vs log(1/lambda)
    against d/(alpha - d), judged on the primary window.

    N(lambda) comes from the importance-sampled ids_estimate, which sizes
    the sampled box from the steepest tilt and each tilt's eigen grid from
    that tilt, none below IDS_BOX_SIZE.  A diagnostic fit on a larger-lambda
    auxiliary window is recorded without a verdict: it sits outside the
    asymptotic regime.
    """
    params = ModelParams(1, alpha, 1.0)
    target = params.d / (alpha - params.d)
    settings = {"lambda_grid": [float(x) for x in lambda_grid],
                "box_size": IDS_BOX_SIZE, "h": h, "n_samples": n_samples}

    # the N(lambda) rows of a window, and its (1/lambda, -log N) with 0 < N < 1
    def window(lams):
        rows = [{"lambda": lam, "n_hat": nh, "ci_low": lo, "ci_high": hi} for lam, nh, lo, hi
                in ids_estimate(lams, params, IDS_BOX_SIZE, n_samples, seed, h=h).rows()]
        return rows, [(1.0 / r["lambda"], -math.log(r["n_hat"])) for r in rows
                      if 0.0 < r["n_hat"] < 1.0]
    rows, usable = window(lambda_grid)
    checks, fits = [], []
    if len(usable) >= 3:
        f = fit_power_law(usable)
        fits.append(_fit("lifshitz_slope", f, target=target, tol=0.15 * target))
    else:
        zero = sum(1 for r in rows if r["n_hat"] == 0.0)
        checks.append(_chk(
            "lifshitz_slope", False, observed=None, target=target,
            tol=0.15 * target,
            note=f"{len(usable)}/{len(rows)} grid points have 0 < N_hat < 1, "
                 f"fewer than the 3 the fit needs: {zero} returned N_hat = 0 "
                 f"and {len(rows) - len(usable) - zero} returned N_hat >= 1"))
    aux_rows, aux_usable = window((1.75, 2.0, 2.3, 2.65, 3.0))
    if len(aux_usable) >= 3:
        fa = fit_power_law(aux_usable)
        fits.append(_fit("diagnostic_slope_auxiliary_window", fa, target=target,
                         tol=None, judged=False,
                         note="pre-asymptotic window, recorded for diagnosis "
                              "only; no verdict"))
    return _record("ids", params, seed, n_samples, settings, checks, fits=fits,
                   tables={"ids": rows, "ids_auxiliary": aux_rows})


# ---------------------------------------------------------------------------
# tilted sampler diagnostics

def run_tilted(alpha: float = 2.0, t: float = 100.0, n_samples: int = 200,
               seed: int = 0) -> RunRecord:
    """Tilted sampler against the exact mean of the tilted intensity."""
    params = ModelParams(1, alpha, t)
    mu = _mu_for(params)
    r = scale_r(params)
    box = Box(5.0 * r + 40.0)
    settings = {"t": t, "n_samples": n_samples, "box_radius": box.radius,
                "mu_atoms": mu.atoms.shape[0]}
    # exact expected count: integral of the acceptance over the box
    ygrid = np.linspace(-box.radius, box.radius, 200001)
    acc = tilt_acceptance(ygrid[:, None], mu, params, t)
    expected = float(np.trapezoid(acc, ygrid))
    counts = np.array([sample_tilted(mu, params, box, seed, path=(rep,)).n
                       for rep in range(n_samples)], dtype=float)
    mean = float(counts.mean())
    se = math.sqrt(expected / n_samples)   # Poisson: Var(count) = mean intensity
    checks = [
        _chk("count_mean", abs(mean - expected) <= 4.0 * se, observed=mean,
             target=expected, tol=4.0 * se, note="4 sigma Poisson band"),
    ]
    rep0a = sample_tilted(mu, params, box, seed, path=(0,))
    rep0b = sample_tilted(mu, params, box, seed, path=(0,))
    checks.append(_chk("replay_determinism",
                       bool(np.array_equal(rep0a.points, rep0b.points)),
                       note="re-sampling replica 0 reproduces its points"))
    estimates = [
        _est("mean_count", mean, ci_low=mean - 1.96 * se, ci_high=mean + 1.96 * se),
        _est("expected_count", expected),
        _est("mu_second_moment", mu.second_moment),
        _est("mu_scale", r),
    ]
    return _record("tilted", params, seed, n_samples, settings, checks,
                   estimates=estimates)


# ---------------------------------------------------------------------------
# localization ladder: median confinement radius exponent

def _subbox_ratios(grid_full: Grid, subs, V_cols: np.ndarray, horizons):
    """Each column's full-box field at its horizon, and q[j, k]: the mass
    column k keeps inside sub-box j over its full-box mass.  subs is
    [(grid, mask)] per sub-box, mask its nodes on the full grid."""
    schedule = default_schedule(max(horizons))
    full = batched_evolve(grid_full, V_cols, schedule, horizons=horizons)[0]
    num = np.array([column_masses(g, batched_evolve(g, V_cols[mask, :], schedule,
                                                    horizons=horizons)[0])
                    for g, mask in subs])
    return full, num / column_masses(grid_full, full)[None, :]


def run_localization(alpha: float = 2.0,
                     t_ladder=(16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
                     L_ladder=(2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                               32.0, 48.0, 64.0),
                     n_samples: int = 200, seed: int = 0,
                     h: float = 0.25) -> RunRecord:
    """Median confinement radius L*(t) (annealed sup-norm localization) and
    its fitted growth exponent against (alpha - d + 2)/(4 alpha).

    Control: the exact quadratic well for each horizon is pushed through the
    same evolution schedule, and the median radius of its time-t marginal is
    fitted the same way.  That radius is the stationary well width, whose
    exponent equals the target exactly; the sup-norm radius of the control is
    also recorded (no verdict) and runs systematically above the target
    because the running maximum adds a slowly varying factor.
    """
    params0 = ModelParams(1, alpha, float(t_ladder[0]))
    target = (alpha - params0.d + 2.0) / (4.0 * alpha)
    t_ladder = [float(t) for t in t_ladder]
    check_on_lattice(t_ladder)
    L_ladder = [float(L) for L in L_ladder]
    t_max = max(t_ladder)
    settings = {"t_ladder": t_ladder, "L_ladder": L_ladder, "h": h,
                "full_radius": LOCALIZATION_FULL_RADIUS, "n_samples": n_samples,
                "config_margin": LOCALIZATION_CONFIG_MARGIN,
                "schedule": [list(s) for s in default_schedule(t_max)]}
    grid_full = _stated_grid(LOCALIZATION_FULL_RADIUS, h)
    nodes = grid_full.nodes()

    # --- control: per-horizon quadratic wells as columns, each evolved to
    # its own horizon
    V_ctrl = np.stack([quadratic_profile(nodes, params0.with_t(tk))
                       for tk in t_ladder], axis=1)
    subs = [(_stated_grid(L, h), np.abs(nodes) < L - 0.5 * h)
            for L in L_ladder]
    ctrl_full, ctrl_q = _subbox_ratios(grid_full, subs, V_ctrl, t_ladder)
    ctrl_rows, ctrl_pts = [], []
    for k, tk in enumerate(t_ladder):
        rad = field_abs_quantile(nodes, ctrl_full[:, k], 0.5)
        ctrl_pts.append((tk, rad))
        ctrl_rows.append({"t": tk, "kind": "control_marginal", "radius": rad})
    ctrl_fit = fit_power_law(ctrl_pts)
    checks = [_chk("control_marginal_exponent",
                   abs(ctrl_fit.slope - target) <= 0.02,
                   observed=ctrl_fit.slope, target=target, tol=0.02,
                   control=True,
                   note="median |X_t| of the quadratic well marginal; "
                        "stationary width oracle")]
    fits = [_fit("control_marginal_exponent", ctrl_fit, target=target,
                 tol=0.02, judged=False)]

    # control sup-norm radius through the sub-box machinery (recorded only)
    ctrl_sup_pts = []
    for k, tk in enumerate(t_ladder):
        Lstar = _crossing_log(np.array(L_ladder), ctrl_q[:, k], 0.5)
        ctrl_sup_pts.append((tk, Lstar))
        ctrl_rows.append({"t": tk, "kind": "control_sup", "radius": Lstar})
    if all(math.isfinite(p[1]) for p in ctrl_sup_pts):
        fits.append(_fit("control_sup_exponent", fit_power_law(ctrl_sup_pts),
                         judged=False,
                         note="running-maximum radius of the control well; "
                              "carries a slowly varying factor above the "
                              "marginal exponent, recorded without verdict"))

    if not checks[0]["passed"]:
        return _record("localization", params0.with_t(t_max), seed, n_samples,
                       settings, checks, tables={"control_radius": ctrl_rows})

    # --- Monte Carlo: independent tilted environments per ladder point (the
    # tilted intensity is the environment marginal the weighted path measure
    # concentrates on); the judged statistic is the per-config median radius,
    # which no single heavy configuration can dominate
    cfg_box = Box(grid_full.radius + LOCALIZATION_CONFIG_MARGIN)
    La = np.array(L_ladder)
    conf_rows, radius_rows, mc_pts, mc_w = [], [], [], []
    censored_any = 0
    for ti, tk in enumerate(t_ladder):
        mu_k = _mu_for(params0.with_t(tk))
        views = [_compensated(sample_tilted(mu_k, params0.with_t(tk), cfg_box, seed,
                                            path=(ti, r)), params0) for r in range(n_samples)]
        V_cols = _columns(views, grid_full.nodes())
        _, q = _subbox_ratios(grid_full, subs, V_cols, [tk] * n_samples)
        Lstar = np.empty(n_samples)
        lo_cens = hi_cens = 0
        for rep in range(n_samples):
            if q[0, rep] >= 0.5:
                Lstar[rep] = La[0]          # confined below the ladder
                lo_cens += 1
            elif q[-1, rep] < 0.5:
                Lstar[rep] = La[-1]         # not confined within the ladder
                hi_cens += 1
            else:
                Lstar[rep] = _crossing_log(La, q[:, rep], 0.5)
        censored_any += lo_cens + hi_cens
        med, lo, hi = _median_ci(Lstar)
        se = (hi - lo) / 3.92 if hi > lo else float("nan")
        for j, L in enumerate(L_ladder):
            conf_rows.append({"t": tk, "L": L,
                              "q_mean": float(np.mean(q[j])),
                              "frac_confined": float(np.mean(q[j] >= 0.5))})
        radius_rows.append({"t": tk, "kind": "mc", "radius": med,
                            "ci_low": lo, "ci_high": hi,
                            "censored_low": lo_cens, "censored_high": hi_cens})
        if math.isfinite(med) and math.isfinite(se) and se > 0:
            mc_pts.append((tk, med))
            mc_w.append(1.0 / se ** 2)
    checks.append(_chk("radius_bracketed",
                       len(mc_pts) == len(t_ladder) and censored_any == 0,
                       observed=censored_any, target=0,
                       note="every config's radius crossed inside the L "
                            "ladder at every horizon"))
    estimates = [_est(f"median_radius_t{int(row['t'])}", row["radius"],
                      ci_low=row["ci_low"], ci_high=row["ci_high"])
                 for row in radius_rows]
    if len(mc_pts) >= 3:
        mc_fit = fit_power_law(mc_pts, weights=mc_w)
        fits.append(_fit("mc_confinement_exponent", mc_fit, target=target,
                         tol=0.10,
                         note="median per-config sup-norm confinement "
                              "radius; the stated band absorbs the slowly "
                              "varying running-maximum factor"))
    else:
        checks.append(_chk("mc_confinement_exponent", False, target=target,
                           tol=0.10, note="too few bracketed radii to fit"))
    return _record("localization", params0.with_t(t_max), seed, n_samples,
                   settings, checks, fits=fits, estimates=estimates,
                   tables={"confinement": conf_rows, "radius": radius_rows,
                           "control_radius": ctrl_rows})


# ---------------------------------------------------------------------------
# confinement of the potential profile around the local minimum

def run_confinement(alpha: float = 2.0, t_ladder=(1e2, 1e3, 1e4),
                    n_samples: int = 100, seed: int = 0) -> RunRecord:
    """Quadratic-profile deviation around the found minimum under the tilted
    environment law: the scaled deviation median decreases along the ladder
    and the minimizer stays near the tilt center.

    Control: injecting the exact quadratic profile (plus a constant) into the
    same deviation evaluation returns 0 identically.
    """
    t_ladder = [float(t) for t in t_ladder]
    params_top = ModelParams(1, alpha, t_ladder[-1])
    expo = (alpha - params_top.d + 2.0) / (2.0 * alpha)
    settings = {"t_ladder": t_ladder, "n_samples": n_samples,
                "eps": CONFINEMENT_EPS, "scaling_exponent": expo}
    r_top = scale_r(params_top)
    ctrl_center = 0.3 * r_top
    ctrl_dev = field_deviation(
        lambda pts: quadratic_profile(pts[:, 0] - ctrl_center, params_top) + 5.0,
        ctrl_center, r_top, params_top)
    checks = [_chk("control_quadratic_injection", ctrl_dev <= 1e-12,
                   observed=ctrl_dev, target=0.0, tol=1e-12, control=True,
                   note="exact profile plus a constant; zero up to roundoff "
                        "of the offset")]
    if not checks[0]["passed"]:
        return _record("confinement", params_top, seed, n_samples, settings,
                       checks)

    rows, medians, estimates = [], [], []
    for ti, t in enumerate(t_ladder):
        params = params_top.with_t(t)
        r = scale_r(params)
        views, locs = _tilted_minima(params, Box(5.0 * r + 70.0), Box(2.0 * r),
                                     seed, ti, n_samples)
        devs = np.array([field_deviation(partial(evaluate_V, view), m, r, params)
                         for view, m in zip(views, locs)])
        scaled = t ** expo * devs
        med, lo, hi = _median_ci(scaled)
        medians.append(med)
        frac_close = float(np.mean(np.abs(locs) <= CONFINEMENT_EPS * r))
        estimates.append(_est(f"scaled_deviation_median_t{t:g}", med,
                              ci_low=lo, ci_high=hi))
        estimates.append(_est(f"minimizer_close_fraction_t{t:g}", frac_close,
                              se=math.sqrt(frac_close * (1 - frac_close)
                                           / n_samples)))
        rows.append({"t": t, "scaled_median": med, "ci_low": lo, "ci_high": hi,
                     "frac_close": frac_close, "mean_abs_m_over_r":
                     float(np.mean(np.abs(locs)) / r)})
    decreasing = len(medians) > 1 and all(      # one rung shows no trend
        b < a for a, b in zip(medians, medians[1:]))
    checks.append(_chk("scaled_deviation_decreasing", decreasing,
                       observed=medians,
                       note="median of t^((alpha-d+2)/(2 alpha)) * deviation "
                            "strictly decreases along the ladder"))
    # frac_close is the last rung's, the largest horizon
    checks.append(_chk("minimizer_near_center", frac_close >= 0.9,
                       observed=frac_close, target=1.0, tol=0.1,
                       note=f"|m| <= {CONFINEMENT_EPS} r(t) at the largest horizon"))
    return _record("confinement", params_top, seed, n_samples, settings,
                   checks, estimates=estimates, tables={"deviation": rows})


# ---------------------------------------------------------------------------
# statistics of V at the local minimum under the tilted law

def run_local_min_stats(alpha: float = 2.0, t_ladder=(1e5, 1e6, 1e7),
                        n_samples: int = 10000, seed: int = 0,
                        quad: QuadratureSpec = QuadratureSpec()) -> RunRecord:
    """Monte Carlo law of V(center) under the tilted environment against the
    exact quadrature mean/variance, plus gaussianity of the standardized law
    at the largest horizon.

    The sampling box is sized so the omitted far-field variance is below
    TAIL_VAR_FRACTION of the total; the omitted far-field *mean* is added
    back exactly (difference of the full and truncated quadrature means), so
    the MC mean estimates the full-space quantity with no truncation bias.
    """
    t_ladder = [float(t) for t in t_ladder]
    settings = {"t_ladder": t_ladder, "n_samples": n_samples,
                "tail_var_fraction": TAIL_VAR_FRACTION,
                "quad_abs": quad.abs_tol, "quad_rel": quad.rel_tol}
    params_top = ModelParams(1, alpha, t_ladder[-1])

    # controls: the t = 0 tilt is the homogeneous process (sampler identity),
    # and the second-order predicted mean agrees with quadrature at the
    # largest horizon (deterministic asymptotic consistency)
    mu_top = _mu_for(params_top)
    small = Box(50.0)
    t0a = sample_tilted(mu_top, params_top, small, seed, t=0.0, path=(9, 0))
    t0b = sample_homogeneous(small, seed, path=(9, 0))
    ctrl_sampler = bool(np.array_equal(t0a.points, t0b.points))
    mean_full_top = tilted_mean_V(mu_top, 0.0, params_top, quad, t=t_ladder[-1])
    pred_top = predicted_tilted_mean(mu_top, params_top, t=t_ladder[-1])
    pred_rel = abs(mean_full_top - pred_top) / mean_full_top
    checks = [
        _chk("control_sampler_t0_identity", ctrl_sampler, control=True,
             note="zero tilt reproduces the homogeneous draw from the "
                  "same stream"),
        _chk("control_predicted_mean", pred_rel <= 1e-4, observed=pred_rel,
             target=0.0, tol=1e-4, control=True,
             note="second-order predicted mean vs quadrature at the largest "
                  "horizon; the gap is the higher-order remainder"),
    ]
    if not all(c["passed"] for c in checks):
        return _record("local_min_stats", params_top, seed, n_samples,
                       settings, checks)

    rows, estimates = [], []
    skew_kurt_checked = False
    for ti, t in enumerate(t_ladder):
        params = params_top.with_t(t)
        mu = _mu_for(params)
        var_full = tilted_variance_V(mu, 0.0, params, quad, t=t)
        # (2/(2 alpha - 1)) R^{1 - 2 alpha} <= fraction * var  sizes the box
        R = (2.0 / ((2 * alpha - 1) * TAIL_VAR_FRACTION * var_full)) \
            ** (1.0 / (2 * alpha - 1))
        R = float(math.ceil(R))
        box = Box(R)
        mean_full = tilted_mean_V(mu, 0.0, params, quad, t=t)
        mean_trunc = tilted_mean_V(mu, 0.0, params, quad, t=t, domain_radius=R)
        var_trunc = tilted_variance_V(mu, 0.0, params, quad, t=t, domain_radius=R)
        comp = mean_full - mean_trunc

        vals = np.empty(n_samples)
        for rep in range(n_samples):
            cfg = sample_tilted(mu, params, box, seed, path=(ti, rep))
            vals[rep] = vhat_sum(np.zeros((1, 1)), cfg.points, params.alpha)[0] + comp
        mean, var, skew, kurt = _moments(vals)
        se_mean = math.sqrt(var / n_samples)
        ht = h_t(params)
        checks.append(_chk(f"mean_vs_quadrature_t{t:g}",
                           abs(mean - mean_full) <= 3.0 * se_mean,
                           observed=mean, target=mean_full, tol=3.0 * se_mean))
        var_rel = abs(var / var_trunc - 1.0)
        checks.append(_chk(f"variance_vs_quadrature_t{t:g}", var_rel <= 0.05,
                           observed=var, target=var_trunc, tol=0.05,
                           note="relative tolerance on the truncated-box "
                                "variance oracle"))
        checks.append(_chk(f"mean_below_h_t_t{t:g}", mean < ht,
                           observed=mean - ht, target=None,
                           note="tilted mean sits below the effective "
                                "potential floor"))
        if ti == len(t_ladder) - 1:
            se_skew = math.sqrt(6.0 / n_samples)
            se_kurt = math.sqrt(24.0 / n_samples)
            checks.append(_chk("skewness_gaussian_limit",
                               abs(skew) <= 3.0 * se_skew, observed=skew,
                               target=0.0, tol=3.0 * se_skew))
            checks.append(_chk("kurtosis_gaussian_limit",
                               abs(kurt) <= 3.0 * se_kurt, observed=kurt,
                               target=0.0, tol=3.0 * se_kurt))
            skew_kurt_checked = True
        estimates.append(_est(f"mc_mean_t{t:g}", mean,
                              ci_low=mean - 1.96 * se_mean,
                              ci_high=mean + 1.96 * se_mean, se=se_mean))
        rows.append({"t": t, "box_radius": R, "mc_mean": mean,
                     "quad_mean": mean_full, "mc_var": var,
                     "quad_var_truncated": var_trunc, "skew": skew,
                     "kurtosis_excess": kurt, "h_t": ht,
                     "predicted_mean": predicted_tilted_mean(mu, params, t=t)})
    assert skew_kurt_checked
    scaled_var_expo = (2 * alpha - params_top.d) / alpha
    estimates.append(_est(
        "scaled_variance_limit_quadrature",
        variance_limit_quadrature(params_top),
        note="limit of t^((2 alpha - d)/alpha) Var under the single-atom "
             "normalization"))
    estimates.append(_est(
        "variance_constant_as_printed", paper_variance_constant(params_top),
        note="recorded for comparison only; the quadrature limit above is "
             "the value the scenario is judged against"))
    estimates.append(_est("scaled_variance_exponent", scaled_var_expo))
    return _record("local_min_stats", params_top, seed, n_samples, settings,
                   checks, estimates=estimates, tables={"moments": rows})


# ---------------------------------------------------------------------------
# occupation measure concentration

def run_occupation(alpha: float = 2.0, t_ladder=(16.0, 64.0, 256.0, 1024.0),
                   n_samples: int = 100, seed: int = 0,
                   h: float = 0.25) -> RunRecord:
    """Second moment of the normalized occupation measure about the found
    minimum: scaled by t^{-(alpha-d+2)/(2 alpha)} it approaches the stationary
    coordinate variance (8C)^{-1/2}, with the deviation shrinking along the
    ladder; the occupation barycenter tracks the minimum.

    Control: the unit-scale quadratic well reproduces the stationary second
    moment within 2% through the same Duhamel accumulation.
    """
    t_ladder = [float(t) for t in t_ladder]
    check_on_lattice(t_ladder)
    params_top = ModelParams(1, alpha, t_ladder[-1])
    cC = constants(params_top).C
    nu_var = nu_coordinate_variance(params_top)
    expo = (alpha - params_top.d + 2.0) / (2.0 * alpha)
    settings = {"t_ladder": t_ladder, "n_samples": n_samples, "h": h,
                "eps": OCCUPATION_EPS, "scaling_exponent": expo}

    ctrl_grid = make_grid(3.0, 0.02)
    xs = ctrl_grid.nodes()
    u_c, (w2_c,) = batched_evolve(ctrl_grid, (cC * xs ** 2)[:, None],
                                  ((24.0, 2e-3),), fs=((xs ** 2)[:, None],))
    m2_ctrl = float(column_masses(ctrl_grid, w2_c)[0]
                    / (24.0 * column_masses(ctrl_grid, u_c)[0]))
    ctrl_rel = abs(m2_ctrl / nu_var - 1.0)
    checks = [_chk("control_ou_second_moment", ctrl_rel <= 0.02,
                   observed=m2_ctrl, target=nu_var, tol=0.02, control=True,
                   note="unit-scale quadratic well, relative tolerance")]
    if not checks[0]["passed"]:
        return _record("occupation", params_top, seed, n_samples, settings,
                       checks)

    rows, estimates = [], []
    deviations = []
    for ti, t in enumerate(t_ladder):
        params = params_top.with_t(t)
        r = scale_r(params)
        grid = make_grid(3.26 * r + 8.0, h)
        nodes = grid.nodes()
        views, mins = _tilted_minima(params, Box(grid.radius + 40.0),
                                     Box(min(2.0 * r, grid.radius - 2.0)), seed, ti, n_samples)
        V_cols = _columns(views, nodes)
        f_x = np.broadcast_to(nodes[:, None], V_cols.shape)
        f_sq = (nodes[:, None] - mins[None, :]) ** 2
        u, (wx, wsq) = batched_evolve(grid, V_cols, default_schedule(t),
                                      fs=(f_x, f_sq))
        mass = column_masses(grid, u)
        wx_m = column_masses(grid, wx)
        wsq_m = column_masses(grid, wsq)
        bary = wx_m / (t * mass)
        m2_agg = float(wsq_m.sum() / (t * mass.sum()))
        # jackknife CI for the paired ratio of sums
        n = mass.size
        num_tot, den_tot = wsq_m.sum(), t * mass.sum()
        loo = (num_tot - wsq_m) / (den_tot - t * mass)
        se = math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))
        scaled = m2_agg * t ** (-expo)
        dev = abs(scaled / nu_var - 1.0)
        deviations.append(dev)
        frac_close = float(np.mean(np.abs(bary - mins) <= OCCUPATION_EPS * r))
        estimates.append(_est(f"scaled_occupation_m2_t{t:g}", scaled,
                              ci_low=(m2_agg - 1.96 * se) * t ** (-expo),
                              ci_high=(m2_agg + 1.96 * se) * t ** (-expo)))
        rows.append({"t": t, "m2": m2_agg, "se": se, "scaled_m2": scaled,
                     "target": nu_var, "rel_deviation": dev,
                     "frac_barycenter_close": frac_close})
    # scaled and frac_close are the last rung's, the largest horizon
    checks.append(_chk("scaled_m2_factor_two",
                       0.5 * nu_var <= scaled <= 2.0 * nu_var,
                       observed=scaled, target=nu_var, tol=None,
                       note="within a factor 2 at the largest horizon"))
    checks.append(_chk("deviation_decreasing", deviations[-1] < deviations[0],
                       observed=deviations,
                       note="|scaled m2 / target - 1| smaller at the last "
                            "rung than the first; the annealed ratio is "
                            "dominated by few configurations, so rung-to-"
                            "rung monotonicity is not required"))
    checks.append(_chk("barycenter_tracks_minimum", frac_close >= 0.9,
                       observed=frac_close, target=1.0, tol=0.1,
                       note=f"|barycenter - m| <= {OCCUPATION_EPS} r(t) at the largest "
                            "horizon"))
    return _record("occupation", params_top, seed, n_samples, settings,
                   checks, estimates=estimates, tables={"occupation": rows})


# ---------------------------------------------------------------------------
# OU limit of the rescaled quenched kernel

def _ou_cdf_distance(grid: Grid, dens: np.ndarray, mean: float, var: float) -> float:
    """sup_x |F_hat(x) - Phi((x - mean)/sd)| with a midpoint discrete CDF."""
    x = grid.nodes()
    total = dens.sum()
    if total <= 0:
        return float("nan")
    c = (np.cumsum(dens) - 0.5 * dens) / total
    sd = math.sqrt(var)
    target = 0.5 * (1.0 + np.vectorize(math.erf)((x - mean) / (sd * math.sqrt(2.0))))
    return float(np.max(np.abs(c - target)))


def run_ou_limit(alpha: float = 2.0, t_ladder=(1e2, 1e3), n_samples: int = 24,
                 seed: int = 0, h_y: float = 0.02,
                 dt_y: float = 5e-4) -> RunRecord:
    """Rescaled quenched kernel against OU transition laws centered at the
    found minimum: sup CDF distances at {T/4, T/2, T}, T = OU_T, their median
    shrinking with the horizon, and recovery of the mean-reversion center.

    Controls (exact quadratic at unit scale): the ground-state identity at
    the stated step sizes, and the marginal-vs-OU CDF distance, both at 1e-3.
    """
    t_ladder = [float(t) for t in t_ladder]
    params_top = ModelParams(1, alpha, t_ladder[-1])
    cC = constants(params_top).C
    theta = math.sqrt(2.0 * cC)
    s_list = [OU_T / 4.0, OU_T / 2.0, OU_T]
    # the comparison marginals live at s <= T; the extra horizon keeps the
    # free right end from tilting them (the effect decays like e^{-2 theta tau})
    horizon = 3.0 * OU_T
    settings = {"t_ladder": t_ladder, "n_samples": n_samples, "T": OU_T,
                "h_y": h_y, "dt_y": dt_y, "y_radius": OU_Y_RADIUS}

    gs = groundstate_transform_check(cC, OU_T, h=0.005, dt=1e-4)
    checks = [_chk("control_groundstate_identity", gs.sup_rel_err <= 1e-3,
                   observed=gs.sup_rel_err, target=0.0, tol=1e-3,
                   control=True,
                   note="evolved kernel vs closed-form OU/ground-state "
                        "identity at h=0.005, dt=1e-4")]

    grid_y = make_grid(OU_Y_RADIUS, h_y)
    ys = grid_y.nodes()
    schedule_y = ((horizon, dt_y),)

    ctrl_marg = time_marginal(grid_y, (cC * ys ** 2)[:, None], schedule_y, s_list)
    d_ctrl = max(_ou_cdf_distance(grid_y, ctrl_marg[s][:, 0], 0.0,
                                  (1.0 - math.exp(-2 * theta * s)) / (2 * theta))
                 for s in s_list)
    checks.append(_chk("control_marginal_cdf", d_ctrl <= 1e-3,
                       observed=d_ctrl, target=0.0, tol=1e-3, control=True,
                       note="quadratic-well marginal vs OU transition CDF"))
    if not all(c["passed"] for c in checks):
        return _record("ou_limit", params_top, seed, n_samples, settings,
                       checks)

    rows, estimates, med_by_t = [], [], []
    for ti, t in enumerate(t_ladder):
        params = params_top.with_t(t)
        r = scale_r(params)
        views, mins = _tilted_minima(params, Box(7.0 * r + 70.0), Box(2.0 * r),
                                     seed, ti, n_samples)
        # V(m), then V at m + r y; a value does not depend on its batch
        V = np.stack([evaluate_V(view, np.r_[m, m + r * ys][:, None])
                      for view, m in zip(views, mins)], axis=1)
        W_cols = r ** 2 * (V[1:] - V[0])
        y0s = -mins / r
        init = np.zeros(W_cols.shape)       # a delta at each column's y0
        init[np.argmin(np.abs(ys[:, None] - y0s), axis=0), np.arange(n_samples)] = 1.0 / h_y
        margs = time_marginal(grid_y, W_cols, schedule_y, s_list, init)
        dists = np.zeros(n_samples)
        centers = np.empty(n_samples)
        for rep in range(n_samples):
            dmax = 0.0
            for s in s_list:
                mean_s = y0s[rep] * math.exp(-theta * s)
                var_s = (1.0 - math.exp(-2 * theta * s)) / (2 * theta)
                dmax = max(dmax, _ou_cdf_distance(grid_y, margs[s][:, rep],
                                                  mean_s, var_s))
            dists[rep] = dmax
            mean_T = float(np.sum(ys * margs[OU_T][:, rep]) * h_y)
            centers[rep] = (mean_T - y0s[rep] * math.exp(-theta * OU_T)) \
                / (1.0 - math.exp(-theta * OU_T))
        med, lo, hi = _median_ci(dists)
        med_by_t.append(med)
        frac_close = float(np.mean(np.abs(centers) <= 0.25))
        estimates.append(_est(f"kernel_cdf_distance_median_t{t:g}", med,
                              ci_low=lo, ci_high=hi))
        estimates.append(_est(f"center_recovery_fraction_t{t:g}", frac_close,
                              se=math.sqrt(max(frac_close * (1 - frac_close),
                                               1e-12) / n_samples)))
        rows.append({"t": t, "median_cdf_distance": med, "ci_low": lo,
                     "ci_high": hi, "frac_center_close": frac_close})
    checks.append(_chk("cdf_distance_decreasing",
                       med_by_t[-1] < med_by_t[0], observed=med_by_t,
                       note="median sup-CDF distance shrinks with the "
                            "horizon"))
    # frac_close is the last rung's, the largest horizon
    checks.append(_chk("center_recovery", frac_close >= 0.9,
                       observed=frac_close, target=1.0, tol=0.1,
                       note="fitted OU center within 0.25 r(t) of the found "
                            "minimum"))
    return _record("ou_limit", params_top, seed, n_samples, settings, checks,
                   estimates=estimates, tables={"kernel": rows})


# ---------------------------------------------------------------------------
# partition-function lower bound through the principal eigenvalue

def run_lemma5(alpha: float = 2.0, t_values=(4.0, 8.0, 16.0),
               n_samples: int = 100, seed: int = 0, h: float = 0.125,
               dt: float = 0.005) -> RunRecord:
    """Eigenvalue lower bound for the box partition function.

    Per config: <T_t 1, 1> >= (2 pi)^d e^{-2 lambda1} (2t)^{-d} e^{-t lambda1}
    on the box (-t, t)^d, checked for every sampled configuration; with
    lambda1 <= 1 the constant weakens to the fixed e^{-2}.  Aggregated:
    Z_t (delta start) >= (2 pi)^d e^{-2} (2t)^{-2d} E[e^{-t lambda1};
    lambda1 <= 1], allowing jackknife CI slack on both sides.
    """
    t_values = [float(t) for t in t_values]
    params_top = ModelParams(1, alpha, t_values[-1])
    d = params_top.d
    settings = {"t_values": t_values, "n_samples": n_samples, "h": h,
                "dt": dt, "config_margin": LEMMA5_CONFIG_MARGIN}
    checks, rows, estimates = [], [], []
    grids = [_stated_grid(t, h) for t in t_values]
    for t, grid in zip(t_values, grids):
        params = params_top.with_t(t)
        nodes = grid.nodes()
        cfg_box = Box(grid.radius + LEMMA5_CONFIG_MARGIN)
        views = [PotentialView(sample_homogeneous(cfg_box, seed, path=(round(t), rep)), params)
                 for rep in range(n_samples)]
        V_cols = _columns(views, nodes)

        lam1 = np.array([smallest_eigs(grid, V_cols[:, j]).lambda1 for j in range(n_samples)])
        schedule = ((t, dt),)
        u_ones, _ = batched_evolve(grid, V_cols, schedule, initial=np.ones(V_cols.shape))
        u_delta, _ = batched_evolve(grid, V_cols, schedule)
        lhs_ones = column_masses(grid, u_ones)        # <T_t 1, 1>
        z_delta = column_masses(grid, u_delta)        # Z_t from the origin
        sharp = (2.0 * math.pi) ** d * np.exp(-2.0 * lam1) \
            * (2.0 * t) ** (-d) * np.exp(-t * lam1)
        ok_sharp = bool(np.all(lhs_ones >= sharp))
        small = lam1 <= 1.0
        fixed = (2.0 * math.pi) ** d * math.exp(-2.0) * (2.0 * t) ** (-d) \
            * np.exp(-t * lam1)
        ok_fixed = bool(np.all(lhs_ones[small] >= fixed[small]))
        min_margin = float(np.min(np.log(lhs_ones) - np.log(sharp)))
        checks.append(_chk(f"per_config_bound_t{t:g}", ok_sharp,
                           observed=min_margin, target=0.0,
                           note="log margin of the e^{-2 lambda1} form, "
                                "minimum over configs"))
        checks.append(_chk(f"per_config_bound_fixed_const_t{t:g}", ok_fixed,
                           observed=int(np.sum(small)),
                           note="e^{-2} form on the lambda1 <= 1 subset"))
        z_mean, z_se = jackknife_mean(z_delta)
        b_vals = (2.0 * math.pi) ** d * math.exp(-2.0) * (2.0 * t) ** (-2 * d) \
            * np.exp(-t * lam1) * small
        b_mean, b_se = jackknife_mean(b_vals)
        slack = 1.96 * (z_se / z_mean + (b_se / b_mean if b_mean > 0 else 0.0))
        ok_agg = z_mean >= b_mean * (1.0 - slack)
        checks.append(_chk(f"aggregate_bound_t{t:g}", ok_agg,
                           observed=z_mean, target=b_mean, tol=slack,
                           note="annealed form with jackknife CI slack"))
        estimates.append(_est(f"z_hat_t{t:g}", z_mean,
                              ci_low=z_mean - 1.96 * z_se,
                              ci_high=z_mean + 1.96 * z_se, se=z_se))
        rows.append({"t": t, "z_mean": z_mean, "bound_mean": b_mean,
                     "min_log_margin": min_margin,
                     "lambda1_median": float(np.median(lam1)),
                     "n_small": int(np.sum(small))})
    return _record("lemma5", params_top, seed, n_samples, settings, checks,
                   estimates=estimates, tables={"bound": rows})


# ---------------------------------------------------------------------------
# scenario declarations: what the CLI accepts, runs and reports

class Plot(NamedTuple):
    """An SVG of a record, named <scenario>.<tables[0]>.svg.

    Each y column is drawn against x, one curve per table, or with `by` one
    per value of that column; a curve is labelled by its group, else by its
    table when there are several, else by its y column.  `band` names the
    (low, high) columns of a per-point error band.
    """

    tables: tuple
    x: str
    ys: tuple
    title: str
    xlabel: str
    ylabel: str
    band: tuple = ()
    by: str | None = None
    logx: bool = False
    logy: bool = False


class Scenario(NamedTuple):
    """One scenario as the CLI sees it: its name there, the registry key of
    its runner (also the record's name), the least n_samples it runs with,
    the config keys its runner takes under another name, the extra lines it
    prints from a record, its plot, and whether its runner steps to each
    t_ladder horizon on default_schedule."""

    cli: str
    key: str
    runner: Callable
    min_samples: int = 1
    renames: dict = {}
    summary: Callable | None = None
    plot: Plot | None = None
    on_schedule: bool = False


_CI = ("ci_low", "ci_high")

DECLARED = (
    Scenario("constants", "constants", run_constants,
             summary=lambda rec: [json.dumps(
                 {e["name"]: e["value"] for e in rec.estimates
                  if e["name"] in ("a1", "C", "a2", "l1", "l2")}, sort_keys=True)]),
    Scenario("mgf", "mgf", run_mgf, renames={"alpha": "alphas"},
             summary=lambda rec: [
                 f"  alpha={r['alpha']:g} s={r['s']:g}  exact={r['exact']:.12g}  "
                 f"predicted={r['predicted']:.12g}  residual={r['abs_err']:.3e}"
                 for r in rec.tables.get("errors", ())],
             plot=Plot(("errors",), "s", ("abs_err",), "asymptote error of the "
                       "single-point functional", "s", "|error|", by="alpha",
                       logx=True, logy=True)),
    Scenario("laplace", "laplace", run_laplace,
             plot=Plot(("two_point",), "separation", ("margin",),
                       "pair bound margin", "separation", "margin", logx=True)),
    Scenario("spectrum", "spectrum", run_spectrum,
             plot=Plot(("eigen",), "replica", ("lambda1", "lambda2"),
                       "principal eigenvalues by replica", "replica", "lambda")),
    Scenario("ids", "ids", run_ids,
             plot=Plot(("ids", "ids_auxiliary"), "lambda", ("n_hat",),
                       "integrated density of states", "lambda", "N(lambda)",
                       band=_CI, logy=True)),
    Scenario("tilted", "tilted", run_tilted),
    Scenario("localization", "localization", run_localization,
             plot=Plot(("radius", "control_radius"), "t", ("radius",),
                       "confinement radius", "t", "L*", by="kind",
                       logx=True, logy=True), on_schedule=True),
    Scenario("confinement", "confinement", run_confinement,
             plot=Plot(("deviation",), "t", ("scaled_median",),
                       "scaled profile deviation about the minimum", "t",
                       "median", band=_CI, logx=True, logy=True)),
    # both CIs need a variance across replicas
    Scenario("occupation", "occupation", run_occupation, min_samples=2,
             plot=Plot(("occupation",), "t", ("scaled_m2", "target"),
                       "occupation second moment", "t",
                       "t^{-(alpha-d+2)/(2 alpha)} m2", logx=True),
             on_schedule=True),
    Scenario("local-min", "local_min_stats", run_local_min_stats, min_samples=2,
             plot=Plot(("moments",), "t", ("mc_var", "quad_var_truncated"),
                       "variance of V at the tilt center", "t", "variance",
                       logx=True, logy=True)),
    Scenario("ou-check", "ou_limit", run_ou_limit,
             renames={"h": "h_y", "dt": "dt_y"},
             plot=Plot(("kernel",), "t", ("median_cdf_distance",),
                       "rescaled kernel vs OU", "t", "distance", band=_CI,
                       logx=True)),
    # the aggregate bounds' jackknife slack needs a variance across replicas
    Scenario("lemma5", "lemma5", run_lemma5, min_samples=2,
             renames={"t_ladder": "t_values"},
             plot=Plot(("bound",), "t", ("z_mean", "bound_mean"),
                       "partition function lower bound", "t", "value",
                       logy=True)),
)

# runners by key; the CLI calls them through this mapping
SCENARIOS = {s.key: s.runner for s in DECLARED}
