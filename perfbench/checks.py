"""Correctness checks of the workloads' run records, made apart from fklab.

Each check takes a record as parsed JSON and returns the list of its failures
(empty when the record passes).  Every reference value is computed here from
closed forms or numpy's own quadrature rules, never from fklab and never from
a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Gauss-Legendre rule used on every panel of the Campbell integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GH_ATOMS = 32          # atoms of the tilt measure, as in the runner
PANEL_RATIO = 1.02      # growth of the geometric panel ladder
Z = 4.5                 # standard errors a tilted_min moment may miss by
MEHLER_TOL = 0.005      # relative miss allowed on a control radius
ROUNDOFF = 1e-12        # dip allowed in q_mean once a box holds all the mass
SLOPE_TOL = 0.15        # relative miss allowed on the Lifshitz refit


def _C(alpha: float, d: int = 1) -> float:
    """Quadratic profile constant (alpha sigma_d / 2d) Gamma((2 alpha - d + 2)/alpha)."""
    sigma_d = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return (alpha * sigma_d / (2.0 * d)) * math.gamma((2.0 * alpha - d + 2.0) / alpha)


def tilt_measure(t: float, alpha: float):
    """Atoms and weights of the 32-point Gauss-Hermite tilt measure at horizon t:
    N(0, std^2) with std^2 = (8C)^(-1/2) r(t)^2 and r(t) = t^((alpha+1)/(4 alpha))."""
    nodes, w = np.polynomial.hermite.hermgauss(_GH_ATOMS)
    std = (8.0 * _C(alpha)) ** -0.25 * t ** ((alpha + 1.0) / (4.0 * alpha))
    return math.sqrt(2.0) * std * nodes, w / math.sqrt(math.pi)


def _vhat(r, alpha):
    """min(|r|^-alpha, 1)."""
    return np.maximum(np.abs(r), 1.0) ** -alpha


def _panels(radius: float):
    """Breakpoints on [0, radius]: [0, 1] then a geometric ladder."""
    pts = [0.0, 1.0]
    while pts[-1] < radius:
        pts.append(min(pts[-1] * PANEL_RATIO, radius))
    return np.asarray(pts)


def campbell_integrals(t: float, alpha: float, radius: float, powers=(1, 2, 4)):
    """int_{|y| <= radius} vhat(y)^k lam(y) dy for each k, where
    lam(y) = exp(-t sum_i w_i vhat(x_i - y)) is the tilted intensity.

    radius = inf integrates over the line: the panels stop where t vhat is
    below 1e-13 and the rest is the pure power tail 2 Y^(1 - k alpha) / (k alpha - 1).
    """
    atoms, weights = tilt_measure(t, alpha)
    far = math.isinf(radius)
    stop = (t / 1e-13) ** (1.0 / alpha) if far else radius
    b = _panels(stop)
    a, b = b[:-1], b[1:]
    half = 0.5 * (b - a)
    y = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES[None, :]
    y = np.concatenate([y.ravel(), -y.ravel()])
    w = np.concatenate([(half[:, None] * _GL_WEIGHTS[None, :]).ravel()] * 2)
    phi = _vhat(y[:, None] - atoms[None, :], alpha) @ weights
    lam = np.exp(-t * phi)
    v = _vhat(y, alpha)
    out = {}
    for k in powers:
        val = float(np.sum(w * v ** k * lam))
        if far:
            val += 2.0 * stop ** (1.0 - k * alpha) / (k * alpha - 1.0)
        out[k] = val
    return out


def check_tilted_min(rec: dict) -> list[str]:
    """V at the tilt centre against Campbell's theorem, rung by rung.

    For the tilted Poisson process, V(0) = sum_i vhat(y_i) has mean
    int_R vhat lam (the record adds the far field beyond the box back), and
    over the sampled box variance k2 = int vhat^2 lam and fourth cumulant
    k4 = int vhat^4 lam.  The mean may miss by Z standard errors
    sqrt(k2 / n), the sample variance by Z of sqrt((k4 + 2 k2^2) / n).
    The record's own verdict is not used: its 5% variance tolerance is sized
    for 10^4 replicas.
    """
    fails = []
    alpha = float(rec["params"]["alpha"])
    n = int(rec["n_samples"])
    for row in rec["tables"]["moments"]:
        t, R = float(row["t"]), float(row["box_radius"])
        mean = campbell_integrals(t, alpha, math.inf, powers=(1,))[1]
        box = campbell_integrals(t, alpha, R, powers=(2, 4))
        k2, k4 = box[2], box[4]
        se_mean = math.sqrt(k2 / n)
        se_var = math.sqrt((k4 + 2.0 * k2 ** 2) / n)
        if not abs(row["mc_mean"] - mean) <= Z * se_mean:
            fails.append(f"t={t:g}: mean {row['mc_mean']:.9g} is "
                         f"{(row['mc_mean'] - mean) / se_mean:+.2f} se from {mean:.9g}")
        if not abs(row["mc_var"] - k2) <= Z * se_var:
            fails.append(f"t={t:g}: variance {row['mc_var']:.6g} is "
                         f"{(row['mc_var'] - k2) / se_var:+.2f} se from {k2:.6g}")
    if len(rec["tables"]["moments"]) != 3:
        fails.append("expected three rungs in the moments table")
    return fails


def mehler_median_radius(t: float, alpha: float) -> float:
    """Median |X_t| of the Feynman-Kac density of -1/2 d^2/dx^2 + c x^2 from
    a delta at 0, c = C t^(-(alpha+1)/alpha): Gaussian with variance
    tanh(omega t)/omega, omega = sqrt(2c)."""
    c = _C(alpha) * t ** (-(alpha + 1.0) / alpha)
    omega = math.sqrt(2.0 * c)
    return NormalDist().inv_cdf(0.75) * math.sqrt(math.tanh(omega * t) / omega)


def check_fk_ladder(rec: dict) -> list[str]:
    """Control radii against the Mehler marginal, domain monotonicity of the
    confinement ratio in L, and the record's own verdict.

    q_mean is a ratio of masses that sits at 1 up to a few 1e-14 once the
    sub-box holds all the mass, so it may dip by ROUNDOFF between boxes.
    """
    fails = []
    alpha = float(rec["params"]["alpha"])
    if rec["status"] != "pass":
        fails.append(f"record status is {rec['status']!r}")
    ctrl = [r for r in rec["tables"]["control_radius"] if r["kind"] == "control_marginal"]
    if len(ctrl) != len(rec["settings"]["t_ladder"]):
        fails.append("one control_marginal radius per horizon expected")
    for row in ctrl:
        exact = mehler_median_radius(float(row["t"]), alpha)
        if not abs(row["radius"] / exact - 1.0) <= MEHLER_TOL:
            fails.append(f"t={row['t']:g}: control radius {row['radius']:.6g} vs "
                         f"Mehler {exact:.6g}")
    by_t: dict[float, list] = {}
    for row in rec["tables"]["confinement"]:
        by_t.setdefault(float(row["t"]), []).append((float(row["L"]), row["q_mean"]))
    for t, rows in sorted(by_t.items()):
        q = [v for _, v in sorted(rows)]
        if any(b < a - ROUNDOFF for a, b in zip(q, q[1:])):
            fails.append(f"t={t:g}: q_mean decreases in L: {q}")
    return fails


def check_ids_tail(rec: dict) -> list[str]:
    """Positivity, monotonicity and CI of N_hat on both windows, and a refit
    of the Lifshitz exponent on the primary window."""
    fails = []
    d, alpha = int(rec["params"]["d"]), float(rec["params"]["alpha"])
    for table in ("ids", "ids_auxiliary"):
        rows = sorted(rec["tables"][table], key=lambda r: r["lambda"])
        nh = [r["n_hat"] for r in rows]
        if not all(isinstance(v, float) and v > 0 for v in nh):
            fails.append(f"{table}: N_hat not positive everywhere: {nh}")
        if any(b < a for a, b in zip(nh, nh[1:])):
            fails.append(f"{table}: N_hat decreases in lambda: {nh}")
        for r in rows:
            lo, hi = r["ci_low"], r["ci_high"]
            if not (isinstance(lo, float) and isinstance(hi, float)
                    and math.isfinite(lo) and math.isfinite(hi) and lo <= r["n_hat"] <= hi):
                fails.append(f"{table}: CI [{lo}, {hi}] does not bracket "
                             f"N_hat {r['n_hat']} at lambda {r['lambda']}")
    rows = rec["tables"]["ids"]
    if fails or len(rows) < 3:
        return fails or ["fewer than three lambdas on the primary window"]
    x = np.log([1.0 / r["lambda"] for r in rows])
    y = np.log([-math.log(r["n_hat"]) for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    target = d / (alpha - d)
    if not abs(slope - target) <= SLOPE_TOL * target:
        fails.append(f"Lifshitz refit slope {slope:.4f} outside {target:g} +- {SLOPE_TOL * target:g}")
    return fails


CHECKS = {"tilted_min": check_tilted_min, "fk_ladder": check_fk_ladder,
          "ids_tail": check_ids_tail}
