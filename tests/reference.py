"""Reference oracles that the tests compare fklab against.

None of these is on a scenario's path: each is an independent route to a
quantity the package computes another way, so it lives beside the tests
rather than in src/.
"""

import math

import numpy as np
from scipy import special
from scipy.linalg import eigh_tridiagonal

from fklab.laplace import exact_mgf_V0
from fklab.model import ModelParams, constants, vhat_radial, vhat_sum
from fklab.points import stream
from fklab.spectral import Grid, tridiag


def _sq_norm(x, d: int):
    """|x|^2 for a scalar (d=1), a single point (d,), or a batch (..., d).

    For d = 1 a bare array of shape (n,) is read as n scalar points.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if d != 1:
            raise ValueError("scalar input only makes sense for d = 1")
        return x * x
    if d == 1 and (x.ndim == 1 or x.shape[-1] != 1):
        return x * x
    if x.shape[-1] != d:
        raise ValueError(f"point array with last axis {x.shape[-1]} does not match d={d}")
    return np.sum(x * x, axis=-1)


def shape_vhat(x, params: ModelParams):
    """Potential shape vhat(x) = min(|x|^-alpha, 1).

    x may be a scalar (d = 1 only), an array of shape (d,), or a batch of
    points with shape (..., d).
    """
    r = np.sqrt(_sq_norm(x, params.d))
    return vhat_radial(r, params.alpha)


def groundstate_phi1(x, params: ModelParams):
    """Ground state of -(1/2) Laplacian + C |x|^2:

        phi1(x) = (sqrt(2 C) / pi)^(d/4) * exp(-sqrt(C/2) |x|^2),

    normalized in L^2(R^d).
    """
    c = constants(params)
    r2 = _sq_norm(x, params.d)
    w = math.sqrt(2.0 * c.C)
    return (w / math.pi) ** (params.d / 4.0) * np.exp(-0.5 * w * r2)


def dense_1d(grid: Grid, V) -> np.ndarray:
    """The d = 1 operator -1/2 Laplacian + V on the grid as a dense matrix,
    from its tridiagonal bands."""
    diag, off = tridiag(grid, V)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def exact_ids_scores(diag, off, grid: Grid, lambdas) -> np.ndarray:
    """One IDS draw's unit-cell scores (spectral.tilted_ids_draws) from its
    tridiagonal operator, with every eigenvalue bisected to full precision
    (LAPACK's default tolerance) and placed against the lambdas directly."""
    lambdas = np.asarray(lambdas, dtype=float)
    x = grid.nodes()
    cell = (x >= -0.5) & (x < 0.5)
    evs, vecs = eigh_tridiagonal(diag, off, select="v",
                                 select_range=(-np.inf, float(lambdas.max())))
    below = np.concatenate([[0.0], np.cumsum(np.sum(vecs[cell] ** 2, axis=0))])
    return below[np.searchsorted(evs, lambdas, side="right")] \
        / (np.count_nonzero(cell) * grid.h)


def variance_limit_closed_form(params: ModelParams) -> float:
    """lim_t t^((2 alpha - d)/alpha) * Var_t[V(atom)] = (sigma_d/alpha) Gamma((2 alpha - d)/alpha)."""
    c = constants(params)
    a = (2.0 * params.alpha - params.d) / params.alpha
    return (c.sigma_d / params.alpha) * special.gamma(a)


# ---------------------------------------------------------------------------
# explicit annealed lower bound used by the partition-function tests

def stay_probability(rho: float, t: float) -> float:
    """P_0(|B_s| < rho for s <= t) for 1-d Brownian motion.

    Two dual series: Dirichlet eigenfunctions converge fast for t >> rho^2,
    image charges for t << rho^2; the modular parameter picks the branch.
    """
    if rho <= 0:
        return 0.0
    tau = t / (rho * rho)
    if tau >= 0.4:
        s = 0.0
        for k in range(1, 401, 2):
            term = (4.0 / (math.pi * k)) * (-1.0) ** ((k - 1) // 2) \
                * math.exp(-k * k * math.pi ** 2 * tau / 8.0)
            s += term
            if abs(term) < 1e-18:
                break
        return min(max(s, 0.0), 1.0)
    # reflection series: sum_k (-1)^k [Phi((2k+1)a) - Phi((2k-1)a)], a = rho/sqrt(t)
    a = 1.0 / math.sqrt(tau)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    kmax = int(math.sqrt(2.0 * 45.0) / a) + 2
    s = 0.0
    for k in range(-kmax, kmax + 1):
        s += (-1.0) ** k * (phi((2 * k + 1) * a) - phi((2 * k - 1) * a))
    return min(max(s, 0.0), 1.0)


def strategy_log_lower_bound(params: ModelParams, rho: float,
                             t: float | None = None) -> float:
    """log of a rigorous lower bound for the annealed partition function Z_t:

        Z_t >= P_0(stay in B_rho) * exp(-int (1 - e^{-t sup_{|x|<rho} vhat(x-y)}) dy)

    obtained by confining the path to B(0, rho) and enlarging the shape to its
    sup over the ball (d = 1).
    """
    if params.d != 1:
        raise NotImplementedError("strategy bound implemented for d = 1")
    if t is None:
        t = params.t
    mgf = exact_mgf_V0(t, params)  # = -int (1 - e^{-t vhat})
    enlarged = 2.0 * rho * (-np.expm1(-t)) + (-mgf)
    return math.log(stay_probability(rho, t)) - enlarged


# ---------------------------------------------------------------------------
# independent path-sampling oracle

def brownian_partition_mc(points, params: ModelParams, t: float, box_radius: float,
                          n_paths: int, seed: int, dt: float = 5e-4,
                          batch: int = 20000):
    """Direct Monte Carlo of E_0[e^{-int V(X)} : stay] for d = 1 configs.

    Euler-exact Brownian increments; trapezoid quadrature of the potential
    along the path; absorption checked at step times.  Returns (mean, se).
    """
    if params.d != 1:
        raise NotImplementedError("path oracle implemented for d = 1")
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    n_steps = round(t / dt)
    if abs(n_steps * dt - t) > 1e-9 * max(t, 1.0):
        raise ValueError("dt must divide t")
    rng = stream(seed, 901)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_paths:
        m = min(batch, n_paths - done)
        x = np.zeros(m)
        logw = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        v_prev = vhat_sum(x[:, None], pts, params.alpha)
        sq_dt = math.sqrt(dt)
        for _ in range(n_steps):
            x = x + sq_dt * rng.standard_normal(m)
            alive &= np.abs(x) <= box_radius
            v_new = vhat_sum(x[:, None], pts, params.alpha)
            logw -= 0.5 * dt * (v_prev + v_new)
            v_prev = v_new
        w = np.where(alive, np.exp(logw), 0.0)
        total += float(np.sum(w))
        total_sq += float(np.sum(w ** 2))
        done += m
    mean = total / n_paths
    var = max(total_sq / n_paths - mean ** 2, 0.0)
    return mean, math.sqrt(var / n_paths)
